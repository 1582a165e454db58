"""Fault-model parameter table and resilience arithmetic.

Four mobile-Byzantine fault models are supported, differing in when agents
move and in what a vacated ("cured") server knows and can do.  Each model
carries a resilience denominator ``alpha`` (the system is usable only when
n > alpha * f) and a vote discount ``beta`` (a value is selected once it is
reported by at least n - beta * f distinct servers).
"""

from __future__ import annotations

import enum
import sys
from typing import NamedTuple


class ConfigError(ValueError):
    """A system or experiment configuration is malformed or inadmissible."""


class ModelId(enum.Enum):
    """The four mobile-Byzantine fault models."""

    GARAY = "garay"        # M1: moves at round start, cured servers know it
    BONNET = "bonnet"      # M2: moves at round start, no cure awareness, constrained cured sends
    SASAKI = "sasaki"      # M3: moves at round start, cured servers Byzantine one extra round
    BUHRMAN = "buhrman"    # M4: agents move with the messages, cured servers know it

    def __str__(self) -> str:
        return self.value

    @classmethod
    def parse(cls, text: str) -> "ModelId":
        t = text.strip().lower()
        aliases = {"m1": cls.GARAY, "m2": cls.BONNET, "m3": cls.SASAKI, "m4": cls.BUHRMAN}
        if t in aliases:
            return aliases[t]
        for member in cls:
            if member.value == t:
                return member
        raise ConfigError(f"unknown fault model {text!r} (expected one of "
                          f"{', '.join(m.value for m in cls)} or m1..m4)")


class ModelParams(NamedTuple):
    """One model's row: its resilience arithmetic and the facts that set it apart.

    ``oracle_enabled``: a cured server learns that it was cured (and stays
    silent for a round).  ``cured_byzantine``: a server vacated at round
    start still sends as a Byzantine one for that round.  ``moves_in_send``:
    agents relocate with the send phase's messages, not at round start.
    """

    model: ModelId
    alpha: int
    beta: int
    oracle_enabled: bool
    cured_byzantine: bool
    moves_in_send: bool


_TABLE: dict[ModelId, ModelParams] = {p.model: p for p in (
    #           model            alpha beta oracle cured_byz moves_in_send
    ModelParams(ModelId.GARAY,   3,    2,   True,  False,    False),
    ModelParams(ModelId.BONNET,  4,    2,   False, False,    False),
    ModelParams(ModelId.SASAKI,  4,    2,   False, True,     False),
    ModelParams(ModelId.BUHRMAN, 2,    1,   True,  False,    True),
)}


def is_int(x) -> bool:
    """Whether ``x`` is an ``int`` and not a ``bool``."""
    return isinstance(x, int) and not isinstance(x, bool)


def lookup(model: ModelId) -> ModelParams:
    """Return the parameter row for a fault model.  Total function."""
    return _TABLE[model]


class SystemConfig:
    """Server count, fault budget, and model parameters for one system.

    A plain ``__slots__`` class that checks ``n`` and ``f`` when built; two
    configs are equal when their ``n``, ``f`` and ``params`` are.
    """

    __slots__ = ("n", "f", "params")

    def __init__(self, n: int, f: int, params: ModelParams) -> None:
        for name, x in (("n", n), ("f", f)):
            if not is_int(x):
                raise ConfigError(f"{name} {x!r} is not an integer")
        if f < 0:
            raise ConfigError(f"f must be >= 0, got {f}")
        if n < 1:
            raise ConfigError(f"n must be >= 1, got {n}")
        if n > sys.maxsize:  # no list or range of servers could be indexed
            raise ConfigError(f"n must be <= {sys.maxsize}, got {n}")
        if f > n:
            raise ConfigError(f"f must be <= n, got f={f} > n={n}")
        self.n, self.f, self.params = n, f, params

    def _key(self) -> tuple:
        return (self.n, self.f, self.params)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"SystemConfig(n={self.n!r}, f={self.f!r}, params={self.params!r})"

    @property
    def admissible(self) -> bool:
        """True iff the server count clears the model's lower bound (n > alpha*f)."""
        return self.n > self.params.alpha * self.f

    @property
    def selection_threshold(self) -> int:
        """s = n - beta*f, with no admissibility gate (bound demos run below it)."""
        return self.n - self.params.beta * self.f


def make_config(model: ModelId | str, n: int, f: int) -> SystemConfig:
    mid = model if isinstance(model, ModelId) else ModelId.parse(model)
    return SystemConfig(n=n, f=f, params=lookup(mid))
