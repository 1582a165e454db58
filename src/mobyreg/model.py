"""Fault-model parameter table and resilience arithmetic.

Four mobile-Byzantine fault models are supported, differing in when agents
move and in what a vacated ("cured") server knows and can do.  Each model
carries a resilience denominator ``alpha`` (the system is usable only when
n > alpha * f) and a vote discount ``beta`` (a value is selected once it is
reported by at least n - beta * f distinct servers).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


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


@dataclass(frozen=True)
class ModelParams:
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


@dataclass(frozen=True)
class SystemConfig:
    """Server count, fault budget, and model parameters for one system."""

    n: int
    f: int
    params: ModelParams

    def __post_init__(self) -> None:
        for name in ("n", "f"):
            if not is_int(getattr(self, name)):
                raise ConfigError(f"{name} {getattr(self, name)!r} is not an integer")
        if self.f < 0:
            raise ConfigError(f"f must be >= 0, got {self.f}")
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if self.f > self.n:
            raise ConfigError(f"f must be <= n, got f={self.f} > n={self.n}")

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
