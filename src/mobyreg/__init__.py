"""Mobile-Byzantine-tolerant MWMR atomic register: protocol, simulator, checker."""

from .model import ConfigError, ModelId, ModelParams, SystemConfig, lookup, make_config
from .protocol import BOTTOM, Echo, Read, Reply, Tally, Write
from .adversary import (NoFaults, RandomWalk, Scripted, SplitVote, Stationary,
                        Strategy, Sweep, make_strategy)
from .engine import (Directive, RandomWorkload, RunResult, probe_agreement, run,
                     tightness_demo)
from .checker import (CheckerInputError, Op, Verdict, check_all, check_ordering,
                      check_termination, check_validity, history_from_records,
                      precedes)

__all__ = [name for name in dir() if not name.startswith("_")]
