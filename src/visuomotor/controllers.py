"""Autonomous control policies.

Four policies map recent prediction errors to the next motor command:
pure random babbling (RM), replaying the command with the smallest
recent error (MinPE), the largest recent error (MaxPE), or the largest
drop in sliding-mean error (MaxLP). Commands are codes (code i is
``COMMANDS[i]``). Each reactive policy is a pure function of a run's
command codes and errors so far, and ``choose_code`` alone draws from a
controller's generator: for RM, for the epsilon chance of acting at
random, and for the fallback when a policy has nothing to score. RM
never reads the log, so a run draws its whole command sequence once, up
front (``random_commands``). ``choose_action`` makes the same choice
from a bounded ``ErrorHistory`` ring, for callers that go a step at a
time.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import ConfigError
from .world import COMMANDS, MotorCommand


class ControllerKind(str, Enum):
    RM = "rm"
    MINPE = "minpe"
    MAXPE = "maxpe"
    MAXLP = "maxlp"


class HistoryRecord(NamedTuple):
    t: int
    command: MotorCommand
    error: float


class ErrorHistory:
    """Bounded ring of (timestep, command, error) records, oldest first,
    one per step: each timestep is the previous one plus one."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigError("history capacity must be positive")
        self.capacity = capacity
        self._records: deque[HistoryRecord] = deque(maxlen=capacity)

    def append(self, t: int, command: MotorCommand, error: float) -> None:
        if self._records and t != self._records[-1].t + 1:
            raise ValueError(
                f"timesteps must be consecutive "
                f"(got {t} after {self._records[-1].t})"
            )
        if not math.isfinite(error) or error < 0:
            raise ValueError(f"error must be finite and non-negative, got {error}")
        self._records.append(HistoryRecord(int(t), command, float(error)))

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[HistoryRecord]:
        return iter(self._records)

    def errors_between(self, start: int, end: int) -> list[float]:
        """Errors of records with timestep in the half-open range (start, end].

        No package code calls it; ``benchmarks/traced.py`` counts its calls."""
        return [r.error for r in self._records if start < r.t <= end]


@dataclass(frozen=True)
class ControllerConfig:
    kind: ControllerKind = ControllerKind.RM
    window: int = 20  # lookback for command reuse
    epsilon: float = 0.2  # chance of a random command
    em_window: int = 10  # sliding-mean width for learning progress
    seed: int = 0

    def __post_init__(self):
        if self.kind not in list(ControllerKind):
            raise ConfigError(f"unknown controller kind {self.kind!r}; choose "
                              f"from {[k.value for k in ControllerKind]}")
        object.__setattr__(self, "kind", ControllerKind(self.kind))
        if self.window < 1:
            raise ConfigError("window must be at least 1")
        if self.em_window < 1:
            raise ConfigError("em_window must be at least 1")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigError("epsilon must lie in [0, 1]")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


def _random_code(rng: np.random.Generator) -> int:
    """One uniform draw of a command code."""
    return int(rng.integers(len(COMMANDS)))


def choose_random(rng: np.random.Generator) -> MotorCommand:
    """Motor babbling: uniform over the five commands."""
    return COMMANDS[_random_code(rng)]


def random_commands(rng: np.random.Generator, steps: int) -> np.ndarray:
    """``steps`` calls of ``choose_random`` in one draw: the codes of the
    same commands (command i is ``COMMANDS[i]``), and the same generator
    state afterwards.

    numpy draws a bounded integer array and a bounded scalar alike, by
    Lemire's method on the generator's 32-bit outputs, one after another,
    so one draw of ``steps`` values yields the values of ``steps`` draws.
    """
    return rng.integers(len(COMMANDS), size=steps)


def _pe(pick: Callable[[np.ndarray], int], codes: np.ndarray, errors: np.ndarray,
        cfg: ControllerConfig) -> int | None:
    """Repeat the command of the extreme error in the lookback window:
    ``pick`` is ``np.argmin`` for MinPE and ``np.argmax`` for MaxPE.

    Ties go to the most recent step; an empty log has nothing to score
    and gives None.
    """
    if not len(errors):
        return None
    # argmin and argmax return the first of equal values, so scanning
    # newest first lets the most recent step win a tie.
    return int(codes[-1 - pick(errors[-cfg.window:][::-1])])


def _maxlp(codes: np.ndarray, errors: np.ndarray, cfg: ControllerConfig) -> int | None:
    """Repeat the command whose step showed the largest learning progress.

    Progress at step i is the drop in sliding-mean error, em(i - 1) - em(i),
    where em(i) is the mean error of steps (i - em_window, i]. With
    m = em_window both windows hold m errors from step m on, and the drop
    is (e[i - m] - e[i]) / m. Before that both windows start at the log's
    first step, which has no em(i - 1) and is skipped; their prefix sums
    are added left to right (``np.cumsum``, like Python 3.11's ``sum``):
    a pairwise or compensated sum rounds some of them differently, and
    that can change the choice.
    With fewer than two steps there is nothing to score, and the result
    is None.

    Ties go to the most recent step, but ties of the rounded progress
    values, not of the real ones. Below step m the short-window formula
    can round progress that is equal in real arithmetic apart, and then
    an older step may win: four steps of error e = 0.4108733470300775
    with m = 4 and ``window`` 2 score 0.0 at step 2, but
    ((e + e + e) / 3 - e) / 4 rounds to -1.4e-17 at step 3, so step 2's
    command is chosen. Those steps are scored only in a run's first
    ``window + em_window`` steps.
    """
    n, m = len(errors), cfg.em_window
    if n < 2:
        return None
    lo = max(1, n - cfg.window)
    mid = min(max(lo, m), n)  # the first step scored with full windows
    progress = (errors[mid - m : n - m] - errors[mid:]) / m
    if lo < mid:
        # mean(e[:i]) - mean(e[:i + 1]), rearranged.
        i = np.arange(lo, mid)
        sums = np.cumsum(errors[: mid - 1])[i - 1]
        progress = np.concatenate(((sums / i - errors[lo:mid]) / (i + 1), progress))
    # argmax returns the first of equal values: scan newest first.
    return int(codes[-1 - np.argmax(progress[::-1])])


# The reactive policies: each scores a run's command codes and errors so
# far, oldest first, and returns the code to repeat, or None.
_POLICIES: dict[ControllerKind, Callable[..., int | None]] = {
    ControllerKind.MINPE: partial(_pe, np.argmin),
    ControllerKind.MAXPE: partial(_pe, np.argmax),
    ControllerKind.MAXLP: _maxlp,
}


def choose_code(kind: ControllerKind, codes: np.ndarray, errors: np.ndarray,
                cfg: ControllerConfig, rng: np.random.Generator) -> int:
    """The next command code for ``kind``, from the codes and errors of the
    steps so far, oldest first, and the only draws a controller makes.

    RM ignores the log and makes one integer draw. Every other kind makes
    one uniform draw, then one integer draw only when that falls below
    epsilon or its policy returns None.
    """
    kind = ControllerKind(kind)
    if kind is ControllerKind.RM or rng.random() < cfg.epsilon:
        return _random_code(rng)
    code = _POLICIES[kind](codes, errors, cfg)
    if code is None:
        return _random_code(rng)
    return code


def choose_action(
    kind: ControllerKind,
    history: ErrorHistory,
    cfg: ControllerConfig,
    rng: np.random.Generator,
) -> MotorCommand:
    """``choose_code`` on the codes and errors of ``history``, as a command:
    the choice for callers that keep a ring rather than a whole log.

    A ring of capacity ``window + em_window`` gives the choices of the
    whole log: PE reads only the last ``window`` errors, and MaxLP scores
    steps before ``em_window`` only while the ring holds the whole log.
    """
    codes = np.array([COMMANDS.index(r.command) for r in history], dtype=int)
    errors = np.array([r.error for r in history], dtype=float)
    return COMMANDS[choose_code(kind, codes, errors, cfg, rng)]
