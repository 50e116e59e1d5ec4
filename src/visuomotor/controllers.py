"""Autonomous control policies.

Four policies map recent prediction errors to the next motor command:
pure random babbling (RM), replaying the command with the smallest
recent error (MinPE), the largest recent error (MaxPE), or the largest
drop in sliding-mean error (MaxLP). The non-random policies share an
epsilon chance of acting randomly and fall back to a random command
whenever the history carries no usable signal.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import ConfigError, HistoryRangeError
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
    """Bounded ring of (timestep, command, error) records, oldest first."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigError("history capacity must be positive")
        self.capacity = capacity
        self._records: deque[HistoryRecord] = deque(maxlen=capacity)

    def append(self, t: int, command: MotorCommand, error: float) -> None:
        if self._records and t <= self._records[-1].t:
            raise ValueError(
                f"timesteps must be strictly increasing "
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
        """Errors of records with timestep in the half-open range (start, end]."""
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


def choose_random(rng: np.random.Generator) -> MotorCommand:
    """Motor babbling: uniform over the five commands."""
    return COMMANDS[int(rng.integers(len(COMMANDS)))]


def _epsilon_random(
    cfg: ControllerConfig, rng: np.random.Generator
) -> MotorCommand | None:
    # One uniform draw per decision keeps the stream layout fixed.
    if rng.random() < cfg.epsilon:
        return choose_random(rng)
    return None


def choose_pe(
    history: ErrorHistory,
    cfg: ControllerConfig,
    rng: np.random.Generator,
    extreme: Callable[..., HistoryRecord],
) -> MotorCommand:
    """Repeat the command of the extreme error in the lookback window:
    ``extreme`` is ``min`` for MinPE and ``max`` for MaxPE.

    Ties go to the most recent record; an empty history falls back to a
    random command.
    """
    random_pick = _epsilon_random(cfg, rng)
    if random_pick is not None:
        return random_pick
    recent = list(history)[-cfg.window:]
    if not recent:
        return choose_random(rng)
    # min and max keep the first of equal keys, so scanning newest first
    # lets the most recent record win a tie.
    return extreme(reversed(recent), key=attrgetter("error")).command


def sliding_mean_error(history: ErrorHistory, at: int, em_window: int) -> float:
    """Mean error over records with timestep in (at - em_window, at]."""
    if em_window < 1:
        raise ConfigError("em_window must be at least 1")
    errors = history.errors_between(at - em_window, at)
    if not errors:
        raise HistoryRangeError(
            f"no records in ({at - em_window}, {at}]"
        )
    return sum(errors) / len(errors)


def choose_maxlp(
    history: ErrorHistory, cfg: ControllerConfig, rng: np.random.Generator
) -> MotorCommand:
    """Repeat the command whose step showed the largest learning progress.

    Progress at record time tau is the drop in sliding-mean error,
    em(tau - 1) - em(tau), with em as in ``sliding_mean_error``. Records
    where either mean is undefined are skipped; if none qualify the
    choice is random. Ties go to the most recent record.

    One pass over the ring: the timesteps are strictly increasing, so each
    mean is the sum of an index slice found by bisection, over the same
    errors in the same order as ``sliding_mean_error``.
    """
    random_pick = _epsilon_random(cfg, rng)
    if random_pick is not None:
        return random_pick
    records = list(history)
    times = [r.t for r in records]
    errors = [r.error for r in records]
    best_command: MotorCommand | None = None
    best_progress = -math.inf
    prev_t = prev_lo = prev_mean = None
    for i in range(max(0, len(records) - cfg.window), len(records)):
        t = times[i]
        if t - 1 == prev_t:
            # Record i - 1 sits at t - 1, so its em(t - 1) was the sum of
            # this very slice, errors[prev_lo:i], divided by the same count:
            # reusing it gives the same float.
            lo_before, mean_before = prev_lo, prev_mean
        else:
            # em(t - 1) covers (t - 1 - em_window, t - 1], which ends before i.
            lo_before = bisect_right(times, t - 1 - cfg.em_window, 0, i)
            if lo_before == i:
                continue
            mean_before = sum(errors[lo_before:i]) / (i - lo_before)
        lo_now = bisect_right(times, t - cfg.em_window, lo_before, i)
        mean_now = sum(errors[lo_now:i + 1]) / (i + 1 - lo_now)
        prev_t, prev_lo, prev_mean = t, lo_now, mean_now
        progress = mean_before - mean_now
        if progress >= best_progress:
            best_command = records[i].command
            best_progress = progress
    if best_command is None:
        return choose_random(rng)
    return best_command


def choose_action(
    kind: ControllerKind,
    history: ErrorHistory,
    cfg: ControllerConfig,
    rng: np.random.Generator,
) -> MotorCommand:
    """Dispatch to the policy for ``kind``. RM ignores the history."""
    kind = ControllerKind(kind)
    if kind is ControllerKind.RM:
        return choose_random(rng)
    if kind is ControllerKind.MAXLP:
        return choose_maxlp(history, cfg, rng)
    extreme = min if kind is ControllerKind.MINPE else max
    return choose_pe(history, cfg, rng, extreme)
