"""Autonomous control policies.

Four policies map recent prediction errors to the next motor command:
pure random babbling (RM), replaying the command with the smallest
recent error (MinPE), the largest recent error (MaxPE), or the largest
drop in sliding-mean error (MaxLP). The non-random policies share an
epsilon chance of acting randomly and fall back to a random command
whenever the history carries no usable signal. RM never reads the
history, so a run draws its whole command sequence once, up front
(``random_commands``).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
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


def choose_random(rng: np.random.Generator) -> MotorCommand:
    """Motor babbling: uniform over the five commands."""
    return COMMANDS[int(rng.integers(len(COMMANDS)))]


def random_commands(rng: np.random.Generator, steps: int) -> np.ndarray:
    """``steps`` calls of ``choose_random`` in one draw: the codes of the
    same commands (command i is ``COMMANDS[i]``), and the same generator
    state afterwards.

    numpy draws a bounded integer array and a bounded scalar alike, by
    Lemire's method on the generator's 32-bit outputs, one after another,
    so one draw of ``steps`` values yields the values of ``steps`` draws.
    """
    return rng.integers(len(COMMANDS), size=steps)


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


def choose_maxlp(
    history: ErrorHistory, cfg: ControllerConfig, rng: np.random.Generator
) -> MotorCommand:
    """Repeat the command whose step showed the largest learning progress.

    Progress at record time tau is the drop in sliding-mean error,
    em(tau - 1) - em(tau), where em(tau) is the mean error of the records
    with timestep in (tau - em_window, tau]. The ring holds one record per
    step, so with m = em_window both windows hold m errors from the ring's
    (m + 1)-th record on, and the drop is (e[tau - m] - e[tau]) / m. Before
    that both windows start at the ring's first record, which has no
    em(tau - 1) and is skipped. With no record to score the choice is
    random.

    Ties go to the most recent record, but ties of the rounded progress
    values, not of the real ones. Below ring index m the short-window
    formula can round progress that is equal in real arithmetic apart, and
    then an older record may win: four records of error
    e = 0.4108733470300775 with m = 4 and ``window`` 2 score 0.0 at
    index 2, but ((e + e + e) / 3 - e) / 4 rounds to -1.4e-17 at index 3,
    so index 2's command is chosen. Those indices are scored only while
    the ring fills, in a run's first ``window + em_window`` steps.
    """
    random_pick = _epsilon_random(cfg, rng)
    if random_pick is not None:
        return random_pick
    records = list(history)
    if len(records) < 2:
        return choose_random(rng)
    errors = [r.error for r in records]
    m = cfg.em_window
    best_progress = -math.inf
    for i in range(max(1, len(records) - cfg.window), len(records)):
        if i >= m:
            progress = (errors[i - m] - errors[i]) / m
        else:
            # mean(errors[:i]) - mean(errors[:i + 1]), rearranged.
            progress = (sum(errors[:i]) / i - errors[i]) / (i + 1)
        if progress >= best_progress:
            best_command = records[i].command
            best_progress = progress
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
