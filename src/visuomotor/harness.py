"""Closed-loop experiment runner.

One run wires the pieces together for a fixed number of steps: observe,
choose a command, forecast the next frame, move, observe again, score
the forecast, train online, log. In a comparison, the runs of one master
seed see the same scene, hidden layer and sensor noise, so that only the
control policy differs between them. They share one draw of each and run
in lockstep (``_run_lockstep``), and each run's trace is the same bits as
that run's alone. Each run senses every frame, the window plus a frame
of the group's noise block (all zero at sigma 0), into rows of its own
(``_Cell``): a reactive run senses its input and target rows each step,
and random babbling (RM), which never reads the errors, is planned at
its start and senses a noise block's rows at a time. Every run then
learns alike from its row, one step at a time, and logs its path,
command codes and errors in arrays of one layout. That log is the run's
only record: a reactive run's controller chooses from it. A run reads
only the part of a synthetic scene it can reach: at each noise block's
start an RM run asks the scene to fill its block's windows, and a
reactive run its camera window grown by the block's ``_BLOCK_STEPS``
steps on each side, since a step moves the camera at most one pixel.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import math
import traceback
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .controllers import ControllerConfig, ControllerKind, choose_code, random_commands
from .elm import (
    ElmConfig,
    ElmState,
    Workspace,
    forecast_into,
    hidden_into,
    init_elm,
    rls_update,
    saturating,
)
from .errors import ConfigError, NumericError
from .world import (
    COMMANDS,
    CameraState,
    MotorCommand,
    NoiseModel,
    WorldImage,
    _sense,
    command_to_velocity,
    load_image,
    synthetic_image,
)

SYNTHETIC_SOURCE = "synthetic"
_SYNTHETIC_SIZE = 512
FINAL_ERROR_WINDOW = 100


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one seeded run needs, image content excluded.

    The defaults here are the standard experiment; ``default_config``, and
    through it the command-line flags, take theirs from this class.
    ``default_config`` builds a square camera. A camera larger than the
    synthetic scene is a ``ConfigError``; a file scene is checked when a
    run loads it. ``elm`` is the ELM for the ``window_w`` by
    ``window_h`` camera and ``hidden_count``, built once, at construction.
    """

    steps: int = 5000
    hidden_count: int = 30
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    noise: NoiseModel = field(default_factory=NoiseModel)
    image_source: str = SYNTHETIC_SOURCE
    window_w: int = 32
    window_h: int = 32
    master_seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError("steps must be at least 1")
        if self.window_w < 1 or self.window_h < 1:
            raise ConfigError("camera window must have positive size")
        if self.image_source == SYNTHETIC_SOURCE and max(
                self.window_w, self.window_h) > _SYNTHETIC_SIZE:
            raise ConfigError(
                f"{self.window_w}x{self.window_h} camera window does not fit the "
                f"{_SYNTHETIC_SIZE}x{_SYNTHETIC_SIZE} synthetic scene"
            )
        if self.master_seed < 0:
            raise ConfigError("master_seed must be non-negative")
        n = self.window_w * self.window_h
        # The input is the frame plus the two velocity components.
        elm = ElmConfig(input_dim=n + 2, output_dim=n, hidden_count=self.hidden_count)
        object.__setattr__(self, "_elm", elm)  # the class is frozen

    @property
    def elm(self) -> ElmConfig:
        """The ELM shape for this camera; ``run_experiment`` sets its seed."""
        return self._elm


_DEFAULTS = ExperimentConfig()


def default_config(
    kind: ControllerKind | str = _DEFAULTS.controller.kind,
    master_seed: int = _DEFAULTS.master_seed,
    *,
    steps: int = _DEFAULTS.steps,
    sigma: float = _DEFAULTS.noise.sigma,
    image_source: str = _DEFAULTS.image_source,
    epsilon: float = _DEFAULTS.controller.epsilon,
    hidden_count: int = _DEFAULTS.hidden_count,
    window: int = _DEFAULTS.controller.window,
    em_window: int = _DEFAULTS.controller.em_window,
    camera: int = _DEFAULTS.window_w,
) -> ExperimentConfig:
    """The standard experiment with a square ``camera`` and the given
    overrides; every default is ``ExperimentConfig()``'s."""
    return ExperimentConfig(
        steps=steps,
        hidden_count=hidden_count,
        controller=ControllerConfig(
            kind=kind,
            window=window,
            epsilon=epsilon,
            em_window=em_window,
        ),
        noise=NoiseModel(sigma=sigma),
        image_source=image_source,
        window_w=camera,
        window_h=camera,
        master_seed=master_seed,
    )


class StepRecord(NamedTuple):
    """One step of a run: where the camera ended up, what was done, and
    the error of the forecast scored against the frame seen there."""

    t: int
    cam_x: int
    cam_y: int
    command: MotorCommand
    error: float


@dataclass
class Metrics:
    """Summary numbers for one trace."""

    final_error: float  # mean of the last FINAL_ERROR_WINDOW errors
    unique_positions: int
    bbox_area: int  # trajectory bounding box, in cells
    action_histogram: dict[MotorCommand, int]

    @property
    def stay_fraction(self) -> float:
        total = sum(self.action_histogram.values())
        return self.action_histogram[MotorCommand.STAY] / total


@dataclass
class RunResult:
    config: ExperimentConfig
    trace: list[StepRecord]
    metrics: Metrics | None
    elm_state: ElmState | None
    valid: bool = True
    failure: str | None = None


def _derived_seeds(master_seed: int) -> tuple[int, int, int, int]:
    """Independent integer seeds for ELM init, noise, controller, image."""
    children = np.random.SeedSequence(master_seed).spawn(4)
    return tuple(int(c.generate_state(1, np.uint64)[0]) for c in children)


def load_world(config: ExperimentConfig) -> WorldImage:
    """The image a run observes: a file, or the seeded synthetic scene."""
    if config.image_source == SYNTHETIC_SOURCE:
        _, _, _, image_seed = _derived_seeds(config.master_seed)
        return synthetic_image(_SYNTHETIC_SIZE, _SYNTHETIC_SIZE, seed=image_seed)
    return load_image(Path(config.image_source).read_bytes())


def initial_camera(world: WorldImage, config: ExperimentConfig) -> CameraState:
    """Camera centered in the image; an image smaller than the camera
    window is a ``ConfigError``."""
    if world.width < config.window_w or world.height < config.window_h:
        raise ConfigError(
            f"{world.width}x{world.height} image is smaller than the camera window"
        )
    return CameraState(
        left=(world.width - config.window_w) // 2,
        top=(world.height - config.window_h) // 2,
        width=config.window_w,
        height=config.window_h,
    )


def run_experiment(
    config: ExperimentConfig, *, world: WorldImage | None = None
) -> RunResult:
    """Execute one seeded run and return its trace, metrics and model.

    Each step observes the current frame, picks a command from the run's
    log of commands and errors (RM's come from a sequence drawn at the
    start), forecasts the next frame for that command, moves, observes
    the new frame, scores the forecast, and trains the model online on
    the transition.
    ``world`` is the scene ``load_world(config)`` returns, for callers
    that have already loaded it. The run is ``_run_lockstep`` on a group
    of one.

    A non-finite prediction error or a numerical failure inside the
    online update aborts the run before the step is trained on or
    logged; the partial trace comes back flagged invalid instead of
    raising. Any other exception raised inside the loop propagates.
    """
    [cell] = _run_lockstep(config, [config.controller], world)
    if cell.exc is not None and not isinstance(cell.exc, NumericError):
        raise cell.exc
    return _run_result(config, *_outcome(cell))


# Frames of sensor noise the closed loop draws in one call: two per step,
# 256 KB at a 32x32 camera.
NOISE_BLOCK_FRAMES = 32
_BLOCK_STEPS = NOISE_BLOCK_FRAMES // 2  # the steps one noise block serves
# Entry i is the (vx, vy) of command code i, the command COMMANDS[i].
_VELOCITIES = [command_to_velocity(c) for c in COMMANDS]
_VELOCITY_ROWS = np.array(_VELOCITIES)


# A stretch of the walk shorter than this is cheaper one move at a time.
_MIN_STRETCH = 16


def _clamped_walk(start: int, moves: np.ndarray, upper: int) -> np.ndarray:
    """``start`` and the position after each of ``moves`` (each -1, 0 or 1),
    clamped to [0, ``upper``] as ``apply_motor`` clamps a camera.

    From a position ``room`` away from the nearer bound, the next ``room``
    moves cannot reach past it, so they need no clamp and take a
    cumulative sum; near a bound the walk goes one clamped move at a time.
    """
    path = np.empty(len(moves) + 1, dtype=np.int64)
    path[0] = pos = start
    step = moves.tolist()
    i = 0
    while i < len(step):
        room = min(pos, upper - pos, len(step) - i)
        if room >= _MIN_STRETCH:
            stretch = path[i + 1 : i + 1 + room]
            np.cumsum(moves[i : i + room], out=stretch)
            stretch += pos
            i += room
            pos = int(path[i])
        else:
            pos = min(max(pos + step[i], 0), upper)
            i += 1
            path[i] = pos
    return path


class _Cell:
    """What a run in a lockstep group does not share with the others: its
    model, controller, rows and log.

    Every run logs in four arrays: ``lefts`` and ``tops`` hold the camera's
    start at index 0 and its position after step t at t + 1, ``codes``
    step t's command code (code i is ``COMMANDS[i]``) and ``errors`` its
    prediction error. Only ``done`` steps of them count.

    Row (j, 0) of ``rows`` is an input, the frame then the velocity, and
    row (j, 1) holds its target frame, which ``targets[j]`` views flat.
    ``frames`` views the rows' frames in the window's shape, in the order
    they are sensed, and ``hidden[j]`` (``hiddens[j]``) holds the hidden
    response to input j.

    The log is the run's only record of its steps: a reactive run's
    controller chooses from its ``codes`` and ``errors`` so far, and
    nothing keeps a second history. A reactive run has one pair of rows,
    which each step senses into, and writes a step's code and position
    when it chooses them. A babbling (RM) run has a pair for each step of
    a noise block: it fills its log's path and codes when it is built,
    and ``fill_block`` writes each noise block's rows and their hidden
    responses. A failed step leaves what it raised in ``exc``, the run's
    one failure slot.
    """

    __slots__ = ("controller", "rng", "state", "lefts", "tops",
                 "codes", "errors", "rows", "frames", "hidden", "hiddens",
                 "targets", "done", "exc")

    def __init__(self, config: ExperimentConfig, controller: ControllerConfig,
                 state: ElmState, rng: np.random.Generator, cam: CameraState,
                 max_left: int, max_top: int):
        steps = config.steps
        self.controller = controller
        self.rng = rng
        self.state = state
        if controller.kind is ControllerKind.RM:
            self.codes = random_commands(rng, steps)
            velocities = _VELOCITY_ROWS[self.codes]
            self.lefts = _clamped_walk(cam.left, velocities[:, 0], max_left)
            self.tops = _clamped_walk(cam.top, velocities[:, 1], max_top)
            count = _BLOCK_STEPS
        else:
            self.lefts = np.full(steps + 1, cam.left)
            self.tops = np.full(steps + 1, cam.top)
            self.codes = np.empty(steps, int)
            count = 1
        self.errors = np.empty(steps)
        w, h = config.window_w, config.window_h
        self.rows = np.empty((count, 2, w * h + 2))
        self.frames = self.rows.reshape(2 * count, -1)[:, :-2].reshape(2 * count, h, w)
        self.hidden = np.empty((count, state.hidden_count))
        self.hiddens = list(self.hidden)
        self.targets = list(self.rows[:, 1, :-2])
        self.done = steps  # the steps logged, once the run is over
        self.exc: Exception | None = None  # what a failed step raised

    def fill_block(self, t: int, world: WorldImage, windows: np.ndarray,
                   noise: np.ndarray) -> None:
        """Fill ``rows`` and ``hidden`` for a babbling run's ``count`` steps
        from t to the noise block's end or the run's.

        ``windows`` is the (top, left, height, width) window view of
        ``world``'s pixels and ``noise`` the block's noise frames. The
        ``count + 1`` positions the steps start and end at are known, so
        one ``ensure`` fills the bounding box of their windows, and one
        index gathers the windows. Step t + i senses window i against
        noise frame 2i as its input and window i + 1 against frame 2i + 1
        as its target: one ``_sense`` for the even frames, one for the
        odd. ``_sense`` is elementwise, so each frame has the bits of its
        own ``_sense``, and one ``hidden_into`` on the stack of input rows
        gives each row the bits of its input.
        """
        span = slice(t, t + _BLOCK_STEPS + 1)
        tops, lefts = self.tops[span], self.lefts[span]
        h, w = self.frames.shape[1:]
        top, left = int(tops.min()), int(lefts.min())
        world.ensure(top, left, int(tops.max()) - top + h, int(lefts.max()) - left + w)
        seen = windows[tops, lefts]
        count = len(seen) - 1
        rows = self.rows[:count]
        rows[:, 0, -2:] = _VELOCITY_ROWS[self.codes[t : t + count]]
        _sense(seen[:-1], noise[: 2 * count : 2], self.frames[: 2 * count : 2])
        _sense(seen[1:], noise[1 : 2 * count : 2], self.frames[1 : 2 * count : 2])
        hidden_into(self.state, rows[:, 0], self.hidden[:count])


def _run_lockstep(config: ExperimentConfig, controllers: Sequence[ControllerConfig],
                  world: WorldImage | None = None) -> list[_Cell]:
    """Run ``config`` once per controller, one step of each run in turn,
    and return their cells in the order given; ``config.controller`` is
    not read. A group is one experiment and the controllers run on it.

    Every run of a master seed observes the same scene through the same
    hidden layer (W, b) and the same sensor-noise stream, so the group
    loads the scene once, draws W and b once and shares them read-only,
    and draws each noise block once for all its runs. Each run keeps its
    own readout and accumulator, controller generator, camera and log. A
    run's trace and model are the same bits as those of the run alone,
    and as those of a loop of the public ``observe``, ``choose_action``,
    ``predict``, ``apply_motor``, ``prediction_error`` and
    ``update_online``:

    - Every frame is sensed by ``observe``'s ``_sense`` straight into a
      row of the run's own (see ``_Cell``), and the velocity is written
      into the input row's last two entries, so nothing is concatenated.
      No run writes into the noise block, which the group's later runs
      still read.
    - The noise block, two frames for each of ``_BLOCK_STEPS`` steps, is
      allocated once, zeroed. With sigma above 0 it is refilled at each
      block's start by one ``standard_normal(out=)`` call and scaled by
      sigma in place. ``observe``'s ``normal(0, sigma)`` computes
      0 + sigma z, which is sigma z, and one draw of k n values yields the
      values of k consecutive draws of n. With sigma 0 every frame is
      sensed against +0, which returns the pixel, as ``observe`` does,
      except that a -0 pixel becomes +0. The sign of a zero in a frame
      reaches nothing logged or learned: a bias is added to every hidden
      sum, errors are squares, and a readout entry, which starts at +0,
      never holds -0, since adding a zero of either sign to +0 gives +0.
      The accumulator P never reads a frame.
    - The camera is the run's logged position, clamped as ``apply_motor``
      clamps it; the check that the window fits the image is made once,
      up front.
    - Every window is read from the scene's pixel buffer, which a
      synthetic scene fills only where ``WorldImage.ensure`` asks. At each
      noise block's start every live run makes one ``ensure``. An RM run
      knows its block's positions, and asks for the bounding box of their
      windows. A reactive run asks for the rectangle its next
      ``_BLOCK_STEPS`` steps can reach: a step moves the camera at most
      one pixel, so that is the window at the run's corner grown by
      ``_BLOCK_STEPS`` on each side, clipped to the scene.
    - A babbling (RM) run draws its command codes at the start, as
      ``steps`` ``choose_random`` calls would (``random_commands``), and
      clamps its whole path once, as the steps would (``_clamped_walk``).
      Its frames and hidden responses come a noise block at a time from
      ``_Cell.fill_block``. A reactive run senses, chooses and computes
      its hidden response per step, into its one pair of rows.
      ``choose_code`` scores the run's own log, its codes and errors so
      far, and the step writes its code and position to the log when it
      chooses them; nothing keeps a second history. A scored ring of
      ``window + em_window`` records, as ``choose_action`` takes, would
      choose the same. Either way a position or command logged ahead
      counts only once its step completes.
    - Every run then learns alike, from its row's hidden response, read
      uncopied: the forecast, the score and the update share it. The
      residual ``target - forecast`` is computed once: the error is
      ``r . r / n``, equal to ``prediction_error`` because negation is
      exact, and ``rls_update`` trains on it in place. Each run's step has
      finished with the group's forecast and residual buffers before the
      next run's starts.
    - The floating-point context of the ELM kernels is entered once per
      group.

    A run whose step raises leaves the group, and the others go on as if
    alone: the cell keeps the exception, an abort (see ``run_experiment``)
    or any other, unraised in ``exc``, and the steps before it in ``done``.
    """
    elm_seed, noise_seed, controller_seed, _ = _derived_seeds(config.master_seed)
    noise_rng = np.random.default_rng(noise_seed)

    if world is None:
        world = load_world(config)
    cam = initial_camera(world, config)
    w, h = cam.width, cam.height
    max_left, max_top = world.width - w, world.height - h
    state = init_elm(replace(config.elm, seed=elm_seed))
    states = [state] + [
        replace(state, readout=state.readout.copy(), inv_gram=state.inv_gram.copy())
        for _ in controllers[1:]
    ]
    cells = [
        _Cell(config, controller, s, np.random.default_rng(controller_seed), cam,
              max_left, max_top)
        for controller, s in zip(controllers, states)
    ]

    n = w * h
    work = Workspace(state)
    forecast = np.empty(n)
    residual = np.empty(n)
    sigma = config.noise.sigma
    noise = np.zeros((NOISE_BLOCK_FRAMES, h, w))
    # Read-only, and filled only where a block start has ensured it.
    windows = sliding_window_view(world.ensure(cam.top, cam.left, h, w), (h, w))
    live = cells
    with saturating():
        for t in range(config.steps):
            k = 2 * t % NOISE_BLOCK_FRAMES
            if k == 0 and sigma > 0.0:
                noise_rng.standard_normal(out=noise)
                noise *= sigma
            ended = False
            for cell in live:
                try:
                    # The step's rows j: input, target and hidden response.
                    if cell.controller.kind is ControllerKind.RM:
                        if k == 0:
                            cell.fill_block(t, world, windows, noise)
                        j = k // 2
                    else:
                        left, top = cell.lefts.item(t), cell.tops.item(t)
                        if k == 0:  # the scene this block's steps can reach
                            world.ensure(top - _BLOCK_STEPS, left - _BLOCK_STEPS,
                                         h + 2 * _BLOCK_STEPS, w + 2 * _BLOCK_STEPS)
                        frames = cell.frames
                        _sense(windows[top, left], noise[k], frames[0])
                        code = choose_code(cell.controller.kind, cell.codes[:t],
                                           cell.errors[:t], cell.controller, cell.rng)
                        vx, vy = _VELOCITIES[code]
                        x = cell.rows[0, 0]
                        x[n], x[n + 1] = vx, vy
                        left = min(max(left + vx, 0), max_left)
                        top = min(max(top + vy, 0), max_top)
                        cell.codes[t], cell.lefts[t + 1], cell.tops[t + 1] = code, left, top
                        _sense(windows[top, left], noise[k + 1], frames[1])
                        j = 0
                        hidden_into(cell.state, x, cell.hiddens[0])
                    # Learn from them, the same for every controller.
                    hidden = cell.hiddens[j]
                    forecast_into(cell.state, hidden, forecast)
                    np.subtract(cell.targets[j], forecast, out=residual)
                    error = float(np.dot(residual, residual)) / n
                    if not math.isfinite(error):
                        raise NumericError(f"prediction error is {error!r} at step {t}")
                    rls_update(cell.state, work, residual, hidden)
                    cell.errors[t] = error
                except Exception as exc:  # noqa: BLE001 - one run cannot sink the group
                    cell.exc = exc
                    cell.done = t
                    ended = True
            if ended:
                live = [c for c in live if c.exc is None]
                if not live:
                    break
    return cells


def _outcome(cell: _Cell) -> tuple:
    """A finished cell as (trace columns, model, failure): what a pool
    worker sends back. The columns are its log's arrays over the steps
    done. An abort's failure is its ``NumericError``'s text; a cell that
    raised anything else sends neither columns nor model."""
    exc = cell.exc
    if exc is not None and not isinstance(exc, NumericError):
        return None, None, _describe(exc)
    done = cell.done
    columns = (cell.lefts[1 : done + 1], cell.tops[1 : done + 1],
               cell.errors[:done], cell.codes[:done])
    return columns, cell.state, None if exc is None else str(exc)


def _describe(exc: Exception) -> str:
    """A failed cell's ``failure``: the exception and its traceback."""
    return f"{type(exc).__name__}: {exc}\n{''.join(traceback.format_exception(exc))}"


def _run_result(
    config: ExperimentConfig,
    columns: tuple | None,
    state: ElmState | None,
    failure: str | None,
) -> RunResult:
    """The ``RunResult`` of a cell's ``_outcome``."""
    trace: list[StepRecord] = []
    metrics = None
    if columns is not None:
        cam_x, cam_y, errors, codes = columns
        xs, ys = cam_x.tolist(), cam_y.tolist()
        commands = [COMMANDS[i] for i in codes.tolist()]
        trace = list(map(StepRecord._make,
                         zip(range(len(commands)), xs, ys, commands, errors.tolist())))
        if trace:
            metrics = _metrics(xs, ys, commands, errors)
    return RunResult(
        config=config,
        trace=trace,
        metrics=metrics,
        elm_state=state,
        valid=failure is None,
        failure=failure,
    )


def compute_metrics(trace: list[StepRecord]) -> Metrics:
    """Derive the summary numbers for a nonempty trace."""
    if not trace:
        raise ValueError("compute_metrics requires a nonempty trace")
    _, xs, ys, commands, errors = zip(*trace)
    return _metrics(xs, ys, commands, np.array(errors))


def _metrics(xs: Sequence[int], ys: Sequence[int], commands: Sequence[MotorCommand],
             errors: np.ndarray) -> Metrics:
    """``compute_metrics`` on a nonempty trace's columns."""
    final_error = float(errors[-FINAL_ERROR_WINDOW:].mean())
    unique_positions = len(set(zip(xs, ys)))
    bbox_area = (max(xs) - min(xs) + 1) * (max(ys) - min(ys) + 1)
    # count compares by identity first, in C; a dict update per step would
    # hash each command in Python.
    histogram = {cmd: commands.count(cmd) for cmd in MotorCommand}
    return Metrics(
        final_error=final_error,
        unique_positions=unique_positions,
        bbox_area=bbox_area,
        action_histogram=histogram,
    )


@dataclass
class KindSummary:
    """Medians of one controller's metrics across seeds (valid runs only).

    Each field after ``kind`` is ``median_<m>``, the median of
    ``Metrics.<m>`` over the kind's valid cells. The fields, in order, are
    the columns of the comparison summary.
    """

    kind: ControllerKind
    median_final_error: float
    median_unique_positions: float
    median_bbox_area: float
    median_stay_fraction: float


@dataclass
class ComparisonResult:
    kinds: list[ControllerKind]
    seeds: list[int]
    results: dict[tuple[ControllerKind, int], RunResult]
    summary: dict[ControllerKind, KindSummary]
    rankings: dict[int, list[ControllerKind]]  # seed -> kinds that ran, best first


def _run_chunk(configs: list[ExperimentConfig]) -> list[tuple]:
    """One pool task: run seed-major configs one master seed at a time, each
    seed's configs in lockstep, and return their ``_outcome``s in order.

    A failure stays in its cell: a group whose set-up raises fails each of
    its cells with that exception and its traceback, and a run that raises
    fails alone.
    """
    outcomes = []
    for _, group in itertools.groupby(configs, key=lambda c: c.master_seed):
        group = list(group)
        try:
            cells = _run_lockstep(group[0], [c.controller for c in group])
        except Exception as exc:  # noqa: BLE001 - cell isolation is the point
            outcomes += [(None, None, _describe(exc))] * len(group)
        else:
            outcomes += [_outcome(cell) for cell in cells]
    return outcomes


def run_comparison(
    base: ExperimentConfig,
    kinds: list[ControllerKind],
    seeds: list[int],
    workers: int = 1,
) -> ComparisonResult:
    """Run every (controller, seed) cell and aggregate the metrics.

    Each cell's trace and model are the bits ``run_experiment`` gives for
    its config. The cells are ordered seed-major and split into
    ``min(workers, cells)`` contiguous chunks whose sizes differ by at
    most one; fewer than one worker is a ``ValueError``. With more than
    one chunk, each is one task of a pool of that many processes. A chunk
    runs the cells of each of its seeds in lockstep (``_run_lockstep``),
    so they share one scene, one hidden layer and one noise draw, and a
    worker holds its chunk's trace columns and models, as compact arrays,
    until the chunk returns. The parent builds every ``RunResult`` from
    them. Aggregation order is fixed by (kind, seed) so the result does
    not depend on completion order. Failed cells make neither medians nor
    ranks: a seed's ranking lists only the kinds whose cell ran.
    """
    if not kinds or not seeds:
        raise ValueError("run_comparison needs at least one kind and one seed")
    if workers < 1:
        raise ValueError(f"run_comparison needs at least one worker, got {workers}")
    kinds = [ControllerKind(k) for k in kinds]
    if len(set(kinds)) != len(kinds) or len(set(seeds)) != len(seeds):
        raise ValueError("run_comparison needs distinct kinds and distinct seeds")
    cells = [(kind, seed) for seed in seeds for kind in kinds]
    configs = [
        replace(
            base,
            master_seed=seed,
            controller=replace(base.controller, kind=kind),
        )
        for kind, seed in cells
    ]
    # The pool forks all its workers at the first submit, so it gets no
    # more than there are cells.
    workers = min(workers, len(configs))
    size, extra = divmod(len(configs), workers)
    bounds = [i * size + min(i, extra) for i in range(workers + 1)]
    chunks = [configs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = [o for chunk in pool.map(_run_chunk, chunks) for o in chunk]
    else:
        outcomes = _run_chunk(configs)
    by_cell = {
        cell: _run_result(config, *outcome)
        for cell, config, outcome in zip(cells, configs, outcomes)
    }
    results = {(kind, seed): by_cell[(kind, seed)] for kind in kinds for seed in seeds}

    # Only valid cells make the medians and the ranks.
    counted = {cell: r.metrics for cell, r in results.items() if r.valid}
    measured = [f.name.removeprefix("median_") for f in fields(KindSummary)[1:]]
    summary: dict[ControllerKind, KindSummary] = {}
    for kind in kinds:
        rows = [counted[(kind, seed)] for seed in seeds if (kind, seed) in counted]
        if rows:
            summary[kind] = KindSummary(kind, *(
                float(np.median([getattr(m, name) for m in rows])) for name in measured
            ))
    by_error = sorted(counted, key=lambda cell: counted[cell].final_error)
    rankings = {seed: [kind for kind, s in by_error if s == seed] for seed in seeds}
    return ComparisonResult(
        kinds=kinds, seeds=list(seeds), results=results, summary=summary,
        rankings=rankings,
    )
