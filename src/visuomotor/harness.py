"""Closed-loop experiment runner.

One run wires the pieces together for a fixed number of steps: observe,
choose a command, forecast the next frame, move, observe again, score
the forecast, train online, log. Multi-seed comparisons across the four
controllers reuse the same derived noise and image streams so that only
the control policy differs between cells.
"""

from __future__ import annotations

import concurrent.futures
import math
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .controllers import (
    ControllerConfig,
    ControllerKind,
    ErrorHistory,
    choose_action,
)
from .elm import (
    ElmConfig,
    ElmState,
    Workspace,
    forward_into,
    init_elm,
    rls_update,
    saturating,
)
from .errors import ConfigError, NumericError
from .world import (
    NOISE_BLOCK_FRAMES,
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
ERROR_CURVE_WINDOW = 100


def _elm_config(pixels: int, hidden_count: int) -> ElmConfig:
    # The input is the frame plus the two velocity components.
    return ElmConfig(
        input_dim=pixels + 2, output_dim=pixels, hidden_count=hidden_count
    )


def _default_elm_config() -> ElmConfig:
    return _elm_config(
        ExperimentConfig.window_w * ExperimentConfig.window_h, hidden_count=30
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one seeded run needs, image content excluded.

    The defaults here are the standard experiment; ``default_config`` and
    the command-line flags take theirs from this class.
    """

    steps: int = 5000
    elm: ElmConfig = field(default_factory=_default_elm_config)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    noise: NoiseModel = field(default_factory=NoiseModel)
    image_source: str = SYNTHETIC_SOURCE
    window_w: int = 32
    window_h: int = window_w  # square by default
    master_seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError("steps must be at least 1")
        if self.window_w < 1 or self.window_h < 1:
            raise ConfigError("camera window must have positive size")
        if self.elm.output_dim != self.window_w * self.window_h:
            raise ConfigError(
                f"elm output_dim {self.elm.output_dim} must equal the "
                f"window pixel count {self.window_w * self.window_h}"
            )
        if self.elm.input_dim != self.elm.output_dim + 2:
            raise ConfigError(
                "elm input_dim must be output_dim + 2 (frame plus velocity)"
            )
        if self.master_seed < 0:
            raise ConfigError("master_seed must be non-negative")


_DEFAULTS = ExperimentConfig()


def default_config(
    kind: ControllerKind | str = _DEFAULTS.controller.kind,
    master_seed: int = _DEFAULTS.master_seed,
    *,
    steps: int = _DEFAULTS.steps,
    sigma: float = _DEFAULTS.noise.sigma,
    image_source: str = _DEFAULTS.image_source,
    epsilon: float = _DEFAULTS.controller.epsilon,
    hidden_count: int = _DEFAULTS.elm.hidden_count,
    window: int = _DEFAULTS.controller.window,
    em_window: int = _DEFAULTS.controller.em_window,
    camera: int = _DEFAULTS.window_w,
) -> ExperimentConfig:
    """The standard experiment with a square ``camera`` and the given
    overrides; every default is ``ExperimentConfig()``'s."""
    if camera < 1:
        # Checked before the ELM shape, which would blame the pixel count.
        raise ConfigError("camera window must have positive size")
    return ExperimentConfig(
        steps=steps,
        elm=_elm_config(camera * camera, hidden_count),
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


@dataclass(frozen=True)
class StepRecord:
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
    mean_error_curve: np.ndarray  # sliding mean, window ERROR_CURVE_WINDOW

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
    """Camera centered in the image."""
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

    Each step observes the current frame, picks a command from the error
    history, forecasts the next frame for that command, moves, observes
    the new frame, scores the forecast, and trains the model online on
    the transition. ``world`` is the scene ``load_world(config)`` returns,
    for callers that have already loaded it.

    The run works in buffers allocated once, and its trace and model are
    the same bits as a loop of the public ``observe``, ``predict``,
    ``apply_motor``, ``prediction_error`` and ``update_online`` gives:

    - The frame is sensed straight into the input vector's first part and
      the velocity written into the last two entries, so nothing is
      concatenated. Sensing is ``observe``'s ``_sense``.
    - The sensor noise for ``NOISE_BLOCK_FRAMES // 2`` steps is drawn in
      one ``standard_normal(out=)`` call and scaled by sigma in place.
      ``observe``'s ``normal(0, sigma)`` computes 0 + sigma z, which is
      sigma z, and one draw of k n values yields the values of k
      consecutive draws of n. With sigma 0 nothing is drawn.
    - The camera is two ints, clamped as ``apply_motor`` clamps them; the
      check that the window fits the image is made once, up front.
    - The hidden response and the forecast are computed once, into the
      ELM ``Workspace``, and serve both the score and the update. The
      residual ``target - forecast`` is computed once: the error is
      ``r @ r / n``, equal to ``prediction_error`` because negation is
      exact, and ``rls_update`` trains on it in place.
    - The floating-point context of the ELM kernels is entered once per
      run.

    A non-finite prediction error or a numerical failure inside the
    online update aborts the run before the step is trained on or
    logged; the partial trace comes back flagged invalid instead of
    raising.
    """
    elm_seed, noise_seed, controller_seed, _ = _derived_seeds(config.master_seed)
    noise_rng = np.random.default_rng(noise_seed)
    controller_rng = np.random.default_rng(controller_seed)

    if world is None:
        world = load_world(config)
    if world.width < config.window_w or world.height < config.window_h:
        raise ConfigError(
            f"{world.width}x{world.height} image is smaller than the camera window"
        )
    cam = initial_camera(world, config)
    left, top, w, h = cam.left, cam.top, cam.width, cam.height
    max_left, max_top = world.width - w, world.height - h
    pixels = world.pixels
    state = init_elm(replace(config.elm, seed=elm_seed))
    controller = config.controller
    history = ErrorHistory(capacity=controller.window + controller.em_window)

    n = w * h
    work = Workspace(state)
    x = np.empty(n + 2)
    frame = x[:n].reshape(h, w)  # views of the buffers, in the window's shape
    forecast = work.forecast.reshape(h, w)
    residual = np.empty(n)
    residual_2d = residual.reshape(h, w)
    sigma = config.noise.sigma
    noisy = sigma > 0.0
    noise_block = np.empty((min(NOISE_BLOCK_FRAMES, 2 * config.steps), h, w))
    trace: list[StepRecord] = []
    failure = None
    with saturating():
        for t in range(config.steps):
            k = 2 * t % NOISE_BLOCK_FRAMES
            window = pixels[top : top + h, left : left + w]
            if noisy:
                if k == 0:
                    block = noise_block[: 2 * (config.steps - t)]
                    noise_rng.standard_normal(out=block)
                    block *= sigma
                _sense(window, noise_block[k], frame)
            else:
                frame[...] = window
            command = choose_action(controller.kind, history, controller, controller_rng)
            vx, vy = command_to_velocity(command)
            x[n] = vx
            x[n + 1] = vy
            forward_into(state, x, work)
            left = min(max(left + vx, 0), max_left)
            top = min(max(top + vy, 0), max_top)
            target = pixels[top : top + h, left : left + w]
            if noisy:
                sensed = noise_block[k + 1]
                _sense(target, sensed, sensed)
                target = sensed
            np.subtract(target, forecast, out=residual_2d)
            error = float(residual @ residual) / n
            if not math.isfinite(error):
                failure = f"prediction error is {error!r} at step {t}"
                break
            try:
                rls_update(state, work, residual)
            except NumericError as exc:
                failure = str(exc)
                break
            history.append(t, command, error)
            trace.append(
                StepRecord(t=t, cam_x=left, cam_y=top, command=command, error=error)
            )
    return RunResult(
        config=config,
        trace=trace,
        metrics=compute_metrics(trace) if trace else None,
        elm_state=state,
        valid=failure is None,
        failure=failure,
    )


def compute_metrics(trace: list[StepRecord]) -> Metrics:
    """Derive the summary numbers for a nonempty trace."""
    if not trace:
        raise ValueError("compute_metrics requires a nonempty trace")
    errors = np.array([r.error for r in trace])
    final_error = float(errors[-FINAL_ERROR_WINDOW:].mean())
    xs = [r.cam_x for r in trace]
    ys = [r.cam_y for r in trace]
    unique_positions = len(set(zip(xs, ys)))
    bbox_area = (max(xs) - min(xs) + 1) * (max(ys) - min(ys) + 1)
    histogram = {cmd: 0 for cmd in MotorCommand}
    for record in trace:
        histogram[record.command] += 1
    cumulative = np.concatenate([[0.0], np.cumsum(errors)])
    idx = np.arange(len(errors))
    lo = np.maximum(0, idx - (ERROR_CURVE_WINDOW - 1))
    curve = (cumulative[idx + 1] - cumulative[lo]) / (idx + 1 - lo)
    return Metrics(
        final_error=final_error,
        unique_positions=unique_positions,
        bbox_area=bbox_area,
        action_histogram=histogram,
        mean_error_curve=curve,
    )


@dataclass
class KindSummary:
    """Medians of one controller's metrics across seeds (valid runs only)."""

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
    rankings: dict[int, list[ControllerKind]]  # seed -> kinds by ascending final error


def _run_cell(config: ExperimentConfig) -> RunResult:
    # Isolate per-cell failures so one bad run cannot sink the grid.
    try:
        return run_experiment(config)
    except Exception as exc:  # noqa: BLE001 - cell isolation is the point
        return RunResult(
            config=config,
            trace=[],
            metrics=None,
            elm_state=None,
            valid=False,
            failure=f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}",
        )


def run_comparison(
    base: ExperimentConfig,
    kinds: list[ControllerKind],
    seeds: list[int],
    workers: int = 1,
) -> ComparisonResult:
    """Run every (controller, seed) cell and aggregate the metrics.

    Cells are independent; with ``workers > 1`` they execute in separate
    processes; fewer than one worker is a ``ValueError``. Aggregation
    order is fixed by (kind, seed) so the result does not depend on
    completion order.
    """
    if not kinds or not seeds:
        raise ValueError("run_comparison needs at least one kind and one seed")
    if workers < 1:
        raise ValueError(f"run_comparison needs at least one worker, got {workers}")
    kinds = [ControllerKind(k) for k in kinds]
    if len(set(kinds)) != len(kinds) or len(set(seeds)) != len(seeds):
        raise ValueError("run_comparison needs distinct kinds and distinct seeds")
    cells = [(kind, seed) for kind in kinds for seed in seeds]
    configs = [
        replace(
            base,
            master_seed=seed,
            controller=replace(base.controller, kind=kind),
        )
        for kind, seed in cells
    ]
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_cell, configs))
    else:
        outcomes = [_run_cell(config) for config in configs]
    results = dict(zip(cells, outcomes))

    # Only valid cells make the medians and the ranks; failed ones rank last.
    counted = {cell: r.metrics for cell, r in results.items() if r.valid}
    summary: dict[ControllerKind, KindSummary] = {}
    for kind in kinds:
        rows = [counted[(kind, seed)] for seed in seeds if (kind, seed) in counted]
        if rows:
            summary[kind] = KindSummary(
                kind=kind,
                median_final_error=float(np.median([m.final_error for m in rows])),
                median_unique_positions=float(
                    np.median([m.unique_positions for m in rows])
                ),
                median_bbox_area=float(np.median([m.bbox_area for m in rows])),
                median_stay_fraction=float(np.median([m.stay_fraction for m in rows])),
            )
    final_errors = {cell: m.final_error for cell, m in counted.items()}
    rankings = {
        seed: sorted(kinds, key=lambda kind: final_errors.get((kind, seed), math.inf))
        for seed in seeds
    }
    return ComparisonResult(
        kinds=kinds, seeds=list(seeds), results=results, summary=summary,
        rankings=rankings,
    )
