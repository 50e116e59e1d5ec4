"""Traced rebuild of the `run` and `compare` commands.

Each command is rebuilt from the package's public functions, in the same
order and with the same arguments as `visuomotor.cli` and
`visuomotor.harness`, and every call into a module is timed from outside.
Spans are kept in memory as per-name totals and call counts; per-step
durations are kept whole for percentiles. The rebuild writes the same files
as the CLI, so the runner can require them to be byte-identical.
"""

from __future__ import annotations

import concurrent.futures
import io
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from visuomotor import cli, elm, harness, world
from visuomotor.controllers import ControllerKind, ErrorHistory, choose_action
from visuomotor.errors import ConfigError, NumericError
from visuomotor.harness import (
    ComparisonResult,
    KindSummary,
    RunResult,
    StepRecord,
    compute_metrics,
)
from visuomotor.world import CameraState, MotorCommand

perf = time.perf_counter


@dataclass
class Spans:
    """Per-name total seconds and call counts."""

    seconds: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        self.seconds[name] += seconds
        self.calls[name] += calls

    def merge(self, other: "Spans") -> None:
        for name, seconds in other.seconds.items():
            self.add(name, seconds, other.calls[name])

    def mean(self, name: str) -> float:
        return self.seconds[name] / self.calls[name]


@dataclass
class CellTrace:
    """One traced closed-loop run."""

    result: RunResult
    spans: Spans
    step_s: np.ndarray  # wall time of each completed step
    cell_s: float  # the whole run, scene load and ELM draw included
    errors_between_calls: int


@dataclass
class CommandTrace:
    """One traced command: its cells plus the CLI's own spans."""

    cells: list[CellTrace]
    spans: Spans
    wall_s: float
    grid_s: float  # wall time the cells ran within: the pool, or the whole `run`
    workers: int
    exit_code: int


def elm_bytes_per_step(config: elm.ElmConfig) -> int:
    """Bytes of ELM state arrays moved per closed-loop step, computed from shapes.

    Counts one full pass over an array each time `predict` or
    `update_online` reads or writes it; temporaries and the frame vectors are
    left out. Hidden weights W and bias b are read twice (two hidden-layer
    evaluations). The readout R is read by the forecast and by the residual,
    then read and written once more to form the new readout. The accumulator
    P is read for P h and for the rank-one downdate, written, then read twice
    (P and its transpose) and written again by the re-symmetrisation.
    """
    itemsize = np.dtype(float).itemsize
    h = config.hidden_count
    w_bytes = h * config.input_dim * itemsize
    b_bytes = h * itemsize
    r_bytes = config.output_dim * h * itemsize
    p_bytes = h * h * itemsize
    return 2 * w_bytes + 2 * b_bytes + 4 * r_bytes + 6 * p_bytes


@contextmanager
def counting_errors_between():
    """Count `ErrorHistory.errors_between` calls while the block runs."""
    original = ErrorHistory.errors_between
    counter = [0]

    def counted(self, start, end):
        counter[0] += 1
        return original(self, start, end)

    ErrorHistory.errors_between = counted
    try:
        yield counter
    finally:
        ErrorHistory.errors_between = original


def traced_experiment(config: harness.ExperimentConfig) -> CellTrace:
    """`harness.run_experiment`, with every call into a module timed."""
    cell_start = perf()
    spans = Spans()
    elm_seed, noise_seed, controller_seed, _ = harness._derived_seeds(
        config.master_seed
    )
    elm_config = replace(config.elm, seed=elm_seed)
    controller_config = replace(config.controller, seed=controller_seed)
    noise_rng = np.random.default_rng(noise_seed)
    controller_rng = np.random.default_rng(controller_seed)

    t0 = perf()
    image = harness.load_world(config)
    spans.add("world.load", perf() - t0)
    if image.width < config.window_w or image.height < config.window_h:
        raise ConfigError(
            f"{image.width}x{image.height} image is smaller than the camera window"
        )
    cam = harness.initial_camera(image, config)
    t0 = perf()
    state = elm.init_elm(elm_config)
    spans.add("elm.init", perf() - t0)
    history = ErrorHistory(
        capacity=controller_config.window + controller_config.em_window
    )
    trace: list[StepRecord] = []
    kind = controller_config.kind
    noise = config.noise
    observe, apply_motor = world.observe, world.apply_motor
    predict, prediction_error, update_online = (
        elm.predict, elm.prediction_error, elm.update_online
    )
    step_s = np.empty(config.steps)
    t_observe = t_choose = t_predict = t_apply = t_error = 0.0
    t_update = t_append = 0.0
    failure = None

    with counting_errors_between() as errors_between:
        for t in range(config.steps):
            s0 = perf()
            frame = observe(image, cam, noise, noise_rng)
            s1 = perf()
            command = choose_action(kind, history, controller_config, controller_rng)
            s2 = perf()
            velocity = world.command_to_velocity(command)
            s3 = perf()
            forecast = predict(state, frame, velocity)
            s4 = perf()
            cam = apply_motor(image, cam, command)
            s5 = perf()
            next_frame = observe(image, cam, noise, noise_rng)
            s6 = perf()
            error = prediction_error(forecast, next_frame)
            s7 = perf()
            x = np.concatenate([frame, velocity])
            s8 = perf()
            try:
                state = update_online(state, (x, next_frame))
            except NumericError as exc:
                failure = str(exc)
                break
            s9 = perf()
            history.append(t, command, error)
            s10 = perf()
            trace.append(StepRecord(t=t, cam_x=cam.left, cam_y=cam.top,
                                    command=command, error=error))
            s11 = perf()
            t_observe += (s1 - s0) + (s6 - s5)
            t_choose += s2 - s1
            t_predict += s4 - s3
            t_apply += s5 - s4
            t_error += s7 - s6
            t_update += s9 - s8
            t_append += s10 - s9
            step_s[t] = s11 - s0

    done = len(trace)
    spans.add("world.observe", t_observe, 2 * done)
    spans.add("world.apply_motor", t_apply, done)
    spans.add("controllers.choose", t_choose, done)
    spans.add("controllers.append", t_append, done)
    spans.add("elm.predict", t_predict, done)
    spans.add("elm.prediction_error", t_error, done)
    spans.add("elm.update_online", t_update, done)
    if failure is not None:
        result = RunResult(config=config, trace=trace,
                           metrics=compute_metrics(trace) if trace else None,
                           elm_state=state, valid=False, failure=failure)
    else:
        result = RunResult(config=config, trace=trace,
                           metrics=compute_metrics(trace), elm_state=state)
    return CellTrace(result, spans, step_s[:done], perf() - cell_start,
                     errors_between[0])


def traced_cell(config: harness.ExperimentConfig) -> CellTrace:
    """`harness._run_cell`: a raising run becomes an invalid result."""
    start = perf()
    try:
        return traced_experiment(config)
    except Exception as exc:  # noqa: BLE001 - cell isolation, as in harness
        failed = RunResult(config=config, trace=[], metrics=None, elm_state=None,
                           valid=False, failure=f"{type(exc).__name__}: {exc}")
        return CellTrace(failed, Spans(), np.empty(0), perf() - start, 0)


def traced_run(argv: list[str]) -> CommandTrace:
    """`visuomotor run`, rebuilt. Writes the same files, plus stdout.txt."""
    start = perf()
    spans = Spans()
    args = cli.parse_args(argv)
    config = cli._config_from_args(args, args.controller, args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stdout = io.StringIO()
    cell = traced_experiment(config)
    result = cell.result
    t0 = perf()
    cli.write_trace_csv(result, out_dir / "trace.csv")
    spans.add("cli.write_trace_csv", perf() - t0)
    code = cli.EXIT_OK
    if not result.valid:
        code = cli.EXIT_RUNTIME
    else:
        t0 = perf()
        image = harness.load_world(config)
        spans.add("world.load", perf() - t0)
        last = result.trace[-1]
        cam = CameraState(left=last.cam_x, top=last.cam_y,
                          width=config.window_w, height=config.window_h)
        frame = cli.observe_clean(image, cam)
        forecast = elm.predict(
            result.elm_state, frame,
            np.array(world.command_to_velocity(MotorCommand.STAY), dtype=float),
        )
        cli.render_frames(image, cam, forecast, out_dir / "window")
        spans.add("cli.render", perf() - t0)
        t0 = perf()
        metrics = result.metrics
        fmt = cli._format_float
        print(f"controller={args.controller} seed={args.seed} steps={config.steps}",
              file=stdout)
        print(f"final_error={fmt(metrics.final_error)} "
              f"unique_positions={metrics.unique_positions} "
              f"bbox_area={metrics.bbox_area} "
              f"stay_fraction={fmt(metrics.stay_fraction)}", file=stdout)
        print(f"trace: {out_dir / 'trace.csv'}", file=stdout)
        spans.add("cli.write_summary", perf() - t0)
    wall = perf() - start
    (out_dir / "stdout.txt").write_text(stdout.getvalue())
    return CommandTrace([cell], spans, wall, wall, 1, code)


def _summarise(kinds, seeds, results) -> ComparisonResult:
    """The aggregation at the end of `harness.run_comparison`."""
    summary = {}
    for kind in kinds:
        rows = [results[(kind, s)].metrics for s in seeds
                if results[(kind, s)].valid and results[(kind, s)].metrics]
        if not rows:
            continue
        summary[kind] = KindSummary(
            kind=kind,
            median_final_error=float(np.median([m.final_error for m in rows])),
            median_unique_positions=float(
                np.median([m.unique_positions for m in rows])),
            median_bbox_area=float(np.median([m.bbox_area for m in rows])),
            median_stay_fraction=float(np.median([m.stay_fraction for m in rows])),
        )

    def sort_key(kind, seed):
        result = results[(kind, seed)]
        if result.valid and result.metrics is not None:
            return result.metrics.final_error
        return float("inf")

    rankings = {s: sorted(kinds, key=lambda k, s=s: sort_key(k, s)) for s in seeds}
    return ComparisonResult(kinds=kinds, seeds=list(seeds), results=results,
                            summary=summary, rankings=rankings)


def traced_compare(argv: list[str]) -> CommandTrace:
    """`visuomotor compare`, rebuilt. Writes the same files, plus stdout.txt."""
    start = perf()
    spans = Spans()
    args = cli.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
    base = cli._config_from_args(args, ControllerKind.RM, seeds[0])
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stdout = io.StringIO()
    kinds = list(cli.ALL_KINDS)
    cells = [(kind, seed) for kind in kinds for seed in seeds]
    configs = [replace(base, master_seed=seed,
                       controller=replace(base.controller, kind=kind))
               for kind, seed in cells]
    grid_start = perf()
    # The same pool as harness.run_comparison (default start method), so
    # that the traced grid pays the same worker start-up as the real one.
    if args.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.workers) as pool:
            outcomes = list(pool.map(traced_cell, configs))
    else:
        outcomes = [traced_cell(config) for config in configs]
    grid_s = perf() - grid_start
    comparison = _summarise(kinds, seeds,
                            {cell: o.result for cell, o in zip(cells, outcomes)})
    for (kind, seed), result in comparison.results.items():
        t0 = perf()
        cli.write_trace_csv(result, out_dir / f"trace_{kind.value}_{seed}.csv")
        spans.add("cli.write_trace_csv", perf() - t0)
    t0 = perf()
    cli.write_summary(comparison, out_dir / "summary.csv")
    spans.add("cli.write_summary", perf() - t0)
    t0 = perf()
    fmt = cli._format_float
    for kind, summary in comparison.summary.items():
        print(f"{kind.value}: median_final_error="
              f"{fmt(summary.median_final_error)} "
              f"median_unique_positions={summary.median_unique_positions:g} "
              f"median_bbox_area={summary.median_bbox_area:g} "
              f"median_stay_fraction={summary.median_stay_fraction:.3f}",
              file=stdout)
    print(f"summary: {out_dir / 'summary.csv'}", file=stdout)
    spans.add("cli.render", perf() - t0)
    failed = any(not r.valid for r in comparison.results.values())
    wall = perf() - start
    (out_dir / "stdout.txt").write_text(stdout.getvalue())
    return CommandTrace(outcomes, spans, wall, grid_s, max(args.workers, 1),
                        cli.EXIT_RUNTIME if failed else cli.EXIT_OK)


def traced_command(argv: list[str]) -> CommandTrace:
    return traced_run(argv) if argv[0] == "run" else traced_compare(argv)


def layer_metrics(commands: list[CommandTrace], untraced_steps_per_s: float
                  ) -> dict[str, tuple[float, str, int]]:
    """Per-module metrics over traced commands: name -> (value, unit, samples)."""
    spans = Spans()
    for command in commands:
        spans.merge(command.spans)
        for cell in command.cells:
            spans.merge(cell.spans)
    cells = [cell for command in commands for cell in command.cells]
    step_us = np.concatenate([cell.step_s for cell in cells]) * 1e6
    steps = step_us.size
    child_s = sum(spans.seconds[name] for name in (
        "world.observe", "world.apply_motor", "controllers.choose",
        "controllers.append", "elm.predict", "elm.prediction_error",
        "elm.update_online"))
    cell_s = np.array([cell.cell_s for cell in cells])
    efficiency = [sum(c.cell_s for c in command.cells)
                  / (command.workers * command.grid_s) for command in commands]
    traced_steps_per_s = float(np.median(
        [sum(len(c.result.trace) for c in command.cells) / command.wall_s
         for command in commands]))
    bytes_per_step = elm_bytes_per_step(cells[0].result.config.elm)

    def us(name):
        return (spans.mean(name) * 1e6, "us", spans.calls[name])

    def ms(name):
        return (spans.mean(name) * 1e3, "ms", spans.calls[name])

    def s(name):
        return (spans.mean(name), "s", spans.calls[name])

    return {
        "world.observe_us": us("world.observe"),
        "world.apply_motor_us": us("world.apply_motor"),
        "world.load_s": s("world.load"),
        "elm.init_s": s("elm.init"),
        "elm.predict_us": us("elm.predict"),
        "elm.update_online_us": us("elm.update_online"),
        "elm.prediction_error_us": us("elm.prediction_error"),
        "elm.bytes_per_step": (float(bytes_per_step), "B", steps),
        "controllers.choose_us": us("controllers.choose"),
        "controllers.append_us": us("controllers.append"),
        "controllers.errors_between_calls": (
            sum(c.errors_between_calls for c in cells) / steps, "count", steps),
        "harness.step_us_p50": (float(np.percentile(step_us, 50)), "us", steps),
        "harness.step_us_p99": (float(np.percentile(step_us, 99)), "us", steps),
        "harness.loop_self_us": (
            (step_us.sum() - child_s * 1e6) / steps, "us", steps),
        "harness.cell_s_p50": (float(np.median(cell_s)), "s", cell_s.size),
        "harness.cell_s_max": (float(cell_s.max()), "s", cell_s.size),
        "harness.grid_efficiency": (
            float(np.median(efficiency)), "frac", len(efficiency)),
        "cli.write_trace_csv_ms": ms("cli.write_trace_csv"),
        "cli.write_summary_ms": ms("cli.write_summary"),
        "cli.render_ms": ms("cli.render"),
        "bench.trace_overhead_frac": (
            1.0 - traced_steps_per_s / untraced_steps_per_s, "frac",
            len(commands)),
    }
