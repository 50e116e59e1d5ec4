"""Tests for the control policies.

The argmin/argmax policies are checked against a brute-force scan
oracle formulated independently (filter, then pick the last extreme
record). Learning-progress cases are hand-computed from the sliding
mean definition, and checked against it in exact arithmetic.
"""

import functools
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from visuomotor import controllers
from visuomotor.controllers import (
    ControllerConfig,
    ControllerKind,
    ErrorHistory,
    choose_action,
    choose_code,
    choose_random,
    random_commands,
)
from visuomotor.errors import ConfigError
from visuomotor.world import COMMANDS, MotorCommand

U, D, L, R, S = (
    MotorCommand.UP,
    MotorCommand.DOWN,
    MotorCommand.LEFT,
    MotorCommand.RIGHT,
    MotorCommand.STAY,
)


def history_of(*records, capacity=64):
    history = ErrorHistory(capacity=capacity)
    for t, cmd, err in records:
        history.append(t, cmd, err)
    return history


def policy_pick(kind, history, cfg):
    """``kind``'s scoring function on the codes and errors of ``history``'s
    records, as a command, or None when it has nothing to score."""
    codes = np.array([COMMANDS.index(r.command) for r in history], dtype=int)
    errors = np.array([r.error for r in history], dtype=float)
    code = controllers._POLICIES[kind](codes, errors, cfg)
    return None if code is None else COMMANDS[code]


def config_for(kind, epsilon=0.0, window=20, em_window=10):
    return ControllerConfig(
        kind=kind, window=window, epsilon=epsilon, em_window=em_window
    )


# ---------------------------------------------------------------------------
# Oracles


def scan_oracle(history, window, mode):
    """Last record attaining the extreme error among the last `window`."""
    candidates = list(history)[-window:]
    if not candidates:
        return None
    extreme = min(r.error for r in candidates) if mode == "min" else max(
        r.error for r in candidates
    )
    matches = [r for r in candidates if r.error == extreme]
    return matches[-1].command


def mean_oracle(history, at, width):
    """Exact mean error over records with timestep in (at - width, at]."""
    errors = [Fraction(r.error) for r in history if at - width < r.t <= at]
    return sum(errors) / len(errors) if errors else None


# ---------------------------------------------------------------------------
# Random policy


def test_choose_random_is_roughly_uniform():
    rng = np.random.default_rng(1)
    counts = {cmd: 0 for cmd in COMMANDS}
    draws = 100_000
    for _ in range(draws):
        counts[choose_random(rng)] += 1
    for cmd in COMMANDS:
        assert 0.19 <= counts[cmd] / draws <= 0.21


def test_choose_random_is_seeded():
    a = [choose_random(np.random.default_rng(5)) for _ in range(20)]
    b = [choose_random(np.random.default_rng(5)) for _ in range(20)]
    assert a == b


def test_choose_random_returns_valid_command():
    assert choose_random(np.random.default_rng(0)) in COMMANDS


@pytest.mark.parametrize("steps", [0, 1, 2, 17, 5000])
@pytest.mark.parametrize("seed", [0, 1, 7, 2**32 + 5, 2**63 + 11])
@pytest.mark.parametrize("drawn_before", [0, 1])
def test_random_commands_equal_choose_random_calls(drawn_before, seed, steps):
    # Guards numpy's bounded fill against drifting from its scalar path.
    bulk_rng, step_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    # One earlier draw leaves half of a 64-bit output buffered.
    for _ in range(drawn_before):
        bulk_rng.integers(5)
        step_rng.integers(5)
    assert (bulk_rng.bit_generator.state["has_uint32"] == 1) == bool(drawn_before)
    bulk = [COMMANDS[i] for i in random_commands(bulk_rng, steps)]
    assert bulk == [choose_random(step_rng) for _ in range(steps)]
    assert bulk_rng.bit_generator.state == step_rng.bit_generator.state


# ---------------------------------------------------------------------------
# MinPE / MaxPE


def test_minpe_picks_smallest_error():
    history = history_of((1, L, 0.5), (2, R, 0.1), (3, U, 0.3))
    cfg = config_for(ControllerKind.MINPE)
    assert policy_pick(ControllerKind.MINPE, history, cfg) == R


def test_minpe_empty_history_falls_back_to_random():
    history = ErrorHistory(capacity=8)
    cfg = config_for(ControllerKind.MINPE)
    assert policy_pick(ControllerKind.MINPE, history, cfg) is None
    seen = {
        choose_action(cfg.kind, history, cfg, np.random.default_rng(seed))
        for seed in range(50)
    }
    assert seen <= set(COMMANDS)
    assert len(seen) == 5  # every command reachable


def test_minpe_tie_goes_to_most_recent():
    history = history_of((1, L, 0.2), (2, R, 0.2))
    cfg = config_for(ControllerKind.MINPE)
    assert policy_pick(ControllerKind.MINPE, history, cfg) == R


def test_minpe_respects_window():
    # The global minimum sits outside the lookback window.
    history = history_of((1, S, 0.01), (2, L, 0.5), (3, R, 0.4))
    cfg = config_for(ControllerKind.MINPE, window=2)
    assert policy_pick(ControllerKind.MINPE, history, cfg) == R


def test_maxpe_picks_largest_error():
    history = history_of((1, L, 0.5), (2, R, 0.1), (3, U, 0.3))
    cfg = config_for(ControllerKind.MAXPE)
    assert policy_pick(ControllerKind.MAXPE, history, cfg) == L


def test_maxpe_all_equal_gives_most_recent():
    history = history_of((1, L, 0.25), (2, R, 0.25), (3, D, 0.25))
    cfg = config_for(ControllerKind.MAXPE)
    assert policy_pick(ControllerKind.MAXPE, history, cfg) == D


def test_maxpe_epsilon_one_is_uniform():
    history = history_of((1, L, 0.9))
    cfg = config_for(ControllerKind.MAXPE, epsilon=1.0)
    rng = np.random.default_rng(3)
    counts = {cmd: 0 for cmd in COMMANDS}
    draws = 100_000
    for _ in range(draws):
        counts[choose_action(ControllerKind.MAXPE, history, cfg, rng)] += 1
    for cmd in COMMANDS:
        assert 0.19 <= counts[cmd] / draws <= 0.21


def test_minpe_maxpe_agree_with_scan_oracle():
    rng = np.random.default_rng(17)
    cfg = config_for(ControllerKind.MINPE, window=8)
    for _ in range(10_000):
        history = ErrorHistory(capacity=32)
        for t in range(int(rng.integers(0, 24))):
            history.append(
                t,
                COMMANDS[int(rng.integers(5))],
                float(rng.integers(0, 64)) / 64.0,  # coarse grid forces ties
            )
        expected_min = scan_oracle(history, cfg.window, "min")
        expected_max = scan_oracle(history, cfg.window, "max")
        # On an empty window both return None, as the oracle does.
        assert policy_pick(ControllerKind.MINPE, history, cfg) == expected_min
        assert policy_pick(ControllerKind.MAXPE, history, cfg) == expected_max


# ---------------------------------------------------------------------------
# MaxLP


def test_maxlp_hand_computed_example():
    # errors 0.4, 0.2, 0.2, 0.1 at t=1..4; em over width 2:
    # em(1)=0.4, em(2)=0.3, em(3)=0.2, em(4)=0.15
    # progress: LP(2)=0.1, LP(3)=0.1, LP(4)=0.05 -> tie broken to t=3.
    history = history_of((1, L, 0.4), (2, R, 0.2), (3, U, 0.2), (4, D, 0.1))
    cfg = config_for(ControllerKind.MAXLP, em_window=2)
    assert policy_pick(ControllerKind.MAXLP, history, cfg) == U


def test_maxlp_constant_errors_gives_most_recent():
    history = history_of((1, L, 0.5), (2, R, 0.5), (3, U, 0.5), (4, D, 0.5))
    cfg = config_for(ControllerKind.MAXLP, em_window=2)
    assert policy_pick(ControllerKind.MAXLP, history, cfg) == D


def test_maxlp_increasing_errors_picks_least_negative():
    # errors 0.1..0.4 at t=1..4, em width 2:
    # em(1)=0.1, em(2)=0.15, em(3)=0.25, em(4)=0.35
    # LP(2)=-0.05, LP(3)=-0.10, LP(4)=-0.10 -> argmax is t=2.
    history = history_of((1, L, 0.1), (2, R, 0.2), (3, U, 0.3), (4, D, 0.4))
    cfg = config_for(ControllerKind.MAXLP, em_window=2)
    assert policy_pick(ControllerKind.MAXLP, history, cfg) == R


def test_maxlp_insufficient_history_falls_back_to_random():
    cfg = config_for(ControllerKind.MAXLP, em_window=2)
    for history in (ErrorHistory(capacity=8), history_of((1, D, 0.9))):
        assert policy_pick(ControllerKind.MAXLP, history, cfg) is None
        seen = {
            choose_action(cfg.kind, history, cfg, np.random.default_rng(seed))
            for seed in range(40)
        }
        assert seen <= set(COMMANDS)
        assert len(seen) > 1


@st.composite
def error_steps(draw, min_size=0, max_size=45):
    """``min_size`` to ``max_size`` (command index, error) steps, the length
    drawn uniformly. Errors on a coarse grid make real-arithmetic ties
    common; half the histories mix them with arbitrary floats in [0, 1]."""
    grid = st.integers(0, 8).map(lambda k: k / 8.0)
    errors = draw(st.sampled_from([grid, st.one_of(grid, st.floats(0.0, 1.0))]))
    n = draw(st.integers(min_size, max_size))
    step = st.tuples(st.integers(0, len(COMMANDS) - 1), errors)
    return draw(st.lists(step, min_size=n, max_size=n))


def exact_maxlp_commands(history, cfg, rng):
    """The commands MaxLP may return, from each record's em(t - 1) - em(t)
    in exact arithmetic, making the same draws from ``rng``.

    The most recent record at the exact maximum is always accepted. So is
    any other record within float rounding of it (2**-40 of the largest
    error, plus 2**-1072), unless it ties the maximum exactly with both
    windows full: there progress is one rounded difference divided by
    em_window, so the tie stays a tie in floats and goes to the most
    recent record."""
    if rng.random() < cfg.epsilon:
        return {choose_random(rng)}
    records = list(history)
    scored = []
    for record in records[-cfg.window:]:
        before = mean_oracle(history, record.t - 1, cfg.em_window)
        now = mean_oracle(history, record.t, cfg.em_window)
        if before is not None and now is not None:
            full = record.t - cfg.em_window >= records[0].t
            scored.append((before - now, full, record.command))
    if not scored:
        return {choose_random(rng)}
    top = max(progress for progress, _, _ in scored)
    # The absolute term covers roundings among subnormals, where a relative
    # bound is too tight: with a subnormal error, (0 - 5e-324) / 2 rounds
    # to -0, which ties 0 in floats though it lies below it exactly.
    tolerance = (Fraction(2) ** -40 * max(Fraction(r.error) for r in history)
                 + Fraction(2) ** -1072)
    latest_top = [command for progress, _, command in scored if progress == top][-1]
    return {latest_top} | {
        command for progress, full, command in scored
        if progress >= top - tolerance and not (progress == top and full)
    }


@settings(max_examples=300, deadline=None)
@given(
    start=st.integers(-3, 10_000),
    steps=error_steps(),
    capacity=st.integers(1, 40),
    window=st.integers(1, 25),
    em_window=st.integers(1, 12),
    epsilon=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
# A subnormal error: the last step's progress rounds to [0.0, -0.0].
@example(start=0, steps=[(0, 0.0), (0, 0.0), (1, 5e-324), (0, 0.0)], capacity=3,
         window=2, em_window=2, epsilon=0.0, seed=0)
def test_maxlp_matches_exact_progress(
    start, steps, capacity, window, em_window, epsilon, seed
):
    cfg = config_for(
        ControllerKind.MAXLP, window=window, em_window=em_window, epsilon=epsilon
    )
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    history = ErrorHistory(capacity=capacity)
    # As in the closed loop: choose from the history so far, then append.
    for t, (cmd, err) in enumerate(steps, start):
        assert choose_action(ControllerKind.MAXLP, history, cfg, rng) in (
            exact_maxlp_commands(history, cfg, oracle_rng)
        )
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        history.append(t, COMMANDS[cmd], err)


# Eleven errors in which the prefix sum of the first nine, added left to
# right, and added pairwise (numpy's ``np.sum`` from eight terms on) round
# apart.
RING_FILL_ERRORS = [
    0.9716899756197547, 0.774664134923732, 0.7911339481728052,
    0.75926850053958, 0.5969877305237564, 0.9176922571709127,
    0.689630155447081, 0.500356430736871, 0.07708380850053875,
    0.48844922708552385, 0.7847495425236084,
]


def test_maxlp_ring_fill_adds_prefix_sums_left_to_right():
    errors = np.array(RING_FILL_ERRORS)
    codes = np.arange(len(errors)) % len(COMMANDS)
    cfg = config_for(ControllerKind.MAXLP, window=2, em_window=10)
    # Step 9 is scored while the windows fill, step 10 with full windows.
    left_to_right = functools.reduce(operator.add, RING_FILL_ERRORS[:9])
    by_left_to_right = (left_to_right / 9 - errors[9]) / 10
    by_pairs = (float(np.sum(errors[:9])) / 9 - errors[9]) / 10
    full = (errors[0] - errors[10]) / 10
    assert by_left_to_right > full == by_pairs
    assert COMMANDS[controllers._maxlp(codes, errors, cfg)] == S  # step 9's


def test_maxlp_ring_fill_ties_are_of_rounded_progress():
    # The example of ``_maxlp``'s docstring: progress 0.0 at step 2 and
    # ((e + e + e) / 3 - e) / 4 < 0 at step 3, equal in real arithmetic.
    e = 0.4108733470300775
    assert (e + e + e) / 3 - e < 0
    cfg = config_for(ControllerKind.MAXLP, window=2, em_window=4)
    assert controllers._maxlp(np.arange(4), np.full(4, e), cfg) == 2


# ---------------------------------------------------------------------------
# Dispatch and shared properties


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(list(ControllerKind)),
    window=st.integers(1, 12),
    em_window=st.integers(1, 12),
    data=st.data(),
    epsilon=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_choice_from_whole_log_equals_choice_from_ring(
    kind, window, em_window, data, epsilon, seed
):
    # The closed loop scores its whole log; a ring of window + em_window
    # records must give the same choice and the same draws at every step.
    cfg = config_for(kind, epsilon=epsilon, window=window, em_window=em_window)
    capacity = window + em_window
    steps = data.draw(error_steps(min_size=capacity + 1, max_size=capacity + 30))
    codes = np.array([code for code, _ in steps], dtype=int)
    errors = np.array([error for _, error in steps])
    ring = ErrorHistory(capacity=capacity)
    log_rng, ring_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for t in range(len(steps) + 1):
        chosen = choose_code(kind, codes[:t], errors[:t], cfg, log_rng)
        assert COMMANDS[chosen] == choose_action(kind, ring, cfg, ring_rng), t
        assert log_rng.bit_generator.state == ring_rng.bit_generator.state
        if t < len(steps):
            ring.append(t, COMMANDS[codes[t]], errors[t])


def test_dispatch_rm_matches_choose_random_stream():
    # RM takes no uniform draw, even at epsilon 1: its stream is
    # choose_random's alone.
    history = history_of((1, L, 0.9))
    for epsilon in (0.0, 1.0):
        cfg = config_for(ControllerKind.RM, epsilon=epsilon)
        for seed in range(20):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            assert choose_action(ControllerKind.RM, history, cfg, rng) == choose_random(
                ref_rng
            )
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_dispatch_minpe_singleton_history():
    history = history_of((1, D, 0.9))
    cfg = config_for(ControllerKind.MINPE)
    assert choose_action(
        ControllerKind.MINPE, history, cfg, np.random.default_rng(0)
    ) == D


def test_dispatch_maxlp_insufficient_history_is_valid():
    cfg = config_for(ControllerKind.MAXLP)
    got = choose_action(
        ControllerKind.MAXLP, ErrorHistory(capacity=4), cfg,
        np.random.default_rng(0),
    )
    assert got in COMMANDS


def test_pe_dispatch_draws_match_written_out_policy():
    # One epsilon draw per decision, then a random command only when the
    # draw hits or the history is empty; otherwise the scan oracle's pick.
    rng = np.random.default_rng(71)
    for kind, mode in ((ControllerKind.MINPE, "min"), (ControllerKind.MAXPE, "max")):
        cfg = config_for(kind, epsilon=0.3, window=6)
        for _ in range(500):
            history = ErrorHistory(capacity=16)
            for t in range(int(rng.integers(0, 10))):
                history.append(t, COMMANDS[int(rng.integers(5))],
                               float(rng.integers(0, 8)) / 8.0)
            seed = int(rng.integers(2**32))
            got_rng = np.random.default_rng(seed)
            got = choose_action(kind, history, cfg, got_rng)
            ref_rng = np.random.default_rng(seed)
            if ref_rng.random() < cfg.epsilon or len(history) == 0:
                expected = COMMANDS[int(ref_rng.integers(5))]
            else:
                expected = scan_oracle(history, cfg.window, mode)
            assert got == expected
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state


def test_dispatch_accepts_string_kind():
    cfg = config_for(ControllerKind.MINPE)
    history = history_of((1, U, 0.1))
    assert choose_action("minpe", history, cfg, np.random.default_rng(0)) == U


def test_every_policy_total_over_random_histories():
    rng = np.random.default_rng(47)
    for kind in ControllerKind:
        cfg = config_for(kind, epsilon=0.1)
        for _ in range(200):
            history = ErrorHistory(capacity=16)
            for t in range(int(rng.integers(0, 12))):
                history.append(t, COMMANDS[int(rng.integers(5))], float(rng.random()))
            assert choose_action(kind, history, cfg, rng) in COMMANDS


def test_epsilon_zero_is_deterministic_function_of_history():
    history = history_of((1, L, 0.3), (2, R, 0.6), (3, U, 0.2))
    for kind in (ControllerKind.MINPE, ControllerKind.MAXPE, ControllerKind.MAXLP):
        cfg = config_for(kind, em_window=2)
        picks = {
            choose_action(kind, history, cfg, np.random.default_rng(seed))
            for seed in range(25)
        }
        assert len(picks) == 1


def test_affine_error_rescaling_preserves_choices():
    # Errors on a coarse grid keep the transformed arithmetic exact.
    rng = np.random.default_rng(59)
    for _ in range(500):
        plain = ErrorHistory(capacity=64)
        scaled = ErrorHistory(capacity=64)
        for t in range(1, int(rng.integers(2, 30))):
            cmd = COMMANDS[int(rng.integers(5))]
            err = float(rng.integers(0, 1024)) / 1024.0
            plain.append(t, cmd, err)
            scaled.append(t, cmd, 2.0 * err + 0.5)
        for kind in (ControllerKind.MINPE, ControllerKind.MAXPE):
            cfg = config_for(kind)
            assert choose_action(
                kind, plain, cfg, np.random.default_rng(1)
            ) == choose_action(kind, scaled, cfg, np.random.default_rng(1))


def test_maxlp_scaling_preserves_choices():
    rng = np.random.default_rng(61)
    cfg = config_for(ControllerKind.MAXLP, window=8, em_window=4)
    for _ in range(300):
        plain = ErrorHistory(capacity=64)
        scaled = ErrorHistory(capacity=64)
        for t in range(1, int(rng.integers(3, 24))):
            cmd = COMMANDS[int(rng.integers(5))]
            err = float(rng.integers(0, 256)) / 256.0
            plain.append(t, cmd, err)
            scaled.append(t, cmd, 4.0 * err)
        assert policy_pick(ControllerKind.MAXLP, plain, cfg) == policy_pick(
            ControllerKind.MAXLP, scaled, cfg
        )


# ---------------------------------------------------------------------------
# ErrorHistory container


def test_history_capacity_drops_oldest():
    history = ErrorHistory(capacity=3)
    for t in range(6):
        history.append(t, S, 0.1)
    assert len(history) == 3
    assert [r.t for r in history] == [3, 4, 5]


def test_history_requires_increasing_timesteps():
    history = history_of((3, L, 0.1))
    with pytest.raises(ValueError):
        history.append(3, R, 0.2)
    with pytest.raises(ValueError):
        history.append(2, R, 0.2)


def test_history_rejects_a_gap():
    history = history_of((3, L, 0.1))
    with pytest.raises(ValueError, match="consecutive"):
        history.append(5, R, 0.2)
    history.append(4, R, 0.2)
    assert [r.t for r in history] == [3, 4]


def test_history_rejects_bad_errors():
    history = ErrorHistory(capacity=4)
    with pytest.raises(ValueError):
        history.append(0, L, -0.5)
    with pytest.raises(ValueError):
        history.append(0, L, float("nan"))


def test_history_recent_returns_tail():
    # The policies read their lookback window as this slice of the ring.
    history = history_of((1, L, 0.1), (2, R, 0.2), (3, U, 0.3))
    assert [r.t for r in list(history)[-2:]] == [2, 3]
    assert [r.t for r in list(history)[-10:]] == [1, 2, 3]


def test_config_validation():
    with pytest.raises(ConfigError):
        ControllerConfig(window=0)
    with pytest.raises(ConfigError):
        ControllerConfig(em_window=0)
    with pytest.raises(ConfigError):
        ControllerConfig(epsilon=1.5)
    with pytest.raises(ConfigError):
        ErrorHistory(capacity=0)


def test_config_coerces_kind_and_rejects_unknown():
    assert ControllerConfig(kind="minpe").kind is ControllerKind.MINPE
    with pytest.raises(ConfigError, match="xyz"):
        ControllerConfig(kind="xyz")
