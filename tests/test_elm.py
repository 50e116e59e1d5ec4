"""Tests for the extreme learning machine core.

Expected values are either hand-derivable constants or come from
independent oracles defined at the top of this file: pure-Python scalar
loops for algebra, Penrose residual checks for the pseudo-inverse, and
a normal-equations solution for the minimum-norm property. The oracles
never call the code paths they check.
"""

import math
import struct
from dataclasses import replace

import numpy as np
import pytest

from visuomotor import elm
from visuomotor.elm import (
    ElmConfig,
    ElmState,
    Workspace,
    fit_batch,
    forward,
    forward_into,
    init_elm,
    load_model,
    predict,
    prediction_error,
    pseudo_inverse,
    rls_update,
    save_model,
    update_online,
)
from visuomotor.errors import ConfigError, DimensionError, NumericError, ParseError


# ---------------------------------------------------------------------------
# Independent oracles


def scalar_hidden(weights, bias, x):
    """Element-by-element recomputation of the hidden response."""
    out = []
    for i in range(len(bias)):
        z = bias[i]
        for j in range(len(x)):
            z += weights[i][j] * x[j]
        out.append(1.0 / (1.0 + math.exp(-z)))
    return np.array(out)


def scalar_matvec(matrix, vector):
    rows, cols = matrix.shape
    out = np.zeros(rows)
    for i in range(rows):
        acc = 0.0
        for j in range(cols):
            acc += matrix[i, j] * vector[j]
        out[i] = acc
    return out


def penrose_residual(a, ap):
    """Worst relative infinity-norm violation of the four conditions."""

    def rel(x, reference):
        denominator = max(np.linalg.norm(reference, np.inf), 1e-12)
        return np.linalg.norm(x, np.inf) / denominator

    aap = a @ ap
    apa = ap @ a
    return max(
        rel(a @ ap @ a - a, a),
        rel(ap @ a @ ap - ap, ap),
        rel(aap - aap.T, aap if np.linalg.norm(aap, np.inf) > 0 else np.eye(1)),
        rel(apa - apa.T, apa if np.linalg.norm(apa, np.inf) > 0 else np.eye(1)),
    )


def min_norm_solution(h, y):
    """Constrained minimiser of ||B||_F subject to B @ h = y.

    Uses the normal equations of the underdetermined system directly,
    which never touches the SVD code path under test.
    """
    return y @ np.linalg.solve(h.T @ h, h.T)


def features_of(state, xs):
    """Hidden-layer matrix, one column per sample, via the scalar oracle."""
    return np.column_stack(
        [scalar_hidden(state.hidden_weights, state.hidden_bias, x) for x in xs]
    )


def small_config(**overrides):
    defaults = dict(input_dim=5, output_dim=3, hidden_count=6, seed=11)
    defaults.update(overrides)
    return ElmConfig(**defaults)


def manual_state(weights, bias, readout, activation="logistic"):
    weights = np.asarray(weights, dtype=float)
    bias = np.asarray(bias, dtype=float)
    readout = np.asarray(readout, dtype=float)
    return ElmState(
        hidden_weights=weights,
        hidden_bias=bias,
        readout=readout,
        inv_gram=np.eye(weights.shape[0]),
        samples_seen=0,
        activation=activation,
    )


# ---------------------------------------------------------------------------
# Configuration and initialisation


def test_init_same_seed_identical():
    config = small_config(seed=7)
    a = init_elm(config)
    b = init_elm(config)
    assert np.array_equal(a.hidden_weights, b.hidden_weights)
    assert np.array_equal(a.hidden_bias, b.hidden_bias)
    assert a.hidden_weights.tobytes() == b.hidden_weights.tobytes()


def test_init_standard_experiment_shapes():
    config = ElmConfig(input_dim=1026, output_dim=1024, hidden_count=30, seed=0)
    state = init_elm(config)
    assert state.hidden_weights.shape == (30, 1026)
    assert state.hidden_bias.shape == (30,)
    assert state.readout.shape == (1024, 30)
    assert state.inv_gram.shape == (30, 30)
    assert np.all(state.readout == 0.0)
    assert state.samples_seen == 0


def test_init_inv_gram_is_scaled_identity():
    config = small_config(online_init_scale=1e-8)
    state = init_elm(config)
    assert np.array_equal(state.inv_gram, 1e8 * np.eye(config.hidden_count))


def test_init_respects_ranges():
    config = small_config(
        hidden_count=200,
        weight_init_low=-0.5,
        weight_init_high=0.25,
        bias_init_low=0.1,
        bias_init_high=0.2,
    )
    state = init_elm(config)
    assert state.hidden_weights.min() >= -0.5
    assert state.hidden_weights.max() <= 0.25
    assert state.hidden_bias.min() >= 0.1
    assert state.hidden_bias.max() <= 0.2


def test_init_weights_are_read_only():
    state = init_elm(small_config())
    with pytest.raises(ValueError):
        state.hidden_weights[0, 0] = 1.0
    with pytest.raises(ValueError):
        state.hidden_bias[0] = 1.0


@pytest.mark.parametrize(
    "overrides",
    [
        dict(input_dim=0),
        dict(output_dim=0),
        dict(hidden_count=0),
        dict(weight_init_low=1.0, weight_init_high=-1.0),
        dict(weight_init_low=0.5, weight_init_high=0.5),
        dict(online_init_scale=0.0),
        dict(online_init_scale=-1e-8),
        dict(activation="relu"),
        dict(seed=-1),
    ],
)
def test_invalid_config_rejected(overrides):
    with pytest.raises(ConfigError):
        small_config(**overrides)


# ---------------------------------------------------------------------------
# Hidden layer


def test_hidden_zero_weights_give_half():
    state = manual_state(np.zeros((4, 3)), np.zeros(4), np.zeros((2, 4)))
    h = forward(state, np.array([0.3, -1.0, 2.0]))[0]
    assert np.all(h == 0.5)


def test_hidden_cancelling_bias_gives_half():
    state = manual_state([[2.0]], [-2.0], [[0.0]])
    assert forward(state, np.array([1.0]))[0] == pytest.approx([0.5])


def test_hidden_matches_scalar_oracle():
    state = init_elm(small_config(input_dim=20, hidden_count=15))
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.uniform(-2, 2, 20)
        expected = scalar_hidden(state.hidden_weights, state.hidden_bias, x)
        assert np.allclose(forward(state, x)[0], expected, atol=1e-12)


def test_hidden_tanh_variant():
    state = manual_state(np.eye(2), np.zeros(2), np.zeros((1, 2)), activation="tanh")
    h = forward(state, np.array([0.0, 100.0]))[0]
    assert h == pytest.approx([0.0, 1.0])


def test_hidden_length_mismatch():
    state = init_elm(small_config())
    with pytest.raises(DimensionError):
        forward(state, np.zeros(4))


def test_hidden_bounded_for_logistic():
    state = init_elm(small_config(input_dim=8, hidden_count=40))
    rng = np.random.default_rng(9)
    h = forward(state, rng.uniform(0, 1, 8))[0]
    assert np.all((h > 0.0) & (h < 1.0))


# ---------------------------------------------------------------------------
# Prediction


def test_predict_zero_readout_is_zero():
    state = init_elm(small_config())
    frame = np.full(3, 0.5)
    assert np.array_equal(predict(state, frame, np.zeros(2)), np.zeros(3))


def test_predict_matches_scalar_oracle():
    config = small_config(input_dim=6, output_dim=4, hidden_count=7)
    state = init_elm(config)
    rng = np.random.default_rng(21)
    state = fit_batch(
        config, state, [(rng.uniform(0, 1, 6), rng.uniform(0, 1, 4)) for _ in range(12)]
    )
    frame = rng.uniform(0, 1, 4)
    velocity = rng.uniform(-1, 1, 2)
    x = np.concatenate([frame, velocity])
    expected = scalar_matvec(
        state.readout, scalar_hidden(state.hidden_weights, state.hidden_bias, x)
    )
    assert np.allclose(predict(state, frame, velocity), expected, atol=1e-12)


def test_predict_interpolates_single_training_pair():
    config = small_config(input_dim=5, output_dim=3, hidden_count=6)
    state = init_elm(config)
    rng = np.random.default_rng(5)
    x0 = rng.uniform(0, 1, 5)
    y0 = rng.uniform(0, 1, 3)
    fitted = fit_batch(config, state, [(x0, y0)])
    got = predict(fitted, x0[:3], x0[3:])
    assert np.max(np.abs(got - y0)) < 1e-6


def test_predict_dimension_errors():
    state = init_elm(small_config())
    with pytest.raises(DimensionError):
        predict(state, np.zeros(2), np.zeros(2))
    with pytest.raises(DimensionError):
        predict(state, np.zeros(3), np.zeros(3))


def test_predict_output_not_clipped():
    # Raw linear readout may leave the pixel range.
    state = manual_state(np.zeros((2, 3)), np.zeros(2), [[10.0, 10.0]])
    out = predict(state, np.zeros(1), np.zeros(2))
    assert out[0] == pytest.approx(10.0)  # 10*0.5 + 10*0.5


# ---------------------------------------------------------------------------
# Pseudo-inverse


def test_pinv_identity():
    assert np.allclose(pseudo_inverse(np.eye(3)), np.eye(3), atol=1e-12)


def test_pinv_diagonal_with_zero_singular_value():
    got = pseudo_inverse(np.diag([2.0, 0.0]))
    assert np.allclose(got, np.diag([0.5, 0.0]), atol=1e-12)


def test_pinv_all_ones_matrix():
    a = np.ones((2, 2))
    ap = pseudo_inverse(a)
    assert np.allclose(ap, np.full((2, 2), 0.25), atol=1e-12)
    assert penrose_residual(a, ap) < 1e-8


def test_pinv_penrose_suite_random_and_rank_deficient():
    rng = np.random.default_rng(101)
    for i in range(100):
        rows = int(rng.integers(1, 21))
        cols = int(rng.integers(1, 31))
        if i < 30:  # deliberately rank-deficient
            inner = max(1, min(rows, cols) - 1 - int(rng.integers(0, 2)))
            a = rng.normal(size=(rows, inner)) @ rng.normal(size=(inner, cols))
        else:
            a = rng.normal(size=(rows, cols))
        assert penrose_residual(a, pseudo_inverse(a)) < 1e-8


def test_pinv_zero_matrix():
    assert np.array_equal(pseudo_inverse(np.zeros((3, 2))), np.zeros((2, 3)))


def test_pinv_tolerance_cutoff():
    a = np.diag([1.0, 1e-6])
    clipped = pseudo_inverse(a, tolerance=1e-3)
    assert np.allclose(clipped, np.diag([1.0, 0.0]), atol=1e-12)
    # A singular value exactly at the threshold is kept.
    kept = pseudo_inverse(np.diag([1.0, 1e-3]), tolerance=1e-3)
    assert np.allclose(kept, np.diag([1.0, 1e3]), rtol=1e-12)


def test_pinv_rejects_bad_input():
    with pytest.raises(NumericError):
        pseudo_inverse(np.array([[1.0, np.nan]]))
    with pytest.raises(DimensionError):
        pseudo_inverse(np.zeros(3))
    with pytest.raises(ValueError):
        pseudo_inverse(np.eye(2), tolerance=-1.0)


# ---------------------------------------------------------------------------
# Batch fitting


def test_fit_batch_zero_targets_zero_readout():
    config = small_config()
    state = init_elm(config)
    rng = np.random.default_rng(2)
    pairs = [(rng.uniform(0, 1, 5), np.zeros(3)) for _ in range(8)]
    fitted = fit_batch(config, state, pairs)
    assert np.array_equal(fitted.readout, np.zeros((3, 6)))


def test_fit_batch_recovers_known_readout():
    config = ElmConfig(input_dim=4, output_dim=3, hidden_count=5, seed=23)
    state = init_elm(config)
    rng = np.random.default_rng(17)
    target_readout = rng.uniform(-1, 1, (3, 5))
    xs = [rng.uniform(-1, 1, 4) for _ in range(50)]
    pairs = [(x, target_readout @ forward(state, x)[0]) for x in xs]
    fitted = fit_batch(config, state, pairs)
    assert np.max(np.abs(fitted.readout - target_readout)) < 1e-8


def test_fit_batch_minimum_norm_on_underdetermined_instance():
    config = ElmConfig(input_dim=4, output_dim=3, hidden_count=10, seed=31)
    state = init_elm(config)
    rng = np.random.default_rng(13)
    xs = [rng.uniform(-1, 1, 4) for _ in range(3)]
    ys = [rng.uniform(-1, 1, 3) for _ in range(3)]
    fitted = fit_batch(config, state, list(zip(xs, ys)))
    h = features_of(state, xs)
    y = np.column_stack(ys)
    reference = min_norm_solution(h, y)
    # Exact solution of the constraints, and no larger than the oracle.
    assert np.allclose(fitted.readout @ h, y, atol=1e-8)
    assert (
        np.linalg.norm(fitted.readout) <= np.linalg.norm(reference) + 1e-8
    )
    assert np.allclose(fitted.readout, reference, atol=1e-7)


def test_fit_batch_least_squares_optimality():
    config = small_config(hidden_count=4)
    state = init_elm(config)
    rng = np.random.default_rng(29)
    pairs = [(rng.uniform(0, 1, 5), rng.uniform(0, 1, 3)) for _ in range(40)]
    fitted = fit_batch(config, state, pairs)
    h = features_of(state, [x for x, _ in pairs])
    y = np.column_stack([t for _, t in pairs])
    best = np.linalg.norm(fitted.readout @ h - y)
    for _ in range(20):
        delta = rng.normal(scale=rng.choice([1e-3, 1e-1, 1.0]), size=(3, 4))
        assert np.linalg.norm((fitted.readout + delta) @ h - y) >= best - 1e-10


def test_fit_batch_leaves_weights_and_accumulator_alone():
    config = small_config()
    state = init_elm(config)
    weights_before = state.hidden_weights.copy()
    bias_before = state.hidden_bias.copy()
    gram_before = state.inv_gram.copy()
    rng = np.random.default_rng(4)
    fitted = fit_batch(
        config, state, [(rng.uniform(0, 1, 5), rng.uniform(0, 1, 3)) for _ in range(6)]
    )
    assert fitted.hidden_weights.tobytes() == weights_before.tobytes()
    assert fitted.hidden_bias.tobytes() == bias_before.tobytes()
    assert np.array_equal(fitted.inv_gram, gram_before)
    assert fitted.samples_seen == 6


def test_fit_batch_empty_pairs_rejected():
    config = small_config()
    with pytest.raises(ValueError):
        fit_batch(config, init_elm(config), [])


def test_fit_batch_mismatched_config_rejected():
    config = small_config()
    other = small_config(hidden_count=9)
    with pytest.raises(ConfigError):
        fit_batch(other, init_elm(config), [(np.zeros(5), np.zeros(3))])


# ---------------------------------------------------------------------------
# Online updates


def make_pairs(count, rng, input_dim=6, output_dim=3):
    return [
        (rng.uniform(-2, 2, input_dim), rng.uniform(-1, 1, output_dim))
        for _ in range(count)
    ]


def test_online_first_update_nearly_interpolates():
    config = ElmConfig(
        input_dim=6, output_dim=3, hidden_count=8, online_init_scale=1e-8, seed=3
    )
    state = init_elm(config)
    rng = np.random.default_rng(8)
    x = rng.uniform(0, 1, 6)
    y = rng.uniform(0.2, 1, 3)
    updated = update_online(state, (x, y))
    got = updated.readout @ forward(updated, x)[0]
    assert np.linalg.norm(got - y) / np.linalg.norm(y) < 1e-4
    assert updated.samples_seen == 1


def test_online_matches_batch_after_200_updates():
    config = ElmConfig(
        input_dim=6, output_dim=3, hidden_count=30, online_init_scale=1e-8, seed=44
    )
    state = init_elm(config)
    pairs = make_pairs(200, np.random.default_rng(15))
    online = state
    for pair in pairs:
        online = update_online(online, pair)
    batch = fit_batch(config, state, pairs)
    gap = np.linalg.norm(online.readout - batch.readout) / np.linalg.norm(
        batch.readout
    )
    assert gap <= 1e-4
    assert online.samples_seen == 200


def test_online_zero_innovation_keeps_readout():
    config = small_config(input_dim=6, hidden_count=8)
    state = init_elm(config)
    rng = np.random.default_rng(6)
    for pair in make_pairs(20, rng, input_dim=6, output_dim=3):
        state = update_online(state, pair)
    x = rng.uniform(-1, 1, 6)
    y = state.readout @ forward(state, x)[0]
    updated = update_online(state, (x, y))
    assert np.max(np.abs(updated.readout - state.readout)) < 1e-12


def test_online_batch_gap_shrinks_with_init_scale():
    rng = np.random.default_rng(77)
    pairs = make_pairs(100, rng, input_dim=8, output_dim=2)
    gaps = []
    for scale in (1e-4, 1e-6, 1e-8):
        config = ElmConfig(
            input_dim=8, output_dim=2, hidden_count=8,
            online_init_scale=scale, seed=12,
        )
        state = init_elm(config)
        online = state
        for pair in pairs:
            online = update_online(online, pair)
        batch = fit_batch(config, state, pairs)
        gaps.append(
            np.linalg.norm(online.readout - batch.readout)
            / np.linalg.norm(batch.readout)
        )
    assert gaps[0] >= gaps[1] >= gaps[2]


def test_online_keeps_inv_gram_symmetric():
    config = small_config(input_dim=6, hidden_count=10)
    state = init_elm(config)
    for pair in make_pairs(50, np.random.default_rng(1), input_dim=6, output_dim=3):
        state = update_online(state, pair)
        asymmetry = np.max(np.abs(state.inv_gram - state.inv_gram.T))
        assert asymmetry <= 1e-9 * max(np.max(np.abs(state.inv_gram)), 1.0)


def test_online_shares_frozen_weights():
    config = small_config()
    state = init_elm(config)
    updated = update_online(state, (np.full(5, 0.5), np.zeros(3)))
    assert updated.hidden_weights is state.hidden_weights
    assert updated.hidden_bias is state.hidden_bias


def test_online_degenerate_accumulator_raises():
    state = manual_state(np.zeros((2, 3)), np.zeros(2), np.zeros((1, 2)))
    state.inv_gram = -10.0 * np.eye(2)  # forces 1 + h'Ph below zero
    with pytest.raises(NumericError):
        update_online(state, (np.zeros(3), np.zeros(1)))


def test_online_target_length_checked():
    state = init_elm(small_config())
    with pytest.raises(DimensionError):
        update_online(state, (np.zeros(5), np.zeros(4)))


def test_online_deterministic_given_sequence():
    config = small_config(input_dim=6, hidden_count=9)
    pairs = make_pairs(30, np.random.default_rng(55), input_dim=6, output_dim=3)
    states = []
    for _ in range(2):
        state = init_elm(config)
        for pair in pairs:
            state = update_online(state, pair)
        states.append(state)
    assert states[0].readout.tobytes() == states[1].readout.tobytes()
    assert states[0].inv_gram.tobytes() == states[1].inv_gram.tobytes()


def test_online_is_pure_and_matches_in_place_kernel():
    config = small_config(input_dim=6, hidden_count=9)
    state = init_elm(config)
    rng = np.random.default_rng(21)
    for pair in make_pairs(15, rng, input_dim=6, output_dim=3):
        state = update_online(state, pair)
    x, y = make_pairs(1, rng, input_dim=6, output_dim=3)[0]
    readout, inv_gram = state.readout.tobytes(), state.inv_gram.tobytes()

    updated = update_online(state, (x, y))
    assert state.readout.tobytes() == readout
    assert state.inv_gram.tobytes() == inv_gram
    assert state.samples_seen == 15

    twin = replace(
        state, readout=state.readout.copy(), inv_gram=state.inv_gram.copy()
    )
    h, forecast = forward(twin, x)
    assert forecast.tobytes() == predict(state, x[:3], x[3:]).tobytes()
    work = Workspace(twin)
    forward_into(twin, x, work)
    assert work.h.tobytes() == h.tobytes()
    assert work.forecast.tobytes() == forecast.tobytes()
    rls_update(twin, work, y - forecast)
    assert twin.readout.tobytes() == updated.readout.tobytes()
    assert twin.inv_gram.tobytes() == updated.inv_gram.tobytes()
    assert twin.samples_seen == updated.samples_seen == 16

    # The same elementwise steps, in the same order, as the RLS recursion
    # written out with fresh arrays.
    ph = state.inv_gram @ h
    denom = 1.0 + h @ ph
    expected_readout = state.readout + np.outer(y - state.readout @ h, ph / denom)
    expected_inv_gram = state.inv_gram - np.outer(ph, ph) / denom
    expected_inv_gram = (expected_inv_gram + expected_inv_gram.T) / 2.0
    assert updated.readout.tobytes() == expected_readout.tobytes()
    assert updated.inv_gram.tobytes() == expected_inv_gram.tobytes()


@pytest.mark.parametrize("output_dim, hidden_count", [(1024, 30), (64, 30), (1, 1)])
def test_in_place_kernel_matches_outer_recursion_at_loop_shapes(
    output_dim, hidden_count
):
    # BLAS picks its kernels by shape, so the bit-for-bit match with the
    # np.outer recursion is checked at the closed loop's own shapes, over
    # several steps that reuse one workspace, as the loop does. Every
    # seventh target equals its forecast, so its residual is +0, and
    # np.outer gives -0 where the gain is negative.
    config = ElmConfig(
        input_dim=output_dim + 2, output_dim=output_dim,
        hidden_count=hidden_count, seed=5,
    )
    state = init_elm(config)
    readout, inv_gram = state.readout.copy(), state.inv_gram.copy()
    work = Workspace(state)
    rng = np.random.default_rng(17)
    for _ in range(6):
        x = np.concatenate([rng.uniform(0, 1, output_dim), rng.integers(-1, 2, 2)])
        y = rng.uniform(0, 1, output_dim)
        h, forecast = forward(state, x)
        y[1::7] = forecast[1::7]
        forward_into(state, x, work)
        rls_update(state, work, y - work.forecast)

        ph = inv_gram @ h
        denom = 1.0 + h @ ph
        readout = readout + np.outer(y - readout @ h, ph / denom)
        inv_gram = inv_gram - np.outer(ph, ph) / denom
        inv_gram = (inv_gram + inv_gram.T) / 2.0
        assert state.readout.tobytes() == readout.tobytes()
        assert state.inv_gram.tobytes() == inv_gram.tobytes()


def test_in_place_kernel_failure_changes_nothing():
    state = manual_state(np.zeros((2, 3)), np.zeros(2), np.ones((1, 2)))
    state.inv_gram = -10.0 * np.eye(2)
    work = Workspace(state)
    forward_into(state, np.zeros(3), work)
    with pytest.raises(NumericError):
        rls_update(state, work, np.zeros(1) - work.forecast)
    assert np.array_equal(state.readout, np.ones((1, 2)))
    assert np.array_equal(state.inv_gram, -10.0 * np.eye(2))
    assert state.samples_seen == 0


# ---------------------------------------------------------------------------
# Prediction error


def test_error_zero_for_identical():
    v = np.array([0.2, 0.4, 0.6])
    assert prediction_error(v, v.copy()) == 0.0


def test_error_simple_arithmetic():
    assert prediction_error(np.ones(4), np.zeros(4)) == 1.0


def test_error_matches_scalar_loop():
    rng = np.random.default_rng(40)
    a = rng.uniform(0, 1, 257)
    b = rng.uniform(0, 1, 257)
    expected = sum((float(x) - float(y)) ** 2 for x, y in zip(a, b)) / 257
    assert abs(prediction_error(a, b) - expected) < 1e-12


def test_error_nonnegative_and_zero_only_when_equal():
    rng = np.random.default_rng(41)
    for _ in range(50):
        a = rng.uniform(0, 1, 16)
        b = a.copy()
        assert prediction_error(a, b) == 0.0
        b[int(rng.integers(16))] += 1e-6
        assert prediction_error(a, b) > 0.0


def test_error_length_mismatch():
    with pytest.raises(DimensionError):
        prediction_error(np.zeros(3), np.zeros(4))


# ---------------------------------------------------------------------------
# Model dump


def test_model_round_trip(tmp_path):
    config = small_config(input_dim=5, output_dim=3, hidden_count=4)
    state = init_elm(config)
    rng = np.random.default_rng(60)
    for pair in make_pairs(10, rng, input_dim=5, output_dim=3):
        state = update_online(state, pair)
    path = tmp_path / "model.elm"
    save_model(state, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.hidden_weights, state.hidden_weights)
    assert np.array_equal(loaded.hidden_bias, state.hidden_bias)
    assert np.array_equal(loaded.readout, state.readout)
    # Loaded models predict identically.
    frame = rng.uniform(0, 1, 3)
    velocity = rng.uniform(-1, 1, 2)
    assert np.array_equal(
        predict(loaded, frame, velocity), predict(state, frame, velocity)
    )


def test_model_resumes_training_bit_identically(tmp_path):
    config = ElmConfig(input_dim=6, output_dim=3, hidden_count=8, seed=5)
    state = init_elm(config)
    rng = np.random.default_rng(61)
    for pair in make_pairs(7, rng):
        state = update_online(state, pair)
    path = tmp_path / "model.elm"
    save_model(state, path)
    loaded = load_model(path)
    assert loaded.samples_seen == 7
    assert loaded.inv_gram.tobytes() == state.inv_gram.tobytes()
    assert not loaded.hidden_weights.flags.writeable
    assert not loaded.hidden_bias.flags.writeable
    pair = make_pairs(1, rng)[0]
    resumed, original = update_online(loaded, pair), update_online(state, pair)
    assert resumed.readout.tobytes() == original.readout.tobytes()
    assert resumed.inv_gram.tobytes() == original.inv_gram.tobytes()
    assert resumed.samples_seen == original.samples_seen == 8


def test_model_keeps_tanh_activation(tmp_path):
    state = init_elm(small_config(activation="tanh"))
    path = tmp_path / "tanh.elm"
    save_model(state, path)
    assert load_model(path).activation == "tanh"


def test_model_file_layout(tmp_path):
    state = manual_state(
        [[1.0, 2.0], [3.0, 4.0]], [5.0, 6.0], [[7.0, 8.0]]
    )
    state.samples_seen = 9
    path = tmp_path / "layout.elm"
    save_model(state, path)
    raw = path.read_bytes()
    assert raw[:4] == b"ELM2"
    n, p, hidden, samples_seen = struct.unpack("<4Q", raw[4:36])
    assert (n, p, hidden, samples_seen) == (2, 1, 2, 9)
    assert raw[36:52] == b"logistic" + b"\0" * 8
    floats = struct.unpack("<12d", raw[52:])
    # Weights, bias, readout, then P (the identity in manual_state).
    assert floats == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 1.0, 0.0, 0.0, 1.0)


def test_model_bad_inputs(tmp_path):
    path = tmp_path / "bad.elm"
    path.write_bytes(b"NOPE" + b"\0" * 64)
    with pytest.raises(ParseError):
        load_model(path)
    good = tmp_path / "short.elm"
    state = init_elm(small_config())
    save_model(state, good)
    truncated = good.read_bytes()[:-8]
    short = tmp_path / "trunc.elm"
    short.write_bytes(truncated)
    with pytest.raises(ParseError):
        load_model(short)


def test_model_trailing_bytes_are_rejected_at_the_payload_end(tmp_path):
    state = init_elm(small_config())
    path = tmp_path / "model.elm"
    save_model(state, path)
    exact = path.read_bytes()
    loaded = load_model(path)  # a file of exact length loads
    assert loaded.readout.tobytes() == state.readout.tobytes()
    assert loaded.inv_gram.tobytes() == state.inv_gram.tobytes()
    path.write_bytes(exact + b"junk")
    with pytest.raises(ParseError, match="trailing bytes") as info:
        load_model(path)
    assert info.value.offset == len(exact)


def test_model_elm1_file_is_rejected_at_offset_0(tmp_path):
    # The old layout: magic, three dimensions, weights, bias and readout.
    path = tmp_path / "old.elm"
    path.write_bytes(
        b"ELM1" + struct.pack("<QQQ", 2, 1, 2) + struct.pack("<8d", *range(8))
    )
    with pytest.raises(ParseError) as info:
        load_model(path)
    assert info.value.offset == 0


def test_model_unknown_activation_is_rejected_at_its_field(tmp_path):
    path = tmp_path / "relu.elm"
    save_model(init_elm(small_config()), path)
    raw = bytearray(path.read_bytes())
    raw[36:52] = b"relu".ljust(16, b"\0")
    path.write_bytes(bytes(raw))
    with pytest.raises(ParseError, match="relu") as info:
        load_model(path)
    assert info.value.offset == 36
