"""Extreme learning machine: a single hidden layer with fixed random
weights and a linear readout.

The readout is solved either in one shot from the Moore-Penrose
pseudo-inverse of the hidden-layer matrix (``fit_batch``) or kept up to
date sample by sample with recursive least squares (``update_online``,
after OS-ELM: Liang et al. 2006, IEEE TNN). On well-conditioned hidden
layers the two routes reach the same minimum-norm least-squares readout
as the regularisation scale goes to zero. At the default scale of the closed-loop experiment the
hidden layer is badly conditioned (many saturated units, some constant):
there the two readouts agree on their predictions but not on their
parameters, which can differ by about 100%.

In-place kernels do the arithmetic: ``hidden_into`` writes the hidden
responses to one input or to a stack of inputs, ``forecast_into`` the
forecast from a response, ``forward_into`` both for one input, and
``rls_update`` folds one residual into the readout and the accumulator.
They write only into their ``out`` arrays, a ``Workspace`` (the buffers
of one network shape) and the state, so the closed loop allocates its
buffers once per run and its steps allocate no array data. Each kernel
performs the same operations, in the same order, as the expressions with
fresh arrays they replace: a product written through ``out=`` runs the
same BLAS kernel, ``np.dot`` of a matrix and a vector or of two vectors
runs the gemv or dot that ``matmul`` runs, and an elementwise step rounds
the same wherever it writes. ``hidden_into`` on a stack runs one gemv per
input, the call it makes for that input alone. Their results are
therefore the same bits (the kernels' docstrings and comments give the
details; ``tests/test_elm.py`` checks each assumption). The kernels check
nothing and leave floating-point error handling to the caller: the
logistic's ``exp`` overflows for inputs below about -709, which saturates
the unit cleanly at 0, and callers hold ``saturating()`` around them once
rather than once per call. ``forward``, ``predict`` and ``update_online``
are the checked, pure entries over the same kernels.

``save_model`` writes the whole learner state, accumulator and activation
included, as an ``ELM2`` file; training resumes from ``load_model(path)``
exactly as from the saved state.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DimensionError, NumericError, ParseError

MODEL_MAGIC = b"ELM2"
_NAME_WIDTH = 16
# Magic, three dimensions, samples seen, NUL-padded activation name.
_HEADER = struct.Struct(f"<4s4Q{_NAME_WIDTH}s")


def _logistic(z: np.ndarray) -> None:
    # 1 / (1 + exp(-z)), in place; negation is exact and addition commutes.
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    np.divide(1.0, z, out=z)


# Each activation overwrites its argument with its value.
ACTIVATIONS: dict[str, Callable[[np.ndarray], None]] = {
    "logistic": _logistic,
    "tanh": lambda z: np.tanh(z, out=z),
}


def saturating() -> np.errstate:
    """The floating-point context the kernels run in: an overflow in the
    logistic's ``exp`` saturates the unit at 0 without a warning."""
    return np.errstate(over="ignore")


@dataclass(frozen=True)
class ElmConfig:
    """Network shape, initialisation ranges and online regularisation.

    ``input_dim`` is the sensor dimension plus the motor dimension,
    ``output_dim`` the sensor dimension alone. ``online_init_scale`` is
    the ridge scale delta used to seed the recursive solver; smaller
    values track the batch solution more closely.
    """

    input_dim: int
    output_dim: int
    hidden_count: int
    activation: str = "logistic"
    weight_init_low: float = -1.0
    weight_init_high: float = 1.0
    bias_init_low: float = 0.0
    bias_init_high: float = 1.0
    online_init_scale: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.input_dim < 1 or self.output_dim < 1:
            raise ConfigError("input_dim and output_dim must be positive")
        if self.hidden_count < 1:
            raise ConfigError("hidden_count must be at least 1")
        # Each chain is False when a value in it is NaN or +-inf.
        if not -np.inf < self.weight_init_low < self.weight_init_high < np.inf:
            raise ConfigError("weight init bounds must be finite, low below high")
        if not -np.inf < self.bias_init_low <= self.bias_init_high < np.inf:
            raise ConfigError("bias init bounds must be finite, low not above high")
        if not 0 < self.online_init_scale < np.inf:
            raise ConfigError("online_init_scale must be finite and positive")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(
                f"unknown activation {self.activation!r}; "
                f"choose from {sorted(ACTIVATIONS)}"
            )
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


@dataclass
class ElmState:
    """Weights of one network plus the recursive-solver accumulator.

    ``hidden_weights`` and ``hidden_bias`` are drawn once and never
    change afterwards (the arrays are marked read-only). ``inv_gram``
    tracks the inverse of the regularised hidden-feature Gram matrix
    used by ``update_online``.
    """

    hidden_weights: np.ndarray  # (hidden_count, input_dim), read-only
    hidden_bias: np.ndarray  # (hidden_count,), read-only
    readout: np.ndarray  # (output_dim, hidden_count)
    inv_gram: np.ndarray  # (hidden_count, hidden_count)
    samples_seen: int
    activation: str

    @property
    def input_dim(self) -> int:
        return self.hidden_weights.shape[1]

    @property
    def output_dim(self) -> int:
        return self.readout.shape[0]

    @property
    def hidden_count(self) -> int:
        return self.hidden_weights.shape[0]


def init_elm(config: ElmConfig) -> ElmState:
    """Draw the fixed hidden layer and start with a zero readout.

    The same seed always produces bit-identical weights. The readout is
    all zeros and ``inv_gram`` starts at ``I / online_init_scale``.
    """
    rng = np.random.default_rng(config.seed)
    weights = rng.uniform(
        config.weight_init_low,
        config.weight_init_high,
        (config.hidden_count, config.input_dim),
    )
    bias = rng.uniform(
        config.bias_init_low, config.bias_init_high, config.hidden_count
    )
    weights.setflags(write=False)
    bias.setflags(write=False)
    readout = np.zeros((config.output_dim, config.hidden_count))
    inv_gram = np.eye(config.hidden_count) / config.online_init_scale
    return ElmState(
        hidden_weights=weights,
        hidden_bias=bias,
        readout=readout,
        inv_gram=inv_gram,
        samples_seen=0,
        activation=config.activation,
    )


class Workspace:
    """Buffers the kernels write into, sized for one network's shape."""

    def __init__(self, state: ElmState):
        p, m = state.output_dim, state.hidden_count
        self.h = np.empty(m)  # forward_into's output: hidden response
        self.forecast = np.empty(p)  # and forecast
        self.ph = np.empty(m)  # rls_update's buffers: P h
        self.gain = np.empty(m)
        self.readout_step = np.empty((p, m))  # the two rank-one products
        self.gram_step = np.empty((m, m))
        # Column and row views of the rank-one products' factors.
        self.gain_row = self.gain[None, :]
        self.ph_col = self.ph[:, None]
        self.ph_row = self.ph[None, :]


def hidden_into(state: ElmState, x: np.ndarray, out: np.ndarray) -> None:
    """Write h = g(Wx + b) into ``out``: for one input, ``x`` of length
    ``input_dim`` and ``out`` of length ``hidden_count``; for a stack of
    inputs, ``x`` (k, ``input_dim``) and ``out`` (k, ``hidden_count``), one
    response per row. The rows of ``x`` may lie apart in memory, but each
    row, and ``out``, must be contiguous.

    This is the one hidden-layer code path. ``matmul`` treats each input
    as an (``input_dim``, 1) matrix and runs one BLAS gemv per stack item,
    with the arguments ``W @ x`` passes for one input, so every response is
    the same bits whether computed alone or in a stack. (``np.dot`` on a
    stack would run one gemm, which may round differently.) The bias and
    the activation are elementwise, on contiguous data either way. Run it
    under ``saturating()``.
    """
    np.matmul(state.hidden_weights, x[..., None], out=out[..., None])
    out += state.hidden_bias
    ACTIVATIONS[state.activation](out)


def forecast_into(state: ElmState, h: np.ndarray, out: np.ndarray) -> None:
    """Write the forecast ``readout @ h`` into ``out``.

    ``np.dot`` of a matrix and a vector is the BLAS gemv that ``matmul``
    runs, with the same arguments, so the values equal ``readout @ h``; it
    costs less per call than the ``matmul`` ufunc.
    """
    np.dot(state.readout, h, out=out)


def forward_into(state: ElmState, x: np.ndarray, work: Workspace) -> None:
    """Write h = g(Wx + b) into ``work.h`` and ``readout @ h`` into
    ``work.forecast``; ``x`` is a float64 vector of length ``input_dim``.
    Run it under ``saturating()``."""
    hidden_into(state, x, work.h)
    forecast_into(state, work.h, work.forecast)


def _checked_input(state: ElmState, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (state.input_dim,):
        raise DimensionError(
            f"input has shape {x.shape}, expected ({state.input_dim},)"
        )
    return x


def forward(state: ElmState, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hidden response h = g(Wx + b) and forecast ``readout @ h`` for one
    input vector (frame and velocity concatenated), as fresh arrays."""
    x = _checked_input(state, x)
    work = Workspace(state)
    with saturating():
        forward_into(state, x, work)
    return work.h, work.forecast


def predict(state: ElmState, frame: np.ndarray, velocity: np.ndarray) -> np.ndarray:
    """Forecast the next sensor frame from the current frame and velocity.

    Returns the raw linear readout; values are not clipped to the pixel
    range.
    """
    frame = np.asarray(frame, dtype=float)
    velocity = np.asarray(velocity, dtype=float)
    if frame.shape != (state.output_dim,):
        raise DimensionError(
            f"frame has shape {frame.shape}, expected ({state.output_dim},)"
        )
    if velocity.shape != (state.input_dim - state.output_dim,):
        raise DimensionError(
            f"velocity has shape {velocity.shape}, "
            f"expected ({state.input_dim - state.output_dim},)"
        )
    return forward(state, np.concatenate([frame, velocity]))[1]


def fit_batch(
    state: ElmState, pairs: Sequence[tuple[np.ndarray, np.ndarray]]
) -> ElmState:
    """Solve the readout over all pairs at once.

    Builds the hidden-layer matrix H with one column per sample and sets
    the readout to ``Y @ pinv(H)``, the minimum-norm least-squares
    solution of ``readout @ H = Y``; singular values below
    ``max(rows, cols) * machine_epsilon * largest_singular_value`` count
    as zero. Hidden weights, bias and the online accumulator are
    untouched.
    """
    if len(pairs) == 0:
        raise ValueError("fit_batch requires at least one training pair")
    xs = np.column_stack([np.asarray(x, dtype=float) for x, _ in pairs])
    ys = np.column_stack([np.asarray(y, dtype=float) for _, y in pairs])
    if xs.shape[0] != state.input_dim:
        raise DimensionError(
            f"training inputs have length {xs.shape[0]}, "
            f"expected {state.input_dim}"
        )
    if ys.shape[0] != state.output_dim:
        raise DimensionError(
            f"training targets have length {ys.shape[0]}, "
            f"expected {state.output_dim}"
        )
    h = state.hidden_weights @ xs + state.hidden_bias[:, None]
    with saturating():
        ACTIVATIONS[state.activation](h)
    readout = ys @ np.linalg.pinv(h)
    return replace(state, readout=readout, samples_seen=len(pairs))


def update_online(
    state: ElmState, pair: tuple[np.ndarray, np.ndarray]
) -> ElmState:
    """Fold one sample into a copy of the readout with recursive least
    squares (see ``rls_update``); ``state`` itself is left unchanged."""
    x, y = pair
    x = _checked_input(state, x)
    y = np.asarray(y, dtype=float)
    if y.shape != (state.output_dim,):
        raise DimensionError(
            f"target has shape {y.shape}, expected ({state.output_dim},)"
        )
    updated = replace(
        state, readout=state.readout.copy(), inv_gram=state.inv_gram.copy()
    )
    work = Workspace(state)
    with saturating():
        forward_into(updated, x, work)
        rls_update(updated, work, y - work.forecast)
    return updated


def rls_update(
    state: ElmState, work: Workspace, residual: np.ndarray, h: np.ndarray | None = None
) -> None:
    """Fold one sample into ``state`` in place with recursive least squares.

    ``h`` is the hidden response to the sample's input, ``work.h`` (where
    ``forward_into`` writes it) when not given, and ``residual`` is the
    sample's target minus the forecast ``readout @ h``. ``h`` is only
    read, so a row of a stack of responses serves without a copy. With P
    the inverse-Gram accumulator: ``k = P h / (1 + h' P h)``,
    ``readout += residual k'`` and ``P -= (P h)(P h)' / (1 + h' P h)``.
    P stays exactly symmetric, bit for bit, if it starts so. A
    denominator that is not finite and positive raises ``NumericError``
    before the state is changed.
    """
    if h is None:
        h = work.h
    ph = work.ph
    # np.dot runs the BLAS gemv and dot that matmul does for these
    # operands, so the values are the same, at less cost per call.
    np.dot(state.inv_gram, h, out=ph)
    denom = 1.0 + np.dot(h, ph)
    if not math.isfinite(denom) or denom <= 0.0:
        raise NumericError(
            f"recursive update denominator is {denom!r}; accumulator degenerate"
        )
    np.divide(ph, denom, out=work.gain)
    # Both rank-one products are (n, 1) @ (1, m) matrix products, which BLAS
    # forms about twice as fast as np.outer. Each entry is still one rounded
    # multiply with nothing summed, so the values equal np.outer's; at most
    # the sign of a zero product differs, and adding a zero of either sign
    # to an entry of R or P can change only the sign of a zero entry, never
    # a value.
    np.dot(residual[:, None], work.gain_row, out=work.readout_step)
    state.readout += work.readout_step
    # P - (P h)(P h)' / denom, each step elementwise and in the order of the
    # expression with fresh arrays. Entries (i, j) and (j, i) of the step
    # are ph_i ph_j / denom and ph_j ph_i / denom, equal because
    # multiplication commutes. Only a zero's sign might differ between them,
    # and that shows in P - step only where P holds -0, which I / delta does
    # not and no subtraction creates. So a symmetric P stays symmetric bit
    # for bit, and ``load_model`` rejects one that is not. Re-symmetrising
    # would change nothing: for a symmetric P short of overflow,
    # (P + P') / 2 = 2P / 2 = P exactly.
    step = work.gram_step
    np.dot(work.ph_col, work.ph_row, out=step)
    step /= denom
    state.inv_gram -= step
    state.samples_seen += 1


def prediction_error(predicted: np.ndarray, actual: np.ndarray) -> float:
    """Mean-square discrepancy per sensor component."""
    predicted = np.asarray(predicted, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if predicted.ndim != 1 or predicted.shape != actual.shape:
        raise DimensionError(
            f"length mismatch: {predicted.shape} vs {actual.shape}"
        )
    if predicted.size == 0:
        raise DimensionError("vectors must be non-empty")
    diff = predicted - actual
    return float(diff @ diff) / predicted.size


def save_model(state: ElmState, path: str | Path) -> None:
    """Write the whole learner state to a flat binary file.

    Layout: the magic ``ELM2``; input, output and hidden dimensions and
    ``samples_seen`` as little-endian uint64; the activation name in
    ASCII, NUL-padded to 16 bytes. Then hidden weights, bias, readout and
    the inverse-Gram accumulator P as little-endian float64, row-major.
    """
    header = _HEADER.pack(
        MODEL_MAGIC, state.input_dim, state.output_dim, state.hidden_count,
        state.samples_seen, state.activation.encode("ascii"),
    )
    arrays = (state.hidden_weights, state.hidden_bias, state.readout, state.inv_gram)
    body = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)
    Path(path).write_bytes(header + body)


def load_model(path: str | Path) -> ElmState:
    """Read a model written by ``save_model``; the file holds every field.

    Malformed bytes raise ``ParseError`` at the offending offset: a bad
    magic (an ``ELM1`` file among them) at 0, an unknown activation name
    at its field, a P that is not symmetric bit for bit at P's field
    (``rls_update`` keeps P symmetric only if it starts so), bytes after
    the payload at the payload's end.
    """
    data = Path(path).read_bytes()
    if data[:4] != MODEL_MAGIC:
        raise ParseError("bad model magic", offset=0)
    if len(data) < _HEADER.size:
        raise ParseError("truncated model header", offset=len(data))
    _, n, p, hidden, samples_seen, name = _HEADER.unpack_from(data)
    if n < 1 or p < 1 or hidden < 1:
        raise ParseError("model dimensions must be positive", offset=4)
    activation = name.rstrip(b"\0").decode("ascii", "replace")
    if activation not in ACTIVATIONS:
        raise ParseError(f"unknown activation {activation!r}",
                         offset=_HEADER.size - _NAME_WIDTH)
    # Hidden weights, bias, readout and P, in file order.
    shapes = [(hidden, n), (hidden,), (p, hidden), (hidden, hidden)]
    counts = [math.prod(shape) for shape in shapes]
    expected = _HEADER.size + 8 * sum(counts)
    if len(data) < expected:
        raise ParseError("truncated model payload", offset=len(data))
    if len(data) > expected:
        raise ParseError("trailing bytes after model payload", offset=expected)
    flat = np.frombuffer(data, "<f8", sum(counts), _HEADER.size)
    # Each array gets its own aligned copy, as a freshly drawn state has.
    weights, bias, readout, inv_gram = (
        part.reshape(shape).copy()
        for part, shape in zip(np.split(flat, np.cumsum(counts)[:-1]), shapes)
    )
    if inv_gram.tobytes() != inv_gram.T.tobytes():
        raise ParseError("accumulator P is not symmetric",
                         offset=expected - 8 * counts[3])
    weights.setflags(write=False)
    bias.setflags(write=False)
    return ElmState(
        hidden_weights=weights,
        hidden_bias=bias,
        readout=readout,
        inv_gram=inv_gram,
        samples_seen=samples_seen,
        activation=activation,
    )
