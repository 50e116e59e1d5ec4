"""The environment: a static grayscale image observed through a movable
camera window, with discrete one-pixel motor commands and additive
sensor noise. Includes PGM (P2/P5) reading and writing plus a seeded
synthetic image so nothing external is required.

A synthetic scene is filled only where it is read, and each pixel has
the bits it would have if the whole scene were summed and normalised
at once:

- Every pixel is computed by elementwise operations (``_raw_field``:
  add, multiply, add, libm ``sin``, divide and add per component, then
  ``-= low`` and ``/= high - low``) on its own operands, so its bits do
  not depend on which other pixels share its buffer: a tile, a list of
  candidates and the whole scene give it the same value.
- ``low`` and ``high`` are the least and greatest raw value F over every
  pixel. ``_extremes`` finds them from an approximation G, one matrix
  product, with |G - F| <= E at every pixel. Every angle that F and G
  round has magnitude below 2π (64 √2 + 1) < 576, each of the 3 + 3
  roundings of it is off by at most 576 · 2^-53, and sin and cos are
  1-Lipschitz; sin, cos, the divisions, the products and the sums add
  a few units of 2^-53 per term. With A = Σ_k 1/d_k, which bounds |F|,
  that bounds E by (3456 + 4 K + 8) · 2^-53 · A for K components: about
  4e-13 · A at K = 24 (the default scenes' largest |G - F| is near
  1e-13, with A about 13).
- Every pixel q whose G is within the margin τ = 1e-6 · A of the
  greatest G is a candidate. A pixel p where F is greatest is one when
  τ >= 2 E: G(p) >= F(p) - E >= F(p*) - E >= G(p*) - 2 E, where p* has
  the greatest G. So the greatest F among the candidates is ``high``;
  the least, ``low``, likewise. τ >= 2 E holds for K below 10^9.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ParseError


class MotorCommand(Enum):
    """The five discrete actions. Values double as CSV codes."""

    UP = "U"
    DOWN = "D"
    LEFT = "L"
    RIGHT = "R"
    STAY = "S"


COMMANDS: tuple[MotorCommand, ...] = tuple(MotorCommand)

# Screen convention: y grows downward, matching image row order.
_VELOCITIES: dict[MotorCommand, tuple[int, int]] = {
    MotorCommand.UP: (0, -1),
    MotorCommand.DOWN: (0, 1),
    MotorCommand.LEFT: (-1, 0),
    MotorCommand.RIGHT: (1, 0),
    MotorCommand.STAY: (0, 0),
}


def command_to_velocity(cmd: MotorCommand) -> tuple[int, int]:
    """Map a command to its (vx, vy) pixel velocity."""
    return _VELOCITIES[cmd]


# Side of the square tiles a synthetic scene is filled in.
_TILE = 32


class WorldImage:
    """Immutable grayscale image with intensities in [0, 1].

    ``pixels`` is the whole image, read-only. A scene from
    ``synthetic_image`` starts unfilled and is filled a tile of
    ``_TILE`` x ``_TILE`` pixels at a time: ``ensure`` fills the tiles a
    rectangle touches, and ``pixels`` fills every tile first. A pixel has
    the same bits whenever, and through whichever call, its tile is
    filled. Every other image is complete from the start.
    """

    __slots__ = ("_pixels", "_tiles")

    def __init__(self, pixels: np.ndarray):
        # A private copy, so that later writes to the caller's array
        # cannot reach the image.
        self._own(np.array(pixels, dtype=float))

    @classmethod
    def _adopt(cls, pixels: np.ndarray) -> WorldImage:
        """Wrap a fresh float64 array that no one else will write to,
        without copying it; the checks are the same."""
        image = object.__new__(cls)
        image._own(pixels)
        return image

    @classmethod
    def _tiled(cls, tiles: _Tiles) -> WorldImage:
        """Wrap a synthetic scene that fills itself as it is read."""
        image = object.__new__(cls)
        image._pixels = tiles.pixels
        image._tiles = tiles
        return image

    def _own(self, pixels: np.ndarray) -> None:
        if pixels.ndim != 2 or pixels.size == 0:
            raise ConfigError("image must be a non-empty 2-D array")
        # NaN and +-inf carry through min and max, so two scans check both
        # finiteness and range.
        low, high = pixels.min(), pixels.max()
        if not (np.isfinite(low) and np.isfinite(high)):
            raise ConfigError("image has non-finite pixels")
        if low < 0.0 or high > 1.0:
            raise ConfigError("image intensities must lie in [0, 1]")
        pixels.setflags(write=False)
        self._pixels = pixels
        self._tiles = None

    @property
    def pixels(self) -> np.ndarray:
        return self.ensure(0, 0, self.height, self.width)

    def ensure(self, top: int, left: int, height: int, width: int) -> np.ndarray:
        """Fill the part of the image inside the ``height`` x ``width``
        rectangle at (``left``, ``top``), clipped to the image, and return
        the read-only pixel buffer. The buffer is the same array on every
        call; only the rectangles ensured so far are sure to be filled."""
        if self._tiles is not None:
            self._tiles.fill(top, left, height, width)
        return self._pixels

    @property
    def width(self) -> int:
        return self._pixels.shape[1]

    @property
    def height(self) -> int:
        return self._pixels.shape[0]


@dataclass(frozen=True)
class CameraState:
    """Top-left corner and size of the camera window, in pixels."""

    left: int
    top: int
    width: int = 32
    height: int = 32

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ConfigError("camera window must have positive size")
        if self.left < 0 or self.top < 0:
            raise ConfigError("camera corner must be non-negative")

    @property
    def pixel_count(self) -> int:
        return self.width * self.height


@dataclass(frozen=True)
class NoiseModel:
    """Additive white Gaussian sensor noise, in intensity units."""

    sigma: float = 0.01

    def __post_init__(self):
        if not 0 <= self.sigma < np.inf:  # False for NaN as well
            raise ConfigError("noise sigma must be finite and non-negative")


def _check_camera(world: WorldImage, cam: CameraState) -> None:
    if cam.left + cam.width > world.width or cam.top + cam.height > world.height:
        raise ConfigError(
            f"camera window {cam.width}x{cam.height} at ({cam.left}, {cam.top}) "
            f"does not fit a {world.width}x{world.height} image"
        )


def apply_motor(
    world: WorldImage, cam: CameraState, cmd: MotorCommand
) -> CameraState:
    """Translate the window by the command velocity, clamped to the image.

    Hitting a border absorbs the motion; the window always stays fully
    inside the image.
    """
    _check_camera(world, cam)
    vx, vy = _VELOCITIES[cmd]
    left = min(max(cam.left + vx, 0), world.width - cam.width)
    top = min(max(cam.top + vy, 0), world.height - cam.height)
    return CameraState(left=left, top=top, width=cam.width, height=cam.height)


def _sense(window: np.ndarray, noise: np.ndarray, out: np.ndarray) -> None:
    """Write ``noise + window``, clamped to [0, 1], into ``out``; all three
    have one shape, a window's (height, width) or a stack of windows, and
    ``out`` may be ``noise``. Every element is its own sum and clamp.

    IEEE addition commutes, so each sum rounds as ``window + noise`` does.
    ``maximum`` then ``minimum`` clamp as ``np.clip`` does, with less call
    overhead; they could disagree with it only on the sign of a zero, and
    a -0 sum needs a -0 pixel and a -0 noise draw.
    """
    np.add(noise, window, out=out)
    np.maximum(out, 0.0, out=out)
    np.minimum(out, 1.0, out=out)


def observe(
    world: WorldImage,
    cam: CameraState,
    noise: NoiseModel,
    rng: np.random.Generator,
) -> np.ndarray:
    """Read the window contents row-major, with optional sensor noise.

    Gaussian noise of the configured sigma is added per pixel and the
    result is clamped back to [0, 1]. With sigma 0 the frame is the
    exact window contents.
    """
    _check_camera(world, cam)
    pixels = world.ensure(cam.top, cam.left, cam.height, cam.width)
    window = pixels[cam.top : cam.top + cam.height, cam.left : cam.left + cam.width]
    if noise.sigma > 0.0:
        frame = rng.normal(0.0, noise.sigma, cam.pixel_count)
        noisy = frame.reshape(cam.height, cam.width)  # a view of frame
        _sense(window, noisy, noisy)
        return frame
    return window.flatten()


_WHITESPACE = frozenset(b" \t\n\r\x0b\x0c")
_COMMENT = ord("#")


def _next_token(data: bytes, pos: int) -> tuple[bytes, int, int]:
    """Skip whitespace/comments; return (token, token_start, pos_after)."""
    n = len(data)
    while pos < n:
        byte = data[pos]
        if byte in _WHITESPACE:
            pos += 1
        elif byte == _COMMENT:
            newline = data.find(b"\n", pos)
            pos = n if newline < 0 else newline + 1
        else:
            break
    if pos >= n:
        raise ParseError("unexpected end of input", offset=pos)
    start = pos
    while pos < n and data[pos] not in _WHITESPACE and data[pos] != _COMMENT:
        pos += 1
    return data[start:pos], start, pos


def _int_token(data: bytes, pos: int, what: str) -> tuple[int, int]:
    token, start, pos = _next_token(data, pos)
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"invalid {what} {token!r}", offset=start) from None
    return value, pos


# The P2 raster is parsed in blocks of about this many bytes, each ending on
# a separator, so that the per-byte temporaries stay small and cache-resident.
_RASTER_BLOCK = 1 << 16
_IS_WHITESPACE = np.zeros(256, dtype=bool)
_IS_WHITESPACE[list(_WHITESPACE)] = True
_SEPARATOR = re.compile(rb"[ \t\n\r\x0b\x0c#]")
_SIGNIFICANT_DIGITS = 5  # maxval <= 65535 has at most five


def _p2_raster(
    data: bytes, pos: int, count: int, maxval: int, out: np.ndarray | None
) -> int:
    """Parse up to ``count`` P2 samples starting at ``data[pos]``.

    Writes them to ``out`` unless it is None and returns how many were
    found. Raises ParseError at the first sample, in file order, that is
    not a digit run or exceeds ``maxval``; bytes after the ``count``-th
    sample are not looked at.
    """
    n = len(data)
    found = 0
    start = pos
    while start < n and found < count:
        separator = _SEPARATOR.search(data, start + _RASTER_BLOCK)
        end = n if separator is None else separator.start()
        # A comment runs from '#' to the end of its line; a block that
        # ends inside one grows to hold it.
        comments = []
        hash_at = data.find(b"#", start, end)
        while hash_at >= 0:
            newline = data.find(b"\n", hash_at)
            stop = n if newline < 0 else newline
            comments.append((hash_at - start, stop - start))
            end = max(end, stop)
            hash_at = data.find(b"#", stop, end)
        block = np.frombuffer(data, dtype=np.uint8, count=end - start, offset=start)
        if comments:
            block = block.copy()
            for first, stop in comments:
                block[first:stop] = ord(" ")

        whitespace = _IS_WHITESPACE[block]
        digit = block - ord("0")  # uint8: non-digits wrap to 10 or more
        # Tokens are maximal runs of non-whitespace: [starts[i], ends[i]).
        edges = np.flatnonzero(np.diff(~whitespace, prepend=False, append=False))
        starts, ends = edges[0::2], edges[1::2]
        if starts.size > count - found:
            starts, ends = starts[: count - found], ends[: count - found]
        if starts.size == 0:
            start = end
            continue
        valid = ((digit < 10) | whitespace)[: ends[-1]]
        bad_token = starts.size
        if not valid.all():
            first_bad = np.argmin(valid)
            bad_token = int(np.searchsorted(starts, first_bad, side="right")) - 1

        # Value of each token from its last five digits; a nonzero digit
        # before those makes it too large for any maxval. Indices that fall
        # before a short token's start are masked, and stay inside the
        # block, which is longer than its longest token.
        lengths = ends - starts
        values = digit[ends - 1].astype(float)
        for place in range(1, min(_SIGNIFICANT_DIGITS, int(lengths.max()))):
            values += np.where(lengths > place, digit[ends - 1 - place], 0) * 10.0**place
        long_tokens = np.flatnonzero(lengths > _SIGNIFICANT_DIGITS)
        if long_tokens.size:
            heads = np.empty(2 * long_tokens.size, dtype=np.intp)
            heads[0::2] = starts[long_tokens]
            heads[1::2] = ends[long_tokens] - _SIGNIFICANT_DIGITS
            nonzero = (digit != 0) & (digit < 10)
            values[long_tokens[np.logical_or.reduceat(nonzero, heads)[0::2]]] = np.inf

        over = np.flatnonzero(values[:bad_token] > maxval)
        if over.size:
            offset = start + int(starts[over[0]])
            token = _next_token(data, offset)[0]
            raise ParseError(
                f"sample value {token.lstrip(b'0').decode()} exceeds maxval",
                offset=offset,
            )
        if bad_token < starts.size:
            offset = start + int(starts[bad_token])
            token = _next_token(data, offset)[0]
            raise ParseError(f"invalid sample {token!r}", offset=offset)
        if out is not None:
            out[found : found + starts.size] = values
        found += starts.size
        start = end
    return found


def load_image(data: bytes) -> WorldImage:
    """Parse a PGM image (binary P5 or ASCII P2) into a WorldImage.

    Sample value v is mapped to v / maxval. Raises ParseError with the
    byte offset of the problem for malformed input.

    A P2 raster is width * height samples, each a run of ASCII digits
    (leading zeros allowed), separated by any mix of the six whitespace
    bytes (space, tab, LF, CR, VT, FF) and ``#`` comments, which run to
    the end of their line and may touch a sample on either side. Signs,
    underscores and every other byte are errors. Bytes after the last
    sample are ignored. In both formats, error offsets point at the first
    byte of the bad sample; a raster with too few samples is reported at
    the end of the input.
    """
    magic, magic_start, pos = _next_token(data, 0)
    if magic not in (b"P2", b"P5"):
        raise ParseError(f"unsupported PNM magic {magic!r}", offset=magic_start)
    width, pos = _int_token(data, pos, "width")
    height, pos = _int_token(data, pos, "height")
    if width < 1 or height < 1:
        raise ParseError("image dimensions must be positive", offset=magic_start)
    maxval, maxval_end = _int_token(data, pos, "maxval")
    if maxval < 1 or maxval > 65535:
        raise ParseError(f"maxval {maxval} out of range 1..65535", offset=pos)
    pos = maxval_end
    count = width * height
    if magic == b"P5":
        if pos >= len(data) or data[pos] not in _WHITESPACE:
            raise ParseError("missing raster separator after maxval", offset=pos)
        pos += 1
        sample_bytes = 1 if maxval < 256 else 2
        need = count * sample_bytes
        if len(data) - pos < need:
            raise ParseError("truncated pixel payload", offset=len(data))
        raw = data[pos : pos + need]
        if sample_bytes == 1:
            values = np.frombuffer(raw, dtype=np.uint8).astype(float)
        else:
            values = np.frombuffer(raw, dtype=">u2").astype(float)
        if values.max(initial=0.0) > maxval:
            first = int(np.argmax(values > maxval))
            raise ParseError(
                "sample value exceeds maxval", offset=pos + first * sample_bytes
            )
    else:
        # Every sample but the last needs a separator after it. A raster
        # too short for count samples is still checked for a bad sample
        # before its truncation is reported, but nothing is stored.
        values = np.empty(count) if len(data) - pos >= 2 * count - 1 else None
        if _p2_raster(data, pos, count, maxval, values) < count:
            raise ParseError("truncated pixel payload", offset=len(data))
    values /= maxval
    return WorldImage._adopt(values.reshape(height, width))


def quantize(values: np.ndarray) -> np.ndarray:
    """Clamp intensities to [0, 1] and quantize round-half-up to 0..255."""
    clipped = np.clip(np.asarray(values, dtype=float), 0.0, 1.0)
    return np.floor(clipped * 255 + 0.5).astype(np.uint8)


def to_pgm_p2(image: WorldImage) -> bytes:
    """Serialise to ASCII PGM with maxval 255, one image row per line."""
    q = quantize(image.pixels)
    lines = [b"P2", f"{image.width} {image.height}".encode(), b"255"]
    lines.extend(b" ".join(str(v).encode() for v in row) for row in q)
    return b"\n".join(lines) + b"\n"


# Rows of the approximate scene ``_extremes`` holds at a time (256 KB at
# a width of 512).
_EXTREME_ROWS = 64
# ``_extremes``' margin τ over A, the sum of the components' amplitudes.
_MARGIN = 1e-6


class _Waves(NamedTuple):
    """The synthetic scene's K components: fy v over the rows (K, height),
    fx u over the columns (K, width), and each one's phase and amplitude
    divisor (K,)."""

    fy_v: np.ndarray
    fx_u: np.ndarray
    phase: np.ndarray
    divisor: np.ndarray


def _waves(width: int, height: int, seed: int, components: int) -> _Waves:
    """Draw the synthetic scene's components."""
    rng = np.random.default_rng(seed)
    u = (np.arange(width) + 0.5) / max(width, height)
    v = (np.arange(height) + 0.5) / max(width, height)
    fy_v, fx_u, phases, divisors = [], [], [], []
    f_low, f_high = 1.5, 64.0
    for k in range(components):
        freq = f_low * (f_high / f_low) ** (k / max(components - 1, 1))
        angle = rng.uniform(0.0, 2.0 * np.pi)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        fx = freq * np.cos(angle)
        fy = freq * np.sin(angle)
        fy_v.append(fy * v)
        fx_u.append(fx * u)
        phases.append(phase)
        divisors.append(freq**0.3)
    return _Waves(np.array(fy_v).reshape(components, height),
                  np.array(fx_u).reshape(components, width),
                  np.array(phases), np.array(divisors))


def _raw_field(waves: _Waves, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The synthetic scene before it is normalised, at the pixels whose
    row and column indices ``rows`` and ``cols`` give, broadcast together.

    Each pixel goes through the same elementwise operations on the same
    operands, in the same order over the components, whatever other
    pixels are computed with it and whatever the shape of the buffer.
    """
    shape = np.broadcast_shapes(rows.shape, cols.shape)
    field = np.zeros(shape)
    term = np.empty(shape)
    for fy_v, fx_u, phase, divisor in zip(*waves):
        # sin(2π (fx u + fy v) + phase) / freq^0.3, one operation at a
        # time in one buffer; IEEE addition commutes, so fy v + fx u
        # rounds exactly as fx u + fy v.
        np.add(fy_v[rows], fx_u[cols], out=term)
        term *= 2.0 * np.pi
        term += phase
        np.sin(term, out=term)
        term /= divisor
        field += term
    return field


def _extremes(waves: _Waves, height: int, width: int) -> tuple[float, float]:
    """The least and the greatest value of ``_raw_field`` over the whole
    scene, exactly, without computing it at every pixel.

    By the angle-addition identity the field is the matrix product of a
    (height, 2K) matrix, sin A and cos A over the divisor for each row's
    angle A = 2π fy v + phase, and a (2K, width) one, cos B and sin B for
    each column's angle B = 2π fx u. That product is computed a block of
    rows at a time; every pixel within ``margin`` of the running greatest
    or least product is a candidate, and ``_raw_field`` gives the
    candidates' exact values, whose least and greatest are returned.
    See the module docstring for why they are exact.
    """
    margin = _MARGIN * np.sum(1.0 / waves.divisor)
    row_angle = 2.0 * np.pi * waves.fy_v + waves.phase[:, None]
    col_angle = 2.0 * np.pi * waves.fx_u
    left = np.concatenate([np.sin(row_angle), np.cos(row_angle)]).T
    left /= np.tile(waves.divisor, 2)
    right = np.concatenate([np.cos(col_angle), np.sin(col_angle)])
    high, low = -np.inf, np.inf
    candidates = []  # each block's (flat indices, approximate values)
    block = np.empty((min(_EXTREME_ROWS, height), width))
    for top in range(0, height, _EXTREME_ROWS):
        rows = block[: min(_EXTREME_ROWS, height - top)]
        np.matmul(left[top : top + _EXTREME_ROWS], right, out=rows)
        approx = rows.reshape(-1)
        high, low = max(high, approx.max()), min(low, approx.min())
        near = np.flatnonzero((approx >= high - margin) | (approx <= low + margin))
        candidates.append((near + top * width, approx[near]))
    index = np.concatenate([i for i, _ in candidates])
    approx = np.concatenate([a for _, a in candidates])
    index = index[(approx >= high - margin) | (approx <= low + margin)]
    exact = _raw_field(waves, *np.divmod(index, width))
    return exact.min(), exact.max()


class _Tiles:
    """A synthetic scene's pixel buffer, filled a tile at a time.

    ``filled`` marks the tiles done. A tile's pixels are its part of
    ``_raw_field`` then ``-= low`` and ``/= span``: elementwise
    operations, so each pixel has the bits of a whole-scene computation.
    Rounding is monotonic, so a raw value x between ``low`` and the
    greatest has x - low <= span once rounded, and a tile needs no range
    check: every pixel lies in [0, 1].
    Each window is ensured before it is read: an RM run asks for its
    block's windows at the block's start, and a reactive run for its next
    window at each step, so the runs of a lockstep group interleave their
    checks. ``done`` holds the tile ranges found all filled; tiles are
    never unfilled, so a range asked for again is checked by one lookup.
    A check that finds every tile of a rectangle filled takes no lock;
    the filling is done under ``lock``, so two threads reading one scene
    never fill a tile twice.
    """

    def __init__(self, waves: _Waves, low: float, span: float,
                 height: int, width: int):
        self.waves, self.low, self.span = waves, low, span
        self.buffer = np.empty((height, width))
        self.pixels = self.buffer.view()
        self.pixels.setflags(write=False)
        self.filled = np.zeros((-(-height // _TILE), -(-width // _TILE)), dtype=bool)
        self.done = set()  # (r0, r1, c0, c1) tile ranges found all filled
        self.lock = threading.Lock()

    def fill(self, top: int, left: int, height: int, width: int) -> None:
        """Fill every tile the rectangle, clipped to the scene, touches."""
        rows, cols = self.buffer.shape
        bottom, right = min(top + height, rows), min(left + width, cols)
        top, left = max(top, 0), max(left, 0)
        if top >= bottom or left >= right:
            return
        r0, r1 = top // _TILE, -(-bottom // _TILE)
        c0, c1 = left // _TILE, -(-right // _TILE)
        key = (r0, r1, c0, c1)
        if key in self.done or self.filled[r0:r1, c0:c1].all():
            self.done.add(key)
            return
        with self.lock:
            # One fill per rectangle of unfilled tiles: from the first one
            # left, its run to the right, then the rows below unfilled
            # across that run.
            todo = ~self.filled[r0:r1, c0:c1]
            count_i, count_j = todo.shape
            while todo.any():
                i, j = divmod(int(todo.argmax()), count_j)
                b = j + 1
                while b < count_j and todo[i, b]:
                    b += 1
                e = i + 1
                while e < count_i and todo[e, j:b].all():
                    e += 1
                todo[i:e, j:b] = False
                y0, y1 = (r0 + i) * _TILE, min((r0 + e) * _TILE, rows)
                x0, x1 = (c0 + j) * _TILE, min((c0 + b) * _TILE, cols)
                values = _raw_field(self.waves, np.arange(y0, y1)[:, None],
                                    np.arange(x0, x1)[None, :])
                values -= self.low
                values /= self.span
                self.buffer[y0:y1, x0:x1] = values
                self.filled[r0 + i : r0 + e, c0 + j : c0 + b] = True


def synthetic_image(
    width: int = 512, height: int = 512, seed: int = 0, components: int = 24
) -> WorldImage:
    """Seeded test scene: sinusoids with a natural-image-like spectrum.

    Component frequencies are log-spaced from about one cycle per image
    up to a dozen-pixel wavelength, with amplitudes falling off as 1/f.
    The low frequencies make distinct regions distinguishable; the high
    ones make a one-pixel camera move visible against the sensor noise,
    like the texture of a photograph.

    The scene is the sum of the components normalised to [0, 1] by its
    least and greatest value. Those two come from ``_extremes``, which
    needs the sum at only a few pixels; every other pixel is computed
    when a read first needs its tile (``WorldImage.ensure``). Each pixel
    is the same bits as in a sum over the whole scene followed by
    ``-= low`` and ``/= high - low``: see the module docstring. A scene
    whose components sum to a constant is 0.5 everywhere.
    """
    if width < 1 or height < 1:
        raise ConfigError("synthetic image dimensions must be positive")
    waves = _waves(width, height, seed, components)
    low, high = _extremes(waves, height, width)
    if not high > low:
        return WorldImage._adopt(np.full((height, width), 0.5))
    return WorldImage._tiled(_Tiles(waves, low, high - low, height, width))
