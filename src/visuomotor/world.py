"""The environment: a static grayscale image observed through a movable
camera window, with discrete one-pixel motor commands and additive
sensor noise. Includes PGM (P2/P5) reading and writing plus a seeded
synthetic image so nothing external is required."""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

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


@dataclass(frozen=True)
class WorldImage:
    """Immutable grayscale image with intensities in [0, 1]."""

    pixels: np.ndarray  # (height, width) float64

    def __post_init__(self):
        # A private copy, so that later writes to the caller's array
        # cannot reach the image.
        self._own(np.array(self.pixels, dtype=float))

    @classmethod
    def _adopt(cls, pixels: np.ndarray) -> WorldImage:
        """Wrap a fresh float64 array that no one else will write to,
        without copying it; the checks are the same."""
        image = object.__new__(cls)
        image._own(pixels)
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
        object.__setattr__(self, "pixels", pixels)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


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


# Frames of sensor noise the closed loop draws in one call: two per step,
# 256 KB at a 32x32 camera.
NOISE_BLOCK_FRAMES = 32


def _sense(window: np.ndarray, noise: np.ndarray, out: np.ndarray) -> None:
    """Write ``noise + window``, clamped to [0, 1], into ``out``; all three
    have the window's (height, width) shape, and ``out`` may be ``noise``.

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
    window = world.pixels[cam.top : cam.top + cam.height, cam.left : cam.left + cam.width]
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


def quantize(values: np.ndarray, maxval: int = 255) -> np.ndarray:
    """Clamp intensities to [0, 1] and quantize round-half-up."""
    clipped = np.clip(np.asarray(values, dtype=float), 0.0, 1.0)
    return np.floor(clipped * maxval + 0.5).astype(np.uint16 if maxval > 255 else np.uint8)


def to_pgm_p2(image: WorldImage, maxval: int = 255) -> bytes:
    """Serialise to ASCII PGM, one image row per line."""
    if maxval < 1 or maxval > 65535:
        raise ConfigError("maxval must be in 1..65535")
    q = quantize(image.pixels, maxval)
    lines = [b"P2", f"{image.width} {image.height}".encode(), str(maxval).encode()]
    lines.extend(b" ".join(str(v).encode() for v in row) for row in q)
    return b"\n".join(lines) + b"\n"


def synthetic_image(
    width: int = 512, height: int = 512, seed: int = 0, components: int = 24
) -> WorldImage:
    """Seeded test scene: sinusoids with a natural-image-like spectrum.

    Component frequencies are log-spaced from about one cycle per image
    up to a dozen-pixel wavelength, with amplitudes falling off as 1/f.
    The low frequencies make distinct regions distinguishable; the high
    ones make a one-pixel camera move visible against the sensor noise,
    like the texture of a photograph.
    """
    if width < 1 or height < 1:
        raise ConfigError("synthetic image dimensions must be positive")
    rng = np.random.default_rng(seed)
    u = (np.arange(width) + 0.5) / max(width, height)
    v = (np.arange(height) + 0.5) / max(width, height)
    field = np.zeros((height, width))
    term = np.empty((height, width))
    f_low, f_high = 1.5, 64.0
    for k in range(components):
        freq = f_low * (f_high / f_low) ** (k / max(components - 1, 1))
        angle = rng.uniform(0.0, 2.0 * np.pi)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        fx = freq * np.cos(angle)
        fy = freq * np.sin(angle)
        # sin(2π (fx u + fy v) + phase) / freq^0.3, one operation at a time
        # in one buffer; IEEE addition commutes, so the outer sum
        # fy v + fx u rounds exactly as fx u + fy v.
        np.add.outer(fy * v, fx * u, out=term)
        term *= 2.0 * np.pi
        term += phase
        np.sin(term, out=term)
        term /= freq**0.3
        field += term
    low, high = field.min(), field.max()
    if high > low:
        field -= low
        field /= high - low
    else:
        field = np.full_like(field, 0.5)
    return WorldImage._adopt(field)
