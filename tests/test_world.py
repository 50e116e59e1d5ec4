"""Tests for the image world: PGM parsing, camera motion, observation."""

import concurrent.futures
import hashlib
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visuomotor import world
from visuomotor.errors import ConfigError, ParseError
from visuomotor.world import (
    COMMANDS,
    CameraState,
    MotorCommand,
    NoiseModel,
    WorldImage,
    apply_motor,
    command_to_velocity,
    load_image,
    observe,
    quantize,
    synthetic_image,
    to_pgm_p2,
)


def checkerboard(size=4):
    pixels = np.indices((size, size)).sum(axis=0) % 2
    return WorldImage(pixels.astype(float))


# ---------------------------------------------------------------------------
# PGM parsing


def test_p2_basic():
    image = load_image(b"P2\n2 2\n255\n0 255\n255 0\n")
    assert np.array_equal(image.pixels, [[0.0, 1.0], [1.0, 0.0]])


def test_p5_midgray():
    image = load_image(b"P5\n2 2\n255\n" + bytes([128] * 4))
    assert np.allclose(image.pixels, 128 / 255)
    assert image.pixels[0, 0] == pytest.approx(0.50196, abs=1e-5)


def test_p5_sixteen_bit_big_endian():
    payload = (65535).to_bytes(2, "big") + (0).to_bytes(2, "big")
    image = load_image(b"P5\n2 1\n65535\n" + payload)
    assert np.array_equal(image.pixels, [[1.0, 0.0]])


def test_comments_and_flexible_whitespace():
    image = load_image(b"P2 # format\n# a comment line\n 2\t2 # dims\n255\n0 255 255 0")
    assert np.array_equal(image.pixels, [[0.0, 1.0], [1.0, 0.0]])


def test_truncated_p5_payload():
    with pytest.raises(ParseError) as info:
        load_image(b"P5\n2 2\n255\n" + bytes([1, 2, 3]))
    assert "truncated" in str(info.value)


def test_truncated_p2_payload():
    # A raster of whitespace or comments alone holds no sample.
    for data in [b"P2\n2 2\n255\n0 255 255", b"P2\n1 1\n255\n \n",
                 b"P2\n1 1\n255\n#c\n"]:
        with pytest.raises(ParseError) as info:
            load_image(data)
        assert "truncated" in str(info.value)
        assert info.value.offset == len(data)


def test_bad_magic():
    with pytest.raises(ParseError) as info:
        load_image(b"P6\n1 1\n255\n\x00\x00\x00")
    assert info.value.offset == 0


def test_zero_maxval_rejected():
    with pytest.raises(ParseError):
        load_image(b"P2\n1 1\n0\n0\n")


def test_nonnumeric_header_rejected():
    with pytest.raises(ParseError):
        load_image(b"P2\nx 2\n255\n0 0\n")


def test_p2_sample_above_maxval_rejected():
    with pytest.raises(ParseError) as info:
        load_image(b"P2\n1 1\n10\n11\n")
    assert info.value.offset == 10  # the sample's first byte


@pytest.mark.parametrize("data, offset", [
    (b"P5\n2 1\n10\n\x00\x0b", 11),
    (b"P5\n3 1\n300\n\x00\x01\x00\x02\x01\x2d", 15),
])
def test_p5_sample_above_maxval_reported_at_its_first_byte(data, offset):
    with pytest.raises(ParseError) as info:
        load_image(data)
    assert "exceeds maxval" in str(info.value)
    assert info.value.offset == offset


def test_p2_round_trip_identity():
    rng = np.random.default_rng(7)
    original = WorldImage(rng.integers(0, 256, (9, 13)) / 255.0)
    reloaded = load_image(to_pgm_p2(original))
    assert np.array_equal(reloaded.pixels, original.pixels)


def reference_load_p2(data):
    """The per-token loop that the one-scan P2 parser replaced.

    Kept as the reference for the parser's behaviour, with one change: a
    sample above maxval is reported at its first byte, not the byte after.
    Python's int() also accepts signs and underscores, which the parser
    now rejects, so inputs for comparing the two must not contain them.
    """
    magic, _, pos = world._next_token(data, 0)
    assert magic == b"P2"
    width, pos = world._int_token(data, pos, "width")
    height, pos = world._int_token(data, pos, "height")
    maxval, pos = world._int_token(data, pos, "maxval")
    samples = np.empty(width * height)
    for i in range(width * height):
        start = world._next_token(data, pos)[1]
        value, pos = world._int_token(data, pos, "sample")
        if value < 0 or value > maxval:
            raise ParseError(f"sample value {value} exceeds maxval", offset=start)
        samples[i] = value
    return (samples / maxval).reshape(height, width)


def assert_parsers_agree(data):
    try:
        expected = reference_load_p2(data)
    except ParseError as exc:
        with pytest.raises(ParseError) as info:
            load_image(data)
        assert info.value.offset == exc.offset
    else:
        assert np.array_equal(load_image(data).pixels, expected)


# Runs of every whitespace byte, and comments that touch the tokens
# around them or hold '#' and non-ASCII bytes.
_SEPARATORS = [
    b" ", b"\t", b"\n", b"\r\n", b"\x0b", b"\x0c", b" \t\x0b\x0c\r\n  ",
    b"#\n", b"#c#\xff\n", b"  # x 1\n\t", b"\n#\n#\n",
]
# Bytes that int() rejects anywhere in a token: no digits, whitespace,
# comment marks, signs or underscores.
_JUNK = [bytes([b]) for b in range(256) if bytes([b]) not in
         b"0123456789 \t\n\r\x0b\x0c#+-_"]


@st.composite
def p2_files(draw):
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    maxval = draw(st.sampled_from([1, 9, 255, 1000, 65535]))
    count = width * height
    sample = st.builds(
        lambda zeros, value: b"0" * zeros + str(value).encode(),
        st.integers(0, 25),
        st.one_of(st.integers(0, maxval + 2), st.integers(0, 10**12)),
    )
    bad = st.builds(
        lambda head, junk: head + junk, st.sampled_from([b"", b"1", b"007"]),
        st.sampled_from([j + t for j in _JUNK for t in (b"", b"2")]),
    )
    tokens = draw(st.lists(
        st.tuples(st.sampled_from(_SEPARATORS), st.one_of(sample, sample, sample, bad)),
        min_size=max(count - 1, 0), max_size=count + 2,
    ))
    raster = b"".join(separator + token for separator, token in tokens)
    # Ends with nothing, a newline, a comment at EOF with no newline, or
    # junk, which both parsers ignore when enough samples precede it.
    raster += draw(st.sampled_from(
        [b"", b"\n", b" #", b"#tail"] + [b" " + j + b"7" for j in _JUNK[::17]]
    ))
    return f"P2\n{width} {height}\n{maxval}".encode() + raster


@settings(max_examples=300, deadline=None)
@given(data=p2_files())
def test_p2_parser_matches_reference_loop(data):
    assert_parsers_agree(data)


def test_p2_parser_matches_reference_on_a_long_commented_raster():
    rng = np.random.default_rng(11)
    samples = rng.integers(0, 256, (150, 200))
    rows = []
    for i, row in enumerate(samples):
        line = " \t ".join(f"{v:03d}" if i % 3 else str(v) for v in row).encode()
        rows.append(line + (b" # 7" * 20_000 + b"\n" if i == 40 else b"\r\n"))
    data = b"P2\n200 150\n255\n" + b"".join(rows)
    assert_parsers_agree(data)
    assert np.array_equal(load_image(data).pixels, samples / 255)


@settings(max_examples=200, deadline=None)
@given(
    header=st.sampled_from([
        b"P2\n3 2\n255\n", b"P2 2 2 65535 ", b"P2\n1 1\n1#c\n",
        b"P5\n3 2\n255\n", b"P5\n2 2\n65535\n", b"P5 1 1 1 ",
    ]),
    tail=st.one_of(
        st.binary(max_size=40),
        st.text(alphabet="0123456789 \t\n#x+-_", max_size=40).map(str.encode),
    ),
)
def test_bytes_after_valid_header_parse_or_raise_parse_error(header, tail):
    try:
        image = load_image(header + tail)
    except ParseError:
        return
    assert isinstance(image, WorldImage)


@pytest.mark.parametrize("token", [b"+5", b"-0", b"1_0", b"0x1", b"5."])
def test_p2_sample_must_be_a_digit_run(token):
    data = b"P2\n3 1\n9\n1 " + token + b" 2\n"
    with pytest.raises(ParseError) as info:
        load_image(data)
    assert info.value.offset == data.index(token)
    assert "invalid sample" in str(info.value)


def test_p2_header_larger_than_raster_is_truncated_not_allocated():
    data = b"P2\n100000 100000\n255\n0\n"
    with pytest.raises(ParseError) as info:
        load_image(data)
    assert "truncated" in str(info.value)
    assert info.value.offset == len(data)


def test_p2_bad_sample_in_short_raster_is_named():
    data = b"P2\n4 4\n255\n1 x 2"
    with pytest.raises(ParseError) as info:
        load_image(data)
    assert info.value.offset == data.index(b"x")


def test_p2_oversized_sample_with_leading_zeros():
    # A digit run too long for int64 is named too, not read as its bound.
    for sample in [b"00000000065536", b"9" * 30]:
        data = b"P2\n2 1\n65535\n" + b"0" * 20 + b"65535 " + sample + b"\n"
        with pytest.raises(ParseError) as info:
            load_image(data)
        assert info.value.offset == data.index(sample)
        assert sample.lstrip(b"0").decode() in str(info.value)


def test_valid_p2_files_are_not_walked_token_by_token():
    scene = to_pgm_p2(synthetic_image(512, 512, seed=0))
    pixels = load_image(scene).pixels
    row_end = scene.index(b"\n", len(scene) // 2)
    commented = scene[:row_end] + b" # a comment line" + scene[row_end:]
    bad_last = scene[:-2] + b"x\n"
    with mock.patch.object(world, "_check_raster", wraps=world._check_raster) as check:
        for data in [scene, commented, scene + b"junk 7\n"]:
            assert np.array_equal(load_image(data).pixels, pixels)
        check.assert_not_called()
        with pytest.raises(ParseError) as info:
            load_image(bad_last)
        check.assert_called_once()
    assert info.value.offset == bad_last.rindex(b" ") + 1


def test_quantize_round_half_up():
    values = np.array([0.0, 0.5, 1.0, 1.7, -0.3])
    assert list(quantize(values)) == [0, 128, 255, 255, 0]


# ---------------------------------------------------------------------------
# Motor commands


def test_velocity_table():
    assert command_to_velocity(MotorCommand.STAY) == (0, 0)
    assert command_to_velocity(MotorCommand.RIGHT) == (1, 0)
    assert command_to_velocity(MotorCommand.LEFT) == (-1, 0)
    assert command_to_velocity(MotorCommand.UP) == (0, -1)  # y grows downward
    assert command_to_velocity(MotorCommand.DOWN) == (0, 1)


def test_exactly_five_commands():
    assert len(COMMANDS) == 5
    assert len({c.value for c in COMMANDS}) == 5


def test_apply_motor_clamps_at_origin():
    world = synthetic_image(64, 64, seed=0)
    cam = CameraState(left=0, top=0, width=8, height=8)
    assert apply_motor(world, cam, MotorCommand.LEFT) == cam
    assert apply_motor(world, cam, MotorCommand.UP) == cam


def test_apply_motor_translates_interior():
    world = synthetic_image(512, 512, seed=0)
    cam = CameraState(left=240, top=240)
    moved = apply_motor(world, cam, MotorCommand.RIGHT)
    assert (moved.left, moved.top) == (241, 240)


def test_apply_motor_clamps_at_far_edge():
    world = synthetic_image(512, 512, seed=0)
    cam = CameraState(left=480, top=10)  # 480 = 512 - 32 is the maximum
    moved = apply_motor(world, cam, MotorCommand.RIGHT)
    assert (moved.left, moved.top) == (480, 10)


def test_apply_motor_fuzz_never_leaves_image():
    world = synthetic_image(40, 30, seed=1)
    cam = CameraState(left=17, top=13, width=6, height=4)
    rng = np.random.default_rng(2)
    max_left = world.width - cam.width
    max_top = world.height - cam.height
    for _ in range(100_000):
        cam = apply_motor(world, cam, COMMANDS[int(rng.integers(5))])
        assert 0 <= cam.left <= max_left
        assert 0 <= cam.top <= max_top


def test_opposite_commands_cancel_away_from_borders():
    world = synthetic_image(32, 32, seed=3)
    for cmd, verso in [
        (MotorCommand.RIGHT, MotorCommand.LEFT),
        (MotorCommand.DOWN, MotorCommand.UP),
    ]:
        for left in range(1, world.width - 4 - 1):
            cam = CameraState(left=left, top=left % 10 + 1, width=4, height=4)
            there = apply_motor(world, cam, cmd)
            back = apply_motor(world, there, verso)
            assert back == cam


def test_camera_must_fit_image():
    world = synthetic_image(16, 16, seed=0)
    with pytest.raises(ConfigError):
        apply_motor(world, CameraState(left=10, top=0, width=8, height=8),
                    MotorCommand.STAY)


# ---------------------------------------------------------------------------
# Observation


def test_observe_noiseless_is_deterministic():
    world = synthetic_image(64, 64, seed=4)
    cam = CameraState(left=5, top=9, width=8, height=8)
    rng = np.random.default_rng(0)
    first = observe(world, cam, NoiseModel(0.0), rng)
    second = observe(world, cam, NoiseModel(0.0), rng)
    assert np.array_equal(first, second)
    assert first.shape == (64,)


def test_observe_checkerboard_center_window():
    world = checkerboard(4)
    cam = CameraState(left=1, top=1, width=2, height=2)
    frame = observe(world, cam, NoiseModel(0.0), np.random.default_rng(0))
    assert np.array_equal(frame, [0.0, 1.0, 1.0, 0.0])


def test_observe_matches_index_arithmetic():
    world = synthetic_image(48, 36, seed=5)
    cam = CameraState(left=11, top=7, width=5, height=3)
    frame = observe(world, cam, NoiseModel(0.0), np.random.default_rng(0))
    for i in range(cam.height):
        for j in range(cam.width):
            assert frame[i * cam.width + j] == world.pixels[cam.top + i, cam.left + j]


def test_observe_noise_statistics():
    # Constant 0.5 region: the sample mean and spread must match the model.
    world = WorldImage(np.full((40, 40), 0.5))
    cam = CameraState(left=0, top=0, width=32, height=32)
    rng = np.random.default_rng(12)
    samples = np.concatenate([
        observe(world, cam, NoiseModel(0.01), rng) for _ in range(98)
    ])
    assert samples.size >= 100_000
    assert abs(samples.mean() - 0.5) < 0.001
    assert abs(samples.std() - 0.01) < 0.001


def test_observe_clamps_to_unit_range():
    world = WorldImage(np.zeros((8, 8)))
    cam = CameraState(left=0, top=0, width=8, height=8)
    frame = observe(world, cam, NoiseModel(0.5), np.random.default_rng(3))
    assert frame.min() >= 0.0
    assert frame.max() <= 1.0


def test_observe_does_not_mutate_world():
    world = WorldImage(np.full((8, 8), 0.25))
    cam = CameraState(left=0, top=0, width=8, height=8)
    frame = observe(world, cam, NoiseModel(0.0), np.random.default_rng(0))
    frame += 1.0
    assert np.all(world.pixels == 0.25)


# ---------------------------------------------------------------------------
# World image and synthetic scene


def test_world_image_validation():
    with pytest.raises(ConfigError):
        WorldImage(np.array([[1.5]]))
    with pytest.raises(ConfigError):
        WorldImage(np.array([[-0.1]]))
    for bad in (np.nan, np.inf, -np.inf):
        pixels = np.full((3, 3), 0.5)
        pixels[1, 2] = bad
        with pytest.raises(ConfigError, match="non-finite"):
            WorldImage(pixels)
    with pytest.raises(ConfigError):
        WorldImage(np.zeros(4))


def test_world_image_is_immutable():
    image = WorldImage(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        image.pixels[0, 0] = 1.0


def test_world_image_copies_arrays_from_outside():
    source = np.full((3, 4), 0.25)
    image = WorldImage(source)
    source[0, 0] = 0.75
    assert source.flags.writeable
    assert np.all(image.pixels == 0.25)


@pytest.mark.parametrize("build", [
    lambda: load_image(b"P2\n2 2\n255\n0 255\n255 0\n"),
    lambda: load_image(b"P5\n2 2\n255\n" + bytes([0, 64, 128, 255])),
    lambda: load_image(b"P5\n2 1\n65535\n\x01\x00\xff\xff"),
    lambda: synthetic_image(16, 12, seed=2),
    lambda: synthetic_image(4, 4, components=0),  # constant 0.5 scene
])
def test_builder_pixels_are_read_only(build):
    image = build()
    assert image.pixels.dtype == np.float64
    with pytest.raises(ValueError):
        image.pixels[0, 0] = 0.5


def test_synthetic_image_is_seeded_and_in_range():
    a = synthetic_image(64, 48, seed=9)
    b = synthetic_image(64, 48, seed=9)
    c = synthetic_image(64, 48, seed=10)
    assert np.array_equal(a.pixels, b.pixels)
    assert not np.array_equal(a.pixels, c.pixels)
    assert a.pixels.shape == (48, 64)
    assert a.pixels.min() >= 0.0
    assert a.pixels.max() <= 1.0
    # Uses the full dynamic range after normalisation.
    assert a.pixels.min() == 0.0
    assert a.pixels.max() == 1.0


def test_synthetic_image_is_smooth():
    image = synthetic_image(512, 512, seed=0)
    dx = np.abs(np.diff(image.pixels, axis=1)).max()
    dy = np.abs(np.diff(image.pixels, axis=0)).max()
    assert max(dx, dy) < 0.1  # one-pixel steps change intensity gradually


@pytest.mark.parametrize("kwargs, digest", [
    (dict(width=512, height=512, seed=0),
     "45c16e6acdfe627d87b83a632b3adc8b881a47164347202545daf7e5e65d43cb"),
    (dict(width=48, height=40, seed=3),
     "6b9344289d4516a15b952ef8cf56c8d8aedc7b55276d28b89cb021eca77e4ff6"),
    (dict(width=7, height=13, seed=1, components=1),
     "2e835090a9eb9f7f73ecbb5c4187083579c9629849120f53c383d1973456c326"),
])
def test_synthetic_image_pixels_are_pinned(kwargs, digest):
    pixels = synthetic_image(**kwargs).pixels
    assert hashlib.sha256(pixels.tobytes()).hexdigest() == digest


def serial_synthetic_pixels(width, height, seed, components=24):
    """The scene summed over all rows in one buffer on one thread: the
    reference the two-thread builder must match bit for bit."""
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
    return field


@pytest.mark.parametrize("width, height, seed, components", [
    (9, 1, 1, 24),  # the helper's half is empty
    (9, 2, 2, 24),  # one row each
    (9, 7, 3, 24),  # odd: the calling thread takes the extra row
    (37, 513, 4, 24),
    (1, 11, 5, 24),
    (1, 1, 6, 24),
    (16, 12, 7, 1),
    (64, 48, 8, 24),
])
def test_synthetic_image_matches_serial_sum_bit_for_bit(
    width, height, seed, components
):
    pixels = synthetic_image(width, height, seed=seed, components=components).pixels
    expected = serial_synthetic_pixels(width, height, seed, components)
    assert pixels.tobytes() == expected.tobytes()


def test_synthetic_image_leaves_no_thread_behind():
    before = threading.active_count()
    synthetic_image(32, 24, seed=1)
    assert threading.active_count() == before


def test_synthetic_image_is_the_same_from_concurrent_callers():
    # Four callers: more threads than cores, switching often. Every scene
    # must still be the serial sum's bytes.
    expected = serial_synthetic_pixels(96, 80, 11).tobytes()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(synthetic_image, 96, 80, 11) for _ in range(4)]
            scenes = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(scene.pixels.tobytes() == expected for scene in scenes)


def serial_raw_field(width, height, seed, components=24):
    """The scene's sum over all pixels in one buffer, before normalising."""
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
        np.add.outer(freq * np.sin(angle) * v, freq * np.cos(angle) * u, out=term)
        term *= 2.0 * np.pi
        term += phase
        np.sin(term, out=term)
        term /= freq**0.3
        field += term
    return field


def assert_exact_extremes(width, height, seed, components):
    waves = world._waves(width, height, seed, components)
    low, high = world._extremes(waves, height, width)
    field = serial_raw_field(width, height, seed, components)
    assert np.float64(low).tobytes() == field.min().tobytes()
    assert np.float64(high).tobytes() == field.max().tobytes()


@pytest.mark.parametrize("width, height, seed, components", [
    (512, 512, 1, 24),
    (512, 512, 2, 24),
    (1, 1, 3, 24),  # one pixel: a constant scene
    (1, 300, 4, 24),
    (300, 1, 5, 24),
    (130, 65, 6, 24),  # the last block of rows is short
    (64, 200, 7, 1),
    (40, 40, 8, 0),  # no components: every pixel is zero
    (97, 33, 9, 200),
])
def test_extremes_equal_the_eager_min_and_max(width, height, seed, components):
    assert_exact_extremes(width, height, seed, components)


@settings(max_examples=60, deadline=None)
@given(width=st.integers(1, 90), height=st.integers(1, 90),
       seed=st.integers(0, 2**32), components=st.integers(0, 30))
def test_extremes_equal_the_eager_min_and_max_on_random_scenes(
    width, height, seed, components
):
    assert_exact_extremes(width, height, seed, components)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_extremes_stay_exact_while_the_approximation_is_within_half_the_margin(
    seed, monkeypatch
):
    # With the margin widened to half the amplitude sum and the
    # approximation off by up to 0.49 of it at every pixel, many pixels
    # are ranked out of order and are candidates; the extremes must not
    # change.
    width, height = 160, 120
    waves = world._waves(width, height, seed, 24)
    monkeypatch.setattr(world, "_MARGIN", 0.5)
    margin = 0.5 * np.sum(1.0 / waves.divisor)
    jitter = np.random.default_rng(seed)
    real_matmul = np.matmul

    def off_by_up_to_half_the_margin(a, b, out):
        real_matmul(a, b, out=out)
        out += jitter.uniform(-0.49 * margin, 0.49 * margin, out.shape)
        return out

    with mock.patch.object(world.np, "matmul", off_by_up_to_half_the_margin):
        low, high = world._extremes(waves, height, width)
    field = serial_raw_field(width, height, seed)
    assert (low, high) == (field.min(), field.max())


def test_constant_synthetic_scenes_are_half_grey():
    for image in (synthetic_image(1, 1, seed=3), synthetic_image(5, 4, components=0)):
        assert np.all(image.pixels == 0.5)


@pytest.mark.parametrize("width, height, seed, camera", [
    (512, 512, 1, 8),
    (75, 43, 2, 5),  # edge tiles are partial
    (40, 200, 3, 32),
])
def test_windows_read_after_ensure_equal_the_filled_scene(width, height, seed, camera):
    full = synthetic_image(width, height, seed=seed).pixels
    image = synthetic_image(width, height, seed=seed)
    rng = np.random.default_rng(seed)
    left, top = (width - camera) // 2, (height - camera) // 2
    for _ in range(600):
        vx, vy = command_to_velocity(COMMANDS[rng.integers(5)])
        left = min(max(left + 3 * vx, 0), width - camera)
        top = min(max(top + 3 * vy, 0), height - camera)
        pixels = image.ensure(top, left, camera, camera)
        window = pixels[top : top + camera, left : left + camera]
        assert window.tobytes() == full[top : top + camera, left : left + camera].tobytes()
    assert image.pixels.tobytes() == full.tobytes()


def test_ensure_clips_to_the_scene_and_fills_only_what_it_touches():
    image = synthetic_image(100, 70, seed=4)
    filled = image._filled
    assert not filled.any()
    image.ensure(-50, -50, 40, 40)  # wholly outside
    image.ensure(60, 90, 0, 10)  # empty
    assert not filled.any()
    image.ensure(-5, 97, 10, 20)  # the top-right tile only
    assert filled.sum() == 1 and filled[0, -1]
    pixels = image.ensure(0, 0, 70, 100)
    assert filled.all() and pixels is image.pixels


def test_each_pixel_is_filled_once(monkeypatch):
    areas = []
    real_raw_field = world._raw_field

    def counting(waves, rows, cols):
        field = real_raw_field(waves, rows, cols)
        areas.append(field.size)
        return field

    expected = synthetic_image(160, 128, seed=5).pixels
    image = synthetic_image(160, 128, seed=5)  # 5 x 4 tiles
    monkeypatch.setattr(world, "_raw_field", counting)
    image.ensure(40, 40, 10, 40)  # tiles (1, 1) and (1, 2)
    assert image.pixels.tobytes() == expected.tobytes()
    assert sum(areas) == 160 * 128


def test_shared_scene_filled_from_concurrent_readers(monkeypatch):
    # Four threads read random windows of one scene, switching often.
    # Every tile is filled once, and every pixel is the filled scene's.
    width, height = 200, 160
    expected = synthetic_image(width, height, seed=12).pixels.tobytes()
    image = synthetic_image(width, height, seed=12)
    areas = []
    real_raw_field = world._raw_field

    def counting(waves, rows, cols):
        field = real_raw_field(waves, rows, cols)
        areas.append(field.size)
        return field

    monkeypatch.setattr(world, "_raw_field", counting)

    def reader(seed):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            top, left = rng.integers(-10, height), rng.integers(-10, width)
            image.ensure(int(top), int(left), 24, 24)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(reader, seed) for seed in range(4)]
            for future in futures:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert image.pixels.tobytes() == expected
    assert sum(areas) == width * height
