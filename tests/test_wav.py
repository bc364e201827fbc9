"""The CLI's WAV reader and writer against scipy.io.wavfile as the oracle."""

import struct

import numpy as np
import pytest
from scipy.io import wavfile

from doakit import cli
from doakit.manifold import random_geometry

CHANNELS, FRAMES, RATE = 3, 40, 8000
_GUID_TAIL = b"\x80\x00\x00\xaa\x00\x38\x9b\x71"


def _chunk(name, body, end="<"):
    pad = b"\x00" if len(body) % 2 else b""
    return name + struct.pack(end + "I", len(body)) + body + pad


def _fmt(tag, width, bits, end="<", subformat=None):
    align = width * CHANNELS
    body = struct.pack(end + "HHIIHH", tag, CHANNELS, RATE, RATE * align, align, bits)
    if subformat is not None:  # WAVE_FORMAT_EXTENSIBLE
        guid = struct.pack(end + "IHH", subformat, 0, 0x10) + _GUID_TAIL
        body += struct.pack(end + "HHI", 22, bits, 0) + guid
    return _chunk(b"fmt ", body, end)


def _riff(*chunks, end="<"):
    body = b"WAVE" + b"".join(chunks)
    return (b"RIFX" if end == ">" else b"RIFF") + struct.pack(end + "I", len(body)) + body


def _rf64(fmt, data):
    # RF64 keeps its sizes in a ds64 chunk and 0xFFFFFFFF in the 32-bit fields
    tail = fmt + b"data" + b"\xff\xff\xff\xff" + data
    ds64 = b"ds64" + struct.pack("<IQQQI", 28, 4 + 36 + len(tail), len(data), FRAMES, 0)
    return b"RF64" + b"\xff\xff\xff\xff" + b"WAVE" + ds64 + tail


def _bytes(rng, width):
    return rng.integers(0, 256, FRAMES * CHANNELS * width, dtype=np.uint8).tobytes()


def _samples(rng, dtype):
    dtype = np.dtype(dtype)
    if dtype.kind == "f":
        return rng.standard_normal((FRAMES, CHANNELS)).astype(dtype)
    info = np.iinfo(dtype)
    native = dtype.newbyteorder("=")
    draw = rng.integers(info.min, info.max, (FRAMES, CHANNELS), dtype=native, endpoint=True)
    return draw.astype(dtype)


def _write(path, layout, rng):
    """Write one WAV layout to path; scipy writes the ones it can."""
    if layout in ("int16", "int32", "int64", "uint8", "float32", "float64"):
        wavfile.write(path, RATE, _samples(rng, layout))
        return
    if layout == "24-bit":
        blob = _riff(_fmt(1, 3, 24), _chunk(b"data", _bytes(rng, 3)))
    elif layout == "40-bit":
        blob = _riff(_fmt(1, 5, 40), _chunk(b"data", _bytes(rng, 5)))
    elif layout == "extensible-int16":
        blob = _riff(_fmt(0xFFFE, 2, 16, subformat=1), _chunk(b"data", _bytes(rng, 2)))
    elif layout == "extensible-float32":
        data = _samples(rng, "<f4").tobytes()
        blob = _riff(_fmt(0xFFFE, 4, 32, subformat=3), _chunk(b"data", data))
    elif layout == "rifx-int16":
        data = _samples(rng, ">i2").tobytes()
        blob = _riff(_fmt(1, 2, 16, ">"), _chunk(b"data", data, ">"), end=">")
    elif layout == "rifx-24-bit":
        blob = _riff(_fmt(1, 3, 24, ">"), _chunk(b"data", _bytes(rng, 3), ">"), end=">")
    elif layout == "rifx-extensible-float64":
        data = _samples(rng, ">f8").tobytes()
        blob = _riff(_fmt(0xFFFE, 8, 64, ">", subformat=3), _chunk(b"data", data, ">"),
                     end=">")
    elif layout == "rf64-float32":
        blob = _rf64(_fmt(3, 4, 32), _samples(rng, "<f4").tobytes())
    elif layout == "odd-chunk-before-data":
        # a 5-byte chunk carries a pad byte that is not part of its size
        blob = _riff(_fmt(1, 2, 16), _chunk(b"LIST", b"INFOx"),
                     _chunk(b"data", _bytes(rng, 2)))
    else:
        raise ValueError(layout)
    with open(path, "wb") as f:
        f.write(blob)


LAYOUTS = [
    "int16", "int32", "int64", "uint8", "float32", "float64", "24-bit", "40-bit",
    "extensible-int16", "extensible-float32", "rifx-int16", "rifx-24-bit",
    "rifx-extensible-float64", "rf64-float32", "odd-chunk-before-data",
]


@pytest.mark.parametrize("layout", LAYOUTS)
def test_read_wav_matches_scipy(tmp_path, layout):
    path = tmp_path / f"{layout}.wav"
    _write(path, layout, np.random.default_rng(len(layout)))
    rate, samples = cli._read_wav(path)
    expected_rate, expected = wavfile.read(path)
    assert rate == expected_rate == RATE
    assert samples.dtype == expected.dtype
    np.testing.assert_array_equal(samples, expected)
    assert samples.shape == (FRAMES, CHANNELS)


@pytest.mark.parametrize("layout, scale, zero", [
    ("uint8", 128.0, 128.0), ("int16", 32767.0, 0.0), ("24-bit", 2147483647.0, 0.0),
])
def test_read_input_scales_integer_pcm(tmp_path, layout, scale, zero):
    path = tmp_path / f"{layout}.wav"
    _write(path, layout, np.random.default_rng(7))
    rate, data = cli._read_input({"input": str(path)}, CHANNELS)
    _, expected = wavfile.read(path)
    assert rate == RATE
    np.testing.assert_array_equal(data, (expected - zero) / scale)


def test_silent_8_bit_wav_reads_as_zeros(tmp_path):
    path = tmp_path / "silent.wav"
    wavfile.write(path, RATE, np.full((FRAMES, CHANNELS), 128, dtype=np.uint8))
    _, data = cli._read_input({"input": str(path)}, CHANNELS)
    assert data.shape == (FRAMES, CHANNELS) and not np.any(data)


@pytest.fixture
def geometry_file(tmp_path):
    path = tmp_path / "array.json"
    random_geometry(num_sensors=CHANNELS, seed=3).to_json(path)
    return str(path)


def test_simulate_writes_what_scipy_writes(tmp_path, geometry_file):
    wav, again = tmp_path / "scene.wav", tmp_path / "again.wav"
    assert cli.main(["simulate", "--geometry", geometry_file, "--sources", "1",
                     "--duration", "0.1", "--output", str(wav)]) == 0
    rate, samples = wavfile.read(wav)
    assert samples.dtype == np.float32 and samples.shape == (1600, CHANNELS)
    wavfile.write(again, rate, samples)
    assert wav.read_bytes() == again.read_bytes()


def _bad_input(path, case, rng):
    good = _riff(_fmt(1, 2, 16), _chunk(b"data", _bytes(rng, 2)))
    if case == "not-riff":
        path.write_text("x,y,z\n0,0,1\n")
    elif case == "empty":
        path.write_bytes(b"")
    elif case == "truncated-header":
        path.write_bytes(good[:30])
    elif case == "truncated-frame":
        path.write_bytes(good[:-3])
    elif case == "no-data-chunk":
        path.write_bytes(_riff(_fmt(1, 2, 16)))
    elif case == "data-before-fmt":
        path.write_bytes(_riff(_chunk(b"data", _bytes(rng, 2)), _fmt(1, 2, 16)))
    elif case == "adpcm":
        path.write_bytes(_riff(_fmt(2, 2, 16), _chunk(b"data", _bytes(rng, 2))))
    elif case == "16-bit-float":
        path.write_bytes(_riff(_fmt(3, 2, 16), _chunk(b"data", _bytes(rng, 2))))
    elif case == "extensible-mulaw":
        path.write_bytes(_riff(_fmt(0xFFFE, 1, 8, subformat=7), _chunk(b"data", _bytes(rng, 1))))
    elif case == "rf64-without-ds64":
        path.write_bytes(b"RF64" + b"\xff\xff\xff\xff" + b"WAVEJUNK" + bytes(40))
    else:
        raise ValueError(case)


@pytest.mark.parametrize("case", [
    "not-riff", "empty", "truncated-header", "truncated-frame", "no-data-chunk",
    "data-before-fmt", "adpcm", "16-bit-float", "extensible-mulaw", "rf64-without-ds64",
])
def test_locate_rejects_unreadable_wav(tmp_path, geometry_file, capsys, case):
    path = tmp_path / f"{case}.wav"
    _bad_input(path, case, np.random.default_rng(3))
    with pytest.raises(Exception):
        wavfile.read(path)  # the oracle rejects each of them too
    out = tmp_path / "report.json"
    rc = cli.main(["locate", "--geometry", geometry_file, "--input", str(path),
                   "--output", str(out)])
    assert rc == 2
    assert f"cannot read input {path}" in capsys.readouterr().err
    assert not out.exists()
