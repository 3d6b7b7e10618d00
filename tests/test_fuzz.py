"""Property tests for the three parsers of outside input: any input either
parses or raises the parser's own error, never another exception."""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirnet_forge.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from mirnet_forge.config import ConfigError, RunConfig, parse_config, render_config
from mirnet_forge.data import ParseError, load_ppm

# Deterministic, bounded and writing nothing to the repository.
FUZZ = settings(max_examples=300, database=None, deadline=None, derandomize=True)


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


# ---------------------------------------------------------------------------
# PPM

_separator = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"# note\n", b"#", b""])
_field = st.one_of(
    st.integers(0, 70).map(lambda n: str(n).encode()),
    st.sampled_from([b"255", b"0", b"65535", b"-1", b"3.5", b"0x10"]),
    st.text("0123456789", min_size=1, max_size=40).map(str.encode),
    st.binary(max_size=3))
_ppm = st.builds(
    lambda magic, fields, payload: magic + b"".join(fields) + payload,
    st.sampled_from([b"P6", b"P3", b"P", b""]),
    st.lists(st.tuples(_separator, _field).map(b"".join), max_size=4),
    st.binary(max_size=64))


@FUZZ
@given(raw=st.one_of(_ppm, st.binary(max_size=64)))
@example(raw=b"P6\n" + b"9" * 5000 + b" 1\n255\n")
def test_load_ppm_parses_or_raises_parse_error(input_file, raw):
    input_file.write_bytes(raw)
    try:
        image = load_ppm(input_file)
    except ParseError:
        return
    assert image.pixels.shape[2] == 3


# ---------------------------------------------------------------------------
# checkpoint

_HEADER = b"MIRT" + struct.pack("<I", 1)


def _valid_checkpoint(path):
    save_checkpoint(path, {"w": np.arange(6, dtype=np.float32).reshape(2, 3),
                           "optim.step": np.float32(2.0)})
    return path.read_bytes()


@FUZZ
@given(tail=st.binary(max_size=64), header=st.booleans(),
       edits=st.lists(st.tuples(st.integers(0, 64), st.integers(0, 255)), max_size=4),
       cut=st.integers(0, 64), base=st.sampled_from(["valid", "tail"]))
# rank 5 reads the values as extents (2, 3, 0, 2^30 - 2^23, 2^30): no
# values, but more elements than numpy can shape
@example(tail=b"", header=False, edits=[(11, 5)], cut=0, base="valid")
def test_load_checkpoint_parses_or_raises_checkpoint_error(
        input_file, tail, header, edits, cut, base):
    if base == "valid":
        raw = bytearray(_valid_checkpoint(input_file))
        for pos, value in edits:
            raw[pos % len(raw)] = value
        raw = bytes(raw[:len(raw) - cut])
    else:
        raw = (_HEADER if header else b"") + tail
    input_file.write_bytes(raw)
    try:
        arrays = load_checkpoint(input_file)
    except CheckpointError:
        return
    assert all(isinstance(a, np.ndarray) for a in arrays.values())


# ---------------------------------------------------------------------------
# config

_KEYS = [line.split(" = ")[0] for line in render_config(RunConfig()).splitlines()]
_value = st.one_of(
    st.text(max_size=12),
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "-inf", "1e309", "global_norm", "y_channel",
                     "enhance", "super_resolve", str(2 ** 64), "9" * 5000]))
_config = st.lists(
    st.tuples(st.sampled_from(_KEYS), _value).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    max_size=8).map("\n".join)


@FUZZ
@given(text=st.one_of(_config, st.text(max_size=40)))
@example(text="data.noise_sigma = nan")
@example(text="data.task = enhance\ndata.gamma = nan")
@example(text="train.lr_init = inf")
@example(text="network.n_streams = 18446744073709551616")
def test_parse_config_parses_or_raises_config_error(text):
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert parse_config(render_config(cfg)) == cfg
