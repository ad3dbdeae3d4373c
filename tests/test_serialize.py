import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from spikescan.errors import CorruptContainer, SpikescanError
from spikescan.serialize import MAGIC, load_tensors, save_tensors


def test_roundtrip_all_ranks(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "scalar": np.array(3.5),
        "vec": rng.normal(size=7),
        "mat": rng.normal(size=(3, 4)),
        "cube": rng.normal(size=(2, 3, 5)),
    }
    path = tmp_path / "params.spkn"
    save_tensors(path, tensors)
    loaded = load_tensors(path)
    assert set(loaded) == set(tensors)
    for name, arr in tensors.items():
        np.testing.assert_array_equal(loaded[name], arr)
        assert loaded[name].dtype == np.float64


def test_byte_layout_golden(tmp_path):
    path = tmp_path / "one.spkn"
    save_tensors(path, {"ab": np.array([1.0, 2.0])})
    raw = path.read_bytes()
    expected = (MAGIC + struct.pack("<I", 2) + b"ab" + struct.pack("<I", 1)
                + struct.pack("<Q", 2)
                + np.array([1.0, 2.0], dtype="<f8").tobytes())
    assert raw == expected


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.spkn"
    path.write_bytes(b"NOPE!" + b"\x00" * 16)
    with pytest.raises(ValueError):
        load_tensors(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "trunc.spkn"
    save_tensors(path, {"x": np.arange(4.0)})
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ValueError):
        load_tensors(path)


def test_deterministic_bytes(tmp_path):
    tensors = {"w": np.linspace(0, 1, 11), "b": np.zeros(3)}
    p1, p2 = tmp_path / "a.spkn", tmp_path / "b.spkn"
    save_tensors(p1, tensors)
    save_tensors(p2, tensors)
    assert p1.read_bytes() == p2.read_bytes()


def _valid_container(tmp_path):
    rng = np.random.default_rng(7)
    path = tmp_path / "valid.spkn"
    # the first header spans bytes 5-29: name length, "m", rank, two extents
    save_tensors(path, {"m": rng.normal(size=(2, 2)), "scalar": np.array(1.5),
                        "vec": rng.normal(size=3), "é": np.zeros((2, 0, 3))})
    return path, path.read_bytes()


def test_rank_zero_array_roundtrips_as_rank_zero(tmp_path):
    path = tmp_path / "scalar.spkn"
    save_tensors(path, {"s": np.array(-2.5)})
    assert path.read_bytes() == (MAGIC + struct.pack("<I", 1) + b"s" + struct.pack("<I", 0)
                                 + struct.pack("<d", -2.5))
    loaded = load_tensors(path)["s"]
    assert loaded.shape == () and loaded == -2.5


def test_damaged_container_with_a_rank_zero_record_roundtrips_byte_for_byte(tmp_path):
    # _valid_container with its scalar stored as shape (1,): XOR 8 on byte 62,
    # the first byte of that record's name length (6 -> 14), makes the name
    # swallow the rank and half the extent, and the extent's zero upper half
    # becomes a rank of 0
    rng = np.random.default_rng(7)
    path = tmp_path / "rank1.spkn"
    save_tensors(path, {"m": rng.normal(size=(2, 2)), "scalar": np.array([1.5]),
                        "vec": rng.normal(size=3), "é": np.zeros((2, 0, 3))})
    damaged = bytearray(path.read_bytes())
    damaged[62] ^= 8
    path.write_bytes(bytes(damaged))
    name = "scalar" + struct.pack("<I", 1).decode() + struct.pack("<I", 1).decode()
    assert load_tensors(path)[name].shape == ()
    _roundtrips_or_corrupt(path, bytes(damaged))


@pytest.mark.parametrize("cut", [7, 10, 14, 20])
def test_cut_inside_a_header_is_corrupt(tmp_path, cut):
    path, raw = _valid_container(tmp_path)
    path.write_bytes(raw[:cut])
    with pytest.raises(CorruptContainer) as err:
        load_tensors(path)
    assert 5 <= err.value.offset <= cut


def test_overflowing_extents_are_corrupt(tmp_path):
    # 2^32 * 2^32 * 2^32 wraps to 0 in int64; with Python ints it is huge
    path = tmp_path / "huge.spkn"
    path.write_bytes(MAGIC + struct.pack("<I", 1) + b"h" + struct.pack("<I", 3)
                     + struct.pack("<3Q", 2 ** 32, 2 ** 32, 2 ** 32))
    with pytest.raises(CorruptContainer) as err:
        load_tensors(path)
    assert err.value.offset == 5 + 4 + 1 + 4
    # an empty tensor with a huge extent is still beyond what numpy can hold
    path.write_bytes(MAGIC + struct.pack("<I", 1) + b"h" + struct.pack("<I", 2)
                     + struct.pack("<2Q", 0, 2 ** 62))
    with pytest.raises(CorruptContainer):
        load_tensors(path)


def test_non_utf8_name_is_corrupt(tmp_path):
    path = tmp_path / "name.spkn"
    path.write_bytes(MAGIC + struct.pack("<I", 2) + b"\xff\xfe"
                     + struct.pack("<I", 0) + struct.pack("<d", 1.0))
    with pytest.raises(CorruptContainer) as err:
        load_tensors(path)
    assert err.value.offset == 9
    assert isinstance(err.value, SpikescanError)


def _roundtrips_or_corrupt(path, data: bytes):
    path.write_bytes(data)
    try:
        loaded = load_tensors(path)
    except CorruptContainer:
        return
    again = path.with_name("again.spkn")
    save_tensors(again, loaded)
    assert again.read_bytes() == data


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_damaged_container_roundtrips_or_is_corrupt(tmp_path, data):
    path, raw = _valid_container(tmp_path)
    cut = data.draw(st.integers(0, len(raw)))
    _roundtrips_or_corrupt(path, raw[:cut])
    flips = data.draw(st.lists(st.tuples(st.integers(0, len(raw) - 1),
                                         st.integers(1, 255)),
                               min_size=1, max_size=3))
    damaged = bytearray(raw)
    for pos, mask in flips:
        damaged[pos] ^= mask
    _roundtrips_or_corrupt(path, bytes(damaged))
