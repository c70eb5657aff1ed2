"""Framing, round trips, and corruption handling for the HSZ container."""

import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsimvt import ConfigError, FormatError, LabelMap, PayloadLengthError, save_labels
from hsimvt import hsz


def test_cube_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.normal(size=(7, 5, 11)).astype(np.float32)
    path = tmp_path / "cube.hsz"
    hsz.write_cube_raster(path, values)
    back, header = hsz.read_cube_raster(path)
    np.testing.assert_array_equal(back, values)
    assert header["height"] == 7 and header["width"] == 5 and header["bands"] == 11
    assert header["dtype"] == "f32le" and header["order"] == "bip"


def test_cube_write_accepts_noncontiguous_and_float64(tmp_path):
    values = np.random.default_rng(1).normal(size=(4, 6, 8))
    path = tmp_path / "cube.hsz"
    hsz.write_cube_raster(path, values[:, ::2, :])  # strided view, f64
    back, _ = hsz.read_cube_raster(path)
    np.testing.assert_array_equal(back, values[:, ::2, :].astype(np.float32))


def test_cube_read_is_a_read_only_view_and_writes_back(tmp_path):
    values = np.random.default_rng(3).normal(size=(3, 4, 5)).astype(np.float32)
    hsz.write_cube_raster(tmp_path / "a.hsz", values)
    header, payload = hsz.read_framed(tmp_path / "a.hsz", hsz.CUBE_MAGIC)
    assert len(payload) == values.nbytes
    back, _ = hsz.read_cube_raster(tmp_path / "a.hsz")
    assert not back.flags.writeable
    with pytest.raises(ValueError):
        back[0, 0, 0] = 1.0
    hsz.write_cube_raster(tmp_path / "b.hsz", back)
    assert (tmp_path / "a.hsz").read_bytes() == (tmp_path / "b.hsz").read_bytes()


@pytest.mark.parametrize("note", range(8))
def test_cube_read_is_aligned_whatever_the_header_length(tmp_path, note):
    values = np.arange(60, dtype=np.float32).reshape(3, 4, 5)
    header = {"height": 3, "width": 4, "bands": 5, "dtype": "f32le", "order": "bip",
              "note": "x" * note}
    hsz.write_framed(tmp_path / "a.hsz", hsz.CUBE_MAGIC, header, values.tobytes())
    back, _ = hsz.read_cube_raster(tmp_path / "a.hsz")
    assert back.flags.aligned and back.ctypes.data % 8 == 0
    np.testing.assert_array_equal(back, values)


def test_cube_write_hands_over_a_payload_sized_in_bytes(tmp_path, monkeypatch):
    sizes = []
    monkeypatch.setattr(hsz, "write_framed", lambda path, magic, header, payload:
                        sizes.append(len(payload)))
    values = np.ones((3, 4, 5), dtype=np.float32)
    hsz.write_cube_raster(tmp_path / "a.hsz", values)
    hsz.write_cube_raster(tmp_path / "b.hsz", np.zeros((0, 4, 5)))
    assert sizes == [values.nbytes, 0]


def test_label_round_trip(tmp_path):
    ids = np.random.default_rng(2).integers(0, 9, size=(6, 9)).astype(np.uint16)
    path = tmp_path / "labels.hsz"
    hsz.write_label_raster(path, ids, 8)
    back, k = hsz.read_label_raster(path)
    np.testing.assert_array_equal(back, ids)
    assert k == 8


def test_write_is_deterministic(tmp_path):
    values = np.random.default_rng(3).normal(size=(3, 3, 3)).astype(np.float32)
    a, b = tmp_path / "a.hsz", tmp_path / "b.hsz"
    hsz.write_cube_raster(a, values)
    hsz.write_cube_raster(b, values)
    assert a.read_bytes() == b.read_bytes()


def test_rejects_wrong_magic(tmp_path):
    path = tmp_path / "labels.hsz"
    hsz.write_label_raster(path, np.ones((2, 2), dtype=np.uint16), 1)
    with pytest.raises(FormatError, match="bad magic"):
        hsz.read_cube_raster(path)


def test_rejects_short_file(tmp_path):
    path = tmp_path / "stub.hsz"
    path.write_bytes(b"HSZCUBE\0\x01")
    with pytest.raises(FormatError, match="too short"):
        hsz.read_framed(path, hsz.CUBE_MAGIC)


def test_rejects_header_length_past_eof(tmp_path):
    path = tmp_path / "bad.hsz"
    path.write_bytes(hsz.CUBE_MAGIC + struct.pack("<I", 10_000) + b"{}")
    with pytest.raises(FormatError, match="exceeds file size"):
        hsz.read_framed(path, hsz.CUBE_MAGIC)


def test_a_huge_header_length_is_refused_before_it_is_read(tmp_path):
    path = tmp_path / "huge.hsz"
    path.write_bytes(hsz.CUBE_MAGIC + struct.pack("<I", 0xFFFFFFF0))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="exceeds file size"):
            hsz.read_framed(path, hsz.CUBE_MAGIC)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_label_ids_past_uint16_are_refused_before_writing(tmp_path):
    labels = LabelMap(ids=np.arange(1, 70_001).reshape(7, 10_000), num_classes=70_000)
    path = tmp_path / "labels.hsz"
    with pytest.raises(ConfigError, match="0..65535"):
        save_labels(labels, path)
    assert not path.exists()
    for ids, classes in [(np.full((2, 2), -1), 1), (np.ones((2, 2)), 65_536)]:
        with pytest.raises(ConfigError, match="0..65535"):
            hsz.write_label_raster(path, ids, classes)
        assert not path.exists()


def test_label_class_counts_past_uint16_are_refused_on_reading(tmp_path):
    path = tmp_path / "labels.hsz"
    payload = np.ones(4, dtype="<u2").tobytes()
    hsz.write_framed(path, hsz.LABEL_MAGIC, {"height": 2, "width": 2, "classes": 65_535},
                     payload)
    assert hsz.read_label_raster(path)[1] == 65_535
    hsz.write_framed(path, hsz.LABEL_MAGIC, {"height": 2, "width": 2, "classes": 65_536},
                     payload)
    with pytest.raises(FormatError, match="at most 65535, got 65536"):
        hsz.read_label_raster(path)


def test_rejects_malformed_header_json(tmp_path):
    path = tmp_path / "bad.hsz"
    head = b"{not json"
    path.write_bytes(hsz.CUBE_MAGIC + struct.pack("<I", len(head)) + head)
    with pytest.raises(FormatError, match="malformed JSON"):
        hsz.read_framed(path, hsz.CUBE_MAGIC)


def test_rejects_non_object_header(tmp_path):
    path = tmp_path / "bad.hsz"
    head = b"[1, 2]"
    path.write_bytes(hsz.CUBE_MAGIC + struct.pack("<I", len(head)) + head)
    with pytest.raises(FormatError, match="not a JSON object"):
        hsz.read_framed(path, hsz.CUBE_MAGIC)


def _written_rasters(tmp_path):
    """(path, reader) of one cube and one label raster, freshly written."""
    cube, labels = tmp_path / "cube.hsz", tmp_path / "labels.hsz"
    hsz.write_cube_raster(cube, np.zeros((4, 4, 4), dtype=np.float32))
    hsz.write_label_raster(labels, np.ones((3, 4), dtype=np.uint16), 1)
    return [(cube, hsz.read_cube_raster), (labels, hsz.read_label_raster)]


def test_rejects_truncated_payload(tmp_path):
    for path, read in _written_rasters(tmp_path):
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(PayloadLengthError, match="header implies"):
            read(path)


def test_rejects_bytes_past_the_payload(tmp_path):
    for path, read in _written_rasters(tmp_path):
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(PayloadLengthError, match="header implies"):
            read(path)


def test_payload_is_read_only_and_compares_and_slices_like_bytes(tmp_path):
    path = tmp_path / "m.hsz"
    body = bytes(range(256)) * 3
    hsz.write_framed(path, hsz.MODEL_MAGIC, {"a": 1}, body)
    header, payload = hsz.read_framed(path, hsz.MODEL_MAGIC)
    assert header == {"a": 1}
    assert payload.readonly
    with pytest.raises(TypeError):
        payload[0] = 1
    assert len(payload) == len(body) and payload == body and payload != body[:-1]
    assert payload[5:9] == body[5:9] and payload[-3:].tobytes() == body[-3:]
    assert bytes(payload[::7]) == body[::7]
    hsz.write_framed(tmp_path / "again.hsz", hsz.MODEL_MAGIC, header, payload[:10])
    assert hsz.read_framed(tmp_path / "again.hsz", hsz.MODEL_MAGIC)[1] == body[:10]
    hsz.write_framed(tmp_path / "empty.hsz", hsz.MODEL_MAGIC, {}, b"")
    _, empty = hsz.read_framed(tmp_path / "empty.hsz", hsz.MODEL_MAGIC)
    assert empty == b"" and len(empty) == 0


def test_rejects_missing_header_keys(tmp_path):
    path = tmp_path / "cube.hsz"
    header = {"height": 2, "width": 2}  # bands missing
    hsz.write_framed(path, hsz.CUBE_MAGIC, header, b"\0" * 16)
    with pytest.raises(FormatError, match="missing required key"):
        hsz.read_cube_raster(path)


@pytest.mark.parametrize("magic,header,reader", [
    (hsz.CUBE_MAGIC, {"height": "x", "width": 1, "bands": 1}, hsz.read_cube_raster),
    (hsz.CUBE_MAGIC, {"height": 1, "width": -1, "bands": 1}, hsz.read_cube_raster),
    (hsz.CUBE_MAGIC, {"height": 1, "width": 1, "bands": 1.5}, hsz.read_cube_raster),
    (hsz.CUBE_MAGIC, {"height": True, "width": 1, "bands": 1}, hsz.read_cube_raster),
    (hsz.LABEL_MAGIC, {"height": 1, "width": None, "classes": 1}, hsz.read_label_raster),
    (hsz.LABEL_MAGIC, {"height": 1, "width": 1, "classes": "3"}, hsz.read_label_raster),
    (hsz.LABEL_MAGIC, {"height": -2, "width": -2, "classes": 1}, hsz.read_label_raster),
])
def test_rejects_malformed_header_dims(tmp_path, magic, header, reader):
    path = tmp_path / "bad.hsz"
    header = dict(header, dtype="f32le", order="bip")
    hsz.write_framed(path, magic, header, b"\0" * 8)
    with pytest.raises(FormatError, match="non-negative integer"):
        reader(path)


def test_rejects_unknown_dtype_or_order(tmp_path):
    path = tmp_path / "cube.hsz"
    header = {"height": 1, "width": 1, "bands": 1, "dtype": "f64le", "order": "bip"}
    hsz.write_framed(path, hsz.CUBE_MAGIC, header, b"\0" * 8)
    with pytest.raises(FormatError, match="unsupported dtype"):
        hsz.read_cube_raster(path)
    header = {"height": 1, "width": 1, "bands": 1, "dtype": "f32le", "order": "bsq"}
    hsz.write_framed(path, hsz.CUBE_MAGIC, header, b"\0" * 4)
    with pytest.raises(FormatError, match="unsupported order"):
        hsz.read_cube_raster(path)


def test_header_json_is_byte_stable(tmp_path):
    """Key order must not leak into the bytes; headers are sorted."""
    path = tmp_path / "x.hsz"
    hsz.write_framed(path, hsz.MODEL_MAGIC, {"b": 1, "a": 2}, b"")
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[8:12])
    assert raw[12:12 + hlen] == json.dumps({"a": 2, "b": 1}, sort_keys=True).encode()


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6),
       st.integers(0, 2 ** 31 - 1))
def test_cube_round_trip_property(tmp_path_factory, h, w, b, seed):
    values = np.random.default_rng(seed).normal(size=(h, w, b)).astype(np.float32)
    path = tmp_path_factory.mktemp("hsz") / "cube.hsz"
    hsz.write_cube_raster(path, values)
    back, _ = hsz.read_cube_raster(path)
    np.testing.assert_array_equal(back, values)
