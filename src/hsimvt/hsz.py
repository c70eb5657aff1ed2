"""HSZ container files: framed binary rasters and model checkpoints.

Every file is framed the same way: an 8-byte magic, a 4-byte little-endian
unsigned header length, a UTF-8 JSON header, then a raw payload whose size
must match the header exactly.

Magics:
  HSZCUBE\\0  float32 raster, band-interleaved-by-pixel (row-major (H,W,B))
  HSZLBL\\0\\0  uint16 class-id raster, row-major
  HSZMDL\\0\\0  model checkpoint, float32 payload
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .errors import FormatError, PayloadLengthError

CUBE_MAGIC = b"HSZCUBE\0"
LABEL_MAGIC = b"HSZLBL\0\0"
MODEL_MAGIC = b"HSZMDL\0\0"


def write_framed(path, magic: bytes, header: dict, payload):
    """Write one frame; ``payload`` is bytes-like and ``len(payload)`` is its size in bytes."""
    if len(magic) != 8:
        raise ValueError("magic must be 8 bytes")
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(magic)
        f.write(struct.pack("<I", len(head)))
        f.write(head)
        f.write(payload)


def read_framed(path, magic: bytes):
    """Return (header dict, payload bytes); validates magic and framing.

    The payload is read straight into its own bytes object (the file is
    unbuffered, so no copy is made), which keeps it aligned for numpy.
    """
    with open(path, "rb", buffering=0) as f:
        prefix = f.read(12)
        if len(prefix) < 12:
            raise FormatError(f"{path}: file too short for an HSZ frame")
        if prefix[:8] != magic:
            raise FormatError(f"{path}: bad magic {prefix[:8]!r}, expected {magic!r}")
        (hlen,) = struct.unpack("<I", prefix[8:])
        head = f.read(hlen)
        if len(head) < hlen:
            raise FormatError(f"{path}: header length {hlen} exceeds file size")
        payload = f.read()
    try:
        header = json.loads(head.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: malformed JSON header: {exc}") from exc
    except RecursionError:
        raise FormatError(f"{path}: JSON header nested too deeply") from None
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header is not a JSON object")
    return header, payload


def header_ints(header: dict, path, *keys):
    """The header's values for ``keys``, each a non-negative JSON integer."""
    dims = []
    for key in keys:
        if key not in header:
            raise FormatError(f"{path}: header missing required key {key!r}")
        value = header[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise FormatError(f"{path}: header {key!r} must be a non-negative integer, "
                              f"got {value!r}")
        dims.append(value)
    return dims


def write_cube_raster(path, values: np.ndarray):
    """Write an (H, W, B) float raster as an HSZCUBE file."""
    if values.ndim != 3:
        raise ValueError(f"cube raster must be 3-D, got shape {values.shape}")
    h, w, b = values.shape
    header = {"height": h, "width": w, "bands": b, "dtype": "f32le", "order": "bip"}
    payload = np.ascontiguousarray(values, dtype="<f4").reshape(-1).view(np.uint8)
    write_framed(path, CUBE_MAGIC, header, payload)


def read_cube_raster(path):
    """Read an HSZCUBE file; returns (values (H,W,B) float32, header).

    ``values`` is a read-only view of the file's bytes, not a copy.
    """
    header, payload = read_framed(path, CUBE_MAGIC)
    h, w, b = header_ints(header, path, "height", "width", "bands")
    if header.get("dtype") != "f32le":
        raise FormatError(f"{path}: unsupported dtype {header.get('dtype')!r}")
    if header.get("order") != "bip":
        raise FormatError(f"{path}: unsupported order {header.get('order')!r}")
    expected = h * w * b * 4
    if len(payload) != expected:
        raise PayloadLengthError(
            f"{path}: payload is {len(payload)} bytes, header implies {expected}")
    return np.frombuffer(payload, dtype="<f4").reshape(h, w, b), header


def write_label_raster(path, ids: np.ndarray, num_classes: int):
    """Write an (H, W) class-id raster as an HSZLBL file."""
    if ids.ndim != 2:
        raise ValueError(f"label raster must be 2-D, got shape {ids.shape}")
    h, w = ids.shape
    header = {"height": h, "width": w, "classes": int(num_classes)}
    payload = np.ascontiguousarray(ids, dtype="<u2").tobytes()
    write_framed(path, LABEL_MAGIC, header, payload)


def read_label_raster(path):
    """Read an HSZLBL file; returns (ids (H,W) uint16, num_classes)."""
    header, payload = read_framed(path, LABEL_MAGIC)
    h, w, k = header_ints(header, path, "height", "width", "classes")
    expected = h * w * 2
    if len(payload) != expected:
        raise PayloadLengthError(
            f"{path}: payload is {len(payload)} bytes, header implies {expected}")
    ids = np.frombuffer(payload, dtype="<u2").reshape(h, w)
    return np.ascontiguousarray(ids), k
