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
import os
import struct

import numpy as np

from .errors import ConfigError, FormatError, PayloadLengthError

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
    """Return (header dict, payload); validates magic and framing.

    The payload is a read-only ``memoryview`` of a numpy ``uint8`` array
    sized from the file and filled with one buffered ``readinto`` (which
    reads until the array is full or the file ends), so it compares,
    slices and takes ``len`` like ``bytes``. A numpy-owned buffer is
    aligned for any dtype and, being large, gets transparent huge pages
    where the kernel grants them on advice, so reading it faults in far
    fewer pages than a ``bytes`` object of the same size.
    """
    with open(path, "rb") as f:
        prefix = f.read(12)
        if len(prefix) < 12:
            raise FormatError(f"{path}: file too short for an HSZ frame")
        if prefix[:8] != magic:
            raise FormatError(f"{path}: bad magic {prefix[:8]!r}, expected {magic!r}")
        (hlen,) = struct.unpack("<I", prefix[8:])
        size = os.fstat(f.fileno()).st_size
        if hlen > size - 12:
            raise FormatError(f"{path}: header length {hlen} exceeds file size")
        head = f.read(hlen)
        buffer = np.empty(size - 12 - hlen, dtype=np.uint8)
        payload = memoryview(buffer)[:f.readinto(buffer)].toreadonly()
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

    ``values`` is a read-only view of :func:`read_framed`'s numpy-owned
    payload buffer, not a copy.
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
    lo, hi = ids.min(initial=0), ids.max(initial=0)
    if not (0 <= num_classes <= 0xFFFF and 0 <= lo and hi <= 0xFFFF):
        raise ConfigError(f"label rasters hold ids and class counts of 0..65535, got "
                          f"{num_classes} classes and ids {lo}..{hi}")
    h, w = ids.shape
    header = {"height": h, "width": w, "classes": int(num_classes)}
    payload = np.ascontiguousarray(ids, dtype="<u2").tobytes()
    write_framed(path, LABEL_MAGIC, header, payload)


def read_label_raster(path):
    """Read an HSZLBL file; returns (ids (H,W) uint16, num_classes)."""
    header, payload = read_framed(path, LABEL_MAGIC)
    h, w, k = header_ints(header, path, "height", "width", "classes")
    if k > 0xFFFF:
        raise FormatError(f"{path}: header 'classes' must be at most 65535, got {k}")
    expected = h * w * 2
    if len(payload) != expected:
        raise PayloadLengthError(
            f"{path}: payload is {len(payload)} bytes, header implies {expected}")
    return np.frombuffer(payload, dtype="<u2").reshape(h, w), k
