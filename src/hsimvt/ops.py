"""Forward ops and their adjoints for the tensor engine.

All ops accept and return :class:`~hsimvt.tensor.Tensor`. Convolutions and
pooling take batched patches laid out as (N, H, W, C), channels last.
Each op computes its output and hands it, with its inputs and its adjoint,
to :func:`~hsimvt.tensor.record_op`, which puts the adjoint on the tape
while a :class:`~hsimvt.tensor.GradGraph` is active and any input requires
a gradient.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigError, DimensionError
from .tensor import Tensor, record_op


def _taps(a: np.ndarray, kshape) -> np.ndarray:
    """Zero-padded sliding-window view of a batched (N, H, W, C) array.

    ``kshape`` holds odd window extents for axes 1, 2 and, with a third
    entry, 3 (the channel axis). Each of those axes is padded by half its
    extent, so the view keeps the input's size: it has layout
    (N, H, W, *kshape, C), and ``view[..., *t, :]`` reads the input shifted
    by ``t - kshape // 2``. Nothing is copied beyond the padding.
    """
    m = len(kshape)
    pads = [k // 2 for k in kshape] + [0] * (3 - m)
    padded = np.zeros(a.shape[:1] + tuple(s + 2 * p for s, p in zip(a.shape[1:], pads)),
                      dtype=a.dtype)
    padded[(slice(None),) + tuple(slice(p, p + s) for p, s in zip(pads, a.shape[1:]))] = a
    st = padded.strides
    return as_strided(padded, a.shape[:3] + tuple(kshape) + a.shape[3:],
                      st[:3] + st[1:1 + m] + st[3:], writeable=False)


@functools.lru_cache(maxsize=64)
def _fold_plan(kshape: tuple, grid: tuple) -> tuple:
    """What :func:`_fold` does for one kernel shape and block shape.

    Returns (centre, edges, adds) on the (*kshape, *grid) windows with the
    taps flattened row-major. ``centre`` is the centre tap. ``edges`` index
    the entries that would cross a block edge, one slab per kernel axis and
    off-centre position along it. ``adds`` holds, for every other tap in
    order, (tap, destination slice, source slice) on the flattened block;
    a tap whose shift leaves nothing inside is left out.
    """
    m = len(kshape)
    size = math.prod(grid)
    steps = [math.prod(grid[axis + 1:]) for axis in range(1, m + 1)]
    centre = tuple(k // 2 for k in kshape)
    edges = []
    for axis, (k, c) in enumerate(zip(kshape, centre)):
        for i in range(k):
            if i != c:
                index = [slice(None)] * (m + len(grid))
                index[axis] = i
                extent = grid[axis + 1]
                index[m + axis + 1] = slice(max(extent - (i - c), 0), None) if i > c \
                    else slice(None, c - i)
                edges.append(tuple(index))
    adds = []
    for tap, t in enumerate(itertools.product(*map(range, kshape))):
        offset = sum((i - c) * step for i, c, step in zip(t, centre, steps))
        n = size - abs(offset)
        if t != centre and n > 0:
            adds.append((tap, slice(offset, None), slice(None, n)) if offset >= 0 else
                        (tap, slice(None, n), slice(-offset, None)))
    return (math.prod(kshape) - 1) // 2, tuple(edges), tuple(adds)


def _fold(cols: np.ndarray, kshape: tuple) -> np.ndarray:
    """Adjoint of :func:`_taps` (col2im), taking the windows tap-major.

    ``cols`` has layout (*kshape, N, H, W, C) and is overwritten. Tap ``t``
    adds its (N, H, W, C) block onto the entries shifted by
    ``t - kshape // 2`` along axes 1, 2 (and 3); what would land outside is
    dropped. On the flattened block that shift is a single offset, so each
    tap is one contiguous add once the entries that would cross an edge are
    zeroed. The slices for this come from :func:`_fold_plan`, worked out
    once per shape. Returns a new (N, H, W, C) array.
    """
    grid = cols.shape[len(kshape):]
    centre, edges, adds = _fold_plan(kshape, grid)
    for edge in edges:
        cols[edge] = 0
    taps = cols.reshape(math.prod(kshape), -1)
    flat = taps[centre].copy()
    for tap, dst, src in adds:
        flat[dst] += taps[tap, src]
    return flat.reshape(grid)


def conv3d(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """Correlation with 3-D kernels sliding over rows, columns and channels.

    Each of the K kernels emits a full C-channel map (channel axis is
    zero-padded like the spatial axes), and the K maps are concatenated
    kernel-major along the channel axis: output (N, H, W, K*C).

    The window matrix keeps the channel axis innermost, (N*H*W, k1*k2*k3, C),
    so one batched product with the (K, k1*k2*k3) kernel matrix writes the
    kernel-major output directly.
    """
    xd = x.data
    if xd.ndim != 4:
        raise DimensionError(f"conv3d input must be (N,H,W,C), got {xd.shape}")
    kd = kernels.data
    if kd.ndim != 4:
        raise DimensionError(f"conv3d kernels must be (K,k1,k2,k3), got {kd.shape}")
    nk, k1, k2, k3 = kd.shape
    if k1 % 2 == 0 or k2 % 2 == 0 or k3 % 2 == 0:
        raise ConfigError(f"conv3d kernel extents must be odd, got {(k1, k2, k3)}")
    if bias.data.shape != (nk,):
        raise DimensionError(f"conv3d bias must be ({nk},), got {bias.data.shape}")
    n, h, w, c = xd.shape

    ktaps = (k1, k2, k3)
    cols = np.ascontiguousarray(_taps(xd, ktaps)).reshape(n * h * w, k1 * k2 * k3, c)
    wmat = kd.reshape(nk, -1)
    out = np.matmul(wmat, cols)  # (n*h*w, nk, c): kernel-major channels
    out += bias.data[:, None]

    def adjoint(go, need):
        god = go.reshape(n * h * w, nk, c)
        gx = gk = gb = None
        if need[1]:
            gk = np.matmul(god, cols.transpose(0, 2, 1)).sum(axis=0).reshape(kd.shape)
        if need[2]:
            gb = god.sum(axis=0).sum(axis=1)
        if need[0]:
            gcols = wmat.T @ np.moveaxis(god, 1, 0).reshape(nk, -1)
            gx = _fold(gcols.reshape(ktaps + (n, h, w, c)), ktaps)
        return gx, gk, gb

    return record_op(out.reshape(n, h, w, nk * c), (x, kernels, bias), adjoint)


def conv2d(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """Spatial correlation over all input channels; output (N, H, W, K).

    Computed on the output side, so no window of the (C-wide) input is ever
    copied: every input pixel is multiplied by each of the kh*kw kernel taps
    and the K-wide products are folded onto the pixels they reach. The
    backward pass takes windows of the (K-wide) output gradient instead.
    """
    xd = x.data
    if xd.ndim != 4:
        raise DimensionError(f"conv2d input must be (N,H,W,C), got {xd.shape}")
    kd = kernels.data
    if kd.ndim != 4:
        raise DimensionError(f"conv2d kernels must be (K,kh,kw,C), got {kd.shape}")
    nk, kh, kw, cin = kd.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ConfigError(f"conv2d kernel extents must be odd, got {(kh, kw)}")
    if xd.shape[3] != cin:
        raise DimensionError(f"conv2d input has {xd.shape[3]} channels, kernels expect {cin}")
    if bias.data.shape != (nk,):
        raise DimensionError(f"conv2d bias must be ({nk},), got {bias.data.shape}")
    n, h, w, _ = xd.shape

    ktaps = (kh, kw)
    xm = xd.reshape(-1, cin)
    # Kernel tap t reads the pixel t - k//2 away, so its product must move the
    # other way: _fold moves stacked tap t by t - k//2, hence the flip.
    wtaps = kd[:, ::-1, ::-1].transpose(1, 2, 3, 0).reshape(kh * kw, cin, nk)
    out = _fold(np.matmul(xm, wtaps).reshape(ktaps + (n, h, w, nk)), ktaps)
    out += bias.data

    def adjoint(go, need):
        gcols = np.ascontiguousarray(_taps(go, ktaps)).reshape(-1, kh * kw * nk)
        gx = gk = gb = None
        if need[1]:
            gk = (xm.T @ gcols).reshape(cin, kh, kw, nk)[:, ::-1, ::-1].transpose(3, 1, 2, 0)
        if need[2]:
            gb = go.reshape(-1, nk).sum(axis=0)
        if need[0]:
            gx = (gcols @ wtaps.transpose(0, 2, 1).reshape(-1, cin)).reshape(n, h, w, cin)
        return gx, gk, gb

    return record_op(out, (x, kernels, bias), adjoint)


def affine(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """out[i, j] = sum_k x[i, k] * weight[k, j] + bias[j]."""
    xd, wd, bd = x.data, weight.data, bias.data
    if xd.ndim != 2 or wd.ndim != 2:
        raise DimensionError(f"affine expects 2-D input and weight, got {xd.shape} and {wd.shape}")
    if xd.shape[1] != wd.shape[0] or bd.shape != (wd.shape[1],):
        raise DimensionError(f"affine shapes disagree: {xd.shape} @ {wd.shape} + {bd.shape}")
    return record_op(xd @ wd + bd, (x, weight, bias), lambda go, need: (
        go @ wd.T if need[0] else None,
        xd.T @ go if need[1] else None,
        go.sum(axis=0) if need[2] else None))


def attention(tokens: Tensor, wqkv: Tensor) -> Tensor:
    """Multi-head scaled dot-product self-attention, all heads in one op.

    ``tokens`` is (N, T, C) and ``wqkv`` is (heads, 3, C, d): head h has
    Q = tokens @ wqkv[h, 0], K = tokens @ wqkv[h, 1], V = tokens @ wqkv[h, 2]
    and computes softmax(Q K^T / sqrt(d)) V. The heads are concatenated
    along the channel axis, so the output is (N, T, heads * d). Every
    projection of every head comes from one (N*T, C) @ (C, heads*3*d)
    product, and the backward pass reuses it the same way.
    """
    td, wd = tokens.data, wqkv.data
    if td.ndim != 3:
        raise DimensionError(f"attention tokens must be (N,T,C), got {td.shape}")
    n, t, c = td.shape
    if wd.ndim != 4 or wd.shape[1:3] != (3, c):
        raise DimensionError(f"attention weights must be (heads,3,{c},d), got {wd.shape}")
    heads, d = wd.shape[0], wd.shape[3]
    s = 1.0 / math.sqrt(d)
    x = td.reshape(n * t, c)
    w = wd.transpose(2, 0, 1, 3).reshape(c, heads * 3 * d)
    # Views of layout (N, heads, T, d) into the one projection product.
    q, k, v = (x @ w).reshape(n, t, heads, 3, d).transpose(3, 0, 2, 1, 4)
    logits = np.matmul(q, k.swapaxes(-1, -2)) * s
    a = np.exp(logits - logits.max(axis=-1, keepdims=True))
    a /= a.sum(axis=-1, keepdims=True)
    out = np.matmul(a, v).transpose(0, 2, 1, 3).reshape(n, t, heads * d)

    def adjoint(go, need):
        gheads = go.reshape(n, t, heads, d).transpose(0, 2, 1, 3)
        ga = np.matmul(gheads, v.swapaxes(-1, -2))
        gl = a * (ga - (ga * a).sum(axis=-1, keepdims=True)) * s
        gp = np.empty((n, t, heads, 3, d), dtype=td.dtype)
        gq, gk, gv = gp.transpose(3, 0, 2, 1, 4)
        gq[...] = np.matmul(gl, k)
        gk[...] = np.matmul(gl.swapaxes(-1, -2), q)
        gv[...] = np.matmul(a.swapaxes(-1, -2), gheads)
        gp = gp.reshape(n * t, heads * 3 * d)
        return ((gp @ w.T).reshape(n, t, c) if need[0] else None,
                (x.T @ gp).reshape(c, heads, 3, d).transpose(1, 2, 0, 3) if need[1] else None)

    return record_op(out, (tokens, wqkv), adjoint)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x)."""
    xd = x.data
    return record_op(np.maximum(xd, 0), (x,), lambda go, need: (go * (xd > 0),))


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors."""
    if a.data.shape != b.data.shape:
        raise DimensionError(f"add shapes disagree: {a.data.shape} vs {b.data.shape}")
    return record_op(a.data + b.data, (a, b), lambda go, need: (go, go))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two same-shape tensors."""
    if a.data.shape != b.data.shape:
        raise DimensionError(f"mul shapes disagree: {a.data.shape} vs {b.data.shape}")
    return record_op(a.data * b.data, (a, b), lambda go, need: (
        go * b.data if need[0] else None,
        go * a.data if need[1] else None))


def reshape(x: Tensor, shape) -> Tensor:
    return record_op(x.data.reshape(tuple(shape)), (x,),
                     lambda go, need: (go.reshape(x.data.shape),))


def concat(tensors, axis: int) -> Tensor:
    """Concatenate along an existing axis."""
    tensors = list(tensors)

    def adjoint(go, need):
        moved = np.moveaxis(go, axis, 0)
        offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])
        return [np.moveaxis(moved[lo:hi], 0, axis) if wanted else None
                for wanted, lo, hi in zip(need, offsets[:-1], offsets[1:])]

    return record_op(np.concatenate([t.data for t in tensors], axis=axis), tensors, adjoint)


def box_mean(x: Tensor, boxes) -> Tensor:
    """Per-channel means over spatial windows, one per box.

    ``boxes`` lists ((r0, r1), (c0, c1)) windows rows r0:r1 x cols c0:c1.
    Input (N, H, W, C) -> output (N, len(boxes), C). Each window is summed
    with a fold (element i paired with element n-1-i of the row-major
    flattening) so its mean is bit-identical when the window content is
    reversed on both spatial axes; plain sequential summation would not be.
    The backward pass adds the boxes into one gradient, last box first.
    """
    xd = x.data
    if xd.ndim != 4:
        raise DimensionError(f"box_mean input must be (N,H,W,C), got {xd.shape}")
    n_batch, h, w, c = xd.shape
    boxes = list(boxes)
    if not boxes:
        raise DimensionError("box_mean needs at least one box")
    for (r0, r1), (c0, c1) in boxes:
        if not (0 <= r0 < r1 <= h and 0 <= c0 < c1 <= w):
            raise DimensionError(f"box ({(r0, r1)}, {(c0, c1)}) outside spatial extent {(h, w)}")
    out = np.empty((n_batch, len(boxes), c), dtype=xd.dtype)
    for i, ((r0, r1), (c0, c1)) in enumerate(boxes):
        count = (r1 - r0) * (c1 - c0)
        flat = xd[:, r0:r1, c0:c1, :].reshape(n_batch, count, c)
        half = count // 2
        if half:
            total = (flat[:, :half] + flat[:, count - 1:count - 1 - half:-1]).sum(axis=1)
            if count % 2:
                total = total + flat[:, half]
        else:
            total = flat[:, 0]
        np.divide(total, count, out=out[:, i])

    def adjoint(go, need):
        gx = np.zeros_like(xd)
        for i in reversed(range(len(boxes))):
            (r0, r1), (c0, c1) = boxes[i]
            gx[:, r0:r1, c0:c1, :] += (go[:, i] / ((r1 - r0) * (c1 - c0)))[:, None, None, :]
        return (gx,)

    return record_op(out, (x,), adjoint)


def tile_vector(v: Tensor, n: int) -> Tensor:
    """Repeat a length-C vector into an (n, 1, C) block."""
    vd = v.data
    if vd.ndim != 1:
        raise DimensionError(f"tile_vector expects a vector, got shape {vd.shape}")
    return record_op(np.ascontiguousarray(np.broadcast_to(vd, (n, 1, vd.shape[0]))), (v,),
                     lambda go, need: (go.sum(axis=(0, 1)),))


def sum_all(x: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    return record_op(x.data.sum(), (x,), lambda go, need: (np.full_like(x.data, go),))
