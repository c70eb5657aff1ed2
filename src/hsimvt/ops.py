"""Forward ops and their adjoints for the tensor engine.

All ops accept and return :class:`~hsimvt.tensor.Tensor`. Convolutions and
pooling take batched patches laid out as (N, H, W, C), channels last.
Each op computes its output and hands it, with its inputs and its adjoint,
to :func:`~hsimvt.tensor.record_op`, which puts the adjoint on the tape
while a :class:`~hsimvt.tensor.GradGraph` is active and any input requires
a gradient. ``conv3d`` asks :func:`~hsimvt.tensor.records` first: a call
that will record no adjoint does not keep its window matrix.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import ConfigError, DimensionError
from .tensor import Tensor, record_op, records

# conv2d's forward runs tap by tap (:func:`_conv2d_by_tap`) once its corner
# tap's product takes at least this many multiply-adds; smaller products stay
# one batched product folded by :func:`_fold`: tap by tap, their per-tap
# calls cost more than the skipped products save, and small blocks would
# reach BLAS kernels that round differently.
TAP_PRODUCT_MIN = 2 ** 21

# A conv3d forward that records no adjoint builds its window matrix in blocks
# of whole patches that fit this many bytes (:func:`_conv3d_blocks`): 8
# patches of the default 5x5x30 float32 input, about 650 KB. Set by timing
# batch-256 forwards of the default model at 4, 8, 16 and 32 patches a block.
_CONV3D_BLOCK_BYTES = 5 * 2 ** 17


def _taps(a: np.ndarray, kshape) -> np.ndarray:
    """Zero-padded sliding-window view of a batched (N, H, W, C) array.

    ``kshape`` holds odd window extents for axes 1, 2 and, with a third
    entry, 3 (the channel axis). Each of those axes is padded by half its
    extent, so the view keeps the input's size: it has layout
    (N, H, W, *kshape, C), and ``view[..., *t, :]`` reads the input shifted
    by ``t - kshape // 2``. Nothing is copied beyond the padding. This is
    the package's one window builder: it serves the conv3d forward, the
    conv2d backward and, with N = 1, the patch cuboids of
    :class:`~hsimvt.data.PatchSource`.
    """
    m = len(kshape)
    pads = [k // 2 for k in kshape] + [0] * (3 - m)
    padded = np.zeros(a.shape[:1] + tuple(s + 2 * p for s, p in zip(a.shape[1:], pads)),
                      dtype=a.dtype)
    padded[(slice(None),) + tuple(slice(p, p + s) for p, s in zip(pads, a.shape[1:]))] = a
    st = padded.strides
    view = np.ndarray(a.shape[:3] + tuple(kshape) + a.shape[3:], a.dtype, buffer=padded,
                      strides=st[:3] + st[1:1 + m] + st[3:])
    view.flags.writeable = False
    return view


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
        block = flat[dst]
        block += taps[tap, src]
    return flat.reshape(grid)


def conv3d(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """Correlation with 3-D kernels sliding over rows, columns and channels.

    Each of the K kernels emits a full C-channel map (channel axis is
    zero-padded like the spatial axes), and the K maps are concatenated
    kernel-major along the channel axis: output (N, H, W, K*C).

    The window matrix keeps the channel axis innermost, (N*H*W, k1*k2*k3, C),
    so one batched product with the (K, k1*k2*k3) kernel matrix writes the
    kernel-major output directly. Only the adjoint reads that matrix again,
    so a call that records none (see :func:`~hsimvt.tensor.records`) and
    whose batch spans more than one block of :data:`_CONV3D_BLOCK_BYTES`
    builds it a block of whole patches at a time (at least one patch) in
    one reused buffer, and multiplies each block into its slice of the
    output. Every output pixel is the same (K, k1*k2*k3) @ (k1*k2*k3, C)
    product either way, so both give the same bits.
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
    rows, taps = h * w, k1 * k2 * k3
    wmat = kd.reshape(nk, taps)
    bias_c = bias.data.repeat(c)  # kernel-major, like the output channels
    windows = _taps(xd, ktaps)
    inputs = (x, kernels, bias)
    if not records(inputs):
        step = max(1, _CONV3D_BLOCK_BYTES // max(1, rows * taps * c * xd.itemsize))
        if step < n:
            return Tensor(_conv3d_blocks(windows, wmat, bias_c, step))
    cols = np.ascontiguousarray(windows).reshape(n * rows, taps, c)
    out = np.matmul(wmat, cols).reshape(n * rows, nk * c)
    out += bias_c

    def adjoint(go, need):
        god = go.reshape(n * rows, nk, c)
        gx = gk = gb = None
        if need[1]:
            gk = np.matmul(god, cols.transpose(0, 2, 1)).sum(axis=0).reshape(kd.shape)
        if need[2]:
            gb = god.sum(axis=0).sum(axis=1)
        if need[0]:
            gcols = wmat.T @ np.moveaxis(god, 1, 0).reshape(nk, -1)
            gx = _fold(gcols.reshape(ktaps + (n, h, w, c)), ktaps)
        return gx, gk, gb

    return record_op(out.reshape(n, h, w, nk * c), inputs, adjoint)


def _conv3d_blocks(windows: np.ndarray, wmat: np.ndarray, bias: np.ndarray,
                   step: int) -> np.ndarray:
    """conv3d's forward over the (N, H, W, k1, k2, k3, C) ``windows`` view,
    ``step`` >= 1 whole patches at a time: each block is copied into one
    reused buffer, multiplied by the (K, k1*k2*k3) ``wmat`` into its slice
    of the output, and given the kernel-major ``bias``. Returns
    (N, H, W, K*C)."""
    n, h, w = windows.shape[:3]
    c, rows = windows.shape[-1], h * w
    nk, taps = wmat.shape
    out = np.empty((n * rows, nk * c), np.result_type(wmat, windows))
    cols = np.empty((step * rows, taps, c), windows.dtype)
    for i in range(0, n, step):
        part = windows[i:i + step]
        block = cols[:len(part) * rows]
        np.copyto(block.reshape(part.shape), part)
        dst = out[i * rows:i * rows + len(block)]
        np.matmul(wmat, block, out=dst.reshape(len(block), nk, c))
        dst += bias
    return out.reshape(n, h, w, nk * c)


def _conv2d_by_tap(xd: np.ndarray, wtaps: np.ndarray, ktaps: tuple,
                   bias: np.ndarray) -> np.ndarray:
    """conv2d's forward with each tap multiplied only by the pixels it reaches.

    Gives :func:`_fold`'s sums over the stacked tap products ``wtaps``
    (kh*kw, C, K) without the products that land outside a patch, in the
    same order: the centre tap over the whole grid, then every other tap
    in row-major order, then the bias. The input is copied once to
    spatial-major (H, W*N, C) order, where the pixels that tap t moves by
    t - k//2 and keeps inside are one block of whole rows per patch row,
    so each tap is one batched product on that block, added into its
    destination box. Returns a new (N, H, W, K) array.
    """
    n, h, w, cin = xd.shape
    kh, kw = ktaps
    xs = np.ascontiguousarray(xd.transpose(1, 2, 0, 3)).reshape(h, w * n, cin)
    centre = (kh * kw - 1) // 2
    acc = (xs.reshape(-1, cin) @ wtaps[centre]).reshape(h, w * n, -1)
    for tap, (i, j) in enumerate(itertools.product(range(kh), range(kw))):
        di, dj = i - kh // 2, j - kw // 2
        rows, cols = h - abs(di), w - abs(dj)
        if tap == centre or rows <= 0 or cols <= 0:
            continue
        r, c = max(-di, 0), max(-dj, 0) * n
        src = xs[r:r + rows, c:c + cols * n]
        r, c = max(di, 0), max(dj, 0) * n
        acc[r:r + rows, c:c + cols * n] += np.matmul(src, wtaps[tap])
    out = np.empty((n, h, w, acc.shape[2]), dtype=acc.dtype)
    np.add(acc.reshape(h, w, n, -1).transpose(2, 0, 1, 3), bias, out=out)
    return out


def conv2d(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """Spatial correlation over all input channels; output (N, H, W, K).

    Computed on the output side, so no window of the (C-wide) input is ever
    copied: every input pixel is multiplied by each of the kh*kw kernel taps
    and the K-wide products are folded onto the pixels they reach. A product
    of at least :data:`TAP_PRODUCT_MIN` multiply-adds at its corner tap
    skips the products that would land outside a patch, with the same bits.
    The backward pass takes windows of the (K-wide) output gradient instead.
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
    if n * max(h - kh // 2, 0) * max(w - kw // 2, 0) * cin * nk >= TAP_PRODUCT_MIN:
        out = _conv2d_by_tap(xd, wtaps, ktaps, bias.data)
    else:
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
    """out[i, j] = sum_k x[i, k] * weight[k, j] + bias[j]: (N, ...) -> (N, J),
    where k runs over every axis of ``x`` after the first, flattened row-major."""
    shape, wd, bd = x.data.shape, weight.data, bias.data
    if len(shape) < 2 or wd.ndim != 2:
        raise DimensionError(f"affine expects (N, ...) input and 2-D weight, "
                             f"got {shape} and {wd.shape}")
    xd = x.data.reshape(shape[0], math.prod(shape[1:]))
    if xd.shape[1] != wd.shape[0] or bd.shape != (wd.shape[1],):
        raise DimensionError(f"affine shapes disagree: {shape} @ {wd.shape} + {bd.shape}")
    return record_op(xd @ wd + bd, (x, weight, bias), lambda go, need: (
        (go @ wd.T).reshape(shape) if need[0] else None,
        xd.T @ go if need[1] else None,
        go.sum(axis=0) if need[2] else None))


def attention(tokens: Tensor, wqkv: Tensor) -> Tensor:
    """Multi-head scaled dot-product self-attention with its residual, one op.

    ``tokens`` is (N, T, C) and ``wqkv`` is (heads, 3, C, d) with
    heads * d = C: head h has Q = tokens @ wqkv[h, 0],
    K = tokens @ wqkv[h, 1], V = tokens @ wqkv[h, 2] and computes
    softmax(Q K^T / sqrt(d)) V. The output is the heads concatenated along
    the channel axis plus the tokens, (N, T, C). Every projection of every
    head comes from one (N*T, C) @ (C, heads*3*d) product, and the backward
    pass reuses it the same way.
    """
    td, wd = tokens.data, wqkv.data
    if td.ndim != 3:
        raise DimensionError(f"attention tokens must be (N,T,C), got {td.shape}")
    n, t, c = td.shape
    if wd.ndim != 4 or wd.shape[1:3] != (3, c) or wd.shape[0] * wd.shape[3] != c:
        raise DimensionError(f"attention weights must be (heads,3,{c},d) with heads*d = {c}, "
                             f"got {wd.shape}")
    heads, d = wd.shape[0], wd.shape[3]
    s = 1.0 / math.sqrt(d)
    x = td.reshape(n * t, c)
    w = wd.transpose(2, 0, 1, 3).reshape(c, heads * 3 * d)
    # Views of layout (N, heads, T, d) into the one projection product.
    q, k, v = (x @ w).reshape(n, t, heads, 3, d).transpose(3, 0, 2, 1, 4)
    a = np.matmul(q, k.swapaxes(-1, -2))
    a *= s
    a -= a.max(axis=-1, keepdims=True)
    np.exp(a, out=a)
    a /= a.sum(axis=-1, keepdims=True)
    out = np.matmul(a, v).transpose(0, 2, 1, 3).reshape(n, t, c)
    out += td

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
        return ((gp @ w.T).reshape(n, t, c) + go if need[0] else None,
                (x.T @ gp).reshape(c, heads, 3, d).transpose(1, 2, 0, 3) if need[1] else None)

    return record_op(out, (tokens, wqkv), adjoint)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x)."""
    xd = x.data
    return record_op(np.maximum(xd, 0), (x,), lambda go, need: (go * (xd > 0),))


def prepend_row(row: Tensor, tokens: Tensor) -> Tensor:
    """Put the (C,) ``row`` in front of every (N, T, C) token block: (N, T+1, C)."""
    rd, td = row.data, tokens.data
    if td.ndim != 3 or rd.shape != td.shape[2:]:
        raise DimensionError(f"prepend_row needs a (C,) row and (N,T,C) tokens, "
                             f"got {rd.shape} and {td.shape}")
    n, t, c = td.shape
    out = np.empty((n, t + 1, c), dtype=td.dtype)
    out[:, 0] = rd
    out[:, 1:] = td
    return record_op(out, (row, tokens), lambda go, need: (
        np.ascontiguousarray(go[:, :1]).sum(axis=(0, 1)) if need[0] else None,
        go[:, 1:]))


@functools.lru_cache(maxsize=64)
def _box_plan(h: int, w: int, boxes: tuple) -> tuple:
    """(index, count) for :func:`box_mean`: the read-only (len(boxes), count)
    flat pixel index of every box, each row-major, on an (h, w) extent.
    Raises DimensionError for no box, a box outside, or mixed sizes."""
    if not boxes:
        raise DimensionError("box_mean needs at least one box")
    for (r0, r1), (c0, c1) in boxes:
        if not (0 <= r0 < r1 <= h and 0 <= c0 < c1 <= w):
            raise DimensionError(f"box ({(r0, r1)}, {(c0, c1)}) outside spatial extent {(h, w)}")
    sizes = {(r1 - r0, c1 - c0) for (r0, r1), (c0, c1) in boxes}
    if len(sizes) > 1:
        raise DimensionError(f"box_mean boxes must share one size, got {sorted(sizes)}")
    pixels = np.arange(h * w).reshape(h, w)
    index = np.stack([pixels[r0:r1, c0:c1].reshape(-1) for (r0, r1), (c0, c1) in boxes])
    index.flags.writeable = False
    return index, index.shape[1]


def box_mean(x: Tensor, boxes) -> Tensor:
    """Per-channel means over spatial windows of one size, one per box.

    ``boxes`` is a sequence of ((r0, r1), (c0, c1)) tuples (hashable: the
    gather plan is cached on them), the windows rows r0:r1 x cols c0:c1,
    all of one size. Input (N, H, W, C) -> output (N, len(boxes), C). One
    ``take`` gathers every box into a C-order (N, boxes, count, C) array,
    so each box's sums run in the order that pooling it alone would give;
    a fancy index ``x[:, index]`` would lay the gather out index-major and
    change one-channel sums. Each box is summed with a fold (element i
    paired with element count-1-i of its row-major flattening) so its mean
    is bit-identical when the window content is reversed on both spatial
    axes; plain sequential summation would not be. The backward pass adds
    the boxes into one gradient, last box first.
    """
    xd = x.data
    if xd.ndim != 4:
        raise DimensionError(f"box_mean input must be (N,H,W,C), got {xd.shape}")
    n, h, w, c = xd.shape
    boxes = tuple(boxes)
    index, count = _box_plan(h, w, boxes)
    flat = xd.reshape(n, h * w, c).take(index, axis=1)
    half = count // 2
    if half:
        total = (flat[:, :, :half] + flat[:, :, count - 1:count - 1 - half:-1]).sum(axis=2)
        if count % 2:
            total += flat[:, :, half]
        total /= count
    else:
        total = flat[:, :, 0]

    def adjoint(go, need):
        gx = np.zeros_like(xd)
        g = go / count
        for i in reversed(range(len(boxes))):
            (r0, r1), (c0, c1) = boxes[i]
            gx[:, r0:r1, c0:c1, :] += g[:, i, None, None, :]
        return (gx,)

    return record_op(total, (x,), adjoint)
