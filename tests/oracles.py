"""Independent reference implementations used to check the package.

Everything here is deliberately written the slow, obvious way (explicit
loops, extended precision) and shares no code with hsimvt, except the four
test-only ops at the end, which put their adjoints on hsimvt's tape, and
the BLAS thread hold that :func:`mpca_float64_reference` runs under.
"""

import numpy as np

from hsimvt._blas import one_blas_thread
from hsimvt.errors import DimensionError
from hsimvt.tensor import record_op


def conv3d_loop(x, kernels, bias):
    """Zero-padded correlation of (H,W,C) with (K,k1,k2,k3), kernel-major concat."""
    h, w, c = x.shape
    nk, k1, k2, k3 = kernels.shape
    p1, p2, p3 = k1 // 2, k2 // 2, k3 // 2
    out = np.zeros((h, w, nk * c), dtype=np.float64)
    for kk in range(nk):
        for i in range(h):
            for j in range(w):
                for l in range(c):
                    acc = 0.0
                    for a in range(k1):
                        for b in range(k2):
                            for d in range(k3):
                                ii, jj, ll = i + a - p1, j + b - p2, l + d - p3
                                if 0 <= ii < h and 0 <= jj < w and 0 <= ll < c:
                                    acc += x[ii, jj, ll] * kernels[kk, a, b, d]
                    out[i, j, kk * c + l] = acc + bias[kk]
    return out


def conv2d_loop(x, kernels, bias):
    """Zero-padded spatial correlation of (H,W,C) with (K,kh,kw,C)."""
    h, w, c = x.shape
    nk, kh, kw, _ = kernels.shape
    ph, pw = kh // 2, kw // 2
    out = np.zeros((h, w, nk), dtype=np.float64)
    for kk in range(nk):
        for i in range(h):
            for j in range(w):
                acc = 0.0
                for a in range(kh):
                    for b in range(kw):
                        ii, jj = i + a - ph, j + b - pw
                        if 0 <= ii < h and 0 <= jj < w:
                            for l in range(c):
                                acc += x[ii, jj, l] * kernels[kk, a, b, l]
                out[i, j, kk] = acc + bias[kk]
    return out


def extract_patch(source, h, w, patch_size):
    """P x P window of an (H,W,C) raster centred on (h, w), zero off the raster."""
    height, width, channels = source.shape
    margin = patch_size // 2
    out = np.zeros((patch_size, patch_size, channels), dtype=source.dtype)
    for i in range(patch_size):
        for j in range(patch_size):
            r, c = h + i - margin, w + j - margin
            if 0 <= r < height and 0 <= c < width:
                out[i, j, :] = source[r, c, :]
    return out


def jacobi_eigh(matrix, sweeps=100):
    """Cyclic Jacobi eigendecomposition of a symmetric matrix in longdouble.

    Returns (eigenvalues descending, eigenvectors as columns), both
    longdouble.
    """
    a = np.array(matrix, dtype=np.longdouble)
    n = a.shape[0]
    vecs = np.eye(n, dtype=np.longdouble)
    for _ in range(sweeps):
        off = np.longdouble(0)
        for p in range(n - 1):
            for q in range(p + 1, n):
                off += a[p, q] * a[p, q]
        if off < np.longdouble(1e-36):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2 * a[p, q])
                if theta == 0:
                    t = np.longdouble(1)
                else:
                    t = np.sign(theta) / (np.abs(theta) + np.sqrt(theta * theta + 1))
                c = 1 / np.sqrt(t * t + 1)
                s = t * c
                rot = np.eye(n, dtype=np.longdouble)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                vecs = vecs @ rot
    order = np.argsort(np.diag(a))[::-1]
    return np.diag(a)[order], vecs[:, order]


def fix_signs_oracle(vectors):
    """Same convention as the package, written independently: for each
    column, find the first entry of largest magnitude; negate the column if
    that entry is negative."""
    out = np.array(vectors, copy=True)
    for j in range(out.shape[1]):
        best, best_mag = 0, -1.0
        for i in range(out.shape[0]):
            mag = abs(float(out[i, j]))
            if mag > best_mag:
                best, best_mag = i, mag
        if out[best, j] < 0:
            out[:, j] = -out[:, j]
    return out


def pca_project_oracle(samples, components):
    """Project (N, M) samples on their top principal components, longdouble.

    Mean/covariance (N-1 divisor) -> Jacobi eigensolver -> descending sort
    -> sign fix -> (x - mean) @ vectors. Returns (projected (N, d) float64,
    eigenvalues (d,) float64, vectors (M, d) float64).
    """
    x = np.array(samples, dtype=np.longdouble)
    n = x.shape[0]
    mean = x.sum(axis=0) / n
    centered = x - mean
    cov = (centered.T @ centered) / (n - 1)
    eigenvalues, vectors = jacobi_eigh(cov)
    vectors = fix_signs_oracle(vectors[:, :components])
    projected = centered @ vectors
    return (projected.astype(np.float64), eigenvalues[:components].astype(np.float64),
            vectors.astype(np.float64))


# The package's long-row width (`hsimvt.mpca._MEAN_ROWS`), written out so that
# changing it, which changes every mean's bits, fails the bit-for-bit tests
MPCA_MEAN_ROWS = 128


def long_row_mean(samples):
    """Column means of (N, M) samples in MPCA's summation order: row i of
    every block of ``MPCA_MEAN_ROWS`` sample rows (the last block may be
    short) added, block by block, into partial row i; the partial rows then
    added in pairs, first half plus second half, until one is left; over N.
    """
    n, m = samples.shape
    partial = np.zeros((MPCA_MEAN_ROWS, m))
    for start in range(0, n, MPCA_MEAN_ROWS):
        block = samples[start:start + MPCA_MEAN_ROWS]
        partial[:len(block)] += block
    while len(partial) > 1:
        half = len(partial) // 2
        partial = partial[:half] + partial[half:]
    return partial[0] / n


def mpca_float64_reference(values, num_views, components):
    """Multiview PCA as first written: cast the whole cube to float64, zero-pad
    the band axis to whole groups, fancy-index each interleaved view, fit and
    apply each view's PCA, concatenate view-major, cast to float32. The mean
    is :func:`long_row_mean`. OpenBLAS is held at one thread, as in
    ``mpca``, whose covariance bits depend on the count for some view widths.

    Returns (H x W x num_views*components float32, [(mean, projection,
    eigenvalues)] per view), meant to match the package bit for bit.
    """
    values = values.astype(np.float64)
    bands = values.shape[2]
    groups = -(-bands // num_views)
    values = np.pad(values, ((0, 0), (0, 0), (0, groups * num_views - bands)))
    parts, fitted = [], []
    with one_blas_thread():
        for n in range(num_views):
            view = np.ascontiguousarray(values[:, :, np.arange(groups) * num_views + n])
            samples = view.reshape(-1, groups)
            mean = long_row_mean(samples)
            centered = samples - mean
            cov = (centered.T @ centered) / (samples.shape[0] - 1)
            eigenvalues, vectors = np.linalg.eigh(cov)
            order = np.argsort(eigenvalues)[::-1][:components]
            projection = fix_signs_oracle(vectors[:, order])
            fitted.append((mean, projection, np.maximum(eigenvalues[order], 0.0)))
            parts.append(((samples - mean) @ projection).reshape(*view.shape[:2], components))
    return np.concatenate(parts, axis=2).astype(np.float32), fitted


def stratified_split_loop(ids, num_classes, fractions, seed):
    """Per-class seeded split, one pixel at a time, as first written.

    Class c's row-major pixels are permuted by the c-th
    ``rng.permutation`` draw; the first round-half-up(f_train*n) (at least
    1) go to train, the next round-half-up(f_val*n) (at least 1 when f_val
    > 0, capped by what is left) to val, the rest to test. Returns the
    int8 assignment map (1 train, 2 val, 3 test, 0 unlabeled) and the
    number of classes with fewer than 3 pixels.
    """
    f_train, f_val, _ = fractions
    rng = np.random.default_rng(seed)
    assignment = np.zeros(ids.shape, dtype=np.int8)
    small = 0
    for c in range(1, num_classes + 1):
        coords = [(h, w) for h in range(ids.shape[0]) for w in range(ids.shape[1])
                  if ids[h, w] == c]
        n = len(coords)
        small += n < 3
        order = rng.permutation(n)
        n_train = min(n, max(1, int(np.floor(f_train * n + 0.5))))
        n_val = min(n - n_train, max(1, int(np.floor(f_val * n + 0.5)))) if f_val > 0 else 0
        for rank, i in enumerate(order):
            h, w = coords[i]
            assignment[h, w] = 1 if rank < n_train else 2 if rank < n_train + n_val else 3
    return assignment, small


def softmax_rows_longdouble(x):
    z = np.array(x, dtype=np.longdouble)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy_longdouble(logits, labels):
    """Mean -log softmax[label], labels 1-based, computed in longdouble."""
    z = np.array(logits, dtype=np.longdouble)
    z = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1))
    idx = np.asarray(labels) - 1
    picked = z[np.arange(z.shape[0]), idx]
    return float((log_norm - picked).mean())


def attention_longdouble(tokens, wq, wk, wv):
    """softmax(Q K^T / sqrt(d)) V computed step by step in longdouble."""
    t = np.array(tokens, dtype=np.longdouble)
    q = t @ np.array(wq, dtype=np.longdouble)
    k = t @ np.array(wk, dtype=np.longdouble)
    v = t @ np.array(wv, dtype=np.longdouble)
    d = np.longdouble(wq.shape[1])
    logits = (q @ k.T) / np.sqrt(d)
    return (softmax_rows_longdouble(logits) @ v).astype(np.float64)


def adam_trace_scalar(grad_fn, x0, steps, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook bias-corrected Adam on one scalar; returns the visited xs."""
    x, m, v = float(x0), 0.0, 0.0
    xs = []
    for t in range(1, steps + 1):
        g = grad_fn(x)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        x = x - lr * m_hat / (v_hat ** 0.5 + eps)
        xs.append(x)
    return xs


def adam_per_array(arrays, grads, first, second, t, lr, beta1, beta2, eps):
    """Adam as first written: one in-place update per named array, with the
    moments ``first``/``second`` keyed by the same names."""
    for name, p in arrays.items():
        g, m, v = grads[name], first[name], second[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p -= lr * ((m / (1.0 - beta1 ** t)) / (np.sqrt(v / (1.0 - beta2 ** t)) + eps))


def assert_flat_views(params):
    """Every parameter's data and grad are views into ``params.values`` and
    ``params.grads``, and no two parameters overlap."""
    named = params.named_parameters()
    assert sum(t.data.size for _, t in named) == params.values.size == params.grads.size
    for i, (name, t) in enumerate(named):
        assert np.shares_memory(t.data, params.values), f"{name}.data"
        assert np.shares_memory(t.grad, params.grads), f"{name}.grad"
        for other, u in named[i + 1:]:
            assert not np.shares_memory(t.data, u.data), f"{name} and {other} overlap"
            assert not np.shares_memory(t.grad, u.grad), f"{name} and {other} grads overlap"


def quadrant_means_loop(feature):
    """Tokenizer oracle: per-channel means of the four overlapping quadrants
    of a (P, P, C) array, order top-left, top-right, bottom-left,
    bottom-right."""
    p, _, c = feature.shape
    center = p // 2
    spans = [(range(0, center + 1), range(0, center + 1)),
             (range(0, center + 1), range(center, p)),
             (range(center, p), range(0, center + 1)),
             (range(center, p), range(center, p))]
    tokens = []
    for rows, cols in spans:
        token = np.zeros(c, dtype=np.float64)
        for ch in range(c):
            acc, cnt = 0.0, 0
            for i in rows:
                for j in cols:
                    acc += float(feature[i, j, ch])
                    cnt += 1
            token[ch] = acc / cnt
        tokens.append(token)
    return tokens


def box_mean_per_box(x, boxes):
    """Box means of an (N, H, W, C) array, one box at a time: (N, len(boxes), C).

    Each box is flattened row-major and summed with the mirrored-pair fold
    (element i plus element count-1-i, then the middle one), then divided
    by its pixel count; boxes may differ in size.
    """
    n, _, _, c = x.shape
    out = np.empty((n, len(boxes), c), dtype=x.dtype)
    for i, ((r0, r1), (c0, c1)) in enumerate(boxes):
        count = (r1 - r0) * (c1 - c0)
        flat = x[:, r0:r1, c0:c1, :].reshape(n, count, c)
        half = count // 2
        if half:
            total = (flat[:, :half] + flat[:, count - 1:count - 1 - half:-1]).sum(axis=1)
            if count % 2:
                total = total + flat[:, half]
        else:
            total = flat[:, 0]
        np.divide(total, count, out=out[:, i])
    return out


def box_mean_per_box_grad(x, boxes, go):
    """Input gradient of :func:`box_mean_per_box` for the output gradient
    ``go``: each box's share added into one array, last box first."""
    gx = np.zeros_like(x)
    for i in reversed(range(len(boxes))):
        (r0, r1), (c0, c1) = boxes[i]
        gx[:, r0:r1, c0:c1, :] += (go[:, i] / ((r1 - r0) * (c1 - c0)))[:, None, None, :]
    return gx


def confusion_loop(true_ids, predicted_ids, num_classes):
    out = np.zeros((num_classes, num_classes), dtype=np.int64)
    for t, p in zip(true_ids, predicted_ids):
        out[t - 1, p - 1] += 1
    return out


def synth_scene_reference(seed, height, width, bands, num_classes, noise_sigma):
    """Whole-array synthetic scene: (float32 values, int64 ids) in one draw.

    Every intermediate is a full-scene array: an (H, W, K) distance array,
    the gathered float64 spectra and one standard_normal draw of the whole
    cube.
    """
    rng = np.random.default_rng(seed)
    sites = rng.choice(height * width, size=num_classes, replace=False)
    site_rows = sites // width
    site_cols = sites % width

    rows = np.arange(height)[:, None]
    cols = np.arange(width)[None, :]
    dist2 = (rows[..., None] - site_rows) ** 2 + (cols[..., None] - site_cols) ** 2
    ids = dist2.argmin(axis=2).astype(np.int64) + 1

    band_axis = np.arange(bands, dtype=np.float64)
    centers = (np.arange(1, num_classes + 1) - 0.5) * bands / num_classes
    spread = bands / (4.0 * num_classes)
    spectra = np.exp(-((band_axis[None, :] - centers[:, None]) ** 2) / (2.0 * spread ** 2))

    values = spectra[ids - 1].astype(np.float64)
    if noise_sigma > 0:
        values = values + noise_sigma * rng.standard_normal(values.shape)
    return values.astype(np.float32), ids


def read_ppm(path):
    """(H, W, 3) uint8 pixels of a binary PPM (P6, maxval 255) whose header
    fields are separated by single newlines, as the package writes them."""
    with open(path, "rb") as f:
        raw = f.read()
    magic, size, maxval, pixels = raw.split(b"\n", 3)
    assert magic == b"P6" and maxval == b"255", raw[:32]
    w, h = (int(v) for v in size.split())
    assert len(pixels) == h * w * 3, (len(pixels), h, w)
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w, 3)


def add(a, b):
    """Elementwise sum of two same-shape tensors, as a taped op whose adjoint
    returns ``go`` itself for both inputs."""
    if a.data.shape != b.data.shape:
        raise DimensionError(f"add shapes disagree: {a.data.shape} vs {b.data.shape}")
    return record_op(a.data + b.data, (a, b), lambda go, need: (go, go))


def reshape(x, shape):
    """``x`` with a new shape, as a taped op whose adjoint returns a view of
    ``go``."""
    return record_op(x.data.reshape(tuple(shape)), (x,),
                     lambda go, need: (go.reshape(x.data.shape),))


def mul(a, b):
    """Elementwise product of two same-shape tensors, as a taped op."""
    if a.data.shape != b.data.shape:
        raise DimensionError(f"mul shapes disagree: {a.data.shape} vs {b.data.shape}")
    return record_op(a.data * b.data, (a, b), lambda go, need: (
        go * b.data if need[0] else None,
        go * a.data if need[1] else None))


def sum_all(x):
    """Sum of all elements, as a scalar tensor on the tape."""
    return record_op(x.data.sum(), (x,), lambda go, need: (np.full_like(x.data, go),))
