"""Differentiable array operations: each returns a Tensor wired with a backward closure.

Layout conventions: feature maps are [C, H, W], time-major sequences [L, C]
(embedding frames [T, D]), vectors [F]. Every op the training path calls also
takes an optional leading batch axis: [N, C, H, W] maps, [N, L, C] sequences,
[N, F] vectors. The N samples of a batch run through one node independently,
and a weight's gradient is the sum over them; a sample without the batch axis
runs the same code as a batch of one. Where the rank alone does not
say which axis an op acts on, the op counts from the end: channel ops work on
axis -3, ``linear`` on the last axis, and ``concat`` takes the axis. A batched
``softmax_cross_entropy`` returns the sum of the per-sample losses. Training
runs each mini-batch as chunks of segments whose graphs fit one byte budget,
``training.CHUNK_BYTES``. Convolutions use cross-correlation semantics. All ops
follow the dtype of their inputs, so the same graph runs in float32 for
training and in float64 for finite-difference verification.

How the convolutions are computed:

- ``conv2d`` is stride 1 only, over one flat padded-width layout (implicit
  GEMM; Chellapilla et al. 2006, Vasudevan et al. 2017). Each sample's input
  is placed at (p, p) in a zero [C, Hb, Wp] map, Hb = H+2p+1, Wp = W+2p,
  built without ``np.pad`` (``_bordered``). The window of kernel tap (di, dj)
  over a sample's whole output is then one contiguous slice of the flattened
  map, starting at d*(di*Wp + dj) and Ho*Wp long. Outputs come out Wp wide;
  the last Wp - Wo columns of each row are dropped once, by one crop into a
  fresh map. The spare zero row keeps the last tap's slice in bounds.
- Dense ``conv2d`` (``groups == 1``) stacks the samples' bordered maps end to
  end, [C_in, N*Hb*Wp], so that one slice per tap still covers every sample:
  it starts where sample 0's does and runs (N-1)*Hb*Wp + Ho*Wp long, and the
  outputs that straddle two samples are dropped with the crop. It is one GEMM
  each way: forward fills a transient column matrix [C_in*kh*kw, span] with
  one slice copy per tap. Backward widens ``gy`` once into that span, zero in
  the dropped columns and rows, and uses it for both GEMMs; the column
  gradient goes back by one slice-add per tap into one flat zero map, cropped
  once. Column matrices are rebuilt in backward, never kept on the graph. A
  1x1 unpadded conv multiplies each sample's input, reshaped to [C_in, H*W],
  directly.
- Depthwise ``conv2d`` (``groups == C_in == C_out``) has no GEMM to form; it
  loops over the kernel taps, one multiply-add per tap and slice, over the
  N*C planes in blocks small enough (``DEPTHWISE_BLOCK_BYTES``) that the tap
  temporaries stay in cache. im2col would take kh*kw times the map's memory.
  Backward reuses the tap loop: the input gradient is that loop run over
  ``gy`` in the same layout, in a zero border d*(k-1) - p wide, with the taps
  reversed; the weight gradient's per-tap contractions run over the same
  slices in the same block pass.
- Other groupings are not supported.
- ``conv1d`` is time-major with window = stride = k: [L, C_in] -> [L // k,
  C_out]. Its column matrix is a free reshape of the input, [N*(L // k),
  k*C_in], multiplied by the kernel reordered to [k*C_in, C_out]; backward's
  input gradient is the reshape back.

Backward closures hand the gradients they allocate themselves to their
inputs without a copy (``accumulate_grad(g, owned=True)``, see
:mod:`pcq.tensor`); a gradient that is ``gy`` or a view of it is copied.
"""

from functools import lru_cache

import numpy as np

from .errors import InvalidInput, ShapeError
from .tensor import Tensor, make_node

# target size of one channel block of the depthwise tap loop: about one
# channel plane of a 300x200 float32 map, well inside a core's L2 cache
DEPTHWISE_BLOCK_BYTES = 256 * 1024


# ---------------------------------------------------------------------------
# convolutions


def conv2d(x: Tensor, w: Tensor, padding: int = 0, dilation: int = 1, groups: int = 1) -> Tensor:
    """Stride-1 2-D cross-correlation of a [(N,) C_in, H, W] map with a [C_out, C_in/groups, kh, kw] kernel.

    ``groups`` must be 1 (dense) or C_in with C_out == C_in (depthwise).
    """
    if x.ndim not in (3, 4) or w.ndim != 4:
        raise ShapeError(f"conv2d expects a rank-3 or rank-4 input and a rank-4 weight, "
                         f"got {x.shape} and {w.shape}")
    c_in, h, wd = x.shape[-3:]
    c_out, c_in_g, kh, kw = w.shape
    if groups == 1:
        if c_in_g != c_in:
            raise ShapeError(f"weight expects {c_in_g} input channels, got {c_in}")
    elif not (groups == c_in == c_out and c_in_g == 1):
        raise ShapeError(f"conv2d supports groups=1 or depthwise (groups == C_in == C_out), "
                         f"got groups={groups} for {c_in}->{c_out} channels")
    ho = h + 2 * padding - dilation * (kh - 1)
    wo = wd + 2 * padding - dilation * (kw - 1)
    if ho < 1 or wo < 1:
        raise ShapeError(f"conv2d output would be empty for input {x.shape}")
    if groups != 1:
        return _depthwise_conv2d(x, w, padding, dilation, ho, wo)
    if kh == kw == 1 and padding == 0:
        return _pointwise_conv2d(x, w)
    return _dense_conv2d(x, w, padding, dilation, ho, wo)


def _flat_bordered(a: np.ndarray, top: int, left: int, height: int, width: int) -> np.ndarray:
    """a at (top, left) in a zero [P, height + 1, width] map, viewed as [P, (height + 1) * width].

    The spare zero row keeps the slice of the last kernel tap in bounds.
    """
    return _bordered(a, top, left, height + 1, width).reshape(a.shape[0], -1)


def _tap_offsets(kh: int, kw: int, width: int, dilation: int) -> list:
    """Flat offset of each kernel tap, in row-major tap order, in a map `width` wide."""
    return [dilation * (di * width + dj) for di in range(kh) for dj in range(kw)]


def _crop(flat: np.ndarray, width: int, top: int, left: int, rows: int, cols: int) -> np.ndarray:
    """Fresh [P, rows, cols] copy of the window at (top, left) of a flat map `width` wide."""
    grid = flat.reshape(flat.shape[0], -1, width)
    return np.ascontiguousarray(grid[:, top: top + rows, left: left + cols])


def _sample_windows(flat: np.ndarray, n: int, stride: int, rows: int, cols: int, width: int) -> np.ndarray:
    """[n, C, rows, cols] view of a C-contiguous flat [C, L] map holding n samples end to end.

    Sample i's window starts at column i * stride and its rows are `width` apart.
    """
    s = flat.itemsize
    return np.ndarray((n, flat.shape[0], rows, cols), flat.dtype, flat, 0,
                      (stride * s, flat.strides[0], width * s, s))


def _pointwise_conv2d(x, w):
    c_in, h, wd = x.shape[-3:]
    c_out = w.shape[0]
    x2 = x.data.reshape(-1, c_in, h * wd)
    w2 = w.data.reshape(c_out, c_in)
    out = (w2 @ x2).reshape(x.shape[:-3] + (c_out, h, wd))

    def backward(gy):
        gy2 = gy.reshape(-1, c_out, h * wd)
        if w.requires_grad:
            w.accumulate_grad((gy2 @ x2.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape), owned=True)
        if x.requires_grad:
            x.accumulate_grad((w2.T @ gy2).reshape(x.shape), owned=True)

    return make_node(out, (x, w), backward)


def _dense_conv2d(x, w, padding, dilation, ho, wo):
    xb = x.data.reshape((-1,) + x.shape[-3:]).transpose(1, 0, 2, 3)   # [C_in, N, H, W]
    c_in, nb, h, wd = xb.shape
    c_out, _, kh, kw = w.shape
    wp = wd + 2 * padding
    stride = (h + 2 * padding + 1) * wp   # one sample's bordered map, spare row included
    span = (nb - 1) * stride + ho * wp     # every sample's outputs, Wp wide
    taps = _tap_offsets(kh, kw, wp, dilation)
    xf = _bordered(xb, padding, padding, h + 2 * padding + 1, wp).reshape(c_in, -1)

    def columns():
        cols = np.empty((c_in, len(taps), span), dtype=x.dtype)
        for t, s in enumerate(taps):
            cols[:, t] = xf[:, s: s + span]
        return cols.reshape(c_in * len(taps), span)

    w2 = w.data.reshape(c_out, -1)
    out = np.ascontiguousarray(_sample_windows(w2 @ columns(), nb, stride, ho, wo, wp))
    out = out.reshape(x.shape[:-3] + out.shape[1:])

    def backward(gy):
        gyw = np.zeros((c_out, span), dtype=gy.dtype)   # dropped outputs take no gradient
        _sample_windows(gyw, nb, stride, ho, wo, wp)[...] = gy.reshape(nb, c_out, ho, wo)
        if w.requires_grad:
            w.accumulate_grad((gyw @ columns().T).reshape(w.shape), owned=True)
        if x.requires_grad:
            gcols = (w2.T @ gyw).reshape(c_in, len(taps), span)
            gxf = np.zeros_like(xf)
            for t, s in enumerate(taps):
                gxf[:, s: s + span] += gcols[:, t]
            gx = gxf.reshape(c_in, nb, -1, wp)[:, :, padding: padding + h, padding: padding + wd]
            x.accumulate_grad(np.ascontiguousarray(gx.transpose(1, 0, 2, 3)).reshape(x.shape), owned=True)

    return make_node(out, (x, w), backward)


def _channel_blocks(c: int, plane_bytes: int):
    """Contiguous plane slices of about DEPTHWISE_BLOCK_BYTES each."""
    step = max(1, DEPTHWISE_BLOCK_BYTES // plane_bytes)
    return [slice(c0, min(c0 + step, c)) for c0 in range(0, c, step)]


def _depthwise_taps(src, taps, n, wt, blk, ob, tb):
    """ob = sum over taps t of src[blk, taps[t]:][:n] * wt[blk, t], one multiply-add per tap."""
    for t, s in enumerate(taps):
        if t == 0:
            np.multiply(src[blk, s: s + n], wt[blk, t], out=ob)
        else:
            ob += np.multiply(src[blk, s: s + n], wt[blk, t], out=tb)


def _bordered(a: np.ndarray, top: int, left: int, height: int, width: int) -> np.ndarray:
    """a [..., h, w] placed at (top, left) in a zero [..., height, width] map; a negative offset crops a."""
    (r0, r1, sr), (c0, c1, sc) = _span(top, a.shape[-2], height), _span(left, a.shape[-1], width)
    out = np.empty(a.shape[:-2] + (height, width), dtype=a.dtype)
    out[..., :r0, :] = 0
    out[..., r1:, :] = 0
    out[..., r0:r1, :c0] = 0
    out[..., r0:r1, c1:] = 0
    out[..., r0:r1, c0:c1] = a[..., sr: sr + r1 - r0, sc: sc + c1 - c0]
    return out


def _span(offset: int, n: int, size: int):
    """(first, end) rows written and the first row read when n rows land at offset in size rows."""
    dst, src = max(offset, 0), max(-offset, 0)
    return dst, dst + min(n - src, size - dst), src


def _depthwise_conv2d(x, w, padding, dilation, ho, wo):
    c, h, wd = x.shape[-3:]
    planes = x.data.reshape(-1, h, wd)   # the N*C planes, each with its channel's kernel
    nb = planes.shape[0] // c
    _, _, kh, kw = w.shape
    wp = wd + 2 * padding
    n = ho * wp   # outputs per plane, Wp wide
    taps = _tap_offsets(kh, kw, wp, dilation)
    xf = _flat_bordered(planes, padding, padding, h + 2 * padding, wp)
    wt = w.data[:, 0].reshape(c, kh * kw, 1)   # per-plane tap coefficients
    if nb > 1:
        wt = np.tile(wt, (nb, 1, 1))
    # the input gradient is the same tap loop, taps reversed, over gy in a zero
    # border dilation*(k-1) - padding wide: a map gwd wide, h*gwd outputs per plane
    gwd = wd + dilation * (kw - 1)
    gn = h * gwd
    blocks = _channel_blocks(planes.shape[0], max(n, gn) * x.dtype.itemsize)

    outw = np.empty((planes.shape[0], n), dtype=x.dtype)
    tmp = np.empty((blocks[0].stop, n), dtype=x.dtype)
    for blk in blocks:
        _depthwise_taps(xf, taps, n, wt, blk, outw[blk], tmp[: blk.stop - blk.start])
    out = _crop(outw, wp, 0, 0, ho, wo).reshape(x.shape[:-2] + (ho, wo))

    def backward(gy):
        gyf = _flat_bordered(gy.reshape(-1, ho, wo), dilation * (kh - 1) - padding,
                             dilation * (kw - 1) - padding, h + dilation * (kh - 1), gwd)
        if 2 * padding == dilation * (kh - 1) == dilation * (kw - 1):
            # "same" padding: gy sits at (p, p) in a map Wp wide, so the flat
            # slice from there is gy widened to Wp, zero in the dropped columns
            gyw = gyf[:, padding * (wp + 1): padding * (wp + 1) + n]
        else:
            gyw = _bordered(gy.reshape(-1, ho, wo), 0, 0, ho, wp).reshape(-1, n)
        if x.requires_grad:
            gtaps = _tap_offsets(kh, kw, gwd, dilation)
            gxw = np.empty((planes.shape[0], gn), dtype=x.dtype)
            tmp = np.empty((blocks[0].stop, gn), dtype=x.dtype)
        if w.requires_grad:
            gw = np.empty((planes.shape[0], kh * kw), dtype=w.dtype)
        for blk in blocks:
            if x.requires_grad:
                _depthwise_taps(gyf, gtaps, gn, wt[:, ::-1], blk, gxw[blk], tmp[: blk.stop - blk.start])
            if w.requires_grad:
                for t, s in enumerate(taps):
                    gw[blk, t] = np.einsum("cq,cq->c", gyw[blk], xf[blk, s: s + n])
        if x.requires_grad:
            x.accumulate_grad(_crop(gxw, gwd, 0, 0, h, wd).reshape(x.shape), owned=True)
        if w.requires_grad:
            w.accumulate_grad(gw.reshape(nb, c, kh * kw).sum(axis=0).reshape(w.shape), owned=True)

    return make_node(out, (x, w), backward)


def conv1d(x: Tensor, w: Tensor) -> Tensor:
    """1-D cross-correlation of a time-major [(N,) L, C_in] sequence with a [C_out, C_in, k] kernel.

    Windows do not overlap (window = stride = k), so the output is [(N,) L // k, C_out];
    trailing samples that fill no window are ignored.
    """
    if x.ndim not in (2, 3) or w.ndim != 3:
        raise ShapeError(f"conv1d expects a rank-2 or rank-3 input and a rank-3 weight, "
                         f"got {x.shape} and {w.shape}")
    length, c_in = x.shape[-2:]
    c_out, c_in_w, k = w.shape
    if c_in_w != c_in:
        raise ShapeError(f"weight expects {c_in_w} input channels, got {c_in}")
    lo = length // k
    if lo < 1:
        raise ShapeError(f"conv1d output would be empty for input length {length}")
    xb = x.data.reshape(-1, length, c_in)
    cols = xb[:, : lo * k].reshape(-1, k * c_in)               # row i: window i, tap-major
    w2 = w.data.transpose(2, 1, 0).reshape(k * c_in, c_out)   # [tap, channel] x C_out
    out = (cols @ w2).reshape(x.shape[:-2] + (lo, c_out))

    def backward(gy):
        gy2 = gy.reshape(-1, c_out)
        if w.requires_grad:
            gw = (cols.T @ gy2).reshape(k, c_in, c_out).transpose(2, 1, 0)
            w.accumulate_grad(np.ascontiguousarray(gw), owned=True)
        if x.requires_grad:
            gx = (gy2 @ w2.T).reshape(xb.shape[0], lo * k, c_in)
            if lo * k < length:   # trailing samples take no gradient
                tail = np.zeros((xb.shape[0], length - lo * k, c_in), dtype=gx.dtype)
                gx = np.concatenate([gx, tail], axis=1)
            x.accumulate_grad(gx.reshape(x.shape), owned=True)

    return make_node(out, (x, w), backward)


# ---------------------------------------------------------------------------
# resampling and pooling


@lru_cache(maxsize=64)
def _interp_matrix(in_size: int, out_size: int, dtype: np.dtype) -> np.ndarray:
    """Read-only [out, in] linear-interpolation matrix with half-pixel centres (align_corners=False)."""
    src = (np.arange(out_size) + 0.5) * in_size / out_size - 0.5
    src = np.clip(src, 0.0, in_size - 1)
    lo = np.floor(src).astype(np.int64)
    hi = np.minimum(lo + 1, in_size - 1)
    frac = src - lo
    m = np.zeros((out_size, in_size))
    rows = np.arange(out_size)
    np.add.at(m, (rows, lo), 1.0 - frac)
    np.add.at(m, (rows, hi), frac)
    m = m.astype(dtype)
    m.flags.writeable = False
    return m


def _check_map(op: str, x: Tensor):
    if x.ndim not in (3, 4):
        raise ShapeError(f"{op} expects a [C, H, W] or [N, C, H, W] map, got {x.shape}")


def bilinear_resize(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Bilinear interpolation of a [(N,) C, H, W] map to [(N,) C, out_h, out_w] (align_corners=False)."""
    _check_map("bilinear_resize", x)
    if out_h < 1 or out_w < 1:
        raise ShapeError("target size must be >= 1")
    h, w = x.shape[-2:]
    rm = _interp_matrix(h, out_h, x.dtype)
    cm = _interp_matrix(w, out_w, x.dtype)
    out = rm @ x.data @ cm.T

    def backward(gy):
        if x.requires_grad:
            x.accumulate_grad(rm.T @ gy @ cm)

    return make_node(out, (x,), backward)


@lru_cache(maxsize=64)
def _pool_matrix(in_size: int, out_size: int):
    """Row-stochastic bin-average matrix [out, in] with floor/ceil bin edges."""
    m = np.zeros((out_size, in_size))
    for i in range(out_size):
        lo = (i * in_size) // out_size
        hi = -((-(i + 1) * in_size) // out_size)  # ceil
        m[i, lo:hi] = 1.0 / (hi - lo)
    return m


def adaptive_avg_pool(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Average pooling of a [(N,) C, H, W] map onto a fixed [out_h, out_w] grid of integer bins."""
    _check_map("adaptive_avg_pool", x)
    h, w = x.shape[-2:]
    if out_h > h or out_w > w:
        raise ShapeError(f"adaptive_avg_pool cannot upsample {h}x{w} to {out_h}x{out_w}")
    rm = _pool_matrix(h, out_h).astype(x.dtype)
    cm = _pool_matrix(w, out_w).astype(x.dtype)
    out = np.einsum("qw,...pw->...pq", cm, np.einsum("ph,...hw->...pw", rm, x.data))

    def backward(gy):
        if x.requires_grad:
            gx = np.einsum("ph,...pw->...hw", rm, np.einsum("qw,...pq->...pw", cm, gy))
            x.accumulate_grad(gx)

    return make_node(out, (x,), backward)


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean of each channel map: [(N,) C, H, W] -> [(N,) C]."""
    _check_map("global_avg_pool", x)
    h, w = x.shape[-2:]
    out = x.data.mean(axis=(-2, -1), dtype=np.float64).astype(x.dtype)

    def backward(gy):
        if x.requires_grad:
            gx = np.empty_like(x.data)
            gx[...] = (gy / (h * w))[..., None, None]
            x.accumulate_grad(gx, owned=True)

    return make_node(out, (x,), backward)


def max_pool2x2(x: Tensor) -> Tensor:
    """2x2 max pooling of a [(N,) C, H, W] map with stride 2; trailing odd rows/columns are dropped (floor)."""
    _check_map("max_pool2x2", x)
    h, w = x.shape[-2:]
    ho, wo = h // 2, w // 2
    if ho < 1 or wo < 1:
        raise ShapeError(f"map {h}x{w} too small for 2x2 pooling")
    # window corners in row-major order: (0,0), (0,1), (1,0), (1,1)
    corners = [(r, c) for r in (0, 1) for c in (0, 1)]

    def view(arr, r, c):
        return arr[..., r: 2 * ho: 2, c: 2 * wo: 2]

    d = x.data
    out = np.maximum(np.maximum(view(d, 0, 0), view(d, 0, 1)), np.maximum(view(d, 1, 0), view(d, 1, 1)))

    def backward(gy):
        if x.requires_grad:
            gx = np.zeros_like(d)
            free = np.ones(out.shape, dtype=bool)   # windows whose max is not yet routed
            for r, c in corners:
                hit = view(d, r, c) == out
                hit &= free
                free &= ~hit
                np.multiply(gy, hit, out=view(gx, r, c))   # the first corner equal to the max wins ties
            x.accumulate_grad(gx, owned=True)

    return make_node(out, (x,), backward)


# ---------------------------------------------------------------------------
# dense, activations, elementwise


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map of the last axis: [..., N] -> [..., M] with weight [M, N]."""
    if w.ndim != 2:
        raise ShapeError(f"linear weight must be rank 2, got {w.shape}")
    m, n = w.shape
    if x.ndim < 1 or x.shape[-1] != n:
        raise ShapeError(f"linear expects {n} input features, got {x.shape}")
    x2 = x.data.reshape(-1, n)
    out = (x2 @ w.data.T).reshape(x.shape[:-1] + (m,))
    if b is not None:
        if b.shape != (m,):
            raise ShapeError(f"bias must have shape ({m},), got {b.shape}")
        out = out + b.data

    def backward(gy):
        gy2 = gy.reshape(-1, m)
        if w.requires_grad:
            w.accumulate_grad(gy2.T @ x2)
        if x.requires_grad:
            x.accumulate_grad((gy2 @ w.data).reshape(x.shape))
        if b is not None and b.requires_grad:
            b.accumulate_grad(gy2.sum(axis=0))

    parents = (x, w) if b is None else (x, w, b)
    return make_node(out, parents, backward)


def relu(x: Tensor, inplace: bool = False) -> Tensor:
    """max(x, 0). inplace=True writes the result into x's data: only for a fresh
    output that nothing but this relu reads (the conv or linear right before it)."""
    out = np.maximum(x.data, 0, out=x.data if inplace else None)

    def backward(gy):
        if x.requires_grad:
            x.accumulate_grad(gy * (out > 0), owned=True)

    return make_node(out, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ez = np.exp(d[~pos])
    out[~pos] = ez / (1.0 + ez)

    def backward(gy):
        if x.requires_grad:
            x.accumulate_grad(gy * out * (1.0 - out))

    return make_node(out, (x,), backward)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum gradient over axes that were broadcast to reach g's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _mul_grad(gy: np.ndarray, other: np.ndarray, shape) -> np.ndarray:
    """Fresh gradient of one factor of a product: gy * other, summed over its broadcast axes.

    A map's [(N,) C, 1, 1] or [(N,) 1, H, W] factor (the SE gate, the pooled
    query) takes one contraction instead of a full-size product and a sum.
    """
    if gy.ndim in (3, 4) and other.shape == gy.shape:
        if shape == gy.shape[:-2] + (1, 1):
            return np.einsum("...hw,...hw->...", gy, other).reshape(shape)
        if shape == gy.shape[:-3] + (1,) + gy.shape[-2:]:
            return np.einsum("...chw,...chw->...hw", gy, other).reshape(shape)
    return _unbroadcast(gy * other, shape)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product with numpy broadcasting (e.g. [C,H,W] * [C,1,1] or * [1,H,W])."""
    try:
        out = a.data * b.data
    except ValueError as exc:
        raise ShapeError(f"cannot broadcast {a.shape} with {b.shape}") from exc

    def backward(gy):
        if a.requires_grad:
            a.accumulate_grad(_mul_grad(gy, b.data, a.shape), owned=True)
        if b.requires_grad:
            b.accumulate_grad(_mul_grad(gy, a.data, b.shape), owned=True)

    return make_node(out, (a, b), backward)


def scale(x: Tensor, s: float) -> Tensor:
    out = x.data * x.dtype.type(s)

    def backward(gy):
        if x.requires_grad:
            x.accumulate_grad(gy * x.dtype.type(s))

    return make_node(out, (x,), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    """Concatenate along one axis (0: channels of a map or features of a vector; -3 or -1 with a batch axis)."""
    tensors = list(tensors)
    try:
        out = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as exc:   # also numpy's AxisError
        raise ShapeError(f"concat along axis {axis} needs tensors of one rank with matching dims "
                         f"off that axis, got {[t.shape for t in tensors]}") from exc
    axis %= out.ndim
    sizes = [t.shape[axis] for t in tensors]

    def backward(gy):
        off = 0
        for t, n in zip(tensors, sizes):
            if t.requires_grad:
                t.accumulate_grad(gy[(slice(None),) * axis + (slice(off, off + n),)])
            off += n

    return make_node(out, tuple(tensors), backward)


def slice_channels(x: Tensor, start: int, stop: int) -> Tensor:
    """Channels start:stop of a [(N,) C, H, W] map."""
    _check_map("slice_channels", x)
    out = x.data[..., start:stop, :, :].copy()

    def backward(gy):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            gx[..., start:stop, :, :] = gy
            x.accumulate_grad(gx, owned=True)

    return make_node(out, (x,), backward)


def mean_channels(x: Tensor) -> Tensor:
    """Mean over the channel axis of a [(N,) C, H, W] map, keeping one channel."""
    _check_map("mean_channels", x)
    c = x.shape[-3]
    out = x.data.mean(axis=-3, keepdims=True)

    def backward(gy):
        if x.requires_grad:
            x.accumulate_grad(np.broadcast_to(gy / c, x.shape).astype(x.dtype))

    return make_node(out, (x,), backward)


def reshape(x: Tensor, shape) -> Tensor:
    out = x.data.reshape(shape)

    def backward(gy):
        if x.requires_grad:
            x.accumulate_grad(gy.reshape(x.shape))

    return make_node(out, (x,), backward)


def transpose2d(x: Tensor) -> Tensor:
    if x.ndim != 2:
        raise ShapeError(f"transpose2d expects rank 2, got {x.shape}")
    out = x.data.T.copy()

    def backward(gy):
        if x.requires_grad:
            x.accumulate_grad(gy.T.copy())

    return make_node(out, (x,), backward)


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when not training or p == 0."""
    if not 0.0 <= p < 1.0:
        raise InvalidInput(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    mask = (rng.random(x.shape) >= p).astype(x.dtype) / x.dtype.type(1.0 - p)
    out = x.data * mask

    def backward(gy):
        if x.requires_grad:
            x.accumulate_grad(gy * mask)

    return make_node(out, (x,), backward)


def softmax_cross_entropy(logits: Tensor, label) -> Tensor:
    """Cross-entropy of softmax(logits) against integer labels, max-subtracted for stability.

    [K] logits and one label give that sample's loss; [N, K] logits and N
    labels give the sum of the N samples' losses.
    """
    if logits.ndim not in (1, 2):
        raise ShapeError(f"logits must be rank 1 or 2, got {logits.shape}")
    k = logits.shape[-1]
    labels = np.asarray(label, dtype=np.int64).reshape(-1)
    rows = np.arange(labels.size)
    if labels.size != logits.data.reshape(-1, k).shape[0]:
        raise ShapeError(f"{labels.size} labels for logits of shape {logits.shape}")
    if not np.all((labels >= 0) & (labels < k)):
        raise InvalidInput(f"label {label} outside [0, {k})")
    z = logits.data.reshape(-1, k)
    z = z - z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    total = ez.sum(axis=1, keepdims=True)
    probs = ez / total
    loss = (np.log(total[:, 0]) - z[rows, labels]).sum()

    def backward(gy):
        if logits.requires_grad:
            g = probs.copy()
            g[rows, labels] -= 1.0
            logits.accumulate_grad((g * gy.reshape(())).reshape(logits.shape), owned=True)

    return make_node(np.asarray(loss, dtype=logits.dtype).reshape(()), (logits,), backward)


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    """Plain numpy softmax used for clip-level aggregation of segment scores."""
    z = logits - logits.max()
    ez = np.exp(z)
    return ez / ez.sum()
