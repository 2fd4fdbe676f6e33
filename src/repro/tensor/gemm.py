"""GEMM-backed convolution kernels (the fast compute backend).

The einsum backend in :mod:`repro.tensor.conv` reduces a non-contiguous 6-D
strided patch view, which keeps numpy's inner loops strided and re-extracts
patches in every backward pass. This module instead lowers convolutions to
**im2col + one 2-D matmul**: patches are flattened to a contiguous
``(N·OH·OW, KH·KW·C)`` buffer once per forward, so the heavy lifting runs
through multithreaded BLAS, and the same column buffer is reused for the
weight gradient. The input gradient is one GEMM followed by a col2im
scatter over the (tiny) KH×KW kernel taps.

Depthwise convolutions do not map to a single GEMM; they use a
shift-and-scale scheme instead — one fused multiply-add per kernel tap over
contiguous slices — which avoids the 6-D einsum entirely.

A :class:`Workspace` recycles the large im2col/col2im scratch buffers
across training steps, so steady-state training stops churning the
allocator. Buffers are checked out per call (``take``/``give_back``), which
keeps concurrent checkouts of the same tag safe: a second ``take`` before
the first ``give_back`` simply allocates a fresh buffer.

Numerics match the einsum backend to well under 1e-5; see
``tests/test_tensor_gemm.py`` for the parity suite.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.errors import ReproError, ShapeError
from repro.tensor.conv import IntOrPair, _pad_input, as_pair, resolve_padding

__all__ = [
    "Workspace",
    "default_workspace",
    "conv2d_forward",
    "conv2d_backward_weight",
    "conv2d_backward_input",
    "depthwise_conv2d_forward",
    "depthwise_conv2d_backward_weight",
    "depthwise_conv2d_backward_input",
]


class Workspace:
    """A pool of reusable scratch buffers (float32 unless asked), keyed by tag.

    ``take(tag, n)`` returns a 1-D buffer with capacity ≥ ``n`` (callers
    slice and reshape it); ``give_back(tag, buf)`` returns it to the pool.
    Buffers that are never given back (e.g. inference forwards that drop
    their cache) are simply garbage collected — correctness never depends
    on the pool, only steady-state allocation traffic does.
    """

    #: Keep at most this many free buffers per tag (bounds pool growth when
    #: a model has many same-tagged layers of different sizes).
    MAX_FREE_PER_TAG = 8

    def __init__(self) -> None:
        self._free: Dict[str, List[np.ndarray]] = {}
        self.allocations = 0
        self.reuses = 0

    def take(self, tag: str, num_elements: int, dtype=np.float32) -> np.ndarray:
        """Check out a 1-D buffer of ``dtype`` with at least ``num_elements``."""
        free = self._free.get(tag)
        if free:
            # Prefer the smallest buffer that fits to keep big ones available.
            best = None
            for i, buf in enumerate(free):
                if (buf.dtype == dtype and buf.size >= num_elements
                        and (best is None or buf.size < free[best].size)):
                    best = i
            if best is not None:
                self.reuses += 1
                if obs.enabled():
                    obs.incr("workspace.reuse")
                return free.pop(best)
        self.allocations += 1
        if obs.enabled():
            obs.incr("workspace.alloc")
        return np.empty(num_elements, dtype=dtype)

    def give_back(self, tag: str, buffer: np.ndarray) -> None:
        """Return a buffer obtained from :meth:`take` to the pool."""
        free = self._free.setdefault(tag, [])
        if len(free) < self.MAX_FREE_PER_TAG:
            free.append(buffer)

    def pooled_bytes(self) -> int:
        return sum(buf.nbytes for bufs in self._free.values() for buf in bufs)

    def clear(self) -> None:
        self._free.clear()
        self.allocations = 0
        self.reuses = 0

    #: Same naming convention as the resource-model caches.
    reset = clear


_DEFAULT_WORKSPACE = Workspace()


def default_workspace() -> Workspace:
    """The process-wide workspace shared by all conv layers."""
    return _DEFAULT_WORKSPACE


class ConvCache:
    """Forward-pass state kept for the backward GEMMs.

    Holds the im2col column matrix (shared between the forward matmul and
    the weight gradient) plus the geometry needed for col2im. ``release()``
    returns the workspace buffer to the pool; it is idempotent, and using
    the cache afterwards raises a clear error rather than silently reading
    a recycled buffer (one backward pass per graph, as everywhere else in
    the engine).
    """

    __slots__ = ("cols", "_base", "_tag", "_workspace", "weight_shape")

    def __init__(
        self,
        cols: np.ndarray,
        base: Optional[np.ndarray],
        tag: str,
        workspace: Optional[Workspace],
        weight_shape: Tuple[int, int, int, int],
    ) -> None:
        self.cols = cols
        self._base = base
        self._tag = tag
        self._workspace = workspace
        self.weight_shape = weight_shape

    def columns(self) -> np.ndarray:
        if self.cols is None:
            raise ReproError(
                "conv im2col workspace was already released; a graph can only "
                "be differentiated once under the gemm backend"
            )
        return self.cols

    def release(self) -> None:
        if self._base is not None and self._workspace is not None:
            self._workspace.give_back(self._tag, self._base)
        self._base = None
        self.cols = None


def _check_conv_shapes(x: np.ndarray, weight: np.ndarray) -> None:
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError(f"conv2d expects 4-D input/weight, got {x.shape} / {weight.shape}")
    if x.shape[3] != weight.shape[2]:
        raise ShapeError(
            f"conv2d channel mismatch: input has {x.shape[3]} channels, "
            f"weight expects {weight.shape[2]}"
        )


def _im2col(
    x: np.ndarray,
    kh: int,
    kw: int,
    stride: IntOrPair,
    padding: str,
    workspace: Workspace,
    tag: str,
) -> Tuple[np.ndarray, Optional[np.ndarray], int, int, Tuple[int, int], Tuple[int, int]]:
    """Lower an NHWC input to a contiguous (N·OH·OW, KH·KW·C) matrix.

    Returns (cols, workspace_base, oh, ow, pad_h, pad_w); the base is None
    when no copy was needed (the 1×1 stride-1 fast path aliases the input).
    """
    n, h, w, c = x.shape
    sh, sw = as_pair(stride)
    pad_h, pad_w = resolve_padding(h, w, kh, kw, stride, padding)
    if (
        kh == 1
        and kw == 1
        and sh == 1
        and sw == 1
        and pad_h == (0, 0)
        and pad_w == (0, 0)
        and x.flags.c_contiguous
    ):
        # Pointwise conv: im2col is a pure reshape, no copy or workspace.
        return x.reshape(n * h * w, c), None, h, w, pad_h, pad_w

    x_padded = _pad_input(x, pad_h, pad_w)
    windows = np.lib.stride_tricks.sliding_window_view(x_padded, (kh, kw), axis=(1, 2))
    windows = windows[:, ::sh, ::sw]  # (N, OH, OW, C, KH, KW)
    oh, ow = windows.shape[1], windows.shape[2]
    num = n * oh * ow * kh * kw * c
    base = workspace.take(tag, num)
    cols6 = base[:num].reshape(n, oh, ow, kh, kw, c)
    # One strided gather: (N, OH, OW, C, KH, KW) -> contiguous (..., KH, KW, C)
    # so the flattened column order matches the (KH, KW, C, OC) weight layout.
    np.copyto(cols6, windows.transpose(0, 1, 2, 4, 5, 3))
    return cols6.reshape(n * oh * ow, kh * kw * c), base, oh, ow, pad_h, pad_w


def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    stride: IntOrPair,
    padding: str,
    workspace: Optional[Workspace] = None,
) -> Tuple[np.ndarray, ConvCache]:
    """Standard conv2d via im2col + BLAS matmul.

    Same contract as :func:`repro.tensor.conv.conv2d_forward`, except the
    cached object is a :class:`ConvCache` (column matrix) instead of the
    6-D patch view.
    """
    _check_conv_shapes(x, weight)
    workspace = workspace or _DEFAULT_WORKSPACE
    kh, kw = weight.shape[:2]
    out_channels = weight.shape[3]
    cols, base, oh, ow, _, _ = _im2col(x, kh, kw, stride, padding, workspace, "conv_cols")
    out = cols @ weight.reshape(kh * kw * weight.shape[2], out_channels)
    cache = ConvCache(cols, base, "conv_cols", workspace, weight.shape)
    return out.reshape(x.shape[0], oh, ow, out_channels), cache


def conv2d_backward_weight(cache: ConvCache, grad_out: np.ndarray) -> np.ndarray:
    """Weight gradient: one (KH·KW·C, P) × (P, OC) GEMM over the cached cols."""
    cols = cache.columns()
    out_channels = cache.weight_shape[3]
    grad2d = np.ascontiguousarray(grad_out.reshape(-1, out_channels))
    grad_weight = cols.T @ grad2d
    return grad_weight.reshape(cache.weight_shape)


def conv2d_backward_input(
    grad_out: np.ndarray,
    weight: np.ndarray,
    input_shape: Tuple[int, ...],
    stride: IntOrPair,
    padding: str,
    workspace: Optional[Workspace] = None,
) -> np.ndarray:
    """Input gradient: one GEMM into workspace, then a col2im scatter."""
    workspace = workspace or _DEFAULT_WORKSPACE
    kh, kw = weight.shape[:2]
    n, h, w, c = input_shape
    sh, sw = as_pair(stride)
    pad_h, pad_w = resolve_padding(h, w, kh, kw, stride, padding)
    oh, ow = grad_out.shape[1], grad_out.shape[2]
    out_channels = weight.shape[3]

    grad2d = np.ascontiguousarray(grad_out.reshape(-1, out_channels))
    weight2d = weight.reshape(kh * kw * c, out_channels)
    num = grad2d.shape[0] * kh * kw * c
    base = workspace.take("conv_dcols", num)
    dcols = base[:num].reshape(grad2d.shape[0], kh * kw * c)
    np.matmul(grad2d, weight2d.T, out=dcols)

    dcols6 = dcols.reshape(n, oh, ow, kh, kw, c)
    padded = np.zeros((n, h + sum(pad_h), w + sum(pad_w), c), dtype=np.float32)
    for i in range(kh):
        for j in range(kw):
            padded[:, i : i + sh * oh : sh, j : j + sw * ow : sw, :] += dcols6[:, :, :, i, j, :]
    workspace.give_back("conv_dcols", base)
    return padded[:, pad_h[0] : pad_h[0] + h, pad_w[0] : pad_w[0] + w, :]


class DepthwiseCache:
    """Padded input kept for the depthwise weight gradient.

    The kernel size is carried explicitly: it cannot be inferred from the
    padded extent when a "valid" conv leaves trailing rows/columns unused.
    """

    __slots__ = ("x_padded", "stride", "kernel")

    def __init__(
        self, x_padded: np.ndarray, stride: Tuple[int, int], kernel: Tuple[int, int]
    ) -> None:
        self.x_padded = x_padded
        self.stride = stride
        self.kernel = kernel

    def release(self) -> None:
        self.x_padded = None


def depthwise_conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    stride: IntOrPair,
    padding: str,
    workspace: Optional[Workspace] = None,
) -> Tuple[np.ndarray, DepthwiseCache]:
    """Depthwise conv via shift-and-scale: one FMA per kernel tap.

    Each tap multiplies a strided input slice by its per-channel weight into
    a contiguous scratch buffer and accumulates — no 6-D patch view, no
    einsum dispatch.
    """
    if weight.ndim != 3:
        raise ShapeError(f"depthwise weight must be (KH, KW, C), got {weight.shape}")
    if x.shape[3] != weight.shape[2]:
        raise ShapeError(
            f"depthwise channel mismatch: input {x.shape[3]} vs weight {weight.shape[2]}"
        )
    workspace = workspace or _DEFAULT_WORKSPACE
    kh, kw = weight.shape[:2]
    n, h, w, c = x.shape
    sh, sw = as_pair(stride)
    pad_h, pad_w = resolve_padding(h, w, kh, kw, stride, padding)
    x_padded = _pad_input(x, pad_h, pad_w)
    oh = (x_padded.shape[1] - kh) // sh + 1
    ow = (x_padded.shape[2] - kw) // sw + 1

    # Accumulate in the operands' type: float32 on the float path, float64
    # where the integer kernels pass float64 weights to keep wide sums exact.
    out = np.zeros((n, oh, ow, c), dtype=np.result_type(x_padded, weight))
    base = workspace.take("dw_scratch", out.size, out.dtype)
    scratch = base[: out.size].reshape(out.shape)
    for i in range(kh):
        for j in range(kw):
            tap = x_padded[:, i : i + sh * oh : sh, j : j + sw * ow : sw, :]
            np.multiply(tap, weight[i, j], out=scratch)
            out += scratch
    workspace.give_back("dw_scratch", base)
    return out, DepthwiseCache(x_padded, (sh, sw), (kh, kw))


def depthwise_conv2d_backward_weight(
    cache: DepthwiseCache, grad_out: np.ndarray, workspace: Optional[Workspace] = None
) -> np.ndarray:
    """Per-tap reduction of input-slice × output-grad products."""
    x_padded = cache.x_padded
    if x_padded is None:
        raise ReproError(
            "depthwise cache was already released; a graph can only be "
            "differentiated once under the gemm backend"
        )
    workspace = workspace or _DEFAULT_WORKSPACE
    sh, sw = cache.stride
    kh, kw = cache.kernel
    n, oh, ow, c = grad_out.shape
    grad_weight = np.empty((kh, kw, c), dtype=np.float32)
    base = workspace.take("dw_scratch", grad_out.size)
    scratch = base[: grad_out.size].reshape(grad_out.shape)
    for i in range(kh):
        for j in range(kw):
            tap = x_padded[:, i : i + sh * oh : sh, j : j + sw * ow : sw, :]
            np.multiply(tap, grad_out, out=scratch)
            grad_weight[i, j] = scratch.sum(axis=(0, 1, 2))
    workspace.give_back("dw_scratch", base)
    return grad_weight


def depthwise_conv2d_backward_input(
    grad_out: np.ndarray,
    weight: np.ndarray,
    input_shape: Tuple[int, ...],
    stride: IntOrPair,
    padding: str,
    workspace: Optional[Workspace] = None,
) -> np.ndarray:
    """Scatter each tap's weighted gradient back onto the input grid."""
    workspace = workspace or _DEFAULT_WORKSPACE
    kh, kw = weight.shape[:2]
    n, h, w, c = input_shape
    sh, sw = as_pair(stride)
    pad_h, pad_w = resolve_padding(h, w, kh, kw, stride, padding)
    padded = np.zeros((n, h + sum(pad_h), w + sum(pad_w), c), dtype=np.float32)
    oh, ow = grad_out.shape[1], grad_out.shape[2]
    base = workspace.take("dw_scratch", grad_out.size)
    scratch = base[: grad_out.size].reshape(grad_out.shape)
    for i in range(kh):
        for j in range(kw):
            np.multiply(grad_out, weight[i, j], out=scratch)
            padded[:, i : i + sh * oh : sh, j : j + sw * ow : sw, :] += scratch
    workspace.give_back("dw_scratch", base)
    return padded[:, pad_h[0] : pad_h[0] + h, pad_w[0] : pad_w[0] + w, :]
