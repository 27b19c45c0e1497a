"""Dense numerical kernel: deterministic matrix product, activation,
weight initialization and seeded RNG construction.

All public operations work on 64-bit float arrays ("matrices" are 2-D,
C-contiguous, row-major) and are bit-reproducible.

Matrix product contract: every output entry is
``0.0 + a[i, 0]*b[0, j] + a[i, 1]*b[1, j] + ...``, one rounded product
added at a time in ascending k. Two kernels implement it and the shape
alone picks one: a chunked ``cumsum`` over the k-major product tensor,
viewed as complex128 so one add advances two sums, for large enough k
with small outputs that are one column wide or no taller than wide (the
backward products and the head of training); and otherwise a loop over
k along the rows, in blocks of at most 4096 rows (the forward products
and the scoring head). Both are byte-identical to a scalar triple loop,
signed zeros, infinities and NaNs included, so repeated runs and
independent reimplementations with the same summation order agree
exactly.
Reductions of undefined order (``np.add.reduce``, ``einsum``,
``@``/BLAS) are not used.
"""

from __future__ import annotations

import numpy as np


def make_rng(seed) -> np.random.Generator:
    """Create the run-owned PCG64 generator for ``seed``.

    Every stochastic entry point takes either a seed or a generator
    produced here. One generator is created per run and threaded through
    the pipeline stages in order; it must not be shared across threads.
    """
    return np.random.default_rng(seed)


def _as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce ``x`` to a 2-D float64 C-order array, validating rank."""
    a = np.ascontiguousarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    return a


# matmul uses the cumsum kernel when k >= _CUMSUM_MIN_K, m*n <=
# _CUMSUM_MAX_OUTPUT and n == 1 or m <= n. Median CPU-time ratio against
# the row-blocked loop over 150-200 interleaved timings (2-vCPU x86-64
# VM, NumPy 2.4): 3.3x on the 10x512 @ 512x20 backward product, 22x on
# 20x512 @ 512x1, 0.9-1.3x from run to run on the 512x20 @ 20x1 training
# head and 1.9-2.8x on 64-256 rows of it, 2.0-4.6x at k = 10-20 on 1x20,
# 10x20 and 20x20 outputs, 1.1-2.0x at k = 8 on outputs of up to 512
# entries, and 1.0-1.4x at k = 4. Tall outputs with n >= 2 stay on the
# loop: there the cumsum kernel loses with a few hundred rows (0.51x on
# 256x16 @ 16x2, 0.63x on 256x20 @ 20x2, 0.52x on the 278x20 @ 20x2
# scoring head) and gains at most 1.5x on squarish ones such as
# 21x20 @ 20x20, which neither training nor scoring runs.
_CUMSUM_MIN_K = 8
_CUMSUM_MAX_OUTPUT = 512
# Elements per product chunk of the cumsum kernel: 128 KB of float64.
_CHUNK_ELEMENTS = 16384
# Rows per block of the loop kernel: a block's n x 4096 accumulator and
# product buffers and its transposed rows of ``a`` stay within a 2 MB
# L2 cache for n, k <= 20.
_ROW_BLOCK = 4096


def matmul(a, b) -> np.ndarray:
    """Matrix product with a fixed summation order.

    Each output entry accumulates ``a[i, k] * b[k, j]`` onto 0.0 for
    ascending k, exactly matching a naive triple loop, so results are
    bit-identical across runs and to the elementwise oracle. BLAS-backed
    products do not guarantee this ordering and are deliberately not
    used. The kernel is chosen from the shapes only.
    """
    a = _as_matrix(a, "left operand")
    b = _as_matrix(b, "right operand")
    if a.shape[1] != b.shape[0]:
        raise ValueError(
            f"matmul shape mismatch: {a.shape[0]}x{a.shape[1]} @ "
            f"{b.shape[0]}x{b.shape[1]}"
        )
    m, k, n = *a.shape, b.shape[1]
    if k >= _CUMSUM_MIN_K and m * n <= _CUMSUM_MAX_OUTPUT and (n == 1 or m <= n):
        return _matmul_cumsum(a, b)
    return _matmul_rows(a, b)


def _matmul_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Loop kernel: each block of at most ``_ROW_BLOCK`` rows accumulates
    its transposed ``n x rows`` output onto 0.0, one rounded product
    ``a[i, k] * b[k, j]`` at a time for ascending k, so every ufunc call
    runs along the rows rather than along n, and the temporaries do not
    grow with m."""
    m, n = a.shape[0], b.shape[1]
    out = np.empty((m, n))
    acc = np.empty((n, min(m, _ROW_BLOCK)))
    tmp = np.empty_like(acc)
    for r0 in range(0, m, _ROW_BLOCK):
        a_t = np.ascontiguousarray(a[r0 : r0 + _ROW_BLOCK].T)
        rows = a_t.shape[1]
        block, products = acc[:, :rows], tmp[:, :rows]
        block[...] = 0.0
        for a_k, b_k in zip(a_t, b):
            np.multiply(a_k, b_k[:, None], out=products)
            block += products
        out[r0 : r0 + rows] = block.T
    return out


def _matmul_cumsum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ascending-k product via ``cumsum`` (``add.accumulate``, sequential
    by definition) over chunks of the k-major product tensor.

    Row 0 of each chunk holds the running total (zeros for the first
    chunk, which reproduces ``0.0 + (-0.0) == +0.0``), rows 1.. the
    products ``a[i, k] * b[k, j]`` of the chunk's k range, flattened
    over (i, j); after the cumsum the last row is the new running total.
    The cumsum runs on the rows viewed as complex128, so one complex add
    advances two adjacent float64 sums, each by its own IEEE addition;
    an odd m*n leaves one zero entry at the end of every row to pair
    with.
    """
    m, k = a.shape
    n = b.shape[1]
    size = m * n
    width = size + size % 2
    step = min(k, _CHUNK_ELEMENTS // width - 1)
    buf = np.zeros((step + 1, width))
    pairs = buf.view(np.complex128)
    products = buf[:, :size].reshape(step + 1, m, n)
    a_t = a.T
    last = 0
    for k0 in range(0, k, step):
        if k0:
            buf[0] = buf[last]
        last = min(step, k - k0)
        np.multiply(
            a_t[k0 : k0 + last, :, None], b[k0 : k0 + last, None, :], out=products[1 : last + 1]
        )
        np.cumsum(pairs[: last + 1], axis=0, out=pairs[: last + 1])
    return buf[last, :size].reshape(m, n).copy()


def relu(x) -> np.ndarray:
    """Elementwise max(0, x)."""
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def glorot_uniform(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    """Weight matrix with entries i.i.d. uniform on [-L, L],
    L = sqrt(6 / (fan_in + fan_out)).
    """
    if fan_in < 1 or fan_out < 1:
        raise ValueError(f"fan_in and fan_out must be >= 1, got ({fan_in}, {fan_out})")
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))
