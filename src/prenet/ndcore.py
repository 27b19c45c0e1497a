"""Dense numerical kernel: deterministic matrix product, activation,
weight initialization, seeded RNG construction, and a finite-difference
gradient oracle used to validate analytic gradients.

All public operations work on 64-bit float arrays ("matrices" are 2-D,
C-contiguous, row-major) and are bit-reproducible.

Matrix product contract: every output entry is
``0.0 + a[i, 0]*b[0, j] + a[i, 1]*b[1, j] + ...``, one rounded product
added at a time in ascending k. Two kernels implement it and the shape
alone picks one: a loop over k for small shared dimensions or large
outputs, and a chunked ``cumsum`` over the k-major product tensor for
large shared dimensions with small outputs (the backward products of
training). Both are byte-identical to a scalar triple loop, signed
zeros included, so repeated runs and independent reimplementations
with the same summation order agree exactly. Reductions of undefined
order (``np.add.reduce``, ``einsum``, ``@``/BLAS) are not used.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NumericError


def make_rng(seed) -> np.random.Generator:
    """Create the run-owned PCG64 generator for ``seed``.

    Every stochastic entry point takes either a seed or a generator
    produced here. One generator is created per run and threaded through
    the pipeline stages in order; it must not be shared across threads.
    """
    return np.random.default_rng(seed)


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce ``x`` to a 2-D float64 C-order array, validating rank."""
    a = np.ascontiguousarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    return a


# matmul uses the cumsum kernel when k >= _CUMSUM_MIN_K and
# m*n <= _CUMSUM_MAX_OUTPUT, where it beats the loop over k (2-vCPU
# x86-64 VM, NumPy 2.4: 3.2x on the 10x512 @ 512x20 backward product;
# even at k = 32 with m*n = 500, and slower beyond m*n of about 600).
_CUMSUM_MIN_K = 32
_CUMSUM_MAX_OUTPUT = 512
# Elements per product chunk of the cumsum kernel: 128 KB of float64.
_CHUNK_ELEMENTS = 16384


def matmul(a, b) -> np.ndarray:
    """Matrix product with a fixed summation order.

    Each output entry accumulates ``a[i, k] * b[k, j]`` onto 0.0 for
    ascending k, exactly matching a naive triple loop, so results are
    bit-identical across runs and to the elementwise oracle. BLAS-backed
    products do not guarantee this ordering and are deliberately not
    used. The kernel is chosen from the shapes only.
    """
    a = as_matrix(a, "left operand")
    b = as_matrix(b, "right operand")
    if a.shape[1] != b.shape[0]:
        raise ValueError(
            f"matmul shape mismatch: {a.shape[0]}x{a.shape[1]} @ "
            f"{b.shape[0]}x{b.shape[1]}"
        )
    if a.shape[1] >= _CUMSUM_MIN_K and a.shape[0] * b.shape[1] <= _CUMSUM_MAX_OUTPUT:
        return _matmul_cumsum(a, b)
    out = np.zeros((a.shape[0], b.shape[1]))
    tmp = np.empty_like(out)
    for k in range(a.shape[1]):
        np.multiply(a[:, k, None], b[None, k, :], out=tmp)
        out += tmp
    return out


def _matmul_cumsum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ascending-k product via ``cumsum`` (``add.accumulate``, sequential
    by definition) over chunks of the k-major product tensor.

    Row 0 of each chunk holds the running total (zeros for the first
    chunk, which reproduces ``0.0 + (-0.0) == +0.0``), rows 1.. the
    products ``a[i, k] * b[k, j]`` of the chunk's k range; after the
    cumsum the last row is the new running total.
    """
    m, k = a.shape
    n = b.shape[1]
    step = min(k, _CHUNK_ELEMENTS // (m * n) - 1)
    buf = np.empty((step + 1, m, n))
    buf[0] = 0.0
    a_t = a.T
    last = 0
    for k0 in range(0, k, step):
        if k0:
            buf[0] = buf[last]
        last = min(step, k - k0)
        chunk = buf[: last + 1]
        np.multiply(a_t[k0 : k0 + last, :, None], b[k0 : k0 + last, None, :], out=chunk[1:])
        np.cumsum(chunk, axis=0, out=chunk)
    return buf[last].copy()


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


def finite_diff_grad(
    f: Callable[[np.ndarray], float], theta, h: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector.

    Returns ``(f(theta + h*e_i) - f(theta - h*e_i)) / (2h)`` per
    coordinate. Used as the independent oracle against analytic
    gradients; never used in training itself.
    """
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
    theta = np.asarray(theta, dtype=np.float64).ravel()
    grad = np.empty_like(theta)
    probe = theta.copy()
    for i in range(theta.size):
        probe[i] = theta[i] + h
        up = float(f(probe))
        probe[i] = theta[i] - h
        down = float(f(probe))
        probe[i] = theta[i]
        if not (np.isfinite(up) and np.isfinite(down)):
            raise NumericError(
                f"non-finite function value while probing coordinate {i}"
            )
        grad[i] = (up - down) / (2.0 * h)
    return grad
