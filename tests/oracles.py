"""Independent oracles that the tests compare the package against."""

from __future__ import annotations

from typing import Callable

import numpy as np

from prenet.errors import NumericError


def finite_diff_grad(
    f: Callable[[np.ndarray], float], theta, h: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector.

    Returns ``(f(theta + h*e_i) - f(theta - h*e_i)) / (2h)`` per
    coordinate: the oracle against which the analytic gradients are
    checked.
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
