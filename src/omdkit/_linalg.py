"""Internal solvers shared by the mirror maps and the constrained-program code."""
from __future__ import annotations

import math

import numpy as np


class ProjectionError(RuntimeError):
    """Affine projection failed to reach the requested residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class AffineSolver:
    """Projector onto {f : M f = b} for a fixed M and varying b.

    The pseudo-inverse M^+ is computed once. Projection returns
    p - M^+ (M p - b) after verifying its sup-norm residual, which it keeps
    as `residual`; the one formula serves full-rank M and M with redundant
    rows alike.
    """

    def __init__(self, matrix: np.ndarray):
        m = np.atleast_2d(np.asarray(matrix, dtype=float))
        self.matrix = m
        self._pinv = np.linalg.pinv(m)
        self.residual: float | None = None  # of the last projection

    def project(self, point: np.ndarray, b: np.ndarray, tol: float = 1e-8) -> np.ndarray:
        point = np.asarray(point, dtype=float)
        b = np.asarray(b, dtype=float)
        # a non-finite input reports only its ProjectionError, no RuntimeWarning
        with np.errstate(invalid="ignore", over="ignore"):
            out = point - self._pinv @ (self.matrix @ point - b)
            resid = self.residual = float(np.maximum.reduce(np.abs(self.matrix @ out - b)))
        # written so that a NaN residual fails the check too
        if not resid <= tol:
            raise ProjectionError(
                f"affine projection residual {resid:.3e} exceeds tolerance {tol:.3e}",
                resid,
            )
        return out


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based, ties deterministic)."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    cumulative = np.cumsum(u) - 1.0
    counts = np.arange(1, v.size + 1)
    mask = u - cumulative / counts > 0
    rho = counts[mask][-1]
    theta = cumulative[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def project_ball(v: np.ndarray, radius: float) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    norm = math.sqrt(float(v.dot(v)))  # np.linalg.norm's own formula for 1-d v
    if norm <= radius:
        return v.copy()
    return v * (radius / norm)
