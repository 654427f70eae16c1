"""Internal solvers shared by the mirror maps and the constrained-program code."""
from __future__ import annotations

import numpy as np


class ProjectionError(RuntimeError):
    """Affine projection failed to reach the requested residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class AffineSolver:
    """Projector onto {f : M f = b} for a fixed M and varying b.

    Projection solves the normal equations (M M^T) lam = M p - b with a
    cached Cholesky factor (or, when M has redundant rows, the Gram
    pseudo-inverse) and returns p - M^T lam, after verifying the sup-norm
    residual.
    """

    def __init__(self, matrix: np.ndarray):
        m = np.atleast_2d(np.asarray(matrix, dtype=float))
        self.matrix = m
        gram = m @ m.T
        try:
            self._chol = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            # redundant equality rows (e.g. a floating component); fall back
            self._chol = None
            self._pinv = np.linalg.pinv(gram)

    def project(self, point: np.ndarray, b: np.ndarray, tol: float = 1e-8) -> np.ndarray:
        point = np.asarray(point, dtype=float)
        b = np.asarray(b, dtype=float)
        rhs = self.matrix @ point - b
        if self._chol is not None:
            lam = np.linalg.solve(self._chol.T, np.linalg.solve(self._chol, rhs))
        else:
            lam = self._pinv @ rhs
        out = point - self.matrix.T @ lam
        resid = float(np.max(np.abs(self.matrix @ out - b)))
        if resid > tol:
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
    norm = float(np.linalg.norm(v))
    if norm <= radius:
        return v.copy()
    return v * (radius / norm)
