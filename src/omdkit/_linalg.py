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
    """Euclidean projection onto the probability simplex (sort-based, ties deterministic).

    The projection is max(v - theta, 0) for the theta that makes it sum to 1.
    Shifting v by its largest entry leaves the projection as it is and puts
    theta in [-1, 0), so an entry 1 or more below the largest gets no weight:
    theta is found among the others, whose sums stay of the size of n
    however large v is.
    """
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]  # a NaN sorts first
    top = u[0]
    if not -math.inf < u[-1] <= top < math.inf:
        raise ValueError("cannot project onto the simplex: the point is not finite")
    # a spread past the largest float gives -inf, which gets no weight either
    with np.errstate(over="ignore"):
        shifted = v - top
        u -= top
    near = u[u > -1.0]
    cumulative = np.cumsum(near) - 1.0
    counts = np.arange(1, near.size + 1)
    mask = near - cumulative / counts > 0
    rho = counts[mask][-1]
    theta = cumulative[rho - 1] / rho
    shifted -= theta
    return np.maximum(shifted, 0.0, out=shifted)


def project_ball(v: np.ndarray, radius: float) -> np.ndarray:
    return _project_ball_own(np.array(v, dtype=float), radius)


def _project_ball_own(v: np.ndarray, radius: float) -> np.ndarray:
    """project_ball of a float array the caller gives up: v itself, or v
    scaled in place, or a new array."""
    # np.linalg.norm's own formula for 1-d v; vdot is the same BLAS dot as
    # v.dot, but an overflow gives inf without a RuntimeWarning
    sq = float(np.vdot(v, v))
    if not sq < math.inf:  # the square overflowed, or v is not finite
        scale = float(np.maximum.reduce(np.abs(v)))  # NaN if v holds one
        if not scale < math.inf:
            raise ValueError("cannot project onto the ball: the point is not finite")
        unit = v / scale
        norm = math.sqrt(float(unit.dot(unit)))
        if scale * norm <= radius:
            return v
        unit *= radius
        unit /= norm
        return unit
    norm = math.sqrt(sq)
    if norm <= radius:
        return v
    v *= radius / norm
    return v
