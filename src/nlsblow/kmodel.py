"""Canonical inhomogeneity family with prescribed Taylor data at the origin.

    k(x) = k1 + (1 - k1) exp(g(x) / (1 - k1)),
    g(x) = (1/2) x·Hx + (1/6) T(x,x,x) w(|x|),

with H symmetric negative (semi)definite, T a symmetric 3-tensor, and w a
C^∞ cutoff that is 1 on |x|<=1 and 0 on |x|>=2.  By construction k(0)=1,
∇k(0)=0, ∇²k(0)=H, ∇³k(0)=T, and the fourth-order Taylor form is
∇⁴k(0)(y,y,y,y) = 3 H(y,y)² / (1-k1).  k decays to the floor k1 at infinity.
"""

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

CUTOFF_FD_STEP = 1e-6    # step of cutoff_deriv's centered difference
VALIDATE_SAMPLES = 4000  # points of validate's k1 <= k <= 1 check
VALIDATE_SEED = 0        # seed of those points


class HessianNotNegative(ValueError):
    """The Hessian has a positive eigenvalue: no blow-up point of this type."""


def _sym3(T: np.ndarray) -> np.ndarray:
    import itertools

    out = np.zeros((2, 2, 2))
    for p in itertools.permutations((0, 1, 2)):
        out += np.transpose(T, p)
    return out / 6.0


def _bump_e(t):
    t = np.asarray(t, dtype=float)
    pos = t > 0
    return np.where(pos, np.exp(-1.0 / np.where(pos, t, 1.0)), 0.0)


def cutoff(s):
    """C^∞ transition: 1 for s <= 1, 0 for s >= 2.

    a/(a + b) of the bumps a = e(2 - s), b = e(s - 1) is exactly 1 for s <= 1
    (b = 0) and exactly 0 for s >= 2 (a = 0), so only 1 < s < 2 evaluates it.
    """
    s = np.asarray(s, dtype=float)
    out = np.where(s <= 1.0, 1.0, 0.0)
    band = (s > 1.0) & (s < 2.0)
    if np.any(band):
        sb = s[band]
        a = _bump_e(2.0 - sb)
        out[band] = a / (a + _bump_e(sb - 1.0) + 1e-300)
    return out


def cutoff_deriv(s):
    # the cutoff only multiplies the cubic Taylor term; a centered difference
    # of the C^∞ bump is accurate far beyond the places this derivative matters
    s = np.asarray(s, dtype=float)
    return (cutoff(s + CUTOFF_FD_STEP) - cutoff(s - CUTOFF_FD_STEP)) / (2 * CUTOFF_FD_STEP)


@dataclass
class InhomogeneityModel:
    """Hessian + third-derivative data realized by the canonical k family."""

    hessian: np.ndarray
    third: np.ndarray = None
    floor: float = 0.5

    def __post_init__(self):
        H = np.asarray(self.hessian, dtype=float)
        if H.shape != (2, 2):
            raise ValueError("hessian must be 2x2")
        H = 0.5 * (H + H.T)
        eigs = np.linalg.eigvalsh(H)
        if eigs.max() > 1e-12:
            raise HessianNotNegative(f"hessian not negative definite (eigenvalues {eigs})")
        self.hessian = H
        if self.third is None:
            self.third = np.zeros((2, 2, 2))
        T = np.asarray(self.third, dtype=float)
        if T.shape != (2, 2, 2):
            raise ValueError("third tensor must be 2x2x2")
        self.third = _sym3(T)
        if not (0.0 < self.floor < 1.0):
            raise ValueError("floor k1 must lie in (0, 1)")

    # -- scalar fields ---------------------------------------------------

    def _g(self, x: np.ndarray) -> np.ndarray:
        # H and T are symmetric, so the forms are plain polynomials in x1, x2:
        # T(x,x,x) = T111 x1³ + 3 T112 x1² x2 + 3 T122 x1 x2² + T222 x2³
        x1, x2 = x[..., 0], x[..., 1]
        T = self.third
        quad = 0.5 * self.hess_form(x1, x2)
        cub = (x1 * x1 * (T[0, 0, 0] * x1 + 3.0 * T[0, 0, 1] * x2)
               + x2 * x2 * (3.0 * T[0, 1, 1] * x1 + T[1, 1, 1] * x2)) / 6.0
        s = np.linalg.norm(x, axis=-1)
        return quad + cub * cutoff(s)

    def k(self, x) -> np.ndarray:
        """k at points x of shape (..., 2)."""
        x = np.asarray(x, dtype=float)
        c = 1.0 - self.floor
        if self.is_flat:
            return np.ones(x.shape[:-1])
        return self.floor + c * np.exp(self._g(x) / c)

    def grad_k(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        c = 1.0 - self.floor
        if self.is_flat:
            return np.zeros(x.shape)
        s = np.linalg.norm(x, axis=-1)
        grad_g = np.einsum("ij,...j->...i", self.hessian, x)
        grad_g = grad_g + 0.5 * np.einsum("ijl,...j,...l->...i", self.third, x, x) * cutoff(s)[..., None]
        cub = np.einsum("...i,...j,...l,ijl->...", x, x, x, self.third) / 6.0
        with np.errstate(invalid="ignore", divide="ignore"):
            radial = np.where(s > 0, cutoff_deriv(s) / np.where(s > 0, s, 1.0), 0.0)
        grad_g = grad_g + (cub * radial)[..., None] * x
        return np.exp(self._g(x) / c)[..., None] * grad_g

    # -- Taylor forms at the origin (angular callables on unit vectors) ----

    def hess_form(self, ux, uy, e=None):
        """H(u,u) or, with basis index e, H(u,e)."""
        if e is not None:
            return self.hessian[0, e] * ux + self.hessian[1, e] * uy
        return (self.hessian[0, 0] * ux * ux + 2 * self.hessian[0, 1] * ux * uy
                + self.hessian[1, 1] * uy * uy)

    def third_form(self, ux, uy, e=None):
        """T(u,u,u) or, with basis index e, T(u,u,e)."""
        u = np.stack([ux, uy], axis=-1)
        if e is None:
            return np.einsum("...i,...j,...l,ijl->...", u, u, u, self.third)
        return np.einsum("...i,...j,ij->...", u, u, self.third[:, :, e])

    def quartic_form(self, ux, uy):
        """∇⁴k(0)(u,u,u,u) for the canonical family: 3 H(u,u)² / (1-k1)."""
        return 3.0 * self.hess_form(ux, uy) ** 2 / (1.0 - self.floor)

    @property
    def is_flat(self) -> bool:
        return not (np.any(self.hessian) or np.any(self.third))

    def validate(self) -> list:
        """Assumption checks; returns a list of violation messages (empty = ok)."""
        issues = []
        if abs(float(self.k(np.zeros(2))) - 1.0) > 1e-12:
            issues.append("k(0) != 1")
        # ∇k(0) = 0 by finite differences
        h = 1e-6
        for j, e in enumerate(np.eye(2)):
            d = (float(self.k(h * e)) - float(self.k(-h * e))) / (2 * h)
            if abs(d) > 1e-7:
                issues.append(f"grad k(0)[{j}] = {d:.2e} != 0")
        # Hessian of the evaluator matches H (h balances FD truncation vs roundoff)
        h2 = 2e-4
        for i in range(2):
            for j in range(2):
                ei, ej = np.eye(2)[i], np.eye(2)[j]
                d2 = (float(self.k(h2 * (ei + ej))) - float(self.k(h2 * (ei - ej)))
                      - float(self.k(h2 * (ej - ei))) + float(self.k(-h2 * (ei + ej)))) / (4 * h2 * h2)
                if abs(d2 - self.hessian[i, j]) > 1e-6 * (1 + abs(self.hessian[i, j])):
                    issues.append(f"evaluator hessian[{i}{j}] = {d2:.6f} != {self.hessian[i, j]:.6f}")
        # bounds k1 <= k <= 1 on a sample disk
        rng = np.random.default_rng(VALIDATE_SEED)
        pts = rng.normal(size=(VALIDATE_SAMPLES, 2)) * 1.5
        kv = self.k(pts)
        if kv.max() > 1.0 + 1e-10:
            issues.append(f"k exceeds 1 (max {kv.max():.6f}); third tensor too large for this hessian")
        if kv.min() < self.floor - 1e-10:
            issues.append(f"k drops below floor k1 (min {kv.min():.6f})")
        return issues


def homogeneous_model() -> InhomogeneityModel:
    """k ≡ 1 (H = 0, T = 0): the classical translation-invariant case."""
    return InhomogeneityModel(hessian=np.zeros((2, 2)), third=np.zeros((2, 2, 2)), floor=0.5)
