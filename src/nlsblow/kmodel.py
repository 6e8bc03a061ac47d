"""Canonical inhomogeneity family with prescribed Taylor data at the origin.

    k(x) = k1 + (1 - k1) exp(g(x) / (1 - k1)),
    g(x) = (1/2) x·Hx + (1/6) T(x,x,x) w(|x|),

with H symmetric negative (semi)definite, T a symmetric 3-tensor, and w a
C^∞ cutoff that is 1 on |x|<=1 and 0 on |x|>=2.  By construction k(0)=1,
∇k(0)=0, ∇²k(0)=H, ∇³k(0)=T, and the fourth-order Taylor form is
∇⁴k(0)(y,y,y,y) = 3 H(y,y)² / (1-k1).  k decays to the floor k1 at infinity.

Each Taylor form is written once, as a polynomial in (ux, uy): `hess_form`
and `third_form` are the only contractions of H and T.  w′ is exact.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .fields import in_blocks

VALIDATE_SAMPLES = 4000  # points of validate's k1 <= k <= 1 check
VALIDATE_SEED = 0        # seed of those points


class HessianNotNegative(ValueError):
    """The Hessian has a positive eigenvalue: no blow-up point of this type."""


def _sym3(T: np.ndarray) -> np.ndarray:
    return sum(np.transpose(T, p) for p in itertools.permutations((0, 1, 2))) / 6.0


def _bump_e(t):
    t = np.asarray(t, dtype=float)
    pos = t > 0
    return np.where(pos, np.exp(-1.0 / np.where(pos, t, 1.0)), 0.0)


def _on_band(s, below: float, f):
    """`below` for s <= 1, 0 for s >= 2, and f(a, b, s) of the bumps
    a = e(2 - s), b = e(s - 1) on 1 < s < 2 only."""
    s = np.asarray(s, dtype=float)
    out = np.where(s <= 1.0, below, 0.0)
    band = (s > 1.0) & (s < 2.0)
    if np.any(band):
        sb = s[band]
        out[band] = f(_bump_e(2.0 - sb), _bump_e(sb - 1.0), sb)
    return out


def cutoff(s):
    """C^∞ transition w = a/(a + b): exactly 1 for s <= 1 (b = 0), 0 for s >= 2 (a = 0)."""
    return _on_band(s, 1.0, lambda a, b, s: a / (a + b + 1e-300))


def cutoff_deriv(s):
    """w′ = -(e′(2 - s)·b + a·e′(s - 1))/(a + b)² with e′(t) = e(t)/t²; 0 off 1 < s < 2."""
    return _on_band(s, 0.0, lambda a, b, s: -(a / (2 - s) ** 2 * b + a * b / (s - 1) ** 2)
                    / (a + b) ** 2)


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
        # |x| comes last: held across both forms, it raised `profile`'s peak RSS 4 MB
        x1, x2 = x[..., 0], x[..., 1]
        return (0.5 * self.hess_form(x1, x2)
                + self.third_form(x1, x2) / 6.0 * cutoff(np.linalg.norm(x, axis=-1)))

    def k(self, x) -> np.ndarray:
        """k at points x of shape (..., 2), fields.AT_BLOCK points at a time."""
        x = np.asarray(x, dtype=float)
        if self.is_flat:
            return np.ones(x.shape[:-1])
        return in_blocks(self._k_block, x, float)

    def _k_block(self, x: np.ndarray) -> np.ndarray:
        c = 1.0 - self.floor
        return self.floor + c * np.exp(self._g(x) / c)

    def grad_k(self, x) -> np.ndarray:
        """∇k at points x of shape (..., 2): k's exponential times
        ∇g = Hx + ½T(x,x,·)w(s) + T(x,x,x)/6 · w′(s)·x/s."""
        x = np.asarray(x, dtype=float)
        if self.is_flat:
            return np.zeros(x.shape)
        x1, x2 = x[..., 0], x[..., 1]
        s = np.linalg.norm(x, axis=-1)
        w = cutoff(s)
        radial = self.third_form(x1, x2) / 6.0 * cutoff_deriv(s) / np.maximum(s, 1.0)  # w′(s<=1) = 0
        grad_g = np.stack([self.hess_form(x1, x2, e) + 0.5 * self.third_form(x1, x2, e) * w
                           + radial * x[..., e] for e in (0, 1)], axis=-1)
        return np.exp(self._g(x) / (1.0 - self.floor))[..., None] * grad_g

    # -- Taylor forms at the origin, polynomials in (ux, uy) -----------------

    def hess_form(self, ux, uy, e=None):
        """H(u,u) or, with basis index e, H(u,e)."""
        H = self.hessian
        if e is not None:
            return H[0, e] * ux + H[1, e] * uy
        return H[0, 0] * ux * ux + 2 * H[0, 1] * ux * uy + H[1, 1] * uy * uy

    def third_form(self, ux, uy, e=None):
        """T(u,u,u) or, with basis index e, T(u,u,e); T is symmetric, so
        T(u,u,u) = T111 u1³ + 3 T112 u1² u2 + 3 T122 u1 u2² + T222 u2³."""
        T = self.third
        if e is not None:
            return T[0, 0, e] * ux * ux + 2 * T[0, 1, e] * ux * uy + T[1, 1, e] * uy * uy
        return (ux * ux * (T[0, 0, 0] * ux + 3.0 * T[0, 0, 1] * uy)
                + uy * uy * (3.0 * T[0, 1, 1] * ux + T[1, 1, 1] * uy))

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

