"""Refined blow-up profile built order by order in the parameters (b, λ, β, α).

The conformal-frame profile is P = Q + Σ_j (T_j + i S_j) with T_j, S_j
homogeneous of degree j, each obtained by inverting L+ or L- against sources
assembled from the Taylor data of k.  The constants c0, β3 are exactly the
solvability adjustments that keep every inversion off the kernels, and the
pseudo-conformal law survives because (y_j y_l Q³, ΛQ) = 0.  The frozen
``ProfileConstants`` come from ``derive_constants`` alone, and the profile
and the modulation ODE share them.

Monomials in the parameters are dict keys.  One coefficient rule,
``ProfileExpansion.coefficients``, weighs the terms: at P a term's
coefficient is coeff(mono, P) = Π v^e over (b, λ, β1, β2, α1, α2), and its
derivative in parameter i is e_i·coeff(mono - e_i, P).  The profile, the six
parameter derivatives of the residual and the fit's samples (``modfit.Fit``)
all sum the terms with it, so no numerical differentiation in parameter
space ever happens.

``ParamPoint`` is the one modulation state of the package: the profile, the
modulation ODE (``modeqs``), the orthogonality fit (``modfit``) and the CLI
all pass it.  It carries (b, λ, β, α, γ) with both clocks s and t, its
vector layout is [b, λ, β1, β2, α1, α2, γ, s, t] (``to_vector``; the
modulation ODE integrates both clocks as states), and it owns the conformal
phase -b|y|²/4 + β·y and that phase's gradient.
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import Dict, Tuple

import numpy as np

from .fields import AngularField, PolarGrid, angular_modes
from .kmodel import InhomogeneityModel
from .lab import Lab
from .linops import vector_norm
from .radial import banded_matvec, quadrature

Monomial = Tuple[int, int, int, int, int, int]   # powers of (b, λ, β1, β2, α1, α2)

ETA_STAR_DEFAULT = 0.3


class EnergyConditionViolated(ValueError):
    """E0 + (1/8)∫∇²k(0)(y,y)Q⁴ <= 0: no critical blow-up element exists."""


@dataclass
class ParamPoint:
    """The modulation state P = (b, λ, β, α), the phase γ and the clocks s, t."""

    b: float
    lam: float
    beta: np.ndarray = None
    alpha: np.ndarray = None
    gamma: float = 0.0
    s: float = 0.0
    t: float = 0.0

    def __post_init__(self):
        self.beta = np.zeros(2) if self.beta is None else np.asarray(self.beta, dtype=float)
        self.alpha = np.zeros(2) if self.alpha is None else np.asarray(self.alpha, dtype=float)
        # λ = 0 is admitted: the profile is evaluated at P = 0
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")

    def to_vector(self) -> np.ndarray:
        """[b, λ, β1, β2, α1, α2, γ, s, t]."""
        return np.array([self.b, self.lam, self.beta[0], self.beta[1],
                         self.alpha[0], self.alpha[1], self.gamma, self.s, self.t])

    @classmethod
    def from_vector(cls, v) -> "ParamPoint":
        return cls(b=v[0], lam=v[1], beta=v[2:4].copy(), alpha=v[4:6].copy(),
                   gamma=v[6], s=v[7], t=v[8])

    @property
    def size(self) -> float:
        return float(np.sqrt(self.b ** 2 + self.lam ** 2
                             + self.beta @ self.beta + self.alpha @ self.alpha))

    def check_small(self, eta_star: float = ETA_STAR_DEFAULT):
        if self.size > eta_star:
            raise ValueError(f"|P| = {self.size:.3f} exceeds the smallness radius {eta_star}")

    def phase(self, r, theta) -> np.ndarray:
        """The conformal phase -b|y|²/4 + β·y at polar points (r, θ)."""
        r = np.asarray(r)
        return (-self.b * r ** 2 / 4.0
                + r * (self.beta[0] * np.cos(theta) + self.beta[1] * np.sin(theta)))

    def phase_gradient(self, r, theta):
        """Polar components of ∇phase: u_r = -(b/2) r + β·ê_r, u_θ = β·ê_θ."""
        ct, st = np.cos(theta), np.sin(theta)
        return (-0.5 * self.b * r + self.beta[0] * ct + self.beta[1] * st,
                -self.beta[0] * st + self.beta[1] * ct)


@dataclass(frozen=True)
class ProfileConstants:
    """Solvability constants and the quadratic forms of the parameter dynamics."""

    c0_map: np.ndarray        # c0(α) = c0_map @ α
    beta3: np.ndarray
    d0_form: np.ndarray       # d0(α, α) = α @ d0_form @ α
    d1_form: np.ndarray
    a1: float

    def c0(self, alpha) -> np.ndarray:
        return self.c0_map @ np.asarray(alpha)

    def d0(self, alpha) -> float:
        a = np.asarray(alpha)
        return float(a @ self.d0_form @ a)

    def d1(self, alpha) -> float:
        a = np.asarray(alpha)
        return float(a @ self.d1_form @ a)

    def B(self, lam: float, alpha) -> np.ndarray:
        """The momentum-law forcing λ c0(α) + β3 λ³."""
        return lam * self.c0(alpha) + self.beta3 * lam ** 3


def hessian_quartic_integral(model: InhomogeneityModel, lab: Lab) -> float:
    """∫ ∇²k(0)(y,y) Q⁴ dy (negative for a negative-definite Hessian)."""
    r = lab.grid.nodes
    c0 = angular_modes(model.hess_form, 2).get(0, 0.0)
    radial = quadrature(r ** 2 * lab.Q.values ** 4, lab.grid)
    return float(np.real(c0) * radial)


def derive_constants(model: InhomogeneityModel, lab: Lab) -> ProfileConstants:
    """Every solvability constant and quadratic form from the Taylor data of k."""
    m = lab.moments
    H = model.hessian
    kq = m.quarticQ / (2.0 * m.massQ)
    c0_map = kq * H

    r = lab.grid.nodes
    q4 = lab.Q.values ** 4
    rad3 = quadrature(r ** 2 * q4, lab.grid)
    beta3 = np.zeros(2)
    for j in range(2):
        cj = angular_modes(lambda cx, sx, j=j: model.third_form(cx, sx, e=j), 2).get(0, 0.0)
        beta3[j] = np.real(cj) * rad3 / (4.0 * m.massQ)

    d0_form = (2.0 * m.massQ / m.ymomQ) * H
    d1_form = (lab.y2Q_rho / (4.0 * lab.rho_Q)) * d0_form
    a1 = -np.trace(H) / 8.0 * m.quarticQ / m.massQ
    return ProfileConstants(c0_map=c0_map, beta3=beta3, d0_form=d0_form,
                            d1_form=d1_form, a1=a1)


def a1_projection(model: InhomogeneityModel, lab: Lab) -> float:
    """a1 from its defining kernel projection (the independent route).

    Solves L+(T2⁰) = (1/2)∇²k(0)(y,y)Q³ and evaluates the projection
    -(6 Q T2⁰ ∂_jQ + (3/2)∇²k(0)(y,y) Q² ∂_jQ, ∂_jQ)/∫Q² averaged over the
    repeated axis index (the per-axis values differ by an anisotropic part
    that cancels in the mean; the mean equals -tr(H)/8 · ∫Q⁴/∫Q²).
    """
    g = lab.grid
    r = g.nodes
    q = lab.Q.values

    src = AngularField.from_angular(g, 0.5 * r ** 2 * q ** 3, model.hess_form, 2)
    T20 = _solve_field(lab, "plus", src)

    polar = lab.polar
    ct, st = np.cos(polar.theta), np.sin(polar.theta)
    T20v = T20.on_native(polar).real
    hyy = r[:, None] ** 2 * model.hess_form(ct, st)[None, :]
    dq = lab.dQ
    vals = []
    for cj in (ct, st):
        integrand = (6 * q[:, None] * T20v + 1.5 * hyy * q[:, None] ** 2) \
            * (dq[:, None] * cj[None, :]) ** 2
        vals.append(-polar.integral(integrand) / lab.moments.massQ)
    return float(0.5 * (vals[0] + vals[1]))


def compute_C0(E0: float, model: InhomogeneityModel, lab: Lab) -> float:
    """Conformal constant C0 = ||yQ|| / sqrt(8 Ẽ0), Ẽ0 = E0 + (1/8)∫∇²k(0)(y,y)Q⁴."""
    e_tilde = E0 + hessian_quartic_integral(model, lab) / 8.0
    if e_tilde <= 0:
        raise EnergyConditionViolated(
            f"shifted energy {e_tilde:.6g} <= 0: the necessary condition fails")
    return float(np.sqrt(lab.moments.ymomQ / (8.0 * e_tilde)))


def energy_for_C0(C0: float, model: InhomogeneityModel, lab: Lab) -> float:
    """Inverse of compute_C0: the E0 that produces a given conformal constant."""
    return float(lab.moments.ymomQ / (8.0 * C0 ** 2) - hessian_quartic_integral(model, lab) / 8.0)


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------

def _solve_field(lab: Lab, op: str, src: AngularField) -> AngularField:
    # each mode carries the roundoff of the θ-FFT that built the whole source,
    # so a mode's kernel defect is measured against the largest mode
    scale = max(vector_norm(v) for v in src.comps.values()) if src.comps else 0.0
    out = {}
    for m, v in src.comps.items():
        if np.max(np.abs(v)) == 0.0:
            continue
        out[m] = lab.ops.solve(op, v, abs(m), scale)
    return AngularField(lab.grid, out)


def _coeff(mono: Monomial, P: ParamPoint) -> float:
    """The monomial's value at P: Π v^e over (b, λ, β1, β2, α1, α2)."""
    vals = (P.b, P.lam, P.beta[0], P.beta[1], P.alpha[0], P.alpha[1])
    return math.prod(v ** e for v, e in zip(vals, mono) if e)


def _lap_field(lab: Lab, f: AngularField) -> AngularField:
    out = {}
    for m, v in f.comps.items():
        w = banded_matvec(lab.ops.lap[abs(m)], v)
        if abs(m) >= 1:
            w[0] = 0.0      # matrix row 0 is the f(0)=0 constraint; Δ vanishes there
        out[m] = w
    return AngularField(lab.grid, out)


@dataclass
class ProfileExpansion:
    """The monomial map of the refined profile plus everything to evaluate it."""

    lab: Lab
    model: InhomogeneityModel
    constants: ProfileConstants
    C0: float
    terms: Dict[Monomial, AngularField]
    eta_star: float = ETA_STAR_DEFAULT

    # -- parameter-space calculus (exact on the monomial map) -----------

    def coefficients(self, P: ParamPoint, idx: int = None) -> Dict[Monomial, float]:
        """Each term's coefficient at P, or with idx its derivative in parameter idx.

        idx orders (b, λ, β1, β2, α1, α2); the derivative of coeff(mono, P)
        is e·coeff(mono - e_idx, P), with e = mono[idx] (0 when e = 0).
        """
        if idx is None:
            return {mono: _coeff(mono, P) for mono in self.terms}
        return {mono: mono[idx] * _coeff(mono[:idx] + (mono[idx] - 1,) + mono[idx + 1:], P)
                if mono[idx] else 0.0 for mono in self.terms}

    def combined(self, P: ParamPoint, include_Q: bool = True, idx: int = None) -> AngularField:
        """Σ coefficient · field at P (with idx, ∂/∂ parameter idx), optionally plus Q."""
        out = AngularField(self.lab.grid)
        if include_Q:
            out = AngularField.radial(self.lab.grid, self.lab.Q.values)
        for mono, c in self.coefficients(P, idx).items():
            if c != 0.0:
                out = out + self.terms[mono] * c
        return out

    # -- evaluation -------------------------------------------------------

    def eval_P(self, P: ParamPoint, r, theta) -> np.ndarray:
        """The conformal-frame profile P_P at matched polar point arrays."""
        return self.combined(P).at(r, theta)

    def eval_QP(self, P: ParamPoint, r, theta) -> np.ndarray:
        """Q_P = P_P · e^{i(-b|y|²/4 + β·y)} (Σ = Re, Θ = Im)."""
        return self.eval_P(P, r, theta) * np.exp(1j * P.phase(r, theta))

    def mass(self, P: ParamPoint) -> float:
        """∫|Q_P|², exact in the mode algebra (equals ∫Q² + O(P⁴))."""
        return self.combined(P).norm() ** 2

    def _kappa(self, P: ParamPoint, polar: PolarGrid):
        """(k(λy+α)/k(α) on the polar grid, k(α))."""
        r = polar.r[:, None]
        ct, st = np.cos(polar.theta)[None, :], np.sin(polar.theta)[None, :]
        x = np.stack([P.lam * r * ct + P.alpha[0], P.lam * r * st + P.alpha[1]], axis=-1)
        k_alpha = float(self.model.k(P.alpha))
        return self.model.k(x) / k_alpha, k_alpha

    def energy(self, P: ParamPoint) -> float:
        """Ẽ(Q_P) = (1/2)∫|∇Q_P|² - (1/4)∫ (k(λy+α)/k(α)) |Q_P|⁴."""
        polar = self.lab.polar
        r = polar.r[:, None]
        vals = self.combined(P).on_native(polar)
        dr, dth = polar.gradient(vals)
        u_r, u_th = P.phase_gradient(r, polar.theta[None, :])
        grad2 = np.abs(dr + 1j * vals * u_r) ** 2 + np.abs(dth + 1j * vals * u_th) ** 2
        kin = 0.5 * polar.integral(grad2)
        kappa, _ = self._kappa(P, polar)
        pot = 0.25 * polar.integral(kappa * np.abs(vals) ** 4)
        return kin - pot

    def energy_prediction(self, P: ParamPoint) -> float:
        """Leading-order invariant: b²/8‖yQ‖² + |β|²/2∫Q² - λ²/8 ∫∇²k(0)(y,y)Q⁴."""
        m = self.lab.moments
        hq = hessian_quartic_integral(self.model, self.lab)
        return (P.b ** 2 / 8.0 * m.ymomQ + 0.5 * (P.beta @ P.beta) * m.massQ
                - P.lam ** 2 / 8.0 * hq)

    # -- the self-similar equation residual --------------------------------

    def residual(self, P: ParamPoint, weight: float = 0.25) -> dict:
        """Weighted norms of the mismatch in the conformal-frame profile equation.

        The equation is evaluated with the constructed forcing B in place of
        the frozen laws, the exact parameter derivatives of the monomial map,
        the same discrete Laplacian that built the fields, and the actual k
        evaluator (not its Taylor polynomial).
        """
        P.check_small(self.eta_star)
        polar = self.lab.polar
        psi = self._mismatch(P, polar)
        w2 = np.exp(2.0 * weight * polar.r)[:, None]
        l2 = np.sqrt(polar.integral(np.abs(psi) ** 2 * w2))
        dr_psi, dth_psi = polar.gradient(psi)
        grad2 = np.abs(dr_psi) ** 2 + np.abs(dth_psi) ** 2
        h1 = np.sqrt(l2 ** 2 + polar.integral(grad2 * w2))
        return {"L2w": float(l2), "H1w": float(h1), "weight": weight}

    def _mismatch(self, P: ParamPoint, polar: PolarGrid) -> np.ndarray:
        """The profile-equation residual ψ sampled on the polar grid."""
        r = polar.r[:, None]
        q = self.lab.Q.values
        Pv = self.combined(P, include_Q=False).on_native(polar) + q[:, None]
        # Δ amplifies roundoff by 1/h², and at λ ~ 0.01 the norm of ψ resolves
        # the order of summation, so the monomials are summed after synthesis
        lapP = sum(c * _lap_field(self.lab, self.terms[mono]).on_native(polar)
                   for mono, c in self.coefficients(P).items() if c != 0.0)
        lapP = lapP + _lap_field(self.lab, AngularField.radial(self.lab.grid, q)).on_native(polar)
        d_b, d_lam, d_beta1, d_beta2, d_alpha1, d_alpha2 = (
            self.combined(P, include_Q=False, idx=i).on_native(polar)
            for i in range(6))

        Bvec = self.constants.B(P.lam, P.alpha)
        ct, st = np.cos(polar.theta)[None, :], np.sin(polar.theta)[None, :]
        By = r * (Bvec[0] * ct + Bvec[1] * st)
        kappa, k_alpha = self._kappa(P, polar)
        gterm = P.lam * float(P.beta @ (self.model.grad_k(P.alpha) / k_alpha))

        lhs = (-1j * P.b ** 2 * d_b
               - 1j * P.lam * P.b * d_lam
               + 2j * P.lam * (P.beta[0] * d_alpha1 + P.beta[1] * d_alpha2)
               + 1j * ((-P.b * P.beta[0] + Bvec[0]) * d_beta1
                       + (-P.b * P.beta[1] + Bvec[1]) * d_beta2)
               - (By + 1j * gterm) * Pv
               + lapP - Pv + kappa * np.abs(Pv) ** 2 * Pv)
        return -lhs


def build_expansion(model: InhomogeneityModel, C0: float, lab: Lab,
                    eta_star: float = ETA_STAR_DEFAULT) -> ProfileExpansion:
    """Construct T2, S3, T3, T4, S4 and the adjusted constants for this k and C0.

    Raises SolvabilityViolated if any elliptic system fails its kernel check,
    which would mean the constants do not match the assembled sources.
    """
    consts = derive_constants(model, lab)
    g = lab.grid
    r = g.nodes
    q = lab.Q.values
    q2, q3 = q ** 2, q ** 3
    H = model.hessian
    terms: Dict[Monomial, AngularField] = {}

    def put(mono: Monomial, f: AngularField, imag: bool = False):
        add = f * 1j if imag else f
        terms[mono] = terms.get(mono, AngularField(g)) + add

    def solve(op, src):
        return _solve_field(lab, op, src)

    if model.is_flat:
        return ProfileExpansion(lab=lab, model=model, constants=consts, C0=C0,
                                terms={}, eta_star=eta_star)

    # ---- order 2: L+(T2) = ∇²k(0)(α,y)λQ³ + (λ²/2)∇²k(0)(y,y)Q³ - λ c0(α)·yQ
    U20 = solve("plus", AngularField.from_angular(g, 0.5 * r ** 2 * q3, model.hess_form, 2))
    put((0, 2, 0, 0, 0, 0), U20)
    U2 = []
    for j in range(2):
        c0_ej = consts.c0_map[:, j]

        def ang_h(cx, sx, j=j):
            return H[0, j] * cx + H[1, j] * sx

        def ang_c(cx, sx, v=c0_ej):
            return v[0] * cx + v[1] * sx

        src = AngularField.from_angular(g, r * q3, ang_h, 1) \
            - AngularField.from_angular(g, r * q, ang_c, 1)
        U2j = solve("plus", src)
        U2.append(U2j)
        mono = [0, 1, 0, 0, 0, 0]
        mono[4 + j] = 1
        put(tuple(mono), U2j)

    # ---- order 3 imaginary: L-(S3) = -λb ∂_λT2 + 2βλ ∂_αT2
    V0 = solve("minus", U20 * (-2.0))
    put((1, 2, 0, 0, 0, 0), V0, imag=True)
    for j in range(2):
        Vj = solve("minus", U2[j] * (-1.0))
        mono = [1, 1, 0, 0, 0, 0]
        mono[4 + j] = 1
        put(tuple(mono), Vj, imag=True)
        mono = [0, 2, 0, 0, 0, 0]
        mono[2 + j] = 1
        put(tuple(mono), Vj * (-2.0), imag=True)     # W_j = -2 V_j

    # ---- order 3 real: L+(T3) = ∇³k(0)(y,y,y)(λ³/6)Q³ + ∇³k(0)(y,y,α)(λ²/2)Q³ - β3λ³·yQ
    def ang_b3(cx, sx):
        return consts.beta3[0] * cx + consts.beta3[1] * sx

    src30 = AngularField.from_angular(g, r ** 3 * q3 / 6.0, model.third_form, 3) \
        - AngularField.from_angular(g, r * q, ang_b3, 1)
    U30 = solve("plus", src30)
    put((0, 3, 0, 0, 0, 0), U30)
    U3 = []
    for j in range(2):
        src = AngularField.from_angular(
            g, 0.5 * r ** 2 * q3, lambda cx, sx, j=j: model.third_form(cx, sx, e=j), 2)
        U3j = solve("plus", src)
        U3.append(U3j)
        mono = [0, 2, 0, 0, 0, 0]
        mono[4 + j] = 1
        put(tuple(mono), U3j)

    # ---- order 4 real: L+(T4) = f4 λ⁴ with b replaced by λ/C0.
    # f4 collects the surviving pure-λ⁴ real terms: the b-derivative feedbacks
    # of S3, the cubic cross terms of T2, and the 4th-order Taylor term of k.
    # Each factor has only even modes, so f4 is orthogonal to the m = ±1
    # kernel ∂_jQ and needs no solvability constant (the solve checks it).
    hyy = AngularField.from_angular(g, r ** 2, model.hess_form, 2)
    f4 = (V0 * (3.0 / C0 ** 2)
          + (U20 * U20).scale_radial(3.0 * q)
          + (hyy * U20).scale_radial(1.5 * q2)
          + AngularField.from_angular(g, r ** 4 * q3 / 24.0, model.quartic_form, 4))
    put((0, 4, 0, 0, 0, 0), solve("plus", f4))

    # ---- order 4 imaginary: L-(S4) = -(λ²/C0) ∂_λT3
    X0 = solve("minus", U30 * (-3.0 / C0))
    put((0, 4, 0, 0, 0, 0), X0, imag=True)
    for j in range(2):
        Xj = solve("minus", U3[j] * (-2.0 / C0))
        mono = [0, 3, 0, 0, 0, 0]
        mono[4 + j] = 1
        put(tuple(mono), Xj, imag=True)

    return ProfileExpansion(lab=lab, model=model, constants=consts, C0=C0,
                            terms=terms, eta_star=eta_star)


def field_pair(a: AngularField, b: AngularField) -> float:
    """Real L²(R²) pairing 2π Σ_m ∫ a_m conj(b_m) r dr."""
    return float(sum(quadrature((v * np.conj(b.comps[m])).real, a.grid)
                     for m, v in a.comps.items() if m in b.comps))


def conformal_ray(lam: float, C0: float, beta_scale=(0.0, 0.0),
                  alpha_scale=(0.0, 0.0)) -> ParamPoint:
    """P(λ) = (λ/C0, λ, κ_β λ², κ_α λ²): the regime of the blow-up solutions."""
    return ParamPoint(b=lam / C0, lam=lam,
                      beta=np.asarray(beta_scale) * lam ** 2,
                      alpha=np.asarray(alpha_scale) * lam ** 2)


def modulated(F, lam: float, alpha, gamma: float, k_alpha: float,
              pts: np.ndarray) -> np.ndarray:
    """The ansatz k(α)^{-1/2} λ^{-1} F(|x-α|/λ, arg(x-α)) e^{iγ} at points x = pts[..., :2]."""
    pts = np.asarray(pts, dtype=float)
    dx = pts[..., 0] - alpha[0]
    dy = pts[..., 1] - alpha[1]
    vals = F(np.hypot(dx, dy) / lam, np.arctan2(dy, dx))
    return vals * np.exp(1j * gamma) / (np.sqrt(k_alpha) * lam)


def physical_field(expansion: ProfileExpansion, P: ParamPoint):
    """u(x) = k(α)^{-1/2} λ^{-1} Q_P((x-α)/λ) e^{iγ} as a point evaluator."""
    k_alpha = float(expansion.model.k(P.alpha))
    return partial(modulated, partial(expansion.eval_QP, P), P.lam, P.alpha, P.gamma, k_alpha)
