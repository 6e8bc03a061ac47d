"""Refined blow-up profile built order by order in the parameters (b, λ, β, α).

The conformal-frame profile P = Q + Σ_j (T_j + i S_j), T_j and S_j
homogeneous of degree j, solves the profile equation

    i Σ_i law_i ∂_iP − (B·y + iλβ·∇k(α)/k(α)) P + ΔP − P + κ|P|²P = 0,

κ = k(λy+α)/k(α), B = λc0(α) + β3λ³, and law_i the rates of (b, λ, β, α):
rows 0–5 of ``ProfileConstants.laws``, the one table of the modulation
system, whose 9 rows the modulation ODE (``modeqs``) integrates.  Rows 0–5
feed ``build_expansion`` and the residual.  The part of the equation linear
in the degree-j terms is −L+T_j − iL−S_j, so ``build_expansion`` takes the
order-j source as the degree-j part of the equation at the lower terms, on
monomial maps {monomial: AngularField} through a product truncated at
degree j (κ from ``kmodel``'s Taylor forms), and solves each monomial with
L+ or L−.  Q is the map's constant term, at the empty monomial ``_mono()``
and first in order.  The constants c0, β3 (``derive_constants``, frozen and shared
with the modulation ODE) keep every inversion off the kernels, and the
pseudo-conformal law survives because (y_j y_l Q³, ΛQ) = 0.

- Parity: each term of the equation maps an even power of (b, β) to a real
  field and an odd one to an imaginary field, so the monomial picks L+ or
  L−, and P̄ is P with its odd terms negated.  A split by (f ± f̄)/2 would
  leave roundoff residues that the kernel check refuses.
- Truncation: orders 2 and 3 keep every monomial at most linear in (β, α).
  Order 4 is built on the ray b = λ/C0 with β = 0: its real part at α = 0
  (a λ³α part would meet the ∂_jQ kernel, and no constant absorbs it), its
  imaginary part at most linear in α.  So −iλβ·∇k(α)/k(α) and
  1/k(α) = 1 + O(|α|²) drop out.

One coefficient rule, ``ProfileExpansion.coefficients``, weighs the terms:
coeff(mono, P) = Π v^e over (b, λ, β1, β2, α1, α2) (1 for Q), with
derivative e_i·coeff(mono − e_i, P) in parameter i (0 for Q).  The profile, the residual's
Σ law_i ∂_iP (one synthesis) and the fit's samples (``modfit.Fit``) use it.

``ParamPoint`` is the package's one modulation state, passed by the profile,
the modulation ODE (``modeqs``, which integrates both clocks), the fit
(``modfit``) and the CLI: (b, λ, β, α, γ) and the clocks s, t, in the vector
layout [b, λ, β1, β2, α1, α2, γ, s, t]; it owns the phase -b|y|²/4 + β·y.
Profiles and phases take cartesian points y; ``modulated`` forms no angle.
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import Dict, Tuple

import numpy as np

from .fields import AngularField, PolarGrid, angular_modes, in_blocks
from .kmodel import InhomogeneityModel
from .lab import Lab
from .linops import vector_norm
from .radial import banded_matvec, quadrature

Monomial = Tuple[int, int, int, int, int, int]   # powers of (b, λ, β1, β2, α1, α2)
Series = Dict[Monomial, AngularField]            # a monomial map Σ coeff(mono, P)·field

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

    def phase(self, y) -> np.ndarray:
        """The conformal phase -b|y|²/4 + β·y at cartesian points y of shape (..., 2)."""
        y = np.asarray(y)
        return -self.b * (y[..., 0] ** 2 + y[..., 1] ** 2) / 4.0 + y @ self.beta

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

    def forcing(self) -> Dict[Monomial, np.ndarray]:
        """B as {monomial: vector}: λα_j -> c0(e_j), λ³ -> β3."""
        return {_mono(1, 4): self.c0_map[:, 0], _mono(1, 5): self.c0_map[:, 1],
                _mono(1, 1, 1): self.beta3}

    def laws(self) -> Tuple[Dict[Monomial, float], ...]:
        """The modulation system: the rates in s of [b, λ, β1, β2, α1, α2, γ, s, t],
        each {monomial: coefficient}.

        b_s = −b² + d0(α), λ_s = −bλ, β_s = −bβ + B, α_s = 2λβ,
        γ_s = 1 + |β|² − d1(α), s_s = 1, t_s = λ².  The profile reads rows 0–5.
        Beyond its truncation lie the rows γ, s and t, and the d0(α) entries
        of b_s: quadratic in α, the generator's product drops them, and the
        residual keeps them.
        """
        def form(F, sign):      # sign·α @ F @ α
            return {_mono(4, 4): float(sign * F[0, 0]), _mono(5, 5): float(sign * F[1, 1]),
                    _mono(4, 5): float(sign * (F[0, 1] + F[1, 0]))}

        beta = tuple({_mono(0, 2 + j): -1.0, **{m: float(v[j]) for m, v in self.forcing().items()}}
                     for j in range(2))
        return ({_mono(0, 0): -1.0, **form(self.d0_form, 1.0)}, {_mono(0, 1): -1.0}, *beta,
                {_mono(1, 2): 2.0}, {_mono(1, 3): 2.0},
                {_mono(): 1.0, _mono(2, 2): 1.0, _mono(3, 3): 1.0, **form(self.d1_form, -1.0)},
                {_mono(): 1.0}, {_mono(1, 1): 1.0})


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
    beta3 = np.array([np.real(angular_modes(partial(model.third_form, e=j), 2).get(0, 0.0))
                      for j in range(2)]) * rad3 / (4.0 * m.massQ)

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
    """Solve L± on each mode of a real field (f_{-m} = conj(f_m)); L± depends on
    |m| only, so a −m mode takes the conjugate of the +m solution."""
    # each mode carries the roundoff of the θ-FFT that built the whole source,
    # so a mode's kernel defect is measured against the largest mode
    scale = max(vector_norm(v) for v in src.comps.values()) if src.comps else 0.0
    sols = {m: lab.ops.solve(op, v, abs(m), scale) for m, v in src.comps.items()
            if (m >= 0 or -m not in src.comps) and np.max(np.abs(v)) > 0.0}
    return AngularField(lab.grid, {m: sols[m] if m in sols else np.conj(sols[-m])
                                   for m in src.comps if m in sols or -m in sols})


def _mono(*params: int) -> Monomial:
    """The monomial Π v_i over the listed parameter indices, repeats raising the power."""
    return tuple(params.count(i) for i in range(6))


def _coeff(mono: Monomial, P: ParamPoint) -> float:
    """The monomial's value at P: Π v^e over (b, λ, β1, β2, α1, α2) (1 for Q's _mono())."""
    vals = (P.b, P.lam, P.beta[0], P.beta[1], P.alpha[0], P.alpha[1])
    return math.prod((v ** e for v, e in zip(vals, mono) if e), start=1.0)


def _value(poly: dict, P: ParamPoint):
    """A polynomial {monomial: coefficient} at P."""
    return sum(c * _coeff(mono, P) for mono, c in poly.items())


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
    """The monomial map of the refined profile (Q first) plus everything to evaluate it."""

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

    def combined(self, P: ParamPoint, coeffs=None) -> AngularField:
        """Σ coefficient · field at P (or with the given coefficients)."""
        out = AngularField(self.lab.grid)
        for mono, c in (self.coefficients(P) if coeffs is None else coeffs).items():
            if c != 0.0:
                out = out + self.terms[mono] * c
        return out

    # -- evaluation -------------------------------------------------------

    def QP_evaluator(self, P: ParamPoint):
        """y -> Q_P(y) = P_P(y) · e^{i(-b|y|²/4 + β·y)} (Σ = Re, Θ = Im), a point
        evaluator holding P_P's one spline."""
        field = self.combined(P)
        spline = field.spline()
        return lambda y: field.at(y, spline) * np.exp(1j * P.phase(y))

    def mass(self, P: ParamPoint) -> float:
        """∫|Q_P|², exact in the mode algebra (equals ∫Q² + O(P⁴))."""
        return self.combined(P).norm() ** 2

    def _kappa(self, P: ParamPoint, polar: PolarGrid):
        """(k(λy+α)/k(α) on the polar grid, k(α))."""
        x = P.lam * polar.points + P.alpha
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

    def residual(self, P: ParamPoint, weight: float = 0.25) -> float:
        """e^{weight·r}-weighted L² norm of the mismatch in the conformal-frame profile equation.

        The equation is evaluated with the law table that built the terms,
        the exact parameter derivatives of the monomial map, the same
        discrete Laplacian that built the fields, and the actual k evaluator
        (not its Taylor polynomial).
        """
        P.check_small(self.eta_star)
        polar = self.lab.polar
        psi = self._mismatch(P, polar)
        w2 = np.exp(2.0 * weight * polar.r)[:, None]
        return float(np.sqrt(polar.integral(np.abs(psi) ** 2 * w2)))

    def _mismatch(self, P: ParamPoint, polar: PolarGrid) -> np.ndarray:
        """The profile-equation residual ψ sampled on the polar grid."""
        Pv = self.combined(P).on_native(polar)
        # Δ amplifies roundoff by 1/h², and at λ ~ 0.01 the norm of ψ resolves
        # the order of summation, so the monomials are summed after synthesis
        lapP = sum(c * _lap_field(self.lab, self.terms[mono]).on_native(polar)
                   for mono, c in self.coefficients(P).items() if c != 0.0)
        # Σ_i law_i ∂_iP from the law table, summed on the terms: one synthesis
        rates = [_value(law, P) for law in self.constants.laws()[:6]]
        slopes = [self.coefficients(P, i) for i in range(6)]
        along = {mono: sum(v * d[mono] for v, d in zip(rates, slopes)) for mono in self.terms}
        drift = self.combined(P, coeffs=along).on_native(polar)

        By = polar.points @ _value(self.constants.forcing(), P)
        kappa, k_alpha = self._kappa(P, polar)
        gterm = P.lam * float(P.beta @ (self.model.grad_k(P.alpha) / k_alpha))

        # the O(1) terms cancel to the residual first, so the small ones do not
        # move their rounding
        lhs = (lapP - Pv + kappa * np.abs(Pv) ** 2 * Pv) + (1j * drift - (By + 1j * gterm) * Pv)
        return -lhs


RAY_ORDER = 4      # the last order, built on the ray b = λ/C0 with β = 0


def _even(mono: Monomial) -> bool:
    """An even power of (b, β): the monomial's field is real (odd: imaginary)."""
    return (mono[0] + mono[2] + mono[3]) % 2 == 0


def _admitted(mono: Monomial, order: int, final: bool = False) -> bool:
    """The truncation policy on the degree-`order` monomials (final), or on the
    product monomials that can still reach one of them."""
    n_beta, n_alpha = mono[2] + mono[3], mono[4] + mono[5]
    if final and (sum(mono) != order or (order == RAY_ORDER and _even(mono) and n_alpha)):
        return False
    return sum(mono) <= order and n_beta + n_alpha <= 1 and not (order == RAY_ORDER and n_beta)


def _sum(*series: Series) -> Series:
    out: Series = {}
    for part in series:
        for mono, f in part.items():
            out[mono] = out[mono] + f if mono in out else f
    return out


def _product(a: dict, b: Series, keep) -> Series:
    """The product of two monomial maps (a's values fields or scalars), on the
    monomials that `keep` admits."""
    pairs = ((tuple(map(sum, zip(ma, mb))), fa, fb) for ma, fa in a.items() for mb, fb in b.items())
    return _sum(*({mono: fa * fb} for mono, fa, fb in pairs if keep(mono)))


def _taylor_fields(g, parts) -> Series:
    """{monomial: rⁿ/n! · form(cosθ, sinθ)} from (monomial, n, form), each with
    one ``from_angular`` so that modes which cancel are dropped."""
    fields = {mono: AngularField.from_angular(g, g.nodes ** n / math.factorial(n), form, n)
              for mono, n, form in parts}
    return {mono: f for mono, f in fields.items() if f.comps}


def _source(P: Series, order: int, kappa: Series, minus_By: Series, laws) -> Series:
    """The degree-`order` part of i Σ_i law_i ∂_iP − (B·y)P + κ|P|²P at P = Q
    plus the terms below `order` (ΔP − P has no part of that degree)."""
    within, top = partial(_admitted, order=order), partial(_admitted, order=order, final=True)
    drift = [_product(law, {m[:i] + (m[i] - 1,) + m[i + 1:]: f * (1j * m[i])
                            for m, f in P.items() if m[i]}, top)
             for i, law in enumerate(laws)]
    P = {mono: f for mono, f in P.items() if within(mono)}    # products only raise powers
    conj = {mono: f if _even(mono) else f * -1.0 for mono, f in P.items()}
    return _sum(_product(kappa, _product(_product(P, P, within), conj, within), top),
                _product(minus_By, P, top), *drift)


def build_expansion(model: InhomogeneityModel, C0: float, lab: Lab,
                    eta_star: float = ETA_STAR_DEFAULT) -> ProfileExpansion:
    """Generate T2, S3, T3, T4, S4 from the profile equation (module docstring).

    SolvabilityViolated from a kernel check means the constants do not match.
    """
    consts = derive_constants(model, lab)
    g = lab.grid
    # κ = 1 + Σ_n ∇ⁿk(0)(λy+α, …, λy+α)/n! within the policy: its λⁿ and λⁿ⁻¹α_j parts
    forms = {2: model.hess_form, 3: model.third_form, 4: model.quartic_form}
    taylor = [(_mono(*[1] * n), n, form) for n, form in forms.items()] + [
        (_mono(*[1] * (n - 1), 4 + j), n - 1, partial(forms[n], e=j)) for n in (2, 3) for j in range(2)]
    kappa = {_mono(): AngularField.radial(g, np.ones(g.n)), **_taylor_fields(g, taylor)}
    minus_By = _taylor_fields(g, [(mono, 1, lambda cx, sx, v=v: -v[0] * cx - v[1] * sx)
                                  for mono, v in consts.forcing().items()])
    laws, terms = consts.laws()[:6], {_mono(): AngularField.radial(g, lab.Q.values)}
    for order in range(2, RAY_ORDER + 1):
        parts = {(m, _even(m)): f for m, f in _source(terms, order, kappa, minus_By, laws).items()}
        if order == RAY_ORDER:      # b = λ/C0, each monomial keeping its parity
            parts = _sum(*({((0, m[0] + m[1]) + m[2:], even): f * C0 ** -m[0]}
                           for (m, even), f in parts.items()))
        for (mono, even), f in parts.items():
            sol = _solve_field(lab, "plus", f) if even else _solve_field(lab, "minus", f * -1j) * 1j
            if sol.comps:
                terms = _sum(terms, {mono: sol})
    return ProfileExpansion(lab=lab, model=model, constants=consts, C0=C0,
                            terms=terms, eta_star=eta_star)


def conformal_ray(lam: float, C0: float, beta_scale=(0.0, 0.0),
                  alpha_scale=(0.0, 0.0)) -> ParamPoint:
    """P(λ) = (λ/C0, λ, κ_β λ², κ_α λ²): the regime of the blow-up solutions."""
    return ParamPoint(b=lam / C0, lam=lam,
                      beta=np.asarray(beta_scale) * lam ** 2,
                      alpha=np.asarray(alpha_scale) * lam ** 2)


def modulated(F, lam: float, alpha, gamma: float, k_alpha: float,
              pts: np.ndarray) -> np.ndarray:
    """The ansatz k(α)^{-1/2} λ^{-1} F((x-α)/λ) e^{iγ} at points x = pts[..., :2],
    fields.AT_BLOCK points at a time."""
    rotation, scale = np.exp(1j * gamma), np.sqrt(k_alpha) * lam

    def block(x):
        return F((x - alpha) / lam) * rotation / scale

    return in_blocks(block, np.asarray(pts, dtype=float)[..., :2], complex)


def physical_field(expansion: ProfileExpansion, P: ParamPoint):
    """u(x) = k(α)^{-1/2} λ^{-1} Q_P((x-α)/λ) e^{iγ} as a point evaluator."""
    k_alpha = float(expansion.model.k(P.alpha))
    return partial(modulated, expansion.QP_evaluator(P), P.lam, P.alpha, P.gamma, k_alpha)
