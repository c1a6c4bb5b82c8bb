"""Lower bounds on the indirect interaction energy, and their verification.

Every bound states I_xc(psi) >= RHS(rho_psi).  The implemented family:

  contact_direct       -(1/2) int rho^2                      (contact)
  cauchy_schwarz       -(int v) int rho^2                    (finite int v)
  maximal_cs           16x weaker maximal-function variant of the above
  moment_split         -(1/2) int rho^2 * int_0^g v'' r^2
                       -(1/2) N * int_g^inf v'' r            (convex v, any g >= 0)
  log_pointwise        -8 int rho^2 [A1 + c1 ln(1 + c2 e^-3 / rho)],
                       A1 = c1 (ln 2 + 3) + c3
  log_global           -(1/2) int rho^2 [N c3/a + c1 ln(1 + a c2 / int rho^2)]
  lifted               -(c1 c2 c3/(2c)) int rho^2 - c N / 2  (from ln(1+x) <= x)
  lundholm             -2^(2-e)(2-e)^2/(e(1-e)) int rho^(2-e)   (homogeneous)
  homogeneous_window   the unit-window moment split for v = r^(e-1); the
                       directly computed quadratic coefficient
                       1/e + (e-3)/2 disagrees with the published 1/e + e - 3,
                       so both variants are reported and only the computed
                       one is verified
  rasanen              -int rho^2 (K1 + ln(K2/(e rho)))      (conjectured,
                       reference only; excluded from the proven set)

``BOUNDS`` is the one table of the family: for each bound the potential
classes it applies to, its right-hand side, the parameter grid of the
verification battery, whether it is proven, and whether search incumbents
are cross-checked against it.  Adding a bound is adding one row.

verify_bound takes LHS = I_xc from the state's energy breakdown and the RHS
from its density profile, both computed once per state by run_suite, and
declares the bound to hold when slack = LHS - RHS >= -tol with
tol = tol_scale * max(|LHS|, |RHS|, N).  The quadratic bounds
(contact_direct, cauchy_schwarz, maximal_cs, moment_split, log_global,
lifted, homogeneous_window) read int rho^2 = C(0), the closed form that
``density`` puts on the profile and the Hartree term of the contact energy
reads too; on a profile without it they raise ValueError.  log_pointwise,
lundholm and rasanen have no closed form and integrate on the grid profile
(trapezoid_richardson).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .energies import EnergyBreakdown, interaction_energies
from .potentials import (
    ApproxContact,
    Contact,
    ConvexSoftCoulomb,
    Homogeneous,
    MomentBoundConstants,
    Potential,
    RegularizedCoulomb,
    SoftCoulomb,
    certified_constants,
)
from .states import DensityProfile, density, density_power_integral, trapezoid_richardson

__all__ = [
    "IncompatibleSpec",
    "BoundDef",
    "BOUNDS",
    "BoundSpec",
    "BoundReport",
    "EULER_MASCHERONI",
    "rhs_contact_direct",
    "rhs_cauchy_schwarz",
    "rhs_maximal_cs",
    "rhs_moment_split",
    "rhs_log_pointwise",
    "rhs_log_global",
    "rhs_lifted",
    "rhs_lundholm",
    "rhs_homogeneous_window",
    "rhs_rasanen",
    "verify_bound",
    "run_suite",
    "bound_specs",
    "proven_bound_specs",
    "default_suite_potentials",
    "discrepancy_records",
    "PROVEN_BOUND_IDS",
]

EULER_MASCHERONI = 0.577

class IncompatibleSpec(ValueError):
    """Bound and potential (or parameters) do not go together."""


@dataclass(frozen=True)
class BoundSpec:
    """One bound to check: identity, potential, and bound parameters.

    ``alpha=None`` in log_global means "use the particle number".
    """

    bound_id: str
    potential: Potential
    gamma: float | None = None
    alpha: float | None = None
    shift: float | None = None

    def __post_init__(self):
        if self.bound_id not in BOUNDS:
            raise IncompatibleSpec(f"unknown bound id {self.bound_id!r}")
        if not isinstance(self.potential, self.definition.applies_to):
            raise IncompatibleSpec(
                f"bound {self.bound_id!r} does not apply to {self.potential.family}"
            )
        if not self.definition.valid(self):
            raise IncompatibleSpec(
                f"bound {self.bound_id!r} rejects parameters ({self.params_label() or 'none'})"
            )

    @property
    def definition(self) -> BoundDef:
        return BOUNDS[self.bound_id]

    @property
    def proven(self) -> bool:
        return self.definition.proven

    def params_label(self) -> str:
        parts = []
        if self.gamma is not None:
            parts.append(f"gamma={self.gamma:.6g}")
        if self.bound_id == "log_global":
            parts.append("alpha=N" if self.alpha is None else f"alpha={self.alpha:.6g}")
        if self.shift is not None:
            parts.append(f"c={self.shift:.6g}")
        return ",".join(parts)


@dataclass(frozen=True)
class BoundReport:
    state_id: str
    bound_id: str
    potential: str
    params: str
    lhs: float
    rhs: float
    slack: float
    status: str
    proven: bool = True

    @property
    def holds(self) -> bool:
        return self.status == "holds"

    def to_record(self) -> dict:
        return {
            "state_id": self.state_id,
            "bound_id": self.bound_id,
            "potential": self.potential,
            "params": self.params,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "status": self.status,
        }


def _square_integral(profile: DensityProfile) -> float:
    """int rho^2 = C(0) of the state behind the profile (see ``density``)."""
    if profile.square_integral is None:
        raise ValueError("quadratic bounds read int rho^2 = C(0): this profile has no state")
    return profile.square_integral


def rhs_contact_direct(profile: DensityProfile) -> float:
    """-(1/2) int rho^2: the direct term with the contact interaction."""
    return -0.5 * _square_integral(profile)


def rhs_cauchy_schwarz(profile: DensityProfile, p: Potential) -> float:
    """-(int v) int rho^2 for potentials with finite integral."""
    return -p.integral_value() * _square_integral(profile)


def rhs_maximal_cs(profile: DensityProfile, p: Potential) -> float:
    """Maximal-function route: exactly 16x (= M_2^2) the Cauchy-Schwarz bound."""
    return 16.0 * rhs_cauchy_schwarz(profile, p)


@functools.lru_cache(maxsize=256)
def _moments(p: Potential, gamma: float) -> tuple[float, float]:
    """(int_0^gamma v'' r^2, int_gamma^inf v'' r): the same for every state."""
    return float(p.second_moment(gamma)), float(p.first_moment_tail(gamma))


def rhs_moment_split(profile: DensityProfile, p: Potential, gamma: float) -> float:
    """Window split at gamma: quadratic term inside, linear (N) term outside."""
    n = profile.n_particles
    second, tail = _moments(p, float(gamma))
    return -0.5 * _square_integral(profile) * second - 0.5 * n * tail


def _log_pointwise_field(rho: np.ndarray, constants: MomentBoundConstants) -> np.ndarray:
    a1 = constants.c1 * (math.log(2.0) + 3.0) + constants.c3
    out = np.zeros_like(rho)
    mask = rho > 0
    # rho^2 ln(1 + c/rho) -> 0 as rho -> 0; the zero fill is the limit value
    out[mask] = rho[mask] ** 2 * (
        a1 + constants.c1 * np.log1p(constants.c2 * math.exp(-3.0) / rho[mask])
    )
    return out


def rhs_log_pointwise(profile: DensityProfile, constants: MomentBoundConstants) -> float:
    """-8 int rho^2 [A1 + c1 ln(1 + c2 e^-3/rho)], A1 = c1(ln 2 + 3) + c3."""
    field = _log_pointwise_field(profile.values, constants)
    return -8.0 * trapezoid_richardson(field, profile.grid.dx)


def rhs_log_global(
    profile: DensityProfile,
    constants: MomentBoundConstants,
    alpha: float | None = None,
) -> float:
    """-(1/2) int rho^2 [N c3/alpha + c1 ln(1 + alpha c2 / int rho^2)], alpha > 0 (see BOUNDS)."""
    n = profile.n_particles
    a = float(n) if alpha is None else alpha
    rho_sq = _square_integral(profile)
    return -0.5 * rho_sq * (n * constants.c3 / a + constants.c1 * math.log1p(a * constants.c2 / rho_sq))


def rhs_lifted(profile: DensityProfile, constants: MomentBoundConstants, shift: float) -> float:
    """Quadratic-plus-constant form from ln(1 + x) <= x with alpha = c N/(c1 c2), c > 0."""
    n = profile.n_particles
    c1, c2, c3 = constants.c1, constants.c2, constants.c3
    return -(c1 * c2 * c3 / (2.0 * shift)) * _square_integral(profile) - 0.5 * shift * n


def lundholm_coefficient(epsilon: float) -> float:
    if not 0 < epsilon < 1:
        raise IncompatibleSpec("homogeneous exponent parameter must lie in (0, 1)")
    return 2.0 ** (2 - epsilon) * (2 - epsilon) ** 2 / (epsilon * (1 - epsilon))


def rhs_lundholm(profile: DensityProfile, epsilon: float) -> float:
    """Lundholm et al. bound for v = r^(eps-1): -coef * int rho^(2-eps)."""
    return -lundholm_coefficient(epsilon) * density_power_integral(profile, 2.0 - epsilon)


def homogeneous_window_coefficients(epsilon: float) -> dict:
    """Quadratic coefficients of the unit-window bound, stated vs computed.

    computed = (1/2) int_0^1 v'' r^2 dr = 1/eps + (eps - 3)/2; the published
    value 1/eps + eps - 3 differs (at eps = 1/2: +0.75 vs -0.5).  The linear
    coefficient (1 - eps/2) agrees between the two.
    """
    stated = 1.0 / epsilon + epsilon - 3.0
    computed = 0.5 * float(Homogeneous(epsilon).second_moment(1.0))
    return {
        "epsilon": epsilon,
        "stated_quadratic_coefficient": stated,
        "computed_quadratic_coefficient": computed,
        "linear_coefficient": 1.0 - epsilon / 2.0,
        "discrepant": bool(abs(stated - computed) > 1e-9),
    }


def rhs_homogeneous_window(profile: DensityProfile, epsilon: float) -> float:
    """The unit-window homogeneous bound with the computed quadratic coefficient.

    The published coefficient is recorded, not verified: see
    homogeneous_window_coefficients and discrepancy_records.
    """
    coefs = homogeneous_window_coefficients(epsilon)
    linear = coefs["linear_coefficient"] * profile.n_particles
    return -coefs["computed_quadratic_coefficient"] * _square_integral(profile) - linear


def rhs_rasanen(profile: DensityProfile, epsilon: float) -> float:
    """Conjectured soft-Coulomb reference bound -int rho^2 (K1 + ln(K2/(eps rho))).

    K1 = 3/2 - gamma_E and K2 = 2/pi.  Reference only (its integrand changes
    sign for large rho); never part of the proven verification set.
    """
    k1, k2 = 1.5 - EULER_MASCHERONI, 2.0 / math.pi
    rho = profile.values
    out = np.zeros_like(rho)
    mask = rho > 0
    out[mask] = rho[mask] ** 2 * (k1 + np.log(k2 / (epsilon * rho[mask])))
    return -trapezoid_richardson(out, profile.grid.dx)


@dataclass(frozen=True)
class BoundDef:
    """One row of the bound table.

    ``rhs(profile, spec)`` is the right-hand side, ``param_grid(potential)``
    the BoundSpec keyword sets of the verification battery, ``valid(spec)``
    whether the bound takes the spec's parameters, and ``cross_check`` marks
    the bounds search incumbents are verified against (default parameters).
    """

    id: str
    applies_to: tuple
    rhs: Callable[[DensityProfile, BoundSpec], float]
    param_grid: Callable[[Potential], list] = lambda p: [{}]
    valid: Callable[[BoundSpec], bool] = lambda s: True
    proven: bool = True
    cross_check: bool = False


def _gamma_sweep(p: Potential) -> list[dict]:
    # the homogeneous window split is swept at the one exponent eps = 1/2
    if isinstance(p, Homogeneous) and abs(p.epsilon - 0.5) >= 1e-12:
        return []
    return [{"gamma": float(g)} for g in np.geomspace(1e-2, 1e2, 20)]


def _valid_gamma(s: BoundSpec) -> bool:
    # the homogeneous tail moment diverges at gamma = 0
    if s.gamma is None or s.gamma < 0:
        return False
    return s.gamma > 0 or not isinstance(s.potential, Homogeneous)


def _primary(s: BoundSpec) -> MomentBoundConstants:
    return certified_constants(s.potential)["primary"]


_LOG = (ConvexSoftCoulomb, RegularizedCoulomb)

BOUNDS = {
    row.id: row
    for row in (
        BoundDef(
            "contact_direct", (Contact,), lambda rho, s: rhs_contact_direct(rho), cross_check=True
        ),
        BoundDef(
            "cauchy_schwarz",
            (ApproxContact,),
            lambda rho, s: rhs_cauchy_schwarz(rho, s.potential),
            cross_check=True,
        ),
        BoundDef("maximal_cs", (ApproxContact,), lambda rho, s: rhs_maximal_cs(rho, s.potential)),
        BoundDef(
            "moment_split",
            (ApproxContact, ConvexSoftCoulomb, RegularizedCoulomb, Homogeneous),
            lambda rho, s: rhs_moment_split(rho, s.potential, s.gamma),
            param_grid=_gamma_sweep,
            valid=_valid_gamma,
        ),
        BoundDef(
            "log_pointwise",
            _LOG,
            lambda rho, s: rhs_log_pointwise(rho, _primary(s)),
            cross_check=True,
        ),
        BoundDef(
            "log_global",
            _LOG,
            lambda rho, s: rhs_log_global(rho, _primary(s), s.alpha),
            param_grid=lambda p: [{"alpha": a} for a in (0.1, 1.0, 10.0, None)],
            valid=lambda s: s.alpha is None or s.alpha > 0,
            cross_check=True,
        ),
        BoundDef(
            "lifted",
            _LOG,
            lambda rho, s: rhs_lifted(rho, _primary(s), s.shift),
            param_grid=lambda p: [{"shift": c} for c in (0.5, 2.0)],
            valid=lambda s: s.shift is not None and s.shift > 0,
        ),
        BoundDef(
            "lundholm",
            (Homogeneous,),
            lambda rho, s: rhs_lundholm(rho, s.potential.epsilon),
            cross_check=True,
        ),
        BoundDef(
            "homogeneous_window",
            (Homogeneous,),
            lambda rho, s: rhs_homogeneous_window(rho, s.potential.epsilon),
            cross_check=True,
        ),
        BoundDef(
            "rasanen",
            (SoftCoulomb,),
            lambda rho, s: rhs_rasanen(rho, s.potential.epsilon),
            proven=False,
        ),
    )
}

PROVEN_BOUND_IDS = tuple(row.id for row in BOUNDS.values() if row.proven)


def verify_bound(
    spec: BoundSpec,
    profile: DensityProfile,
    breakdown: EnergyBreakdown,
    state_id: str = "state",
    tol_scale: float = 1e-6,
) -> BoundReport:
    """Check I_xc >= RHS for one state, given its density and its energies under spec."""
    lhs = breakdown.i_xc
    rhs = spec.definition.rhs(profile, spec)
    slack = lhs - rhs
    tol = tol_scale * max(abs(lhs), abs(rhs), float(profile.n_particles))
    status = "holds" if slack >= -tol else "violated"
    return BoundReport(
        state_id=state_id,
        bound_id=spec.bound_id,
        potential=spec.potential.label(),
        params=spec.params_label(),
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        status=status,
        proven=spec.proven,
    )


def default_suite_potentials() -> dict:
    """The potentials every table row is evaluated on (where it applies)."""
    return {
        "contact": Contact(),
        "approx_contact": ApproxContact(0.5),
        "convex_soft_coulomb": ConvexSoftCoulomb(1.0),
        "regularized_coulomb": RegularizedCoulomb(1.0),
        "homogeneous_0.1": Homogeneous(0.1),
        "homogeneous_0.5": Homogeneous(0.5),
        "homogeneous_0.9": Homogeneous(0.9),
        "soft_coulomb": SoftCoulomb(1.0),
    }


def bound_specs() -> list[BoundSpec]:
    """Every table row over its parameter grid, for each potential it applies to.

    Per potential, its own bounds come first and the bounds shared with more
    families (the window split) last.
    """
    specs: list[BoundSpec] = []
    for p in default_suite_potentials().values():
        rows = sorted(
            (row for row in BOUNDS.values() if isinstance(p, row.applies_to)),
            key=lambda row: len(row.applies_to),
        )
        for row in rows:
            specs.extend(BoundSpec(row.id, p, **params) for params in row.param_grid(p))
    return specs


def proven_bound_specs() -> list[BoundSpec]:
    """The proven-bound battery run against every suite state."""
    return [spec for spec in bound_specs() if spec.proven]


def run_suite(
    states,
    specs: list[BoundSpec] | None = None,
    tol_scale: float = 1e-6,
) -> list[BoundReport]:
    """Verify every (state, bound) pair; I_xc is computed once per potential.

    ``states`` is a sequence of (state_id, TrialState).  Reports come back
    sorted by (state_id, bound_id, potential, params) so concurrent or
    re-ordered evaluation cannot change the output.
    """
    specs = proven_bound_specs() if specs is None else specs
    unique: dict[str, Potential] = {}
    for spec in specs:
        unique.setdefault(spec.potential.label(), spec.potential)
    reports: list[BoundReport] = []
    for state_id, state in states:
        profile = density(state)
        breakdowns = dict(zip(unique, interaction_energies(state, unique.values())))
        for spec in specs:
            breakdown = breakdowns[spec.potential.label()]
            reports.append(verify_bound(spec, profile, breakdown, state_id, tol_scale))
    reports.sort(key=lambda r: (r.state_id, r.bound_id, r.potential, r.params))
    return reports


def discrepancy_records() -> list[dict]:
    """Machine-readable ledger of the two published-constant discrepancies.

    Homogeneous schema: value_a is the published form, value_b the derived
    alternative, and ``verified`` names which of them enters verification.
    """
    records = []
    for eps in (0.25, 0.5, 0.75):
        coefs = homogeneous_window_coefficients(eps)
        records.append(
            {
                "id": "homogeneous_window_quadratic_coefficient",
                "parameter": eps,
                "value_a": coefs["stated_quadratic_coefficient"],
                "value_b": coefs["computed_quadratic_coefficient"],
                "verified": "value_b",
                "discrepant": coefs["discrepant"],
            }
        )
    for eps in (0.1, 1.0, 10.0):
        p = ConvexSoftCoulomb(eps)
        variants = certified_constants(p)
        records.append(
            {
                "id": "convex_soft_coulomb_c2_ambiguity",
                "parameter": eps,
                "value_a": variants["primary"].c2,
                "value_b": variants["secondary_c2"].c2,
                "verified": "both_certified",
                "discrepant": True,
            }
        )
    return records
