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
classes it applies to, the per-state functionals and the spec constants its
right-hand side reads, the parameter grid of the verification battery,
whether it is proven, and whether search incumbents are cross-checked
against it.  Adding a bound is adding one row.

The per-state functionals are N, int rho^2 = C(0) (the closed form that
``density`` puts on the profile and the contact energy reads too; a
quadratic bound raises ValueError on a profile without it) and at most one
grid integral (trapezoid_richardson): log_pointwise's per potential,
lundholm's and rasanen's per exponent.  A row may give its grid integral a
floor read from N and int rho^2 (log_pointwise's is (1/2) A1 int rho^2);
floor_settles says whether a check already holds at that floor, so that a
search incumbent needs no profile for it.  The spec constants are the moment
pairs and the certified constants; ``bound_specs`` prices each potential's
moment_split gamma grid in one array call.  run_suite evaluates a battery
as one (state x spec) table: the functionals of all states as columns, each
right-hand side once per spec on them, with the floating-point operations of
verify_bound's one state.  A check holds when slack = LHS - RHS >= -tol,
tol = tol_scale * max(|LHS|, |RHS|, N).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import InitVar, dataclass, field
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
from .report import Table
from .states import DensityProfile, density, density_power_integral, trapezoid_richardson

__all__ = [
    "IncompatibleSpec",
    "BoundDef",
    "BOUNDS",
    "BoundSpec",
    "StateFunctionals",
    "REPORT_ORDER",
    "EULER_MASCHERONI",
    "rhs_contact_direct",
    "rhs_cauchy_schwarz",
    "rhs_maximal_cs",
    "rhs_moment_split",
    "rhs_log_pointwise",
    "rhs_log_global",
    "rhs_lifted",
    "rhs_lundholm",
    "rhs_rasanen",
    "verify_bound",
    "floor_settles",
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
    ``constants`` are the spec's constants (BoundDef.constants).  They are
    priced alone, unless ``priced`` hands in the values that ``bound_specs``
    priced with the rest of the battery.
    """

    bound_id: str
    potential: Potential
    gamma: float | None = None
    alpha: float | None = None
    shift: float | None = None
    priced: InitVar[object] = None
    constants: object = field(init=False, repr=False, compare=False)

    def __post_init__(self, priced):
        if self.bound_id not in BOUNDS:
            raise IncompatibleSpec(f"unknown bound id {self.bound_id!r}")
        if not isinstance(self.potential, self.definition.applies_to):
            raise IncompatibleSpec(
                f"bound {self.bound_id!r} does not apply to {self.potential.family}"
            )
        if not self.definition.valid(self):
            raise IncompatibleSpec(
                f"bound {self.bound_id!r} rejects parameters ({self.params_label or 'none'})"
            )
        if priced is None:
            params = {"gamma": self.gamma, "alpha": self.alpha, "shift": self.shift}
            (priced,) = self.definition.constants(self.potential, [params])
        object.__setattr__(self, "constants", priced)

    @property
    def definition(self) -> BoundDef:
        return BOUNDS[self.bound_id]

    @property
    def proven(self) -> bool:
        return self.definition.proven

    # both labels go into every report row of the spec, so each is formatted once
    @functools.cached_property
    def potential_label(self) -> str:
        return self.potential.label()

    @functools.cached_property
    def params_label(self) -> str:
        parts = []
        if self.gamma is not None:
            parts.append(f"gamma={self.gamma:.6g}")
        if self.bound_id == "log_global":
            parts.append("alpha=N" if self.alpha is None else f"alpha={self.alpha:.6g}")
        if self.shift is not None:
            parts.append(f"c={self.shift:.6g}")
        return ",".join(parts)


@dataclass(frozen=True, eq=False)
class StateFunctionals:
    """N, int rho^2 and the declared grid integrals of a battery's states, as columns.

    A right-hand side reads it in place of a density profile and gives one
    value per state; ``grid`` maps each grid-integral key (fn, *args) to its
    column.  Holding one state's floats, it gives that state's values, with
    the bits of its profile for every row that reads N and int rho^2 alone.
    """

    n_particles: np.ndarray
    square_integral: np.ndarray
    grid: dict


def _square_integral(x: DensityProfile | StateFunctionals):
    """int rho^2 = C(0) of the state behind the profile (see ``density``), or its column."""
    if x.square_integral is None:
        raise ValueError("quadratic bounds read int rho^2 = C(0): this profile has no state")
    return x.square_integral


def _grid_integral(x: DensityProfile | StateFunctionals, fn, *args):
    """fn(profile, *args) on a profile; on StateFunctionals, the column it holds for that key."""
    if isinstance(x, StateFunctionals):
        return x.grid[(fn, *args)]
    return fn(x, *args)


def _log1p(x):
    """math.log1p of a float, or of each value of a column (np.log1p can differ by an ulp)."""
    if isinstance(x, np.ndarray):
        return np.array([math.log1p(v) for v in x.tolist()])
    return math.log1p(x)


def rhs_contact_direct(profile: DensityProfile) -> float:
    """-(1/2) int rho^2: the direct term with the contact interaction."""
    return -0.5 * _square_integral(profile)


def rhs_cauchy_schwarz(profile: DensityProfile, p: Potential) -> float:
    """-(int v) int rho^2 for potentials with finite integral."""
    return -p.integral_value() * _square_integral(profile)


def rhs_maximal_cs(profile: DensityProfile, p: Potential) -> float:
    """Maximal-function route: exactly 16x (= M_2^2) the Cauchy-Schwarz bound."""
    return 16.0 * rhs_cauchy_schwarz(profile, p)


def _moment_pairs(p: Potential, gammas: list) -> list[tuple[float, float]]:
    """(int_0^g v'' r^2, int_g^inf v'' r) at each gamma g; each moment is one array call over all of them."""
    g = np.array(gammas, dtype=float)
    return list(zip(p.second_moment(g).tolist(), p.first_moment_tail(g).tolist()))


def _split(x, second: float, tail: float):
    """The window split with moments (second, tail): quadratic term inside, linear (N) term outside."""
    return -0.5 * _square_integral(x) * second - 0.5 * x.n_particles * tail


def rhs_moment_split(profile: DensityProfile, p: Potential, gamma: float) -> float:
    """Window split at gamma: quadratic term inside, linear (N) term outside."""
    return _split(profile, *_moment_pairs(p, [gamma])[0])


def _log_pointwise_a1(constants: MomentBoundConstants) -> float:
    """A1 = c1 (ln 2 + 3) + c3, the constant part of log_pointwise's integrand per rho^2."""
    return constants.c1 * (math.log(2.0) + 3.0) + constants.c3


def _log_pointwise_integral(profile: DensityProfile, constants: MomentBoundConstants) -> float:
    """int rho^2 [A1 + c1 ln(1 + c2 e^-3/rho)] on the profile grid."""
    rho = profile.values
    a1 = _log_pointwise_a1(constants)
    out = np.zeros_like(rho)
    mask = rho > 0
    # rho^2 ln(1 + c/rho) -> 0 as rho -> 0; the zero fill is the limit value
    out[mask] = rho[mask] ** 2 * (
        a1 + constants.c1 * np.log1p(constants.c2 * math.exp(-3.0) / rho[mask])
    )
    return trapezoid_richardson(out, profile.grid.dx)


def rhs_log_pointwise(profile: DensityProfile, constants: MomentBoundConstants) -> float:
    """-8 int rho^2 [A1 + c1 ln(1 + c2 e^-3/rho)], A1 = c1(ln 2 + 3) + c3."""
    return -8.0 * _grid_integral(profile, _log_pointwise_integral, constants)


def rhs_log_global(
    profile: DensityProfile,
    constants: MomentBoundConstants,
    alpha: float | None = None,
) -> float:
    """-(1/2) int rho^2 [N c3/alpha + c1 ln(1 + alpha c2 / int rho^2)], alpha > 0 (see BOUNDS)."""
    n = profile.n_particles
    a = n if alpha is None else alpha
    rho_sq = _square_integral(profile)
    return -0.5 * rho_sq * (n * constants.c3 / a + constants.c1 * _log1p(a * constants.c2 / rho_sq))


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
    return -lundholm_coefficient(epsilon) * _grid_integral(profile, density_power_integral, 2.0 - epsilon)


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


def _rasanen_integral(profile: DensityProfile, epsilon: float) -> float:
    """int rho^2 (K1 + ln(K2/(eps rho))) on the profile grid."""
    k1, k2 = 1.5 - EULER_MASCHERONI, 2.0 / math.pi
    rho = profile.values
    out = np.zeros_like(rho)
    mask = rho > 0
    out[mask] = rho[mask] ** 2 * (k1 + np.log(k2 / (epsilon * rho[mask])))
    return trapezoid_richardson(out, profile.grid.dx)


def rhs_rasanen(profile: DensityProfile, epsilon: float) -> float:
    """Conjectured soft-Coulomb reference bound -int rho^2 (K1 + ln(K2/(eps rho))).

    K1 = 3/2 - gamma_E and K2 = 2/pi.  Reference only (its integrand changes
    sign for large rho); never part of the proven verification set.
    """
    return -_grid_integral(profile, _rasanen_integral, epsilon)


@dataclass(frozen=True)
class BoundDef:
    """One row of the bound table.

    ``rhs(x, spec)`` is the right-hand side, where ``x`` is one state's
    density profile or a battery's StateFunctionals; it reads N
    (``x.n_particles``), int rho^2 and the one grid integral that
    ``grid_integral(spec)`` declares as a key (fn, *args), or None.
    ``constants(potential, params)`` prices the spec constants of the
    potential's specs with keyword sets ``params``, together.
    ``param_grid(potential)`` gives the BoundSpec keyword sets of the
    verification battery, ``valid(spec)`` whether the bound takes the spec's
    parameters, and ``cross_check`` marks the bounds search incumbents are
    verified against (default parameters).  ``grid_floor(x, spec)`` is a
    value, read from N and int rho^2 alone, that the grid integral is never
    below, or None: every grid-integral row's rhs decreases in its integral,
    so the rhs at the floor bounds the RHS from above (see floor_settles).
    """

    id: str
    applies_to: tuple
    rhs: Callable[[DensityProfile | StateFunctionals, BoundSpec], object]
    grid_integral: Callable[[BoundSpec], tuple | None] = lambda s: None
    constants: Callable[[Potential, list], list] = lambda p, params: [None] * len(params)
    param_grid: Callable[[Potential], list] = lambda p: [{}]
    valid: Callable[[BoundSpec], bool] = lambda s: True
    proven: bool = True
    cross_check: bool = False
    grid_floor: Callable[[DensityProfile | StateFunctionals, BoundSpec], object] = lambda x, s: None


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


def _primary(p: Potential, params: list) -> list:
    return [certified_constants(p)["primary"]] * len(params)


_LOG = (ConvexSoftCoulomb, RegularizedCoulomb)

BOUNDS = {
    row.id: row
    for row in (
        BoundDef(
            "contact_direct", (Contact,), lambda x, s: rhs_contact_direct(x), cross_check=True
        ),
        BoundDef(
            "cauchy_schwarz",
            (ApproxContact,),
            lambda x, s: rhs_cauchy_schwarz(x, s.potential),
            cross_check=True,
        ),
        BoundDef("maximal_cs", (ApproxContact,), lambda x, s: rhs_maximal_cs(x, s.potential)),
        BoundDef(
            "moment_split",
            (ApproxContact, ConvexSoftCoulomb, RegularizedCoulomb, Homogeneous),
            lambda x, s: _split(x, *s.constants),
            constants=lambda p, params: _moment_pairs(p, [k["gamma"] for k in params]),
            param_grid=_gamma_sweep,
            valid=_valid_gamma,
        ),
        BoundDef(
            "log_pointwise",
            _LOG,
            lambda x, s: rhs_log_pointwise(x, s.constants),
            grid_integral=lambda s: (_log_pointwise_integral, s.constants),
            constants=_primary,
            cross_check=True,
            # the integrand is at least A1 rho^2 (c1, c2 > 0), the weights of
            # trapezoid_richardson are positive and the grid's int rho^2 is
            # C(0) to within rounding; the factor 1/2 leaves room for the grid
            grid_floor=lambda x, s: 0.5 * _log_pointwise_a1(s.constants) * _square_integral(x),
        ),
        BoundDef(
            "log_global",
            _LOG,
            lambda x, s: rhs_log_global(x, s.constants, s.alpha),
            constants=_primary,
            param_grid=lambda p: [{"alpha": a} for a in (0.1, 1.0, 10.0, None)],
            valid=lambda s: s.alpha is None or s.alpha > 0,
            cross_check=True,
        ),
        BoundDef(
            "lifted",
            _LOG,
            lambda x, s: rhs_lifted(x, s.constants, s.shift),
            constants=_primary,
            param_grid=lambda p: [{"shift": c} for c in (0.5, 2.0)],
            valid=lambda s: s.shift is not None and s.shift > 0,
        ),
        BoundDef(
            "lundholm",
            (Homogeneous,),
            lambda x, s: rhs_lundholm(x, s.potential.epsilon),
            grid_integral=lambda s: (density_power_integral, 2.0 - s.potential.epsilon),
            cross_check=True,
        ),
        BoundDef(
            "homogeneous_window",
            (Homogeneous,),
            lambda x, s: _split(x, *s.constants),
            constants=lambda p, params: _moment_pairs(Homogeneous(p.epsilon), [1.0] * len(params)),
            cross_check=True,
        ),
        BoundDef(
            "rasanen",
            (SoftCoulomb,),
            lambda x, s: rhs_rasanen(x, s.potential.epsilon),
            grid_integral=lambda s: (_rasanen_integral, s.potential.epsilon),
            proven=False,
        ),
    )
}

PROVEN_BOUND_IDS = tuple(row.id for row in BOUNDS.values() if row.proven)


# the order of report rows, so that concurrent or re-ordered evaluation
# cannot change the output: by state, then by the labels of the spec
REPORT_ORDER = operator.itemgetter("state_id", "bound_id", "potential", "params")


def _holds(lhs, rhs, slack, n, tol_scale: float):
    """slack >= -tol with tol = tol_scale * max(|lhs|, |rhs|, N), for one state or for columns of states."""
    return slack >= -(tol_scale * np.maximum(np.maximum(abs(lhs), abs(rhs)), n))


def verify_bound(
    spec: BoundSpec,
    profile: DensityProfile,
    breakdown: EnergyBreakdown,
    state_id: str = "state",
    *,
    tol_scale: float,
) -> dict:
    """Check I_xc >= RHS for one state, given its density and its energies under spec.

    Returns the report row: state_id, bound_id, potential, params, lhs, rhs,
    slack and status ("holds" or "violated").  It is run_suite's row for
    that state and spec, bit for bit.
    """
    lhs = breakdown.i_xc
    rhs = spec.definition.rhs(profile, spec)
    slack = lhs - rhs
    return {
        "state_id": state_id,
        "bound_id": spec.bound_id,
        "potential": spec.potential_label,
        "params": spec.params_label,
        "lhs": lhs,
        "rhs": rhs,
        "slack": slack,
        "status": "holds" if _holds(lhs, rhs, slack, profile.n_particles, tol_scale) else "violated",
    }


def floor_settles(spec: BoundSpec, x: StateFunctionals, lhs: float) -> bool:
    """Whether I_xc = ``lhs`` clears the spec's right-hand side at its grid floor.

    ``x`` holds one state's N and int rho^2.  The rhs decreases in the grid
    integral and the floor is at most that integral, so a nonnegative slack
    at the floor means the full check holds, at any tolerance.  False for a
    row with no grid integral or no floor.
    """
    row = spec.definition
    key = row.grid_integral(spec)
    floor = None if key is None else row.grid_floor(x, spec)
    if floor is None:
        return False
    return lhs - row.rhs(StateFunctionals(x.n_particles, x.square_integral, {key: floor}), spec) >= 0


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
    families (the window split) last.  The constants of a row's specs on one
    potential are priced together, once.
    """
    specs: list[BoundSpec] = []
    for p in default_suite_potentials().values():
        rows = sorted(
            (row for row in BOUNDS.values() if isinstance(p, row.applies_to)),
            key=lambda row: len(row.applies_to),
        )
        for row in rows:
            grid = row.param_grid(p)
            for params, priced in zip(grid, row.constants(p, grid)):
                specs.append(BoundSpec(row.id, p, **params, priced=priced))
    return specs


def proven_bound_specs() -> list[BoundSpec]:
    """The proven-bound battery run against every suite state."""
    return [spec for spec in bound_specs() if spec.proven]


# States priced per energies call in run_suite; the call holds the
# quadrature state of all their integrals at once.  On the default 200-state
# verify in one process (2 vCPUs), one state per call took 0.87 s at a 48.7
# MB peak; 4 to 32 states took 0.75-0.76 s, the peak growing with the chunk
# (49.0 MB at 8, 50.2 MB at 32); all 200 in one call took 0.78 s at 76 MB.
_STATES_PER_CALL = 8


def run_suite(states, specs: list[BoundSpec] | None = None, *, tol_scale: float) -> Table:
    """Verify every (state, bound) pair; I_xc is computed once per (state, potential).

    ``states`` is a sequence of (state_id, TrialState).  The energies of
    _STATES_PER_CALL states at a time come from one interaction_energies
    call.  Each state's density profile gives N, int rho^2 and every grid
    integral the specs declare, and is then dropped; each right-hand side
    is evaluated once, on the columns of all states.  The report rows come
    back as a Table, in REPORT_ORDER: states sorted, each with its rows in
    one spec order.
    """
    specs = proven_bound_specs() if specs is None else specs
    unique = list(dict.fromkeys(spec.potential for spec in specs))
    keys = [key for key in dict.fromkeys(s.definition.grid_integral(s) for s in specs) if key is not None]
    states = sorted(states, key=operator.itemgetter(0))
    rows = []  # per state: N, int rho^2, the grid integrals, then I_xc per potential
    for i in range(0, len(states), _STATES_PER_CALL):
        chunk = [state for _, state in states[i : i + _STATES_PER_CALL]]
        for state, breakdowns in zip(chunk, interaction_energies([(state, unique) for state in chunk])):
            profile = density(state)
            rows.append(
                [profile.n_particles, profile.square_integral]
                + [fn(profile, *args) for fn, *args in keys]
                + [b.i_xc for b in breakdowns]
            )
    columns = np.array(rows, dtype=float).reshape(len(states), 2 + len(keys) + len(unique)).T
    x = StateFunctionals(columns[0], columns[1], dict(zip(keys, columns[2:])))
    lhs_of = dict(zip(unique, columns[2 + len(keys):]))
    ids = [state_id for state_id, _ in states]

    # (spec, state) blocks, read state-major by the final transposes
    order = sorted(specs, key=lambda s: (s.bound_id, s.potential_label, s.params_label))
    lhs = np.array([lhs_of[s.potential] for s in order]).reshape(len(order), len(ids))
    rhs = np.array([np.broadcast_to(s.definition.rhs(x, s), len(ids)) for s in order]).reshape(lhs.shape)
    slack = lhs - rhs
    holds = _holds(lhs, rhs, slack, x.n_particles, tol_scale)
    return Table(
        {
            "state_id": [sid for sid in ids for _ in order],
            "bound_id": [s.bound_id for s in order] * len(ids),
            "potential": [s.potential_label for s in order] * len(ids),
            "params": [s.params_label for s in order] * len(ids),
            "lhs": lhs.T.ravel(),
            "rhs": rhs.T.ravel(),
            "slack": slack.T.ravel(),
            "status": np.where(holds.T, "holds", "violated").ravel().tolist(),
        }
    )


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
