"""Derivative-free search for the tightest empirical quadratic-bound constant.

For a fixed potential the figure of merit of a trial state psi_theta is

    lambda(theta) = -I_xc(psi_theta) / int rho_theta^2,

the empirical constant of the conjectured quadratic form
I_xc >= -C int rho^2.  Observed ratios are empirical lower estimates of the
best constant, never tightness claims.  Search is Nelder-Mead over the
template's box with seeded random restarts; every incumbent is cross-checked
against the proven bounds for the same potential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import BOUNDS, BoundSpec, verify_bound
from .energies import indirect_energy
# integrate_1d is unused here, but bench/test_smoke.py checks that the layer
# tracer rebinds it by name in this module
from .numerics import integrate_1d, rng_stream  # noqa: F401
from .potentials import Potential
from .states import (
    CorrelatedGaussianPair,
    GaussianProduct,
    HermiteSlater,
    TrialState,
    density,
)

__all__ = [
    "ObjectiveEvaluationFailed",
    "StateTemplate",
    "SearchProblem",
    "SearchResult",
    "maximize_ratio",
    "constant_table",
    "template_by_name",
    "TEMPLATES",
    "MIN_BUDGET",
]

MIN_BUDGET = 50


class ObjectiveEvaluationFailed(RuntimeError):
    def __init__(self, message, theta=None):
        super().__init__(message)
        self.theta = theta


@dataclass(frozen=True)
class StateTemplate:
    """Named parametric family: theta inside ``bounds`` builds a TrialState."""

    name: str
    bounds: tuple
    build: callable


@dataclass(frozen=True)
class SearchProblem:
    potential: Potential
    template: StateTemplate
    budget: int = 1000

    def __post_init__(self):
        if self.budget < MIN_BUDGET:
            raise ValueError(f"budget must be at least {MIN_BUDGET} evaluations")


@dataclass
class SearchResult:
    best_theta: tuple
    best_ratio: float
    evaluations_used: int
    trace: list = field(default_factory=list)  # (theta, ratio) incumbents
    cross_check_failures: list = field(default_factory=list)
    best_checks: dict = field(default_factory=dict)  # bound id -> the incumbent's BoundReport

    def to_record(self, problem: SearchProblem) -> dict:
        return {
            "potential": problem.potential.label(),
            "family": problem.template.name,
            "best_ratio": self.best_ratio,
            "best_theta": ";".join(f"{t:.8g}" for t in self.best_theta),
            "evaluations": self.evaluations_used,
        }


def _ratio(state: TrialState, potential: Potential) -> tuple:
    breakdown = indirect_energy(state, potential)
    rho_sq = float(state.correlations(0.0)[1])  # int rho^2 = C(0)
    return -breakdown.i_xc / rho_sq, breakdown


def _nelder_mead(f, x0, lo, hi, max_evals):
    """Minimize f over the box; standard coefficients (1, 2, 0.5, 0.5).

    The simplex starts at 5% of the box width.  Returns (x, fx, evals).
    """
    dim = len(x0)
    evals = 0

    def feval(x):
        nonlocal evals
        evals += 1
        return f(np.clip(x, lo, hi))

    step = 0.05 * (hi - lo)
    simplex = [np.array(x0, dtype=float)]
    for i in range(dim):
        vertex = simplex[0].copy()
        vertex[i] = vertex[i] + step[i] if vertex[i] + step[i] <= hi[i] else vertex[i] - step[i]
        simplex.append(vertex)
    values = []
    for v in simplex:
        if evals >= max_evals:
            values.append(math.inf)
            continue
        values.append(feval(v))

    while evals < max_evals:
        order = np.argsort(values, kind="stable")
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        if abs(values[-1] - values[0]) <= 1e-12 * (abs(values[0]) + 1e-12):
            break
        centroid = np.mean(simplex[:-1], axis=0)
        reflected = centroid + 1.0 * (centroid - simplex[-1])
        fr = feval(reflected)
        if values[0] <= fr < values[-2]:
            simplex[-1], values[-1] = reflected, fr
            continue
        if fr < values[0]:
            if evals >= max_evals:
                simplex[-1], values[-1] = reflected, fr
                break
            expanded = centroid + 2.0 * (centroid - simplex[-1])
            fe = feval(expanded)
            if fe < fr:
                simplex[-1], values[-1] = expanded, fe
            else:
                simplex[-1], values[-1] = reflected, fr
            continue
        if evals >= max_evals:
            break
        contracted = centroid + 0.5 * (simplex[-1] - centroid)
        fc = feval(contracted)
        if fc < values[-1]:
            simplex[-1], values[-1] = contracted, fc
            continue
        for i in range(1, len(simplex)):  # shrink toward the best vertex
            if evals >= max_evals:
                break
            simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
            values[i] = feval(simplex[i])

    best = int(np.argmin(values))
    return simplex[best], values[best], evals


def maximize_ratio(problem: SearchProblem, seed: int) -> SearchResult:
    """Nelder-Mead with seeded random restarts; deterministic given the seed.

    restarts = max(1, budget // 200); incumbents are recorded in the trace
    (strict improvements only, so ties resolve to first-found) and verified
    against the proven bounds for the potential.
    """
    lo = np.array([b[0] for b in problem.template.bounds], dtype=float)
    hi = np.array([b[1] for b in problem.template.bounds], dtype=float)
    check_specs = [
        BoundSpec(row.id, problem.potential)
        for row in BOUNDS.values()
        if row.cross_check and isinstance(problem.potential, row.applies_to)
    ]

    result = SearchResult(best_theta=(), best_ratio=-math.inf, evaluations_used=0)

    def objective(x):
        theta = tuple(float(t) for t in x)
        try:
            state = problem.template.build(theta)
            ratio, breakdown = _ratio(state, problem.potential)
        except ObjectiveEvaluationFailed:
            raise
        except Exception as err:
            raise ObjectiveEvaluationFailed(
                f"objective failed at theta={theta}: {err}", theta=theta
            ) from err
        if ratio > result.best_ratio:
            result.best_ratio = ratio
            result.best_theta = theta
            result.trace.append((theta, ratio))
            profile = density(state) if check_specs else None
            result.best_checks = {}
            for spec in check_specs:
                report = verify_bound(spec, profile, breakdown)
                result.best_checks[spec.bound_id] = report
                if not report.holds:
                    result.cross_check_failures.append((theta, spec.bound_id, report.slack))
        return -ratio

    n_restarts = max(1, problem.budget // 200)
    per_restart = problem.budget // n_restarts
    for restart in range(n_restarts):
        rng = rng_stream(seed, restart)
        x0 = lo + rng.uniform(size=len(lo)) * (hi - lo)
        remaining = min(per_restart, problem.budget - result.evaluations_used)
        if remaining <= 0:
            break
        _, _, used = _nelder_mead(objective, x0, lo, hi, remaining)
        result.evaluations_used += used
    return result


# ---------------------------------------------------------------------------
# template registry and the summary table


def _build_separated_pair(symmetry):
    def build(theta):
        separation, width = theta
        if symmetry == "antisymmetric":
            separation = max(separation, 0.3 * width)
        return GaussianProduct((-separation / 2, separation / 2), width, symmetry)

    return build


TEMPLATES = {
    t.name: t
    for t in (
        StateTemplate(
            "separated_gaussian_pair", ((0.0, 12.0), (0.5, 2.0)), _build_separated_pair("symmetric")
        ),
        StateTemplate(
            "antisymmetric_gaussian_pair",
            ((0.5, 12.0), (0.5, 2.0)),
            _build_separated_pair("antisymmetric"),
        ),
        StateTemplate(
            "equal_gaussian_pair",
            ((0.3, 3.0),),
            lambda theta: GaussianProduct((0.0, 0.0), theta[0], "symmetric"),
        ),
        StateTemplate(
            "correlated_pair",
            ((0.5, 2.0), (0.0, 0.95), (0.1, 2.0)),
            lambda theta: CorrelatedGaussianPair(theta[0], theta[1], theta[2]),
        ),
        StateTemplate(
            "hermite_pair", ((0.3, 3.0),), lambda theta: HermiteSlater(2, theta[0], "antisymmetric")
        ),
        StateTemplate(
            "hermite_triple",
            ((0.3, 3.0),),
            lambda theta: HermiteSlater(3, theta[0], "antisymmetric"),
        ),
    )
}


def template_by_name(name: str) -> StateTemplate:
    if name not in TEMPLATES:
        raise ValueError(f"unknown state template {name!r}")
    return TEMPLATES[name]


def constant_table(potentials, families, budget: int, seed: int) -> list[dict]:
    """Best observed ratio per (potential, template name); empty inputs, empty table.

    For potentials covered by the pointwise logarithmic bound the table also
    reports the fraction of that proven bound actually used by the best
    state (in [0, 1]; 1 would mean saturation).  ``cross_check_failures``
    counts the incumbents that violated a proven bound (0 when all held).
    """
    rows = []
    for pot_idx, potential in enumerate(potentials):
        for fam_idx, family in enumerate(families):
            problem = SearchProblem(potential, template_by_name(family), budget)
            res = maximize_ratio(problem, seed + 1000 * pot_idx + fam_idx)
            row = res.to_record(problem)
            # log_pointwise is a cross-check bound: the incumbent's report has it
            log_check = res.best_checks.get("log_pointwise")
            row["proven_bound_fraction"] = log_check.lhs / log_check.rhs if log_check else ""
            row["cross_check_failures"] = len(res.cross_check_failures)
            rows.append(row)
    return rows
