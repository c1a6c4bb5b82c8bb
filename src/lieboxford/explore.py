"""Derivative-free search for the tightest empirical quadratic-bound constant.

For a fixed potential the figure of merit of a trial state psi_theta is

    lambda(theta) = -I_xc(psi_theta) / int rho_theta^2,

the empirical constant of the conjectured quadratic form
I_xc >= -C int rho^2.  Observed ratios are empirical lower estimates of the
best constant, never tightness claims.  Search is Nelder-Mead over the
template's box with seeded random restarts; every incumbent is cross-checked
against the proven bounds for the same potential.

An incumbent's cross-checks read the functionals the search already holds,
N and int rho^2 = C(0): a check with no grid integral gets its exact report
from them, and a grid check whose rhs at the row's grid floor is already
cleared holds (bounds.floor_settles).  Only a grid check that its floor does
not settle samples the incumbent's density.  At the end of a search the
final incumbent's settled checks are evaluated in full on its density, so
``best_checks`` holds full reports.

Nelder-Mead and the search around it are generators that yield the points
and the (state, potential) pairs they need priced.  constant_table runs all
its searches in lockstep: each step prices the pending pair of every live
search in one interaction_energies call, whose values have the bits of a
lone call, so each search gets the result of its run alone.
maximize_ratio is the one-search case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import BOUNDS, BoundSpec, StateFunctionals, floor_settles, verify_bound
from .energies import indirect_energy, interaction_energies
# integrate_1d is unused here, but bench/test_smoke.py checks that the layer
# tracer rebinds it by name in this module
from .numerics import integrate_1d, rng_stream  # noqa: F401
from .potentials import Potential
from .states import CorrelatedGaussianPair, GaussianProduct, HermiteSlater, density

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
    best_checks: dict = field(default_factory=dict)  # bound id -> the incumbent's report row


def _nelder_mead(x0, lo, hi, max_evals):
    """Minimize over the box; standard coefficients (1, 2, 0.5, 0.5).

    A generator: it yields each point to evaluate, clipped onto the box,
    and is sent the objective's value there.  The simplex starts at 5% of
    the box width.  Returns (x, fx, evals).
    """
    dim = len(x0)
    evals = 0

    def feval(x):
        nonlocal evals
        evals += 1
        return (yield np.clip(x, lo, hi))

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
        values.append((yield from feval(v)))

    while evals < max_evals:
        order = np.argsort(values, kind="stable")
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        if abs(values[-1] - values[0]) <= 1e-12 * (abs(values[0]) + 1e-12):
            break
        centroid = np.mean(simplex[:-1], axis=0)
        reflected = centroid + 1.0 * (centroid - simplex[-1])
        fr = yield from feval(reflected)
        if values[0] <= fr < values[-2]:
            simplex[-1], values[-1] = reflected, fr
            continue
        if fr < values[0]:
            if evals >= max_evals:
                simplex[-1], values[-1] = reflected, fr
                break
            expanded = centroid + 2.0 * (centroid - simplex[-1])
            fe = yield from feval(expanded)
            if fe < fr:
                simplex[-1], values[-1] = expanded, fe
            else:
                simplex[-1], values[-1] = reflected, fr
            continue
        if evals >= max_evals:
            break
        contracted = centroid + 0.5 * (simplex[-1] - centroid)
        fc = yield from feval(contracted)
        if fc < values[-1]:
            simplex[-1], values[-1] = contracted, fc
            continue
        for i in range(1, len(simplex)):  # shrink toward the best vertex
            if evals >= max_evals:
                break
            simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
            values[i] = yield from feval(simplex[i])

    best = int(np.argmin(values))
    return simplex[best], values[best], evals


def _search(problem: SearchProblem, seed: int, tol_scale: float):
    """The search of maximize_ratio, as a generator.

    It yields each (state, potential) pair it needs priced and is sent its
    EnergyBreakdown, or has the pricing's error thrown in; it returns the
    SearchResult.
    """
    lo = np.array([b[0] for b in problem.template.bounds], dtype=float)
    hi = np.array([b[1] for b in problem.template.bounds], dtype=float)
    check_specs = [
        BoundSpec(row.id, problem.potential)
        for row in BOUNDS.values()
        if row.cross_check and isinstance(problem.potential, row.applies_to)
    ]

    result = SearchResult(best_theta=(), best_ratio=-math.inf, evaluations_used=0)
    # Nelder-Mead steps clipped onto the box can land on a theta already
    # priced; its ratio is returned again, and it cannot be a new incumbent
    priced = {}
    # the last incumbent's state, energies, profile (None until sampled) and
    # the specs its floor settled, whose full reports wait for the end
    final = None

    def check(theta, spec, x, breakdown):
        report = verify_bound(spec, x, breakdown, tol_scale=tol_scale)
        result.best_checks[spec.bound_id] = report
        if report["status"] != "holds":
            result.cross_check_failures.append((theta, spec.bound_id, report["slack"]))

    def objective(x):
        nonlocal final
        theta = tuple(float(t) for t in x)
        if theta in priced:
            return priced[theta]
        try:
            state = problem.template.build(theta)
            breakdown = yield state, problem.potential
            rho_sq = float(state.correlations(0.0)[1])  # int rho^2 = C(0)
            ratio = -breakdown.i_xc / rho_sq
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
            functionals = StateFunctionals(state.n_particles, rho_sq, {})
            profile, settled = None, []
            result.best_checks = {}
            for spec in check_specs:
                if spec.definition.grid_integral(spec) is None:
                    check(theta, spec, functionals, breakdown)
                elif floor_settles(spec, functionals, breakdown.i_xc):
                    result.best_checks[spec.bound_id] = None  # holds; its report waits for the end
                    settled.append(spec)
                else:
                    profile = density(state) if profile is None else profile
                    check(theta, spec, profile, breakdown)
            final = (state, breakdown, profile, settled)
        priced[theta] = -ratio
        return -ratio

    n_restarts = max(1, problem.budget // 200)
    per_restart = problem.budget // n_restarts
    for restart in range(n_restarts):
        rng = rng_stream(seed, restart)
        x0 = lo + rng.uniform(size=len(lo)) * (hi - lo)
        remaining = min(per_restart, problem.budget - result.evaluations_used)
        if remaining <= 0:
            break
        walk = _nelder_mead(x0, lo, hi, remaining)
        try:
            x = next(walk)
            while True:
                x = walk.send((yield from objective(x)))
        except StopIteration as done:
            result.evaluations_used += done.value[2]
    if final is not None and final[3]:
        state, breakdown, profile, settled = final
        profile = density(state) if profile is None else profile
        for spec in settled:
            check(result.best_theta, spec, profile, breakdown)
    return result


def _price(pairs) -> list:
    """(EnergyBreakdown, None) or (None, error) per (state, potential) pair.

    One interaction_energies call prices them all; if it raises, each pair
    is priced alone, so that every pair gets the outcome of its own call.
    """
    try:
        return [(b, None) for (b,) in interaction_energies([(state, [p]) for state, p in pairs])]
    except Exception:
        out = []
        for state, p in pairs:
            try:
                out.append((indirect_energy(state, p), None))
            except Exception as err:
                out.append((None, err))
        return out


def _run_searches(searches) -> list[SearchResult]:
    """Every search generator (see _search) to its end, in lockstep.

    Each step prices the pending pair of every live search with one _price
    call, so each search gets the values of its run alone.  A search that
    raises makes the call raise that error, the first such search in list
    order winning, as in a loop of lone runs: the searches before it run to
    completion and those after it stop.
    """
    out = [None] * len(searches)
    failed = None  # (search index, error) of the first failing search
    steps = [(i, search, None, None) for i, search in enumerate(searches)]
    while steps:
        pending = []
        for i, search, breakdown, error in steps:
            try:
                pair = search.send(breakdown) if error is None else search.throw(error)
            except StopIteration as done:
                out[i] = done.value
            except Exception as err:
                if failed is None or i < failed[0]:
                    failed = (i, err)
            else:
                pending.append((i, search, pair))
        if failed is not None:  # a later search's result would not be returned
            pending = [step for step in pending if step[0] < failed[0]]
        if not pending:
            break
        priced = _price([pair for _, _, pair in pending])
        steps = [(i, search, *outcome) for (i, search, _), outcome in zip(pending, priced)]
    if failed is not None:
        raise failed[1]
    return out


def maximize_ratio(problem: SearchProblem, seed: int, tol_scale: float) -> SearchResult:
    """Nelder-Mead with seeded random restarts; deterministic given the seed.

    restarts = max(1, budget // 200); incumbents are recorded in the trace
    (strict improvements only, so ties resolve to first-found) and verified
    against the proven bounds for the potential at relative tolerance
    ``tol_scale`` (see verify_bound).  The one-search case of the lockstep
    that constant_table runs.
    """
    return _run_searches([_search(problem, seed, tol_scale)])[0]


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


def constant_table(potentials, families, budget: int, seed: int, tol_scale: float) -> list[dict]:
    """Best observed ratio per (potential, template name); empty inputs, empty table.

    For potentials covered by the pointwise logarithmic bound the table also
    reports the fraction of that proven bound actually used by the best
    state (in [0, 1]; 1 would mean saturation).  ``cross_check_failures``
    counts the incumbents that violated a proven bound at relative tolerance
    ``tol_scale`` (0 when all held).
    """
    cells = [(potential, family) for potential in potentials for family in families]
    searches = [
        _table_search(potential, family, budget, seed + 1000 * pot_idx + fam_idx, tol_scale)
        for pot_idx, potential in enumerate(potentials)
        for fam_idx, family in enumerate(families)
    ]
    rows = []
    for (potential, family), res in zip(cells, _run_searches(searches)):
        # log_pointwise is a cross-check bound: the incumbent's report has it
        log_check = res.best_checks.get("log_pointwise")
        rows.append(
            {
                "potential": potential.label(),
                "family": family,
                "best_ratio": res.best_ratio,
                "best_theta": ";".join(f"{t:.8g}" for t in res.best_theta),
                "evaluations": res.evaluations_used,
                "proven_bound_fraction": log_check["lhs"] / log_check["rhs"] if log_check else "",
                "cross_check_failures": len(res.cross_check_failures),
            }
        )
    return rows


def _table_search(potential, family, budget, seed, tol_scale):
    """The search of one table cell; its problem is built when the search starts, as in a loop."""
    problem = SearchProblem(potential, template_by_name(family), budget)
    return (yield from _search(problem, seed, tol_scale))
