"""Independent reference routes used only by the tests.

None of these enter the package: they are slow or narrow cross-checks of
what the package computes another way.

  ShiftedPotential     v - c, for the shift law of the indirect energy
  scaled_profile       c rho on the same grid, for positive homogeneity
  window_mass          windowed density mass, for the Cauchy-Schwarz step
  integrate_1d_components(_with_error)
                       the adaptive G7/K15 driver over vector-valued
                       integrands ((k, m) values, error per component), one
                       integrand call per panel, with numpy bookkeeping, on
                       finite, half-infinite and doubly infinite (lo, hi)
                       domains; on finite ones the package's scalar driver
                       must agree with it bit for bit
  tightened            a quadrature spec with 1e-2 of the tolerances, for
                       the inner passes of the nested routes
  erfcx_sandwich       the elementary two-sided bound of erfcx
  integrate_2d         nested adaptive 2D quadrature
  correlation          h(u) or C(u) by an adaptive quadrature over y at every
                       u node, the route the states' closed forms replace
  node_major_correlations
                       (h(u), C(u)) of a state's term table on one (n, K)
                       block, one last-axis sum per node: the kernel the
                       package's term-major one must equal bit for bit
  separation_integrals (<V>, D) as one vector-valued pass of the exact h and
                       C times v over [0, span], split at the breakpoints
  lone_energies        interaction_energies with every piece's h v and C v
                       through its own call of the oracle driver above, on
                       node_major_correlations, as LoneEnergies records that
                       keep <V> and D; their I_xc and error estimate the
                       package's many-job call must equal bit for bit
  segment_integral_to  int_0^gamma v over a gamma array, one lone integral per
                       segment between the sorted gammas, summed in order
  expectation_via_2d   <V> of a two-particle state on the support square
  orbital_values       the orbitals of a GaussianProduct or HermiteSlater
                       state, the oscillator's by the Hermite recurrence
  orbital_weights      (norm, W1, W2) of an orbital state by the package's
                       permutation algebra, HermiteSlater's with S = I
  orbital_rho          rho(x) by the orbital route: W1 contracted with the
                       orbital values, the correlated pair's three-Gaussian
                       mixture
  rho2                 the pair density rho2(x, y) of any trial state: the
                       orbital states' through Q_ab(y), the correlated
                       pair's through pair_psi
  rho2_direct          orbital pair density by the full four-index contraction
  pair_psi             psi(x, y) of a CorrelatedGaussianPair
  HERMITE_RULE         the 5-node Gauss-Hermite rule, exact to degree 9
  gauss_hermite_correlations
                       HermiteSlater's (h(u), C(u)) by that rule through rho2
                       and rho, exact since both integrands are e^(-tau^2)
                       times a polynomial of degree <= 8
  orbital_psi          the normalized permanent or determinant of an orbital
                       state's orbitals, for the Pauli and norm checks
  NEAR_DEGENERATE_PRODUCT
                       h and C of the default suite's worst-conditioned
                       GaussianProduct to 30 digits at six separations, and
                       rho at six points
  translated           a state moved by delta, for the translation invariances
  dilated              the state with density lam rho(lam x), for the scaling
                       laws
  read_jsonl           the records of a JSON-lines report, for round trips
  maximal_function_full_scan
                       exact maximal function scanning every radius from the
                       support distance to the far end, in 1024-point chunks
  numpy_stream         numpy's Generator(PCG64(SeedSequence(seed,
                       spawn_key=key))): the stream the package's rng_stream
                       must equal bit for bit, with every variate numpy has
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from lieboxford.energies import DEFAULT_SPEC
from lieboxford.numerics import (
    _INITIAL_PANELS,
    _WG,
    _WK,
    _XK,
    Interval,
    NonConvergence,
    QuadratureSpec,
)
from lieboxford.potentials import Contact, Potential
from lieboxford.states import (
    CorrelatedGaussianPair,
    DensityProfile,
    GaussianProduct,
    HermiteSlater,
    TrialState,
    _symmetrized_weights,
    density,
)


@dataclass(frozen=True)
class ShiftedPotential(Potential):
    """v - c: a constant downshift.

    Pointwise values, derivatives (unchanged) and breakpoints pass through;
    moments and integrals are not defined for the shifted object.
    """

    base: Potential
    c: float
    family = "shifted"

    def value(self, r):
        return self.base.value(r) - self.c

    def deriv1(self, r):
        return self.base.deriv1(r)

    def deriv2(self, r):
        return self.base.deriv2(r)

    def breakpoints(self) -> tuple:
        return self.base.breakpoints()

    @property
    def length_scale(self) -> float:
        return self.base.length_scale

    def to_config(self) -> dict:
        return {"family": self.family, "params": {"base": self.base.to_config(), "c": self.c}}

    def label(self) -> str:
        return f"shifted({self.base.label()},c={self.c:g})"


def scaled_profile(profile: DensityProfile, c: float) -> DensityProfile:
    """c rho on the same grid, with particle number c N."""
    return DensityProfile(profile.grid, c * profile.values, c * profile.n_particles)


def window_mass(state: TrialState, r: float, z, profile: DensityProfile | None = None):
    """alpha(r, z) = int_{z-r}^{z+r} rho(x) dx, the windowed density mass.

    Oracle for the Cauchy-Schwarz step of the two-moment bound:
    int alpha(r, z)^2 dz <= (2r)^2 int rho^2.  Exact for the piecewise-linear
    interpolant of the profile.  Vectorized over z.
    """
    if r < 0:
        raise ValueError("window radius must be nonnegative")
    prof = profile if profile is not None else density(state)
    x = prof.grid.x
    vals = prof.values
    dx = prof.grid.dx
    cum = np.concatenate([[0.0], np.cumsum(0.5 * dx * (vals[1:] + vals[:-1]))])

    def cum_at(t):
        t = np.clip(t, x[0], x[-1])
        j = np.clip(((t - x[0]) / dx).astype(int), 0, len(x) - 2)
        frac = t - x[j]
        rho_t = vals[j] + (vals[j + 1] - vals[j]) * frac / dx
        return cum[j] + 0.5 * frac * (vals[j] + rho_t)

    z = np.asarray(z, dtype=float)
    return (cum_at(z + r) - cum_at(z - r))[()]


# Exponents above this clamp map to radii ~ e^650 where every admissible
# (decaying) integrand has vanished; those nodes contribute exactly zero and
# evaluating them would only overflow the Jacobian.
_TAU_MAX = 650.0


def _half_line_map(t):
    tau_raw = t / (1.0 - t)
    dead = tau_raw > _TAU_MAX
    tau = np.where(dead, _TAU_MAX, tau_raw)
    jac = np.where(dead, 0.0, np.exp(tau) / (1.0 - t) ** 2)
    return np.expm1(tau), jac


def _transform(f, lo: float, hi: float):
    """Map an infinite domain to a finite one; returns (g, (lo', hi')).

    Half lines use r = lo + expm1(t/(1-t)) on (0, 1): the exponential
    stretching keeps algebraically decaying tails (down to r^(-1.1))
    resolvable where a linear-rational map would need panels below machine
    epsilon.  The doubly infinite line uses r = t/(1-t^2) on (-1, 1).
    Kronrod nodes are interior, so the images of infinity are never
    evaluated.  Admissible integrands must decay at infinity.
    """
    if math.isfinite(lo) and math.isfinite(hi):
        return f, (lo, hi)
    if math.isfinite(lo) and hi == math.inf:
        def g(t, _f=f, _lo=lo):
            r, jac = _half_line_map(t)
            return _f(_lo + r) * jac
        return g, (0.0, 1.0)
    if lo == -math.inf and math.isfinite(hi):
        def g(t, _f=f, _hi=hi):
            r, jac = _half_line_map(t)
            return _f(_hi - r) * jac
        return g, (0.0, 1.0)
    def g(t, _f=f):
        w = 1.0 - t * t
        return _f(t / w) * (1.0 + t * t) / w**2
    return g, (-1.0, 1.0)


def _panel(f, a, b):
    """Kronrod estimate and |K - G| error on [a, b]; vector-safe."""
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * _XK
    fx = np.asarray(f(x), dtype=float)
    if fx.shape[-1] != 15:
        raise ValueError("integrand must return one value per node (last axis)")
    if not np.all(np.isfinite(fx)):
        raise ValueError(f"integrand not finite inside panel [{a}, {b}]")
    # each sum in numpy's order for a row of its length, as the package's
    # driver forms it, so the two agree bit for bit on scalar integrands
    k = half * np.add.reduce(fx * _WK, axis=-1)
    g = half * np.add.reduce(fx[..., 1::2] * _WG, axis=-1)
    return k, np.abs(k - g)


def _raise_if_nan(total, total_err):
    """NonConvergence as soon as an error estimate is NaN (its panel sums overflow), as the package raises it."""
    if np.any(np.isnan(total_err)):
        raise NonConvergence(
            "quadrature error estimate is NaN: the panel sums overflow", estimate=total, error=total_err
        )


def integrate_1d_components_with_error(f, domain, spec: QuadratureSpec | None = None):
    """Adaptively integrate ``f`` over ``domain``; returns (value, error).

    ``domain`` is an Interval or a (lo, hi) pair whose ends may be infinite.
    ``f`` must accept a node array and return values with the node axis last;
    leading axes are integrated component-wise.  Raises NonConvergence when
    the subdivision budget is exhausted before the tolerance is met, or as
    soon as an error estimate is NaN, as the package's driver does.
    """
    spec = spec or QuadratureSpec()
    lo, hi = (domain.lo, domain.hi) if isinstance(domain, Interval) else map(float, domain)
    if not lo <= hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if lo == hi:
        probe = np.asarray(f(np.array([lo])), dtype=float)
        return np.zeros(probe.shape[:-1])[()], 0.0
    g, box = _transform(f, lo, hi)

    edges = np.linspace(*box, _INITIAL_PANELS + 1)
    heap = []
    total = None
    total_err = None
    counter = 0
    for a, b in zip(edges[:-1], edges[1:]):
        k, e = _panel(g, a, b)
        total = k if total is None else total + k
        total_err = e if total_err is None else total_err + e
        heapq.heappush(heap, (-float(np.max(e)), counter, a, b, k, e))
        counter += 1
    _raise_if_nan(total, total_err)

    for _ in range(spec.max_subdivisions):
        tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(total))
        if np.all(total_err <= tol):
            return total[()] if np.ndim(total) else float(total), total_err
        _, _, a, b, k, e = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        k1, e1 = _panel(g, a, mid)
        k2, e2 = _panel(g, mid, b)
        total = total - k + k1 + k2
        total_err = total_err - e + e1 + e2
        _raise_if_nan(total, total_err)
        heapq.heappush(heap, (-float(np.max(e1)), counter, a, mid, k1, e1))
        counter += 1
        heapq.heappush(heap, (-float(np.max(e2)), counter, mid, b, k2, e2))
        counter += 1

    tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(total))
    if np.all(total_err <= tol):
        return total[()] if np.ndim(total) else float(total), total_err
    raise NonConvergence(
        f"quadrature did not converge after {spec.max_subdivisions} subdivisions "
        f"(err {np.max(total_err):.3e})",
        estimate=total,
        error=total_err,
    )


def integrate_1d_components(f, domain, spec: QuadratureSpec | None = None):
    """Value of ``integrate_1d_components_with_error``."""
    value, _ = integrate_1d_components_with_error(f, domain, spec)
    return value


def tightened(spec: QuadratureSpec) -> QuadratureSpec:
    """Spec with tolerances scaled by 1e-2 (for inner integrals)."""
    return QuadratureSpec(spec.abs_tol * 1e-2, spec.rel_tol * 1e-2, spec.max_subdivisions)


def erfcx_sandwich(x):
    """Elementary two-sided bound for erfcx: lower, upper arrays.

    2/(sqrt(pi)(x + sqrt(x^2+2))) <= erfcx(x) <= 2/(sqrt(pi)(x + sqrt(x^2+4/pi))),
    with equality of the upper bound at x = 0.
    """
    x = np.asarray(x, dtype=float)
    sq = np.sqrt(np.pi)
    lower = 2.0 / (sq * (x + np.sqrt(x * x + 2.0)))
    upper = 2.0 / (sq * (x + np.sqrt(x * x + 4.0 / np.pi)))
    return lower, upper


def integrate_2d(f, domain_x, domain_y, spec: QuadratureSpec | None = None):
    """Nested adaptive 2D integral of ``f(x, y)``.

    The outer integral runs over y, the inner over x with tightened
    tolerances.  Each outer panel hands its 15 nodes to one vector-valued
    inner pass, so ``f`` must broadcast an x row against a y column.
    """
    spec = spec or QuadratureSpec()
    inner_spec = tightened(spec)

    def outer(ys):
        ys = np.atleast_1d(ys)[:, None]

        def inner(x):
            return np.broadcast_to(f(x[None, :], ys), (len(ys), len(x)))

        return integrate_1d_components(inner, domain_x, inner_spec)

    return integrate_1d_components(outer, domain_y, spec)


def correlation(state: TrialState, spec: QuadratureSpec, pair: bool):
    """Vectorized h(u) = int rho2(y+u, y) dy if ``pair``, else C(u) = int rho(y) rho(y+u) dy."""
    inner = tightened(spec)

    def sample(u):
        u = np.atleast_1d(np.asarray(u, dtype=float))

        def integrand(y):
            if pair:
                return rho2(state, y[None, :] + u[:, None], y[None, :])
            return state.rho(y)[None, :] * state.rho(y[None, :] + u[:, None])

        return integrate_1d_components(integrand, state.support, inner)

    return sample


def node_major_correlations(state: TrialState, u):
    """(h(u), C(u)) of the state's term table on an (n nodes, K rows) block, one (2,) + u.shape array.

    Every table in the one node-major layout: each node's row of terms is
    summed by one last-axis reduction, whose order depends on K alone.  The
    package's kernel, which evaluates tables of fewer than 8 rows
    term-major, must equal it bit for bit.
    """
    t = state._terms
    x = np.asarray(u, dtype=float)[..., None]
    terms = np.subtract(x, t.centre)  # (..., K), one row of terms per node
    np.square(terms, out=terms)
    terms *= -t.rate
    np.exp(terms, out=terms)
    if t.power is not None:
        terms *= np.square(x / t.length) ** t.power
    return np.array((np.add.reduce(terms * t.h, axis=-1), np.add.reduce(terms * t.c, axis=-1)))


def separation_integrals(state: TrialState, p: Potential, spec: QuadratureSpec):
    """(<V>, D) = int_0^span (h(u), C(u)) v(u) du, with the error of each.

    Both components share the component-wise driver's panels, so neither
    the package's scalar driver nor its per-node sharing enters.
    """
    span = state.support.hi - state.support.lo
    edges = [0.0] + [b for b in sorted(p.breakpoints()) if 0.0 < b < span] + [span]
    total, err = np.zeros(2), np.zeros(2)
    for a, b in zip(edges[:-1], edges[1:]):
        value, e = integrate_1d_components_with_error(
            lambda u: np.stack(state.correlations(u)) * p.value(u), Interval(a, b), spec
        )
        total += value
        err += e
    return total, err


@dataclass(frozen=True)
class LoneEnergies:
    """<V>, the Hartree term D, I_xc = <V> - D and the summed error estimate."""

    expectation_v: float
    hartree: float
    i_xc: float
    quadrature_error_estimate: float


def lone_energies(state: TrialState, potentials) -> list[LoneEnergies]:
    """``interaction_energies`` with every integral run alone, <V> and D kept.

    Each piece of [0, span], split at the potential's breakpoints, gets its
    own call of the oracle driver ``integrate_1d_components_with_error`` for
    h v and one for C v, summed piece by piece from 0.0; the contact
    potential reads h(0)/2 and C(0)/2.  h and C come from
    ``node_major_correlations``, not the package's kernel, and the package's
    own lone form is its many-job driver with one job, so neither would be
    an independent route.  I_xc and the error estimate have the bits of the
    package's; <V> and D are the two integrals that it subtracts.
    """
    span = state.support.hi - state.support.lo
    out = []
    for p in potentials:
        if isinstance(p, Contact):
            h0, c0 = node_major_correlations(state, 0.0)
            out.append(LoneEnergies(0.5 * float(h0), 0.5 * float(c0), 0.5 * float(h0) - 0.5 * float(c0), 0.0))
            continue
        edges = [0.0] + [b for b in sorted(p.breakpoints()) if 0.0 < b < span] + [span]
        parts = []
        for component in (0, 1):
            total, err = 0.0, 0.0
            for a, b in zip(edges[:-1], edges[1:]):
                val, e = integrate_1d_components_with_error(
                    lambda u: node_major_correlations(state, u)[component] * p.value(u),
                    Interval(a, b),
                    DEFAULT_SPEC,
                )
                total += val
                err += e
            parts.append((total, err))
        (expectation, e1), (hartree, e2) = parts
        out.append(LoneEnergies(expectation, hartree, expectation - hartree, e1 + e2))
    return out


def segment_integral_to(p: Potential, gamma, spec: QuadratureSpec):
    """int_0^gamma v at each gamma, one lone integral per segment between the sorted gammas.

    The sequential route of ``RegularizedCoulomb._integral_to``: the
    segments in ascending order, each through its own call of the oracle
    driver, summed from 0.0; a repeated gamma adds no segment and a gamma
    <= 0 reads 0.0.
    """
    g = np.atleast_1d(gamma)
    acc = 0.0
    prev = 0.0
    cumulative = np.empty_like(g)
    for idx in np.argsort(g):
        if g[idx] > prev:
            acc += integrate_1d_components(p.value, Interval(prev, g[idx]), spec)
            prev = g[idx]
        cumulative[idx] = acc
    return cumulative.reshape(np.shape(gamma))


def expectation_via_2d(state: TrialState, p: Potential, spec: QuadratureSpec | None = None):
    """<V> of a two-particle state by direct 2D quadrature.

    Integrates |psi(x, y)|^2 v(|x - y|) on the support square, the dual
    route to the separation-coordinate evaluation of the energies module.
    """
    if state.n_particles != 2:
        raise ValueError("2D cross-check applies to two particles")
    spec = spec or QuadratureSpec(abs_tol=1e-9, rel_tol=1e-8)
    box = Interval(
        state.grid_center - state.grid_halfwidth,
        state.grid_center + state.grid_halfwidth,
    )

    def f(x, y):
        return 0.5 * rho2(state, x, y) * p.value(np.abs(x - y))

    return integrate_2d(f, box, box, spec)


def orbital_values(state, x) -> np.ndarray:
    """Stack of the orbital values of a GaussianProduct or HermiteSlater state, shape (N,) + x.shape.

    Hermite orbitals are built by recurrence: the physicists'
    H_k = 2u H_(k-1) - 2(k-1) H_(k-2) is run in its scaled form
    H_k(u) = 2^(k/2) He_k(t), t = sqrt(2) u, He_k = t He_(k-1) - (k-1) He_(k-2),
    which for k <= 2 is operation for operation what scipy.special.eval_hermite
    computes.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(state, GaussianProduct):
        mu = np.asarray(state.centers).reshape((-1,) + (1,) * x.ndim)
        norm = (2 * math.pi * state.width**2) ** -0.25
        return norm * np.exp(-((x - mu) ** 2) / (4 * state.width**2))
    u = (x - state.center) / state.width
    env = np.exp(-(u**2) / 2)
    t = math.sqrt(2.0) * u
    he = [1.0, t]  # He_k(t) = t He_(k-1)(t) - (k-1) He_(k-2)(t)
    for k in range(2, state.n_orbitals):
        he.append(t * he[k - 1] - (k - 1) * he[k - 2])
    rows = []
    for k in range(state.n_orbitals):
        norm = (math.pi**-0.25) / math.sqrt(2.0**k * math.factorial(k) * state.width)
        rows.append(norm * (he[k] * 2.0 ** (k / 2)) * env)  # H_k(u) = 2^(k/2) He_k(t)
    return np.stack(rows)


def orbital_weights(state):
    """(norm, W1, W2) of a GaussianProduct or HermiteSlater state.

    The package's permutation algebra on the orbitals' overlap matrix:
    S_ab = exp(-(mu_a - mu_b)^2 / (8 w^2)) for the Gaussians, the identity
    for the orthonormal oscillator orbitals.
    """
    if isinstance(state, GaussianProduct):
        mu = np.asarray(state.centers)
        overlap = np.exp(-((mu[:, None] - mu[None, :]) ** 2) / (8 * state.width**2))
    else:
        overlap = np.eye(state.n_particles)
    return _symmetrized_weights(overlap, state.symmetry)


def orbital_rho(state: TrialState, x):
    """rho(x) by the orbital route, on the shape of x.

    sum_ab W1_ab phi_a(x) phi_b(x) for the orbital states; for the
    correlated pair the mixture of three centred Gaussians, the terms of
    (1 - h E)^2 with y integrated out of G(x) G(y) E(x - y)^k,
    E = exp(-(x-y)^2/(2 s^2)).
    """
    x = np.asarray(x, dtype=float)
    if isinstance(state, CorrelatedGaussianPair):
        w, s, h = state.width, state.hole_width, state.hole_depth
        alpha = 1 / (2 * w**2)
        total = 0.0
        for coeff, k in ((1.0, 0), (-2 * h, 1), (h * h, 2)):
            beta = k / (2 * s**2)
            amp = 2.0 * coeff * math.sqrt(math.pi / (alpha + beta)) / state._norm
            total = total + amp * np.exp(-(alpha + alpha * beta / (alpha + beta)) * (x - state.center) ** 2)
        return total
    phi = orbital_values(state, x)
    return np.einsum("ab,a...,b...->...", orbital_weights(state)[1], phi, phi)


def rho2(state: TrialState, x, y):
    """rho2(x, y), integrating to N(N-1), on the broadcast shape of x and y.

    For the orbital states sum_ab phi_a(x) phi_b(x) Q_ab(y) with
    Q_ab(y) = sum_cd W2[a,b,c,d] phi_c(y) phi_d(y), contracted on y's own
    nodes; for the correlated pair 2 psi(x, y)^2.
    """
    if isinstance(state, CorrelatedGaussianPair):
        return 2.0 * pair_psi(state, x, y) ** 2
    phi_x = orbital_values(state, x)
    phi_y = orbital_values(state, y)
    q = np.einsum("abcd,c...,d...->ab...", orbital_weights(state)[2], phi_y, phi_y)
    return np.einsum("a...,b...,ab...->...", phi_x, phi_x, q)


def pair_psi(state: CorrelatedGaussianPair, x, y):
    """The normalized psi(x, y) of a CorrelatedGaussianPair (its class docstring)."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    w, s, h, mu = state.width, state.hole_width, state.hole_depth, state.center
    envelope = np.exp(-((x - mu) ** 2 + (y - mu) ** 2) / (4 * w**2))
    hole = 1.0 - h * np.exp(-((x - y) ** 2) / (2 * s**2))
    return envelope * hole / math.sqrt(state._norm)


def _hermite_rule_5():
    """5-node Gauss-Hermite rule for int f(tau) e^(-tau^2), exact to degree 9.

    The nodes are the roots of H_5 = 32 tau^5 - 160 tau^3 + 120 tau,
    tau^2 in {0, (5 -+ sqrt(10))/2}, with weights sqrt(pi) (8/15) and
    sqrt(pi) (7 +- 2 sqrt(10))/60.
    """
    r = math.sqrt(10.0)
    inner, outer = math.sqrt((5 - r) / 2), math.sqrt((5 + r) / 2)
    w_inner, w_outer = (7 + 2 * r) / 60, (7 - 2 * r) / 60
    tau = np.array([-outer, -inner, 0.0, inner, outer])
    weight = math.sqrt(math.pi) * np.array([w_outer, w_inner, 8 / 15, w_inner, w_outer])
    return tau, weight


HERMITE_RULE = _hermite_rule_5()


def gauss_hermite_correlations(state, u):
    """(h(u), C(u)) of a HermiteSlater state by the 5-node Gauss-Hermite rule.

    Under y = c + w (tau/sqrt(2) - u/(2w)) the integrand of h or C is
    e^(-tau^2) e^(-u^2/(2w^2)) times a polynomial in tau of degree at most
    4(N-1) <= 8 (four orbitals, each a polynomial of degree <= N-1 times a
    Gaussian), so the rule integrates it exactly, reading its nodes through
    rho2 and rho.
    """
    tau, omega = HERMITE_RULE
    u = np.asarray(u, dtype=float)[..., None]
    y = state.center + state.width * tau / math.sqrt(2.0) - 0.5 * u
    weight = state.width / math.sqrt(2.0) * omega * np.exp(tau**2)
    h = rho2(state, y + u, y) @ weight
    c = (state.rho(y) * state.rho(y + u)) @ weight
    return h, c


def rho2_direct(state, x, y):
    """sum_abcd W2[a,b,c,d] phi_a(x) phi_b(x) phi_c(y) phi_d(y) on the broadcast grid.

    Orbitals of both arguments and both orbital products are materialized on
    the full broadcast shape before one N^4-term contraction: the slow route
    the package's rho2 factors through Q_ab(y).
    """
    x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
    phi_x = orbital_values(state, x)
    phi_y = orbital_values(state, y)
    px = np.einsum("a...,b...->ab...", phi_x, phi_x)
    py = np.einsum("c...,d...->cd...", phi_y, phi_y)
    return np.einsum("abcd,ab...,cd...->...", orbital_weights(state)[2], px, py)


def permutation_sign(perm) -> int:
    """The sign of a permutation of 0..n-1: the determinant of its permutation matrix."""
    return round(np.linalg.det(np.eye(len(perm))[list(perm)]))


def orbital_psi(state, *coords):
    """psi(x_1, ..., x_N) of a GaussianProduct or HermiteSlater state:
    sum over permutations of (sign) prod_i phi_perm(i)(x_i), over sqrt(norm)."""
    if len(coords) != state.n_particles:
        raise ValueError("one coordinate array per particle")
    coords = np.broadcast_arrays(*[np.asarray(c, float) for c in coords])
    phi = [orbital_values(state, c) for c in coords]
    n = state.n_particles
    out = 0.0
    for perm in itertools.permutations(range(n)):
        sign = permutation_sign(perm) if state.symmetry == "antisymmetric" else 1
        term = phi[0][perm[0]]
        for i in range(1, n):
            term = term * phi[i][perm[i]]
        out = out + sign * term
    return out / math.sqrt(orbital_weights(state)[0])


# The default suite's state s018 (seed 20240801), whose C rows cancel most:
# sum |c_k| / C(0) = 1.7e4.  (u, h(u), C(u)) at u/w in {0, 1/2, 1, 2, 4, 8},
# computed with mpmath at 40 digits from the float parameters and u taken as
# exact: the overlaps, the permutation sums W1, W2 and the norm, and the N^4
# Gaussian integrals of the states module docstring.  h(0) is 0 exactly, by
# antisymmetry.  (x, rho(x)) at x = c + t w, c the mean of the centers and
# t in {-4, -1, 0, 1/2, 1, 4}, likewise at 40 digits with x taken as exact:
# sum_ab W1_ab phi_a(x) phi_b(x) of the orbitals.
NEAR_DEGENERATE_PRODUCT = {
    "state": {
        "centers": (-1.33609811739033, 1.2827427714614215, 2.8362004142414543),
        "width": 2.465225492275787,
        "symmetry": "antisymmetric",
    },
    "values": [
        (0.0, "0", "0.552347508203780171526954971451"),
        (1.2326127461378935, "0.0774316720021736556460280595112", "0.53692920089463022472355492596"),
        (2.465225492275787, "0.242701229284541896730437976706", "0.500637695462268671556439586716"),
        (4.930450984551574, "0.388173536048744697501330624938", "0.41311793885179156292743882937"),
        (9.860901969103148, "0.189364705199502514484610416087", "0.197775162428838554995135706272"),
        (19.721803938206296, "0.000246671436202379916271922980133", "0.000414439169153140470090295311381"),
    ],
    "rho": [
        (-8.933286946332299, "0.0103365131402050697786089287027"),
        (-1.5376104695049384, "0.183497950122327904426495527573"),
        (0.9276150227708486, "0.235510200322218671019493347195"),
        (2.160227768908742, "0.211299419216808078104321765812"),
        (3.3928405150466356, "0.185632588166385223326824051653"),
        (10.788516991873998, "0.0100141732285052925583578402972"),
    ],
}


def translated(state: TrialState, delta: float) -> TrialState:
    """The state with density rho(x - delta)."""
    if isinstance(state, GaussianProduct):
        return dataclasses.replace(state, centers=tuple(c + delta for c in state.centers))
    return dataclasses.replace(state, center=state.center + delta)


def dilated(state: TrialState, lam: float) -> TrialState:
    """The state with density lam rho(lam x): every length divided by lam."""
    if isinstance(state, GaussianProduct):
        return GaussianProduct(tuple(c / lam for c in state.centers), state.width / lam, state.symmetry)
    if isinstance(state, HermiteSlater):
        return HermiteSlater(state.n_orbitals, state.width / lam, state.symmetry, state.center / lam)
    return CorrelatedGaussianPair(
        state.width / lam, state.hole_depth, state.hole_width / lam, state.center / lam
    )


def read_jsonl(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _full_scan_chunk(i_idx, rho_pad, cum_pad, dx, m_lo, m_hi):
    """Exact sup of window averages for grid points i_idx (vectorized)."""
    k_max = int(np.max(m_hi - m_lo)) + 1
    m = m_lo[:, None] + np.arange(k_max + 1)[None, :]
    m = np.minimum(m, m_hi[:, None] + 1)
    # padded arrays carry one zero cell on each side; clamp keeps them flat
    up = np.clip(i_idx[:, None] + m + 1, 0, len(rho_pad) - 1)
    dn = np.clip(i_idx[:, None] - m + 1, 0, len(rho_pad) - 1)
    s = rho_pad[up] + rho_pad[dn]
    F = cum_pad[up] - cum_pad[dn]
    r = m * dx

    with np.errstate(divide="ignore", invalid="ignore"):
        a_break = np.where(m > 0, F / (2 * r), 0.0)
    best = np.max(a_break, axis=1)

    # stationary radius inside each piece: r*^2 = r_m^2 + 2 (F_m - s_m r_m)/b
    b = (s[:, 1:] - s[:, :-1]) / dx
    with np.errstate(divide="ignore", invalid="ignore"):
        rstar_sq = r[:, :-1] ** 2 + 2 * (F[:, :-1] - s[:, :-1] * r[:, :-1]) / b
        valid = (b != 0) & (rstar_sq > r[:, :-1] ** 2) & (rstar_sq < r[:, 1:] ** 2)
        rstar = np.sqrt(np.where(valid, rstar_sq, 1.0))
        a_star = np.where(valid, 0.5 * (s[:, :-1] + b * (rstar - r[:, :-1])), 0.0)
    best = np.maximum(best, np.max(a_star, axis=1))
    return np.maximum(best, rho_pad[i_idx + 1])  # r -> 0 limit is rho itself


def maximal_function_full_scan(profile: DensityProfile) -> DensityProfile:
    """The maximal function with no radius cutoff: every point scans every radius.

    Each point scans from its distance to the support to the radius where the
    window covers the whole support, in fixed chunks of 1024 points padded
    to the longest scan of the chunk.  The package's maximal_function must
    agree with it bit for bit.
    """
    rho = profile.values
    n = len(rho)
    dx = profile.grid.dx
    nz = np.nonzero(rho)[0]
    if len(nz) == 0:
        return DensityProfile(profile.grid, np.zeros(n), profile.n_particles)
    j0, j1 = int(nz[0]), int(nz[-1])

    rho_pad = np.concatenate([[0.0], rho, [0.0]])
    cum = np.concatenate([[0.0], np.cumsum(0.5 * dx * (rho[1:] + rho[:-1]))])
    cum_pad = np.concatenate([[cum[0]], cum, [cum[-1]]])

    i_all = np.arange(n)
    m_lo = np.maximum(np.maximum(j0 - i_all, i_all - j1), 1) - 1
    m_hi = np.maximum(i_all - j0, j1 - i_all) + 1
    out = np.empty(n)
    chunk = 1024  # grid points per vectorized block; bounds the work arrays
    for start in range(0, n, chunk):
        sl = slice(start, min(start + chunk, n))
        out[sl] = _full_scan_chunk(i_all[sl], rho_pad, cum_pad, dx, m_lo[sl], m_hi[sl])
    return DensityProfile(profile.grid, out, profile.n_particles)


def numpy_stream(seed: int, *key: int) -> np.random.Generator:
    """numpy's Generator(PCG64(SeedSequence(seed, spawn_key=key))), the stream ``rng_stream`` ports."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))
