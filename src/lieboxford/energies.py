"""Interaction energies: pair expectation, Hartree term, indirect energy.

Two entry points: ``interaction_energies(state, potentials)`` prices a whole
batch of potentials for one state, and ``indirect_energy(state, p)`` is its
single-potential form.  Both return EnergyBreakdown records.

Everything reduces to one-dimensional integrals in the separation coordinate
u = x - y:

  <sum_{i<j} v(|x_i-x_j|)>  =  int_0^inf h(u) v(u) du,
  D(rho, rho)               =  int_0^inf C(u) v(u) du,

where h(u) = int rho2(y+u, y) dy is the pair-separation density (even, total
mass N(N-1) over the line) and C(u) = int rho(x) rho(x+u) dx the density
autocorrelation.  Both are sampled once per state, by one vector-valued
adaptive pass over the u nodes each, and every potential of a batch shares
those samples; each potential then gets its own outer passes in u, and its
own error estimate.  Inside a pass, the factors that depend on y alone
(rho(y), and the y-side contraction of rho2) are evaluated on the panel's 15
y nodes, and only the factors in y + u on the whole (u nodes x 15) grid.  The
outer passes read the cubic splines of h and C directly: their Kronrod nodes
lie strictly inside [0, span], where the splines are defined.  The contact
potential acts on the coincidence diagonal instead:

  <delta> = (1/2) int rho2(x, x) dx,      D = (1/2) int rho^2.

Shifting a potential by a constant, v -> v - c, shifts the indirect energy by
+c N / 2; this falls out of the same integrals since int h = N(N-1)/2 and
int C = N^2 / 2 (checked in the tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .numerics import Interval, QuadratureSpec, integrate_1d, integrate_1d_with_error
from .potentials import Contact, Potential
from .states import TrialState

__all__ = [
    "EnergyBreakdown",
    "indirect_energy",
    "interaction_energies",
]

DEFAULT_SPEC = QuadratureSpec()


@dataclass(frozen=True)
class EnergyBreakdown:
    """Expectation, Hartree term, and their difference I_xc = <V> - D."""

    expectation_v: float
    hartree: float
    i_xc: float
    quadrature_error_estimate: float


def _correlation(state: TrialState, spec: QuadratureSpec, pair: bool):
    """Vectorized h(u) = int rho2(y+u, y) dy if ``pair``, else C(u) = int rho(y) rho(y+u) dy."""
    inner = spec.tightened()

    def sample(u):
        u = np.atleast_1d(np.asarray(u, dtype=float))

        def integrand(y):
            if pair:
                return state.rho2(y[None, :] + u[:, None], y[None, :])
            return state.rho(y)[None, :] * state.rho(y[None, :] + u[:, None])

        return integrate_1d(integrand, state.support, inner)

    return sample


def _contact_expectation(state: TrialState, spec: QuadratureSpec):
    return integrate_1d_with_error(lambda x: 0.5 * state.rho2(x, x), state.support, spec)


def _separation_grid(state, span: float) -> np.ndarray:
    """Dense u nodes for interpolating h and C: fine near contact, coarse far."""
    fine = state.feature_scale
    coarse = state.grid_halfwidth / 12.0
    lead = min(10.0 * fine, span)
    head = np.linspace(0.0, lead, 1001)
    n_tail = max(2, int(math.ceil((span - lead) / (coarse / 150.0))))
    tail = np.linspace(lead, span, n_tail)
    return np.unique(np.concatenate([head, tail]))


def _interpolated_correlations(state, spec):
    """Cubic splines of h(u) and C(u) plus an interpolation-error estimate.

    Both correlation functions are sampled in one vector-valued adaptive pass
    each; the spline deviation is measured at inter-node midpoints.
    """
    span = state.support.hi - state.support.lo
    u = _separation_grid(state, span)
    h = _correlation(state, spec, pair=True)
    c = _correlation(state, spec, pair=False)
    h_vals, c_vals = h(u), c(u)
    h_spline = CubicSpline(u, h_vals, extrapolate=False)
    c_spline = CubicSpline(u, c_vals, extrapolate=False)

    probe = 0.5 * (u[:-1:97] + u[1:][::97])
    dev = max(
        float(np.max(np.abs(h_spline(probe) - h(probe)))),
        float(np.max(np.abs(c_spline(probe) - c(probe)))),
    )
    scale = max(float(np.max(h_vals)), float(np.max(c_vals)), 1e-300)
    return h_spline, c_spline, span, dev / scale


def _integrate_separation(f, span: float, p: Potential, spec) -> tuple:
    """int_0^span f(u) v(u) du, split at the potential's non-smooth radii."""
    edges = [0.0] + [b for b in sorted(p.breakpoints()) if 0.0 < b < span] + [span]
    total, err = 0.0, 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        val, e = integrate_1d_with_error(lambda t: f(t) * p.value(t), Interval(a, b), spec)
        total += float(val)
        err += float(e)
    return total, err


def _batched_energies(state, pointwise, spec):
    """(expectation, hartree, error) per non-contact potential, sharing h and C."""
    if not pointwise:
        return []
    h_fn, c_fn, span, spline_rel = _interpolated_correlations(state, spec)
    out = []
    for p in pointwise:
        ev, e1 = _integrate_separation(h_fn, span, p, spec)
        hv, e2 = _integrate_separation(c_fn, span, p, spec)
        out.append((ev, hv, e1 + e2 + spline_rel * (abs(ev) + abs(hv))))
    return out


def indirect_energy(
    state: TrialState, p: Potential, spec: QuadratureSpec = DEFAULT_SPEC
) -> EnergyBreakdown:
    """Full breakdown for one (state, potential) pair; I_xc = <V> - D."""
    return interaction_energies(state, [p], spec)[0]


def interaction_energies(
    state: TrialState, potentials, spec: QuadratureSpec = DEFAULT_SPEC
) -> list[EnergyBreakdown]:
    """Breakdowns for many potentials, sharing the adaptive passes."""
    potentials = list(potentials)
    pointwise = [p for p in potentials if not isinstance(p, Contact)]
    batched = iter(_batched_energies(state, pointwise, spec))

    contact_cache = None
    out = []
    for p in potentials:
        if isinstance(p, Contact):
            if contact_cache is None:
                cexp, cerr = _contact_expectation(state, spec)
                chart = integrate_1d(lambda x: 0.5 * state.rho(x) ** 2, state.support, spec)
                contact_cache = (float(cexp), float(chart), float(np.max(cerr)))
            expectation, har, err = contact_cache
        else:
            expectation, har, err = next(batched)
        out.append(EnergyBreakdown(expectation, har, expectation - har, err))
    return out
