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
autocorrelation.  Every trial state gives both in closed form
(``TrialState.correlations``: Gaussian integrals for the Gaussian families,
an exact 5-node Gauss-Hermite rule for HermiteSlater; see the states module).
They are sampled once per state on a u grid, fine near contact and coarse
far, and every potential of a batch shares those samples through their cubic
splines; the spline deviation at every 97th inter-node midpoint, against the
closed form there, enters each error estimate.  Each potential then gets its
own outer passes in u, split at its breakpoints, and its own error estimate.
The outer passes read the splines directly: their Kronrod nodes lie strictly
inside [0, span], where the splines are defined.  The splines stay because
the weakly singular Homogeneous passes evaluate the integrand at many nodes;
there a spline is cheaper than the closed form.  The contact potential acts
at zero separation instead, so its breakdown is two closed-form values with
no quadrature, and its error estimate is 0:

  <delta> = (1/2) int rho2(x, x) dx = h(0) / 2,      D = (1/2) int rho^2 = C(0) / 2.

Shifting a potential by a constant, v -> v - c, shifts the indirect energy by
+c N / 2; this falls out of the same integrals since int h = N(N-1)/2 and
int C = N^2 / 2 (checked in the tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

# integrate_1d is unused here, but bench/test_smoke.py checks that the layer
# tracer rebinds it by name in this module
from .numerics import Interval, QuadratureSpec, integrate_1d, integrate_1d_with_error  # noqa: F401
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


def _separation_grid(state, span: float) -> np.ndarray:
    """Dense u nodes for interpolating h and C: fine near contact, coarse far."""
    fine = state.feature_scale
    coarse = state.grid_halfwidth / 12.0
    lead = min(10.0 * fine, span)
    head = np.linspace(0.0, lead, 1001)
    n_tail = max(2, int(math.ceil((span - lead) / (coarse / 150.0))))
    tail = np.linspace(lead, span, n_tail)
    return np.unique(np.concatenate([head, tail]))


def _interpolated_correlations(state):
    """Cubic splines of h(u) and C(u) plus an interpolation-error estimate.

    Both correlation functions come in closed form from the state; the spline
    deviation is measured at inter-node midpoints.
    """
    span = state.support.hi - state.support.lo
    u = _separation_grid(state, span)
    h_vals, c_vals = state.correlations(u)
    h_spline = CubicSpline(u, h_vals, extrapolate=False)
    c_spline = CubicSpline(u, c_vals, extrapolate=False)

    probe = 0.5 * (u[:-1:97] + u[1:][::97])
    h_probe, c_probe = state.correlations(probe)
    dev = max(
        float(np.max(np.abs(h_spline(probe) - h_probe))),
        float(np.max(np.abs(c_spline(probe) - c_probe))),
    )
    scale = max(float(np.max(h_vals)), float(np.max(c_vals)), 1e-300)
    return h_spline, c_spline, span, dev / scale


def _integrate_separation(f, span: float, p: Potential, spec) -> tuple:
    """int_0^span f(u) v(u) du, split at the potential's non-smooth radii."""
    edges = [0.0] + [b for b in sorted(p.breakpoints()) if 0.0 < b < span] + [span]
    total, err = 0.0, 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        val, e = integrate_1d_with_error(lambda t: f(t) * p.value(t), Interval(a, b), spec)
        total += val
        err += e
    return total, err


def indirect_energy(
    state: TrialState, p: Potential, spec: QuadratureSpec = DEFAULT_SPEC
) -> EnergyBreakdown:
    """Full breakdown for one (state, potential) pair; I_xc = <V> - D."""
    return interaction_energies(state, [p], spec)[0]


def interaction_energies(
    state: TrialState, potentials, spec: QuadratureSpec = DEFAULT_SPEC
) -> list[EnergyBreakdown]:
    """Breakdowns for many potentials; the non-contact ones share h and C."""
    correlations = None
    out = []
    for p in potentials:
        if isinstance(p, Contact):
            h0, c0 = state.correlations(0.0)
            expectation, har, err = 0.5 * float(h0), 0.5 * float(c0), 0.0
        else:
            if correlations is None:
                correlations = _interpolated_correlations(state)
            h_fn, c_fn, span, spline_rel = correlations
            expectation, e1 = _integrate_separation(h_fn, span, p, spec)
            har, e2 = _integrate_separation(c_fn, span, p, spec)
            err = e1 + e2 + spline_rel * (abs(expectation) + abs(har))
        out.append(EnergyBreakdown(expectation, har, expectation - har, err))
    return out
