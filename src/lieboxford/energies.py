"""Interaction energies: the indirect energy I_xc = <V> - D and its error.

Two entry points: ``interaction_energies(pairs)`` prices many
(state, potentials) pairs in one call, and ``indirect_energy(state, p)`` is
its one-pair, one-potential form.  Both return EnergyBreakdown records: I_xc
and a quadrature error estimate, the one number per (state, potential) that
the bounds are statements about.

Everything reduces to one-dimensional integrals in the separation coordinate
u = x - y:

  <sum_{i<j} v(|x_i-x_j|)>  =  int_0^inf h(u) v(u) du,
  D(rho, rho)               =  int_0^inf C(u) v(u) du,

where h(u) = int rho2(y+u, y) dy is the pair-separation density (even, total
mass N(N-1) over the line) and C(u) = int rho(x) rho(x+u) dx the density
autocorrelation.  Every trial state gives both in closed form
(``TrialState.correlations``: one finite sum of Gaussian terms per state; see
the states module), and the outer passes read them at their own quadrature
nodes, with no u grid and no interpolant in between.  Each potential gets its
own outer passes in u, split at its breakpoints: one adaptive integral per
piece of h v and one of C v, and I_xc is their difference, with the sum of
their error estimates.  All of them, for every pair of the call, run in
one many-job call of ``integrate_1d_with_error``: each job names its
state's (h, C) as its basis and takes v as its weight, so each round
evaluates each state's closed forms once on the nodes of all its pending
panels and each potential once on the nodes of every state that needs it,
and each value has the bits of its integral run alone.  The contact
potential acts at zero separation instead, so its I_xc is closed-form, with
no quadrature and an error estimate of 0:

  <delta> = (1/2) int rho2(x, x) dx = h(0) / 2,      D = (1/2) int rho^2 = C(0) / 2.

Shifting a potential by a constant, v -> v - c, shifts the indirect energy by
+c N / 2; this falls out of the same integrals since int h = N(N-1)/2 and
int C = N^2 / 2 (checked in the tests).
"""

from __future__ import annotations

from dataclasses import dataclass

# integrate_1d is unused here, but bench/test_smoke.py checks that the layer
# tracer rebinds it by name in this module
from .numerics import QuadratureSpec, integrate_1d, integrate_1d_with_error  # noqa: F401
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
    """The indirect energy I_xc = <V> - D and the error estimate of its quadrature."""

    i_xc: float
    quadrature_error_estimate: float


def _piecewise(results, pieces: int) -> tuple:
    """(value, error) summed over the next ``pieces`` results, piece by piece."""
    total, err = 0.0, 0.0
    for _ in range(pieces):
        val, e = next(results)
        total += val
        err += e
    return total, err


def indirect_energy(state: TrialState, p: Potential) -> EnergyBreakdown:
    """I_xc = <V> - D of one (state, potential) pair, with its error estimate."""
    return interaction_energies([(state, [p])])[0][0]


def interaction_energies(pairs) -> list[list[EnergyBreakdown]]:
    """I_xc of each potential of each (state, potentials) pair; every integral of them in one many-job call.

    Returns, per pair, one EnergyBreakdown per potential.  Each job names
    its state's (h, C) as its basis, so the call has no shared one.
    """
    jobs, pieces = [], []  # per pair: its state and the pieces per potential, 0 for the contact potential
    for state, potentials in pairs:
        span = state.support.hi - state.support.lo
        counts = []
        for p in potentials:
            if isinstance(p, Contact):
                counts.append(0)
                continue
            edges = [0.0] + [b for b in sorted(p.breakpoints()) if 0.0 < b < span] + [span]
            for component in (0, 1):  # h v, then C v
                jobs += [(component, p.value, piece, state.correlations) for piece in zip(edges[:-1], edges[1:])]
            counts.append(len(edges) - 1)
        pieces.append((state, counts))
    results = iter(integrate_1d_with_error(None, jobs, DEFAULT_SPEC))

    out = []
    for state, counts in pieces:
        breakdowns = []
        for n in counts:
            if n == 0:
                h0, c0 = state.correlations(0.0)
                breakdowns.append(EnergyBreakdown(0.5 * float(h0) - 0.5 * float(c0), 0.0))
            else:
                expectation, e1 = _piecewise(results, n)
                hartree, e2 = _piecewise(results, n)
                breakdowns.append(EnergyBreakdown(expectation - hartree, e1 + e2))
        out.append(breakdowns)
    return out
