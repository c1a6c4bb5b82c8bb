"""Check that interaction_energies equals its integrals run one by one, bit for bit.

Draws the states of the default ``lieboxford verify`` run (200 states) at
each seed given on the command line, or at the default seed 20240801 when
none is given, prices each against the 8 default suite potentials with one
``interaction_energies`` call, and compares both fields of each
``EnergyBreakdown``, I_xc and its error estimate, with those of
``oracles.lone_energies`` by their bits.  The lone runs go through the
oracle driver ``integrate_1d_components_with_error``, one call per piece and
part, since the package's own lone form is its many-job driver with one job.
Exits 1 on any mismatch.  Per seed it also prints the rounds of the many-job
quadrature (one (h, C) evaluation each), the ``TrialState.correlations``
calls, and the nodes evaluated and distinct per state, so that a loss of
sharing shows in the log.  Not
collected by pytest; run it as

    PYTHONPATH=src:tests python tests/check_energies_lone_runs.py [SEED ...]
"""

from __future__ import annotations

import sys
from collections import Counter

from lieboxford import energies, states
from lieboxford.bounds import default_suite_potentials
from lieboxford.cli import DEFAULT_CONFIG
from oracles import lone_energies


def _bits(breakdowns):
    return [(float(b.i_xc).hex(), float(b.quadrature_error_estimate).hex()) for b in breakdowns]


def _priced(state, potentials, counts):
    """interaction_energies(state, potentials), its basis and correlation calls counted."""
    quadrature, correlations = energies.integrate_1d_with_error, states.TrialState.correlations
    seen = set()

    def counted_quadrature(f, domain, spec=None):
        def basis(u):
            counts["rounds"] += 1
            counts["nodes"] += u.size
            seen.update(u.tolist())
            return f(u)

        return quadrature(basis, domain, spec)

    def counted_correlations(self, u):
        counts["correlations"] += 1
        return correlations(self, u)

    energies.integrate_1d_with_error = counted_quadrature
    states.TrialState.correlations = counted_correlations
    try:
        return energies.interaction_energies(state, potentials)
    finally:
        energies.integrate_1d_with_error = quadrature
        states.TrialState.correlations = correlations
        counts["distinct"] += len(seen)


def main(argv: list[str]) -> int:
    count = DEFAULT_CONFIG["verify"]["n_states"]
    potentials = list(default_suite_potentials().values())
    failed = False
    for seed in [int(arg) for arg in argv] or [DEFAULT_CONFIG["seed"]]:
        counts = Counter()
        bad = []
        for state_id, state in states.random_state_suite(count, seed):
            batch = _bits(_priced(state, potentials, counts))
            lone = _bits(lone_energies(state, potentials))
            bad += [(state_id, p.label()) for p, b, o in zip(potentials, batch, lone) if b != o]
        for state_id, label in bad:
            print(f"seed {seed} {state_id} {label}: interaction_energies differs from the lone runs")
        print(
            f"seed {seed}: {count * len(potentials) - len(bad)}/{count * len(potentials)}"
            f" (state, potential) breakdowns equal the lone runs"
        )
        print(
            f"seed {seed}: rounds {counts['rounds']:,}, correlations calls {counts['correlations']:,},"
            f" nodes evaluated {counts['nodes']:,}, distinct per state {counts['distinct']:,}"
        )
        failed = failed or bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
