"""Check that the chunked interaction_energies calls of run_suite equal their integrals run one by one, bit for bit.

Draws the states of the default ``lieboxford verify`` run (200 states) at
each seed given on the command line, or at the default seed 20240801 when
none is given, and prices them against the 8 default suite potentials as
``bounds.run_suite`` does: ``bounds._STATES_PER_CALL`` states per
``interaction_energies`` call, in state-id order.  Both fields of each
``EnergyBreakdown``, I_xc and its error estimate, are compared with those
of ``oracles.lone_energies`` by their bits.  The lone runs go through the
oracle driver ``integrate_1d_components_with_error``, one call per piece and
part, since the package's own lone form is its many-job driver with one job,
and read h and C from the oracle kernel ``node_major_correlations``, so a
change of bits in either the driver or ``TrialState.correlations`` shows.
Exits 1 on any mismatch.  Per seed it also prints the rounds of each chunk's
many-job quadrature (each round evaluates every live state's (h, C) once),
the ``TrialState.correlations`` calls, and the nodes evaluated and distinct
per state, so that a loss of sharing shows in the log.  Not collected by
pytest; run it as

    PYTHONPATH=src:tests python tests/check_energies_lone_runs.py [SEED ...]
"""

from __future__ import annotations

import statistics
import sys
from collections import Counter

from lieboxford import bounds, energies, states
from lieboxford.bounds import default_suite_potentials
from lieboxford.cli import DEFAULT_CONFIG
from oracles import lone_energies


def _bits(breakdowns):
    return [(float(b.i_xc).hex(), float(b.quadrature_error_estimate).hex()) for b in breakdowns]


def _priced(chunk, potentials, counts) -> tuple[list, int]:
    """interaction_energies of the chunk's states and its rounds; bases and correlation calls counted."""
    quadrature, correlations = energies.integrate_1d_with_error, states.TrialState.correlations
    calls = Counter()  # basis -> its calls, one per round while it has live jobs
    seen = {}  # basis -> the distinct nodes it was evaluated on

    def counted_quadrature(f, jobs, spec=None):
        wrapped = {}

        def counted(basis):
            def g(u):
                calls[basis] += 1
                counts["nodes"] += u.size
                seen.setdefault(basis, set()).update(u.tolist())
                return basis(u)

            return wrapped.setdefault(basis, g)

        return quadrature(f, [(*job[:3], counted(job[3])) for job in jobs], spec)

    def counted_correlations(self, u):
        counts["correlations"] += 1
        return correlations(self, u)

    energies.integrate_1d_with_error = counted_quadrature
    states.TrialState.correlations = counted_correlations
    try:
        return energies.interaction_energies([(state, potentials) for state in chunk]), max(calls.values())
    finally:
        energies.integrate_1d_with_error = quadrature
        states.TrialState.correlations = correlations
        counts["distinct"] += sum(len(nodes) for nodes in seen.values())


def main(argv: list[str]) -> int:
    count = DEFAULT_CONFIG["verify"]["n_states"]
    size = bounds._STATES_PER_CALL
    potentials = list(default_suite_potentials().values())
    failed = False
    for seed in [int(arg) for arg in argv] or [DEFAULT_CONFIG["seed"]]:
        counts = Counter()
        bad, rounds = [], []
        suite = sorted(states.random_state_suite(count, seed))
        for i in range(0, len(suite), size):
            ids, chunk = zip(*suite[i : i + size])
            priced, chunk_rounds = _priced(chunk, potentials, counts)
            rounds.append(chunk_rounds)
            for state_id, state, breakdowns in zip(ids, chunk, priced):
                lone = _bits(lone_energies(state, potentials))
                bad += [(state_id, p.label()) for p, b, o in zip(potentials, _bits(breakdowns), lone) if b != o]
        for state_id, label in bad:
            print(f"seed {seed} {state_id} {label}: interaction_energies differs from the lone runs")
        print(
            f"seed {seed}: {count * len(potentials) - len(bad)}/{count * len(potentials)}"
            f" (state, potential) breakdowns equal the lone runs"
        )
        print(
            f"seed {seed}: {len(rounds)} calls of {size} states, rounds per call min {min(rounds)},"
            f" median {statistics.median(rounds):g}, max {max(rounds)}, total {sum(rounds):,}"
        )
        print(
            f"seed {seed}: correlations calls {counts['correlations']:,},"
            f" nodes evaluated {counts['nodes']:,}, distinct per state {counts['distinct']:,}"
        )
        failed = failed or bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
