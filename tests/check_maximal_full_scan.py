"""Check that maximal_function matches the full-scan oracle bit for bit.

Draws the profiles of a ``lieboxford maximal`` run at each seed given on
the command line, or at the default seed 20240801 when none is given, and
compares each with ``oracles.maximal_function_full_scan`` by
``array_equal``.  The run is the default one (100 profiles of 1024 points)
unless ``--profiles`` or ``--grid-points`` sets its ``n_profiles`` or
``grid_points``; at 4096 points a scan takes many point groups, fine slices
and kernel steps.  Exits 1 on any mismatch.  Per seed it also prints the pruning
counts: blocks evaluated (the edge rule kept them, so they got window
integrals) and kept (the slope-capped bound kept them) at each level, and
the kernel cells, rows x scanned radii, so that a loss of pruning power
shows in the log.  Not collected by pytest; run it as

    PYTHONPATH=src:tests python tests/check_maximal_full_scan.py [--profiles K] [--grid-points N] [SEED ...]
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

import numpy as np

from lieboxford import states
from lieboxford.cli import DEFAULT_CONFIG
from lieboxford.numerics import rng_stream
from oracles import maximal_function_full_scan
from test_states import _bump_profiles


def _counted(counts):
    """The three pruning stages of states, wrapped to add their sizes to ``counts``."""
    block_bounds, prune_blocks, kernel = states._block_bounds, states._prune_blocks, states._maximal_chunk

    def counted_block_bounds(point, b_lo, b_hi, slope, cum_ext, dx, ramp, cells, fuzz):
        counts["evaluated", cells] += len(point)
        return block_bounds(point, b_lo, b_hi, slope, cum_ext, dx, ramp, cells, fuzz)

    def counted_prune_blocks(*args):
        kept = prune_blocks(*args)
        counts["kept", args[3]] += len(kept[0])
        return kept

    def counted_kernel(at, rho_ext, cum_ext, dx, m_lo, m_hi):
        counts["kernel cells"] += len(at) * (int(np.max(m_hi - m_lo)) + 2)
        return kernel(at, rho_ext, cum_ext, dx, m_lo, m_hi)

    return {
        "_block_bounds": counted_block_bounds,
        "_prune_blocks": counted_prune_blocks,
        "_maximal_chunk": counted_kernel,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="*", type=int, default=[DEFAULT_CONFIG["seed"]])
    parser.add_argument("--profiles", type=int, default=DEFAULT_CONFIG["maximal"]["n_profiles"])
    parser.add_argument("--grid-points", type=int, default=DEFAULT_CONFIG["maximal"]["grid_points"])
    args = parser.parse_args(argv)
    count, n_points = args.profiles, args.grid_points
    failed = False
    originals = {name: getattr(states, name) for name in ("_block_bounds", "_prune_blocks", "_maximal_chunk")}
    for seed in args.seeds:
        profiles = _bump_profiles(rng_stream(seed, 3), count, n_points)
        counts = Counter()
        for name, wrapped in _counted(counts).items():
            setattr(states, name, wrapped)
        try:
            values = [states.maximal_function(prof).values.copy() for prof in profiles]
        finally:
            for name, original in originals.items():
                setattr(states, name, original)
        bad = [
            k
            for k, prof in enumerate(profiles)
            if not np.array_equal(values[k], maximal_function_full_scan(prof).values)
        ]
        for k in bad:
            print(f"seed {seed} p{k:03d}: maximal_function differs from the full scan")
        print(f"seed {seed}: {count - len(bad)}/{count} maximal profiles of {n_points} points match the full scan")
        coarse, fine = states._COARSE_CELLS, states._FINE_CELLS
        print(
            f"seed {seed}: blocks evaluated {counts['evaluated', coarse]:,} coarse,"
            f" {counts['evaluated', fine]:,} fine; kept {counts['kept', coarse]:,} coarse, {counts['kept', fine]:,} fine;"
            f" kernel cells {counts['kernel cells']:,}"
        )
        failed = failed or bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
