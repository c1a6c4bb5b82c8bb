"""Check that maximal_function matches the full-scan oracle bit for bit.

Draws the profiles of the default ``lieboxford maximal`` run (100 profiles)
at each seed given on the command line, or at the default seed 20240801
when none is given, and compares each with
``oracles.maximal_function_full_scan`` by ``array_equal``.  Exits 1 on any
mismatch.  Not collected by pytest; run it as

    PYTHONPATH=src:tests python tests/check_maximal_full_scan.py [SEED ...]
"""

from __future__ import annotations

import sys

import numpy as np

from lieboxford.cli import DEFAULT_CONFIG
from lieboxford.numerics import rng_stream
from lieboxford.states import maximal_function
from oracles import maximal_function_full_scan
from test_states import _bump_profiles


def main(argv: list[str]) -> int:
    count = DEFAULT_CONFIG["maximal"]["n_profiles"]
    failed = False
    for seed in [int(arg) for arg in argv] or [DEFAULT_CONFIG["seed"]]:
        profiles = _bump_profiles(rng_stream(seed, 3), count)
        bad = [
            k
            for k, prof in enumerate(profiles)
            if not np.array_equal(maximal_function(prof).values, maximal_function_full_scan(prof).values)
        ]
        for k in bad:
            print(f"seed {seed} p{k:03d}: maximal_function differs from the full scan")
        print(f"seed {seed}: {count - len(bad)}/{count} default maximal profiles match the full scan")
        failed = failed or bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
