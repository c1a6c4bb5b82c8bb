"""Check that the package's seeded streams equal numpy's Generator draw for draw.

At each seed given on the command line, or at the default seed 20240801 when
none is given, runs the five default subcommands (``verify`` at one job)
with every ``rng_stream`` the package opens wrapped to record its calls, and
replays each stream's calls on ``oracles.numpy_stream`` at the same (seed,
key): every value must have numpy's bytes, dtype and shape.  Then it draws
2,000 random mixed call sequences per seed (scalar and vector ``uniform``,
``integers(n)`` up to 2^31 + 7, ``integers(1, 13)``) at random seeds up to
2^100 and keys of 0-3 ints, and compares them the same way.  Prints the
match counts per seed and exits 1 on any mismatch.  Not collected by pytest;
run it as

    PYTHONPATH=src:tests python tests/check_streams.py [SEED ...]
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import random
import sys

import numpy as np

import lieboxford
from lieboxford import cli
from lieboxford.cli import DEFAULT_CONFIG
from lieboxford.numerics import rng_stream
from oracles import numpy_stream

SEQUENCES = 2000


class _Recorded:
    """A package stream that records each call as (method, args, kwargs, value)."""

    def __init__(self, seed, key, log):
        self._stream = rng_stream(seed, *key)
        self._calls = []
        log.append(((seed, key), self._calls))

    def uniform(self, *args, **kwargs):
        return self._record("uniform", args, kwargs)

    def integers(self, *args, **kwargs):
        return self._record("integers", args, kwargs)

    def _record(self, name, args, kwargs):
        value = getattr(self._stream, name)(*args, **kwargs)
        self._calls.append((name, args, kwargs, value))
        return value


def _same(ours, theirs) -> bool:
    """Equal bytes, dtype and shape; numpy's np.int64 for the package's int."""
    a, b = np.asarray(ours), np.asarray(theirs)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _replay(log) -> tuple[int, int]:
    """(calls equal, calls) of every recorded stream replayed on numpy's Generator."""
    equal = total = 0
    for (seed, key), calls in log:
        ref = numpy_stream(seed, *key)
        for name, args, kwargs, value in calls:
            equal += _same(value, getattr(ref, name)(*args, **kwargs))
            total += 1
    return equal, total


def _subcommand_log(seed: int) -> list:
    """The recorded streams of the five default subcommands at ``seed``."""
    log = []
    modules = [importlib.import_module(f"lieboxford.{name}") for name in lieboxford.MODULES]
    patched = [mod for mod in modules if getattr(mod, "rng_stream", None) is rng_stream]
    for mod in patched:
        mod.rng_stream = lambda s, *key: _Recorded(s, key, log)
    try:
        for command in cli._COMMANDS.values():
            config = json.loads(json.dumps(DEFAULT_CONFIG))
            config["seed"] = seed
            with contextlib.redirect_stdout(io.StringIO()):
                command(config)
    finally:
        for mod in patched:
            mod.rng_stream = rng_stream
    return log


def _random_sequence(draw: random.Random):
    """(seed, key, calls) of one random mixed call sequence."""
    seed = draw.choice([0, 1, 2**32 - 1, 2**32, draw.getrandbits(draw.randint(1, 100))])
    key = tuple(draw.choice([draw.getrandbits(32), draw.getrandbits(70)]) for _ in range(draw.randint(0, 3)))
    calls = []
    for _ in range(draw.randint(1, 30)):
        kind = draw.randrange(5)
        low = draw.uniform(-10.0, 10.0)
        high = low + draw.uniform(0.5, 10.0)
        if kind == 0:
            calls.append(("uniform", (), {}))
        elif kind == 1:
            calls.append(("uniform", (low, high), {}))
        elif kind == 2:
            calls.append(("uniform", (low, high), {"size": draw.randint(0, 12)}))
        elif kind == 3:
            calls.append(("integers", (draw.choice([1, 7, 2**31 + 7, draw.randint(1, 2**31 + 7)]),), {}))
        else:
            calls.append(("integers", (1, 13), {}))
    return seed, key, calls


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="*", type=int, default=[DEFAULT_CONFIG["seed"]])
    args = parser.parse_args(argv)
    failed = False
    for seed in args.seeds:
        log = _subcommand_log(seed)
        equal, total = _replay(log)
        print(f"seed {seed}: {equal}/{total} calls on the default subcommands' {len(log)} streams equal numpy's")
        draw = random.Random(seed)
        matched = 0
        for _ in range(SEQUENCES):
            stream_seed, key, calls = _random_sequence(draw)
            ours, ref = rng_stream(stream_seed, *key), numpy_stream(stream_seed, *key)
            matched += all(
                _same(getattr(ours, name)(*a, **kw), getattr(ref, name)(*a, **kw)) for name, a, kw in calls
            )
        print(f"seed {seed}: {matched}/{SEQUENCES} random mixed sequences equal numpy's")
        failed = failed or equal < total or matched < SEQUENCES
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
