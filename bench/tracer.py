"""Layer tracer for the lieboxford benchmark.

``Tracer`` wraps every public function of every lieboxford module and rebinds
each module-level name that refers to it, including by-name imports such as
``bounds.interaction_energies``, ``explore.indirect_energy``,
``explore.verify_bound`` and ``energies.integrate_1d``, and module-level
registry dicts such as ``cli._COMMANDS``.  Nothing inside ``src/`` changes;
``uninstall`` restores every binding.

A layer is a module, or one of the sub-layers named in ``SUBLAYERS``.  Per
layer the tracer records

* entries: calls into the layer from another layer (or from outside the
  package); a layer calling itself is not a new entry;
* self time: time during which a call of that layer is the innermost traced
  call;
* the inclusive duration of each entry.

Integrands, potential values and state densities are methods or closures,
not public module functions, so they are not wrapped: time spent evaluating
them inside a quadrature counts as ``numerics.quad`` self time.  The
``lru_cache``-wrapped ``hubbard.lieb_wu_energy`` is not a plain function and
is likewise counted in its caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import time
from collections import Counter, defaultdict

import lieboxford

SUBLAYERS = {
    "numerics.integrate_1d": "numerics.quad",
    "numerics.integrate_1d_with_error": "numerics.quad",
    "numerics.integrate_2d": "numerics.quad",
    "numerics.find_root": "numerics.root",
    "states.random_state_suite": "states.suite",
    "states.density": "states.density",
    "states.maximal_function": "states.maximal",
    "states.maximal_norm_ratio": "states.maximal",
    "potentials.certify_moment_bounds": "potentials.moments",
    "potentials.certified_constants": "potentials.moments",
    "potentials.fit_constants": "potentials.moments",
    "potentials.default_gamma_grid": "potentials.moments",
}

# Layers every run of a workload must enter at least once; a traced run in
# which one of them records no call has lost a binding and is rejected.
EXPECTED_LAYERS = {
    "verify_suite": (
        "cli", "states.suite", "states.density", "energies", "numerics.quad", "bounds", "report",
    ),
    "search_pointwise": (
        "cli", "potentials", "explore", "energies", "numerics.quad", "bounds",
        "states.density", "report",
    ),
    "certify_batteries": (
        "cli", "potentials.moments", "hubbard", "states.maximal", "numerics.root", "report",
    ),
}


def _nearest_rank(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Tracer:
    """Counts and self times per layer while installed (see module docstring)."""

    def __init__(self):
        self.entries = Counter()
        self.self_s = defaultdict(float)
        self.entry_s = defaultdict(list)
        self.func_calls = Counter()
        self.quad_nodes = 0
        self.nonconvergence = 0
        self.report_bytes = 0
        self.explore_evals = 0
        self.explore_incumbents = 0
        self.explore_cross_checks = 0
        self._stack = []  # [layer, time covered by child calls]
        self._patches = []
        self._nonconvergence_type = None
        self._last_error = None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(f"lieboxford.{m}") for m in lieboxford.MODULES]
        self._nonconvergence_type = lieboxford.numerics.NonConvergence
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    qual = f"{short}.{name}"
                    wrappers[obj] = self._wrap(qual, SUBLAYERS.get(qual, short), obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod.__dict__, name, obj))
                    setattr(mod, name, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrappers:
                            self._patches.append((obj, key, value))
                            obj[key] = wrappers[value]

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- the wrapped call ---------------------------------------------------

    def _wrap(self, qual, layer, fn):
        signature = inspect.signature(fn)
        counts_nodes = qual == "numerics.integrate_1d_with_error"
        writes_file = layer == "report" and qual.startswith("report.write_")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counts_nodes:
                bound = signature.bind(*args, **kwargs)
                bound.arguments["f"] = self._counted(bound.arguments["f"])
                args, kwargs = bound.args, bound.kwargs
            parent = self._stack[-1] if self._stack else None
            frame = [layer, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except self._nonconvergence_type as err:
                if err is not self._last_error:  # count where raised, not per frame
                    self._last_error = err
                    self.nonconvergence += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self.self_s[layer] += elapsed - frame[1]
                self.func_calls[qual] += 1
                if parent is not None:
                    parent[1] += elapsed
                if parent is None or parent[0] != layer:
                    self.entries[layer] += 1
                    self.entry_s[layer].append(elapsed)
                if qual == "bounds.verify_bound" and parent is not None and parent[0] == "explore":
                    self.explore_cross_checks += 1
            if qual == "explore.maximize_ratio":
                self.explore_evals += result.evaluations_used
                self.explore_incumbents += len(result.trace)
            if writes_file:
                self.report_bytes += os.path.getsize(signature.bind(*args, **kwargs).arguments["path"])
            return result

        return traced

    def _counted(self, f):
        """The integrand ``f``, adding nodes x components to quad_nodes per call."""

        def counted(x):
            fx = f(x)
            self.quad_nodes += int(getattr(fx, "size", 1))
            return fx

        return counted

    # -- results ------------------------------------------------------------

    def metrics(self, wall_s: float, n_states: int) -> dict:
        """The per-layer metrics of one traced pass that took ``wall_s``."""
        e, s = self.entries, self.self_s
        energies_entries = self.entry_s["energies"]
        return {
            "energies.calls": e["energies"],
            "energies.calls_per_state": e["energies"] / n_states if n_states else 0.0,
            "energies.self_s": s["energies"],
            "energies.call_s_p50": _nearest_rank(energies_entries, 0.5),
            "energies.call_s_tail": _nearest_rank(energies_entries, 0.9),
            "energies.share": sum(energies_entries) / wall_s,
            "numerics.quad.calls": e["numerics.quad"],
            "numerics.quad.nodes": self.quad_nodes,
            "numerics.quad.self_s": s["numerics.quad"],
            "numerics.quad.nonconvergence": self.nonconvergence,
            "numerics.root.calls": e["numerics.root"],
            "states.suite_s": s["states.suite"],
            "states.density.calls": e["states.density"],
            "states.density.self_s": s["states.density"],
            "states.maximal.calls": e["states.maximal"],
            "states.maximal.self_s": s["states.maximal"],
            "bounds.verify_bound.calls": self.func_calls["bounds.verify_bound"],
            "bounds.self_s": s["bounds"],
            "explore.evals": self.explore_evals,
            "explore.self_s": s["explore"],
            "explore.cross_checks": self.explore_cross_checks,
            "explore.incumbent_ratio": (
                self.explore_incumbents / self.explore_evals if self.explore_evals else 0.0
            ),
            "potentials.moments.calls": e["potentials.moments"],
            "potentials.moments.self_s": s["potentials.moments"],
            "hubbard.calls": e["hubbard"],
            "hubbard.self_s": s["hubbard"],
            "report.files": sum(
                n for q, n in self.func_calls.items() if q.startswith("report.write_")
            ),
            "report.bytes": self.report_bytes,
            "report.write_s": s["report"],
            "cli.self_s": s["cli"],
        }

    def missing_layers(self, workload: str) -> list[str]:
        return [layer for layer in EXPECTED_LAYERS[workload] if not self.entries[layer]]
