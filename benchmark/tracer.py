"""Span tracer that wraps provex's public functions from outside the package.

Every traced function is replaced, in every ``provex`` module that binds it,
by a wrapper that times the call and charges it to the calling span.  A
span's self time is its duration minus the durations of the wrapped calls
made inside it, so the self times of one search add up to the duration of
its root span (the ``explain_*`` call).  Counts are aggregated per
``(search, module, function)``; the search is named after the root span.
Multiply-adds are computed from layer shapes at the leaf calls that do the
arithmetic, so each one is counted once.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from functools import wraps
from importlib import import_module

# Traced functions by the provex module that defines them.
TARGETS = {
    "bounds": ("propagate_box", "propagate_abstract"),
    "abstraction": ("build_abstract", "score_neurons", "build_from_merge_sets", "refine"),
    "queries": ("check_concrete", "check_abstract", "gen_counterexample"),
    "network": ("forward_batch", "gradient"),
    "explain": ("explain_baseline", "explain_abstraction_refinement"),
}

# Root spans and the search name their calls are charged to.
SEARCHES = {"explain_baseline": "baseline", "explain_abstraction_refinement": "ar"}

# The wrapped calls each search makes, below its root span.
LAYER_FUNCTIONS = {
    "baseline": (
        ("bounds", "propagate_box"),
        ("queries", "check_concrete"),
        ("network", "forward_batch"),
        ("network", "gradient"),
    ),
    "ar": (
        ("bounds", "propagate_box"),
        ("bounds", "propagate_abstract"),
        ("abstraction", "build_abstract"),
        ("abstraction", "score_neurons"),
        ("abstraction", "build_from_merge_sets"),
        ("abstraction", "refine"),
        ("queries", "check_abstract"),
        ("queries", "gen_counterexample"),
        ("network", "forward_batch"),
        ("network", "gradient"),
    ),
}


def _layer_macs(layers) -> int:
    return sum(layer.weights.size for layer in layers)


def _box_work(args, result):
    # Two sign-split matrix-vector products per interval endpoint.
    return 4 * _layer_macs(args[0].layers), 0


def _build_from_merge_sets_work(args, result):
    net, spec = args[0], result.spec
    if spec.merged_count == 0:
        return 0, 0  # an unreduced build copies the layers without propagating
    # A full-width box pass, plus one sign-split product per absorbed neuron
    # against the next layer's weights.
    absorbed = sum(
        net.layers[k + 1].out_dim * len(merged) for k, merged in enumerate(spec.per_layer_merged)
    )
    return 4 * _layer_macs(net.layers) + 4 * absorbed, 0


def _forward_batch_work(args, result):
    rows = len(args[1])
    return rows * _layer_macs(args[0].layers), rows


def _gradient_work(args, result):
    # One forward and one backward pass.
    return 2 * _layer_macs(args[0].layers), 0


# Multiply-adds and batch rows of a call, from its arguments and result.
# propagate_abstract is given the reduced network, so its own shapes count.
WORK = {
    "propagate_box": _box_work,
    "propagate_abstract": _box_work,
    "build_from_merge_sets": _build_from_merge_sets_work,
    "forward_batch": _forward_batch_work,
    "gradient": _gradient_work,
}


@dataclass
class CallStats:
    calls: int = 0
    self_s: float = 0.0
    rows: int = 0
    macs: int = 0


class Tracer:
    """Context manager that patches every binding of the traced functions.

    Besides per-function statistics it records, per search, the ratios the
    abstraction and query layers define: neurons kept by each reduction and
    witnesses found by counterexample search.
    """

    def __init__(self):
        self.stats: dict[tuple[str, str, str], CallStats] = defaultdict(CallStats)
        self.kept_ratios: dict[str, list[float]] = defaultdict(list)
        self.witnesses: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []
        self._search = ""
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        wrappers = {}
        for module, names in TARGETS.items():
            mod = import_module(f"provex.{module}")
            for name in names:
                fn = getattr(mod, name)
                wrappers[id(fn)] = (fn, self._wrap(module, name, fn))
        for mod in provex_modules():
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, module: str, name: str, fn):
        work = WORK.get(name)
        root_search = SEARCHES.get(name)
        stack = self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            if root_search is not None and not stack:
                self._search = root_search
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats = self.stats[(self._search, module, name)]
                stats.calls += 1
                stats.self_s += elapsed - frame[0]
            if work is not None:
                macs, rows = work(args, result)
                stats.macs += macs
                stats.rows += rows
            if name == "build_from_merge_sets":
                self.kept_ratios[self._search].append(result.neuron_count / args[0].neuron_count)
            elif name == "gen_counterexample" and result is not None:
                self.witnesses[self._search] += 1
            return result

        return traced

    def search_stats(self, search: str) -> dict[tuple[str, str], CallStats]:
        return {(m, f): s for (srch, m, f), s in self.stats.items() if srch == search}


def provex_modules():
    """Every loaded module of the provex package, the package itself included."""
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "provex" or name.startswith("provex."))
    ]
