"""Tests of the benchmark itself: tracer completeness, transparency, additivity.

    python3 -m pytest benchmark/test_benchmark.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
from importlib import import_module
from pathlib import Path

import pytest

import run
from reference import HostSpeed
from tracer import TARGETS, Tracer, provex_modules
from workloads import WORKLOADS, import_provex, make_inputs

ROOT = Path(__file__).resolve().parent.parent
provex = import_provex()
import_module("provex.cli")  # load every consumer module, so every binding exists


def _originals():
    return {
        (module, name): getattr(import_module(f"provex.{module}"), name)
        for module, names in TARGETS.items()
        for name in names
    }


def _bindings(fn):
    return [(mod.__name__, attr) for mod in provex_modules() for attr, value in vars(mod).items() if value is fn]


def test_every_binding_is_patched_and_restored():
    originals = _originals()
    before = {key: _bindings(fn) for key, fn in originals.items()}
    # Each function is bound at least where it is defined and where it is consumed.
    assert all(len(where) >= 2 for where in before.values()), before
    with Tracer():
        for key, fn in originals.items():
            assert _bindings(fn) == [], f"{key} still reachable unwrapped"
            for mod_name, attr in before[key]:
                wrapper = vars(sys.modules[mod_name])[attr]
                assert wrapper is not fn and wrapper.__wrapped__ is fn
    assert {key: _bindings(fn) for key, fn in originals.items()} == before


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_search_is_transparent_and_self_times_add_up(name):
    workload = WORKLOADS[name]
    net, instances = make_inputs(workload, seed=11)
    x = instances[0]
    plain = run.run_pair(provex, net, x, workload.epsilon)
    tracer = Tracer()
    with tracer:
        seen = run.run_pair(provex, net, x, workload.epsilon)
    for search, p, s in zip(("baseline", "ar"), plain, seen):
        assert s.kept == p.kept
        assert s.trace.final == p.trace.final
        assert [st.verdict for st in s.trace.steps] == [st.verdict for st in p.trace.steps]
        stats = tracer.search_stats(search)
        assert stats[("explain", {"baseline": "explain_baseline", "ar": "explain_abstraction_refinement"}[search])].calls == 1
        self_total = sum(st.self_s for st in stats.values())
        assert abs(self_total - s.seconds) < 1e-3 + 1e-3 * s.seconds
        assert all(st.self_s >= 0 for st in stats.values())


def test_macs_follow_layer_shapes():
    net = provex.random_network(5, (7, 3), 2, "relu", seed=1)
    x = provex.fixtures.uniform_instances(net, 1, seed=2)[0]
    box = provex.IntervalVector(x, x)
    tracer = Tracer()
    with tracer:
        provex.propagate_box(net, box)
        provex.gradient(net, x, 0)
        import_module("provex.network").forward_batch(net, [x, x, x])
    per_pass = 5 * 7 + 7 * 3 + 3 * 2
    stats = tracer.search_stats("")
    assert stats[("bounds", "propagate_box")].macs == 4 * per_pass
    assert stats[("network", "gradient")].macs == 2 * per_pass
    assert stats[("network", "forward_batch")].macs == 3 * per_pass
    assert stats[("network", "forward_batch")].rows == 3


def test_reference_passes_are_sampled_and_taken_out_of_the_search():
    before = signal.getsignal(signal.SIGALRM)

    def busy_second(net, x, epsilon):
        end = time.perf_counter() + 1.0
        while time.perf_counter() < end:
            pass
        return frozenset(), None

    with HostSpeed() as speed:
        outcome = run.run_search(busy_second, None, None, None, speed)
    assert len(speed.passes) >= 3
    assert speed.spent >= sum(speed.passes)
    assert outcome.seconds == pytest.approx(1.0 - speed.spent, abs=0.02)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def _result(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1])


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.fixture
def one_trace_instance(monkeypatch):
    for name, workload in WORKLOADS.items():
        monkeypatch.setitem(run.WORKLOADS, name, dataclasses.replace(workload, trace_instances=1))


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_the_declared_ones(trace, kind, capsys, one_trace_instance):
    code = run.main(["--workload", "relu100-boundary", "--seed", "3", "--seconds", "1", "--trace", str(trace)])
    result = _result(capsys)
    assert code == 0 and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == _declared(kind)
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_disagreeing_searches_fail_the_run(monkeypatch, capsys):
    honest = provex.explain_abstraction_refinement

    def off_by_one(net, x, epsilon):
        kept, trace = honest(net, x, epsilon)
        return kept ^ {0}, trace

    monkeypatch.setattr(provex, "explain_abstraction_refinement", off_by_one)
    code = run.main(["--workload", "relu100-boundary", "--seed", "3", "--seconds", "1", "--trace", "0"])
    result = _result(capsys)
    assert code != 0 and not result["correct"] and result["failed"] == result["attempted"]


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmark", tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "relu100-boundary", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
