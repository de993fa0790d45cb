"""Tests of ``tools/parity.py``, which prints both searches' results on a benchmark workload and compares two such outputs."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from provex import explain_baseline
from provex.fixtures import random_network, uniform_instances

TOOL = Path(__file__).resolve().parent.parent / "tools" / "parity.py"


def run_tool(*args):
    proc = subprocess.run(
        [sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=300, cwd=TOOL.parent.parent
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_two_runs_print_the_same_lines_and_digest():
    args = ("--workload", "relu100-boundary", "--seed", "11", "--instances", "2")
    first, second = run_tool(*args), run_tool(*args)
    assert first[0] == 0, first[2]
    assert first == second
    lines = first[1].splitlines()
    assert len(lines) == 3
    digest = hashlib.sha256("".join(line + "\n" for line in lines[:2]).encode()).hexdigest()
    assert json.loads(lines[2]) == {"sha256": digest}
    # The benchmark's network and instance stream, searched with seed 0.
    net = random_network(100, (50,), 10, "relu", seed=4)
    for k, (line, x) in enumerate(zip(lines, uniform_instances(net, 2, seed=11))):
        result = json.loads(line)
        assert result["instance"] == k
        assert result["baseline"]["kept"] == result["ar"]["kept"] == sorted(explain_baseline(net, x, 0.3)[0])
        for search in ("baseline", "ar"):
            assert set(result[search]) == {"kept", "final", "status", "refinements", "snapshots", "steps"}
            fields = {"group", "rate", "verdict", "margin", "neuron_evals"}
            assert all(set(step) == fields for step in result[search]["steps"])


@pytest.mark.parametrize(
    "workload, where",
    [
        # No relu100 search is large.
        ("relu100-boundary", r"inline"),
        pytest.param(
            "mnist784-sigmoid",
            r"worker \d+",
            marks=pytest.mark.skipif(
                len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2, reason="needs two usable CPUs"
            ),
        ),
    ],
)
def test_stderr_says_where_the_large_searches_ran(workload, where):
    code, out, err = run_tool("--workload", workload, "--seed", "11", "--instances", "1")
    assert code == 0, err
    assert re.fullmatch(f"large witness searches: {where}\n", err)
    assert len(out.splitlines()) == 2


def test_more_instances_than_the_pool_is_an_error():
    code, out, err = run_tool("--workload", "mnist784-sigmoid", "--seed", "11", "--instances", "33")
    assert code == 2 and not out and "--instances within 0..32" in err


def saved_output(path, margins, verdict="sufficient"):
    """A saved output of one instance whose two searches take ``margins`` for their (rate, margin) steps."""
    steps = [
        {"group": str(k), "rate": rate, "verdict": verdict, "margin": m, "neuron_evals": 9}
        for k, (rate, m) in enumerate(margins)
    ]
    search = {"kept": [], "final": [], "status": "MinimalSufficient", "refinements": 1, "snapshots": [], "steps": steps}
    lines = [json.dumps({"instance": 0, "baseline": search, "ar": search}), json.dumps({"sha256": "0"})]
    path.write_text("".join(line + "\n" for line in lines))
    return str(path)


def test_compare_counts_differing_steps_and_splits_margin_changes(tmp_path):
    old = saved_output(tmp_path / "old.jsonl", [(0.1, 0.5), (0.1, 0.5), (1.0, 0.25), (1.0, float("inf"))])
    moved = [(0.1, 0.5 + 1e-15), (0.2, 0.5), (1.0, 0.25 - 2**-20), (1.0, float("inf"))]
    new = saved_output(tmp_path / "new.jsonl", moved)
    code, out, err = run_tool("--compare", old, new)
    assert code == 0, err
    reports = [json.loads(line) for line in out.splitlines()]
    assert [r["search"] for r in reports] == ["baseline", "ar"]
    for report in reports:
        assert (report["instances"], report["steps"]) == (1, 4)
        assert set(report["differing_instances"].values()) == {0}
        assert report["differing_steps"] == {"group": 0, "rate": 1, "verdict": 0, "margin": 2, "neuron_evals": 0}
        assert report["largest_margin_change"] == {"rate_1": 2**-20, "labelled": abs(0.5 + 1e-15 - 0.5)}
    # A step one output lacks differs in every field.
    code, out, err = run_tool("--compare", old, saved_output(tmp_path / "short.jsonl", [(0.1, 0.5)] * 3, "uncertain"))
    report = json.loads(out.splitlines()[1])
    assert report["steps"] == 4
    assert (report["differing_steps"]["verdict"], report["differing_steps"]["group"]) == (4, 1)
    code, out, err = run_tool("--compare", old, new, "--seed", "11")
    assert code == 2 and "--compare takes no" in err
