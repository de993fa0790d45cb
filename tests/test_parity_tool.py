"""Smoke test of ``tools/parity.py``, which prints both searches' results on a benchmark workload."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

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


def test_more_instances_than_the_pool_is_an_error():
    code, out, err = run_tool("--workload", "mnist784-sigmoid", "--seed", "11", "--instances", "33")
    assert code == 2 and not out and "--instances within 0..32" in err
