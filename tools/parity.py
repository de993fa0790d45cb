"""Print what both searches return on a benchmark workload's instances, and a digest of it.

    python3 tools/parity.py --workload relu100-boundary --seed 11 --instances 512

The network, epsilon and instance stream are those of ``benchmark/run.py``
(``benchmark/workloads.py``'s ``WORKLOADS`` and ``make_inputs``, with the
instance seed ``--seed``), and both searches run as the benchmark runs them:
default schedule, singleton features, sensitivity order, search seed 0.
Each instance prints one JSON line with each search's kept set, final
explanation, status, refinements, snapshots and every step field but its
time; the last line holds the SHA-256 of the instance lines.  Two checkouts
agree on a workload when their digests are equal.

Run as a script, it pins BLAS to one thread before numpy loads, as the
benchmark does, so large witness searches may run in the worker process and
batched products keep one summation order.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


def observed(kept, trace) -> dict:
    """Everything a search returns but its times."""
    steps = [{name: value for name, value in step.to_dict().items() if name != "elapsed"} for step in trace.steps]
    return {
        "kept": sorted(kept),
        "final": list(trace.final),
        "status": trace.status,
        "refinements": trace.refinements,
        "snapshots": [[rate, list(ids)] for rate, ids in sorted(trace.snapshots.items())],
        "steps": steps,
    }


def benchmark_workloads():
    """The benchmark's ``workloads`` module, which imports provex from this checkout's sources."""
    if str(BENCHMARK) not in sys.path:
        sys.path.insert(0, str(BENCHMARK))
    import workloads

    return workloads


def instance_lines(workload, seed: int, count: int):
    """One JSON line per instance of ``workload``, both searches' results."""
    workloads = benchmark_workloads()
    provex = workloads.import_provex()
    net, instances = workloads.make_inputs(workload, seed)
    for k, x in enumerate(instances[:count]):
        result = {"instance": k}
        for name, search in (("baseline", provex.explain_baseline), ("ar", provex.explain_abstraction_refinement)):
            result[name] = observed(*search(net, x, workload.epsilon))
        yield json.dumps(result, sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    workloads = benchmark_workloads().WORKLOADS
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True, help="seed of the instance stream")
    parser.add_argument("--instances", type=int, required=True, help="how many of the stream's instances to run")
    args = parser.parse_args(argv)
    workload = workloads[args.workload]
    if args.seed < 0 or not 0 <= args.instances <= workload.pool:
        parser.error(f"--seed must be nonnegative and --instances within 0..{workload.pool} for {workload.name}")
    digest = hashlib.sha256()
    for line in instance_lines(workload, args.seed, args.instances):
        print(line)
        digest.update(line.encode() + b"\n")
    print(json.dumps({"sha256": digest.hexdigest()}))
    return 0


if __name__ == "__main__":
    # BLAS reads these once, when numpy loads.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    sys.exit(main())
