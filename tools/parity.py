"""Print what both searches return on a benchmark workload's instances, and a digest of it.

    python3 tools/parity.py --workload relu100-boundary --seed 11 --instances 512 > new.jsonl
    python3 tools/parity.py --compare old.jsonl new.jsonl

The network, epsilon and instance stream are those of ``benchmark/run.py``
(``benchmark/workloads.py``'s ``WORKLOADS`` and ``make_inputs``, with the
instance seed ``--seed``), and both searches run as the benchmark runs them:
default schedule, singleton features, sensitivity order, search seed 0.
Each instance prints one JSON line with each search's kept set, final
explanation, status, refinements, snapshots and every step field but its
time; the last line holds the SHA-256 of the instance lines.  Two checkouts
agree on a workload when their digests are equal.  One line on stderr, outside
the digest, says where the large witness searches ran: ``worker`` and the
worker process's pid, or ``inline`` where no worker was forked.

``--compare OLD NEW`` reads two such outputs of the same instances and
prints, per search, one JSON line: how many instances differ in each
instance field, how many steps differ in each step field, and the largest
margin change, apart for steps at rate 1.0 in both outputs and for labelled
drops (below rate 1.0 in either).  A change that is meant to move only the
labelled drops' margins shows zeros everywhere else.

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


def searches_ran_in(provex) -> str:
    """The pid of this process's witness-search worker as ``worker PID``, or ``inline`` where none was forked."""
    pool = provex.explain._pool
    return f"worker {pool[-1].submit(os.getpid).result()}" if pool else "inline"


INSTANCE_FIELDS = ("kept", "final", "status", "refinements", "snapshots")
STEP_FIELDS = ("group", "rate", "verdict", "margin", "neuron_evals")


def read_output(path) -> dict:
    """The instance lines of a saved output, by instance number; the digest line is left out."""
    results = {}
    for line in Path(path).read_text().splitlines():
        result = json.loads(line)
        if "instance" in result:
            results[result["instance"]] = result
    return results


def compare(old: dict, new: dict) -> list[dict]:
    """Per search: differing instances per instance field, differing steps per step field, largest margin changes.

    Steps are paired by position within an instance; the steps one output
    has beyond the other's count as differing in every field.
    """
    if old.keys() != new.keys():
        raise ValueError(f"the outputs hold different instances: {len(old)} against {len(new)}")
    reports = []
    for search in ("baseline", "ar"):
        instances = dict.fromkeys(INSTANCE_FIELDS, 0)
        steps = dict.fromkeys(STEP_FIELDS, 0)
        largest = {"rate_1": 0.0, "labelled": 0.0}
        count = 0
        for k in old:
            a, b = old[k][search], new[k][search]
            for name in INSTANCE_FIELDS:
                instances[name] += a[name] != b[name]
            count += max(len(a["steps"]), len(b["steps"]))
            extra = abs(len(a["steps"]) - len(b["steps"]))
            for name in STEP_FIELDS:
                steps[name] += extra + sum(x[name] != y[name] for x, y in zip(a["steps"], b["steps"]))
            for x, y in zip(a["steps"], b["steps"]):
                change = 0.0 if x["margin"] == y["margin"] else abs(x["margin"] - y["margin"])
                kind = "rate_1" if x["rate"] == y["rate"] == 1.0 else "labelled"
                largest[kind] = max(largest[kind], change)
        reports.append(
            {
                "search": search,
                "instances": len(old),
                "steps": count,
                "differing_instances": instances,
                "differing_steps": steps,
                "largest_margin_change": largest,
            }
        )
    return reports


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    workloads = benchmark_workloads().WORKLOADS
    parser.add_argument("--workload", choices=sorted(workloads))
    parser.add_argument("--seed", type=int, help="seed of the instance stream")
    parser.add_argument("--instances", type=int, help="how many of the stream's instances to run")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two saved outputs instead")
    args = parser.parse_args(argv)
    run = (args.workload, args.seed, args.instances)
    if args.compare:
        if any(value is not None for value in run):
            parser.error("--compare takes no --workload, --seed or --instances")
        try:
            reports = compare(*(read_output(path) for path in args.compare))
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
        for report in reports:
            print(json.dumps(report))
        return 0
    if any(value is None for value in run):
        parser.error("--workload, --seed and --instances are required unless --compare is given")
    workload = workloads[args.workload]
    if args.seed < 0 or not 0 <= args.instances <= workload.pool:
        parser.error(f"--seed must be nonnegative and --instances within 0..{workload.pool} for {workload.name}")
    digest = hashlib.sha256()
    for line in instance_lines(workload, args.seed, args.instances):
        print(line)
        digest.update(line.encode() + b"\n")
    print(json.dumps({"sha256": digest.hexdigest()}))
    print(f"large witness searches: {searches_ran_in(benchmark_workloads().import_provex())}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    # BLAS reads these once, when numpy loads.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    sys.exit(main())
