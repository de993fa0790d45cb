"""Run one provex benchmark workload and print its metrics.

    python3 benchmark/run.py --workload mnist784-sigmoid --seed 11 --seconds 60 --trace 0

Both greedy searches (``explain_baseline`` and
``explain_abstraction_refinement``, with their default schedule, singleton
features and sensitivity order) run in this process through the public
library API, one instance after the other, until the next instance would
overrun ``--seconds``.  Every instance is checked: both searches must return
the same set, and the concrete check must certify that set as sufficient.
Times are reported in reference seconds, scaled by a host-speed reference
sampled throughout the run (see ``reference.py``); the raw wall times are
printed beside them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a fixed
number of instances twice, untraced and then under the tracer, and prints
the per-layer metrics together with the tracing overhead.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is nonzero when any instance
failed.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads.  On a machine with few cores a
# second BLAS thread buys little (mnist baseline: 4.9 s against 5.3 s) for
# 1.6x the CPU time, and it makes every matmul wait on whichever core the
# host is busiest on.  Set-up's fresh-interpreter import inherits this.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from reference import MIN_PASSES, REFERENCE_S, HostSpeed, scale
from workloads import WORKLOADS, SourceMissing, import_provex, import_seconds, make_inputs

# Set-up repeats at least SETUP_REPEATS times and until SETUP_SECONDS have
# passed, at most SETUP_MAX_REPEATS times: relu100's 0.08 s set-up gets a
# dozen samples, mnist's 0.9 s one five.
SETUP_REPEATS = 5
SETUP_SECONDS = 3.0
SETUP_MAX_REPEATS = 25
# Instance times enter the median as block means.  The host's speed swings
# over seconds, so a median of single 70 ms searches flips between its fast
# and slow modes from run to run; blocks of a few seconds average the swings.
BLOCK_SECONDS = 5.0


@dataclass
class Block:
    """Consecutive instances whose searches together took BLOCK_SECONDS or more."""

    baseline_s: float = 0.0
    ar_s: float = 0.0
    instances: int = 0
    passes: list = field(default_factory=list)  # reference passes taken during the block

    @property
    def full(self) -> bool:
        return self.baseline_s + self.ar_s >= BLOCK_SECONDS


@dataclass
class Outcome:
    kept: frozenset
    trace: object
    seconds: float


def run_search(search, net, x, epsilon, speed: HostSpeed | None = None) -> Outcome:
    """One search, timed without the reference passes that interrupted it."""
    mark = speed.mark() if speed is not None else None
    t0 = time.perf_counter()
    kept, trace = search(net, x, epsilon)
    seconds = time.perf_counter() - t0
    if speed is not None:
        seconds -= speed.since(mark)[1]
    return Outcome(kept, trace, seconds)


def run_pair(provex, net, x, epsilon, speed: HostSpeed | None = None) -> tuple[Outcome, Outcome]:
    """Both searches on one instance; the functions are looked up per call."""
    baseline = run_search(provex.explain_baseline, net, x, epsilon, speed)
    ar = run_search(provex.explain_abstraction_refinement, net, x, epsilon, speed)
    return baseline, ar


def check_pair(provex, net, x, epsilon, baseline: Outcome, ar: Outcome) -> str | None:
    """Why the pair is wrong, or None when both searches agree and hold."""
    if baseline.kept != ar.kept:
        diff = sorted(baseline.kept ^ ar.kept)
        return f"searches disagree on {len(diff)} groups, first {diff[:5]}"
    fixed = provex.FeatureGrouping.singletons(net.input_dim).features_of(baseline.kept)
    query = provex.SufficiencyQuery(x, fixed, epsilon, provex.predict(net, x), net.input_domain)
    verdict = provex.check_concrete(net, query)
    if not verdict.is_sufficient:
        return f"final set of {len(fixed)} features re-verifies as {verdict.kind.value}"
    return None


def measure_setup(workload, seed: int, speed: HostSpeed | None = None):
    """Repeated import, fixture and instance generation, and their durations.

    The import runs in a fresh interpreter and times itself, so reference
    passes in this process do not enter it; they are taken out of the rest.
    """
    durations = []
    start = time.perf_counter()
    while len(durations) < SETUP_REPEATS or (
        time.perf_counter() - start < SETUP_SECONDS and len(durations) < SETUP_MAX_REPEATS
    ):
        mark = speed.mark() if speed is not None else None
        t0 = time.perf_counter()
        net, instances = make_inputs(workload, seed)
        inputs_s = time.perf_counter() - t0
        if speed is not None:
            inputs_s -= speed.since(mark)[1]
        durations.append(import_seconds() + inputs_s)
    return net, instances, durations


def report_failure(index: int, message: str) -> None:
    print(f"instance {index} failed: {message}", file=sys.stderr)


def end_to_end(provex, workload, net, instances, seconds: float, speed: HostSpeed):
    """Search instances until the next one would overrun ``seconds``.

    Returns the metrics in reference seconds, the same figures in raw wall
    seconds, and the attempted and failed instance counts.
    """
    blocks: list[Block] = []
    features = 0
    sizes = []
    attempted = failed = 0
    pair_seconds = []
    deadline = time.perf_counter() + seconds
    for index, x in enumerate(instances):
        if pair_seconds and time.perf_counter() + statistics.fmean(pair_seconds) > deadline:
            break
        t0 = time.perf_counter()
        mark = speed.mark()
        attempted += 1
        try:
            b, a = run_pair(provex, net, x, workload.epsilon, speed)
            problem = check_pair(provex, net, x, workload.epsilon, b, a)
        except Exception:
            failed += 1
            report_failure(index, traceback.format_exc())
            continue
        finally:
            pair_seconds.append(time.perf_counter() - t0)
        if problem is not None:
            failed += 1
            report_failure(index, problem)
            continue
        if not blocks or blocks[-1].full:
            blocks.append(Block())
        blocks[-1].baseline_s += b.seconds
        blocks[-1].ar_s += a.seconds
        blocks[-1].instances += 1
        blocks[-1].passes += speed.since(mark)[0]
        features += b.trace.group_count
        sizes.append(len(b.kept))
    if not sizes:
        return {}, {}, attempted, failed
    samples = f"{len(blocks)} blocks of {len(sizes)} instances"
    run_scale = scale(speed.passes)

    def figures(scales):
        out = {}
        for search in ("baseline", "ar"):
            spent = [getattr(blk, f"{search}_s") * k for blk, k in zip(blocks, scales)]
            out[f"{search}.instance_s.p50"] = (
                statistics.median(s / blk.instances for s, blk in zip(spent, blocks)), "s", samples)
            out[f"{search}.features_per_s"] = (features / sum(spent), "1/s", len(sizes))
        return out

    metrics = figures([scale(blk.passes) if len(blk.passes) >= MIN_PASSES else run_scale for blk in blocks])
    metrics["explanation_size.mean"] = (statistics.fmean(sizes), "features", len(sizes))
    return metrics, figures([1.0] * len(blocks)), attempted, failed


def traced(provex, workload, net, instances):
    """Untraced then traced searches of a fixed instance count, compared."""
    from tracer import LAYER_FUNCTIONS, CallStats, Tracer

    tracer = Tracer()
    runs = {"baseline": [], "ar": []}  # (untraced, traced) outcome per instance
    attempted = failed = 0
    for index, x in enumerate(instances[: workload.trace_instances]):
        attempted += 1
        try:
            plain = run_pair(provex, net, x, workload.epsilon)
            with tracer:
                seen = run_pair(provex, net, x, workload.epsilon)
            problem = check_pair(provex, net, x, workload.epsilon, *plain)
        except Exception:
            failed += 1
            report_failure(index, traceback.format_exc())
            continue
        for search, p, s in zip(runs, plain, seen):
            runs[search].append((p, s))
            if problem is None and p.kept != s.kept:
                problem = f"{search} explanation changes under the tracer"
        if problem is not None:
            failed += 1
            report_failure(index, problem)

    metrics = {}
    for search, pairs in runs.items():
        stats = tracer.search_stats(search)
        traces = [s.trace for _, s in pairs]
        traced_s = sum(s.seconds for _, s in pairs)
        self_total = sum(s.self_s for s in stats.values())
        if abs(self_total - traced_s) > max(1e-3, 0.01 * traced_s):
            failed += 1
            report_failure(-1, f"{search} self times add up to {self_total:.6f} s, traced wall is {traced_s:.6f} s")
        metrics[f"{search}.explain.self_s"] = (sum(s.self_s for (m, _), s in stats.items() if m == "explain"), "s", None)
        for module, function in LAYER_FUNCTIONS[search]:
            s = stats.get((module, function), CallStats())
            prefix = f"{search}.{module}.{function}"
            metrics[f"{prefix}.calls"] = (s.calls, "count", None)
            metrics[f"{prefix}.self_s"] = (s.self_s, "s", None)
            if module == "bounds":
                metrics[f"{prefix}.us_per_call"] = (1e6 * s.self_s / s.calls if s.calls else 0.0, "us", None)
            if function == "forward_batch":
                metrics[f"{prefix}.rows"] = (s.rows, "count", None)
        queries = sum(len(t.steps) for t in traces)
        groups = sum(t.group_count for t in traces)
        dropped = groups - sum(len(t.final) for t in traces)
        metrics[f"{search}.explain.queries"] = (queries, "count", None)
        metrics[f"{search}.explain.drop_ratio"] = (dropped / max(groups, 1), "ratio", None)
        metrics[f"{search}.work.macs_computed"] = (sum(s.macs for s in stats.values()), "count", None)
        evaluations = sum(provex.count_work(t).neuron_evaluations for t in traces)
        metrics[f"{search}.work.neuron_evaluations_reported"] = (evaluations, "count", None)
        metrics[f"{search}.trace.traced_s"] = (traced_s, "s", None)
        metrics[f"{search}.trace.overhead_s"] = (traced_s - sum(p.seconds for p, _ in pairs), "s", None)
        if search == "ar":
            refinements = sum(t.refinements for t in traces)
            metrics["ar.explain.refinements_per_query"] = (refinements / max(queries, 1), "ratio", None)
    kept = tracer.kept_ratios["ar"]
    metrics["ar.abstraction.kept_neuron_ratio"] = (statistics.fmean(kept) if kept else 0.0, "ratio", len(kept))
    searched = tracer.stats[("ar", "queries", "gen_counterexample")].calls
    metrics["ar.queries.witness_hit_ratio"] = (tracer.witnesses["ar"] / max(searched, 1), "ratio", searched)
    return metrics, attempted, failed


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS library loaded into this process."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {p[5] for p in (line.split() for line in fh) if len(p) >= 6 and "openblas" in p[5].lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` when the checkout is a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload, seed: int, instances: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    return {
        "workload": workload.name,
        "instance_seed": seed,
        "instances": instances,
        "commit": git_commit(Path(__file__).resolve().parent.parent),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="seed of the instance stream")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    try:
        provex = import_provex()
    except (SourceMissing, ImportError) as exc:
        print(f"cannot import the provex sources: {exc}", file=sys.stderr)
        return 2
    raw, passes = {}, []
    if args.trace:
        net, instances, _ = measure_setup(workload, args.seed)
        metrics, attempted, failed = traced(provex, workload, net, instances)
    else:
        with HostSpeed() as speed:
            net, instances, setups = measure_setup(workload, args.seed, speed)
            setup_scale = scale(speed.passes) if len(speed.passes) >= MIN_PASSES else None
            metrics, raw, attempted, failed = end_to_end(provex, workload, net, instances, args.seconds, speed)
        passes = speed.passes
        setup_s = statistics.median(setups)
        # Set-up is scaled by the passes taken while it ran, or else the run's.
        metrics["setup_s"] = (setup_s * (setup_scale or scale(passes)), "s", len(setups))
        raw["setup_s"] = (setup_s, "s", len(setups))
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB", None)

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  instances {attempted}")
    for name, (value, unit, samples) in sorted(metrics.items()):
        count = "" if samples is None else f"  (n={samples})"
        print(f"  {name:<48} {value:>16.6g} {unit}{count}")
    print(f"  {'failed_fraction':<48} {failed / max(attempted, 1):>16.6g} ratio  ({failed}/{attempted})")
    if passes:
        pass_ms = 1e3 * REFERENCE_S / scale(passes)
        print(f"raw wall times; reference pass {pass_ms:.4g} ms, trimmed mean of {len(passes)}")
        for name, (value, unit, _) in sorted(raw.items()):
            print(f"  {name:<48} {value:>16.6g} {unit}")
    env = environment(workload, args.seed, attempted)
    if passes:
        env["reference_pass_ms"] = pass_ms
        env["raw"] = {name: value for name, (value, _, _) in raw.items()}
    print("environment " + json.dumps(env, sort_keys=True))
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
