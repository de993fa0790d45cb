"""Command-line interface.

Subcommands:
    explain   search for a minimal sufficient explanation; writes report.json
              plus one feature mask per recorded reduction rate
    verify    check one feature subset for sufficiency
    bench     run both search algorithms over instances and compare cost
    render    turn a report into PGM/PPM mask images
    fixture   write a generated network (and instances) to disk

Exit codes: 0 ok, 1 error (a usage error too), 2 early stop on timeout,
3 insufficient, 4 uncertain, 5 equivalence failure.  Feature and group
ids on the CLI surface are one-based.  Set PROVEX_LOG={error|info|debug}
for logging; with debug, explain logs one line per query of its trace.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys

import numpy as np

from .abstraction import ReductionSchedule
from .errors import ProvexError, SchemaError, ValidationError, check_number
from .explain import (
    ORDERING_POLICIES,
    STATUS_EARLY_STOP,
    FeatureGrouping,
    count_work,
    explain_abstraction_refinement,
    explain_baseline,
    order_features,
)
from .fixtures import demo_network, mnist_shape_network, random_network, uniform_instances
from .images import load_instance, save_instance_csv, write_image
from .network import ConcreteNetwork, _load_json, _require, load_network, predict, save_network
from .queries import ORACLE_BUDGET, SufficiencyQuery, check_concrete, oracle_check

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_EARLY_STOP = 2
EXIT_INSUFFICIENT = 3
EXIT_UNCERTAIN = 4
EXIT_EQUIVALENCE_FAILURE = 5

GRAY_FLAG = 128
RGB_FLAG = (255, 0, 255)

log = logging.getLogger("provex")


def _read_network(path: str) -> ConcreteNetwork:
    with open(path, "rb") as fh:
        return load_network(fh.read())


def _grouping_for(mode: str, n: int) -> FeatureGrouping:
    if mode == "none":
        return FeatureGrouping.singletons(n)
    if mode == "rgb":
        return FeatureGrouping.rgb_pixels(n)
    raise ProvexError(f"groups: unknown grouping mode {mode!r}")


def _explanation_mask(grouping: FeatureGrouping, ids: tuple[str, ...]) -> np.ndarray:
    kept = np.zeros(grouping.feature_count, dtype=int)
    id_to_group = {gid: k for k, gid in enumerate(grouping.ids)}
    for gid in ids:
        for i in grouping.groups[id_to_group[gid]]:
            kept[i] = 1
    return kept


def _write_masks(out_dir: str, grouping: FeatureGrouping, trace_dict: dict) -> None:
    for snap in trace_dict["snapshots"]:
        mask = _explanation_mask(grouping, tuple(snap["explanation"]))
        path = os.path.join(out_dir, f"mask_rate_{snap['rate']:.2f}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(str(v) for v in mask) + "\n")
    mask = _explanation_mask(grouping, tuple(trace_dict["final"]))
    with open(os.path.join(out_dir, "mask_final.csv"), "w", encoding="utf-8") as fh:
        fh.write(",".join(str(v) for v in mask) + "\n")


def _schedule(text: str | None) -> ReductionSchedule | None:
    """The ``--schedule`` rates; None leaves the search its default schedule."""
    try:
        return None if text is None else ReductionSchedule.from_string(text)
    except ValidationError as exc:
        raise ValidationError(f"--schedule: {exc}") from None


def _report_config(args) -> dict:
    """The flags of an ``explain`` run, as ``report.json`` records them."""
    schedule = args.schedule
    if schedule is None:
        schedule = ",".join(str(rate) for rate in ReductionSchedule.default().rates)
    return {
        "network": args.network,
        "inputs": [args.input],
        "epsilon": args.epsilon,
        "order": args.order,
        "groups": args.groups,
        "schedule": schedule,
        "timeout": args.timeout,
        "backend": args.backend,
        "budget": args.budget,
        "seed": args.seed,
        "out": args.out,
    }


def cmd_explain(args) -> int:
    # The oracle search has no deadline and no reduction schedule; the enclosure search has no split budget.
    if args.backend == "oracle":
        unread = (("--timeout", args.timeout), ("--schedule", args.schedule))
    else:
        unread = (("--budget", args.budget),)
    for flag, value in unread:
        if value is not None:
            raise ProvexError(f"{flag} does not apply to --backend {args.backend}")
    for flag, value in (
        ("--seed", args.seed), ("--epsilon", args.epsilon), ("--timeout", args.timeout), ("--budget", args.budget)
    ):
        if value is not None:
            check_number(flag, value, minimum=0)
    schedule = _schedule(args.schedule)
    net = _read_network(args.network)
    x, _ = load_instance(args.input)
    os.makedirs(args.out, exist_ok=True)
    grouping = _grouping_for(args.groups, net.input_dim)
    ordering = order_features(net, x, grouping, args.order, seed=args.seed)
    if args.backend == "oracle":
        _, trace = explain_baseline(
            net, x, args.epsilon, grouping, ordering, backend="oracle", seed=args.seed, oracle_budget=args.budget
        )
    else:
        _, trace = explain_abstraction_refinement(
            net, x, args.epsilon, grouping, ordering,
            schedule=schedule, timeout=args.timeout, seed=args.seed,
        )
    report = {
        "final": list(trace.final),
        "status": trace.status,
        "trace": trace.to_dict(),
        "work": count_work(trace).to_dict(),
        "config": _report_config(args),
    }
    with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    _write_masks(args.out, grouping, report["trace"])
    if log.isEnabledFor(logging.DEBUG):
        for step in trace.steps:
            log.debug(
                "step group %s rate %g verdict %s margin %r elapsed %.3g",
                step.group_id, step.rate, step.verdict, step.margin, step.elapsed,
            )
    log.info("explanation size %d, status %s", len(trace.final), trace.status)
    return EXIT_EARLY_STOP if trace.status == STATUS_EARLY_STOP else EXIT_OK


def cmd_verify(args) -> int:
    # The oracle has no generator and the enclosure check no split budget.
    flag, value = ("--budget", args.budget) if args.backend == "enclosure" else ("--seed", args.seed)
    if value is not None:
        raise ProvexError(f"{flag} does not apply to --backend {args.backend}")
    for flag, value in (("--seed", args.seed), ("--epsilon", args.epsilon), ("--budget", args.budget)):
        if value is not None:
            check_number(flag, value, minimum=0)
    net = _read_network(args.network)
    x, _ = load_instance(args.input)
    try:
        subset = frozenset(int(tok) - 1 for tok in args.subset.split(",") if tok.strip())
    except ValueError:
        raise ProvexError(f"--subset: expected comma-separated feature ids, got {args.subset!r}") from None
    if any(not 0 <= i < net.input_dim for i in subset):
        raise ValidationError(f"--subset: feature ids run from 1 to {net.input_dim}, got {args.subset!r}")
    q = SufficiencyQuery(
        x=x,
        fixed_features=subset,
        epsilon=args.epsilon,
        target=predict(net, x),
        domain=net.input_domain,
    )
    if args.backend == "oracle":
        result = oracle_check(net, q) if args.budget is None else oracle_check(net, q, budget=args.budget)
        outcome, witness = result.verdict.value, result.witness
    else:
        verdict = check_concrete(net, q, rng=np.random.default_rng(0 if args.seed is None else args.seed))
        outcome, witness = verdict.kind.value, verdict.witness
    if witness is not None:
        print(f"{outcome} witness={','.join(repr(float(v)) for v in witness)}")
    else:
        print(outcome)
    return {
        "sufficient": EXIT_OK,
        "insufficient": EXIT_INSUFFICIENT,
        "uncertain": EXIT_UNCERTAIN,
    }[outcome]


def _bench_instance(net, args, schedule, idx: int, path: str):
    x, _ = load_instance(path)
    seed = (args.seed * 1000003 + idx) & 0x7FFFFFFF
    grouping = _grouping_for(args.groups, net.input_dim)
    ordering = order_features(net, x, grouping, args.order, seed=seed)
    kept_b, trace_b = explain_baseline(net, x, args.epsilon, grouping, ordering, seed=seed)
    kept_a, trace_a = explain_abstraction_refinement(
        net, x, args.epsilon, grouping, ordering, schedule=schedule, seed=seed
    )
    rows = []
    for name, kept, trace in (
        ("baseline", kept_b, trace_b),
        ("abstraction_refinement", kept_a, trace_a),
    ):
        work = count_work(trace)
        rows.append(
            {
                "instance": idx,
                "algorithm": name,
                "explanation_size": len(kept),
                "queries": len(trace.steps),
                "refinements": work.refinements,
                "neuron_evaluations": work.neuron_evaluations,
                "wall_time": trace.wall_time,
            }
        )
    timings = [(step.rate, step.elapsed) for step in trace_b.steps + trace_a.steps]
    return idx, rows, kept_b == kept_a, timings


def cmd_bench(args) -> int:
    for flag, value in (("--seed", args.seed), ("--epsilon", args.epsilon)):
        check_number(flag, value, minimum=0)
    schedule = _schedule(args.schedule)
    if not args.input:
        raise ValidationError("--input: bench needs at least one instance")
    net = _read_network(args.network)
    os.makedirs(args.out, exist_ok=True)
    results = [_bench_instance(net, args, schedule, idx, path) for idx, path in enumerate(args.input)]

    csv_path = os.path.join(args.out, "bench.csv")
    fields = [
        "instance", "algorithm", "explanation_size", "queries",
        "refinements", "neuron_evaluations", "wall_time",
    ]
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for _, rows, _, _ in results:
            writer.writerows(rows)

    times_by_rate: dict[float, list[float]] = {}
    for _, _, _, timings in results:
        for rate, elapsed in timings:
            times_by_rate.setdefault(rate, []).append(elapsed)
    summary = {
        "instances": len(results),
        "mean_query_time_by_rate": {
            f"{rate:g}": sum(v) / len(v) for rate, v in sorted(times_by_rate.items())
        },
    }
    with open(os.path.join(args.out, "bench_summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")

    mismatched = [idx for idx, _, equal, _ in results if not equal]
    if mismatched:
        print(
            f"error: the two searches return different explanations on instances {mismatched}",
            file=sys.stderr,
        )
        return EXIT_EQUIVALENCE_FAILURE
    return EXIT_OK


def _panel(image: np.ndarray, grouping: FeatureGrouping, ids: tuple[str, ...]) -> np.ndarray:
    mask = _explanation_mask(grouping, ids)
    panel = np.clip(np.round(image * 255.0), 0, 255).astype(np.uint8)
    if panel.ndim == 2:
        freed = (mask.reshape(panel.shape) == 0)
        panel[freed] = GRAY_FLAG
    else:
        freed = (mask.reshape(panel.shape)[:, :, 0] == 0)
        panel[freed] = np.array(RGB_FLAG, dtype=np.uint8)
    return panel


def _report_ids(doc: dict, key: str, where: str, grouping: FeatureGrouping) -> tuple[str, ...]:
    """The group ids listed at ``where.key`` of a report, each one a group of ``grouping``."""
    ids = _require(doc, key, list, where)
    known = set(grouping.ids)
    for j, gid in enumerate(ids):
        if not isinstance(gid, str) or gid not in known:
            raise SchemaError(f"{where}.{key}[{j}]" if where else f"{key}[{j}]", f"unknown group id {gid!r}")
    return tuple(ids)


def cmd_render(args) -> int:
    with open(args.report, "rb") as fh:
        report = _load_json(fh.read())
    config = _require(report, "config", dict, "")
    inputs = _require(config, "inputs", list, "config")
    if not inputs or not isinstance(inputs[0], str):
        raise SchemaError("config.inputs", "expected a non-empty list of instance paths")
    vec, shape = load_instance(inputs[0])
    if shape is None:
        raise ProvexError("instance is not image-shaped")
    image = vec.reshape(shape)
    grouping = _grouping_for(_require(config, "groups", str, "config"), vec.shape[0])
    os.makedirs(args.out, exist_ok=True)
    ext = "pgm" if image.ndim == 2 else "ppm"

    explanations = []
    if args.layout == "grid":
        trace = _require(report, "trace", dict, "")
        for i, snap in enumerate(_require(trace, "snapshots", list, "trace")):
            explanations.append(_report_ids(snap, "explanation", f"trace.snapshots[{i}]", grouping))
    explanations.append(_report_ids(report, "final", "", grouping))
    panels = [_panel(image, grouping, ids) for ids in explanations]
    strip = np.concatenate(panels, axis=1)
    name = "mask_grid" if args.layout == "grid" else "mask_final"
    out_path = os.path.join(args.out, f"{name}.{ext}")
    write_image(out_path, strip)
    log.info("wrote %s with %d panel(s)", out_path, len(panels))
    return EXIT_OK


def _widths(text: str) -> tuple[int, ...]:
    """The ``--widths`` hidden widths: at least one integer."""
    try:
        hidden = tuple(int(w) for w in text.split(",") if w.strip())
    except ValueError:
        hidden = ()
    if not hidden:
        raise ProvexError(f"--widths: expected comma-separated integers, got {text!r}")
    return hidden


def cmd_fixture(args) -> int:
    for flag, value in (("--seed", args.seed), ("--instances", args.instances)):
        if value is not None:
            check_number(flag, value, minimum=0)
    # Each flag, with what was given and its default; a kind rejects the flags it never reads.
    flags = {
        "--seed": (args.seed, 0),
        "--input-dim": (args.input_dim, 8),
        "--widths": (None if args.widths is None else _widths(args.widths), (16, 16)),
        "--output-dim": (args.output_dim, 3),
        "--activation": (args.activation, "relu"),
        "--instances": (args.instances, 1),
    }
    read = {"random": set(flags), "mnist_shape": {"--seed", "--instances"}, "demo": set()}[args.kind]
    for flag, (value, _) in flags.items():
        if value is not None and flag not in read:
            raise ProvexError(f"{flag} does not apply to --kind {args.kind}")
    seed, input_dim, hidden, output_dim, activation, count = (
        default if value is None else value for value, default in flags.values()
    )
    if args.kind == "demo":
        net, x = demo_network()
        instances = x[None, :]
    else:
        if args.kind == "mnist_shape":
            net = mnist_shape_network(seed)
        else:
            net = random_network(input_dim, hidden, output_dim, activation, seed)
        instances = uniform_instances(net, count, seed)
    os.makedirs(args.out, exist_ok=True)
    net_path = os.path.join(args.out, "network.json")
    with open(net_path, "w", encoding="utf-8") as fh:
        fh.write(save_network(net))
    for i, row in enumerate(instances):
        save_instance_csv(os.path.join(args.out, f"instance_{i:03d}.csv"), row)
    log.info("wrote %s and %d instance(s)", net_path, len(instances))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors exit with EXIT_ERROR, not 2, which is the early stop's code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="provex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, multi_input=False):
        p.add_argument("--network", required=True, help="network JSON path")
        if multi_input:
            p.add_argument("--input", action="append", default=[], help="instance path (repeatable, at least one)")
        else:
            p.add_argument("--input", required=True, help="instance path (CSV, PGM, or PPM)")
        p.add_argument("--epsilon", type=float, required=True, help="perturbation radius")
        p.add_argument("--order", choices=ORDERING_POLICIES, default="sensitivity")
        p.add_argument("--groups", choices=["none", "rgb"], default="none")
        p.add_argument("--schedule", help="comma-separated reduction rates ending at 1.0 "
                       "(default: 0.1 to 1.0 in steps of 0.1)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=".", help="output directory")

    p_explain = sub.add_parser("explain", help="search for a minimal sufficient explanation")
    common(p_explain)
    p_explain.add_argument("--timeout", type=float, help="seconds before early stop")
    p_explain.add_argument("--backend", choices=["enclosure", "oracle"], default="enclosure")
    p_explain.add_argument("--budget", type=int, help=f"oracle split budget (default: {ORACLE_BUDGET})")
    p_explain.set_defaults(func=cmd_explain)

    p_verify = sub.add_parser("verify", help="check one feature subset for sufficiency")
    p_verify.add_argument("--network", required=True)
    p_verify.add_argument("--input", required=True)
    p_verify.add_argument("--subset", required=True, help="comma-separated one-based feature ids")
    p_verify.add_argument("--epsilon", type=float, required=True)
    p_verify.add_argument("--backend", choices=["enclosure", "oracle"], default="enclosure")
    p_verify.add_argument("--budget", type=int, help=f"oracle split budget (default: {ORACLE_BUDGET})")
    p_verify.add_argument("--seed", type=int, help="seed of the enclosure check's witness search (default: 0)")
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="compare both search algorithms")
    common(p_bench, multi_input=True)
    p_bench.set_defaults(func=cmd_bench)

    p_render = sub.add_parser("render", help="render report masks as images")
    p_render.add_argument("--report", required=True, help="report.json from explain")
    p_render.add_argument("--layout", choices=["grid", "final"], default="grid")
    p_render.add_argument("--out", default=".")
    p_render.set_defaults(func=cmd_render)

    p_fixture = sub.add_parser("fixture", help="write a generated network and instances")
    p_fixture.add_argument("--kind", choices=["demo", "random", "mnist_shape"], default="random")
    p_fixture.add_argument("--seed", type=int, help="weight and instance seed (default: 0; not for demo)")
    p_fixture.add_argument("--input-dim", type=int, help="input width (default: 8; random only)")
    p_fixture.add_argument("--widths", help="comma-separated hidden widths (default: 16,16; random only)")
    p_fixture.add_argument("--output-dim", type=int, help="class count (default: 3; random only)")
    p_fixture.add_argument("--activation", choices=["relu", "sigmoid", "tanh"],
                           help="hidden activation (default: relu; random only)")
    p_fixture.add_argument("--instances", type=int, help="instance count (default: 1; not for demo)")
    p_fixture.add_argument("--out", default=".")
    p_fixture.set_defaults(func=cmd_fixture)

    return parser


def _setup_logging() -> None:
    level = os.environ.get("PROVEX_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.ERROR), format="%(levelname)s %(message)s")


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ProvexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
