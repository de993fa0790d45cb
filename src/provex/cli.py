"""Command-line interface.

Subcommands:
    explain   search for a minimal sufficient explanation; writes report.json
              plus one feature mask per recorded reduction rate
    verify    check one feature subset for sufficiency
    bench     run both search algorithms over instances and compare cost
    render    turn a report into PGM/PPM mask images
    fixture   write a generated network (and instances) to disk

Exit codes: 0 ok, 1 error, 2 early stop on timeout, 3 insufficient,
4 uncertain, 5 equivalence failure.  Feature and group ids on the CLI
surface are one-based.  Set PROVEX_LOG={error|info|debug} for logging.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from dataclasses import dataclass

import numpy as np

from .abstraction import ReductionSchedule
from .errors import ProvexError
from .explain import (
    STATUS_EARLY_STOP,
    FeatureGrouping,
    count_work,
    explain_abstraction_refinement,
    explain_baseline,
    order_features,
)
from .fixtures import FixtureSpec, make_fixture
from .images import load_instance, save_instance_csv, write_image
from .network import ConcreteNetwork, load_network, predict, save_network
from .queries import OracleOutcome, SufficiencyQuery, check_concrete, oracle_check

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_EARLY_STOP = 2
EXIT_INSUFFICIENT = 3
EXIT_UNCERTAIN = 4
EXIT_EQUIVALENCE_FAILURE = 5

GRAY_FLAG = 128
RGB_FLAG = (255, 0, 255)

log = logging.getLogger("provex")


@dataclass
class RunConfig:
    network: str
    inputs: list[str]
    epsilon: float
    order: str = "sensitivity"
    groups: str = "none"
    schedule: str = "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0"
    timeout: float | None = None
    backend: str = "enclosure"
    seed: int = 0
    out: str = "."

    def to_dict(self) -> dict:
        return {
            "network": self.network,
            "inputs": list(self.inputs),
            "epsilon": self.epsilon,
            "order": self.order,
            "groups": self.groups,
            "schedule": self.schedule,
            "timeout": self.timeout,
            "backend": self.backend,
            "seed": self.seed,
            "out": self.out,
        }


def _config_from_args(args) -> RunConfig:
    inputs = args.input if isinstance(args.input, list) else [args.input]
    return RunConfig(
        network=args.network,
        inputs=inputs,
        epsilon=args.epsilon,
        order=args.order,
        groups=args.groups,
        schedule=args.schedule,
        timeout=args.timeout,
        backend=args.backend,
        seed=args.seed,
        out=args.out,
    )


def _read_network(path: str) -> ConcreteNetwork:
    with open(path, "r", encoding="utf-8") as fh:
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


def _run_one_explain(net, x, config: RunConfig, seed: int):
    grouping = _grouping_for(config.groups, net.input_dim)
    ordering = order_features(net, x, grouping, config.order, seed=seed)
    if config.backend == "oracle":
        kept, trace = explain_baseline(
            net, x, config.epsilon, grouping, ordering, backend="oracle", seed=seed
        )
    else:
        schedule = ReductionSchedule.from_string(config.schedule)
        kept, trace = explain_abstraction_refinement(
            net, x, config.epsilon, grouping, ordering,
            schedule=schedule, timeout=config.timeout, seed=seed,
        )
    return kept, trace, grouping


def cmd_explain(args) -> int:
    config = _config_from_args(args)
    try:
        net = _read_network(config.network)
        x, _ = load_instance(config.inputs[0])
        os.makedirs(config.out, exist_ok=True)
        _, trace, grouping = _run_one_explain(net, x, config, config.seed)
        report = {
            "final": list(trace.final),
            "status": trace.status,
            "trace": trace.to_dict(),
            "work": count_work(trace).to_dict(),
            "config": config.to_dict(),
        }
        with open(os.path.join(config.out, "report.json"), "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        _write_masks(config.out, grouping, trace.to_dict())
        log.info("explanation size %d, status %s", len(trace.final), trace.status)
        return EXIT_EARLY_STOP if trace.status == STATUS_EARLY_STOP else EXIT_OK
    except (ProvexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def cmd_verify(args) -> int:
    try:
        net = _read_network(args.network)
        x, _ = load_instance(args.input)
        subset = frozenset(int(tok) - 1 for tok in args.subset.split(",") if tok.strip())
        q = SufficiencyQuery(
            x=x,
            fixed_features=subset,
            epsilon=args.epsilon,
            target=predict(net, x),
            domain=net.input_domain,
        )
        if args.backend == "oracle":
            result = oracle_check(net, q, budget=args.budget)
            outcome = {
                OracleOutcome.PROVED_SUFFICIENT: "sufficient",
                OracleOutcome.WITNESS: "insufficient",
                OracleOutcome.EXHAUSTED: "uncertain",
            }[result.outcome]
            witness = result.witness
        else:
            verdict = check_concrete(net, q, rng=np.random.default_rng(args.seed))
            outcome = verdict.kind.value
            witness = verdict.witness
        if witness is not None:
            print(f"{outcome} witness={','.join(repr(float(v)) for v in witness)}")
        else:
            print(outcome)
        return {
            "sufficient": EXIT_OK,
            "insufficient": EXIT_INSUFFICIENT,
            "uncertain": EXIT_UNCERTAIN,
        }[outcome]
    except (ProvexError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def _bench_instance(net, config: RunConfig, idx: int, path: str):
    x, _ = load_instance(path)
    seed = (config.seed * 1000003 + idx) & 0x7FFFFFFF
    grouping = _grouping_for(config.groups, net.input_dim)
    ordering = order_features(net, x, grouping, config.order, seed=seed)
    schedule = ReductionSchedule.from_string(config.schedule)
    kept_b, trace_b = explain_baseline(
        net, x, config.epsilon, grouping, ordering, backend="enclosure", seed=seed
    )
    kept_a, trace_a = explain_abstraction_refinement(
        net, x, config.epsilon, grouping, ordering, schedule=schedule, seed=seed
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
    config = _config_from_args(args)
    try:
        net = _read_network(config.network)
        os.makedirs(config.out, exist_ok=True)
        results = [_bench_instance(net, config, idx, path) for idx, path in enumerate(config.inputs)]

        csv_path = os.path.join(config.out, "bench.csv")
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
        with open(os.path.join(config.out, "bench_summary.json"), "w", encoding="utf-8") as fh:
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
    except (ProvexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


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


def cmd_render(args) -> int:
    try:
        with open(args.report, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        config = report["config"]
        instance_path = config["inputs"][0]
        vec, shape = load_instance(instance_path)
        if shape is None:
            print("error: instance is not image-shaped", file=sys.stderr)
            return EXIT_ERROR
        image = vec.reshape(shape)
        grouping = _grouping_for(config["groups"], vec.shape[0])
        os.makedirs(args.out, exist_ok=True)
        ext = "pgm" if image.ndim == 2 else "ppm"

        panels = []
        if args.layout == "grid":
            for snap in report["trace"]["snapshots"]:
                panels.append(_panel(image, grouping, tuple(snap["explanation"])))
        panels.append(_panel(image, grouping, tuple(report["final"])))
        strip = np.concatenate(panels, axis=1)
        name = "mask_grid" if args.layout == "grid" else "mask_final"
        out_path = os.path.join(args.out, f"{name}.{ext}")
        write_image(out_path, strip)
        log.info("wrote %s with %d panel(s)", out_path, len(panels))
        return EXIT_OK
    except (ProvexError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def cmd_fixture(args) -> int:
    try:
        hidden = tuple(int(w) for w in args.widths.split(",") if w.strip()) if args.widths else (16, 16)
        spec = FixtureSpec(
            kind=args.kind,
            seed=args.seed,
            input_dim=args.input_dim,
            hidden=hidden,
            output_dim=args.output_dim,
            activation=args.activation,
            instances=args.instances,
        )
        net, instances = make_fixture(spec)
        os.makedirs(args.out, exist_ok=True)
        net_path = os.path.join(args.out, "network.json")
        with open(net_path, "w", encoding="utf-8") as fh:
            fh.write(save_network(net))
        for i, row in enumerate(instances):
            save_instance_csv(os.path.join(args.out, f"instance_{i:03d}.csv"), row)
        log.info("wrote %s and %d instance(s)", net_path, len(instances))
        return EXIT_OK
    except (ProvexError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="provex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, multi_input=False):
        p.add_argument("--network", required=True, help="network JSON path")
        if multi_input:
            p.add_argument("--input", action="append", default=[], help="instance path (repeatable)")
        else:
            p.add_argument("--input", required=True, help="instance path (CSV, PGM, or PPM)")
        p.add_argument("--epsilon", type=float, required=True, help="perturbation radius")
        p.add_argument("--order", choices=["sensitivity", "in-order", "random"], default="sensitivity")
        p.add_argument("--groups", choices=["none", "rgb"], default="none")
        p.add_argument("--schedule", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0",
                       help="comma-separated reduction rates ending at 1.0")
        p.add_argument("--timeout", type=float, default=None, help="seconds before early stop")
        p.add_argument("--backend", choices=["enclosure", "oracle"], default="enclosure")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=".", help="output directory")

    p_explain = sub.add_parser("explain", help="search for a minimal sufficient explanation")
    common(p_explain)
    p_explain.set_defaults(func=cmd_explain)

    p_verify = sub.add_parser("verify", help="check one feature subset for sufficiency")
    p_verify.add_argument("--network", required=True)
    p_verify.add_argument("--input", required=True)
    p_verify.add_argument("--subset", required=True, help="comma-separated one-based feature ids")
    p_verify.add_argument("--epsilon", type=float, required=True)
    p_verify.add_argument("--backend", choices=["enclosure", "oracle"], default="enclosure")
    p_verify.add_argument("--budget", type=int, default=1 << 16)
    p_verify.add_argument("--seed", type=int, default=0)
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
    p_fixture.add_argument("--seed", type=int, default=0)
    p_fixture.add_argument("--input-dim", type=int, default=8)
    p_fixture.add_argument("--widths", default="16,16", help="comma-separated hidden widths")
    p_fixture.add_argument("--output-dim", type=int, default=3)
    p_fixture.add_argument("--activation", choices=["relu", "sigmoid", "tanh"], default="relu")
    p_fixture.add_argument("--instances", type=int, default=1)
    p_fixture.add_argument("--out", default=".")
    p_fixture.set_defaults(func=cmd_fixture)

    return parser


def _setup_logging() -> None:
    level = os.environ.get("PROVEX_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.ERROR), format="%(levelname)s %(message)s")


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
