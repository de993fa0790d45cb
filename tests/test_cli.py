"""Command-line surface: exit codes, file outputs, and determinism."""

import csv
import json
import logging

import numpy as np
import pytest

from conftest import make_query
from provex.cli import main
from provex.fixtures import demo_network, random_network, uniform_instances
from provex.images import read_image, save_instance_csv, write_image
from provex.network import forward, load_network, predict, save_network
from provex.queries import check_concrete


@pytest.fixture
def demo_files(tmp_path):
    net, x = demo_network()
    net_path = tmp_path / "net.json"
    net_path.write_text(save_network(net))
    inst_path = tmp_path / "x.csv"
    save_instance_csv(str(inst_path), x)
    return str(net_path), str(inst_path)


def read_report(out_dir):
    with open(f"{out_dir}/report.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestExplainCommand:
    def test_demo_run(self, demo_files, tmp_path):
        net_path, inst_path = demo_files
        out = tmp_path / "out"
        code = main([
            "explain", "--network", net_path, "--input", inst_path,
            "--epsilon", "1.0", "--schedule", "0.1,0.4,1.0", "--out", str(out),
        ])
        assert code == 0
        report = read_report(out)
        assert report["final"] == ["3"]
        assert report["status"] == "MinimalSufficient"
        assert set(report) == {"final", "status", "trace", "work", "config"}
        assert (out / "mask_final.csv").exists()
        rates = [snap["rate"] for snap in report["trace"]["snapshots"]]
        for rate in rates:
            assert (out / f"mask_rate_{rate:.2f}.csv").exists()

    def test_zero_epsilon_empties_masks(self, demo_files, tmp_path):
        net_path, inst_path = demo_files
        out = tmp_path / "out"
        code = main([
            "explain", "--network", net_path, "--input", inst_path,
            "--epsilon", "0", "--out", str(out),
        ])
        assert code == 0
        report = read_report(out)
        assert report["final"] == []
        mask = (out / "mask_final.csv").read_text().strip().split(",")
        assert set(mask) == {"0"}

    def test_zero_timeout_early_stop(self, demo_files, tmp_path):
        net_path, inst_path = demo_files
        out = tmp_path / "out"
        code = main([
            "explain", "--network", net_path, "--input", inst_path,
            "--epsilon", "1.0", "--timeout", "0", "--out", str(out),
        ])
        assert code == 2
        report = read_report(out)
        assert report["status"] == "SufficientEarlyStop"
        assert report["final"] == ["1", "2", "3"]

    def test_missing_network_is_error(self, tmp_path):
        code = main([
            "explain", "--network", str(tmp_path / "nope.json"),
            "--input", str(tmp_path / "nope.csv"), "--epsilon", "0.1",
            "--out", str(tmp_path),
        ])
        assert code == 1

    def test_invalid_schedule_is_error(self, demo_files, tmp_path):
        net_path, inst_path = demo_files
        code = main([
            "explain", "--network", net_path, "--input", inst_path,
            "--epsilon", "0.1", "--schedule", "0.9,0.5", "--out", str(tmp_path),
        ])
        assert code == 1

    def test_reports_are_deterministic_modulo_wall_time(self, demo_files, tmp_path):
        net_path, inst_path = demo_files

        def run(tag):
            out = tmp_path / tag
            assert main([
                "explain", "--network", net_path, "--input", inst_path,
                "--epsilon", "1.0", "--seed", "11", "--out", str(out),
            ]) in (0, 2)
            report = read_report(out)
            report["work"]["wall_time"] = 0.0
            report["trace"]["wall_time"] = 0.0
            for step in report["trace"]["steps"]:
                step["elapsed"] = 0.0
            report["config"]["out"] = ""
            return json.dumps(report, sort_keys=True)

        assert run("a") == run("b")


    def test_malformed_number_is_an_error_without_traceback(self, demo_files, tmp_path, capsys):
        _, inst_path = demo_files
        net_path = tmp_path / "bad.json"
        doc = json.loads(save_network(demo_network()[0]))
        doc["layers"][0]["weights"][1][2] = "a"
        net_path.write_text(json.dumps(doc))
        code = main([
            "explain", "--network", str(net_path), "--input", inst_path,
            "--epsilon", "0.1", "--out", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: layers[0].weights[1][2]: expected a number")
        assert "Traceback" not in err

    def test_debug_logs_one_line_per_step(self, demo_files, tmp_path, caplog):
        net_path, inst_path = demo_files
        out = tmp_path / "out"
        with caplog.at_level(logging.DEBUG, logger="provex"):
            assert main([
                "explain", "--network", net_path, "--input", inst_path,
                "--epsilon", "1.0", "--schedule", "0.1,0.4,1.0", "--out", str(out),
            ]) == 0
        steps = read_report(out)["trace"]["steps"]
        lines = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
        assert len(lines) == len(steps) > 0
        for line, step in zip(lines, steps):
            assert line.startswith(
                f"step group {step['group']} rate {step['rate']:g} verdict {step['verdict']} "
                f"margin {step['margin']!r} elapsed "
            )

    def test_info_logs_no_step_lines(self, demo_files, tmp_path, caplog):
        net_path, inst_path = demo_files
        with caplog.at_level(logging.INFO, logger="provex"):
            assert main([
                "explain", "--network", net_path, "--input", inst_path,
                "--epsilon", "1.0", "--out", str(tmp_path / "out"),
            ]) == 0
        assert [r.levelno for r in caplog.records] == [logging.INFO]

    def test_default_config_is_recorded_in_full(self, demo_files, tmp_path):
        net_path, inst_path = demo_files
        out = tmp_path / "out"
        assert main([
            "explain", "--network", net_path, "--input", inst_path,
            "--epsilon", "1.0", "--out", str(out),
        ]) == 0
        config = read_report(out)["config"]
        assert list(config) == [
            "network", "inputs", "epsilon", "order", "groups",
            "schedule", "timeout", "backend", "seed", "out",
        ]
        assert config == {
            "network": net_path,
            "inputs": [inst_path],
            "epsilon": 1.0,
            "order": "sensitivity",
            "groups": "none",
            "schedule": "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0",
            "timeout": None,
            "backend": "enclosure",
            "seed": 0,
            "out": str(out),
        }

    def test_oracle_run_records_the_default_schedule(self, demo_files, tmp_path):
        net_path, inst_path = demo_files
        out = tmp_path / "out"
        assert main([
            "explain", "--network", net_path, "--input", inst_path,
            "--epsilon", "1.0", "--backend", "oracle", "--out", str(out),
        ]) == 0
        config = read_report(out)["config"]
        assert config["backend"] == "oracle"
        assert config["schedule"] == "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0"
        assert config["timeout"] is None

    @pytest.mark.parametrize("flag, value", [("--timeout", "0"), ("--schedule", "0.5,1.0")])
    def test_oracle_rejects_flags_it_cannot_honour(self, demo_files, tmp_path, capsys, flag, value):
        net_path, inst_path = demo_files
        out = tmp_path / "out"
        code = main([
            "explain", "--network", net_path, "--input", inst_path,
            "--epsilon", "1.0", "--backend", "oracle", flag, value, "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")
        assert flag in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--schedule", "0.5,nan,1"], "--schedule: schedule rate nan is not a finite number"),
            (["--schedule", "nan,1"], "--schedule: schedule rate nan is not a finite number"),
            (["--epsilon", "nan"], "--epsilon must be nonnegative, got nan"),
            (["--epsilon", "-0.5"], "--epsilon must be nonnegative, got -0.5"),
            (["--timeout", "nan"], "--timeout must be nonnegative, got nan"),
            (["--timeout", "-1"], "--timeout must be nonnegative, got -1.0"),
        ],
    )
    def test_flag_that_is_no_valid_number_is_named(self, demo_files, tmp_path, capsys, flags, message):
        net_path, inst_path = demo_files
        out = tmp_path / "out"
        code = main(["explain", "--network", net_path, "--input", inst_path, "--epsilon", "1.0", *flags, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_unknown_flag_exits_1(self, demo_files, capsys):
        net_path, inst_path = demo_files
        with pytest.raises(SystemExit) as exc:
            main([
                "explain", "--network", net_path, "--input", inst_path,
                "--epsilon", "1.0", "--no-such-flag",
            ])
        assert exc.value.code == 1
        assert "error: unrecognized arguments: --no-such-flag" in capsys.readouterr().err

    def test_missing_required_flag_exits_1(self, demo_files):
        net_path, _ = demo_files
        with pytest.raises(SystemExit) as exc:
            main(["explain", "--network", net_path, "--epsilon", "1.0"])
        assert exc.value.code == 1

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["explain", "--help"])
        assert exc.value.code == 0
        assert "--timeout" in capsys.readouterr().out


class TestVerifyCommand:
    def test_demo_subset_sufficient(self, demo_files, capsys):
        net_path, inst_path = demo_files
        code = main([
            "verify", "--network", net_path, "--input", inst_path,
            "--subset", "2,3", "--epsilon", "1.0",
        ])
        assert code == 0
        assert capsys.readouterr().out.strip() == "sufficient"

    def test_all_features_sufficient(self, demo_files):
        net_path, inst_path = demo_files
        code = main([
            "verify", "--network", net_path, "--input", inst_path,
            "--subset", "1,2,3", "--epsilon", "5.0",
        ])
        assert code == 0

    def test_insufficient_prints_reverifiable_witness(self, tmp_path, capsys):
        # Find a seeded case the oracle refutes, then check the printed
        # witness really flips the prediction.
        from conftest import make_query
        from provex.queries import OracleOutcome, oracle_check

        for seed in range(40):
            net = random_network(5, (8,), 3, "relu", seed=seed)
            x = uniform_instances(net, 1, seed=seed)[0]
            q = make_query(net, x, fixed={0}, epsilon=0.5)
            if oracle_check(net, q, budget=2048).outcome is OracleOutcome.WITNESS:
                break
        else:
            pytest.fail("no refutable seed found")
        net_path = tmp_path / "net.json"
        net_path.write_text(save_network(net))
        inst_path = tmp_path / "x.csv"
        save_instance_csv(str(inst_path), x)
        code = main([
            "verify", "--network", str(net_path), "--input", str(inst_path),
            "--subset", "1", "--epsilon", "0.5", "--backend", "oracle",
        ])
        out = capsys.readouterr().out.strip()
        assert code == 3
        assert out.startswith("insufficient witness=")
        witness = np.array([float(v) for v in out.split("=", 1)[1].split(",")])
        assert predict(net, witness) != predict(net, x)

    def test_uncertain_exit_code(self, tmp_path):
        # A wide-open query on a dense random net usually defeats the
        # enclosure without a candidate witness on some seed.
        for seed in range(60):
            net = random_network(6, (10, 10), 2, "sigmoid", seed=seed)
            x = uniform_instances(net, 1, seed=seed)[0]
            net_path = tmp_path / f"net{seed}.json"
            net_path.write_text(save_network(net))
            inst_path = tmp_path / f"x{seed}.csv"
            save_instance_csv(str(inst_path), x)
            code = main([
                "verify", "--network", str(net_path), "--input", str(inst_path),
                "--subset", "1", "--epsilon", "1.0",
            ])
            if code == 4:
                return
        pytest.fail("no uncertain seed found")

    def test_oracle_result_verdict_names_each_outcome(self):
        from provex.queries import OracleOutcome, OracleResult, VerdictKind

        verdicts = {
            outcome: OracleResult(outcome, None, 0, 0).verdict for outcome in OracleOutcome
        }
        assert verdicts == {
            OracleOutcome.PROVED_SUFFICIENT: VerdictKind.SUFFICIENT,
            OracleOutcome.WITNESS: VerdictKind.INSUFFICIENT,
            OracleOutcome.EXHAUSTED: VerdictKind.UNCERTAIN,
        }

    @pytest.mark.parametrize("backend, flag, value", [("enclosure", "--budget", "0"), ("oracle", "--seed", "3")])
    def test_rejects_the_flag_its_backend_does_not_read(self, tmp_path, capsys, backend, flag, value):
        # Rejected before the network is read: the path does not exist.
        code = main([
            "verify", "--network", str(tmp_path / "missing.json"), "--input", str(tmp_path / "x.csv"),
            "--subset", "1", "--epsilon", "1.0", "--backend", backend, flag, value,
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: {flag} does not apply to --backend {backend}\n"

    def test_negative_budget_is_an_error(self, demo_files, capsys):
        net_path, inst_path = demo_files
        code = main([
            "verify", "--network", net_path, "--input", inst_path, "--subset", "1",
            "--epsilon", "1.0", "--backend", "oracle", "--budget", "-1",
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: --budget must be nonnegative, got -1\n"

    def test_oracle_budget_is_read_and_defaults_to_the_library_budget(self, demo_files, capsys):
        # Feature 1 alone is sufficient on the demo net, but only after splits.
        net_path, inst_path = demo_files
        base = ["verify", "--network", net_path, "--input", inst_path, "--subset", "1", "--epsilon", "1.0"]
        assert main(base + ["--backend", "oracle"]) == 0
        assert main(base + ["--backend", "oracle", "--budget", str(1 << 16)]) == 0
        assert main(base + ["--backend", "oracle", "--budget", "0"]) == 4
        assert capsys.readouterr().out.split() == ["sufficient", "sufficient", "uncertain"]

    def test_enclosure_seed_defaults_to_0(self, tmp_path, capsys):
        # A case whose witness comes from a random sample, so it depends on the seed.
        for seed in range(200):
            net = random_network(4, (6,), 3, "relu", seed=seed)
            x = uniform_instances(net, 1, seed=seed)[0]
            q = make_query(net, x, fixed=set(), epsilon=0.5)
            witnesses = {
                s: check_concrete(net, q, rng=np.random.default_rng(s)).witness for s in (0, 1)
            }
            if all(w is not None for w in witnesses.values()) and not np.array_equal(*witnesses.values()):
                break
        else:
            pytest.fail("no seed-dependent witness found")
        net_path = tmp_path / "net.json"
        net_path.write_text(save_network(net))
        inst_path = tmp_path / "x.csv"
        save_instance_csv(str(inst_path), x)
        base = ["verify", "--network", str(net_path), "--input", str(inst_path), "--subset", "", "--epsilon", "0.5"]
        printed = []
        for extra in ([], ["--seed", "0"], ["--seed", "1"]):
            assert main(base + extra) == 3
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1] != printed[2]

    def test_nan_epsilon_is_named(self, demo_files, capsys):
        net_path, inst_path = demo_files
        code = main(["verify", "--network", net_path, "--input", inst_path, "--subset", "1", "--epsilon", "nan"])
        assert code == 1
        assert capsys.readouterr().err == "error: --epsilon must be nonnegative, got nan\n"

    def test_bad_subset_is_error(self, demo_files, capsys):
        net_path, inst_path = demo_files
        for subset in ("9", "0", "1,4"):
            code = main([
                "verify", "--network", net_path, "--input", inst_path,
                "--subset", subset, "--epsilon", "0.5",
            ])
            assert code == 1
            assert capsys.readouterr().err == f"error: --subset: feature ids run from 1 to 3, got {subset!r}\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--subset", "1,x"], "--subset: expected comma-separated feature ids, got '1,x'"),
            (["--subset", "1", "--seed", "-1"], "--seed must be nonnegative, got -1"),
        ],
    )
    def test_unparsable_flag_values_are_errors(self, demo_files, capsys, flags, message):
        net_path, inst_path = demo_files
        code = main(["verify", "--network", net_path, "--input", inst_path, "--epsilon", "0.5", *flags])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("which, message", [(0, "document: invalid JSON:"), (1, "instance: non-numeric value")])
    def test_undecodable_file_is_a_schema_error(self, demo_files, tmp_path, capsys, which, message):
        files = list(demo_files)
        files[which] = str(tmp_path / "undecodable")
        (tmp_path / "undecodable").write_bytes(b"\xff\xfe{}")
        code = main(["verify", "--network", files[0], "--input", files[1], "--subset", "1", "--epsilon", "0.5"])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")


class TestBenchCommand:
    def test_bench_rows_and_equivalence(self, tmp_path):
        net = random_network(6, (10, 8), 3, "relu", seed=2)
        net_path = tmp_path / "net.json"
        net_path.write_text(save_network(net))
        inst_paths = []
        for i, row in enumerate(uniform_instances(net, 4, seed=5)):
            p = tmp_path / f"x{i}.csv"
            save_instance_csv(str(p), row)
            inst_paths.append(str(p))
        out = tmp_path / "out"
        args = ["bench", "--network", str(net_path), "--epsilon", "0.1", "--out", str(out)]
        for p in inst_paths:
            args += ["--input", p]
        code = main(args)
        assert code == 0
        with open(out / "bench.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        assert {r["algorithm"] for r in rows} == {"baseline", "abstraction_refinement"}
        by_instance = {}
        for r in rows:
            by_instance.setdefault(r["instance"], set()).add(r["explanation_size"])
        for sizes in by_instance.values():
            assert len(sizes) == 1
        summary = json.loads((out / "bench_summary.json").read_text())
        assert summary["instances"] == 4
        assert "1" in summary["mean_query_time_by_rate"]

    def test_single_rate_schedule_gives_identical_query_counts(self, tmp_path):
        net = random_network(5, (8,), 2, "relu", seed=3)
        net_path = tmp_path / "net.json"
        net_path.write_text(save_network(net))
        p = tmp_path / "x.csv"
        save_instance_csv(str(p), uniform_instances(net, 1, seed=1)[0])
        out = tmp_path / "out"
        code = main([
            "bench", "--network", str(net_path), "--input", str(p),
            "--epsilon", "0.1", "--schedule", "1.0", "--out", str(out),
        ])
        assert code == 0
        with open(out / "bench.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["queries"] == rows[1]["queries"]
        assert rows[0]["explanation_size"] == rows[1]["explanation_size"]

    def test_differing_explanations_exit_5(self, tmp_path, monkeypatch, capsys):
        # Equal sizes, different sets: bench compares the sets themselves.
        import provex.cli as cli

        honest = cli.explain_abstraction_refinement

        def shifted(net, x, *args, **kwargs):
            kept, trace = honest(net, x, *args, **kwargs)
            return frozenset((g + 1) % net.input_dim for g in kept), trace

        monkeypatch.setattr(cli, "explain_abstraction_refinement", shifted)
        net = random_network(5, (8,), 2, "relu", seed=3)
        net_path = tmp_path / "net.json"
        net_path.write_text(save_network(net))
        p = tmp_path / "x.csv"
        save_instance_csv(str(p), uniform_instances(net, 1, seed=1)[0])
        code = main([
            "bench", "--network", str(net_path), "--input", str(p),
            "--epsilon", "0.1", "--out", str(tmp_path / "out"),
        ])
        assert code == 5
        assert "different explanations on instances [0]" in capsys.readouterr().err

    def test_no_input_is_an_error_before_any_output(self, tmp_path, capsys):
        net = random_network(4, (6,), 2, "relu", seed=1)
        net_path = tmp_path / "net.json"
        net_path.write_text(save_network(net))
        out = tmp_path / "out"
        code = main([
            "bench", "--network", str(net_path), "--epsilon", "0.1", "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: --input: bench needs at least one instance\n"
        assert not out.exists()

    def test_bad_schedule_is_rejected_before_any_instance(self, tmp_path, capsys):
        # No --input: the schedule is parsed once, not once per instance.
        net = random_network(4, (6,), 2, "relu", seed=1)
        net_path = tmp_path / "net.json"
        net_path.write_text(save_network(net))
        out = tmp_path / "out"
        code = main([
            "bench", "--network", str(net_path), "--epsilon", "0.1", "--schedule", "bogus", "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: --schedule: could not parse schedule 'bogus'\n"
        assert not out.exists()

    def test_nan_epsilon_is_rejected_before_any_instance(self, tmp_path, capsys):
        net = random_network(4, (6,), 2, "relu", seed=1)
        net_path = tmp_path / "net.json"
        net_path.write_text(save_network(net))
        out = tmp_path / "out"
        code = main(["bench", "--network", str(net_path), "--epsilon", "nan", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: --epsilon must be nonnegative, got nan\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--timeout", "1"), ("--backend", "oracle")])
    def test_explain_only_flags_are_usage_errors(self, tmp_path, capsys, flag, value):
        net = random_network(4, (6,), 2, "relu", seed=1)
        net_path = tmp_path / "net.json"
        net_path.write_text(save_network(net))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([
                "bench", "--network", str(net_path), "--epsilon", "0.1",
                flag, value, "--out", str(out),
            ])
        assert exc.value.code == 1
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()


class TestRenderCommand:
    def make_image_case(self, tmp_path, seed=0):
        net = random_network(16, (12,), 2, "relu", seed=seed)
        rng = np.random.default_rng(seed)
        # Avoid the freed-pixel flag value so panel counting is unambiguous.
        img = rng.choice([0, 40, 80, 200, 240], size=(4, 4)).astype(np.uint8)
        net_path = tmp_path / "net.json"
        net_path.write_text(save_network(net))
        img_path = tmp_path / "x.pgm"
        write_image(str(img_path), img)
        return str(net_path), str(img_path), img

    def test_grid_panels_and_retained_pixels(self, tmp_path):
        net_path, img_path, img = self.make_image_case(tmp_path)
        out = tmp_path / "out"
        code = main([
            "explain", "--network", net_path, "--input", img_path,
            "--epsilon", "0.3", "--schedule", "0.5,1.0", "--out", str(out),
        ])
        assert code == 0
        report = read_report(out)
        code = main(["render", "--report", str(out / "report.json"), "--out", str(out)])
        assert code == 0
        strip = read_image(str(out / "mask_grid.pgm"))
        n_panels = len(report["trace"]["snapshots"]) + 1
        assert strip.shape == (4, 4 * n_panels)
        final_panel = strip[:, -4:] * 255.0
        kept = int(np.round(np.sum(final_panel != 128)))
        assert kept == len(report["final"])
        # Freed pixels never decrease across panels ordered by rate.
        freed = [
            int(np.sum(np.round(strip[:, 4 * i : 4 * (i + 1)] * 255.0) == 128))
            for i in range(n_panels - 1)
        ]
        assert all(a <= b for a, b in zip(freed, freed[1:]))

    def test_final_layout_single_panel(self, tmp_path):
        net_path, img_path, _ = self.make_image_case(tmp_path, seed=3)
        out = tmp_path / "out"
        main([
            "explain", "--network", net_path, "--input", img_path,
            "--epsilon", "0.2", "--out", str(out),
        ])
        code = main([
            "render", "--report", str(out / "report.json"),
            "--layout", "final", "--out", str(out),
        ])
        assert code == 0
        assert read_image(str(out / "mask_final.pgm")).shape == (4, 4)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda r: r.pop("config"), "config: missing required field"),
            (lambda r: r["config"].update(inputs=[]), "config.inputs: expected a non-empty list of instance paths"),
            (lambda r: r["config"].update(inputs=[7]), "config.inputs: expected a non-empty list of instance paths"),
            (lambda r: r["config"].pop("groups"), "config.groups: missing required field"),
            (lambda r: r["trace"].pop("snapshots"), "trace.snapshots: missing required field"),
            (lambda r: r["trace"]["snapshots"][0].pop("explanation"), "trace.snapshots[0].explanation: missing required field"),
            (lambda r: r.update(final=["99"]), "final[0]: unknown group id '99'"),
            (lambda r: r.update(final="1"), "final: expected list"),
            (lambda r: r["trace"].update(snapshots=[3]), "trace.snapshots[0]: expected a JSON object"),
        ],
    )
    def test_malformed_report_names_the_field(self, tmp_path, capsys, edit, message):
        net_path, img_path, _ = self.make_image_case(tmp_path)
        out = tmp_path / "out"
        main([
            "explain", "--network", net_path, "--input", img_path,
            "--epsilon", "0.3", "--schedule", "0.5,1.0", "--out", str(out),
        ])
        report = read_report(out)
        edit(report)
        (out / "report.json").write_text(json.dumps(report))
        capsys.readouterr()
        code = main(["render", "--report", str(out / "report.json"), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "text, message",
        [("[1, 2]", "document: expected a JSON object"), ("{nope", "document: invalid JSON: ")],
    )
    def test_report_that_is_no_json_object_is_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "report.json"
        path.write_text(text)
        assert main(["render", "--report", str(path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_non_image_instance_is_error(self, demo_files, tmp_path):
        net_path, inst_path = demo_files
        out = tmp_path / "out"
        main([
            "explain", "--network", net_path, "--input", inst_path,
            "--epsilon", "1.0", "--out", str(out),
        ])
        code = main(["render", "--report", str(out / "report.json"), "--out", str(out)])
        assert code == 1


class TestFixtureCommand:
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--widths", "8,x"], "--widths: expected comma-separated integers, got '8,x'"),
            (["--input-dim", "-2"], "layer widths must be positive, got [-2, 16, 16, 3]"),
            (["--widths", ""], "--widths: expected comma-separated integers, got ''"),
            (["--widths", ", ,"], "--widths: expected comma-separated integers, got ', ,'"),
            (["--seed", "-1"], "--seed must be nonnegative, got -1"),
        ],
    )
    def test_bad_shape_flags_are_errors(self, tmp_path, capsys, flags, message):
        assert main(["fixture", *flags, "--out", str(tmp_path / "fx")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "fx").exists()

    @pytest.mark.parametrize("kind", ["random", "demo"])
    def test_negative_instance_count_is_an_error(self, tmp_path, capsys, kind):
        assert main(["fixture", "--kind", kind, "--instances", "-1", "--out", str(tmp_path / "fx")]) == 1
        assert capsys.readouterr().err == "error: --instances must be nonnegative, got -1\n"
        assert not (tmp_path / "fx").exists()

    @pytest.mark.parametrize(
        "kind, flags",
        [
            ("demo", ["--input-dim", "4"]),
            ("demo", ["--widths", "8"]),
            ("demo", ["--output-dim", "2"]),
            ("demo", ["--activation", "relu"]),
            ("demo", ["--seed", "0"]),
            ("demo", ["--instances", "1"]),
            ("mnist_shape", ["--input-dim", "784"]),
            ("mnist_shape", ["--widths", "200"]),
            ("mnist_shape", ["--output-dim", "10"]),
            ("mnist_shape", ["--activation", "sigmoid"]),
        ],
    )
    def test_flags_the_kind_never_reads_are_errors(self, tmp_path, capsys, kind, flags):
        assert main(["fixture", "--kind", kind, *flags, "--out", str(tmp_path / "fx")]) == 1
        assert capsys.readouterr().err == f"error: {flags[0]} does not apply to --kind {kind}\n"
        assert not (tmp_path / "fx").exists()

    @pytest.mark.parametrize(
        "flags, want",
        [
            ([], random_network(8, (16, 16), 3, "relu", seed=0)),
            (["--kind", "demo"], demo_network()[0]),
            (["--seed", "3", "--widths", "5"], random_network(8, (5,), 3, "relu", seed=3)),
        ],
    )
    def test_defaults_fill_the_flags_not_given(self, tmp_path, flags, want):
        out = tmp_path / "fx"
        assert main(["fixture", *flags, "--out", str(out)]) == 0
        assert load_network((out / "network.json").read_bytes()).fingerprint == want.fingerprint
        assert len(list(out.glob("instance_*.csv"))) == 1

    def test_mnist_shape_reads_its_seed_and_instance_count(self, tmp_path):
        out = tmp_path / "fx"
        assert main(["fixture", "--kind", "mnist_shape", "--seed", "2", "--instances", "2", "--out", str(out)]) == 0
        assert len(list(out.glob("instance_*.csv"))) == 2

    def test_writes_network_and_instances(self, tmp_path):
        out = tmp_path / "fx"
        code = main([
            "fixture", "--kind", "random", "--seed", "5", "--input-dim", "6",
            "--widths", "8,8", "--output-dim", "2", "--instances", "3",
            "--out", str(out),
        ])
        assert code == 0
        assert (out / "network.json").exists()
        assert (out / "instance_002.csv").exists()
