"""Command-line surface: exit codes, file outputs, and determinism."""

import csv
import json

import numpy as np
import pytest

from provex.cli import main
from provex.fixtures import demo_network, random_network, uniform_instances
from provex.images import read_image, save_instance_csv, write_image
from provex.network import forward, predict, save_network


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
            pytest.skip("no refutable seed found")
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
        pytest.skip("no uncertain seed found")

    def test_bad_subset_is_error(self, demo_files):
        net_path, inst_path = demo_files
        code = main([
            "verify", "--network", net_path, "--input", inst_path,
            "--subset", "9", "--epsilon", "0.5",
        ])
        assert code == 1


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

    def test_empty_instance_list_header_only(self, tmp_path):
        net = random_network(4, (6,), 2, "relu", seed=1)
        net_path = tmp_path / "net.json"
        net_path.write_text(save_network(net))
        out = tmp_path / "out"
        code = main([
            "bench", "--network", str(net_path), "--epsilon", "0.1", "--out", str(out),
        ])
        assert code == 0
        lines = (out / "bench.csv").read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("instance,algorithm")


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
