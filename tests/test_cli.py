"""End-to-end command line checks driven through the in-process entry point."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from specreason import cli


P2 = "2 1\n0 1 1.0\n"


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p2.txt").write_text(P2)
    (tmp_path / "beliefs.txt").write_text("1.0\n0.0\n")
    return tmp_path


def run(*argv):
    return cli.main([str(a) for a in argv])


class TestFit:
    def test_identity_recovers_unit_coefficient(self, workdir):
        code = run("fit", "--graph", "p2.txt", "--response", "identity",
                   "--order", "5", "--out-dir", "out")
        assert code == 0
        spec = json.loads((workdir / "out" / "filter.json").read_text())
        theta = np.array(spec["theta"])
        assert theta[0] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(theta[1:], 0.0, atol=1e-12)

    def test_diffusion_grid_error_reported(self, workdir, capsys):
        code = run("fit", "--graph", "p2.txt", "--response", "diffusion",
                   "--tau", "1.0", "--order", "16", "--out-dir", "out")
        assert code == 0
        captured = capsys.readouterr()
        line = captured.out.strip().splitlines()[-1]
        assert line.startswith("fit order=16")
        assert " lambda_bound=lanczos " in line and captured.err == ""
        grid_error = float(line.rsplit("grid_error=", 1)[1])
        assert grid_error <= 1e-6
        spec = json.loads((workdir / "out" / "filter.json").read_text())
        assert len(spec["theta"]) == 17
        assert spec["lambda_max"] == pytest.approx(2.02, abs=0.05)

    def test_fallback_bound_reported(self, workdir, capsys):
        # a long path's top eigenvalues crowd together: Lanczos stops unconverged
        n = 3000
        (workdir / "path.txt").write_text(
            f"{n} {n - 1}\n" + "".join(f"{k} {k + 1} 1\n" for k in range(n - 1)))
        (workdir / "x.txt").write_text("1\n" * n)
        assert run("fit", "--graph", "path.txt", "--response", "diffusion", "--tau", "1",
                   "--order", "8", "--out-dir", "fit") == 0
        captured = capsys.readouterr()
        assert " lambda_bound=gershgorin " in captured.out
        warning = captured.err.splitlines()
        assert len(warning) == 1 and warning[0].startswith("warning: lambda_max did not converge")
        assert run("infer", "--graph", "path.txt", "--filter", "fit/filter.json",
                   "--beliefs", "x.txt", "--out-dir", "out") == 0
        assert capsys.readouterr().err.splitlines() == warning

    def test_missing_graph_reports_and_fails(self, workdir, capsys):
        code = run("fit", "--graph", "missing.txt", "--response", "identity",
                   "--order", "4", "--out-dir", "out")
        assert code == 1
        err = capsys.readouterr().err
        assert "error: file not found: missing.txt" in err
        assert not (workdir / "out" / "filter.json").exists()

    def test_manifest_omits_out_dir(self, workdir):
        run("fit", "--graph", "p2.txt", "--response", "identity",
            "--order", "4", "--out-dir", "out")
        manifest = json.loads((workdir / "out" / "manifest.json").read_text())
        assert "out_dir" not in manifest["arguments"]
        assert "func" not in manifest["arguments"]
        assert manifest["command"] == "fit"
        assert "p2.txt" in manifest["inputs"]
        assert len(manifest["inputs"]["p2.txt"]) == 64


class TestInfer:
    def fit_filter(self):
        run("fit", "--graph", "p2.txt", "--response", "diffusion",
            "--tau", "1.0", "--order", "16", "--out-dir", "fitout")
        return "fitout/filter.json"

    def test_two_thirds_one_third(self, workdir):
        filt = self.fit_filter()
        code = run("infer", "--graph", "p2.txt", "--filter", filt,
                   "--beliefs", "beliefs.txt", "--threshold", "0.5",
                   "--out-dir", "out")
        assert code == 0
        with open(workdir / "out" / "predicates.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["belief"]) == pytest.approx(2 / 3, abs=1e-6)
        assert float(rows[1]["belief"]) == pytest.approx(1 / 3, abs=1e-6)
        assert [r["hard"] for r in rows] == ["1", "0"]

    def test_rule_closure_written(self, workdir):
        filt = self.fit_filter()
        (workdir / "rules.json").write_text(json.dumps(
            {"atoms": ["n0", "n1"],
             "clauses": [{"body": ["n0"], "head": "n1"}]}))
        run("infer", "--graph", "p2.txt", "--filter", filt,
            "--beliefs", "beliefs.txt", "--rulebase", "rules.json",
            "--threshold", "0.5", "--out-dir", "out")
        closure = (workdir / "out" / "closure.txt").read_text().split()
        assert closure == ["n0", "n1"]

    def test_soft_mode_sigmoid_column(self, workdir):
        filt = self.fit_filter()
        run("infer", "--graph", "p2.txt", "--filter", filt,
            "--beliefs", "beliefs.txt", "--threshold", "0.5",
            "--mode", "soft", "--temperature", "10", "--out-dir", "out")
        with open(workdir / "out" / "predicates.csv") as fh:
            rows = list(csv.DictReader(fh))
        from scipy.special import expit
        assert float(rows[0]["soft"]) == pytest.approx(expit(10 * (2 / 3 - 0.5)), abs=1e-6)
        assert [r["hard"] for r in rows] == ["1", "0"]

    def test_stdout_summary(self, workdir, capsys):
        filt = self.fit_filter()
        capsys.readouterr()
        run("infer", "--graph", "p2.txt", "--filter", filt,
            "--beliefs", "beliefs.txt", "--threshold", "0.5", "--out-dir", "out")
        out = capsys.readouterr().out
        assert "band_fractions=" in out
        assert "infer nodes=2" in out

    def test_bad_filter_json_rejected(self, workdir, capsys):
        (workdir / "bad.json").write_text(json.dumps({"kind": "diffusion"}))
        code = run("infer", "--graph", "p2.txt", "--filter", "bad.json",
                   "--beliefs", "beliefs.txt", "--out-dir", "out")
        assert code == 1
        assert "lambda_max" in capsys.readouterr().err


    def test_non_finite_belief_names_its_line(self, workdir, capsys):
        filt = self.fit_filter()
        (workdir / "nan.txt").write_text("1.0\nnan\n")
        code = run("infer", "--graph", "p2.txt", "--filter", filt,
                   "--beliefs", "nan.txt", "--out-dir", "out")
        assert code == 1
        assert "nan.txt: line 2: belief 'nan' is not finite" in capsys.readouterr().err
        assert not (workdir / "out" / "predicates.csv").exists()


class TestTrain:
    def test_out_of_range_allowed_bands_rejected(self, workdir, capsys):
        (workdir / "train.json").write_text(json.dumps(
            {"order": 4, "epochs": 3, "penalties": {"proof": 0.5}, "allowed_bands": [7]}))
        code = run("train", "--graph", "p2.txt", "--config", "train.json", "--out-dir", "out")
        assert code == 1
        assert "allowed bands [7] outside the partition" in capsys.readouterr().err
        assert not (workdir / "out" / "history.csv").exists()


class TestGen:
    def test_same_seed_byte_identical(self, workdir):
        run("gen", "--kind", "chain", "--depth", "4", "--seed", "3", "--out-dir", "a")
        run("gen", "--kind", "chain", "--depth", "4", "--seed", "3", "--out-dir", "b")
        assert (workdir / "a" / "task.json").read_bytes() == \
               (workdir / "b" / "task.json").read_bytes()

    def test_chain_emits_rulebase_file(self, workdir):
        run("gen", "--kind", "chain", "--depth", "3", "--out-dir", "out")
        rules = json.loads((workdir / "out" / "rules.json").read_text())
        assert len(rules["clauses"]) == 3

    def test_community_task_loads_back(self, workdir):
        from specreason import taskgen as tg
        code = run("gen", "--kind", "community", "--n", "20", "--intra-p", "0.5",
                   "--inter-p", "0.05", "--seed", "1", "--out-dir", "out")
        assert code == 0
        inst = tg.load_task(workdir / "out" / "task.json")
        assert inst.kind == "community"
        assert inst.graph.node_count == 20

    def test_bad_parameters_exit_nonzero(self, workdir, capsys):
        code = run("gen", "--kind", "community", "--n", "9", "--out-dir", "out")
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestEval:
    def test_chain_task_perfect_accuracy(self, workdir):
        run("gen", "--kind", "chain", "--depth", "4", "--seed", "3", "--out-dir", "task")
        code = run("eval", "--tasks", "task/task.json", "--response", "diffusion",
                   "--tau", "4.0", "--threshold", "0.01", "--latency-runs", "1",
                   "--out-dir", "out")
        assert code == 0
        with open(workdir / "out" / "eval.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["accuracy"]) == 1.0
        assert rows[0]["model"] == "diffusion(4)"

    def test_multiple_tasks_single_row(self, workdir):
        for seed in (0, 1):
            run("gen", "--kind", "community", "--n", "20", "--intra-p", "0.5",
                "--inter-p", "0.05", "--seed", str(seed), "--out-dir", f"t{seed}")
        code = run("eval", "--tasks", "t0/task.json", "t1/task.json",
                   "--response", "diffusion", "--tau", "2.0",
                   "--threshold", "0.0", "--latency-runs", "1", "--out-dir", "out")
        assert code == 0
        with open(workdir / "out" / "eval.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert int(rows[0]["instances"]) == 2


class TestArgErrors:
    def test_unknown_command_exits_two(self, workdir):
        with pytest.raises(SystemExit) as exc:
            run("warp")
        assert exc.value.code == 2

    def test_no_command_is_an_error(self, workdir):
        with pytest.raises(SystemExit):
            run()


def test_attribute_and_perturb_do_not_bound_lambda_max(workdir, monkeypatch):
    calls = []
    monkeypatch.setattr(cli.gr, "estimate_lambda_max", lambda *a, **k: calls.append(a))
    assert run("attribute", "--graph", "p2.txt", "--beliefs", "beliefs.txt",
               "--response", "diffusion", "--tau", "1", "--out-dir", "attr") == 0
    assert run("perturb", "--graph", "p2.txt", "--beliefs", "beliefs.txt", "--band", "0",
               "--magnitude", "0.5", "--out-dir", "pert") == 0
    assert calls == []


def test_import_leaves_generator_only_scipy_modules_unloaded():
    # every command pays for what importing the CLI loads; these two serve only
    # the soft projection and the task generators
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, specreason.cli; print(sorted(m for m in sys.modules"
            " if m.startswith(('scipy.special', 'scipy.sparse.csgraph'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
