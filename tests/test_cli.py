"""End-to-end command line checks driven through the in-process entry point."""

import argparse
import builtins
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from collections import namedtuple
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from specreason import cli
from specreason import filters as ft
from specreason import graph as gr
from specreason.taskgen import random_gnm

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from awkward import AWKWARD, awkward_runs, unserve, write_inputs  # noqa: E402
from sweep import BELIEF_FILES, EDGE_LISTS  # noqa: E402


P2 = "2 1\n0 1 1.0\n"


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p2.txt").write_text(P2)
    (tmp_path / "beliefs.txt").write_text("1.0\n0.0\n")
    return tmp_path


def run(*argv):
    return cli.main([str(a) for a in argv])


def read_filter(path):
    """The filter JSON at path, parsed from its bytes as cli reads them."""
    return ft.load_filter(Path(path).read_bytes())


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

    def test_weights_near_the_float_range_fit(self, workdir, capsys):
        # lambda_max about 5e300: the Lanczos recurrence once overflowed here
        (workdir / "big.txt").write_text("4 3\n0 1 1e300\n1 2 1e300\n2 3 2e300\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run("fit", "--graph", "big.txt", "--response", "diffusion", "--tau", "1",
                       "--order", "8", "--out-dir", "out") == 0
        assert capsys.readouterr().err == ""
        lap = gr.build_laplacian(gr.load_graph(Path("big.txt").read_bytes()))
        dense = np.ldexp(np.linalg.eigvalsh(np.ldexp(lap.toarray(), -1000))[-1], 1000)
        value = read_filter("out/filter.json").lambda_max
        assert dense <= value <= 1.01 * (1 + 1e-7) * dense
        # lambda_max about 1e308: the quadrature sum of 1 + lambda / 2 once overflowed, and the
        # fit was refused as not finite
        (workdir / "huge.txt").write_text("2 1\n0 1 5e307\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run("fit", "--graph", "huge.txt", "--response", "polynomial",
                       "--coeffs", "1,0.5", "--order", "8", "--out-dir", "poly") == 0
        assert capsys.readouterr().err == ""
        fitted = read_filter("poly/filter.json")
        # 1 + lambda / 2 is theta_0 + theta_1 z with both lambda_max / 4, the 1 lost to rounding
        assert fitted.theta[:2] == pytest.approx([fitted.lambda_max / 4] * 2, rel=1e-12)
        assert np.all(np.abs(fitted.theta[2:]) <= 1e-15 * fitted.lambda_max)

    def test_weights_near_the_float_range_tiny_fit(self, workdir, capsys):
        # lambda_max about 5e-300: a zero test on an absolute scale once called it degenerate
        (workdir / "tiny.txt").write_text("4 3\n0 1 1e-300\n1 2 1e-300\n2 3 2e-300\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run("fit", "--graph", "tiny.txt", "--response", "diffusion", "--tau", "1",
                       "--order", "8", "--out-dir", "out") == 0
        assert capsys.readouterr().err == ""
        spec = json.loads((workdir / "out" / "filter.json").read_text())
        assert spec["bound"]["degenerate"] is False
        lap = gr.build_laplacian(gr.load_graph(Path("tiny.txt").read_bytes()))
        dense = np.ldexp(np.linalg.eigvalsh(np.ldexp(lap.toarray(), 1000))[-1], -1000)
        assert dense <= spec["lambda_max"] <= 1.01 * (1 + 1e-7) * dense

    def test_weights_in_the_top_binade_fit_and_infer(self, workdir, capsys):
        # the largest diagonal, 1e308, lies in [2^1023, 2^1024): the bound was once read as
        # degenerate and stored as 1
        (workdir / "huge.txt").write_text("4 3\n0 1 5e307\n1 2 5e307\n2 3 5e307\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run("fit", "--graph", "huge.txt", "--response", "diffusion", "--tau", "1",
                       "--order", "4", "--out-dir", "out") == 0
        assert capsys.readouterr().err == ""
        spec = json.loads((workdir / "out" / "filter.json").read_text())
        assert spec["bound"]["degenerate"] is False
        lap = gr.build_laplacian(gr.load_graph(Path("huge.txt").read_bytes()))
        dense = np.linalg.eigvalsh(lap.toarray())[-1]
        assert dense <= spec["lambda_max"] <= 1.01 * (1 + 1e-7) * dense
        # its three bands, 2 lambda_max / 3 among their edges, stay finite
        (workdir / "four.txt").write_text("1\n-2\n0.5\n3\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run("infer", "--graph", "huge.txt", "--filter", "out/filter.json",
                       "--beliefs", "four.txt", "--out-dir", "inferred") == 0
        assert capsys.readouterr().err == ""

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

    def test_small_weights_are_bounded_and_matched(self, workdir, capsys):
        # the 20-node path of 6.09e-11 weights once stored a bound of 1.01e-12, below its
        # 2.42e-10 spectrum, and infer wrote beliefs of 3.6e31; a filter fit there matched
        # every graph whose estimate lay within an absolute 1e-6 of it
        for name, weight in (("small", 6.087810885914756e-11),
                             ("double", 1.2175621771829511e-10)):
            (workdir / f"{name}.txt").write_text(
                "20 19\n" + "".join(f"{k} {k + 1} {weight!r}\n" for k in range(19)))
        (workdir / "signs.txt").write_text("".join(f"{(-1) ** k}\n" for k in range(20)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run("fit", "--graph", "small.txt", "--response", "diffusion", "--tau", "1",
                       "--order", "16", "--out-dir", "fit") == 0
            assert run("infer", "--graph", "small.txt", "--filter", "fit/filter.json",
                       "--beliefs", "signs.txt", "--out-dir", "out") == 0
        with open(workdir / "out" / "predicates.csv") as fh:
            beliefs = [float(row["belief"]) for row in csv.DictReader(fh)]
        assert len(beliefs) == 20 and max(map(abs, beliefs)) <= np.sqrt(20)  # a contraction
        capsys.readouterr()
        assert run("infer", "--graph", "double.txt", "--filter", "fit/filter.json",
                   "--beliefs", "signs.txt", "--out-dir", "double") == 1
        assert "does not match this graph's estimate" in capsys.readouterr().err
        assert not (workdir / "double").exists()

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
            "--temperature", "10", "--out-dir", "out")
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
        assert "band_fractions=" not in out
        assert out == "infer nodes=2 facts=1\n"

    def test_no_dense_step_below_the_dense_cap(self, workdir, capsys, monkeypatch):
        # infer once ran an O(n^3) eigendecomposition at n <= 2,048 to print band_fractions=
        def undecomposed(*args, **kwargs):
            raise AssertionError("infer decomposed the operator")

        monkeypatch.setattr(gr, "eigendecompose", undecomposed)
        g = random_gnm(2000, 10000, seed=2)
        (workdir / "g.txt").write_text(
            f"{g.node_count} {g.edge_count}\n" + "".join(f"{i} {j} {w}\n" for i, j, w in g.edges))
        (workdir / "x.txt").write_text("".join(f"{(-1) ** k}\n" for k in range(2000)))
        assert run("fit", "--graph", "g.txt", "--response", "diffusion", "--order", "16",
                   "--out-dir", "fit") == 0
        capsys.readouterr()
        assert run("infer", "--graph", "g.txt", "--filter", "fit/filter.json",
                   "--beliefs", "x.txt", "--out-dir", "out") == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and out.startswith("infer nodes=2000 facts=")
        rows = (workdir / "out" / "predicates.csv").read_text().splitlines()
        assert len(rows) == 1 + 2000

    def test_bad_filter_json_rejected(self, workdir, capsys):
        (workdir / "bad.json").write_text(json.dumps({"kind": "diffusion"}))
        code = run("infer", "--graph", "p2.txt", "--filter", "bad.json",
                   "--beliefs", "beliefs.txt", "--out-dir", "out")
        assert code == 1
        assert "lambda_max" in capsys.readouterr().err


    @pytest.mark.parametrize("rulebase, message", [
        ({"atoms": ["n0"], "clauses": []}, "rulebase names 1 atoms but the graph has 2 nodes"),
        ([{"name": "a", "kind": "identity", "params": []}],
         "rules.json: the document must be an object"),
        pytest.param({"atoms": ["n0", "n1"], "clauses": [{"head": "n1"}]},
                     "rules.json: clauses[0].body is missing",
                     id="rulebase2-rules.json: clause is missing required key 'body'"),
    ])
    def test_bad_rulebase_writes_nothing(self, workdir, capsys, rulebase, message):
        filt = self.fit_filter()
        (workdir / "rules.json").write_text(json.dumps(rulebase))
        code = run("infer", "--graph", "p2.txt", "--filter", filt, "--beliefs", "beliefs.txt",
                   "--rulebase", "rules.json", "--out-dir", "out")
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (workdir / "out").exists()

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
        assert ("error: train.json: allowed_bands must name one or more of bands 0, 1 and 2 "
                "when penalties.proof > 0, got [7]") in capsys.readouterr().err
        assert not (workdir / "out").exists()

    def test_diverging_run_prints_one_error_line(self, workdir, capsys):
        (workdir / "train.json").write_text(json.dumps(
            {"learning_rate": 1e5, "epochs": 50, "clip_norm": None}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("train", "--graph", "p2.txt", "--config", "train.json", "--out-dir", "out")
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: loss diverged at epoch ")
        assert not (workdir / "out").exists()

    def test_teacher_without_kind_named(self, workdir, capsys):
        (workdir / "train.json").write_text(json.dumps(
            {"order": 4, "epochs": 3, "teacher": {"params": [1.0]}}))
        code = run("train", "--graph", "p2.txt", "--config", "train.json", "--out-dir", "out")
        assert code == 1
        err = capsys.readouterr().err
        assert "error: train.json: teacher.kind is missing" in err

    @pytest.mark.parametrize("config, message", [
        ({"order": 4, "epoch": 3}, "epoch is an unknown key"),
        ({"order": 4, "penalties": {"prof": 0.5}}, "penalties.prof is an unknown key"),
        ({"order": 4, "teacher": {"kind": "diffusion", "tau": 2.0}},
         "teacher.tau is an unknown key"),
        # train fits the squared error and has no rule-consistency term: neither is a key
        ({"order": 4, "loss": "mse"},
         "loss is an unknown key; known: order, examples, teacher, penalties, curriculum, "
         "allowed_bands, learning_rate, epochs, clip_norm, seed"),
        ({"order": 4, "penalties": {"rule_consistency": 0}},
         "penalties.rule_consistency is an unknown key; known: proof, transfer"),
    ], ids=["top_level", "penalties", "teacher", "loss", "rule_consistency"])
    def test_config_key_train_does_not_read_refused(self, workdir, capsys, config, message):
        (workdir / "train.json").write_text(json.dumps(config))
        # the graph does not exist: the config is refused before anything is loaded
        code = run("train", "--graph", "missing.txt", "--config", "train.json", "--out-dir", "out")
        assert code == 1
        assert f"error: train.json: {message}" in capsys.readouterr().err
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("config, message", [
        ({"order": 4, "penalties": {"proof": -1.0}},
         "penalties.proof must be finite and nonnegative, got -1.0"),
        ({"order": 4, "penalties": {"transfer": -0.5}},
         "penalties.transfer must be finite and nonnegative, got -0.5"),
        ({"order": 4, "penalties": {"proof": float("nan")}},
         "penalties.proof must be finite and nonnegative, got nan"),
        ({"order": 4, "examples": 0}, "examples must be at least 1, got 0"),
        ({"order": -1}, "order must be at least 0, got -1"),
        ({"order": 4, "epochs": 0}, "epochs must be at least 1, got 0"),
        ({"order": 4, "learning_rate": -1},
         "learning_rate must be finite and nonnegative, got -1.0"),
        ({"order": 4, "learning_rate": float("nan")},
         "learning_rate must be finite and nonnegative, got nan"),
        ({"order": 4, "learning_rate": float("inf")},
         "learning_rate must be finite and nonnegative, got inf"),
        ({"order": 4, "clip_norm": 0}, "clip_norm must be finite and positive, got 0"),
        ({"order": 4, "clip_norm": float("nan")},
         "clip_norm must be finite and positive, got nan"),
        ({"order": 4, "curriculum": [[1, 2]]}, "the first curriculum stage must start at epoch 0"),
        ({"order": 4, "curriculum": [[0, 3], [5, 1]]}, "curriculum stage orders must not decrease"),
        ({"order": 4, "curriculum": [[0]]}, "curriculum[0] must be a list of 2 entries, got [0]"),
        ({"order": 4, "curriculum": 5}, "curriculum must be a list or null, got 5"),
        ({"order": 4, "clip_norm": "abc"}, "clip_norm must be a number or null, got 'abc'"),
        ({"order": 4, "epochs": "ten"}, "epochs must be an integer, got 'ten'"),
        ({"order": 4.5}, "order must be an integer, got 4.5"),
        ({"order": 4, "penalties": {"proof": 0.5}, "allowed_bands": [5]},
         "allowed_bands must name one or more of bands 0, 1 and 2 when penalties.proof > 0, "
         "got [5]"),
        ({"order": 4, "penalties": {"proof": 0.5}, "allowed_bands": []},
         "allowed_bands must name one or more of bands 0, 1 and 2 when penalties.proof > 0, "
         "got []"),
    ], ids=["negative_proof", "negative_transfer", "nan_proof", "examples", "order", "epochs",
            "negative_learning_rate", "nan_learning_rate", "infinite_learning_rate",
            "zero_clip_norm", "nan_clip_norm", "curriculum_start", "curriculum_order",
            "curriculum_stage_shape", "curriculum_not_a_list", "clip_norm_type", "epochs_type",
            "fractional_order", "allowed_band_outside", "no_allowed_band"])
    def test_bad_config_value_refused_before_out_dir(self, workdir, capsys, config, message):
        (workdir / "train.json").write_text(json.dumps(config))
        code = run("train", "--graph", "p2.txt", "--config", "train.json", "--out-dir", "out")
        assert code == 1
        assert f"error: train.json: {message}" in capsys.readouterr().err
        assert not (workdir / "out").exists()

    def test_transfer_alone_trains_above_dense_cap(self, workdir):
        # only the proof penalty reads the eigenbasis, which is refused above DENSE_CAP
        n = gr.DENSE_CAP + 1
        (workdir / "ring.txt").write_text(f"{n} {n}\n"
                                          + "".join(f"{k} {(k + 1) % n} 1\n" for k in range(n)))
        (workdir / "train.json").write_text(json.dumps(
            {"order": 3, "epochs": 2, "examples": 1, "penalties": {"transfer": 0.1}}))
        assert run("train", "--graph", "ring.txt", "--config", "train.json",
                   "--out-dir", "out") == 0

    def test_each_example_recurrence_runs_once(self, workdir, monkeypatch):
        # the teacher's trace gives the target and is the one training reuses
        (workdir / "train.json").write_text(json.dumps({"order": 4, "epochs": 5, "examples": 3}))
        calls = []
        cheb_apply = ft.cheb_apply
        monkeypatch.setattr(ft, "cheb_apply",
                            lambda *a, **k: calls.append(a) or cheb_apply(*a, **k))
        assert run("train", "--graph", "p2.txt", "--config", "train.json",
                   "--out-dir", "out") == 0
        assert len(calls) == 3


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
        inst = tg.load_task((workdir / "out" / "task.json").read_bytes())
        assert inst.kind == "community"
        assert inst.graph.node_count == 20

    def test_bad_parameters_exit_nonzero(self, workdir, capsys):
        code = run("gen", "--kind", "community", "--n", "9", "--out-dir", "out")
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value", [("--intra-p", "1.5"), ("--inter-p", "-0.5")])
    def test_community_probability_outside_zero_one_refused(self, workdir, capsys, option,
                                                            value):
        # --intra-p 1.5 once made both blocks complete with exit 0, and --inter-p -0.5 ended
        # in ten failed draws: the community draw is random_gnp's, which checks each pair's p
        assert run("gen", "--kind", "community", "--n", "40", option, value,
                   "--out-dir", "out") == 1
        err = capsys.readouterr().err
        assert err == f"error: edge probability must be in [0, 1], got {value}\n"
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("kind", ["community", "contradiction"])
    def test_a_pair_draw_past_the_cap_is_refused_before_any_array(self, workdir, capsys,
                                                                    monkeypatch, kind):
        # a draw on every node pair of 20,000 nodes would hold about 10 GB: none is made
        def unmade(*args, **kwargs):
            raise AssertionError("an array of node pairs was made")

        monkeypatch.setattr(np, "triu_indices", unmade)
        assert run("gen", "--kind", kind, "--n", "20000", "--out-dir", "out") == 1
        assert capsys.readouterr().err == (
            "error: a draw on the 199990000 node pairs of 20000 nodes passes the cap of "
            "17997000 pairs (6,000 nodes)\n")
        assert not (workdir / "out").exists()


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


    def test_template_without_params_named(self, workdir, capsys):
        run("gen", "--kind", "chain", "--depth", "3", "--out-dir", "task")
        (workdir / "t.json").write_text(json.dumps([{"name": "a", "kind": "diffusion"}]))
        code = run("eval", "--tasks", "task/task.json", "--rules", "t.json", "--out-dir", "out")
        assert code == 1
        assert "error: t.json: [0].params is missing" in capsys.readouterr().err

    def test_task_without_beliefs_named(self, workdir, capsys):
        run("gen", "--kind", "chain", "--depth", "3", "--out-dir", "task")
        payload = json.loads((workdir / "task" / "task.json").read_text())
        del payload["beliefs"]
        (workdir / "task.json").write_text(json.dumps(payload))
        code = run("eval", "--tasks", "task.json", "--response", "identity", "--out-dir", "out")
        assert code == 1
        assert "error: task.json: beliefs is missing" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value, message", [
        ("--perturb-magnitude", "-1", "magnitude must be nonnegative, got -1.0"),
        ("--perturb-magnitude", "nan", "magnitude must be nonnegative, got nan"),
        ("--threshold", "nan", "threshold must be finite"),
        ("--threshold", "inf", "threshold must be finite"),
        ("--latency-runs", "0", "latency_runs must be at least 1, got 0"),
        ("--latency-runs", "-3", "latency_runs must be at least 1, got -3"),
        ("--perturb-band", "7", "band 7 outside partition with 3 bands"),
        ("--perturb-band", "-1", "band -1 outside partition with 3 bands"),
    ])
    def test_a_number_it_cannot_use_is_refused(self, workdir, capsys, option, value, message):
        run("gen", "--kind", "chain", "--depth", "3", "--out-dir", "task")
        capsys.readouterr()
        assert run("eval", "--tasks", "task/task.json", "--response", "identity",
                   option, value, "--out-dir", "out") == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (workdir / "out").exists()

    def test_a_task_without_edges_is_scored(self, workdir, capsys):
        # its spectrum is all zeros: as in attribute, the bands cut [0, 1]
        run("gen", "--kind", "chain", "--depth", "3", "--out-dir", "task")
        payload = json.loads((workdir / "task" / "task.json").read_text())
        payload["graph"]["edges"] = []
        (workdir / "task.json").write_text(json.dumps(payload))
        capsys.readouterr()
        assert run("eval", "--tasks", "task.json", "--response", "identity",
                   "--latency-runs", "1", "--out-dir", "out") == 0
        assert capsys.readouterr().err == ""
        with open(workdir / "out" / "eval.csv") as fh:
            row = next(csv.DictReader(fh))
        assert [float(row[f"band{b}_fraction"]) for b in range(3)] == [1.0, 0.0, 0.0]

    def test_an_energy_past_the_float_range_is_refused(self, workdir, capsys):
        # 1 + lambda / 2 on the 1e300 path: its energies read inf, which has no fractions
        run("gen", "--kind", "chain", "--depth", "3", "--out-dir", "task")
        payload = json.loads((workdir / "task" / "task.json").read_text())
        payload["graph"]["edges"] = [[i, j, 1e300] for i, j, _ in payload["graph"]["edges"]]
        (workdir / "task.json").write_text(json.dumps(payload))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run("eval", "--tasks", "task.json", "--response", "polynomial",
                       "--coeffs", "1,0.5", "--latency-runs", "1", "--out-dir", "out") == 1
        assert capsys.readouterr().err == "error: band0_energy is inf, past the float range\n"
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("response, label", [
        (["polynomial", "--coeffs", "1,0.5"], "polynomial(1, 0.5)"),
        (["gaussian_bandpass", "--center", "1", "--width", "0.5"], "gaussian_bandpass(1, 0.5)"),
    ], ids=["polynomial", "gaussian_bandpass"])
    def test_model_label_with_a_comma_is_one_cell(self, workdir, response, label):
        run("gen", "--kind", "chain", "--depth", "3", "--out-dir", "task")
        assert run("eval", "--tasks", "task/task.json", "--response", *response,
                   "--latency-runs", "1", "--out-dir", "out") == 0
        with open(workdir / "out" / "eval.csv", newline="") as fh:
            header, row = csv.reader(fh)
        assert len(row) == len(header)
        assert dict(zip(header, row))["model"] == label


DELETE = object()
TRUNCATED = object()
Raw = namedtuple("Raw", "old new")  # the input's text with its first old replaced by new


def edited(path, *steps):
    """The JSON document at path with each (keys, value) step applied: the value is set at
    the keys, or the last key deleted when the value is DELETE."""
    doc = json.loads(Path(path).read_text())
    for keys, value in steps:
        *inner, last = keys
        target = doc
        for key in inner:
            target = target[key]
        if value is DELETE:
            del target[last]
        else:
            target[last] = value
    return json.dumps(doc)

# (what is edited: [(key path, new value)], a Raw text edit, or TRUNCATED; the refusal
# after "<file>: ")
BAD_TASKS = [
    ([(["graph", "n"], 4.7)], "graph.n must be an integer, got 4.7"),
    ([(["graph", "n"], True)], "graph.n must be an integer, got True"),
    ([(["graph", "n"], 4.0)], "graph.n must be an integer, got 4.0"),
    ([(["graph", "edges", 1, 2], True)], "graph.edges[1][2] must be a number, got True"),
    ([(["graph", "edges", 1, 2], "2")], "graph.edges[1][2] must be a number, got '2'"),
    ([(["graph", "edges", 1], [0, 1])], "graph.edges[1] must be a list of 3 entries, got [0, 1]"),
    ([(["graph", "m"], 3)], "graph.m is an unknown key; known: n, edges, kind"),
    ([(["graph", "n"], 0)], "graph.n: node_count must be a positive integer"),
    ([(["graph", "kind"], "odd")], "graph.kind: unknown graph kind 'odd'"),
    ([(["graph", "edges"], DELETE)], "graph.edges is missing"),
    ([(["beliefs", 0], "1")], "beliefs[0] must be a number, got '1'"),
    ([(["beliefs", 0], True)], "beliefs[0] must be a number, got True"),
    ([(["beliefs", 0], 10 ** 400)], "int too large to convert to float"),
    ([(["labels", 0], 2), (["labels", 1], 0.5), (["labels", 2], "x")],
     "labels[1] must be an integer, got 0.5"),
    ([(["labels", 0], 2)], "labels[0] must be 0 or 1, got 2"),
    ([(["labels", 0], "x")], "labels[0] must be an integer, got 'x'"),
    ([(["allowed_bands"], "01")], "allowed_bands must be a list, got '01'"),
    ([(["seed"], "7")], "seed must be an integer, got '7'"),
    ([(["seed"], 7.9)], "seed must be an integer, got 7.9"),
    ([(["params", "depth"], "3")], "params.depth must be a number, got '3'"),
    ([(["atoms"], "ab")], "atoms must be a list or null, got 'ab'"),
    ([(["clauses", 0, "body"], "ab")], "clauses[0].body must be a list, got 'ab'"),
    ([(["clauses", 0, "weight"], 1.0)], "clauses[0].weight is an unknown key; known: body, head"),
    ([(["extra"], 1)], "extra is an unknown key; known: kind, seed, params, graph"),
    (Raw('"graph": {', '"graph": {"n": 2, '), "n is a repeated key"),
    (TRUNCATED, "Expecting ',' delimiter: line"),
]
BAD_FILTERS = [
    ([(["lambda_max"], True)], "lambda_max must be a number, got True"),
    ([(["theta", 0], "1")], "theta[0] must be a number, got '1'"),
    ([(["lambda_max"], 10 ** 400)], "int too large to convert to float"),
    ([(["theta"], "1")], "theta must be a list, got '1'"),
    ([(["lambda_max"], DELETE)], "lambda_max is missing"),
    ([(["extra"], 1)], "extra is an unknown key; known: lambda_max, theta, bound"),
    ([(["bound"], None)], "bound must be an object, got None"),
    ([(["bound", "iterations"], 6.0)], "bound.iterations must be an integer, got 6.0"),
    ([(["bound", "converged"], 1)], "bound.converged must be a boolean, got 1"),
    ([(["bound", "method"], DELETE)], "bound.method is missing"),
    ([(["bound", "seed"], 0)], "bound.seed is an unknown key"),
    ([(["bound", "graph_sha256"], "ab")], "bound needs iterations >= 0 and a 64-hex-digit"),
    (Raw('"method": ', '"method": "gershgorin", "method": '), "method is a repeated key"),
    (TRUNCATED, "Expecting ',' delimiter: line"),
]
BAD_RULEBASES = [
    ([(["atoms"], "ab")], "atoms must be a list, got 'ab'"),
    ([(["atoms", 1], 1)], "atoms[1] must be a string, got 1"),
    ([(["clauses", 0, "body"], "ab")], "clauses[0].body must be a list, got 'ab'"),
    ([(["clauses", 0, "weight"], 1.0)], "clauses[0].weight is an unknown key; known: body, head"),
    ([(["clauses", 0, "body"], DELETE)], "clauses[0].body is missing"),
    ([(["extra"], 1)], "extra is an unknown key; known: atoms, clauses"),
    ([(["clauses"], DELETE)], "clauses is missing"),
    (Raw('"head": "n1"', '"head": "n0", "head": "n1"'), "head is a repeated key"),
    (TRUNCATED, "Expecting ',' delimiter: line"),
]
BAD_TEMPLATES = [
    ([([0, "params"], "1")], "[0].params must be a list, got '1'"),
    ([([0, "params"], [True])], "[0].params[0] must be a number, got True"),
    ([([0, "weight"], "2")], "[0].weight must be a number, got '2'"),
    ([([0, "name"], 5)], "[0].name must be a string, got 5"),
    ([([0, "tau"], 2.0)], "[0].tau is an unknown key; known: name, kind, params, weight"),
    ([([0, "params"], DELETE)], "[0].params is missing"),
    (Raw('"params": [2.0]', '"params": [2.0], "params": [1.0]'), "params is a repeated key"),
    (TRUNCATED, "Expecting ',' delimiter: line"),
]
BAD_CONFIGS = [
    ([(["epochs"], "3")], "epochs must be an integer, got '3'"),
    ([(["examples"], "1")], "examples must be an integer, got '1'"),
    ([(["clip_norm"], True)], "clip_norm must be a number or null, got True"),
    ([(["order"], True)], "order must be an integer, got True"),
    ([(["order"], 4.0)], "order must be an integer, got 4.0"),
    ([(["seed"], "7")], "seed must be an integer, got '7'"),
    ([(["learning_rate"], "0.1")], "learning_rate must be a number, got '0.1'"),
    ([(["learning_rate"], 10 ** 400)], "int too large to convert to float"),
    ([(["penalties"], {"proof": True})], "penalties.proof must be a number, got True"),
    ([(["penalties"], [])], "penalties must be an object, got []"),
    ([(["curriculum"], [[0, 2.5]])], "curriculum[0][1] must be an integer, got 2.5"),
    ([(["allowed_bands"], [True])], "allowed_bands[0] must be an integer, got True"),
    ([(["teacher"], {"kind": "diffusion", "params": "1"})],
     "teacher.params must be a list, got '1'"),
    ([(["teacher"], {"kind": 5})], "teacher.kind must be a string, got 5"),
    (Raw('"epochs": 3', '"epochs": 300, "epochs": 3'), "epochs is a repeated key"),
    (TRUNCATED, "Expecting ',' delimiter: line"),
]


def bad_cases(cases):
    return [pytest.param(steps, message, id="truncated" if steps is TRUNCATED else message)
            for steps, message in cases]


@pytest.fixture
def inputs(workdir):
    """One accepted file of each JSON input, by the name its refusals give."""
    assert run("fit", "--graph", "p2.txt", "--response", "identity", "--order", "2",
               "--out-dir", "fit") == 0
    assert run("gen", "--kind", "chain", "--depth", "3", "--out-dir", "gen") == 0
    (workdir / "rules.json").write_text(json.dumps(
        {"atoms": ["n0", "n1"], "clauses": [{"body": ["n0"], "head": "n1"}]}))
    (workdir / "t.json").write_text(json.dumps(
        [{"name": "a", "kind": "diffusion", "params": [2.0]}]))
    (workdir / "train.json").write_text(json.dumps({"order": 4, "epochs": 3}))
    return {"task.json": "gen/task.json", "filter.json": "fit/filter.json",
            "rules.json": "rules.json", "t.json": "t.json", "train.json": "train.json"}


class TestStrictJson:
    """Every JSON input is read one way: a wrong type, a missing, unknown or repeated key
    or a syntax error exits 1 naming the file and the key path, and leaves no --out-dir."""

    def refuse(self, workdir, capsys, inputs, name, steps, message, *argv):
        source = workdir / inputs[name]
        if steps is TRUNCATED:
            text = source.read_text().rstrip()[:-1]
        elif type(steps) is Raw:  # a repeated key, which no dict can hold
            text = source.read_text().replace(*steps, 1)
        else:
            text = edited(source, *steps)
        assert text != source.read_text()
        # the unedited input is accepted, so the refusal below is the edit's
        (workdir / name).write_text(source.read_text())
        assert run(*argv, "--out-dir", "good") == 0
        (workdir / name).write_text(text)
        capsys.readouterr()
        assert run(*argv, "--out-dir", "out") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name}: {message}"), err
        assert err.count("\n") == 1
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("steps, message", bad_cases(BAD_TASKS))
    def test_task(self, workdir, capsys, inputs, steps, message):
        self.refuse(workdir, capsys, inputs, "task.json", steps, message,
                    "eval", "--tasks", "task.json", "--response", "identity",
                    "--latency-runs", "1")

    @pytest.mark.parametrize("steps, message", bad_cases(BAD_FILTERS))
    def test_filter(self, workdir, capsys, inputs, steps, message):
        self.refuse(workdir, capsys, inputs, "filter.json", steps, message,
                    "infer", "--graph", "p2.txt", "--filter", "filter.json",
                    "--beliefs", "beliefs.txt")

    @pytest.mark.parametrize("steps, message", bad_cases(BAD_RULEBASES))
    def test_rulebase(self, workdir, capsys, inputs, steps, message):
        self.refuse(workdir, capsys, inputs, "rules.json", steps, message,
                    "infer", "--graph", "p2.txt", "--filter", "fit/filter.json",
                    "--beliefs", "beliefs.txt", "--rulebase", "rules.json")

    @pytest.mark.parametrize("steps, message", bad_cases(BAD_TEMPLATES))
    def test_templates(self, workdir, capsys, inputs, steps, message):
        self.refuse(workdir, capsys, inputs, "t.json", steps, message,
                    "eval", "--tasks", "gen/task.json", "--rules", "t.json", "--latency-runs", "1")

    @pytest.mark.parametrize("steps, message", bad_cases(BAD_CONFIGS))
    def test_train_config(self, workdir, capsys, inputs, steps, message):
        self.refuse(workdir, capsys, inputs, "train.json", steps, message,
                    "train", "--graph", "p2.txt", "--config", "train.json")


@pytest.mark.parametrize("argv", [
    ["fit", "--graph", "missing.txt", "--response", "identity"],
    ["infer", "--graph", "p2.txt", "--filter", "bad.json", "--beliefs", "beliefs.txt"],
    ["eval", "--tasks", "bad.json", "--response", "identity"],
    ["attribute", "--graph", "p2.txt", "--beliefs", "beliefs.txt", "--model-filter", "bad.json"],
    ["perturb", "--graph", "p2.txt", "--beliefs", "bad.txt"],
    ["transfer", "--source-graph", "p2.txt", "--source-beliefs", "beliefs.txt",
     "--target-graph", "p2.txt", "--target-beliefs", "bad.txt"],
    ["gen", "--kind", "community", "--n", "9"],
    ["bench", "--runs", "2"],
], ids=lambda argv: argv[0])
def test_refused_run_leaves_no_out_dir(workdir, argv):
    # --out-dir is made only once every input is read and checked
    (workdir / "bad.json").write_text("{")
    (workdir / "bad.txt").write_text("1.0\nx\n")
    assert run(*argv, "--out-dir", "out") == 1
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("argv", [
    ["fit", "--graph", "p2.txt", "--response", "identity", "--order", "2"],
    ["infer", "--graph", "p2.txt", "--filter", "fit/filter.json", "--beliefs", "beliefs.txt",
     "--rulebase", "rules.json"],
    ["train", "--graph", "p2.txt", "--config", "train.json"],
    ["gen", "--kind", "chain", "--depth", "3"],
    ["eval", "--tasks", "gen/task.json", "--rules", "t.json", "--latency-runs", "1"],
    ["attribute", "--graph", "p2.txt", "--beliefs", "beliefs.txt", "--response", "identity"],
    ["perturb", "--graph", "p2.txt", "--beliefs", "beliefs.txt", "--band", "0"],
    ["transfer", "--source-graph", "p2.txt", "--source-beliefs", "beliefs.txt",
     "--target-graph", "p2.txt", "--target-beliefs", "beliefs.txt"],
    ["bench", "--base-edges", "100", "--doublings", "1", "--runs", "3"],
], ids=lambda argv: argv[0])
def test_every_output_is_replaced_whole(workdir, inputs, monkeypatch, argv):
    # a reader of --out-dir never meets a half-written file: each arrives by os.replace
    # of a .tmp sibling written first
    replaced = []
    real_replace = os.replace

    def recorded(src, dst):
        replaced.append((Path(src).resolve(), Path(dst).resolve()))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", recorded)
    assert run(*argv, "--out-dir", "out") == 0
    out = (workdir / "out").resolve()
    files = sorted(out.iterdir())
    assert "manifest.json" in [path.name for path in files]
    assert sorted(replaced) == sorted((path.with_name(path.name + ".tmp"), path)
                                      for path in files)
    assert list(workdir.rglob("*.tmp")) == []


def test_manifest_records_an_input_as_it_was_read(workdir):
    # perturb reads out/perturbed.txt and then replaces it
    (workdir / "out").mkdir()
    (workdir / "out" / "perturbed.txt").write_text("1.0\n0.0\n")
    assert run("perturb", "--graph", "p2.txt", "--beliefs", "out/perturbed.txt", "--band", "0",
               "--out-dir", "out") == 0
    assert (workdir / "out" / "perturbed.txt").read_text() != "1.0\n0.0\n"
    manifest = json.loads((workdir / "out" / "manifest.json").read_text())
    assert manifest["inputs"]["out/perturbed.txt"] == hashlib.sha256(b"1.0\n0.0\n").hexdigest()


def failing_operator_write(file, *args):
    file.write(b"PK")
    raise OSError("no space left for operator.npz")


@pytest.mark.parametrize("failure", ["rename", "write"])
def test_a_failed_write_leaves_no_tmp(workdir, monkeypatch, capsys, failure):
    if failure == "rename":
        (workdir / "fitout" / "filter.json").mkdir(parents=True)
    else:
        monkeypatch.setattr(cli, "_write_operator", failing_operator_write)
    assert run("fit", "--graph", "p2.txt", "--response", "identity", "--order", "2",
               "--out-dir", "fitout") == 1
    err = capsys.readouterr().err
    assert ("Is a directory" if failure == "rename" else "no space left") in err
    assert list(workdir.rglob("*.tmp")) == []


class TestArgErrors:
    def test_unknown_command_exits_two(self, workdir):
        with pytest.raises(SystemExit) as exc:
            run("warp")
        assert exc.value.code == 2

    def test_no_command_is_an_error(self, workdir):
        with pytest.raises(SystemExit):
            run()

    @pytest.mark.parametrize("sources", [
        ["--model-filter", "fit/filter.json", "--rules", "t.json"],
        ["--model-filter", "fit/filter.json", "--response", "highpass"],
        ["--rules", "t.json", "--response", "highpass"],
    ], ids=["filter-rules", "filter-response", "rules-response"])
    @pytest.mark.parametrize("command", [
        ["eval", "--tasks", "gen/task.json", "--latency-runs", "1"],
        ["attribute", "--graph", "p2.txt", "--beliefs", "beliefs.txt"],
    ], ids=lambda argv: argv[0])
    def test_two_model_sources_exit_two(self, workdir, inputs, capsys, command, sources):
        # one model source per run: a run scores one model, so a second source is refused
        with pytest.raises(SystemExit) as exc:
            run(*command, *sources, "--out-dir", "out")
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("command", [
        ["fit", "--graph", "p2.txt", "--response", "identity"],
        ["infer", "--graph", "p2.txt", "--filter", "f.json", "--beliefs", "beliefs.txt"],
        ["train", "--graph", "p2.txt", "--config", "train.json"],
    ], ids=lambda argv: argv[0])
    def test_seed_is_not_an_option_of_the_bounded_commands(self, workdir, capsys, command):
        # lambda_max belongs to the operator: nothing seeds its estimate
        with pytest.raises(SystemExit) as exc:
            run(*command, "--seed", "3", "--out-dir", "out")
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
        assert not (workdir / "out").exists()


def test_attribute_and_perturb_do_not_bound_lambda_max(workdir, monkeypatch):
    calls = []
    monkeypatch.setattr(cli.gr, "estimate_lambda_max", lambda *a, **k: calls.append(a))
    assert run("attribute", "--graph", "p2.txt", "--beliefs", "beliefs.txt",
               "--response", "diffusion", "--tau", "1", "--out-dir", "attr") == 0
    assert run("perturb", "--graph", "p2.txt", "--beliefs", "beliefs.txt", "--band", "0",
               "--magnitude", "0.5", "--out-dir", "pert") == 0
    assert calls == []


@pytest.mark.parametrize("graph, beliefs, argv, column", [
    ("2 1\n0 1 1e300\n", "1\n0\n",
     ["attribute", "--response", "polynomial", "--coeffs", "1,0.5"], "band0_energy"),
    ("2 1\n0 1 1\n", "1e200\n-1e200\n", ["attribute", "--response", "diffusion"],
     "band0_energy"),
    ("2 1\n0 1 1\n", "1e200\n-1e200\n", ["perturb", "--band", "2", "--magnitude", "0.5"],
     "clean_energy"),
], ids=["attribute polynomial", "attribute diffusion", "perturb"])
def test_an_energy_past_the_float_range_is_refused(workdir, capsys, graph, beliefs, argv,
                                                   column):
    # a band energy past the float range would be written as inf: the writer refuses it
    (workdir / "g.txt").write_text(graph)
    (workdir / "x.txt").write_text(beliefs)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run(*argv, "--graph", "g.txt", "--beliefs", "x.txt", "--out-dir", "out")
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: {column} is inf, past the float range\n"
    assert not (workdir / "out").exists()


def test_perturb_with_weights_near_the_float_range(workdir, capsys):
    # the symmetrized dense matrix once overflowed to inf here and the partition failed
    (workdir / "huge.txt").write_text("4 3\n0 1 5e307\n1 2 5e307\n2 3 5e307\n")
    (workdir / "four.txt").write_text("1\n-2\n0.5\n3\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run("perturb", "--graph", "huge.txt", "--beliefs", "four.txt", "--band", "0",
                   "--out-dir", "out") == 0
    assert capsys.readouterr().err == ""
    rows = list(csv.DictReader(open(workdir / "out" / "perturb.csv")))
    assert [row["band"] for row in rows] == ["0", "1", "2"]
    # the noise lands in band 0 only
    assert [row["clean_energy"] == row["perturbed_energy"] for row in rows] == [False, True, True]


NEAR_THE_FLOAT_RANGE = {
    "1e300": ("4 3\n0 1 1e300\n1 2 1e300\n2 3 1e300\n", ()),
    "5e307": ("2 1\n0 1 5e307\n", ()),
    "mixed": ("4 3\n0 1 1e-300\n1 2 1e300\n2 3 1e-300\n", ()),
    "signed-1e300": ("4 3\n0 1 1e300\n1 2 -1e300\n2 3 1e300\n",
                     ("--graph-kind", "signed", "--variant", "signed")),
}


@pytest.mark.parametrize("graph", NEAR_THE_FLOAT_RANGE)
@pytest.mark.parametrize("response", [("gaussian_bandpass",), ("diffusion", "--tau", "2")])
@pytest.mark.parametrize("command", ["fit", "attribute"])
def test_responses_near_the_float_range_raise_no_warning(workdir, capsys, graph, response,
                                                         command):
    # (lam - center) ** 2 and tau * lam once overflowed here, though the values are finite
    text, graph_args = NEAR_THE_FLOAT_RANGE[graph]
    (workdir / "g.txt").write_text(text)
    (workdir / "x.txt").write_text("".join(f"{(-2) ** k}\n" for k in range(int(text[0]))))
    args = (["--order", "8"] if command == "fit" else ["--beliefs", "x.txt"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(command, "--graph", "g.txt", *graph_args, "--response", *response, *args,
                   "--out-dir", "out") == 0
    assert capsys.readouterr().err == ""


def test_transfer_reads_a_signed_graph(workdir, capsys):
    (workdir / "signed.txt").write_text("3 2\n0 1 1\n1 2 -2\n")
    (workdir / "three.txt").write_text("1\n0\n-1\n")
    argv = ["transfer", "--source-graph", "signed.txt", "--source-beliefs", "three.txt",
            "--target-graph", "signed.txt", "--target-beliefs", "three.txt",
            "--variant", "signed"]
    assert run(*argv, "--out-dir", "unsigned") == 1
    assert capsys.readouterr().err == ("error: signed.txt: line 3: negative weight on edge "
                                       "(1, 2) in an unsigned graph\n")
    assert not (workdir / "unsigned").exists()
    assert run(*argv, "--graph-kind", "signed", "--out-dir", "out") == 0
    assert capsys.readouterr().err == ""
    assert (workdir / "out" / "transfer.csv").read_text() == "points,profile_loss\n64,0\n"


@pytest.mark.parametrize("shape", AWKWARD)
def test_awkward_inputs_finish_or_refuse_in_one_line(workdir, capsys, shape):
    # every command on every shape, variant and response, with beliefs of moderate size and
    # beliefs of +-1e200, either finishes with an empty stderr or exits 1 with one error:
    # line and leaves no --out-dir; a NumPy warning is an error here. Infer runs served
    # from operator.npz, then parsed from the text
    for argv in awkward_runs(write_inputs(workdir, shape)):
        unserve(argv)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(*argv)
        err = capsys.readouterr().err
        out = workdir / argv[-1]
        if code == 0:
            assert err == "", argv
            assert non_finite_numbers(out) == [], argv
        else:
            assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
            assert not out.exists(), argv


def non_finite_numbers(out_dir: Path) -> list[tuple[str, str]]:
    """(file, cell) for each number a run's CSV and txt files hold that is inf or nan."""
    found = []
    for path in sorted(out_dir.iterdir()):
        if path.suffix in (".csv", ".txt"):
            for row in csv.reader(path.read_text().splitlines()):
                for cell in row:
                    try:
                        value = float(cell)
                    except ValueError:  # a header, an atom name or an empty cell
                        continue
                    if not math.isfinite(value):
                        found.append((path.name, cell))
    return found


def test_no_command_loads_a_scipy_module(workdir):
    # NumPy is the only runtime dependency: importing the CLI, each of the nine commands,
    # gen of every kind and infer with a temperature load no scipy module
    (workdir / "train.json").write_text('{"order": 4, "epochs": 3, "examples": 2}')
    commands = {
        "gen chain": ["gen", "--kind", "chain", "--depth", "4", "--seed", "3", "--out-dir", "task"],
        "gen community": ["gen", "--kind", "community", "--n", "20", "--intra-p", "0.5",
                          "--inter-p", "0.05", "--out-dir", "community"],
        "gen contradiction": ["gen", "--kind", "contradiction", "--n", "30", "--base-p", "0.3",
                              "--planted", "3", "--out-dir", "contradiction"],
        "fit": ["fit", "--graph", "p2.txt", "--response", "diffusion", "--tau", "1",
                "--order", "4", "--out-dir", "fit"],
        "infer": ["infer", "--graph", "p2.txt", "--filter", "fit/filter.json",
                  "--beliefs", "beliefs.txt", "--out-dir", "inf"],
        "infer soft": ["infer", "--graph", "p2.txt", "--filter", "fit/filter.json",
                       "--beliefs", "beliefs.txt", "--temperature", "2",
                       "--out-dir", "soft"],
        "train": ["train", "--graph", "p2.txt", "--config", "train.json", "--out-dir", "train"],
        "eval": ["eval", "--tasks", "task/task.json", "--response", "diffusion", "--tau", "2",
                 "--latency-runs", "1", "--perturb-magnitude", "0.5", "--out-dir", "eval"],
        "attribute": ["attribute", "--graph", "p2.txt", "--beliefs", "beliefs.txt",
                      "--response", "diffusion", "--tau", "1", "--out-dir", "attr"],
        "perturb": ["perturb", "--graph", "p2.txt", "--beliefs", "beliefs.txt", "--band", "0",
                    "--magnitude", "0.5", "--out-dir", "pert"],
        "transfer": ["transfer", "--source-graph", "p2.txt", "--source-beliefs", "beliefs.txt",
                     "--target-graph", "p2.txt", "--target-beliefs", "beliefs.txt",
                     "--out-dir", "tr"],
        "bench": ["bench", "--base-edges", "100", "--doublings", "1", "--runs", "3",
                  "--out-dir", "bench"],
    }
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import json, sys\n"
            "from specreason import cli\n"
            "def scipy_modules(): return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "loaded = {'import': scipy_modules()}\n"
            "for step, argv in json.loads(sys.argv[1]).items():\n"
            "    assert cli.main(argv) == 0, argv\n"
            "    loaded[step] = scipy_modules()\n"
            "print(json.dumps(loaded))\n")
    out = subprocess.run([sys.executable, "-c", code, json.dumps(commands)], env=env,
                         cwd=workdir, capture_output=True, text=True, check=True)
    loaded = json.loads(out.stdout.splitlines()[-1])
    every = next(a.choices for a in cli._build_parser()._actions if a.dest == "command")
    assert {argv[0] for argv in commands.values()} == set(every)
    assert loaded == {step: [] for step in ("import", *commands)}


def test_eval_and_bench_load_no_numpy_ma(workdir):
    # their medians once reached numpy.ma through np.median: about 10 ms of import per run
    commands = [["gen", "--kind", "chain", "--depth", "4", "--out-dir", "task"],
                ["eval", "--tasks", "task/task.json", "--response", "diffusion",
                 "--latency-runs", "2", "--out-dir", "eval"],
                ["bench", "--base-edges", "100", "--doublings", "1", "--runs", "4",
                 "--out-dir", "bench"]]
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import json, sys\n"
            "from specreason import cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert cli.main(argv) == 0, argv\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[:2] == "
            "['numpy', 'ma'])))\n")
    out = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                         env=dict(os.environ, PYTHONPATH=src), cwd=workdir,
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == []


GRAPH_COMMANDS = {
    "fit": ["fit", "--graph", "p2.txt", "--response", "diffusion", "--order", "4"],
    "train": ["train", "--graph", "p2.txt", "--config", "train.json"],
    "infer served": ["infer", "--graph", "p2.txt", "--filter", "fit/filter.json",
                     "--beliefs", "beliefs.txt"],
    "infer parsed": ["infer", "--graph", "p2.txt", "--filter", "text/filter.json",
                     "--beliefs", "beliefs.txt"],
    "attribute": ["attribute", "--graph", "p2.txt", "--beliefs", "beliefs.txt",
                  "--response", "diffusion"],
    "perturb": ["perturb", "--graph", "p2.txt", "--beliefs", "beliefs.txt", "--band", "0"],
    "transfer": ["transfer", "--source-graph", "p2.txt", "--source-beliefs", "beliefs.txt",
                 "--target-graph", "q2.txt", "--target-beliefs", "beliefs.txt"],
}


@pytest.mark.parametrize("command", GRAPH_COMMANDS)
def test_each_graph_is_read_once(workdir, monkeypatch, command):
    # parsed and hashed from the same bytes: the manifest's digest is that of the graph read
    (workdir / "q2.txt").write_text(P2)
    (workdir / "train.json").write_text('{"order": 4, "epochs": 3, "examples": 2}')
    for out in ("fit", "text"):
        assert run(*GRAPH_COMMANDS["fit"], "--out-dir", out) == 0
    (workdir / "text" / "operator.npz").unlink()
    opened = []
    real_open = io.open

    def counted(file, *args, **kwargs):
        opened.append(os.fspath(file) if isinstance(file, (str, os.PathLike)) else file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counted)
    monkeypatch.setattr(builtins, "open", counted)
    assert run(*GRAPH_COMMANDS[command], "--out-dir", "out") == 0
    graphs = ["p2.txt", "q2.txt"] if command == "transfer" else ["p2.txt"]
    assert [name for name in opened if name in ("p2.txt", "q2.txt")] == graphs
    manifest = json.loads((workdir / "out" / "manifest.json").read_text())
    for name in graphs:
        assert manifest["inputs"][name] == hashlib.sha256(P2.encode()).hexdigest()


STAR = "4 3\n0 1 1\n0 2 1\n0 3 1\n"  # combinatorial lambda_max 4, normalized 2


def counted_estimates(monkeypatch):
    calls = []
    real = cli.gr.estimate_lambda_max

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli.gr, "estimate_lambda_max", counted)
    return calls


def without_bound(filter_path, out_path):
    """The filter as a two-key filter.json, as fit wrote it before the bound record."""
    f = read_filter(filter_path)
    Path(out_path).write_text(replace(f, bound=None).to_json() + "\n")
    return out_path


class TestStoredBound:
    @pytest.fixture
    def star(self, workdir):
        (workdir / "star.txt").write_text(STAR)
        (workdir / "star_beliefs.txt").write_text("1\n0\n0\n-1\n")

    def fit(self, graph="p2.txt", out="fitout"):
        assert run("fit", "--graph", graph, "--response", "diffusion", "--tau", "1",
                   "--order", "8", "--out-dir", out) == 0
        return f"{out}/filter.json"

    def infer(self, graph, filt, beliefs, out, *extra):
        return run("infer", "--graph", graph, "--filter", filt, "--beliefs", beliefs,
                   "--out-dir", out, *extra)

    def test_fit_and_train_write_the_record(self, workdir):
        self.fit()
        (workdir / "train.json").write_text(json.dumps({"order": 4, "epochs": 3, "examples": 2}))
        assert run("train", "--graph", "p2.txt", "--config", "train.json",
                   "--out-dir", "trainout") == 0
        digest = gr.graph_sha256(gr.build_laplacian(gr.load_graph(P2.encode())), "unsigned",
                                 read_filter("fitout/filter.json").lambda_max)
        for path in ("fitout/filter.json", "trainout/filter.json"):
            bound = json.loads((workdir / path).read_text())["bound"]
            assert bound == {"method": "lanczos", "iterations": bound["iterations"],
                             "converged": True, "degenerate": False, "graph_sha256": digest}

    def test_fit_and_train_share_one_bound(self, workdir):
        # the train config's seed draws the example signals alone: on one graph, fit and
        # train store one lambda_max and one fingerprint, which a filter's match test needs
        g = random_gnm(200, 800, seed=4)
        (workdir / "g.txt").write_text(f"{g.node_count} {g.edge_count}\n"
                                       + "".join(f"{i} {j} {w}\n" for i, j, w in g.edges))
        (workdir / "train.json").write_text(json.dumps({"order": 4, "epochs": 3, "seed": 1001}))
        self.fit("g.txt")
        assert run("train", "--graph", "g.txt", "--config", "train.json",
                   "--out-dir", "trainout") == 0
        fitted, trained = (json.loads((workdir / path / "filter.json").read_text())
                           for path in ("fitout", "trainout"))
        assert trained["lambda_max"] == fitted["lambda_max"]
        assert trained["bound"]["graph_sha256"] == fitted["bound"]["graph_sha256"]

    @pytest.mark.parametrize("trained", [False, True])
    def test_matching_record_skips_the_estimate(self, workdir, monkeypatch, trained):
        if trained:
            (workdir / "train.json").write_text(json.dumps({"order": 4, "epochs": 3}))
            assert run("train", "--graph", "p2.txt", "--config", "train.json",
                       "--out-dir", "fitout") == 0
            filt = "fitout/filter.json"
        else:
            filt = self.fit()
        legacy = without_bound(filt, "legacy.json")
        calls = counted_estimates(monkeypatch)
        assert self.infer("p2.txt", filt, "beliefs.txt", "stored") == 0
        assert calls == []
        assert self.infer("p2.txt", legacy, "beliefs.txt", "estimated") == 0
        assert len(calls) == 1
        assert (workdir / "stored" / "predicates.csv").read_bytes() == \
               (workdir / "estimated" / "predicates.csv").read_bytes()

    @pytest.mark.parametrize("case", ["other graph", "other variant"])
    def test_another_operator_is_estimated_and_refused(self, workdir, star, monkeypatch, capsys,
                                                       case):
        filt = self.fit("star.txt")
        calls = counted_estimates(monkeypatch)
        if case == "other graph":
            code = self.infer("p2.txt", filt, "beliefs.txt", "out")
        else:
            code = self.infer("star.txt", filt, "star_beliefs.txt", "out",
                              "--variant", "normalized")
        assert code == 1 and len(calls) == 1
        err = capsys.readouterr().err
        graph = "p2.txt" if case == "other graph" else "star.txt"
        assert err.startswith(f"error: {filt}: on {graph}, filter lambda_max ")
        assert "does not match this graph's estimate" in err and err.count("\n") == 1
        assert not (workdir / "out" / "predicates.csv").exists()

    def test_lambda_max_edited_by_one_ulp_is_estimated(self, workdir, monkeypatch):
        f = read_filter(self.fit())
        edited = replace(f, lambda_max=float(np.nextafter(f.lambda_max, np.inf)))
        (workdir / "edited.json").write_text(edited.to_json() + "\n")
        calls = counted_estimates(monkeypatch)
        # one ulp is inside the tolerance the estimate is compared with, as before
        assert self.infer("p2.txt", "edited.json", "beliefs.txt", "out") == 0
        assert len(calls) == 1

    def test_two_key_filter_still_serves_every_command(self, workdir):
        filt = self.fit()
        legacy = without_bound(filt, "legacy.json")
        assert json.loads((workdir / legacy).read_text()).keys() == {"lambda_max", "theta"}
        # a two-node chain: its spectrum, that of p2.txt, lies inside the filter's interval
        run("gen", "--kind", "chain", "--depth", "1", "--out-dir", "task")
        for name, path in (("new", filt), ("old", legacy)):
            assert self.infer("p2.txt", path, "beliefs.txt", f"infer_{name}") == 0
            assert run("eval", "--tasks", "task/task.json", "--model-filter", path,
                       "--latency-runs", "1", "--out-dir", f"eval_{name}") == 0
            assert run("attribute", "--graph", "p2.txt", "--beliefs", "beliefs.txt",
                       "--model-filter", path, "--out-dir", f"attr_{name}") == 0
        for out, artefact in (("infer", "predicates.csv"), ("attr", "attribution.csv")):
            assert (workdir / f"{out}_new" / artefact).read_bytes() == \
                   (workdir / f"{out}_old" / artefact).read_bytes()
        rows = [next(csv.DictReader((workdir / f"eval_{n}" / "eval.csv").read_text().splitlines()))
                for n in ("new", "old")]
        for row in rows:
            del row["latency_ms"]
        assert rows[0] == rows[1]


PATH_30 = "30 29\n" + "".join(f"{k} {k + 1} 1\n" for k in range(29))
STAR_30 = "30 29\n" + "".join(f"0 {k} 1\n" for k in range(1, 30))


class TestFilterInterval:
    """A fitted filter is a series on [0, lambda_max] and is scored only on spectra inside
    it: past it, T_k grows like (2 z)^k. The path's top eigenvalue is 3.99, the star's 30."""

    @pytest.fixture
    def fitted(self, workdir):
        (workdir / "path.txt").write_text(PATH_30)
        (workdir / "star.txt").write_text(STAR_30)
        (workdir / "signs.txt").write_text("".join(f"{(-1) ** k}\n" for k in range(30)))
        for graph in ("path", "star"):
            assert run("fit", "--graph", f"{graph}.txt", "--response", "diffusion", "--tau", "1",
                       "--order", "16", "--out-dir", f"{graph}-fit") == 0

    def test_attribute_past_the_interval_is_refused(self, workdir, fitted, capsys):
        capsys.readouterr()
        assert run("attribute", "--graph", "star.txt", "--beliefs", "signs.txt",
                   "--model-filter", "path-fit/filter.json", "--out-dir", "out") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: path-fit/filter.json: on star.txt, filter lambda_max 4.02")
        assert "top eigenvalue 30" in err and err.count("\n") == 1
        assert not (workdir / "out").exists()

    def test_eval_past_the_interval_names_the_task(self, workdir, fitted, capsys):
        assert run("gen", "--kind", "chain", "--depth", "29", "--out-dir", "chain") == 0
        assert run("gen", "--kind", "community", "--n", "200", "--seed", "1",
                   "--out-dir", "community") == 0
        capsys.readouterr()
        assert run("eval", "--tasks", "chain/task.json", "community/task.json",
                   "--model-filter", "path-fit/filter.json", "--out-dir", "out") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: community/task.json: filter lambda_max 4.02")
        assert err.count("\n") == 1
        assert not (workdir / "out").exists()

    def test_a_filter_inside_its_interval_is_scored_as_before(self, workdir, fitted):
        # the star's filter on the path: digests taken before the check was made
        assert run("gen", "--kind", "chain", "--depth", "29", "--out-dir", "chain") == 0
        assert run("attribute", "--graph", "path.txt", "--beliefs", "signs.txt",
                   "--model-filter", "star-fit/filter.json", "--out-dir", "attr") == 0
        assert run("eval", "--tasks", "chain/task.json", "--model-filter", "star-fit/filter.json",
                   "--perturb-magnitude", "0.5", "--latency-runs", "1", "--out-dir", "eval") == 0
        rows = list(csv.reader((workdir / "eval" / "eval.csv").read_text().splitlines()))
        k = rows[0].index("latency_ms")
        scored = "\n".join(",".join(c for i, c in enumerate(row) if i != k) for row in rows)
        assert [hashlib.sha256(text.encode()).hexdigest()[:16] for text in (
            (workdir / "attr" / "attribution.csv").read_text(), scored)] == ["7f27805e62f596ed", "4590d6c21b280a32"]


RING = "6 7\n0 1 1\n1 2 2\n2 3 1\n3 4 0.5\n4 5 1\n5 0 1\n0 3 1.5\n"


def counted_graph_calls(monkeypatch, *names):
    """Count the calls cli makes to the named graph functions."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _real=getattr(cli.gr, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(cli.gr, name, counted)
    return calls


class TestCompiledOperator:
    @pytest.fixture
    def fitted(self, workdir):
        (workdir / "ring.txt").write_text(RING)
        (workdir / "ring_beliefs.txt").write_text("1\n0\n-1\n0.5\n0\n2\n")
        assert run("fit", "--graph", "ring.txt", "--response", "diffusion", "--tau", "1",
                   "--order", "8", "--out-dir", "fit") == 0
        return workdir / "fit" / "operator.npz"

    @staticmethod
    def infer(capsys, filt, out, *extra):
        """Exit code, stdout, stderr and every output file's bytes of one infer (None when
        it made no --out-dir)."""
        code = run("infer", "--graph", "ring.txt", "--filter", filt,
                   "--beliefs", "ring_beliefs.txt", "--out-dir", out, *extra)
        captured = capsys.readouterr()
        files = ({p.name: p.read_bytes() for p in sorted(Path(out).iterdir())}
                 if Path(out).exists() else None)
        return code, captured.out, captured.err, files

    def test_fit_and_train_store_the_operator(self, workdir, fitted):
        (workdir / "train.json").write_text(json.dumps({"order": 4, "epochs": 3, "examples": 2}))
        assert run("train", "--graph", "ring.txt", "--config", "train.json",
                   "--out-dir", "train") == 0
        layout = gr.layout_arrays(gr.build_laplacian(gr.load_graph(Path("ring.txt").read_bytes())))
        source = hashlib.sha256((workdir / "ring.txt").read_bytes()).hexdigest()
        for out in ("fit", "train"):
            with np.load(workdir / out / "operator.npz", allow_pickle=False) as npz:
                assert sorted(npz.files) == sorted([*layout, "source_sha256"])
                for name, built in layout.items():
                    stored = npz[name]
                    assert stored.dtype == built.dtype and stored.tobytes() == built.tobytes()
                assert str(npz["source_sha256"]) == source
            manifest = json.loads((workdir / out / "manifest.json").read_text())
            assert manifest["inputs"]["ring.txt"] == source
        # one operator, one file: no timestamp or other run-dependent byte
        assert (workdir / "train" / "operator.npz").read_bytes() == fitted.read_bytes()

    def test_a_match_serves_without_parse_assembly_or_estimate(self, fitted, monkeypatch,
                                                               capsys):
        calls = counted_graph_calls(monkeypatch, "load_graph", "build_laplacian",
                                    "estimate_lambda_max")
        served = self.infer(capsys, "fit/filter.json", "served")
        assert calls == {"load_graph": 0, "build_laplacian": 0, "estimate_lambda_max": 0}
        assert served[0] == 0 and "predicates.csv" in served[3]
        fitted.unlink()
        assert self.infer(capsys, "fit/filter.json", "text") == served
        assert calls == {"load_graph": 1, "build_laplacian": 1, "estimate_lambda_max": 0}

    @pytest.mark.parametrize("case", [
        "edited graph", "other variant", "other graph kind", "truncated file",
        "data permuted", "data swapped in the file", "filter without bound", "no file"])
    def test_anything_else_takes_the_text_path(self, workdir, fitted, monkeypatch, capsys,
                                               case):
        filt, extra = "fit/filter.json", ()
        if case == "edited graph":
            (workdir / "ring.txt").write_text(RING.replace("3 4 0.5", "3 4 0.75"))
        elif case == "other variant":  # the same arrays as combinatorial on this graph
            extra = ("--variant", "signed")
        elif case == "other graph kind":
            extra = ("--graph-kind", "signed")
        elif case == "truncated file":
            fitted.write_bytes(fitted.read_bytes()[: fitted.stat().st_size // 2])
        elif case == "data permuted":  # a well-formed file: only the fingerprint tells
            with np.load(fitted, allow_pickle=False) as npz:
                arrays = dict(npz)
            arrays["data"] = arrays["data"][::-1]
            np.savez(fitted, **arrays)
        elif case == "data swapped in the file":
            raw = bytearray(fitted.read_bytes())
            lap = gr.build_laplacian(gr.load_graph(Path("ring.txt").read_bytes()))
            at = raw.find(gr.layout_arrays(lap)["data"].tobytes())
            raw[at:at + 16] = raw[at + 8:at + 16] + raw[at:at + 8]
            fitted.write_bytes(bytes(raw))
        elif case == "filter without bound":
            filt = without_bound(filt, "fit/legacy.json")
        else:
            fitted.unlink()
        calls = counted_graph_calls(monkeypatch, "load_graph")
        served = self.infer(capsys, filt, "served", *extra)
        assert calls["load_graph"] == 1
        fitted.unlink(missing_ok=True)
        assert self.infer(capsys, filt, "text", *extra) == served

    def test_an_older_csr_file_takes_the_text_path(self, workdir, fitted, monkeypatch, capsys):
        # operator.npz and graph_sha256 as fit wrote them when the file held CSR arrays
        served = self.infer(capsys, "fit/filter.json", "served")
        # the Laplacian's canonical CSR arrays, read off its dense form in row-major order
        dense = gr.build_laplacian(gr.load_graph(Path("ring.txt").read_bytes())).toarray()
        rows, indices = np.nonzero(dense)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=len(dense)))])
        data = dense[rows, indices]
        f = read_filter("fit/filter.json")
        head = (f"{len(dense)} {indices.size} unsigned combinatorial "
                f"{gr.float_text(f.lambda_max)}\n")
        digest = hashlib.sha256(head.encode("ascii"))
        for values, dtype in ((indptr, "<i8"), (indices, "<i8"), (data, "<f8")):
            digest.update(np.ascontiguousarray(values, dtype=dtype).data)
        Path("old").mkdir()
        Path("old/filter.json").write_text(replace(f, graph_sha256=digest.hexdigest()).to_json()
                                           + "\n")
        source = hashlib.sha256(Path("ring.txt").read_bytes()).hexdigest()
        np.savez("old/operator.npz", indptr=indptr, indices=indices, data=data,
                 source_sha256=np.array(source))
        calls = counted_graph_calls(monkeypatch, "load_graph", "build_laplacian",
                                    "estimate_lambda_max")
        old = self.infer(capsys, "old/filter.json", "text")
        assert calls == {"load_graph": 1, "build_laplacian": 1, "estimate_lambda_max": 1}
        # the same bytes, but for the manifest, which records the other filter's digest
        assert old[:3] == served[:3] and old[3].keys() == served[3].keys()
        assert all(old[3][name] == served[3][name] for name in old[3] if name != "manifest.json")

    @pytest.mark.parametrize("case", ["isolated nodes", "hub past the last level",
                                      "diagonal scaled to zero", "scaled entries underflow"])
    def test_compiled_and_parsed_agree_past_the_levels(self, workdir, monkeypatch, capsys,
                                                       case):
        # at least 1,024 rows, so that products sum by levels; nodes 1026 .. 1029 (or
        # 2100 .. 2103) are isolated, and the 1,030-node graph runs the band line
        size = 1026 if case == "isolated nodes" else 2100
        g = random_gnm(size, 4 * size, seed=3)
        rows, cols = g.rows.tolist(), g.cols.tolist()
        weights = np.random.default_rng(4).uniform(0.5, 2.0, g.edge_count).tolist()
        if case == "hub past the last level":  # node 2100 joins the first 1,500 nodes
            rows, cols = rows + list(range(1500)), cols + [2100] * 1500
            weights += [1.0 / (1 + k) for k in range(1500)]
        elif case == "diagonal scaled to zero":
            weights = [1.0] * g.edge_count
        elif case == "scaled entries underflow":  # 2 / lambda_max times 1e-300 is 0.0
            weights = [(1e300, 1e-300)[k % 2] for k in range(g.edge_count)]
        n = size + 4
        Path("g.txt").write_text(f"{n} {len(rows)}\n" + "".join(
            f"{i} {j} {w!r}\n" for i, j, w in zip(rows, cols, weights)))
        Path("x.txt").write_text("".join(f"{v!r}\n" for v in np.random.default_rng(5)
                                         .standard_normal(n).tolist()))
        assert run("fit", "--graph", "g.txt", "--response", "diffusion", "--order", "12",
                   "--out-dir", "fit") == 0
        capsys.readouterr()
        lap = gr.build_laplacian(gr.load_graph(Path("g.txt").read_bytes()))
        f = read_filter("fit/filter.json")
        if case == "diagonal scaled to zero":  # a bound 2 d at which c d - 1.0 is 0.0
            degrees = lap.toarray().diagonal()[:size]
            d = float(degrees[(2.0 / (2.0 * degrees)) * degrees == 1.0][0])
            f = replace(f, lambda_max=2.0 * d,
                        graph_sha256=gr.graph_sha256(lap, "unsigned", 2.0 * d))
            Path("fit/filter.json").write_text(f.to_json() + "\n")
        layout = gr.scale_laplacian(lap, f.lambda_max)._levels
        if case == "hub past the last level":
            assert lap._levels.diagonal[2100] >= lap._levels.widths.sum()
        elif case == "diagonal scaled to zero":
            assert np.any(layout.data[layout.diagonal] == 0.0)
        elif case == "scaled entries underflow":
            assert np.sum(layout.data == 0.0) > np.sum(layout.data[layout.diagonal] == 0.0)
        assert lap._levels.widths.size and lap._levels.wide.size
        calls = counted_graph_calls(monkeypatch, "load_graph")
        outputs = []
        for out in ("served", "text"):
            assert run("infer", "--graph", "g.txt", "--filter", "fit/filter.json",
                       "--beliefs", "x.txt", "--temperature", "2", "--out-dir", out) == 0
            outputs.append((capsys.readouterr(), {path.name: path.read_bytes()
                                                  for path in Path(out).iterdir()}))
            assert calls["load_graph"] == (out == "text")
            Path("fit/operator.npz").unlink(missing_ok=True)
        assert outputs[0] == outputs[1] and outputs[0][0].err == ""

    def test_a_bad_graph_is_reported_before_a_bad_filter(self, fitted, capsys):
        Path("ring.txt").write_text("6 1\n0 9 1\n")
        Path("fit/filter.json").write_text("{}")
        code, _, err, _ = self.infer(capsys, "fit/filter.json", "out")
        assert code == 1 and err == ("error: ring.txt: line 2: edge (0, 9) out of range "
                                     "for 6 nodes\n")


def line_loop_beliefs(path):
    """The belief reader as it was before the single loadtxt pass."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                value = float(line)
            except ValueError:
                raise ValueError(f"{path}: line {no}: expected one float, got {line!r}") from None
            if not math.isfinite(value):
                raise ValueError(f"{path}: line {no}: belief {line!r} is not finite")
            values.append(value)
    if not values:
        raise ValueError(f"{path}: no belief values found")
    return np.asarray(values, dtype=float)


def read_beliefs(path):
    """The belief file at path, parsed from its bytes and named as cli reads it."""
    return cli._read_input(path, {}, gr.load_beliefs)


def outcome(read, path):
    try:
        return "ok", read(path).tobytes()
    except ValueError as exc:
        return "error", str(exc)


def seeded_belief_text(rng, lines):
    forms = (repr, "{:e}".format, "{:.3E}".format, "{:+.6g}".format, "{:.0f}".format)
    out = []
    for _ in range(lines):
        pick = rng.integers(12)
        if pick == 0:
            body = rng.choice(["", "   ", "\t", "# a comment", "  #indented 1.0"])
        elif pick == 1:
            body = rng.choice(["-0.0", "+0", "0", ".5", "5.", "1e5", "-1E-5", "+2.5e+3"])
        else:
            value = rng.standard_normal() * 10.0 ** int(rng.integers(-300, 300))
            body = forms[int(rng.integers(len(forms)))](value)
        pad = rng.choice(["", " ", "\t", "  "], size=2)
        out.append(f"{pad[0]}{body}{pad[1]}" + rng.choice(["\n", "\r\n"]))
    return "".join(out)


class TestBeliefParse:
    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_files_match_the_line_loop(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        path = tmp_path / "x.txt"
        path.write_bytes(seeded_belief_text(rng, int(rng.integers(1, 400))).encode())
        expected = outcome(line_loop_beliefs, path)
        assert expected[0] == "ok"
        # the single pass reads it, not the line-by-line fallback
        assert gr._loadtxt_ascii(path.read_text(encoding="utf-8"), ndmin=2, dtype=float) is not None
        assert outcome(read_beliefs, path) == expected

    @pytest.mark.parametrize("text", [
        "42", "  -0.0", "-0.0\r\n", "# lead\n\n3.5\n# tail", "1\r\n2\r\n\r\n",
        "1\n\x0c\n2\n", "1\n\x1c2\x1d\n", "1\n\u2003 2\n", "\u0661\n", "1\n2\x00\n",
        "1\n0x10\n", "1\nInfinity\n", "1\n-inf\n", "1\nnan\n", "1;2\n", "1\n1.0 # c\n",
        "", "\n\n", "# only\n",
    ])
    def test_awkward_lines_match_the_line_loop(self, tmp_path, text):
        path = tmp_path / "x.txt"
        path.write_bytes(text.encode())
        assert outcome(read_beliefs, path) == outcome(line_loop_beliefs, path)

    @pytest.mark.parametrize("text, expected", [
        ("1\ninf\n", "line 2: belief 'inf' is not finite"),
        ("1\n1 2\n", "line 2: expected one float, got '1 2'"),
        ("1 2\n3 4\n", "line 1: expected one float, got '1 2'"),
        ("1 2\n", "line 1: expected one float, got '1 2'"),
    ])
    def test_bad_lines_named(self, tmp_path, text, expected):
        path = tmp_path / "x.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=expected):
            read_beliefs(path)

    def test_underscore_parses_as_float_does(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("1\n1_0\n")
        assert read_beliefs(path).tolist() == [1.0, float("1_0")]


def row_by_row_predicates(y, predicates):
    """predicates.csv as it was formatted before the single %-format."""
    lines = ["node,belief,soft,hard"]
    for i, value in enumerate(y):
        soft = format(float(predicates.soft[i]), ".17g") if predicates.soft is not None else ""
        lines.append(f"{i},{format(float(value), '.17g')},{soft},{int(predicates.hard[i])}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("y", [
    np.array([0.5]), np.array([-0.0]),
    np.array([-0.0, 0.0, 1e-310, 1e300, -3.0, 1 / 3, 0.1, -2.5e-7]),
    np.random.default_rng(5).standard_normal(300) * 10.0 ** np.arange(-150, 150),
])
# any temperature forms the soft column; the ids keep the names these cases have always had
@pytest.mark.parametrize("temperature", [None, 2.5, 0.5], ids=["hard-None", "soft-2.5", "hard-0.5"])
def test_predicates_text_matches_row_by_row(y, temperature):
    predicates = cli.rl.project_predicates(y, threshold=0.0, temperature=temperature)
    assert cli._predicates_text(y, predicates) == row_by_row_predicates(y, predicates)


def options_read(argv) -> set[str]:
    """The Namespace attributes the command argv reads once parsing is done."""
    reads, parsed = set(), []

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            if parsed:
                reads.add(name)
            return super().__getattribute__(name)

    args = cli._build_parser().parse_args(argv, namespace=Recording())
    parsed.append(True)
    args.func(args)
    return reads


RESPONSES = [["--response", "diffusion"], ["--response", "highpass"],
             ["--response", "gaussian_bandpass"], ["--response", "identity"],
             ["--response", "polynomial", "--coeffs", "1,0.5"]]
MODELS = RESPONSES + [["--model-filter", "fit/filter.json"], ["--rules", "t.json"]]
BELIEFS = ["--beliefs", "beliefs.txt"]
VARIANTS = {
    "fit": [["--graph", "p2.txt", *response] for response in RESPONSES],
    "infer": [["--graph", "p2.txt", "--filter", "fit/filter.json", *BELIEFS]],
    "train": [["--graph", "p2.txt", "--config", "train.json"]],
    "gen": [["--kind", "community", "--n", "20", "--intra-p", "0.5", "--inter-p", "0.05"],
            ["--kind", "contradiction", "--n", "30", "--base-p", "0.3", "--planted", "3"],
            ["--kind", "chain", "--depth", "3"]],
    # a filter is scored only on spectra inside its interval: the star's covers the chain's
    "eval": [["--tasks", "gen/task.json", "--latency-runs", "1", "--perturb-magnitude", "0.5",
              *model] for model in RESPONSES + [["--model-filter", "star/filter.json"],
                                                ["--rules", "t.json"]]],
    "attribute": [["--graph", "p2.txt", *BELIEFS, *model] for model in MODELS],
    "perturb": [["--graph", "p2.txt", *BELIEFS, "--band", "0"]],
    "transfer": [["--source-graph", "p2.txt", "--source-beliefs", "beliefs.txt",
                  "--target-graph", "p2.txt", "--target-beliefs", "beliefs.txt"]],
    "bench": [["--base-edges", "100", "--doublings", "1", "--runs", "3"]],
}


PIPED = {  # each input option, in a command that reads it
    "--graph": ["fit", "--graph", "p2.txt", "--response", "identity", "--order", "2"],
    "--beliefs": ["infer", "--graph", "p2.txt", "--filter", "fit/filter.json", *BELIEFS],
    "--filter": ["infer", "--graph", "p2.txt", "--filter", "fit/filter.json", *BELIEFS],
    "--rulebase": ["infer", "--graph", "p2.txt", "--filter", "fit/filter.json", *BELIEFS,
                   "--rulebase", "rules.json"],
    "--rules": ["eval", "--tasks", "gen/task.json", "--rules", "t.json", "--latency-runs", "1"],
    "--model-filter": ["eval", "--tasks", "gen/task.json", "--model-filter", "star/filter.json",
                       "--latency-runs", "1"],
    "--tasks": ["eval", "--tasks", "gen/task.json", "--response", "identity",
                "--latency-runs", "1"],
    "--config": ["train", "--graph", "p2.txt", "--config", "train.json"],
}


@pytest.fixture
def pipe():
    """pipe(data): the /dev/fd path of a pipe that holds data, its write end closed, so a
    first read gets data and any later read no bytes."""
    ends = []

    def make(data: bytes) -> str:
        read, write = os.pipe()
        ends.append(read)
        with os.fdopen(write, "wb") as fh:
            fh.write(data)
        return f"/dev/fd/{read}"

    yield make
    for fd in ends:
        os.close(fd)


def outputs(out_dir: str) -> dict:
    """Each output file's bytes but the manifest's, eval.csv's without its latency_ms column."""
    files = {}
    for path in sorted(Path(out_dir).iterdir()):
        data = path.read_bytes()
        if path.name == "eval.csv":
            rows = [row.split(",") for row in data.decode().splitlines()]
            k = rows[0].index("latency_ms")
            data = [row[:k] + row[k + 1:] for row in rows]
        files[path.name] = data
    del files["manifest.json"]
    return files


@pytest.mark.parametrize("option", PIPED)
def test_a_piped_input_is_parsed_and_recorded_from_one_read(workdir, inputs, pipe, capsys,
                                                            option):
    # a pipe gives its bytes to one read only: a digest taken by reading the path again
    # would be that of no bytes, e3b0c442...
    (workdir / "star.txt").write_text(STAR)
    assert run("fit", "--graph", "star.txt", "--response", "identity", "--order", "2",
               "--out-dir", "star") == 0
    argv = PIPED[option]
    k = argv.index(option) + 1
    capsys.readouterr()
    assert run(*argv, "--out-dir", "file") == 0
    by_file = capsys.readouterr()
    data = Path(argv[k]).read_bytes()
    piped = pipe(data)
    assert run(*argv[:k], piped, *argv[k + 1:], "--out-dir", "piped") == 0
    assert capsys.readouterr() == by_file
    assert outputs("piped") == outputs("file")
    manifest = json.loads(Path("piped/manifest.json").read_text())
    assert manifest["inputs"][piped] == hashlib.sha256(data).hexdigest()
    assert manifest == json.loads(Path("file/manifest.json").read_text().replace(argv[k], piped))


TRANSFER = ["transfer", "--source-graph", "p2.txt", "--source-beliefs", "beliefs.txt",
            "--target-graph", "p2.txt", "--target-beliefs", "beliefs.txt"]
REPEATED = {  # a command that names one input twice, and that input
    "graphs": (TRANSFER, "p2.txt"),
    "beliefs": (TRANSFER, "beliefs.txt"),
    "tasks": (["eval", "--tasks", "gen/task.json", "gen/task.json", "--response", "identity",
               "--latency-runs", "1"], "gen/task.json"),
}


@pytest.mark.parametrize("name", REPEATED)
def test_a_pipe_named_twice_gives_both_namings_its_bytes(workdir, inputs, pipe, capsys, name):
    # a second read of the pipe would get no bytes: "line 1: missing header line"
    argv, path = REPEATED[name]
    capsys.readouterr()
    assert run(*argv, "--out-dir", "file") == 0
    by_file = capsys.readouterr()
    data = Path(path).read_bytes()
    piped = pipe(data)
    assert run(*[piped if arg == path else arg for arg in argv], "--out-dir", "piped") == 0
    assert capsys.readouterr() == by_file
    assert outputs("piped") == outputs("file")
    manifest = json.loads(Path("piped/manifest.json").read_text())
    assert manifest["inputs"][piped] == hashlib.sha256(data).hexdigest()
    assert manifest == json.loads(Path("file/manifest.json").read_text().replace(path, piped))


@pytest.mark.parametrize("name", REPEATED)
def test_a_file_named_twice_is_read_once(workdir, inputs, monkeypatch, name):
    argv, path = REPEATED[name]
    reads = []
    real = Path.read_bytes

    def counted(self):
        reads.append(str(self))
        return real(self)

    monkeypatch.setattr(Path, "read_bytes", counted)
    assert run(*argv, "--out-dir", "out") == 0
    assert reads.count(path) == 1


def test_every_option_is_read(workdir, inputs):
    # an option no run of its command reads is one the command ignores
    (workdir / "star.txt").write_text(STAR)
    assert run("fit", "--graph", "star.txt", "--response", "identity", "--order", "2",
               "--out-dir", "star") == 0
    commands = cli._build_parser()._subparsers._group_actions[0].choices
    assert commands.keys() == VARIANTS.keys()
    unread = {}
    for name, variants in VARIANTS.items():
        reads = set().union(*(options_read([name, *argv, "--out-dir", "out"])
                              for argv in variants))
        options = {action.dest for action in commands[name]._actions
                   if action.dest not in ("help", "out_dir")}
        if options - reads:
            unread[name] = sorted(options - reads)
    assert unread == {}


G4 = "4 3\n0 1 1\n1 2 1\n2 3 1\n"
REFUSED = "refused.txt"  # the one input each run below refuses
INFER_G4 = ["infer", "--graph", "g4.txt", "--filter", "fit/filter.json"]
SHORT = BELIEF_FILES["too-few"]
NAMED = {  # a run that refuses the input REFUSED, and what that input holds
    **{f"edges {name}": (["fit", "--graph", REFUSED, "--response", "identity"], text)
       for name, text in EDGE_LISTS.items() if name != "arabic-digit"},
    **{f"beliefs {name}": (["perturb", "--graph", "g4.txt", "--beliefs", REFUSED], text)
       for name, text in BELIEF_FILES.items() if name not in ("too-few", "arabic-digit")},
    "signed under normalized": (["fit", "--graph", REFUSED, "--graph-kind", "signed",
                                 "--variant", "normalized", "--response", "identity"],
                                "3 1\n0 1 -1\n"),
    "config not utf-8": (["train", "--graph", "g4.txt", "--config", REFUSED],
                         '{"order": 4}\udcff'),
    "short beliefs infer": ([*INFER_G4, "--beliefs", REFUSED], SHORT),
    "short beliefs attribute": (["attribute", "--graph", "g4.txt", "--beliefs", REFUSED,
                                 "--response", "identity"], SHORT),
    "short beliefs perturb": (["perturb", "--graph", "g4.txt", "--beliefs", REFUSED], SHORT),
    "short beliefs transfer source": (["transfer", "--source-graph", "g4.txt",
                                       "--source-beliefs", REFUSED, "--target-graph", "g4.txt",
                                       "--target-beliefs", "x4.txt"], SHORT),
    "short beliefs transfer target": (["transfer", "--source-graph", "g4.txt",
                                       "--source-beliefs", "x4.txt", "--target-graph", "g4.txt",
                                       "--target-beliefs", REFUSED], SHORT),
    "transfer target graph": (["transfer", "--source-graph", "g4.txt", "--source-beliefs",
                               "x4.txt", "--target-graph", REFUSED, "--target-beliefs",
                               "x4.txt"], EDGE_LISTS["unparsable"]),
    "rulebase of another size": ([*INFER_G4, "--beliefs", "x4.txt", "--rulebase", REFUSED],
                                 '{"atoms": ["n0", "n1"], "clauses": []}'),
}


@pytest.fixture
def refusal(workdir, request):
    """The argv of the NAMED case request.param, its inputs written and fit's filter made."""
    (workdir / "g4.txt").write_text(G4)
    (workdir / "x4.txt").write_text("1\n-1\n1\n-1\n")
    assert run("fit", "--graph", "g4.txt", "--response", "identity", "--order", "2",
               "--out-dir", "fit") == 0
    argv, text = NAMED[request.param]
    (workdir / REFUSED).write_bytes(text.encode("utf-8", "surrogateescape"))
    return [*argv, "--out-dir", "out"]


@pytest.mark.parametrize("refusal", NAMED, indirect=True)
def test_a_refused_input_is_named_first(workdir, capsys, refusal):
    # cli is the one place a path enters a refusal: "error: line 3: ..." named no graph
    capsys.readouterr()
    assert run(*refusal) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {REFUSED}: ") and err.count("\n") == 1, err
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("refusal", NAMED, indirect=True)
def test_a_refused_input_is_refused_before_any_decomposition(monkeypatch, capsys, refusal):
    # attribute once ran its O(n^3) eigh before it refused a short belief file
    def unreached(*args, **kwargs):
        raise AssertionError("an input refusal came after a decomposition")

    monkeypatch.setattr(gr, "eigendecompose", unreached)
    monkeypatch.setattr(gr, "estimate_lambda_max", unreached)
    assert run(*refusal) == 1


COEFFS_X = ["--response", "polynomial", "--coeffs", "1,x"]
UNPARSABLE_COEFFS = "--coeffs: could not convert string to float: 'x'"


@pytest.mark.parametrize("argv, message", [
    (["fit", "--graph", "missing.txt", "--response", "diffusion", "--tau", "-1"],
     "diffusion takes a single positive tau"),
    (["fit", "--graph", "missing.txt", *COEFFS_X], UNPARSABLE_COEFFS),
    (["attribute", "--graph", "missing.txt", "--beliefs", "missing.txt", *COEFFS_X],
     UNPARSABLE_COEFFS),
    (["eval", "--tasks", "missing.json", *COEFFS_X], UNPARSABLE_COEFFS),
    (["fit", "--graph", "missing.txt", "--response", "polynomial", "--coeffs", ","],
     "--coeffs: polynomial needs at least one coefficient"),
    (["perturb", "--graph", "missing.txt", "--beliefs", "missing.txt", "--magnitude", "-1"],
     "magnitude must be nonnegative, got -1.0"),
    (["eval", "--tasks", "missing.json", "--response", "identity", "--perturb-magnitude", "-1"],
     "magnitude must be nonnegative, got -1.0"),
    (["eval", "--tasks", "missing.json", "--response", "identity", "--perturb-band", "5"],
     "band 5 outside partition with 3 bands"),
    (["perturb", "--graph", "missing.txt", "--beliefs", "missing.txt", "--band", "5"],
     "band 5 outside partition with 3 bands"),
    (["perturb", "--graph", "missing.txt", "--beliefs", "missing.txt", "--bands", "0"],
     "need at least one band"),
    (["attribute", "--graph", "missing.txt", "--beliefs", "missing.txt", "--response",
      "identity", "--bands", "0"], "need at least one band"),
    (["transfer", "--source-graph", "missing.txt", "--source-beliefs", "missing.txt",
      "--target-graph", "missing.txt", "--target-beliefs", "missing.txt", "--points", "1"],
     "profile needs at least two points"),
], ids=["fit tau", "fit coeffs", "attribute coeffs", "eval coeffs", "fit no coeffs",
        "perturb magnitude", "eval magnitude", "eval band", "perturb band", "perturb bands",
        "attribute bands", "transfer points"])
def test_an_option_is_refused_before_any_input_is_read(workdir, monkeypatch, capsys, argv,
                                                       message):
    # fit once parsed its graph and ran the whole lambda_max estimate before it refused a tau;
    # perturb, attribute and transfer decomposed a graph before they refused a band or a count
    def unread(self):
        raise AssertionError(f"{self} was read")

    def undecomposed(*args, **kwargs):
        raise AssertionError("a graph was decomposed")

    monkeypatch.setattr(Path, "read_bytes", unread)
    monkeypatch.setattr(gr, "eigendecompose", undecomposed)
    assert run(*argv, "--out-dir", "out") == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("argv", [
    ["fit", "--graph", "missing.txt"],
    ["attribute", "--graph", "missing.txt", "--beliefs", "missing.txt"],
    ["eval", "--tasks", "missing.json"],
])
def test_a_run_without_a_model_is_refused_by_the_parser(workdir, monkeypatch, capsys, argv):
    # fit once estimated lambda_max before it refused a missing --response
    def unread(self):
        raise AssertionError(f"{self} was read")

    monkeypatch.setattr(Path, "read_bytes", unread)
    with pytest.raises(SystemExit) as exit_:
        run(*argv, "--out-dir", "out")
    assert exit_.value.code == 2
    assert "error: one of the arguments " in capsys.readouterr().err
    assert not (workdir / "out").exists()
