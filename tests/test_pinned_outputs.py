"""Outputs pinned by digest on fixed inputs, and the evaluator's decomposition count.

Refactors of the evaluator, the rule mixture and the training loop must
leave these bytes unchanged. eval.csv is compared without its wall-clock
latency_ms column. The digests were taken on x86-64 with NumPy's bundled
OpenBLAS; a different LAPACK may round eigenvectors differently in the
last bits and would need them taken again.
"""

import hashlib
import json

import numpy as np
import pytest

from specreason import analysis as an
from specreason import cli
from specreason import filters as ft
from specreason import graph as gr
from specreason import rules as rl
from specreason import taskgen as tg
from specreason import training as tr


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def without_latency(csv_text: str) -> str:
    rows = [line.split(",") for line in csv_text.splitlines()]
    k = rows[0].index("latency_ms")
    return "\n".join(",".join(c for i, c in enumerate(row) if i != k) for row in rows)


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sbm.json").write_text(tg.task_to_json(
        tg.gen_community_task(n=60, intra_p=0.25, inter_p=0.02, seed=4)))
    (tmp_path / "chain.json").write_text(tg.task_to_json(
        tg.gen_chain_task(depth=3, branching=2, seed=5)))
    templates = [{"name": "spread", "kind": "diffusion", "params": [2.0], "weight": 0.7},
                 {"name": "edge", "kind": "highpass", "params": [1.0], "weight": 0.3},
                 {"name": "mid", "kind": "gaussian_bandpass", "params": [1.5, 0.5], "weight": 0.2}]
    (tmp_path / "templates.json").write_text(json.dumps(templates, indent=2, sort_keys=True)
                                             + "\n")
    g = tg.random_gnm(12, 20, seed=0)
    lines = [f"{g.node_count} {g.edge_count}"] + [f"{i} {j} {w}" for i, j, w in g.edges]
    (tmp_path / "graph.txt").write_text("\n".join(lines) + "\n")
    beliefs = np.random.default_rng(3).standard_normal(12)
    (tmp_path / "beliefs.txt").write_text("\n".join(f"{v}" for v in beliefs) + "\n")
    return tmp_path


@pytest.mark.parametrize("model_args, expected", [
    (["--response", "diffusion", "--tau", "2.0"], "e9930141d7041dd4"),
    (["--rules", "templates.json"], "4e36d7d78d13c415"),
])
def test_eval_csv_pinned(inputs, model_args, expected):
    argv = ["eval", "--tasks", "sbm.json", "chain.json", *model_args, "--perturb-band", "0",
            "--perturb-magnitude", "1.5", "--latency-runs", "2", "--out-dir", "out"]
    assert cli.main(argv) == 0
    assert digest(without_latency((inputs / "out" / "eval.csv").read_text())) == expected


def test_attribution_csv_pinned_with_rules(inputs):
    argv = ["attribute", "--graph", "graph.txt", "--beliefs", "beliefs.txt",
            "--rules", "templates.json", "--bands", "4", "--out-dir", "out"]
    assert cli.main(argv) == 0
    assert digest((inputs / "out" / "attribution.csv").read_text()) == "0f9aaec8f31ebbe3"


def digests(out_dir, names) -> dict:
    return {name: digest((out_dir / name).read_text()) for name in names}


@pytest.fixture
def fitted(inputs):
    argv = ["fit", "--graph", "graph.txt", "--response", "diffusion", "--tau", "1.5",
            "--order", "6", "--out-dir", "fit"]
    assert cli.main(argv) == 0
    return inputs


def test_fit_filter_pinned(fitted):
    assert digests(fitted / "fit", ["filter.json"]) == {"filter.json": "85dace8ac7b85807"}


# stdout is the one summary line
@pytest.mark.parametrize("mode_args, expected", [
    ([], {"predicates.csv": "73255ef23717355e", "closure.txt": "b491a88855e70036",
          "stdout": "8762471be27f3094"}),
    (["--temperature", "2"],
     {"predicates.csv": "691ed651996efb2f", "closure.txt": "b491a88855e70036",
      "stdout": "8762471be27f3094"}),
])
def test_infer_outputs_pinned(fitted, capsys, mode_args, expected):
    atoms = tuple(f"a{i}" for i in range(12))
    clauses = tuple(rl.HornClause(body={atoms[i]}, head=atoms[i + 1]) for i in range(0, 11, 2))
    (fitted / "rules.json").write_text(rl.rulebase_to_json(rl.RuleBase(atoms, clauses)))
    argv = ["infer", "--graph", "graph.txt", "--filter", "fit/filter.json", "--beliefs",
            "beliefs.txt", "--rulebase", "rules.json", *mode_args, "--out-dir", "out"]
    capsys.readouterr()
    assert cli.main(argv) == 0
    outputs = digests(fitted / "out", ["predicates.csv", "closure.txt"])
    assert {**outputs, "stdout": digest(capsys.readouterr().out)} == expected


def test_cli_train_history_pinned(inputs):
    (inputs / "train.json").write_text(
        '{"order": 5, "epochs": 15, "examples": 3, "curriculum": [[0, 2], [8, 5]],'
        ' "penalties": {"proof": 0.2, "transfer": 0.1}}')
    argv = ["train", "--graph", "graph.txt", "--config", "train.json", "--out-dir", "out"]
    assert cli.main(argv) == 0
    assert digests(inputs / "out", ["history.csv"]) == {"history.csv": "c5587cc64cc79ca0"}


def test_perturb_outputs_pinned(inputs):
    argv = ["perturb", "--graph", "graph.txt", "--beliefs", "beliefs.txt", "--band", "1",
            "--magnitude", "0.5", "--seed", "4", "--out-dir", "out"]
    assert cli.main(argv) == 0
    assert digests(inputs / "out", ["perturb.csv", "perturbed.txt"]) == {
        "perturb.csv": "209ad10945553b88", "perturbed.txt": "c3a92cfd8ca6148b"}


def test_transfer_outputs_pinned(inputs):
    g = tg.random_gnm(15, 30, seed=1)
    lines = [f"{g.node_count} {g.edge_count}"] + [f"{i} {j} {w}" for i, j, w in g.edges]
    (inputs / "target.txt").write_text("\n".join(lines) + "\n")
    beliefs = np.random.default_rng(5).standard_normal(15)
    (inputs / "target_beliefs.txt").write_text("\n".join(f"{v}" for v in beliefs) + "\n")
    argv = ["transfer", "--source-graph", "graph.txt", "--source-beliefs", "beliefs.txt",
            "--target-graph", "target.txt", "--target-beliefs", "target_beliefs.txt",
            "--points", "16", "--out-dir", "out"]
    assert cli.main(argv) == 0
    assert digests(inputs / "out", ["profiles.csv", "transfer.csv"]) == {
        "profiles.csv": "8ff68df1c6c6174d", "transfer.csv": "10adde22a60d7135"}


def penalised_problem():
    lap = gr.build_laplacian(tg.random_gnm(30, 70, seed=2))
    lambda_max = gr.estimate_lambda_max(lap).value
    lt = gr.scale_laplacian(lap, lambda_max)
    basis = gr.eigendecompose(lap)
    rng = np.random.default_rng(9)
    teacher = ft.fit_chebyshev(ft.diffusion(1.0), 5, lambda_max)
    targets, traces = zip(*(ft.cheb_apply(teacher, lt, x, keep_trace=True)
                            for x in rng.standard_normal((4, 30))))
    # the transfer reference is an output in node space
    reference = basis.eigenvectors @ (0.1 * rng.standard_normal(30))
    disallowed = an.disallowed_rows(basis, an.equal_bands(basis, 3), (0,))
    penalties = tr.PenaltyWeights(proof=0.3, transfer=0.2)
    return lap, lt, traces, targets, disallowed, reference, penalties


def test_penalised_training_history_pinned():
    lap, lt, traces, targets, disallowed, reference, penalties = penalised_problem()
    student = ft.ChebyshevFilter(theta=np.zeros(6), lambda_max=lt.lambda_max)
    # a clip norm small enough that the gradients are clipped
    config = tr.TrainConfig(epochs=25, clip_norm=0.3)
    result = tr.train(student, traces, targets, penalties, config=config,
                      disallowed=disallowed, transfer_reference=reference)
    assert digest(tr.history_to_csv(result.history)) == "619c0cc9c2f5d927"


# the decomposition count must not grow with the repeated latency runs
@pytest.mark.parametrize("latency_runs", [1, 2])
def test_evaluate_decomposes_each_instance_once(monkeypatch, latency_runs):
    calls = []

    def counted(lap, *args, **kwargs):
        calls.append(lap.node_count)
        return gr.eigendecompose(lap, *args, **kwargs)

    monkeypatch.setattr(tg, "eigendecompose", counted)
    instances = [tg.gen_community_task(n=40, intra_p=0.3, inter_p=0.03, seed=s) for s in range(3)]
    instances.append(tg.gen_chain_task(depth=3, seed=1))
    cfg = tg.EvalConfig(latency_runs=latency_runs,
                        perturb=an.PerturbConfig(band=0, magnitude=1.0, seed=2))
    tg.evaluate(ft.diffusion(1.0), instances, cfg)
    assert sorted(calls) == sorted(inst.graph.node_count for inst in instances)
