"""Each correctness oracle accepts a right output and rejects a corrupted one.

Run with: python3 -m pytest perfbench/test_oracles.py
"""

import itertools

import numpy as np
import pytest

import inputs as gen
import oracles


def _predicates_csv(y: np.ndarray, hard: np.ndarray) -> str:
    rows = [f"{k},{format(v, '.17g')},,{int(h)}" for k, (v, h) in enumerate(zip(y, hard))]
    return "node,belief,soft,hard\n" + "\n".join(rows) + "\n"


def test_hard_column_oracle():
    y = np.array([0.5, -0.25, 0.0, 2.0])
    belief, hard = oracles.parse_predicates(_predicates_csv(y, y > 0))
    assert oracles.check_hard(belief, hard, 0.0) == []
    corrupted = (y > 0).copy()
    corrupted[1] = True
    belief, hard = oracles.parse_predicates(_predicates_csv(y, corrupted))
    assert oracles.check_hard(belief, hard, 0.0)


@pytest.mark.parametrize("text", ["node,belief,hard\n0,1,1\n", "node,belief,soft,hard\n1,0.5,,1\n",
                                  "node,belief,soft,hard\n0,0.5,,yes\n"])
def test_malformed_predicates_are_rejected(text):
    with pytest.raises(ValueError):
        oracles.parse_predicates(text)


def test_result_err_oracle():
    n = 50
    lap = gen.laplacian(n, np.arange(n - 1), np.arange(1, n))
    x = np.random.default_rng(0).standard_normal(n)
    reference = oracles.diffusion_reference(lap, x, tau=1.0)
    assert np.allclose((np.eye(n) + lap.toarray()) @ reference, x)
    assert oracles.check_result_err(oracles.result_err(reference, reference)) == []
    assert oracles.check_result_err(oracles.result_err(1.5 * reference, reference))
    # a Gershgorin fallback measures about 0.018; twice that is an accuracy loss
    assert oracles.check_result_err(0.02) == []
    assert oracles.check_result_err(0.04)


def test_closure_oracle():
    rng = np.random.default_rng(0)
    s, x, rulebase = gen.path_horn(40, rng)
    hard = x > 0
    right = "\n".join(sorted(rulebase["atoms"])) + "\n"
    assert oracles.check_closure(right, rulebase, hard) == []
    missing = "\n".join(sorted(rulebase["atoms"])[1:]) + "\n"
    assert oracles.check_closure(missing, rulebase, hard)
    # from a fact right of s the closure runs right only
    hard_right = np.zeros(40, dtype=bool)
    hard_right[s + 1] = True
    assert oracles.check_closure(right, rulebase, hard_right)


def test_horn_closure_matches_naive_fixpoint():
    rng = np.random.default_rng(1)
    atoms = [f"p{k}" for k in range(6)]
    for _ in range(50):
        clauses = [{"body": list(rng.choice(atoms, size=rng.integers(0, 3), replace=False)),
                    "head": str(rng.choice(atoms))} for _ in range(rng.integers(1, 8))]
        facts = set(rng.choice(atoms, size=rng.integers(0, 3), replace=False).tolist())
        known = set(facts)
        for _ in itertools.count():
            new = {c["head"] for c in clauses if set(c["body"]) <= known} - known
            if not new:
                break
            known |= new
        assert oracles.horn_closure(clauses, facts) == known


def _eval_csv(ref: oracles.EvalReference, **override) -> str:
    """An eval.csv row that sits in the middle of every reference range."""
    bands = ref.energies.size
    row = {"model": "diffusion(2)", "instances": ref.instances,
           "accuracy": sum(ref.accuracy) / 2, "latency_ms": 0.5,
           "robustness_drop": sum(ref.drop) / 2, "proof_band_agreement": sum(ref.agreement) / 2}
    row.update({f"band{b}_energy": ref.energies[b] for b in range(bands)})
    row.update({f"band{b}_fraction": ref.energies[b] / ref.energies.sum() for b in range(bands)})
    row.update(override)
    cells = [v if isinstance(v, str) else format(v, ".17g") for v in row.values()]
    return ",".join(row) + "\n" + ",".join(cells) + "\n"


@pytest.fixture(scope="module")
def eval_ref():
    rng = np.random.default_rng(2)
    tasks = [gen.sbm_task(40, rng), gen.spike_task(40, rng), gen.tree_chain_task(3, rng)]
    return oracles.eval_reference(tasks, tau=2.0, threshold=0.0, perturb_band=2,
                                  perturb_magnitude=0.5)


def test_eval_oracle_accepts_the_reference(eval_ref):
    assert 0.0 < eval_ref.accuracy[0] <= eval_ref.accuracy[1] <= 1.0
    assert -100.0 <= eval_ref.drop[0] <= eval_ref.drop[1] <= 100.0
    assert oracles.check_eval(_eval_csv(eval_ref), eval_ref) == []


def test_eval_reference_matches_a_dense_solve():
    rng = np.random.default_rng(3)
    task = gen.sbm_task(60, rng)
    lap = gen.laplacian(60, *np.array(task["graph"]["edges"])[:, :2].T.astype(int)).toarray()
    y = np.linalg.solve(np.eye(60) + 2.0 * lap, task["beliefs"])
    ref = oracles.eval_reference([task], tau=2.0, threshold=0.0, perturb_band=2,
                                 perturb_magnitude=0.0)
    assert ref.accuracy[0] <= np.mean((y > 0) == np.array(task["labels"], bool)) <= ref.accuracy[1]
    assert np.isclose(ref.energies.sum(), y @ y)
    assert ref.drop[0] <= 0.0 <= ref.drop[1] and ref.drop[1] - ref.drop[0] < 1e-6


@pytest.mark.parametrize("corrupt", [
    lambda ref: {"accuracy": ref.accuracy[0] - 0.01},
    lambda ref: {"instances": ref.instances - 1},
    lambda ref: {"robustness_drop": 150.0},
    lambda ref: {"robustness_drop": float("nan")},
    lambda ref: {"robustness_drop": ref.drop[1] + 1.0},
    lambda ref: {"proof_band_agreement": ref.agreement[0] - 0.01},
    lambda ref: {"band1_energy": 2.0 * ref.energies[1]},
    lambda ref: {"band0_fraction": 0.0},
])
def test_eval_oracle_rejects_a_corrupted_row(eval_ref, corrupt):
    assert oracles.check_eval(_eval_csv(eval_ref, **corrupt(eval_ref)), eval_ref)


def test_eval_oracle_rejects_fractions_that_do_not_sum_to_one(eval_ref):
    csv = _eval_csv(eval_ref, band2_fraction=eval_ref.energies[2] / eval_ref.energies.sum() + 1e-6)
    assert any("sum to" in p for p in oracles.check_eval(csv, eval_ref))


def test_eval_oracle_rejects_a_malformed_file(eval_ref):
    assert oracles.check_eval("model,instances\n", eval_ref)
    assert oracles.check_eval("model,instances,accuracy\nx,3,0.5\n", eval_ref)


def test_train_oracle():
    history = "epoch,total\n" + "".join(f"{e},0.1\n" for e in range(100))
    good = "train epochs=100 initial_loss=1.461886e-02 final_loss=3.140541e-04\n"
    assert oracles.check_train(good, history, 100) == []
    not_lower = "train epochs=100 initial_loss=1.0e-04 final_loss=3.0e-04\n"
    assert oracles.check_train(not_lower, history, 100)
    too_high = "train epochs=100 initial_loss=1.0e+00 final_loss=5.0e-02\n"
    assert oracles.check_train(too_high, history, 100)
    assert oracles.check_train(good, history, 99)
    assert oracles.check_train("", history, 100)
