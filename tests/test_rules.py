"""Rule templates, predicate projection, and Horn closure."""

import json
import time
import warnings

import numpy as np
import pytest
from scipy.special import expit

from specreason import filters as ft
from specreason import graph as gr
from specreason import rules as rl
from specreason.taskgen import random_gnp

SIGMOID_ONE = 0.7310585786300049  # sigma(1)


def carrier(g):
    lap = gr.build_laplacian(g)
    est = gr.estimate_lambda_max(lap)
    return gr.scale_laplacian(lap, est.value), est.value


def two_rules():
    return rl.RuleSet(templates=(
        rl.RuleTemplate(name="spread", response=ft.diffusion(1.0), weight=0.6),
        rl.RuleTemplate(name="except", response=ft.highpass(1.0), weight=0.4),
    ))


class TestTemplates:
    def test_weight_must_be_finite_nonnegative(self):
        for bad in (-1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                rl.RuleTemplate(name="r", response=ft.identity(), weight=bad)
        # zero weight is a legal silenced rule
        assert rl.RuleTemplate(name="r", response=ft.identity(), weight=0.0).weight == 0.0

    def test_zero_weights_give_zero_mixture(self):
        rs = rl.RuleSet(templates=(
            rl.RuleTemplate(name="a", response=ft.diffusion(1.0), weight=0.0),))
        grid = [0.0, 1.0, 2.0]
        assert ft.response_eval(rs, grid).tolist() == [0.0, 0.0, 0.0]

    def test_names_must_be_unique(self):
        t = rl.RuleTemplate(name="r", response=ft.identity(), weight=1.0)
        with pytest.raises(ValueError, match="unique"):
            rl.RuleSet(templates=(t, t))

    def test_mixture_is_weighted_sum(self):
        rs = two_rules()
        grid = np.linspace(0.0, 2.0, 7)
        expected = (0.6 * ft.response_eval(ft.diffusion(1.0), grid)
                    + 0.4 * ft.response_eval(ft.highpass(1.0), grid))
        assert np.allclose(ft.response_eval(rs, grid), expected, atol=1e-14)

    def test_template_json_round_trip(self, tmp_path):
        rs = two_rules()
        path = tmp_path / "rules.json"
        path.write_text(json.dumps([
            {"name": "spread", "kind": "diffusion", "params": [1.0], "weight": 0.6},
            {"name": "except", "kind": "highpass", "params": [1.0], "weight": 0.4}]))
        back = rl.load_templates(path.read_bytes())
        assert back == rs
        grid = np.linspace(0.0, 2.0, 5)
        assert np.array_equal(ft.response_eval(back, grid), ft.response_eval(rs, grid))


class TestApplyRules:
    def test_single_rule_matches_dense(self):
        g = random_gnp(16, 0.3, seed=4)
        lt, lmax = carrier(g)
        basis = gr.eigendecompose(gr.build_laplacian(g))
        rs = rl.RuleSet(templates=(
            rl.RuleTemplate(name="spread", response=ft.diffusion(1.0), weight=1.0),))
        x = np.random.default_rng(0).standard_normal(16)
        y = np.asarray(ft.cheb_apply(ft.fit_chebyshev(rs, 24, lmax), lt, x))
        dense = np.asarray(ft.dense_filter_apply(basis, ft.diffusion(1.0), x))
        assert np.linalg.norm(y - dense) <= 1e-6 * max(1.0, np.linalg.norm(dense))

    def test_aggregate_equals_mixture_filtering(self):
        # one pass with the rule set == vertex-domain sum of per-rule outputs
        g = random_gnp(14, 0.4, seed=7)
        lt, lmax = carrier(g)
        basis = gr.eigendecompose(gr.build_laplacian(g))
        rs = two_rules()
        x = np.random.default_rng(1).standard_normal(14)
        for apply in (lambda r: ft.cheb_apply(ft.fit_chebyshev(r, 16, lmax), lt, x),
                      lambda r: ft.dense_filter_apply(basis, r, x)):
            summed = sum(t.weight * np.asarray(apply(t.response)) for t in rs.templates)
            assert np.allclose(np.asarray(apply(rs)), summed, atol=1e-10)

    def test_rule_set_is_its_mixture_response(self):
        rs = two_rules()
        grid = np.linspace(0.0, 4.0, 9)
        # the weighted sum, accumulated in template order from zero: the same bits
        expected = np.zeros_like(grid)
        for t in rs.templates:
            expected = expected + t.weight * ft.response_eval(t.response, grid)
        assert np.array_equal(ft.response_eval(rs, grid), expected)
        assert rs(1.5) == expected[3]

    def test_empty_rule_set_refused(self):
        with pytest.raises(ValueError, match="empty rule set"):
            rl.RuleSet()(np.linspace(0.0, 1.0, 3))


class TestProjectPredicates:
    def test_hard_threshold(self):
        pv = rl.project_predicates(np.array([1.0, 0.0, -1.0]), threshold=0.5)
        assert pv.hard.tolist() == [True, False, False]
        assert pv.soft is None

    def test_soft_sigmoid_value(self):
        # sigma(temperature * (y - threshold)): 0.6 vs 0.5 at temperature 10
        pv = rl.project_predicates(np.array([0.6, 0.5]), threshold=0.5, temperature=10.0)
        assert pv.soft[0] == pytest.approx(SIGMOID_ONE, abs=1e-12)
        assert pv.soft[1] == 0.5
        # boundary stays off: soft 0.5 is not > 0.5
        assert pv.hard.tolist() == [True, False]

    def test_soft_sigmoid_matches_expit(self):
        # 1 / (1 + exp(-z)) is expit's own formula, so only the exp differs: NumPy's vector
        # exp may round one ulp away from the C library's. The reciprocal maps 1 + e in [1, 2)
        # to a binade with half the spacing, so that ulp can show as two; below z = -36.7,
        # 1 + e rounds to a grid of spacing 2 or more, and ties there can double it again
        specials = [0.0, -0.0, 745.0, -745.0, 1e308, -1e308, np.inf, -np.inf]
        z = np.concatenate([specials, np.linspace(-800.0, 800.0, 160_001)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ours = rl.project_predicates(z, temperature=1.0).soft
            saturated = rl.project_predicates(np.array([1e308, -1e308]), threshold=-1e308,
                                              temperature=1e10).soft
        reference = expit(z)
        assert ours[:len(specials)].tobytes() == reference[:len(specials)].tobytes()
        assert ours[:len(specials)].tolist() == [0.5, 0.5, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]
        assert saturated.tolist() == [1.0, 0.5]
        apart = np.abs(ours - reference)
        assert np.all(apart <= np.where(z > -36.7, 2.0, 4.0) * np.spacing(reference))

    def test_soft_needs_positive_temperature(self):
        with pytest.raises(ValueError):
            rl.project_predicates(np.array([1.0]), temperature=0.0)

    def test_large_temperature_recovers_hard_rule(self):
        y = np.array([0.4, 0.6])
        pv = rl.project_predicates(y, threshold=0.5, temperature=1e6)
        hard = rl.project_predicates(y, threshold=0.5).hard
        assert np.allclose(pv.soft, hard.astype(float), atol=1e-12)
        assert pv.hard.tolist() == hard.tolist()

    def test_soft_strictly_increasing(self):
        y = np.linspace(-1.0, 1.0, 9)
        soft = rl.project_predicates(y, temperature=2.0).soft
        assert np.all(np.diff(soft) > 0)


class TestForwardChain:
    def test_chain_closure(self):
        rb = rl.RuleBase(atoms=("a", "b", "c"),
                         clauses=(rl.HornClause(body=frozenset({"a"}), head="b"),
                                  rl.HornClause(body=frozenset({"b"}), head="c")))
        assert rl.forward_chain(rb, {"a"}) == frozenset({"a", "b", "c"})

    def test_conjunctive_body(self):
        rb = rl.RuleBase(atoms=("a", "b", "c"),
                         clauses=(rl.HornClause(body=frozenset({"a", "b"}), head="c"),))
        assert rl.forward_chain(rb, {"a"}) == frozenset({"a"})
        assert rl.forward_chain(rb, {"a", "b"}) == frozenset({"a", "b", "c"})

    def test_empty_rulebase_returns_facts(self):
        rb = rl.RuleBase(atoms=("a", "b"), clauses=())
        assert rl.forward_chain(rb, {"b"}) == frozenset({"b"})

    def test_idempotent(self):
        rng = np.random.default_rng(13)
        atoms = tuple(f"p{i}" for i in range(8))
        for _ in range(20):
            clauses = tuple(
                rl.HornClause(body=frozenset(rng.choice(atoms, size=rng.integers(1, 3),
                                                        replace=False).tolist()),
                              head=str(rng.choice(atoms)))
                for _ in range(10))
            rb = rl.RuleBase(atoms=atoms, clauses=clauses)
            facts = set(rng.choice(atoms, size=2, replace=False).tolist())
            once = rl.forward_chain(rb, facts)
            assert rl.forward_chain(rb, once) == once

    def test_monotone_in_facts(self):
        rb = rl.RuleBase(atoms=("a", "b", "c", "d"),
                         clauses=(rl.HornClause(body=frozenset({"a"}), head="b"),
                                  rl.HornClause(body=frozenset({"c"}), head="d")))
        small = rl.forward_chain(rb, {"a"})
        large = rl.forward_chain(rb, {"a", "c"})
        assert small <= large

    def test_unknown_atom_rejected(self):
        rb = rl.RuleBase(atoms=("a",), clauses=())
        with pytest.raises(ValueError, match="unknown"):
            rl.forward_chain(rb, {"z"})

    def test_clause_head_must_be_known(self):
        with pytest.raises(ValueError):
            rl.RuleBase(atoms=("a",),
                        clauses=(rl.HornClause(body=frozenset({"a"}), head="q"),))

    def test_matches_the_sweep(self):
        # random rulebases with empty bodies, repeated heads, cycles and facts that are
        # already heads; the sweep is the closure as it was computed before the counters
        rng = np.random.default_rng(5)
        empty_bodies = cycles = 0
        for _ in range(600):
            atoms = tuple(f"a{i}" for i in range(int(rng.integers(1, 13))))
            clauses = tuple(
                rl.HornClause(body=frozenset(rng.choice(atoms, size=int(rng.integers(0, min(
                    4, len(atoms) + 1))), replace=False).tolist()), head=str(rng.choice(atoms)))
                for _ in range(int(rng.integers(0, 21))))
            rb = rl.RuleBase(atoms=atoms, clauses=clauses)
            facts = {a for a in atoms if rng.random() < 0.25}
            assert rl.forward_chain(rb, facts) == sweep_closure(rb, facts)
            empty_bodies += any(not c.body for c in clauses)
            cycles += any(c.head in c.body for c in clauses)
        cycle = rl.RuleBase(atoms=("a", "b", "c"), clauses=(
            rl.HornClause(body=frozenset({"c"}), head="a"),
            rl.HornClause(body=frozenset({"a"}), head="b"),
            rl.HornClause(body=frozenset({"b"}), head="c")))
        for facts in (set(), {"a"}, {"b", "c"}):
            assert rl.forward_chain(cycle, facts) == sweep_closure(cycle, facts)
        assert empty_bodies > 100 and cycles > 100

    def test_cost_is_linear_in_the_chain(self):
        # the style of criterion 05 on a reverse-ordered chain, where the sweep took one
        # pass per atom: each doubling of the chain should about double the time. Each
        # ratio is the median over back-to-back pairs, so a slow spell of the host slows
        # both runs of a pair, and a pair it splits is an outlier the median drops
        chains = [reverse_chain(2000 * 2 ** k) for k in range(4)]
        worst = 0.0
        for small, large in zip(chains, chains[1:]):
            ratios = []
            for _ in range(21):
                taken = []
                for rb in (small, large):
                    start = time.perf_counter()
                    closure = rl.forward_chain(rb, {"a0"})
                    taken.append(time.perf_counter() - start)
                    assert len(closure) == len(rb.atoms)
                ratios.append(taken[1] / taken[0])
            worst = max(worst, float(np.median(ratios)))
        assert worst <= 2.5, f"doubling the chain multiplied the closure time by {worst:.2f}"


def sweep_closure(rb, facts):
    """The least fixpoint by sweeping every clause until none fires."""
    known = set(facts)
    changed = True
    while changed:
        changed = False
        for clause in rb.clauses:
            if clause.head not in known and clause.body <= known:
                known.add(clause.head)
                changed = True
    return frozenset(known)


def reverse_chain(n):
    """The rulebase a0 -> a1 -> ... -> a(n-1), its clauses listed last link first."""
    atoms = tuple(f"a{i}" for i in range(n))
    return rl.RuleBase(atoms=atoms, clauses=tuple(
        rl.HornClause(body=frozenset({atoms[k]}), head=atoms[k + 1]) for k in range(n - 2, -1, -1)))


class TestRulebaseJson:
    def test_round_trip(self, tmp_path):
        rb = rl.RuleBase(atoms=("a", "b"),
                         clauses=(rl.HornClause(body=frozenset({"a"}), head="b"),))
        path = tmp_path / "rb.json"
        path.write_text(rl.rulebase_to_json(rb), encoding="utf-8")
        back = rl.load_rulebase(path.read_bytes())
        assert back.atoms == rb.atoms and back.clauses == rb.clauses

    def test_serialization_is_stable(self):
        rb = rl.RuleBase(atoms=("b", "a"),
                         clauses=(rl.HornClause(body=frozenset({"b", "a"}), head="a"),))
        assert rl.rulebase_to_json(rb) == rl.rulebase_to_json(rb)
