"""Rule templates, predicate projection, Horn closure, and proposal vetting."""

import json

import numpy as np
import pytest

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
        assert ft.response_eval(rl.mixture_response(rs), grid).tolist() == [0.0, 0.0, 0.0]

    def test_names_must_be_unique(self):
        t = rl.RuleTemplate(name="r", response=ft.identity(), weight=1.0)
        with pytest.raises(ValueError, match="unique"):
            rl.RuleSet(templates=(t, t))

    def test_mixture_is_weighted_sum(self):
        rs = two_rules()
        mix = rl.mixture_response(rs)
        grid = np.linspace(0.0, 2.0, 7)
        expected = (0.6 * ft.response_eval(ft.diffusion(1.0), grid)
                    + 0.4 * ft.response_eval(ft.highpass(1.0), grid))
        assert np.allclose(ft.response_eval(mix, grid), expected, atol=1e-14)

    def test_template_json_round_trip(self, tmp_path):
        rs = two_rules()
        path = tmp_path / "rules.json"
        rl.save_templates(rs, path)
        back = rl.load_templates(path)
        assert back.names() == rs.names()
        grid = np.linspace(0.0, 2.0, 5)
        assert np.array_equal(ft.response_eval(rl.mixture_response(back), grid),
                              ft.response_eval(rl.mixture_response(rs), grid))


class TestApplyRules:
    def test_single_rule_matches_dense(self):
        g = random_gnp(16, 0.3, seed=4)
        lt, lmax = carrier(g)
        basis = gr.eigendecompose(gr.build_laplacian(g))
        t = rl.RuleTemplate(name="spread", response=ft.diffusion(1.0), weight=1.0)
        x = np.random.default_rng(0).standard_normal(16)
        y = np.asarray(rl.apply_rule(t, lt, x, order=24))
        dense = np.asarray(ft.dense_filter_apply(basis, ft.diffusion(1.0), x))
        assert np.linalg.norm(y - dense) <= 1e-6 * max(1.0, np.linalg.norm(dense))

    def test_aggregate_equals_mixture_filtering(self):
        # one pass with the mixture == vertex-domain sum of per-rule outputs
        g = random_gnp(14, 0.4, seed=7)
        lt, lmax = carrier(g)
        basis = gr.eigendecompose(gr.build_laplacian(g))
        rs = two_rules()
        x = np.random.default_rng(1).standard_normal(14)
        for carried in (lt, basis):
            agg = np.asarray(rl.aggregate_rules(rs, carried, x, order=16))
            summed = sum(t.weight * np.asarray(rl.apply_rule(t, carried, x, order=16))
                         for t in rs.templates)
            assert np.allclose(agg, summed, atol=1e-10)

    def test_rule_set_is_its_mixture_response(self):
        rs = two_rules()
        grid = np.linspace(0.0, 4.0, 9)
        assert np.array_equal(ft.response_eval(rs, grid),
                              ft.response_eval(rl.mixture_response(rs), grid))


class TestProjectPredicates:
    def test_hard_threshold(self):
        pv = rl.project_predicates(np.array([1.0, 0.0, -1.0]), threshold=0.5)
        assert pv.hard.tolist() == [True, False, False]
        assert pv.soft is None

    def test_soft_sigmoid_value(self):
        # sigma(temperature * (y - threshold)): 0.6 vs 0.5 at temperature 10
        pv = rl.project_predicates(np.array([0.6, 0.5]), threshold=0.5,
                                   mode="soft", temperature=10.0)
        assert pv.soft[0] == pytest.approx(SIGMOID_ONE, abs=1e-12)
        assert pv.soft[1] == 0.5
        # boundary stays off: soft 0.5 is not > 0.5
        assert pv.hard.tolist() == [True, False]

    def test_soft_needs_positive_temperature(self):
        with pytest.raises(ValueError):
            rl.project_predicates(np.array([1.0]), mode="soft", temperature=0.0)

    def test_large_temperature_recovers_hard_rule(self):
        y = np.array([0.4, 0.6])
        pv = rl.project_predicates(y, threshold=0.5, mode="soft", temperature=1e6)
        hard = rl.project_predicates(y, threshold=0.5).hard
        assert np.allclose(pv.soft, hard.astype(float), atol=1e-12)
        assert pv.hard.tolist() == hard.tolist()

    def test_soft_strictly_increasing(self):
        y = np.linspace(-1.0, 1.0, 9)
        soft = rl.project_predicates(y, mode="soft", temperature=2.0).soft
        assert np.all(np.diff(soft) > 0)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            rl.project_predicates(np.array([1.0]), mode="fuzzy")


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


class TestRulebaseJson:
    def test_round_trip(self, tmp_path):
        rb = rl.RuleBase(atoms=("a", "b"),
                         clauses=(rl.HornClause(body=frozenset({"a"}), head="b"),))
        path = tmp_path / "rb.json"
        rl.save_rulebase(rb, path)
        back = rl.load_rulebase(path)
        assert back.atoms == rb.atoms and back.clauses == rb.clauses

    def test_serialization_is_stable(self):
        rb = rl.RuleBase(atoms=("b", "a"),
                         clauses=(rl.HornClause(body=frozenset({"b", "a"}), head="a"),))
        assert rl.rulebase_to_json(rb) == rl.rulebase_to_json(rb)


class TestProposals:
    def g(self):
        return gr.Graph(node_count=3, edges=((0, 1, 1.0), (1, 2, 1.0)))

    def context(self):
        g = self.g()
        return g, two_rules(), gr.eigendecompose(gr.build_laplacian(g))

    def test_jsonl_loading(self, tmp_path):
        path = tmp_path / "proposals.jsonl"
        lines = [
            json.dumps({"kind": "edge", "edge": [0, 2, 0.5], "origin": "llm"}),
            json.dumps({"kind": "rule", "origin": "llm",
                        "rule": {"name": "gate", "weight": 0.5,
                                 "kind": "gaussian_bandpass", "params": [1.0, 0.5]}}),
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        proposals = rl.load_proposals(path)
        assert len(proposals) == 2
        assert proposals[0].kind == "edge" and proposals[0].edge == (0, 2, 0.5)
        assert proposals[1].kind == "rule"

    def test_jsonl_error_carries_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "edge", "edge": [0, 2, 0.5], "origin": "x"}\nnot json\n',
                        encoding="utf-8")
        with pytest.raises(rl.ProposalError) as err:
            rl.load_proposals(path)
        assert err.value.line_no == 2

    def test_edge_rejection_reasons(self):
        g, rs, basis = self.context()
        cases = [
            ((0, 0, 1.0), "self-loop"),
            ((0, 9, 1.0), "index-out-of-range"),
            ((1, 0, 1.0), "duplicate-edge"),
            ((0, 2, float("nan")), "bad-weight"),
            ((0, 2, -1.0), "negative-weight"),
            ((0, 2, 50.0), "lambda-growth"),
        ]
        for edge, reason in cases:
            res = rl.validate_proposal(
                rl.Proposal(kind="edge", edge=edge, rule=None, origin="llm"), g, rs, basis)
            assert not res.accepted and res.reason == reason

    def test_modest_edge_accepted(self):
        g, rs, basis = self.context()
        res = rl.validate_proposal(
            rl.Proposal(kind="edge", edge=(0, 2, 0.5), rule=None, origin="llm"), g, rs, basis)
        assert res.accepted and res.reason is None

    def test_rule_rejection_reasons(self):
        g, rs, basis = self.context()
        dup = rl.Proposal(kind="rule", edge=None, origin="llm",
                          rule={"name": "spread", "weight": 1.0,
                                "kind": "identity", "params": []})
        assert rl.validate_proposal(dup, g, rs, basis).reason == "duplicate-name"
        loud = rl.Proposal(kind="rule", edge=None, origin="llm",
                           rule={"name": "boost", "weight": 1.0,
                                 "kind": "polynomial", "params": [0.0, 20.0]})
        assert rl.validate_proposal(loud, g, rs, basis).reason == "response-bound"

    def test_quiet_rule_accepted(self):
        g, rs, basis = self.context()
        ok = rl.Proposal(kind="rule", edge=None, origin="llm",
                         rule={"name": "gate", "weight": 0.5,
                               "kind": "gaussian_bandpass", "params": [1.0, 0.5]})
        assert rl.validate_proposal(ok, g, rs, basis).accepted

    def test_variant_mismatch_raises(self):
        g, rs, basis = self.context()
        edge = rl.Proposal(kind="edge", edge=(0, 2, 0.5), rule=None, origin="llm")
        with pytest.raises(ValueError, match="variant"):
            rl.validate_proposal(edge, g, rs, basis, rl.ValidationConfig(variant="normalized"))

    def test_edge_above_dense_cap_refused(self):
        _, rs, basis = self.context()
        n = gr.DENSE_CAP + 1
        path = gr.Graph(n, columns=(np.arange(n - 1), np.arange(1, n), np.ones(n - 1)))
        edge = rl.Proposal(kind="edge", edge=(0, n - 1, 1.0), rule=None, origin="llm")
        with pytest.raises(ValueError, match="refused"):
            rl.validate_proposal(edge, path, rs, basis)

    def test_weyl_shortcut_matches_dense_verdict(self, monkeypatch):
        eigvalsh = np.linalg.eigvalsh
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
        rng = np.random.default_rng(11)
        shortcut = dense = 0
        for seed in range(12):
            base = random_gnp(12, 0.35, seed=seed)
            kind, variant = (("signed", "signed") if seed % 2 else ("unsigned", "combinatorial"))
            signs = rng.choice([-1.0, 1.0], size=base.edge_count) if kind == "signed" else 1.0
            g = gr.Graph(12, kind=kind, columns=(base.rows, base.cols, base.weights * signs))
            basis = gr.eigendecompose(gr.build_laplacian(g, variant))
            cfg = rl.ValidationConfig(max_lambda_growth=0.25, variant=variant)
            present = set(zip(g.rows.tolist(), g.cols.tolist()))
            absent = [(i, j) for i in range(12) for j in range(i + 1, 12) if (i, j) not in present]
            for i, j in absent:
                w = float(rng.uniform(0.05, 3.0))
                if kind == "signed":
                    w *= rng.choice([-1.0, 1.0])
                before = len(calls)
                res = rl.validate_proposal(rl.Proposal(kind="edge", edge=(i, j, w), rule=None,
                                                       origin="llm"), g, two_rules(), basis, cfg)
                candidate = gr.Graph(12, kind=kind, columns=(
                    np.append(g.rows, i), np.append(g.cols, j), np.append(g.weights, w)))
                grown = eigvalsh(gr.build_laplacian(candidate, variant).matrix.toarray())[-1]
                assert res.accepted == (grown <= basis.lambda_max * 1.25)
                if basis.lambda_max + 2 * abs(w) <= basis.lambda_max * 1.25:
                    assert len(calls) == before
                    shortcut += 1
                else:
                    assert len(calls) == before + 1
                    dense += 1
        assert shortcut > 50 and dense > 50

    def test_accepted_edge_keeps_lambda_bound(self):
        # the acceptance predicate itself is the invariant: recompute and compare
        g, rs, basis = self.context()
        cfg = rl.ValidationConfig(max_lambda_growth=0.25)
        for w in (0.1, 0.5, 1.0, 4.0):
            res = rl.validate_proposal(
                rl.Proposal(kind="edge", edge=(0, 2, w), rule=None, origin="llm"),
                g, rs, basis, cfg)
            candidate = gr.Graph(node_count=3, edges=g.edges + ((0, 2, w),))
            grown = float(np.linalg.eigvalsh(
                gr.build_laplacian(candidate).matrix.toarray())[-1])
            within = grown <= basis.lambda_max * 1.25
            assert res.accepted == within
