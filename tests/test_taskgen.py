"""Synthetic task generators, scoring, and the evaluation harness."""

import hashlib
import json
import os

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.stats import rankdata

from specreason import filters as ft
from specreason import graph as gr
from specreason import rules as ru
from specreason import taskgen as tg


class TestRandomGraphs:
    def test_gnp_deterministic(self):
        a = tg.random_gnp(30, 0.2, seed=5)
        b = tg.random_gnp(30, 0.2, seed=5)
        assert a.edges == b.edges
        assert a.node_count == 30

    def test_gnp_seeds_differ(self):
        assert tg.random_gnp(30, 0.2, seed=1).edges != tg.random_gnp(30, 0.2, seed=2).edges

    def test_gnp_density_tracks_p(self):
        sparse = tg.random_gnp(80, 0.05, seed=0)
        dense = tg.random_gnp(80, 0.5, seed=0)
        assert len(dense.edges) > len(sparse.edges)

    def test_gnm_exact_edge_count(self):
        g = tg.random_gnm(40, 111, seed=3)
        assert len(g.edges) == 111
        assert g.node_count == 40

    def test_gnm_deterministic(self):
        assert tg.random_gnm(25, 60, seed=9).edges == tg.random_gnm(25, 60, seed=9).edges

    def test_gnm_rejects_impossible_count(self):
        with pytest.raises(ValueError):
            tg.random_gnm(4, 100)

    @pytest.mark.parametrize("make, digest", [
        (lambda: tg.random_gnm(12, 20, seed=0), "ed94d66f677e192d"),
        (lambda: tg.random_gnm(8, 12, seed=1), "bb0abaa6c8e9aaa0"),
        (lambda: tg.random_gnm(40, 111, seed=3), "fb390e50822bd2e4"),
        (lambda: tg.random_gnm(5, 10, seed=2), "467c575a0ba2eead"),
        (lambda: tg.random_gnm(1000, 5000, seed=7), "3f10a4cd101ac434"),
        (lambda: tg.random_gnm(127, 4000, np.random.default_rng(0)), "c1572ee25819b299"),
        (lambda: tg.random_gnp(50, 0.1, seed=3), "d05907b99e16ed69"),
        (lambda: tg.gen_community_task(n=40, intra_p=0.3, inter_p=0.02, seed=5).graph,
         "9c6ca6d6b15cb8c3"),
        (lambda: tg.gen_chain_task(depth=4, branching=2, seed=1).graph, "40a2cef2e5ba8f20"),
    ])
    def test_generated_edges_pinned(self, make, digest):
        # a seed must keep naming the same graph: criterion 14 and timing_sweep rely on it
        edges = make().edges
        assert hashlib.sha256(repr(edges).encode()).hexdigest()[:16] == digest


class TestConnectivity:
    def test_matches_scipy_connected_components(self):
        # the reference counts the components of an adjacency scipy assembles from the edges
        rng = np.random.default_rng(14)
        graphs = [gr.Graph(1), gr.Graph(6), gr.Graph(2, edges=((0, 1, 1.0),)),
                  gr.Graph(4, edges=((0, 1, 1.0), (2, 3, 1.0))),
                  gr.Graph(4, edges=((1, 2, 1.0), (2, 3, 1.0))),
                  gr.Graph(3, edges=((0, 1, -1.0), (1, 2, 2.0)), kind="signed")]
        for _ in range(3000):
            n = int(rng.integers(1, 30))
            graphs.append(tg.random_gnp(n, float(rng.uniform(0.0, 0.4)), seed=rng))
        # long paths: union-find neither recurses nor walks them quadratically; the
        # second is two paths, one on the even nodes and one on the odd ones
        n = 200_000
        graphs.append(gr.Graph(n, columns=(np.arange(n - 1), np.arange(1, n), np.ones(n - 1))))
        graphs.append(gr.Graph(n, columns=(np.arange(n - 2), np.arange(2, n), np.ones(n - 2))))
        verdicts = []
        for g in graphs:
            ends = (np.concatenate([g.rows, g.cols]), np.concatenate([g.cols, g.rows]))
            adj = sp.csr_array((np.tile(g.weights, 2), ends), shape=(g.node_count,) * 2)
            verdicts.append(connected_components(adj, directed=False)[0] == 1)
            assert tg._is_connected(g) == verdicts[-1], g.edges
        assert verdicts[:6] == [True, False, True, False, False, True]
        assert verdicts[-2:] == [True, False]
        assert 500 < sum(verdicts) < len(verdicts) - 500  # both answers are well exercised


class TestTaskInstance:
    def test_shape_mismatch_rejected(self):
        g = tg.random_gnp(6, 0.8, seed=0)
        with pytest.raises(ValueError, match="cover every node"):
            tg.TaskInstance(graph=g, beliefs=np.zeros(3), labels=np.ones(6, dtype=bool),
                            allowed_bands=(0,), kind="community", seed=0, params=())

    def test_non_finite_belief_rejected(self, tmp_path):
        inst = tg.gen_chain_task(depth=3, seed=0)
        path = tmp_path / "task.json"
        path.write_text(tg.task_to_json(inst))
        payload = json.loads(path.read_text())
        payload["beliefs"][2] = float("nan")  # json writes and reads NaN
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="node 2 is not finite"):
            tg.load_task(path.read_bytes())

    def test_non_integer_endpoint_refused(self, tmp_path):
        path = tmp_path / "task.json"
        path.write_text(tg.task_to_json(tg.gen_chain_task(depth=3, seed=0)))
        payload = json.loads(path.read_text())
        for endpoint in (1.5, 1.0, True):
            payload["graph"]["edges"][2][1] = endpoint
            path.write_text(json.dumps(payload))
            with pytest.raises(gr.InvalidEdgeError,
                               match=r"graph\.edges\[2\]: non-integer endpoint") as err:
                tg.load_task(path.read_bytes())
            assert err.value.index == 2

    def test_round_trip_through_disk(self, tmp_path):
        inst = tg.gen_community_task(n=20, intra_p=0.5, inter_p=0.05,
                                     seed_fraction=0.2, noise=0.1, seed=4)
        path = tmp_path / "task.json"
        path.write_text(tg.task_to_json(inst))
        back = tg.load_task(path.read_bytes())
        assert back.kind == inst.kind
        assert back.graph.edges == inst.graph.edges
        assert np.array_equal(back.beliefs, inst.beliefs)
        assert np.array_equal(back.labels, inst.labels)
        assert back.allowed_bands == inst.allowed_bands
        assert dict(back.params) == dict(inst.params)

    def test_round_trip_keeps_rulebase(self, tmp_path):
        inst = tg.gen_chain_task(depth=3, seed=1)
        path = tmp_path / "chain.json"
        path.write_text(tg.task_to_json(inst))
        back = tg.load_task(path.read_bytes())
        assert back.rulebase is not None
        assert len(back.rulebase.clauses) == len(inst.rulebase.clauses)
        assert back.rulebase.atoms == inst.rulebase.atoms


class TestCommunityTask:
    def test_deterministic(self):
        a = tg.gen_community_task(n=30, intra_p=0.4, inter_p=0.02, seed=7)
        b = tg.gen_community_task(n=30, intra_p=0.4, inter_p=0.02, seed=7)
        assert a.graph.edges == b.graph.edges
        assert np.array_equal(a.beliefs, b.beliefs)

    def test_labels_split_in_half(self):
        inst = tg.gen_community_task(n=24, intra_p=0.5, inter_p=0.05, seed=0)
        assert inst.labels[:12].all()
        assert not inst.labels[12:].any()
        assert inst.allowed_bands == (0,)

    def test_full_seeding_zero_noise_is_separable(self):
        inst = tg.gen_community_task(n=20, intra_p=0.5, inter_p=0.05,
                                     seed_fraction=0.9, noise=0.0, seed=1)
        assert set(inst.beliefs.tolist()) == {-1.0, 1.0}
        rep = tg.evaluate(ft.identity(), [inst], tg.EvalConfig(threshold=0.0, latency_runs=1))
        assert rep.accuracy == 1.0

    def test_accuracy_degrades_with_noise(self):
        f = ft.diffusion(2.0)
        accs = []
        for noise in (0.0, 0.25, 0.5, 1.0):
            insts = [tg.gen_community_task(n=60, intra_p=0.3, inter_p=0.02,
                                           seed_fraction=0.2, noise=noise, seed=s)
                     for s in range(6)]
            rep = tg.evaluate(f, insts, tg.EvalConfig(threshold=0.0, latency_runs=1))
            accs.append(rep.accuracy)
        assert all(later <= earlier for earlier, later in zip(accs, accs[1:]))
        assert accs[0] == 1.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="even n"):
            tg.gen_community_task(n=9)
        with pytest.raises(ValueError, match="seed_fraction"):
            tg.gen_community_task(n=10, seed_fraction=0.0)
        with pytest.raises(ValueError, match="intra_p"):
            tg.gen_community_task(n=10, intra_p=0.05, inter_p=0.05)

    def test_disconnected_regime_raises(self):
        with pytest.raises(RuntimeError, match="connected"):
            tg.gen_community_task(n=100, intra_p=0.011, inter_p=0.0005, seed=0)


class TestContradictionTask:
    def test_deterministic(self):
        a = tg.gen_contradiction_task(n=40, base_p=0.25, planted=5, seed=2)
        b = tg.gen_contradiction_task(n=40, base_p=0.25, planted=5, seed=2)
        assert a.graph.edges == b.graph.edges
        assert np.array_equal(a.beliefs, b.beliefs)
        assert np.array_equal(a.labels, b.labels)

    def test_spikes_oppose_background(self):
        spiked = tg.gen_contradiction_task(n=40, base_p=0.25, planted=5,
                                           flip_magnitude=3.0, seed=2)
        with pytest.warns(UserWarning, match="flip_magnitude is zero"):
            clean = tg.gen_contradiction_task(n=40, base_p=0.25, planted=5,
                                              flip_magnitude=0.0, seed=2)
        diff = spiked.beliefs - clean.beliefs
        planted_idx = np.nonzero(spiked.labels)[0]
        assert planted_idx.size == 5
        assert set(np.nonzero(diff)[0].tolist()) == set(planted_idx.tolist())
        assert np.allclose(np.abs(diff[planted_idx]), 3.0)
        # every spike pushes against the smooth background's sign
        assert np.all(np.sign(diff[planted_idx]) == -np.sign(clean.beliefs[planted_idx]))

    def test_declares_high_band(self):
        inst = tg.gen_contradiction_task(n=30, base_p=0.3, planted=3, seed=1)
        assert inst.allowed_bands == (2,)
        assert inst.kind == "contradiction"
        assert int(np.sum(inst.labels)) == 3

    def test_planted_count_validation(self):
        with pytest.raises(ValueError):
            tg.gen_contradiction_task(n=10, base_p=0.5, planted=10)
        with pytest.raises(ValueError):
            tg.gen_contradiction_task(n=10, base_p=0.5, planted=-1)

    def test_highpass_ranking_finds_spikes(self):
        inst = tg.gen_contradiction_task(n=60, base_p=0.2, planted=6,
                                         flip_magnitude=3.0, seed=3)
        basis = gr.eigendecompose(gr.build_laplacian(inst.graph))
        y = ft.dense_filter_apply(basis, ft.highpass(1.0), inst.beliefs)
        auc = tg.ranking_auc(np.abs(np.asarray(y)), inst.labels)
        assert auc >= 0.9


class TestChainTask:
    def test_path_shape(self):
        inst = tg.gen_chain_task(depth=4, branching=1, seed=0)
        assert inst.graph.node_count == 5
        assert len(inst.graph.edges) == 4
        assert len(inst.rulebase.clauses) == 4
        assert inst.allowed_bands == (0, 1)
        assert inst.labels.all()

    def test_tree_shape(self):
        inst = tg.gen_chain_task(depth=2, branching=2, seed=0)
        assert inst.graph.node_count == 7
        assert len(inst.graph.edges) == 6
        assert len(inst.rulebase.clauses) == 6

    def test_deterministic_and_seed_sensitive(self):
        a = tg.gen_chain_task(depth=5, seed=3)
        b = tg.gen_chain_task(depth=5, seed=3)
        c = tg.gen_chain_task(depth=5, seed=4)
        assert a.graph.edges == b.graph.edges
        assert np.array_equal(a.beliefs, b.beliefs)
        assert a.graph.edges != c.graph.edges or not np.array_equal(a.beliefs, c.beliefs)

    def test_single_seed_belief_at_root(self):
        inst = tg.gen_chain_task(depth=6, seed=2)
        assert int(np.count_nonzero(inst.beliefs)) == 1
        root = int(np.nonzero(inst.beliefs)[0][0])
        assert inst.beliefs[root] == 1.0
        # the root atom appears only as a body, never as a head
        heads = {cl.head for cl in inst.rulebase.clauses}
        assert inst.rulebase.atoms[root] not in heads

    def test_closure_matches_brute_force_reachability(self):
        inst = tg.gen_chain_task(depth=6, branching=2, seed=5)
        root = int(np.nonzero(inst.beliefs)[0][0])
        closure = ru.forward_chain(inst.rulebase, {inst.rulebase.atoms[root]})
        adjacency = {}
        for cl in inst.rulebase.clauses:
            (body,) = tuple(cl.body)
            adjacency.setdefault(body, []).append(cl.head)
        reached = {inst.rulebase.atoms[root]}
        frontier = [inst.rulebase.atoms[root]]
        while frontier:
            node = frontier.pop()
            for nxt in adjacency.get(node, ()):
                if nxt not in reached:
                    reached.add(nxt)
                    frontier.append(nxt)
        assert closure == frozenset(reached)
        assert closure == frozenset(inst.rulebase.atoms)

    def test_validation(self):
        with pytest.raises(ValueError):
            tg.gen_chain_task(depth=0)
        with pytest.raises(ValueError):
            tg.gen_chain_task(depth=3, branching=0)


class TestRankingAuc:
    def test_ties_use_midranks(self):
        assert tg.ranking_auc(np.array([1.0, 1.0, 0.0]),
                              np.array([True, False, False])) == 0.75

    def test_perfect_and_reversed(self):
        assert tg.ranking_auc(np.array([0.9, 0.2, 0.7]),
                              np.array([True, False, True])) == 1.0
        assert tg.ranking_auc(np.array([0.1, 0.9]),
                              np.array([True, False])) == 0.0

    def test_degenerate_labels(self):
        with pytest.raises(ValueError):
            tg.ranking_auc(np.array([0.5, 0.6]), np.array([True, True]))

    def test_midranks_match_scipy_rankdata(self):
        rng = np.random.default_rng(3)
        for size in (1, 2, 5, 40, 301):
            for s in (rng.integers(0, 4, size).astype(float), rng.standard_normal(size),
                      np.repeat(rng.standard_normal(3), size)[:size]):
                assert np.array_equal(tg._midranks(s), rankdata(s))
        assert np.isnan(tg._midranks(np.array([1.0, np.nan, 0.5]))).all()


class TestEvaluate:
    def instances(self, count=4):
        return [tg.gen_community_task(n=30, intra_p=0.4, inter_p=0.03,
                                      seed_fraction=0.2, noise=0.1, seed=s)
                for s in range(count)]

    def test_perfect_oracle_scores_one(self, monkeypatch):
        insts = self.instances()
        answers = {inst.beliefs.tobytes(): inst.labels.astype(float) for inst in insts}
        # the model's response on each instance is that instance's labels
        monkeypatch.setattr(tg, "as_response",
                            lambda model, basis, x: answers[np.asarray(x).tobytes()])
        rep = tg.evaluate(ft.identity(), insts, tg.EvalConfig(threshold=0.5, latency_runs=1))
        assert rep.accuracy == 1.0
        assert rep.instances == 4

    def test_constant_zero_scores_half_on_balanced_labels(self):
        rep = tg.evaluate(ft.polynomial(0.0), self.instances(),
                          tg.EvalConfig(threshold=0.5, latency_runs=1))
        assert rep.accuracy == 0.5

    def test_empty_instance_list_rejected(self):
        with pytest.raises(ValueError, match="at least one instance"):
            tg.evaluate(ft.diffusion(1.0), [])

    def test_a_plain_callable_is_no_model(self):
        with pytest.raises(TypeError, match="cannot evaluate a function"):
            tg.evaluate(lambda basis, x: x, self.instances(1), tg.EvalConfig(latency_runs=1))

    @pytest.mark.parametrize("field, value, message", [
        ("threshold", float("nan"), "threshold must be finite"),
        ("threshold", float("inf"), "threshold must be finite"),
        ("latency_runs", 0, "latency_runs must be at least 1, got 0"),
        ("latency_runs", -3, "latency_runs must be at least 1, got -3"),
    ])
    def test_config_refuses_what_it_cannot_run(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            tg.EvalConfig(**{field: value})

    def test_accuracy_fields_reproducible(self):
        insts = self.instances()
        cfg = tg.EvalConfig(threshold=0.0, latency_runs=1)
        r1 = tg.evaluate(ft.diffusion(1.0), insts, cfg)
        r2 = tg.evaluate(ft.diffusion(1.0), insts, cfg)
        assert r1.accuracy == r2.accuracy
        assert r1.band_energies == r2.band_energies
        assert r1.band_fractions == r2.band_fractions
        assert r1.proof_band_agreement == r2.proof_band_agreement

    def test_chain_instances_scored_by_closure(self):
        insts = [tg.gen_chain_task(depth=4, seed=s) for s in range(3)]
        rep = tg.evaluate(ft.diffusion(4.0), insts,
                          tg.EvalConfig(threshold=0.01, latency_runs=1))
        assert rep.accuracy == 1.0

    def test_csv_row_matches_header(self):
        rep = tg.evaluate(ft.diffusion(1.0), self.instances(2),
                          tg.EvalConfig(latency_runs=1))
        lines = rep.to_csv().split("\n")
        assert len(lines) == 3 and lines[-1] == ""  # a header, one row, a final newline
        header, row = (line.split(",") for line in lines[:2])
        assert len(header) == len(row)
        assert header[0] == "model"
        assert "latency_ms" in header
        acc_col = header.index("accuracy")
        assert float(row[acc_col]) == rep.accuracy

    def test_band_fractions_sum_to_one(self):
        rep = tg.evaluate(ft.diffusion(1.0), self.instances(2),
                          tg.EvalConfig(latency_runs=1))
        assert sum(rep.band_fractions) == pytest.approx(1.0, abs=1e-9)



class TestTimingSweep:
    def test_kind_and_shape_validation(self):
        with pytest.raises(ValueError, match="kind"):
            tg.timing_sweep(kind="nodes")
        with pytest.raises(ValueError):
            tg.timing_sweep(doublings=0)
        with pytest.raises(ValueError):
            tg.timing_sweep(runs=2)

    def test_median_is_numpys(self):
        # latency_ms and each timing point take the middle of the sorted samples
        rng = np.random.default_rng(6)
        for size in range(1, 12):
            samples = rng.exponential(size=size) * 10.0 ** float(rng.integers(-9, 0))
            assert tg._median(samples) == float(np.median(samples))

    def test_small_sweep_rows(self):
        rows = tg.timing_sweep(kind="order", base_edges=200, base_order=2,
                               doublings=1, runs=3, seed=0)
        assert len(rows) == 2
        (o0, e0, t0), (o1, e1, t1) = rows
        assert o1 == 2 * o0
        assert e1 == e0
        assert t0 > 0 and t1 > 0
