"""Chebyshev fitting, the sparse recurrence, and the rational solver."""

import json

import numpy as np
import pytest

from specreason import filters as ft
from specreason import graph as gr
from specreason.taskgen import random_gnp


def operator(g, variant="combinatorial"):
    lap = gr.build_laplacian(g, variant)
    est = gr.estimate_lambda_max(lap)
    return lap, gr.scale_laplacian(lap, est.value), est.value


BOUND = {"method": "lanczos", "iterations": 40, "converged": True, "degenerate": False,
         "graph_sha256": "0123456789abcdef" * 4}  # filter.json's bound record


class TestAnalyticResponses:
    def test_diffusion_values(self):
        # h(lam) = 1 / (1 + tau lam), the resolvent the rational path solves
        h = ft.response_eval(ft.diffusion(1.0), [0.0, 1.0, 2.0])
        assert h[0] == 1.0
        assert h[1] == pytest.approx(0.5, abs=1e-15)
        assert h[2] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_highpass_values(self):
        h = ft.response_eval(ft.highpass(1.0), [0.0, 1.0, 3.0])
        assert h.tolist() == [0.0, 0.5, 0.75]

    def test_gaussian_bandpass_peak(self):
        h = ft.response_eval(ft.gaussian_bandpass(1.0, 0.5), [1.0, 0.0])
        assert h[0] == 1.0
        assert h[1] == pytest.approx(np.exp(-2.0), rel=1e-12)

    def test_values_near_the_float_range_are_formed_without_overflow(self):
        # tau * lam and (lam - center) ** 2 would overflow; the true values are in range
        lam = np.array([1.01e308, -1e308, 0.5])
        with np.errstate(over="raise", invalid="raise", divide="raise"):  # 1 / 2e308 underflows
            diffused = ft.diffusion(2.0)(lam)
            wide = ft.gaussian_bandpass(1e200, 1e200)(np.array([3e200, -1e308, 1e200]))
            narrow = ft.gaussian_bandpass(1.0, 0.5)(lam)
        assert diffused[:2] == pytest.approx([1 / 2.02e308, -1 / 2e308], rel=1e-12)
        assert diffused[2] == 1.0 / (1.0 + 2.0 * 0.5)
        assert wide.tolist() == [pytest.approx(np.exp(-2.0), rel=1e-12), 0.0, 1.0]
        assert narrow[:2].tolist() == [0.0, 0.0]
        assert narrow[2] == np.exp(-((0.5 - 1.0) ** 2) / (2.0 * 0.5 * 0.5))

    def test_identity_and_polynomial(self):
        assert ft.response_eval(ft.identity(), [0.0, 5.0]).tolist() == [1.0, 1.0]
        h = ft.response_eval(ft.polynomial(1.0, 2.0), [0.0, 3.0])
        assert h.tolist() == [1.0, 7.0]

    def test_bad_params(self):
        with pytest.raises(ValueError):
            ft.diffusion(-1.0)
        with pytest.raises(ValueError):
            ft.highpass(0.0)
        with pytest.raises(ValueError):
            ft.gaussian_bandpass(1.0, 0.0)


class TestFitChebyshev:
    def test_identity_fits_to_unit_theta(self):
        f = ft.fit_chebyshev(ft.identity(), 8, 2.0)
        expected = np.zeros(9)
        expected[0] = 1.0
        assert np.allclose(f.theta, expected, atol=1e-12)

    def test_linear_response_exact(self):
        # h(lam) = lam maps to T_1 after rescaling: lam = (lt + 1) * lmax / 2
        f = ft.fit_chebyshev(ft.polynomial(0.0, 1.0), 4, 2.0)
        assert np.allclose(f.theta, [1.0, 1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_diffusion_grid_error_small_at_16(self):
        f = ft.fit_chebyshev(ft.diffusion(1.0), 16, 2.0)
        assert ft.fit_grid_error(f, ft.diffusion(1.0)) <= 1e-6

    def test_error_non_increasing_in_order(self):
        errors = [ft.fit_grid_error(ft.fit_chebyshev(ft.diffusion(1.0), k, 2.0),
                                    ft.diffusion(1.0))
                  for k in (2, 4, 8, 16)]
        assert all(b <= a + 1e-15 for a, b in zip(errors, errors[1:]))

    def test_rejects_bad_order_and_lambda(self):
        with pytest.raises(ValueError):
            ft.fit_chebyshev(ft.identity(), -1, 2.0)
        with pytest.raises(ValueError):
            ft.fit_chebyshev(ft.identity(), 4, 0.0)


class TestChebApply:
    def test_matches_dense_functional_calculus(self):
        rng = np.random.default_rng(11)
        for seed in range(8):
            g = random_gnp(20, 0.3, seed=seed)
            lap, lt, lmax = operator(g)
            basis = gr.eigendecompose(lap)
            theta = rng.standard_normal(9)
            f = ft.ChebyshevFilter(theta=theta, lambda_max=lmax)
            x = rng.standard_normal(20)
            sparse = np.asarray(ft.cheb_apply(f, lt, x))
            dense = np.asarray(ft.dense_filter_apply(basis, f, x))
            scale = max(1.0, float(np.linalg.norm(dense)))
            assert np.linalg.norm(sparse - dense) / scale <= 1e-10

    def test_lambda_max_mismatch_rejected(self):
        # a bound near 1e-12 too: the match is relative, with no absolute floor
        g = random_gnp(10, 0.4, seed=0)
        lap, lt, lmax = operator(g)
        for scale in (1.0, 2.0 ** -40):
            lt = gr.scale_laplacian(lap, lmax * scale)
            f = ft.ChebyshevFilter(theta=np.array([1.0, 0.5]), lambda_max=lmax * scale * 2.0)
            with pytest.raises(ValueError, match="lambda_max"):
                ft.cheb_apply(f, lt, np.ones(10))

    def test_trace_holds_recurrence_vectors(self):
        g = random_gnp(12, 0.4, seed=3)
        lap, lt, lmax = operator(g)
        f = ft.fit_chebyshev(ft.diffusion(1.0), 5, lmax)
        x = np.random.default_rng(2).standard_normal(12)
        y, trace = ft.cheb_apply(f, lt, x, keep_trace=True)
        assert trace.shape == (6, 12) and not trace.flags.writeable
        assert np.array_equal(trace[0], x)
        # b1 = Lt x
        assert np.allclose(trace[1], lt @ x, atol=1e-12)
        rebuilt = sum(t * b for t, b in zip(f.theta, trace))
        assert np.allclose(rebuilt, np.asarray(y), atol=1e-12)
        # training forms outputs from kept traces; they must carry the recurrence's bits
        assert np.array_equal(ft.chebyshev_sum(f.theta, trace), np.asarray(y))

    def test_order_zero(self):
        g = random_gnp(8, 0.5, seed=1)
        lap, lt, lmax = operator(g)
        f = ft.ChebyshevFilter(theta=np.array([2.0]), lambda_max=lmax)
        x = np.arange(8.0)
        assert np.allclose(np.asarray(ft.cheb_apply(f, lt, x)), 2.0 * x)


class TestFilterJson:
    def test_round_trip_is_exact(self, tmp_path):
        theta = np.random.default_rng(4).standard_normal(7)
        f = ft.ChebyshevFilter(theta=theta, lambda_max=2.7182818284590451)
        path = tmp_path / "f.json"
        path.write_text(f.to_json() + "\n", encoding="utf-8")
        g = ft.load_filter(path.read_bytes())
        assert np.array_equal(g.theta, f.theta)
        assert g.lambda_max == f.lambda_max

    def test_json_stable_across_dumps(self):
        f = ft.ChebyshevFilter(theta=np.array([1.0, -0.25]), lambda_max=2.0)
        assert f.to_json() == f.to_json()

    def test_load_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"lambda_max": 2.0}', encoding="utf-8")
        with pytest.raises(ValueError):
            ft.load_filter(path.read_bytes())

    def test_json_without_bound_keeps_two_keys(self):
        f = ft.ChebyshevFilter(theta=np.array([1.0, -0.25]), lambda_max=2.0)
        assert f.to_json() == '{"lambda_max": 2, "theta": [1, -0.25]}'

    def test_bound_record_round_trips(self, tmp_path):
        estimate = gr.LambdaMaxEstimate(value=3.25, iterations=40, converged=True,
                                        degenerate=False, method="lanczos")
        f = ft.ChebyshevFilter(theta=np.array([0.5, 0.1]), lambda_max=3.25, bound=estimate,
                               graph_sha256=BOUND["graph_sha256"])
        text = f.to_json()
        assert text.startswith(
            '{"lambda_max": 3.25, "theta": [0.5, 0.10000000000000001], "bound": {')
        assert list(json.loads(text)["bound"].items()) == list(BOUND.items())
        (tmp_path / "f.json").write_text(text, encoding="utf-8")
        g = ft.load_filter((tmp_path / "f.json").read_bytes())
        assert g.bound == estimate and g.graph_sha256 == f.graph_sha256
        assert g.lambda_max == f.lambda_max
        assert g.to_json() == text

    @pytest.mark.parametrize("payload", [
        {"lambda_max": 2.0, "theta": [1.0], "extra": 1},
        {"lambda_max": 2.0, "theta": [1.0], "bound": None},
        {"lambda_max": 2.0, "theta": [1.0], "bound": {**BOUND, "seed": 0}},
        {"lambda_max": 2.0, "theta": [1.0],
         "bound": {k: v for k, v in BOUND.items() if k != "method"}},
        {"lambda_max": 2.0, "theta": [1.0], "bound": {**BOUND, "iterations": 6.0}},
        {"lambda_max": 2.0, "theta": [1.0], "bound": {**BOUND, "converged": 1}},
        {"lambda_max": 2.0, "theta": [1.0], "bound": {**BOUND, "graph_sha256": "ab"}},
    ])
    def test_rejects_other_keys_and_malformed_bound(self, tmp_path, payload):
        (tmp_path / "f.json").write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError):
            ft.load_filter((tmp_path / "f.json").read_bytes())



class TestRationalApply:
    def test_p2_closed_form(self):
        # (I + L)^-1 (1, 0) on P2 is (2/3, 1/3)
        lap = gr.build_laplacian(gr.Graph(node_count=2, edges=((0, 1, 1.0),)))
        y = np.asarray(ft.rational_apply(1.0, lap, np.array([1.0, 0.0])))
        assert np.allclose(y, [2.0 / 3.0, 1.0 / 3.0], atol=1e-9)

    def test_matches_dense_rational_response(self):
        rng = np.random.default_rng(6)
        for seed in range(6):
            g = random_gnp(18, 0.3, seed=seed)
            lap = gr.build_laplacian(g)
            basis = gr.eigendecompose(lap)
            x = rng.standard_normal(18)
            tau = float(rng.uniform(0.2, 3.0))
            y = np.asarray(ft.rational_apply(tau, lap, x))
            hvals = 1.0 / (1.0 + tau * basis.eigenvalues)
            dense = basis.eigenvectors @ (hvals * (basis.eigenvectors.T @ x))
            assert np.linalg.norm(y - dense) <= 1e-8 * max(1.0, np.linalg.norm(dense))

    def test_residual_error_reported(self, monkeypatch):
        monkeypatch.setattr(ft, "_CG_TOL", 1e-16)
        monkeypatch.setattr(ft, "_CG_STEPS_PER_NODE", 1 / 16)  # one step on 16 nodes
        lap = gr.build_laplacian(random_gnp(16, 0.4, seed=2))
        x = np.random.default_rng(9).standard_normal(16)
        with pytest.raises(ft.SolverError) as err:
            ft.rational_apply(1.0, lap, x)
        assert err.value.iterations == 1
        assert err.value.residual > 0

    def test_tau_zero_is_identity(self):
        lap = gr.build_laplacian(random_gnp(10, 0.4, seed=8))
        x = np.random.default_rng(3).standard_normal(10)
        assert np.allclose(np.asarray(ft.rational_apply(0.0, lap, x)), x, atol=1e-12)

    def test_negative_tau_rejected(self):
        lap = gr.build_laplacian(gr.Graph(node_count=2, edges=((0, 1, 1.0),)))
        with pytest.raises(ValueError):
            ft.rational_apply(-0.5, lap, np.ones(2))
