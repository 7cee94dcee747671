"""Gradients, penalties, expert mixtures, curricula, and the training loop."""

import numpy as np
import pytest

from specreason import analysis as an
from specreason import filters as ft
from specreason import graph as gr
from specreason import training as tr
from specreason.taskgen import random_gnp


def operator(n=10, p=0.4, seed=0):
    lap = gr.build_laplacian(random_gnp(n, p, seed=seed))
    est = gr.estimate_lambda_max(lap)
    return lap, gr.scale_laplacian(lap, est.value), est.value


def loss_and_grad_y(y, target):
    diff = np.asarray(y) - target
    return float(diff @ diff), 2.0 * diff


class TestGradTheta:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for seed in range(5):
            lap, lt, lmax = operator(n=10, seed=seed)
            theta = rng.standard_normal(6)
            x = rng.standard_normal(10)
            target = rng.standard_normal(10)
            f = ft.ChebyshevFilter(theta=theta, lambda_max=lmax)
            y, trace = ft.cheb_apply(f, lt, x, keep_trace=True)
            _, dy = loss_and_grad_y(y, target)
            grad = tr.grad_theta(dy, trace)
            step = 1e-6
            for k in range(theta.size):
                bumped = theta.copy()
                bumped[k] += step
                up, _ = loss_and_grad_y(
                    ft.cheb_apply(ft.ChebyshevFilter(theta=bumped, lambda_max=lmax), lt, x),
                    target)
                bumped[k] -= 2 * step
                down, _ = loss_and_grad_y(
                    ft.cheb_apply(ft.ChebyshevFilter(theta=bumped, lambda_max=lmax), lt, x),
                    target)
                fd = (up - down) / (2 * step)
                assert grad[k] == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_linear_in_upstream_gradient(self):
        lap, lt, lmax = operator(n=8, seed=3)
        f = ft.fit_chebyshev(ft.diffusion(1.0), 4, lmax)
        x = np.random.default_rng(2).standard_normal(8)
        _, trace = ft.cheb_apply(f, lt, x, keep_trace=True)
        g1 = tr.grad_theta(np.ones(8), trace)
        g2 = tr.grad_theta(2.0 * np.ones(8), trace)
        assert np.allclose(g2, 2.0 * g1, atol=1e-14)


class TestGradScaledLaplacian:
    def test_matches_finite_differences_in_symmetric_directions(self):
        rng = np.random.default_rng(4)
        for seed in range(3):
            lap, lt, lmax = operator(n=8, p=0.5, seed=seed)
            theta = rng.standard_normal(5)
            x = rng.standard_normal(8)
            target = rng.standard_normal(8)
            f = ft.ChebyshevFilter(theta=theta, lambda_max=lmax)
            y, trace = ft.cheb_apply(f, lt, x, keep_trace=True)
            _, dy = loss_and_grad_y(y, target)
            grad = tr.grad_scaled_laplacian(dy, theta, trace, lt)
            assert np.allclose(grad, grad.T, atol=1e-12)
            dense = lt.toarray()
            step = 1e-5
            for _ in range(6):
                i, j = rng.integers(0, 8, size=2)
                direction = np.zeros((8, 8))
                direction[i, j] += 0.5
                direction[j, i] += 0.5
                def value(mat):
                    b_prev = x
                    b_cur = mat @ x
                    acc = theta[0] * b_prev + theta[1] * b_cur
                    for k in range(2, theta.size):
                        b_prev, b_cur = b_cur, 2.0 * (mat @ b_cur) - b_prev
                        acc = acc + theta[k] * b_cur
                    loss, _ = loss_and_grad_y(acc, target)
                    return loss
                fd = (value(dense + step * direction) - value(dense - step * direction)) / (2 * step)
                analytic = float(np.sum(grad * direction))
                assert analytic == pytest.approx(fd, rel=1e-4, abs=1e-7)


class TestPenalties:
    def test_proof_penalty_bounds(self):
        lap, lt, lmax = operator(n=12, seed=8)
        basis = gr.eigendecompose(lap)
        part = an.default_three_band(basis.lambda_max)
        y = np.random.default_rng(9).standard_normal(12)
        for bands in ((0,), (1,), (0, 1), (0, 1, 2)):
            p, _ = tr.proof_guided_penalty(basis, y, bands, part)
            assert 0.0 <= p <= 1.0
        p, grad = tr.proof_guided_penalty(basis, y, (0, 1, 2), part)
        assert p == pytest.approx(0.0, abs=1e-12) and np.allclose(grad, 0.0, atol=1e-12)
        with pytest.raises(ValueError, match="outside the partition"):
            tr.proof_guided_penalty(basis, y, (3,), part)

    def test_proof_penalty_pure_band_signal(self):
        basis = gr.eigendecompose(gr.build_laplacian(
            gr.Graph(node_count=2, edges=((0, 1, 1.0),))))
        part = an.default_three_band(basis.lambda_max)
        constant = np.array([1.0, 1.0])  # pure low band
        assert tr.proof_guided_penalty(basis, constant, (0,), part)[0] == 0.0
        assert tr.proof_guided_penalty(basis, constant, (2,), part)[0] == 1.0

    def test_proof_penalty_gradient_matches_differences(self):
        lap, lt, lmax = operator(n=10, seed=3)
        basis = gr.eigendecompose(lap)
        part = an.default_three_band(basis.lambda_max)
        y = np.random.default_rng(4).standard_normal(10)
        _, grad = tr.proof_guided_penalty(basis, y, (0,), part)
        h = 1e-6
        for i in range(10):
            step = np.zeros(10)
            step[i] = h
            up, _ = tr.proof_guided_penalty(basis, y + step, (0,), part)
            down, _ = tr.proof_guided_penalty(basis, y - step, (0,), part)
            assert grad[i] == pytest.approx((up - down) / (2 * h), abs=1e-8)


class TestMose:
    def model(self, lmax=2.0):
        experts = (ft.ChebyshevFilter(theta=np.array([1.0, 0.0, 0.0]), lambda_max=lmax),
                   ft.ChebyshevFilter(theta=np.array([0.0, 1.0]), lambda_max=lmax))
        weights = np.zeros((2, 5))
        weights[0, 0] = np.log(3.0)
        return tr.MoSEModel(experts=experts, gating_weights=weights)

    def test_gate_frozen_softmax(self):
        feats = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        assert np.allclose(tr.mose_gate(self.model(), feats), [0.75, 0.25], atol=1e-12)

    def test_gate_is_simplex(self):
        rng = np.random.default_rng(10)
        model = tr.MoSEModel(
            experts=tuple(ft.ChebyshevFilter(theta=rng.standard_normal(4), lambda_max=2.0)
                          for _ in range(3)),
            gating_weights=rng.standard_normal((3, 5)))
        for _ in range(50):
            alpha = tr.mose_gate(model, rng.standard_normal(5))
            assert np.all(alpha >= 0)
            assert abs(alpha.sum() - 1.0) <= 1e-12

    def test_pooled_coefficients_zero_pad(self):
        pooled = tr.pooled_coefficients(self.model(), np.array([0.75, 0.25]))
        assert np.allclose(pooled, [0.75, 0.25, 0.0], atol=1e-15)

    def test_mose_apply_matches_pooled_filter(self):
        lap, lt, lmax = operator(n=14, p=0.35, seed=11)
        rng = np.random.default_rng(12)
        experts = tuple(ft.ChebyshevFilter(theta=rng.standard_normal(k + 1), lambda_max=lmax)
                        for k in (2, 4, 3))
        model = tr.MoSEModel(experts=experts, gating_weights=rng.standard_normal((3, 5)))
        basis = gr.eigendecompose(lap)
        x = rng.standard_normal(14)
        feats = tr.gating_features(basis, x)
        alpha = tr.mose_gate(model, feats)
        out = np.asarray(tr.mose_apply(model, lt, x, feats))
        pooled = ft.ChebyshevFilter(theta=tr.pooled_coefficients(model, alpha),
                                    lambda_max=lmax)
        expected = np.asarray(ft.cheb_apply(pooled, lt, x))
        assert np.linalg.norm(out - expected) <= 1e-10 * max(1.0, np.linalg.norm(expected))

    def test_mose_apply_stays_in_expert_hull(self):
        # convex gate: pooled response lies between per-expert extremes
        lap, lt, lmax = operator(n=10, p=0.4, seed=13)
        rng = np.random.default_rng(14)
        experts = tuple(ft.ChebyshevFilter(theta=rng.standard_normal(3), lambda_max=lmax)
                        for _ in range(2))
        model = tr.MoSEModel(experts=experts, gating_weights=rng.standard_normal((2, 5)))
        basis = gr.eigendecompose(lap)
        x = rng.standard_normal(10)
        feats = tr.gating_features(basis, x)
        out = np.asarray(tr.mose_apply(model, lt, x, feats))
        expert_outs = [np.asarray(ft.cheb_apply(e, lt, x)) for e in experts]
        low = np.minimum(*expert_outs) - 1e-12
        high = np.maximum(*expert_outs) + 1e-12
        assert np.all(out >= low) and np.all(out <= high)

    def test_gating_features_frozen(self):
        basis = gr.eigendecompose(gr.build_laplacian(
            gr.Graph(node_count=2, edges=((0, 1, 1.0),))))
        feats = tr.gating_features(basis, np.array([1.0, 1.0]))
        assert np.allclose(feats, [2.0, 1.0, 0.0, 0.0, 2.0], atol=1e-12)


class TestCurriculum:
    def test_mask_follows_stages(self):
        schedule = tr.CurriculumSchedule(stages=((0, 1), (10, 3), (20, 5)))
        assert tr.curriculum_mask(schedule, 0, 5).tolist() == [True, True, False, False, False, False]
        assert tr.curriculum_mask(schedule, 10, 5).tolist() == [True, True, True, True, False, False]
        assert tr.curriculum_mask(schedule, 25, 5).tolist() == [True] * 6

    def test_active_set_monotone(self):
        schedule = tr.CurriculumSchedule(stages=((0, 0), (5, 2), (7, 4)))
        previous = np.zeros(6, dtype=bool)
        for epoch in range(12):
            mask = tr.curriculum_mask(schedule, epoch, 5)
            assert np.all(previous <= mask)
            previous = mask

    def test_no_schedule_unlocks_everything(self):
        assert tr.curriculum_mask(None, 0, 4).all()

    def test_stage_validation(self):
        with pytest.raises(ValueError):
            tr.CurriculumSchedule(stages=((1, 2),))
        with pytest.raises(ValueError):
            tr.CurriculumSchedule(stages=((0, 3), (5, 1)))
        with pytest.raises(ValueError):
            tr.CurriculumSchedule(stages=())


def teacher_data(lt, lmax, order, count, seed):
    teacher = ft.fit_chebyshev(ft.diffusion(1.0), order, lmax)
    rng = np.random.default_rng(seed)
    data = []
    for _ in range(count):
        x = rng.standard_normal(lt.node_count)
        data.append(tr.TrainExample(x=x, target=np.asarray(ft.cheb_apply(teacher, lt, x))))
    return teacher, data


class TestTrain:
    def test_loss_decreases(self):
        lap, lt, lmax = operator(n=12, p=0.5, seed=17)
        _, data = teacher_data(lt, lmax, 6, 8, seed=18)
        student = ft.ChebyshevFilter(theta=np.zeros(7), lambda_max=lmax)
        result = tr.train(student, lt, data, tr.PenaltyWeights(),
                          config=tr.TrainConfig(learning_rate=0.05, epochs=150))
        first, last = result.history[0][1], result.history[-1][1]
        assert last < first / 10
        assert all(np.isfinite(row[1]) for row in result.history)

    def test_zero_learning_rate_changes_nothing(self):
        lap, lt, lmax = operator(n=10, seed=19)
        _, data = teacher_data(lt, lmax, 4, 5, seed=20)
        theta0 = np.random.default_rng(21).standard_normal(5)
        student = ft.ChebyshevFilter(theta=theta0, lambda_max=lmax)
        result = tr.train(student, lt, data, tr.PenaltyWeights(),
                          config=tr.TrainConfig(learning_rate=0.0, epochs=10))
        assert np.array_equal(result.model.theta, theta0)
        losses = {row[1] for row in result.history}
        assert len(losses) == 1

    def test_identical_seeds_identical_history(self):
        lap, lt, lmax = operator(n=10, seed=22)
        _, data = teacher_data(lt, lmax, 4, 5, seed=23)
        student = ft.ChebyshevFilter(theta=np.zeros(5), lambda_max=lmax)
        cfg = tr.TrainConfig(learning_rate=0.05, epochs=30)
        r1 = tr.train(student, lt, data, tr.PenaltyWeights(), config=cfg)
        r2 = tr.train(student, lt, data, tr.PenaltyWeights(), config=cfg)
        assert r1.history == r2.history
        assert np.array_equal(r1.model.theta, r2.model.theta)

    def test_curriculum_freezes_masked_coefficients(self):
        lap, lt, lmax = operator(n=10, seed=24)
        _, data = teacher_data(lt, lmax, 4, 5, seed=25)
        student = ft.ChebyshevFilter(theta=np.zeros(5), lambda_max=lmax)
        schedule = tr.CurriculumSchedule(stages=((0, 1),))  # only theta_0, theta_1 ever move
        result = tr.train(student, lt, data, tr.PenaltyWeights(),
                          schedule=schedule,
                          config=tr.TrainConfig(learning_rate=0.05, epochs=40))
        assert np.array_equal(result.model.theta[2:], np.zeros(3))
        assert not np.array_equal(result.model.theta[:2], np.zeros(2))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_detected(self):
        lap, lt, lmax = operator(n=10, seed=26)
        _, data = teacher_data(lt, lmax, 4, 5, seed=27)
        student = ft.ChebyshevFilter(theta=np.zeros(5), lambda_max=lmax)
        with pytest.raises(tr.DivergenceError):
            tr.train(student, lt, data, tr.PenaltyWeights(),
                     config=tr.TrainConfig(learning_rate=1e12, epochs=200, clip_norm=None))

    def test_proof_penalty_steers_energy(self):
        lap, lt, lmax = operator(n=12, p=0.5, seed=28)
        basis = gr.eigendecompose(lap)
        part = an.default_three_band(basis.lambda_max)
        rng = np.random.default_rng(29)
        data = [tr.TrainExample(x=rng.standard_normal(12),
                                target=rng.standard_normal(12)) for _ in range(6)]
        student = ft.ChebyshevFilter(theta=np.zeros(5), lambda_max=lmax)
        context = tr.PenaltyContext(basis=basis, partition=part, allowed_bands=(0,))
        plain = tr.train(student, lt, data, tr.PenaltyWeights(),
                         config=tr.TrainConfig(learning_rate=0.02, epochs=120))
        penalized = tr.train(student, lt, data,
                             tr.PenaltyWeights(proof=5.0),
                             config=tr.TrainConfig(learning_rate=0.02, epochs=120),
                             context=context)

        def allowed_fraction(model):
            fracs = np.zeros(3)
            for ex in data:
                y = np.asarray(ft.cheb_apply(model, lt, ex.x))
                fracs += an.band_energy(basis, y, part).fractions
            return fracs[0] / len(data)

        assert allowed_fraction(penalized.model) >= allowed_fraction(plain.model)

    def test_history_csv_shape(self):
        lap, lt, lmax = operator(n=8, seed=30)
        _, data = teacher_data(lt, lmax, 3, 4, seed=31)
        student = ft.ChebyshevFilter(theta=np.zeros(4), lambda_max=lmax)
        result = tr.train(student, lt, data, tr.PenaltyWeights(),
                          config=tr.TrainConfig(learning_rate=0.05, epochs=5))
        text = tr.history_to_csv(result.history)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(tr.HISTORY_COLUMNS)
        assert len(lines) == 6

    def test_mose_training_runs_and_improves(self):
        lap, lt, lmax = operator(n=12, p=0.5, seed=32)
        _, data = teacher_data(lt, lmax, 4, 8, seed=33)
        rng = np.random.default_rng(34)
        model = tr.MoSEModel(
            experts=tuple(ft.ChebyshevFilter(theta=0.01 * rng.standard_normal(5),
                                             lambda_max=lmax) for _ in range(2)),
            gating_weights=np.zeros((2, 5)))
        context = tr.PenaltyContext(basis=gr.eigendecompose(lap))
        result = tr.train(model, lt, data, tr.PenaltyWeights(),
                          config=tr.TrainConfig(learning_rate=0.05, epochs=120),
                          context=context)
        assert result.history[-1][1] < result.history[0][1] / 5
        assert isinstance(result.model, tr.MoSEModel)

    @pytest.mark.parametrize("kind", ["chebyshev", "mose"])
    def test_recurrence_runs_once_per_example_per_operator(self, monkeypatch, kind):
        lap, lt, lmax = operator(n=12, p=0.5, seed=40)
        basis = gr.eigendecompose(lap)
        _, data = teacher_data(lt, lmax, 4, 3, seed=41)
        student = ft.ChebyshevFilter(theta=np.zeros(5), lambda_max=lmax)
        if kind == "mose":
            student = tr.MoSEModel(experts=(student, ft.ChebyshevFilter(np.zeros(3), lmax)),
                                   gating_weights=np.zeros((2, 5)))
        cfg = tr.TrainConfig(epochs=7)
        calls = []
        cheb_apply = ft.cheb_apply

        def counted(f, lt_arg, *args, **kwargs):
            calls.append(lt_arg)
            return cheb_apply(f, lt_arg, *args, **kwargs)

        monkeypatch.setattr(ft, "cheb_apply", counted)
        tr.train(student, lt, data, tr.PenaltyWeights(), config=cfg,
                 context=tr.PenaltyContext(basis=basis))
        assert len(calls) == len(data)
        assert all(op is lt for op in calls)

    @pytest.mark.parametrize("kind", ["chebyshev", "mose"])
    def test_given_traces_train_as_built_ones(self, monkeypatch, kind):
        lap, lt, lmax = operator(n=12, p=0.5, seed=42)
        teacher, data = teacher_data(lt, lmax, 4, 3, seed=43)
        traces = [ft.cheb_apply(teacher, lt, ex.x, keep_trace=True)[1] for ex in data]
        student = ft.ChebyshevFilter(theta=np.zeros(5), lambda_max=lmax)
        if kind == "mose":
            student = tr.MoSEModel(experts=(student, ft.ChebyshevFilter(np.zeros(3), lmax)),
                                   gating_weights=np.full((2, 5), 0.01))
        cfg = tr.TrainConfig(epochs=6)
        context = tr.PenaltyContext(basis=gr.eigendecompose(lap))
        built = tr.train(student, lt, data, config=cfg, context=context)
        calls = []
        cheb_apply = ft.cheb_apply
        monkeypatch.setattr(ft, "cheb_apply",
                            lambda *a, **k: calls.append(a) or cheb_apply(*a, **k))
        given = tr.train(student, lt, data, config=cfg, context=context, traces=traces)
        assert np.array(given.history).tobytes() == np.array(built.history).tobytes()
        def arrays(model):
            return ([e.theta for e in getattr(model, "experts", (model,))]
                    + [getattr(model, "gating_weights", np.empty(0))])

        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(arrays(given.model), arrays(built.model), strict=True))
        assert calls == []

    @pytest.mark.parametrize("case", ["count", "order", "beliefs"])
    def test_traces_not_of_the_examples_refused(self, case):
        lap, lt, lmax = operator(n=12, p=0.5, seed=42)
        teacher, data = teacher_data(lt, lmax, 4, 3, seed=43)
        order, xs = 4, [ex.x for ex in data]
        if case == "count":
            xs = xs[:2]
        elif case == "order":
            order = 3
        else:
            xs = xs[::-1]
        probe = ft.ChebyshevFilter(theta=np.zeros(order + 1), lambda_max=lmax)
        traces = [ft.cheb_apply(probe, lt, x, keep_trace=True)[1] for x in xs]
        student = ft.ChebyshevFilter(theta=np.zeros(5), lambda_max=lmax)
        with pytest.raises(ValueError, match="one recurrence per example"):
            tr.train(student, lt, data, traces=traces)
