"""Gradients, penalties, expert mixtures, curricula, and the training loop."""

from dataclasses import replace

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


# The y-space training loop as it ran before training moved to coefficient space:
# every epoch forms each output y = B^T c from its trace and pulls the gradient
# back through B. Kept as the reference the factored loop must agree with.

def y_space_proof_penalty(basis, y, allowed_bands, partition):
    disallowed = ~np.isin(partition.band_of(basis.eigenvalues), sorted(set(allowed_bands)))
    yhat = basis.eigenvectors.T @ y
    total = float(yhat @ yhat)
    if total <= 0.0:
        return 0.0, np.zeros_like(y)
    penalty = float((yhat[disallowed] ** 2).sum()) / total
    proj = basis.eigenvectors @ (np.where(disallowed, yhat, 0.0))
    return penalty, (2.0 / total) * (proj - penalty * y)


def y_space_terms(pw, ctx, y, target):
    """Data term, proof and transfer penalties of one output, and the weighted gradient in y."""
    n = y.size
    diff = y - target
    value, g_y = float(diff @ diff) / n, (2.0 / n) * diff
    proof = transfer = 0.0
    if pw.proof > 0:
        proof, pen_grad = y_space_proof_penalty(ctx.basis, y, ctx.allowed_bands, ctx.partition)
        g_y = g_y + pw.proof * pen_grad
    if pw.transfer > 0:
        spectral = ctx.basis.eigenvectors.T @ (y - ctx.transfer_reference)
        transfer = float(spectral @ spectral) / n
        g_y = g_y + pw.transfer * (2.0 / n) * (ctx.basis.eigenvectors @ spectral)
    return value, proof, transfer, g_y


def y_space_train(model, traces, targets, pw, schedule, cfg, ctx):
    def clipped(grad):
        norm = float(np.linalg.norm(grad))
        if cfg.clip_norm is not None and norm > cfg.clip_norm:
            return grad * (cfg.clip_norm / norm)
        return grad

    order = model.order
    theta, history = model.theta, []
    for epoch in range(cfg.epochs):
        g_theta = np.zeros(order + 1)
        sums = np.zeros(3)
        for trace, target in zip(traces, targets):
            y = ft.chebyshev_sum(theta, trace)
            value, proof, transfer, g_y = y_space_terms(pw, ctx, y, target)
            sums += (value, proof, transfer)
            g_theta += trace @ g_y
        count = len(traces)
        data_total, proof_total, transfer_total = sums / count
        history.append((epoch, data_total + pw.proof * proof_total + pw.transfer * transfer_total,
                        data_total, proof_total, transfer_total))
        mask = tr.curriculum_mask(schedule, epoch, order)
        theta = theta - cfg.learning_rate * clipped(np.where(mask, g_theta / count, 0.0))
    return ft.ChebyshevFilter(theta=theta, lambda_max=model.lambda_max), history


def y_space_loss(theta, lt, x, target, pw=tr.PenaltyWeights(), ctx=tr.PenaltyContext()):
    """Weighted loss of one example, its output formed through cheb_apply."""
    y = np.asarray(ft.cheb_apply(ft.ChebyshevFilter(theta=theta, lambda_max=lt.lambda_max),
                                 lt, x))
    value, proof, transfer, _ = y_space_terms(pw, ctx, y, target)
    return value + pw.proof * proof + pw.transfer * transfer


def factored(lt, theta, x, target, pw=tr.PenaltyWeights(), ctx=tr.PenaltyContext()):
    """train's raw loss terms of one example at theta, and each term's gradient."""
    probe = ft.ChebyshevFilter(theta=np.zeros(theta.size), lambda_max=lt.lambda_max)
    _, trace = ft.cheb_apply(probe, lt, x, keep_trace=True)
    rows = reference = None
    if pw.proof > 0:
        rows = ctx.basis.eigenvectors[:, ~np.isin(ctx.partition.band_of(ctx.basis.eigenvalues),
                                                  ctx.allowed_bands)].T
    if pw.transfer > 0:
        reference = ctx.transfer_reference
    return tr._FactoredLoss(trace, target, rows, reference)(theta)


def central_differences(fn, theta, step=1e-6):
    fd = np.zeros_like(theta)
    for k in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[k] += step
        down[k] -= step
        fd[k] = (fn(up) - fn(down)) / (2 * step)
    return fd


class TestGradTheta:
    def test_matches_finite_differences(self):
        # the coefficient-space gradient of each term against differences of the y-space loss
        rng = np.random.default_rng(1)
        for seed in range(5):
            lap, lt, lmax = operator(n=10, seed=seed)
            basis = gr.eigendecompose(lap)
            ctx = tr.PenaltyContext(basis=basis, partition=an.equal_bands(basis, 3),
                                    allowed_bands=(0,),
                                    transfer_reference=rng.standard_normal(10))
            theta = rng.standard_normal(6)
            x = rng.standard_normal(10)
            target = rng.standard_normal(10)
            for pw in (tr.PenaltyWeights(), tr.PenaltyWeights(proof=0.7),
                       tr.PenaltyWeights(transfer=0.4)):
                _, grads = factored(lt, theta, x, target, pw, ctx)
                grad = np.array([1.0, pw.proof, pw.transfer]) @ grads
                fd = central_differences(lambda th: y_space_loss(th, lt, x, target, pw, ctx), theta)
                assert grad == pytest.approx(fd, rel=1e-6, abs=1e-8)


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
    def proof_case(self, n=12, seed=8):
        lap, lt, lmax = operator(n=n, seed=seed)
        basis = gr.eigendecompose(lap)
        return lt, basis, an.equal_bands(basis, 3)

    def proof(self, lt, basis, part, bands, theta, x):
        ctx = tr.PenaltyContext(basis=basis, partition=part, allowed_bands=bands)
        values, grads = factored(lt, theta, x, np.zeros(x.size), tr.PenaltyWeights(proof=1.0), ctx)
        return values[1], grads[1]

    @pytest.mark.parametrize("weights", [{"proof": -1.0}, {"transfer": -0.5},
                                         {"proof": float("nan")}, {"transfer": float("inf")}])
    def test_weights_refuse_negative_or_non_finite(self, weights):
        with pytest.raises(ValueError, match="must be finite and nonnegative"):
            tr.PenaltyWeights(**weights)

    def test_proof_penalty_bounds(self):
        lt, basis, part = self.proof_case()
        rng = np.random.default_rng(9)
        theta, x = rng.standard_normal(5), rng.standard_normal(12)
        for bands in ((0,), (1,), (0, 1), (0, 1, 2)):
            p, _ = self.proof(lt, basis, part, bands, theta, x)
            assert 0.0 <= p <= 1.0
        p, grad = self.proof(lt, basis, part, (0, 1, 2), theta, x)
        assert p == pytest.approx(0.0, abs=1e-12) and np.allclose(grad, 0.0, atol=1e-12)
        p, grad = self.proof(lt, basis, part, (0,), np.zeros(5), x)
        assert p == 0.0 and not grad.any()  # a zero output scores 0
        student = ft.ChebyshevFilter(theta=theta, lambda_max=lt.lambda_max)
        context = tr.PenaltyContext(basis=basis, partition=part, allowed_bands=(3,))
        with pytest.raises(ValueError, match="outside the partition"):
            tr.train(student, traces_of(student, lt, [x]), [np.zeros(12)],
                     tr.PenaltyWeights(proof=1.0), context=context)

    def test_transfer_reference_is_one_output_per_node(self):
        lap, lt, lmax = operator(n=10, seed=3)
        _, traces, targets = teacher_data(lt, lmax, 3, 2, seed=4)
        student = ft.ChebyshevFilter(theta=np.zeros(4), lambda_max=lmax)
        transfer = tr.PenaltyWeights(transfer=0.5)
        for reference in (None, np.zeros(9)):
            with pytest.raises(ValueError, match="one value per node"):
                tr.train(student, traces, targets, transfer,
                         context=tr.PenaltyContext(transfer_reference=reference))
        # the penalty works in node space: it needs no basis
        result = tr.train(student, traces, targets, transfer, config=tr.TrainConfig(epochs=2),
                          context=tr.PenaltyContext(transfer_reference=np.zeros(10)))
        assert len(result.history) == 2 and result.history[-1][4] > 0

    def test_proof_penalty_pure_band_signal(self):
        lap = gr.build_laplacian(gr.Graph(node_count=2, edges=((0, 1, 1.0),)))
        basis = gr.eigendecompose(lap)
        lt = gr.scale_laplacian(lap, basis.lambda_max)
        part = an.equal_bands(basis, 3)
        constant = np.array([1.0, 1.0])  # pure low band
        identity = np.array([1.0, 0.0])
        assert self.proof(lt, basis, part, (0,), identity, constant)[0] == 0.0
        assert self.proof(lt, basis, part, (2,), identity, constant)[0] == pytest.approx(1.0,
                                                                                        abs=1e-15)

    def test_proof_penalty_gradient_matches_differences(self):
        lt, basis, part = self.proof_case(n=10, seed=3)
        rng = np.random.default_rng(4)
        theta, x = rng.standard_normal(6), rng.standard_normal(10)
        _, grad = self.proof(lt, basis, part, (0,), theta, x)

        def penalty(th):
            y = np.asarray(ft.cheb_apply(ft.ChebyshevFilter(theta=th, lambda_max=lt.lambda_max),
                                         lt, x))
            return y_space_proof_penalty(basis, y, (0,), part)[0]

        assert grad == pytest.approx(central_differences(penalty, theta), abs=1e-8)


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

    @pytest.mark.parametrize("lmax", [0.5, 3.0, 2.0 ** -40])
    def test_mixture_and_cheb_apply_share_one_lambda_max_match(self, lmax):
        # just inside and just outside the relative tolerance, at any scale: both accept or
        # both refuse
        lap = gr.build_laplacian(random_gnp(10, 0.4, seed=3))
        x = np.random.default_rng(4).standard_normal(10)
        f = ft.ChebyshevFilter(theta=np.array([0.5, 0.25]), lambda_max=lmax)
        outcomes = []
        for rel in (0.9e-9, 1.1e-9):
            other = lmax + rel * lmax
            try:
                tr.MoSEModel(experts=(f, replace(f, lambda_max=other)),
                             gating_weights=np.zeros((2, 5)))
                mixture = True
            except ValueError:
                mixture = False
            try:
                ft.cheb_apply(f, gr.scale_laplacian(lap, other), x)
                apply = True
            except ValueError:
                apply = False
            outcomes.append((mixture, apply))
        assert outcomes == [(True, True), (False, False)]

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
    """A diffusion teacher of the given order and count examples: the teacher's trace
    on each of count random signals, and its output there."""
    teacher = ft.fit_chebyshev(ft.diffusion(1.0), order, lmax)
    rng = np.random.default_rng(seed)
    targets, traces = zip(*(ft.cheb_apply(teacher, lt, rng.standard_normal(lt.node_count),
                                          keep_trace=True) for _ in range(count)))
    return teacher, list(traces), list(targets)


def traces_of(model, lt, xs):
    """The recurrence trace of each signal in xs at the model's order."""
    return [ft.cheb_apply(model, lt, x, keep_trace=True)[1] for x in xs]


class TestTrain:
    def test_loss_decreases(self):
        lap, lt, lmax = operator(n=12, p=0.5, seed=17)
        _, traces, targets = teacher_data(lt, lmax, 6, 8, seed=18)
        student = ft.ChebyshevFilter(theta=np.zeros(7), lambda_max=lmax)
        result = tr.train(student, traces, targets, tr.PenaltyWeights(),
                          config=tr.TrainConfig(learning_rate=0.05, epochs=150))
        first, last = result.history[0][1], result.history[-1][1]
        assert last < first / 10
        assert all(np.isfinite(row[1]) for row in result.history)

    def test_zero_learning_rate_changes_nothing(self):
        lap, lt, lmax = operator(n=10, seed=19)
        _, traces, targets = teacher_data(lt, lmax, 4, 5, seed=20)
        theta0 = np.random.default_rng(21).standard_normal(5)
        student = ft.ChebyshevFilter(theta=theta0, lambda_max=lmax)
        result = tr.train(student, traces, targets, tr.PenaltyWeights(),
                          config=tr.TrainConfig(learning_rate=0.0, epochs=10))
        assert np.array_equal(result.model.theta, theta0)
        losses = {row[1] for row in result.history}
        assert len(losses) == 1

    def test_identical_seeds_identical_history(self):
        lap, lt, lmax = operator(n=10, seed=22)
        _, traces, targets = teacher_data(lt, lmax, 4, 5, seed=23)
        student = ft.ChebyshevFilter(theta=np.zeros(5), lambda_max=lmax)
        cfg = tr.TrainConfig(learning_rate=0.05, epochs=30)
        r1 = tr.train(student, traces, targets, tr.PenaltyWeights(), config=cfg)
        r2 = tr.train(student, traces, targets, tr.PenaltyWeights(), config=cfg)
        assert r1.history == r2.history
        assert np.array_equal(r1.model.theta, r2.model.theta)

    def test_curriculum_freezes_masked_coefficients(self):
        lap, lt, lmax = operator(n=10, seed=24)
        _, traces, targets = teacher_data(lt, lmax, 4, 5, seed=25)
        student = ft.ChebyshevFilter(theta=np.zeros(5), lambda_max=lmax)
        schedule = tr.CurriculumSchedule(stages=((0, 1),))  # only theta_0, theta_1 ever move
        result = tr.train(student, traces, targets, tr.PenaltyWeights(),
                          schedule=schedule,
                          config=tr.TrainConfig(learning_rate=0.05, epochs=40))
        assert np.array_equal(result.model.theta[2:], np.zeros(3))
        assert not np.array_equal(result.model.theta[:2], np.zeros(2))

    def test_divergence_detected(self):
        lap, lt, lmax = operator(n=10, seed=26)
        _, traces, targets = teacher_data(lt, lmax, 4, 5, seed=27)
        student = ft.ChebyshevFilter(theta=np.zeros(5), lambda_max=lmax)
        with pytest.raises(tr.DivergenceError):
            tr.train(student, traces, targets, tr.PenaltyWeights(),
                     config=tr.TrainConfig(learning_rate=1e12, epochs=200, clip_norm=None))

    def test_proof_penalty_steers_energy(self):
        lap, lt, lmax = operator(n=12, p=0.5, seed=28)
        basis = gr.eigendecompose(lap)
        part = an.equal_bands(basis, 3)
        rng = np.random.default_rng(29)
        xs, targets = zip(*(rng.standard_normal((2, 12)) for _ in range(6)))
        student = ft.ChebyshevFilter(theta=np.zeros(5), lambda_max=lmax)
        traces = traces_of(student, lt, xs)
        context = tr.PenaltyContext(basis=basis, partition=part, allowed_bands=(0,))
        plain = tr.train(student, traces, targets, tr.PenaltyWeights(),
                         config=tr.TrainConfig(learning_rate=0.02, epochs=120))
        penalized = tr.train(student, traces, targets,
                             tr.PenaltyWeights(proof=5.0),
                             config=tr.TrainConfig(learning_rate=0.02, epochs=120),
                             context=context)

        def allowed_fraction(model):
            fracs = np.zeros(3)
            for x in xs:
                y = np.asarray(ft.cheb_apply(model, lt, x))
                fracs += an.band_energy(basis, y, part).fractions
            return fracs[0] / len(xs)

        assert allowed_fraction(penalized.model) >= allowed_fraction(plain.model)

    def test_history_csv_shape(self):
        lap, lt, lmax = operator(n=8, seed=30)
        _, traces, targets = teacher_data(lt, lmax, 3, 4, seed=31)
        student = ft.ChebyshevFilter(theta=np.zeros(4), lambda_max=lmax)
        result = tr.train(student, traces, targets, tr.PenaltyWeights(),
                          config=tr.TrainConfig(learning_rate=0.05, epochs=5))
        text = tr.history_to_csv(result.history)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(tr.HISTORY_COLUMNS)
        assert len(lines) == 6

    def test_recurrence_runs_once_per_example_per_operator(self, monkeypatch):
        lap, lt, lmax = operator(n=12, p=0.5, seed=40)
        _, traces, targets = teacher_data(lt, lmax, 4, 3, seed=41)
        student = ft.ChebyshevFilter(theta=np.zeros(5), lambda_max=lmax)
        cfg = tr.TrainConfig(epochs=7)
        calls = []
        cheb_apply = ft.cheb_apply

        def counted(f, lt_arg, *args, **kwargs):
            calls.append(lt_arg)
            return cheb_apply(f, lt_arg, *args, **kwargs)

        monkeypatch.setattr(ft, "cheb_apply", counted)
        monkeypatch.setattr(ft, "chebyshev_sum", counted)
        # each example's recurrence ran once, where its trace was built: train runs none
        tr.train(student, traces, targets, tr.PenaltyWeights(), config=cfg)
        assert calls == []

    @pytest.mark.parametrize("case", ["filter", "curriculum_clipped", "proof_and_transfer",
                                      "fewer_nodes_than_columns"])
    def test_matches_the_y_space_loop(self, case):
        n = 6 if case == "fewer_nodes_than_columns" else 14
        lap, lt, lmax = operator(n=n, p=0.5, seed=50)
        basis = gr.eigendecompose(lap)
        part = an.equal_bands(basis, 3)
        rng = np.random.default_rng(51)
        _, traces, targets = teacher_data(lt, lmax, 4, 5, seed=52)
        order = 8 if case == "fewer_nodes_than_columns" else 5
        student = ft.ChebyshevFilter(theta=0.1 * rng.standard_normal(order + 1), lambda_max=lmax)
        traces = traces_of(student, lt, [trace[0] for trace in traces])
        pw, schedule, cfg = tr.PenaltyWeights(), None, tr.TrainConfig(epochs=30)
        ctx = tr.PenaltyContext(basis=basis, partition=part)
        if case == "curriculum_clipped":
            schedule = tr.CurriculumSchedule(stages=((0, 1), (10, 3), (20, order)))
            cfg = tr.TrainConfig(epochs=30, clip_norm=0.05)
        elif case in ("proof_and_transfer", "fewer_nodes_than_columns"):
            pw = tr.PenaltyWeights(proof=0.4, transfer=0.3)
            ctx = tr.PenaltyContext(basis=basis, partition=part, allowed_bands=(0, 1),
                                    transfer_reference=basis.eigenvectors
                                    @ (0.2 * rng.standard_normal(n)))
        result = tr.train(student, traces, targets, pw, schedule=schedule, config=cfg, context=ctx)
        model, history = y_space_train(student, traces, targets, pw, schedule, cfg, ctx)
        np.testing.assert_allclose(np.array(result.history), np.array(history), rtol=1e-12, atol=0)
        np.testing.assert_allclose(result.model.theta, model.theta, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("case", ["count", "order", "none", "target", "nodes", "vector"])
    def test_traces_not_of_the_examples_refused(self, case):
        lap, lt, lmax = operator(n=12, p=0.5, seed=42)
        _, traces, targets = teacher_data(lt, lmax, 4, 3, seed=43)
        student = ft.ChebyshevFilter(theta=np.zeros(5), lambda_max=lmax)
        if case == "count":
            targets = targets[:2]
        elif case == "order":
            student = ft.ChebyshevFilter(theta=np.zeros(4), lambda_max=lmax)
        elif case == "none":
            traces, targets = [], []
        elif case == "target":
            targets[1] = targets[1][:11]
        elif case == "nodes":
            traces[2] = traces[2][:, :11]
        else:
            traces[0] = traces[0][0]
        with pytest.raises(ValueError, match="one or more traces"):
            tr.train(student, traces, targets)
