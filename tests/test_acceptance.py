"""Acceptance checks: one test per shipping criterion, each printing a verdict."""

import csv
import io
import json
import time
from pathlib import Path

import numpy as np
import pytest

from specreason import analysis as an
from specreason import cli
from specreason import filters as ft
from specreason import graph as gr
from specreason import rules as ru
from specreason import taskgen as tg
from specreason import training as tr


def verdict(number: int, name: str, ok: bool, detail: str):
    print(f"[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number:02d} {name}: {detail}"


def operator_for(g):
    lap = gr.build_laplacian(g)
    est = gr.estimate_lambda_max(lap)
    return lap, gr.scale_laplacian(lap, est.value), est.value


def test_criterion_01_sparse_dense_oracle_equivalence():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        n = int(rng.integers(8, 65))
        g = tg.random_gnp(n, 0.3, seed=seed)
        lap, lt, lmax = operator_for(g)
        basis = gr.eigendecompose(lap)
        order = int(rng.integers(1, 17))
        f = ft.ChebyshevFilter(theta=rng.standard_normal(order + 1), lambda_max=lmax)
        x = rng.standard_normal(n)
        sparse = np.asarray(ft.cheb_apply(f, lt, x))
        dense = np.asarray(ft.dense_filter_apply(basis, f, x))
        scale = np.linalg.norm(dense)
        worst = max(worst, np.linalg.norm(sparse - dense) / (scale if scale else 1.0))
    elapsed = time.perf_counter() - start
    verdict(1, "sparse/dense oracle equivalence",
            worst <= 1e-10 and elapsed < 60.0,
            f"max rel err {worst:.3e}, {elapsed:.1f}s over 50 graphs")


def test_criterion_02_parseval_and_energy_identities():
    rng = np.random.default_rng(22)
    worst = 0.0
    for seed in range(100):
        n = int(rng.integers(6, 40))
        g = tg.random_gnp(n, 0.4, seed=1000 + seed)
        lap, lt, lmax = operator_for(g)
        basis = gr.eigendecompose(lap)
        f = ft.ChebyshevFilter(theta=rng.standard_normal(int(rng.integers(2, 9))),
                               lambda_max=lmax)
        x = rng.standard_normal(n)
        xhat = np.asarray(gr.gft(basis, x))
        h = ft.response_eval(f, basis.eigenvalues)
        y = np.asarray(ft.dense_filter_apply(basis, f, x))
        dense_l = lap.toarray()

        parseval = abs(x @ x - xhat @ xhat) / (x @ x)
        energy_ref = float(np.sum(h ** 2 * xhat ** 2))
        energy = abs(y @ y - energy_ref) / max(energy_ref, 1e-30)
        dirichlet_ref = float(np.sum(basis.eigenvalues * h ** 2 * xhat ** 2))
        dirichlet = abs(y @ dense_l @ y - dirichlet_ref) / max(abs(dirichlet_ref), 1e-30)
        worst = max(worst, parseval, energy, dirichlet)
    verdict(2, "Parseval and energy identities", worst <= 1e-9,
            f"max rel dev {worst:.3e} on 100 instances")


def test_criterion_03_gradient_correctness():
    # the theta half checks the coefficient-space gradient train uses, term by term,
    # against central differences of the loss formed in y-space through cheb_apply
    rng = np.random.default_rng(33)
    worst_theta = 0.0
    worst_lap = 0.0
    for seed in range(20):
        n = int(rng.integers(6, 13))
        g = tg.random_gnp(n, 0.5, seed=2000 + seed)
        lap, lt, lmax = operator_for(g)
        order = int(rng.integers(2, 9))
        theta = rng.standard_normal(order + 1)
        x = rng.standard_normal(n)
        target = rng.standard_normal(n)
        basis = gr.eigendecompose(lap)
        u = basis.eigenvectors
        disallowed = an.equal_bands(basis, 3).band_of(basis.eigenvalues) != 0
        reference = rng.standard_normal(n)

        def output(th, mat=None):
            if mat is None:
                f = ft.ChebyshevFilter(theta=th, lambda_max=lmax)
                return np.asarray(ft.cheb_apply(f, lt, x))
            b_prev, b_cur = x, mat @ x
            y = th[0] * b_prev + th[1] * b_cur
            for k in range(2, th.size):
                b_prev, b_cur = b_cur, 2.0 * (mat @ b_cur) - b_prev
                y = y + th[k] * b_cur
            return y

        def terms(y):  # data term, proof and transfer penalties (only bands 1 and 2 disallowed)
            yhat = u.T @ y
            return np.array([float((y - target) @ (y - target)) / n,
                             float(yhat[disallowed] @ yhat[disallowed]) / float(yhat @ yhat),
                             float((yhat - reference) @ (yhat - reference)) / n])

        def loss_of(th, mat=None):
            d = output(th, mat) - target
            return float(d @ d)

        probe = ft.ChebyshevFilter(theta=np.zeros(order + 1), lambda_max=lmax)
        _, trace = ft.cheb_apply(probe, lt, x, keep_trace=True)
        loss = tr._FactoredLoss(trace, target, u[:, disallowed].T, u @ reference)
        _, g_terms = loss(theta)

        step = 1e-5
        fd_terms = np.zeros_like(g_terms)
        for k in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[k] += step
            down[k] -= step
            fd_terms[:, k] = (terms(output(up)) - terms(output(down))) / (2 * step)
        for g_theta, fd_theta in zip(g_terms, fd_terms):
            worst_theta = max(worst_theta,
                              np.linalg.norm(g_theta - fd_theta) / np.linalg.norm(fd_theta))

        f = ft.ChebyshevFilter(theta=theta, lambda_max=lmax)
        y, trace = ft.cheb_apply(f, lt, x, keep_trace=True)
        dy = 2.0 * (np.asarray(y) - target)
        g_lap = tr.grad_scaled_laplacian(dy, theta, trace, lt)
        dense = lt.toarray()
        analytic, fd = [], []
        for i in range(n):
            for j in range(i, n):
                direction = np.zeros((n, n))
                direction[i, j] += 0.5
                direction[j, i] += 0.5
                analytic.append(float(np.sum(g_lap * direction)))
                fd.append((loss_of(theta, dense + step * direction)
                           - loss_of(theta, dense - step * direction)) / (2 * step))
        analytic, fd = np.array(analytic), np.array(fd)
        worst_lap = max(worst_lap, np.linalg.norm(analytic - fd) / np.linalg.norm(fd))
    verdict(3, "gradient correctness vs finite differences",
            worst_theta <= 1e-6 and worst_lap <= 1e-4,
            f"theta rel err {worst_theta:.3e} (data, proof, transfer), "
            f"operator rel err {worst_lap:.3e}")


def test_criterion_04_chebyshev_convergence():
    response = ft.diffusion(1.0)
    errors = []
    for order in (2, 4, 8, 16):
        f = ft.fit_chebyshev(response, order, 2.0)
        errors.append(ft.fit_grid_error(f, response, 2.0))
    non_increasing = all(b <= a + 1e-15 for a, b in zip(errors, errors[1:]))
    verdict(4, "Chebyshev convergence for diffusion",
            errors[-1] <= 1e-6 and non_increasing,
            "errors " + ", ".join(f"{e:.2e}" for e in errors))


def test_criterion_05_complexity_scaling():
    worst = 0.0
    details = []
    for kind in ("edges", "order"):
        rows = tg.timing_sweep(kind=kind, doublings=3, runs=11, seed=0)
        times = [t for _, _, t in rows]
        ratios = [b / a for a, b in zip(times, times[1:])]
        worst = max(worst, max(ratios))
        details.append(f"{kind}: " + "/".join(f"{r:.2f}" for r in ratios))
    verdict(5, "near-linear cost in order and edges", worst <= 2.5,
            "; ".join(details))


def test_criterion_06_rational_filtering_path():
    rng = np.random.default_rng(66)
    worst = 0.0
    for seed in range(20):
        n = int(rng.integers(6, 40))
        g = tg.random_gnp(n, 0.4, seed=3000 + seed)
        lap, lt, lmax = operator_for(g)
        basis = gr.eigendecompose(lap)
        tau = float(rng.uniform(0.2, 3.0))
        x = rng.standard_normal(n)
        fast = np.asarray(ft.rational_apply(tau, lap, x))
        dense = np.asarray(ft.dense_filter_apply(basis, ft.diffusion(tau), x))
        worst = max(worst, np.linalg.norm(fast - dense) / np.linalg.norm(dense))

    p2 = gr.build_laplacian(gr.Graph(node_count=2, edges=((0, 1, 1.0),)))
    closed = np.asarray(ft.rational_apply(1.0, p2, np.array([1.0, 0.0])))
    p2_err = float(np.max(np.abs(closed - np.array([2 / 3, 1 / 3]))))
    verdict(6, "rational solver matches dense diffusion",
            worst <= 1e-8 and p2_err <= 1e-8,
            f"max rel err {worst:.3e}, two-node closed form off by {p2_err:.1e}")


def brute_force_minimal_model(atoms, clauses, facts):
    # least model = intersection of every clause-closed superset of the facts
    n = len(atoms)
    index = {a: i for i, a in enumerate(atoms)}
    fact_mask = 0
    for a in facts:
        fact_mask |= 1 << index[a]
    compiled = [(sum(1 << index[b] for b in cl.body), 1 << index[cl.head])
                for cl in clauses]
    best = (1 << n) - 1
    for candidate in range(1 << n):
        if candidate & fact_mask != fact_mask:
            continue
        if all((candidate & body != body) or (candidate & head) for body, head in compiled):
            best &= candidate
    return frozenset(a for a in atoms if best & (1 << index[a]))


def test_criterion_07_forward_chaining_soundness():
    rng = np.random.default_rng(77)
    mismatches = 0
    for _ in range(200):
        n_atoms = int(rng.integers(2, 11))
        atoms = tuple(f"a{i}" for i in range(n_atoms))
        clauses = []
        for _ in range(int(rng.integers(1, 16))):
            body_size = int(rng.integers(1, min(4, n_atoms + 1)))
            body = frozenset(rng.choice(atoms, size=body_size, replace=False))
            head = str(rng.choice(atoms))
            clauses.append(ru.HornClause(body=body, head=head))
        base = ru.RuleBase(atoms=atoms, clauses=tuple(clauses))
        facts = {a for a in atoms if rng.random() < 0.3}
        closure = ru.forward_chain(base, facts)
        if closure != brute_force_minimal_model(atoms, clauses, facts):
            mismatches += 1
    verdict(7, "forward chaining equals minimal model", mismatches == 0,
            f"{mismatches} mismatches in 200 random rulebases")


def test_criterion_08_community_recovery():
    start = time.perf_counter()
    accs = [tg.evaluate(ft.diffusion(2.0), [tg.gen_community_task(seed=seed)],
                        tg.EvalConfig(threshold=0.0, latency_runs=1)).accuracy
            for seed in range(20)]
    elapsed = time.perf_counter() - start
    mean = float(np.mean(accs))
    verdict(8, "community recovery by smoothing",
            mean >= 0.95 and elapsed < 30.0,
            f"mean accuracy {mean:.4f}, min {min(accs):.4f}, {elapsed:.1f}s")


def test_criterion_09_contradiction_ranking():
    aucs = []
    for seed in range(20):
        inst = tg.gen_contradiction_task(seed=seed)
        basis = gr.eigendecompose(gr.build_laplacian(inst.graph))
        y = np.asarray(ft.dense_filter_apply(basis, ft.highpass(1.0), inst.beliefs))
        aucs.append(tg.ranking_auc(np.abs(y), inst.labels))
    mean = float(np.mean(aucs))
    verdict(9, "contradiction spike ranking", mean >= 0.9,
            f"mean AUC {mean:.4f}, min {min(aucs):.4f}")


def test_criterion_10_certificate_soundness():
    g = tg.random_gnp(40, 0.2, seed=9)
    lap, lt, lmax = operator_for(g)
    basis = gr.eigendecompose(lap)
    responses = [ft.diffusion(0.5), ft.diffusion(1.0), ft.diffusion(2.0),
                 ft.highpass(0.5), ft.highpass(1.0), ft.highpass(2.0),
                 ft.gaussian_bandpass(lmax / 2, lmax / 6),
                 ft.gaussian_bandpass(lmax / 4, lmax / 3),
                 ft.identity(), ft.polynomial(0.3, -0.2, 0.05)]
    assert len(responses) == 10
    h_all = [ft.response_eval(r, basis.eigenvalues) for r in responses]
    violations = 0
    rng = np.random.default_rng(10)
    for resp, h in zip(responses, h_all):
        bound = an.robustness_certificate(resp, lmax)
        d = rng.standard_normal((40, 1000))
        dhat = basis.eigenvectors.T @ d
        out = basis.eigenvectors @ (h[:, None] * dhat)
        lhs = np.linalg.norm(out, axis=0)
        rhs = bound * np.linalg.norm(d, axis=0)
        violations += int(np.sum(lhs > rhs))
    verdict(10, "operator-norm certificates hold", violations == 0,
            f"{violations} violations in 10000 perturbation pairs")


def test_criterion_11_mixture_and_curriculum_invariants():
    rng = np.random.default_rng(111)
    model = tr.MoSEModel(
        experts=tuple(ft.ChebyshevFilter(theta=rng.standard_normal(k), lambda_max=2.0)
                      for k in (3, 5, 4)),
        gating_weights=rng.standard_normal((3, 5)))
    simplex_dev = max(abs(float(tr.mose_gate(model, rng.standard_normal(5)).sum()) - 1.0)
                      for _ in range(1000))

    pooled_dev = 0.0
    for seed in range(20):
        g = tg.random_gnp(12, 0.5, seed=4000 + seed)
        lap, lt, lmax = operator_for(g)
        basis = gr.eigendecompose(lap)
        m = tr.MoSEModel(
            experts=tuple(ft.ChebyshevFilter(theta=rng.standard_normal(k), lambda_max=lmax)
                          for k in (2, 4, 3)),
            gating_weights=rng.standard_normal((3, 5)))
        x = rng.standard_normal(12)
        feats = tr.gating_features(basis, x)
        alpha = tr.mose_gate(m, feats)
        mixed = np.asarray(tr.mose_apply(m, lt, x, feats))
        # one recurrence over the pooled coefficients against each expert run at its own order
        separate = sum(a * ft.cheb_apply(expert, lt, x) for a, expert in zip(alpha, m.experts))
        pooled_dev = max(pooled_dev, float(np.max(np.abs(mixed - separate))))

    schedules = [tr.CurriculumSchedule(stages=((0, 0), (3, 2), (9, 5))),
                 tr.CurriculumSchedule(stages=((0, 1),)),
                 tr.CurriculumSchedule(stages=((0, 2), (2, 2), (4, 8))),
                 tr.CurriculumSchedule(stages=((0, 0), (1, 1), (2, 2), (3, 3)))]
    monotone = True
    for schedule in schedules:
        previous = np.zeros(9, dtype=bool)
        for epoch in range(12):
            mask = tr.curriculum_mask(schedule, epoch, 8)
            monotone = monotone and bool(np.all(previous <= mask))
            previous = mask
    verdict(11, "mixture simplex, pooling, curriculum monotonicity",
            simplex_dev <= 1e-12 and pooled_dev <= 1e-10 and monotone,
            f"simplex dev {simplex_dev:.1e}, pooled dev {pooled_dev:.1e}, "
            f"monotone={monotone}")


def test_criterion_12_teacher_student_recovery():
    g = gr.Graph(node_count=16, edges=tuple((i, i + 1, 1.0) for i in range(15)))
    lap, lt, lmax = operator_for(g)
    basis = gr.eigendecompose(lap)
    teacher = ft.diffusion(1.0)
    rng = np.random.default_rng(12)
    xs = rng.standard_normal((12, 16))
    targets = [np.asarray(ft.dense_filter_apply(basis, teacher, x)) for x in xs]
    student = ft.ChebyshevFilter(theta=np.zeros(9), lambda_max=lmax)
    # an example's trace does not depend on the coefficients: the student's own serves
    traces = [ft.cheb_apply(student, lt, x, keep_trace=True)[1] for x in xs]
    result = tr.train(student, traces, targets, tr.PenaltyWeights(),
                      config=tr.TrainConfig(learning_rate=0.05, epochs=500))
    losses = [row[1] for row in result.history]
    resp_err = float(np.max(np.abs(ft.response_eval(result.model, basis.eigenvalues)
                                   - ft.response_eval(teacher, basis.eigenvalues))))
    clean = all(np.isfinite(losses))
    verdict(12, "teacher-student response recovery",
            resp_err <= 1e-3 and clean and losses[-1] < losses[0] / 10,
            f"max response err {resp_err:.2e} on spectrum support, "
            f"loss {losses[0]:.2e} -> {losses[-1]:.2e}")


def test_criterion_13_transfer_mechanics():
    rng = np.random.default_rng(13)
    g_small = tg.random_gnp(12, 0.5, seed=5)
    g_large = tg.random_gnp(20, 0.3, seed=6)
    b_small = gr.eigendecompose(gr.build_laplacian(g_small))
    b_large = gr.eigendecompose(gr.build_laplacian(g_large))
    coeffs_small = rng.standard_normal(12)
    coeffs_large = rng.standard_normal(20)
    p_small = an.cospectral_profile(b_small.eigenvalues, coeffs_small)
    p_small2 = an.cospectral_profile(b_small.eigenvalues, rng.standard_normal(12))
    p_large = an.cospectral_profile(b_large.eigenvalues, coeffs_large)

    zero = an.cospectral_loss(p_small, p_small)
    sym = abs(an.cospectral_loss(p_small, p_small2) - an.cospectral_loss(p_small2, p_small))
    cross = an.cospectral_loss(p_small, p_large)
    verdict(13, "co-spectral transfer loss mechanics",
            zero == 0.0 and sym == 0.0 and np.isfinite(cross) and cross >= 0,
            f"self loss {zero}, asymmetry {sym}, cross-size loss {cross:.4f}")


EXEMPT_COLUMNS = {"latency_ms", "median_seconds", "ratio"}


def stable_view(path: Path) -> bytes:
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if rows:
            keep = [i for i, name in enumerate(rows[0]) if name not in EXEMPT_COLUMNS]
            out = io.StringIO()
            csv.writer(out).writerows([[row[i] for i in keep] for row in rows])
            return out.getvalue().encode()
    return path.read_bytes()


def test_criterion_14_cli_reproducibility(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    inputs = tmp_path / "inputs"
    inputs.mkdir()

    g = tg.random_gnm(12, 20, seed=0)
    lines = [f"{g.node_count} {len(g.edges)}"]
    lines += [f"{i} {j} {w}" for i, j, w in g.edges]
    (inputs / "graph.txt").write_text("\n".join(lines) + "\n")
    g2 = tg.random_gnm(8, 12, seed=1)
    lines = [f"{g2.node_count} {len(g2.edges)}"]
    lines += [f"{i} {j} {w}" for i, j, w in g2.edges]
    (inputs / "graph2.txt").write_text("\n".join(lines) + "\n")

    rng = np.random.default_rng(3)
    (inputs / "beliefs.txt").write_text(
        "\n".join(f"{v}" for v in rng.standard_normal(12)) + "\n")
    (inputs / "beliefs2.txt").write_text(
        "\n".join(f"{v}" for v in rng.standard_normal(8)) + "\n")
    (inputs / "rules.json").write_text(json.dumps(
        {"atoms": [f"n{i}" for i in range(12)],
         "clauses": [{"body": ["n0"], "head": "n1"},
                     {"body": ["n1", "n2"], "head": "n3"}]}))
    (inputs / "train.json").write_text(json.dumps(
        {"order": 4, "examples": 4, "epochs": 30, "learning_rate": 0.05}))

    assert cli.main(["fit", "--graph", "inputs/graph.txt", "--response", "diffusion",
                     "--tau", "1.0", "--order", "10", "--out-dir", "inputs/seedfit"]) == 0
    (inputs / "filter.json").write_bytes((inputs / "seedfit" / "filter.json").read_bytes())
    (inputs / "task.json").write_text(tg.task_to_json(tg.gen_chain_task(depth=4, seed=3)))

    commands = [
        ["fit", "--graph", "inputs/graph.txt", "--response", "highpass",
         "--beta", "1.0", "--order", "8"],
        ["infer", "--graph", "inputs/graph.txt", "--filter", "inputs/filter.json",
         "--beliefs", "inputs/beliefs.txt", "--rulebase", "inputs/rules.json",
         "--threshold", "0.1"],
        ["train", "--graph", "inputs/graph.txt", "--config", "inputs/train.json"],
        ["gen", "--kind", "chain", "--depth", "4", "--seed", "3"],
        ["eval", "--tasks", "inputs/task.json", "--response", "diffusion",
         "--tau", "4.0", "--threshold", "0.01", "--latency-runs", "1"],
        ["attribute", "--graph", "inputs/graph.txt", "--beliefs", "inputs/beliefs.txt",
         "--response", "diffusion", "--tau", "1.0"],
        ["perturb", "--graph", "inputs/graph.txt", "--beliefs", "inputs/beliefs.txt",
         "--band", "0", "--magnitude", "0.5"],
        ["transfer", "--source-graph", "inputs/graph.txt",
         "--source-beliefs", "inputs/beliefs.txt",
         "--target-graph", "inputs/graph2.txt",
         "--target-beliefs", "inputs/beliefs2.txt"],
        ["bench", "--sweep", "edges", "--base-edges", "400", "--base-order", "4",
         "--doublings", "1", "--runs", "3"],
    ]
    assert len(commands) == 9

    for run_dir in ("a", "b"):
        for argv in commands:
            out = f"{run_dir}/{argv[0]}"
            code = cli.main(argv + ["--out-dir", out])
            assert code == 0, f"{argv[0]} failed in run {run_dir}"

    mismatched = []
    files_a = sorted(p for p in (tmp_path / "a").rglob("*") if p.is_file())
    assert files_a, "first run produced no outputs"
    for file_a in files_a:
        rel = file_a.relative_to(tmp_path / "a")
        file_b = tmp_path / "b" / rel
        if not file_b.exists() or stable_view(file_a) != stable_view(file_b):
            mismatched.append(str(rel))
    verdict(14, "CLI outputs reproducible", not mismatched,
            f"{len(files_a)} files compared across 9 commands"
            + (f"; mismatched: {mismatched}" if mismatched else ""))
