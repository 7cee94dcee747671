"""Band attribution, uncertainty, certificates, and spectral surgery."""

import re

import numpy as np
import pytest

from specreason import analysis as an
from specreason import filters as ft
from specreason import graph as gr
from specreason import rules as rl
from specreason.taskgen import random_gnp


def p2_basis():
    return gr.eigendecompose(gr.build_laplacian(
        gr.Graph(node_count=2, edges=((0, 1, 1.0),))))


def random_basis(n=20, p=0.3, seed=0):
    return gr.eigendecompose(gr.build_laplacian(random_gnp(n, p, seed=seed)))


class TestBandPartition:
    def test_band_of_frozen_map(self):
        part = an.BandPartition(edges=np.array([0.0, 1.0, 2.0, 3.0]))
        # half-open bands, last band closed on top
        assert part.band_of([0.5, 1.0, 3.0]).tolist() == [0, 1, 2]
        assert part.band_of([0.0, 2.0]).tolist() == [0, 2]
        assert part.band_of([-1e-12, 4.0]).tolist() == [0, 2]  # past an end: the band there

    def test_edges_validated(self):
        with pytest.raises(ValueError, match="first edge"):
            an.BandPartition(edges=np.array([0.5, 1.0]))
        with pytest.raises(ValueError, match="strictly"):
            an.BandPartition(edges=np.array([0.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match="two edges"):
            an.BandPartition(edges=np.array([0.0]))

    def test_equal_bands_have_linspace_bits(self):
        # and, for three bands, the thirds t / 3 and 2 (t / 3); an edgeless graph's
        # spectrum, all zeros, is cut over [0, 1]
        rng = np.random.default_rng(21)
        for top in 10.0 ** rng.uniform(-300.0, 307.0, 2000):
            bands = int(rng.integers(1, 11))
            edges = an.equal_bands(top, bands).edges
            assert edges.tobytes() == np.linspace(0.0, top, bands + 1).tobytes()
            assert (an.equal_bands(top, 3).edges.tobytes()
                    == np.array([0.0, top / 3, 2 * (top / 3), top]).tobytes())
        edgeless = gr.eigendecompose(gr.build_laplacian(gr.Graph(3)))
        assert an.equal_bands(edgeless.lambda_max, 3).edges.tolist() == [0.0, 1 / 3, 2 / 3, 1.0]
        with pytest.raises(ValueError, match="at least one band"):
            an.equal_bands(edgeless.lambda_max, 0)

    def test_equal_bands_stop_at_the_float_maximum(self):
        top = float(np.finfo(float).max)
        with np.errstate(all="raise"):
            edges = an.equal_bands(top, 7).edges
        assert edges[-1] == top and np.all(np.isfinite(edges))


class TestBandEnergy:
    def test_parseval_split(self):
        basis = random_basis(seed=1)
        y = np.random.default_rng(2).standard_normal(20)
        report = an.band_energy(basis, y, 3)
        assert report.energies.sum() == pytest.approx(float(y @ y), rel=1e-12)
        assert report.fractions.sum() == pytest.approx(1.0, abs=1e-12)

    def test_p2_constant_is_pure_low(self):
        basis = p2_basis()
        report = an.band_energy(basis, np.array([1.0, 1.0]), 3)
        assert report.fractions.tolist() == [1.0, 0.0, 0.0]

    def test_p2_alternating_is_pure_high(self):
        basis = p2_basis()
        report = an.band_energy(basis, np.array([1.0, -1.0]), 3)
        assert report.fractions.tolist() == [0.0, 0.0, 1.0]

    def test_zero_signal_degenerate(self):
        basis = p2_basis()
        report = an.band_energy(basis, np.zeros(2), 3)
        assert report.degenerate and report.fractions.tolist() == [0.0, 0.0, 0.0]

    def test_outputs_near_the_float_range_keep_their_fractions(self):
        # unscaled, the squares of 2^-1000 y underflow to 0 and those of 2^1000 y overflow
        basis = random_basis(seed=3)
        y = np.random.default_rng(4).standard_normal(20)
        report = an.band_energy(basis, y, 3)
        for k in (1000, -1000):
            scaled = an.band_energy(basis, np.ldexp(y, k), 3)
            assert not scaled.degenerate
            assert scaled.fractions.tobytes() == report.fractions.tobytes()
        tiny = an.band_energy(basis, np.ldexp(y, -500), 3)
        assert tiny.energies.tobytes() == np.ldexp(report.energies, -1000).tobytes()


class TestDirichletEnergy:
    """The quadratic form y^T L y of the kept Laplacian and its spectral form."""

    def test_p2_alternating(self):
        lap = gr.build_laplacian(gr.Graph(node_count=2, edges=((0, 1, 1.0),)))
        y = np.array([1.0, -1.0])
        assert float(y @ (lap @ y)) == 4.0

    def test_constant_is_zero(self):
        lap = gr.build_laplacian(random_gnp(15, 0.4, seed=3))
        y = np.ones(15)
        assert float(y @ (lap @ y)) == pytest.approx(0.0, abs=1e-12)

    def test_matches_spectral_form(self):
        g = random_gnp(18, 0.3, seed=4)
        lap = gr.build_laplacian(g)
        basis = gr.eigendecompose(lap)
        y = np.random.default_rng(5).standard_normal(18)
        yhat = gr.gft(basis, y)
        spectral = float(basis.eigenvalues @ yhat ** 2)
        assert float(y @ (lap @ y)) == pytest.approx(spectral, rel=1e-10)


class TestProofBandAgreement:
    def test_mean_allowed_fraction(self):
        basis = p2_basis()
        low = an.band_energy(basis, np.array([1.0, 1.0]), 3)
        high = an.band_energy(basis, np.array([1.0, -1.0]), 3)
        assert an.proof_band_agreement([(low, (0,)), (high, (0,))]) == pytest.approx(0.5)
        assert an.proof_band_agreement([(low, (0,)), (high, (2,))]) == 1.0

    def test_degenerate_reports_skipped(self):
        basis = p2_basis()
        zero = an.band_energy(basis, np.zeros(2), 3)
        low = an.band_energy(basis, np.array([1.0, 1.0]), 3)
        assert an.proof_band_agreement([(zero, (0,)), (low, (0,))]) == 1.0
        with pytest.raises(ValueError):
            an.proof_band_agreement([(zero, (0,))])

    def test_bad_band_index(self):
        basis = p2_basis()
        report = an.band_energy(basis, np.ones(2), 3)
        with pytest.raises(ValueError):
            an.proof_band_agreement([(report, (7,))])


class TestDisallowedRows:
    def test_rows_span_the_bands_outside_the_allowed(self):
        basis = random_basis(seed=16)
        bands = an.equal_bands(basis.lambda_max, 3).band_of(basis.eigenvalues)
        for allowed in ((0,), (1, 2), (0, 1, 2)):
            rows = an.disallowed_rows(basis, 3, allowed)
            outside = ~np.isin(bands, allowed)
            assert rows.shape == (int(outside.sum()), 20)
            assert np.array_equal(rows, basis.eigenvectors[:, outside].T)

    def test_p2_low_band_allowed_leaves_the_alternating_row(self):
        basis = p2_basis()
        rows = an.disallowed_rows(basis, 3, [0])
        assert rows.shape == (1, 2)
        assert abs(rows[0] @ np.ones(2)) <= 1e-15

    @pytest.mark.parametrize("allowed", [(3,), (0, -1)])
    def test_band_outside_the_partition_refused(self, allowed):
        basis = p2_basis()
        message = f"allowed bands {list(allowed)} outside the partition"
        with pytest.raises(ValueError, match=re.escape(message)):
            an.disallowed_rows(basis, 3, allowed)


class TestRobustnessCertificate:
    def test_diffusion_closed_form(self):
        bound = an.robustness_certificate(ft.diffusion(1.0), 2.0)
        assert bound == pytest.approx(1.05, abs=1e-12)

    def test_identity_closed_form(self):
        assert an.robustness_certificate(ft.identity(), 5.0) == pytest.approx(1.05)

    def test_highpass_closed_form(self):
        bound = an.robustness_certificate(ft.highpass(1.0), 2.0)
        assert bound == pytest.approx((2.0 / 3.0) * 1.05, rel=1e-12)

    def test_scan_peaks_where_monotone_responses_do(self):
        # the scan includes both ends: it gives the closed forms' bits, 1 at lam = 0 for
        # diffusion and identity and lambda_max / (lambda_max + beta) at the top for highpass
        rng = np.random.default_rng(11)
        for lmax, param in 10.0 ** rng.uniform(-6, 6, size=(2000, 2)):
            for response, sup in ((ft.diffusion(param), 1.0), (ft.identity(), 1.0),
                                  (ft.highpass(param), lmax / (lmax + param))):
                assert an.robustness_certificate(response, lmax) == sup * an.CERT_SLACK

    def test_rule_set_bound_holds_a_narrow_template(self):
        # the mixture's 1001-point scan missed this peak at 2.002 and gave 1.45e-87
        narrow = rl.RuleSet(templates=(
            rl.RuleTemplate(name="narrow", response=ft.gaussian_bandpass(2.002, 1e-4)),))
        assert an.robustness_certificate(narrow, 4.0) == an.CERT_SLACK

    def test_rule_set_bound_is_the_weighted_sum_of_its_templates(self):
        templates = (rl.RuleTemplate(name="spread", response=ft.diffusion(2.0), weight=0.7),
                     rl.RuleTemplate(name="edge", response=ft.highpass(1.0), weight=0.3),
                     rl.RuleTemplate(name="narrow", response=ft.gaussian_bandpass(1.3, 1e-3),
                                     weight=0.5))
        rules = rl.RuleSet(templates=templates)
        bound = an.robustness_certificate(rules, 3.0)
        assert bound == sum(t.weight * an.robustness_certificate(t.response, 3.0)
                            for t in templates)
        assert bound >= np.max(np.abs(rules(np.linspace(1.29, 1.31, 20001))))

    def test_a_filter_bound_holds_between_the_scan_points(self):
        # a 1001-point scan gave 28.99 for this filter, whose sup on a finer grid is 32.73
        theta = np.random.default_rng(14).standard_normal(201)
        f = ft.ChebyshevFilter(theta=theta, lambda_max=2.0)
        sup = np.max(np.abs(ft.response_eval(f, np.linspace(0.0, 2.0, 200_001))))
        assert an.robustness_certificate(f, 2.0) >= sup

    def test_grid_bound_dominates_grid_values(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            theta = rng.standard_normal(6)
            f = ft.ChebyshevFilter(theta=theta, lambda_max=2.0)
            bound = an.robustness_certificate(f, 2.0)
            grid = np.linspace(0.0, 2.0, 4001)
            values = np.abs(ft.response_eval(f, grid))
            assert np.all(bound >= values)


class TestSpectralPerturb:
    @pytest.mark.parametrize("magnitude", [-1.0, float("nan"), float("inf")])
    def test_config_refuses_a_bad_magnitude(self, magnitude):
        with pytest.raises(ValueError, match="magnitude must be nonnegative"):
            an.PerturbConfig(magnitude=magnitude)

    @pytest.mark.parametrize("fields, message", [
        ({"magnitude": -1.0, "bands": 0, "band": 5}, "magnitude must be nonnegative"),
        ({"bands": 0, "band": 5}, "need at least one band"),
        ({"band": 5}, "band 5 outside partition with 3 bands"),
        ({"band": -1, "bands": 2}, "band -1 outside partition with 2 bands"),
    ])
    def test_config_refuses_in_order(self, fields, message):
        with pytest.raises(ValueError, match=message):
            an.PerturbConfig(**fields)

    def test_norm_equals_magnitude(self):
        basis = random_basis(seed=11)
        x = np.random.default_rng(12).standard_normal(20)
        for magnitude in (0.1, 1.0, 7.5):
            noise = an.PerturbConfig(band=1, magnitude=magnitude, seed=3, bands=3)
            out = np.asarray(an.spectral_perturb(basis, x, noise))
            assert abs(np.linalg.norm(out - x) - magnitude) <= 1e-10

    def test_only_target_band_moves(self):
        basis = random_basis(seed=13)
        x = np.random.default_rng(14).standard_normal(20)
        noise = an.PerturbConfig(band=0, magnitude=0.5, seed=4, bands=3)
        out = np.asarray(an.spectral_perturb(basis, x, noise))
        diff_hat = basis.eigenvectors.T @ (out - x)
        outside = an.equal_bands(basis.lambda_max, 3).band_of(basis.eigenvalues) != 0
        assert np.max(np.abs(diff_hat[outside])) <= 1e-12

    def test_zero_magnitude_no_op(self):
        basis = p2_basis()
        x = np.array([0.3, -0.7])
        out = np.asarray(an.spectral_perturb(basis, x, an.PerturbConfig(band=0, bands=3)))
        assert np.array_equal(out, x)

    def test_empty_band_errors_with_name(self):
        basis = p2_basis()
        # the eigenvalues are 0 and 2: nothing lives in [2/3, 4/3)
        with pytest.raises(ValueError, match="band 1 contains no eigenvalues"):
            an.spectral_perturb(basis, np.ones(2),
                                an.PerturbConfig(band=1, magnitude=0.1, bands=3))

    def test_seeded_and_deterministic(self):
        basis = random_basis(seed=15)
        x = np.zeros(20)

        def perturbed(seed):
            noise = an.PerturbConfig(band=2, magnitude=1.0, seed=seed, bands=3)
            return np.asarray(an.spectral_perturb(basis, x, noise))

        a, b, c = perturbed(5), perturbed(5), perturbed(6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestSpectralEdit:
    """Whole-band gains, applied as a piecewise response through dense_filter_apply."""

    @staticmethod
    def band_gains(basis, gains):
        """A response of gains.get(b, 1) on band b of three equal bands of basis's spectrum."""
        table = np.array([gains.get(b, 1.0) for b in range(3)])
        return lambda lam: table[an.equal_bands(basis.lambda_max, 3).band_of(lam)]

    def test_gain_two_quadruples_band_energy(self):
        basis = random_basis(seed=16)
        x = np.random.default_rng(17).standard_normal(20)
        before = an.band_energy(basis, x, 3)
        out = ft.dense_filter_apply(basis, self.band_gains(basis, {1: 2.0}), x)
        after = an.band_energy(basis, out, 3)
        assert after.energies[1] == pytest.approx(4.0 * before.energies[1], rel=1e-10)
        assert after.energies[0] == pytest.approx(before.energies[0], rel=1e-10)
        assert after.energies[2] == pytest.approx(before.energies[2], rel=1e-10)

    def test_edits_compose_multiplicatively(self):
        basis = random_basis(seed=18)
        x = np.random.default_rng(19).standard_normal(20)
        once = ft.dense_filter_apply(basis, self.band_gains(basis, {0: 2.0}), x)
        twice = ft.dense_filter_apply(basis, self.band_gains(basis, {0: 3.0}), once)
        combined = ft.dense_filter_apply(basis, self.band_gains(basis, {0: 6.0}), x)
        assert np.allclose(twice, combined, atol=1e-12)

    def test_zero_gain_silences_band(self):
        basis = random_basis(seed=20)
        x = np.random.default_rng(21).standard_normal(20)
        out = ft.dense_filter_apply(basis, self.band_gains(basis, {2: 0.0}), x)
        assert an.band_energy(basis, out, 3).energies[2] == pytest.approx(0.0, abs=1e-20)


class TestCospectral:
    def test_zero_on_identical_profiles(self):
        a = np.array([1.0, 2.0, 3.0])
        assert an.cospectral_loss(a, a) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(22)
        a, b = rng.standard_normal(8), rng.standard_normal(8)
        assert an.cospectral_loss(a, b) == an.cospectral_loss(b, a)

    def test_unit_basis_vectors(self):
        e0 = np.array([1.0, 0.0])
        e1 = np.array([0.0, 1.0])
        assert an.cospectral_loss(e0, e1) == 2.0

    def test_parallelogram_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            a, b = rng.standard_normal(6), rng.standard_normal(6)
            lhs = an.cospectral_loss(a + b, np.zeros(6)) + an.cospectral_loss(a - b, np.zeros(6))
            rhs = 2.0 * (an.cospectral_loss(a, np.zeros(6)) + an.cospectral_loss(b, np.zeros(6)))
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_profile_conserves_energy(self):
        basis = random_basis(n=16, seed=24)
        x = np.random.default_rng(25).standard_normal(16)
        xhat = basis.eigenvectors.T @ x
        profile = an.cospectral_profile(basis.eigenvalues, xhat, points=32)
        assert profile.sum() == pytest.approx(float(xhat @ xhat), rel=1e-12)

    def test_profile_reads_eigenvalues_relative_to_the_top(self):
        # a spectrum near 1e-15 spreads its energy as its 2^50 multiple does
        basis = random_basis(n=16, seed=24)
        xhat = np.random.default_rng(25).standard_normal(16)
        profile = an.cospectral_profile(basis.eigenvalues, xhat, points=32)
        tiny = an.cospectral_profile(np.ldexp(basis.eigenvalues, -50), xhat, points=32)
        assert tiny.tobytes() == profile.tobytes()
        assert np.count_nonzero(profile) > 1

    def test_cross_size_loss_finite(self):
        a_basis = random_basis(n=12, seed=26)
        b_basis = random_basis(n=30, seed=27)
        rng = np.random.default_rng(28)
        pa = an.cospectral_profile(a_basis.eigenvalues, rng.standard_normal(12), points=24)
        pb = an.cospectral_profile(b_basis.eigenvalues, rng.standard_normal(30), points=24)
        loss = an.cospectral_loss(pa, pb)
        assert np.isfinite(loss) and loss >= 0


class TestRobustnessDrop:
    def test_low_pass_hurt_more_by_low_band_noise(self):
        from specreason import taskgen as tg
        instances = [tg.gen_community_task(n=80, intra_p=0.2, inter_p=0.02,
                                           seed_fraction=0.1, noise=0.05, seed=s)
                     for s in range(4)]
        model = ft.diffusion(1.0)
        low = tg.evaluate(model, instances, tg.EvalConfig(
            perturb=an.PerturbConfig(band=0, magnitude=3.0, seed=1))).robustness_drop
        high = tg.evaluate(model, instances, tg.EvalConfig(
            perturb=an.PerturbConfig(band=2, magnitude=3.0, seed=1))).robustness_drop
        # both drops must be real: a drop of 0 would mean the noise never reached the scores
        assert 0 < high < low
