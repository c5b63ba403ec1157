import numpy as np
import pytest
from scipy.optimize._numdiff import approx_derivative

import afrelay.validate as validate_mod
from afrelay.channel import exact_knowledge
from afrelay.design import DesignOptions, design
from afrelay.linalg import herm_sqrt
from afrelay.mse import SystemConfig, Transceiver, residual_weighted_mse
from afrelay.validate import (
    _objective_and_gradient,
    _unpack,
    brute_force_design,
    empirical_mse_matrix,
    empirical_weighted_mse,
    gradient_check_scalar_objective,
    projected_gradient_norm,
)
from conftest import complex_gaussian, make_instance


def looped_errors(cfg, know, tx, n_samples, seed):
    """e = G y - s one sample at a time, drawing in the estimators'
    documented order: both hops' errors, data, relay noise, destination
    noise (a single chunk, so n_samples must stay below its size)."""
    rng = np.random.default_rng(seed)
    roots = [(herm_sqrt(s.row_cov), herm_sqrt(s.col_cov)) for s in (know.stats_sr, know.stats_rd)]
    white_sr = complex_gaussian(rng, n_samples, cfg.m_r, cfg.n_s)
    white_rd = complex_gaussian(rng, n_samples, cfg.m_d, cfg.n_r)
    data = complex_gaussian(rng, n_samples, cfg.n_streams)
    noise1 = np.sqrt(cfg.sigma1_sq) * complex_gaussian(rng, n_samples, cfg.m_r)
    noise2 = np.sqrt(cfg.sigma2_sq) * complex_gaussian(rng, n_samples, cfg.m_d)
    (l_sr, r_sr), (l_rd, r_rd) = roots
    for i in range(n_samples):
        h_sr = know.est_sr + l_sr @ white_sr[i] @ r_sr
        h_rd = know.est_rd + l_rd @ white_rd[i] @ r_rd
        x = h_sr @ tx.precoder @ data[i] + noise1[i]
        y = h_rd @ tx.forward @ x + noise2[i]
        yield tx.equalizer @ y - data[i]


def serial_chunks(cfg, know, tx, n_samples, rng):
    """e = G y - s in chunks of 20,000 samples, every block drawn in turn on
    the calling thread: the estimators' draw order and chunking, without
    their drawing thread."""
    hops = [
        (est, herm_sqrt(stats.row_cov), herm_sqrt(stats.col_cov))
        for est, stats in ((know.est_sr, know.stats_sr), (know.est_rd, know.stats_rd))
    ]

    def through(hop, white, u):
        est, left, right = hop
        return u @ est.T + np.einsum("nij,nj->ni", white, u @ right.T) @ left.T

    done = 0
    while done < n_samples:
        m = min(20_000, n_samples - done)
        w_sr, w_rd = (complex_gaussian(rng, m, *est.shape) for est, _, _ in hops)
        s = complex_gaussian(rng, m, cfg.n_streams)
        n1 = np.sqrt(cfg.sigma1_sq) * complex_gaussian(rng, m, cfg.m_r)
        n2 = np.sqrt(cfg.sigma2_sq) * complex_gaussian(rng, m, cfg.m_d)
        x = through(hops[0], w_sr, s @ tx.precoder.T) + n1
        y = through(hops[1], w_rd, x @ tx.forward.T) + n2
        yield y @ tx.equalizer.T - s
        done += m


class TestEmpiricalWeightedMse:
    def test_near_exact_recovery_estimates_zero(self):
        # identity channels, identity transceiver, vanishing noise
        cfg = SystemConfig(
            n_s=2, m_r=2, n_r=2, m_d=2, n_streams=2,
            p_s=2.0, p_r=2.0, sigma1_sq=1e-20, sigma2_sq=1e-20,
            weight=np.eye(2),
        )
        know = exact_knowledge(np.eye(2), np.eye(2))
        tx = Transceiver(np.eye(2), np.eye(2), np.eye(2))
        est = empirical_weighted_mse(cfg, know, tx, 2000, 0)
        assert est.mean <= 1e-15
        assert est.std_error <= 1e-15

    def test_zero_equalizer_estimates_trace_w(self):
        cfg, know, _ = make_instance(1)
        tx = Transceiver(
            np.zeros((cfg.n_s, 4)), np.zeros((cfg.n_r, cfg.m_r)), np.zeros((4, cfg.m_d))
        )
        est = empirical_weighted_mse(cfg, know, tx, 20_000, 2)
        tr_w = np.real(np.trace(cfg.weight))
        assert abs(est.mean - tr_w) <= 3 * est.std_error

    def test_matches_analytic_on_designed_solution(self):
        cfg, know, _ = make_instance(3)
        sol = design(cfg, know)
        est = empirical_weighted_mse(cfg, know, sol.tx, 100_000, 4)
        assert abs(est.mean - sol.achieved_wmse) <= 3 * est.std_error

    def test_std_error_scales_like_inverse_sqrt_n(self):
        cfg, know, _ = make_instance(5)
        sol = design(cfg, know)
        small = empirical_weighted_mse(cfg, know, sol.tx, 10_000, 6)
        large = empirical_weighted_mse(cfg, know, sol.tx, 100_000, 7)
        ratio = small.std_error / large.std_error
        assert abs(ratio - np.sqrt(10.0)) <= 0.2 * np.sqrt(10.0)

    def test_rejects_tiny_sample_counts(self):
        cfg, know, _ = make_instance(8)
        sol = design(cfg, know)
        with pytest.raises(ValueError):
            empirical_weighted_mse(cfg, know, sol.tx, 50, 9)

    @pytest.mark.parametrize("estimator", [empirical_weighted_mse, empirical_mse_matrix])
    def test_sample_count_must_be_an_integer(self, estimator):
        cfg, know, _ = make_instance(8, dims=(2, 2, 2, 2), n_streams=2, weight=np.diag([0.6, 0.4]))
        tx = design(cfg, know).tx
        for bad in (150.5, 1e5):
            with pytest.raises(TypeError, match="n_samples"):
                estimator(cfg, know, tx, bad, 9)
        est = estimator(cfg, know, tx, np.int64(200), 9)
        assert type(est.n_samples) is int and est.n_samples == 200


class TestMonteCarloDrawOrder:
    @pytest.fixture
    def instance(self):
        cfg, know, _ = make_instance(16, dims=(2, 3, 2, 3), n_streams=2, weight=np.diag([0.6, 0.4]))
        return cfg, know, design(cfg, know).tx

    def test_weighted_mse_equals_per_sample_loop(self, instance):
        cfg, know, tx = instance
        vals = np.array([
            np.real(e.conj() @ cfg.weight @ e) for e in looped_errors(cfg, know, tx, 200, 17)
        ])
        est = empirical_weighted_mse(cfg, know, tx, 200, 17)
        assert abs(est.mean - vals.mean()) <= 1e-12 * vals.mean()
        assert abs(est.std_error - vals.std() / np.sqrt(200)) <= 1e-9 * est.std_error

    def test_mse_matrix_equals_per_sample_loop(self, instance):
        cfg, know, tx = instance
        outer = np.array([np.outer(e, e.conj()) for e in looped_errors(cfg, know, tx, 200, 18)])
        est = empirical_mse_matrix(cfg, know, tx, 200, 18)
        mean = outer.mean(axis=0)
        assert np.linalg.norm(est.mean - mean) <= 1e-12 * np.linalg.norm(mean)

    @pytest.mark.parametrize("n_samples", [100, 20_000, 45_001])
    def test_estimators_equal_the_serial_chunked_loop(self, monkeypatch, n_samples):
        # One chunk, an exact chunk, and three chunks with a short tail; the
        # five blocks of a chunk all differ in size at these dims.  Equal
        # generator states mean nothing was drawn past the last sample.
        cfg, know, _ = make_instance(21, dims=(2, 3, 5, 4), n_streams=2, weight=np.diag([0.6, 0.4]))
        tx = design(cfg, know).tx
        for estimator in (empirical_weighted_mse, empirical_mse_matrix):
            rng, ref_rng = np.random.default_rng(22), np.random.default_rng(22)
            got = estimator(cfg, know, tx, n_samples, rng)
            with monkeypatch.context() as patch:
                patch.setattr(validate_mod, "_error_samples", serial_chunks)
                ref = estimator(cfg, know, tx, n_samples, ref_rng)
            for a, b in ((got.mean, ref.mean), (got.std_error, ref.std_error)):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestStackedGradient:
    @pytest.mark.parametrize("dims, n_streams", [((1, 1, 1, 1), 1), ((2, 2, 2, 2), 2), ((3, 3, 3, 3), 2)])
    def test_matches_scipy_two_point_rule(self, dims, n_streams):
        cfg, know, _ = make_instance(
            19, dims=dims, n_streams=n_streams, weight=np.diag([0.6, 0.4][:n_streams])
        )

        def single_point_objective(x):
            p, ft = _unpack(x[None], cfg)
            return residual_weighted_mse(cfg, know, p[0], ft[0])

        rng = np.random.default_rng(20)
        dim = 2 * cfg.n_s * cfg.n_streams + 2 * cfg.n_r * cfg.m_r
        points = rng.standard_normal((3, dim))
        # x + 1e-8 rounds back to x here, so scipy falls back to a relative step.
        points[2, dim - 1] = -3e9
        assert (points[2, dim - 1] + 1e-8) - points[2, dim - 1] == 0
        for x in points:
            val, grad = _objective_and_gradient(cfg, know, x)
            ref = approx_derivative(single_point_objective, x, method="2-point", abs_step=1e-8)
            assert val == single_point_objective(x)
            assert np.max(np.abs(grad - ref)) <= 1e-6 * np.max(np.abs(ref))


class TestBruteForce:
    def test_scalar_chain_recovers_boundary(self):
        cfg = SystemConfig(
            n_s=1, m_r=1, n_r=1, m_d=1, n_streams=1,
            p_s=1.5, p_r=2.5, sigma1_sq=0.5, sigma2_sq=0.5,
            weight=np.eye(1),
        )
        know = exact_knowledge(np.ones((1, 1)), np.ones((1, 1)))
        res = brute_force_design(cfg, know, restarts=2, seed=0)
        assert np.isclose(np.linalg.norm(res.best_precoder) ** 2, 1.5)
        assert np.isclose(np.linalg.norm(res.best_tilde_forward) ** 2, 2.5)

    def test_reports_iterations_and_evaluations_run(self):
        cfg, know, _ = make_instance(21, dims=(2, 2, 2, 2), n_streams=2, weight=np.diag([0.6, 0.4]))
        res = brute_force_design(cfg, know, restarts=3, seed=0, max_iters=300)
        capped = brute_force_design(cfg, know, restarts=2, seed=0, max_iters=4)
        assert len(res.iterations_per_restart) == len(res.evaluations_per_restart) == 3
        assert all(1 <= it < 300 for it in res.iterations_per_restart)
        assert all(ev >= it for ev, it in zip(res.evaluations_per_restart, res.iterations_per_restart))
        assert capped.iterations_per_restart == (4, 4)

    def test_perfect_csi_diagonal_channels_match_designer(self):
        cfg = SystemConfig(
            n_s=2, m_r=2, n_r=2, m_d=2, n_streams=2,
            p_s=1.0, p_r=1.0, sigma1_sq=0.05, sigma2_sq=0.05,
            weight=np.eye(2),
        )
        know = exact_knowledge(np.diag([2.0, 1.0]), np.diag([2.0, 1.0]))
        sol = design(cfg, know, DesignOptions(restarts=4))
        res = brute_force_design(cfg, know, restarts=4, seed=1)
        assert abs(res.best_objective - sol.achieved_wmse) <= 1e-4

    def test_never_beats_designer_on_random_instances(self):
        for seed in (10, 11, 12):
            cfg, know, _ = make_instance(
                seed, dims=(2, 2, 2, 2), n_streams=2,
                weight=np.diag([0.6, 0.4]), est_snr_db=8.0,
            )
            sol = design(cfg, know, DesignOptions(restarts=8))
            res = brute_force_design(cfg, know, restarts=4, seed=seed)
            assert res.best_objective >= sol.achieved_wmse - 1e-6


class TestScalarGradient:
    def test_symmetric_point_has_symmetric_gradient(self):
        from afrelay.design import scalar_gradient

        n = 3
        gp, gf = scalar_gradient(
            np.full(n, 0.5), np.full(n, 0.7), np.full(n, 2.0), np.full(n, 3.0), np.full(n, 1.0)
        )
        assert np.allclose(gp, gp[0])
        assert np.allclose(gf, gf[0])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            p = rng.uniform(0.2, 1.5, n)
            f = rng.uniform(0.2, 1.5, n)
            gsr = rng.uniform(0.5, 10.0, n)
            grd = rng.uniform(0.5, 10.0, n)
            w = rng.uniform(0.1, 1.0, n)
            err = gradient_check_scalar_objective(p, f, gsr, grd, w, h=1e-6)
            assert err <= 1e-5

    def test_designer_output_is_stationary(self):
        for seed in (14, 15):
            cfg, know, _ = make_instance(seed, est_snr_db=5.0)
            sol = design(cfg, know)
            w = np.diag(cfg.weight).real
            norm = projected_gradient_norm(
                sol.alloc.p_alloc,
                sol.alloc.f_alloc,
                sol.spectral.gains_sr,
                sol.spectral.gains_rd,
                np.sort(w)[::-1],
            )
            assert norm <= 1e-6

    def test_projected_gradient_skips_an_all_zero_block(self):
        # An all-zero block has no active coordinate, and its projection
        # coefficient would be 0/0, a warning (an error in this suite).
        # A relay that sends nothing makes the objective flat in p too.
        p, g, w = np.array([1.0, 2.0]), np.array([1.0, 3.0]), np.array([0.6, 0.4])
        assert projected_gradient_norm(p, np.zeros(2), g, g, w) == 0.0
        assert projected_gradient_norm(np.zeros(2), np.zeros(2), g, g, w) == 0.0

    def test_rejects_boundary_points(self):
        with pytest.raises(ValueError):
            gradient_check_scalar_objective(
                np.array([0.0, 1.0]),
                np.array([1.0, 1.0]),
                np.array([1.0, 1.0]),
                np.array([1.0, 1.0]),
                np.array([1.0, 1.0]),
            )

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            gradient_check_scalar_objective(
                np.array([1.0]), np.array([1.0]), np.array([1.0]),
                np.array([1.0]), np.array([1.0]), h=1e-2,
            )
