import pickle
import warnings

import numpy as np
import pytest

from afrelay.channel import (
    ChannelKnowledge,
    ErrorStats,
    HopTraining,
    error_stats_first_hop,
    error_stats_second_hop,
    estimation_stats,
    exact_knowledge,
    exp_corr,
    sample_scenario,
    sample_scenario_stack,
)
from conftest import complex_gaussian, count_identity_tests, make_config, rand_psd


class TestExpCorr:
    def test_alpha_zero_is_identity(self):
        assert np.array_equal(exp_corr(0.0, 3), np.eye(3))

    def test_two_by_two(self):
        assert np.allclose(exp_corr(0.3, 2), [[1.0, 0.3], [0.3, 1.0]])

    def test_corner_entry_is_alpha_cubed(self):
        r = exp_corr(0.3, 4)
        assert np.isclose(r[0, 3], 0.3**3)
        assert np.isclose(r[0, 3], 0.027)

    def test_positive_definite_across_alpha(self):
        for alpha in (0.0, 0.3, 0.7, 0.95, 0.999):
            w = np.linalg.eigvalsh(exp_corr(alpha, 6))
            assert w[0] > 0

    def test_rejects_out_of_range_alpha(self):
        with pytest.raises(ValueError):
            exp_corr(1.0, 3)
        with pytest.raises(ValueError):
            exp_corr(-0.1, 3)


class TestTrainingStats:
    def test_zero_training_first_hop_gives_prior_variance(self):
        t = HopTraining(np.zeros((3, 5)), channel_var=0.8, noise_var=0.1)
        stats = error_stats_first_hop(t, n_s=3, m_r=4)
        assert np.array_equal(stats.row_cov, np.eye(4))
        assert np.allclose(stats.col_cov, 0.8 * np.eye(3))

    def test_orthogonal_training_first_hop(self):
        power = 2.5
        d = np.sqrt(power) * np.eye(3)
        t = HopTraining(d, channel_var=1.0, noise_var=0.5)
        stats = error_stats_first_hop(t, n_s=3, m_r=4)
        expected = 1.0 / (1.0 + power / 0.5)
        assert np.allclose(stats.col_cov, expected * np.eye(3))

    def test_correlated_training_matches_inverse_formula(self):
        # training with D D^H = noise_var * snr * R_alpha reproduces
        # col_cov = (I + snr R_alpha)^{-1} at unit channel variance
        snr, alpha, n = 10.0, 0.3, 4
        noise_var = 0.2
        r = exp_corr(alpha, n)
        d = np.linalg.cholesky(noise_var * snr * r)
        t = HopTraining(d, channel_var=1.0, noise_var=noise_var)
        stats = error_stats_first_hop(t, n_s=n, m_r=n)
        expected = np.linalg.inv(np.eye(n) + snr * r)
        assert np.allclose(stats.col_cov, expected)

    def test_second_hop_mirrors_first(self):
        t = HopTraining(np.zeros((4, 6)), channel_var=0.5, noise_var=0.1)
        stats = error_stats_second_hop(t, n_r=3, m_d=4)
        assert np.array_equal(stats.col_cov, np.eye(3))
        assert np.allclose(stats.row_cov, 0.5 * np.eye(4))

    def test_row_dimension_mismatch_raises(self):
        t = HopTraining(np.zeros((2, 5)), channel_var=1.0, noise_var=1.0)
        with pytest.raises(ValueError):
            error_stats_first_hop(t, n_s=3, m_r=4)
        with pytest.raises(ValueError):
            error_stats_second_hop(t, n_r=3, m_d=4)

    @pytest.mark.parametrize("name, value", [
        ("snr_est", -1.0), ("snr_est", np.nan),
        ("channel_var", 0.0), ("channel_var", np.nan),
        ("noise_var", -1.0), ("noise_var", np.nan),
    ])
    def test_bad_arguments_are_rejected_by_name(self, name, value):
        # NaN passes no comparison, so it must stop at entry, not surface
        # later as a warning or an error about col_cov.
        args = {"snr_est": 10.0, "channel_var": 1.0, "noise_var": 0.1, name: value}
        with pytest.raises(ValueError, match=f"{name} must be"):
            if name == "snr_est":
                estimation_stats(args["snr_est"], 0.3, 2, 2, 2, 2)
            else:
                HopTraining(np.eye(2), args["channel_var"], args["noise_var"])

    def test_infinite_arguments_give_the_limits(self):
        # Perfect training leaves no error; an infinite prior variance
        # leaves the noise-only estimate; infinite noise leaves the prior.
        stats_sr, stats_rd = estimation_stats(np.inf, 0.3, n_s=3, m_r=2, n_r=2, m_d=3)
        assert np.array_equal(stats_sr.col_cov, np.zeros((3, 3)))
        assert np.array_equal(stats_rd.row_cov, np.zeros((3, 3)))
        d = np.diag([1.0, 2.0])
        noise_only = error_stats_first_hop(HopTraining(d, np.inf, 0.5), n_s=2, m_r=3)
        assert np.allclose(noise_only.col_cov, np.linalg.inv(d @ d / 0.5))
        prior = error_stats_second_hop(HopTraining(d, 0.8, np.inf), n_r=3, m_d=2)
        assert np.array_equal(prior.row_cov, 0.8 * np.eye(2))

    def test_estimation_stats_structure(self):
        stats_sr, stats_rd = estimation_stats(10.0, 0.3, n_s=4, m_r=4, n_r=4, m_d=4)
        expected = np.linalg.inv(np.eye(4) + 10.0 * exp_corr(0.3, 4))
        assert np.array_equal(stats_sr.row_cov, np.eye(4))
        assert np.allclose(stats_sr.col_cov, expected)
        assert np.array_equal(stats_rd.col_cov, np.eye(4))
        assert np.allclose(stats_rd.row_cov, expected)

    def test_ill_conditioned_training_gives_hermitian_stats(self):
        # D = Q diag(sqrt(0.1 s lam)) for the eigensystem (lam, Q) of R_alpha
        # at alpha = 1 - 1e-15 and s = 200 dB: a general inverse of the
        # information matrix misses ErrorStats' Hermitian tolerance.
        lam, q = np.linalg.eigh(exp_corr(1 - 1e-15, 4))
        d = q * np.sqrt(0.1 * 1e20 * np.clip(lam, 0.0, None))
        t = HopTraining(d, channel_var=1.0, noise_var=0.1)
        for cov in (error_stats_first_hop(t, 4, 3).col_cov, error_stats_second_hop(t, 2, 4).row_cov):
            assert np.array_equal(cov, cov.conj().T)
            assert 0.0 < np.trace(cov).real <= 4.0
        # Well-conditioned training agrees with the general inverse.
        rng = np.random.default_rng(5)
        d = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
        t = HopTraining(d, channel_var=0.8, noise_var=0.3)
        expected = np.linalg.inv(np.eye(3) / 0.8 + d @ d.conj().T / 0.3)
        for cov in (error_stats_first_hop(t, 3, 2).col_cov, error_stats_second_hop(t, 4, 3).row_cov):
            assert np.linalg.norm(cov - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("k", [6, 9, 12, 15])
    def test_estimation_stats_near_unit_alpha_are_hermitian(self, k):
        # R_alpha is ill-conditioned near alpha = 1: a general inverse of
        # I + s R_alpha misses ErrorStats' Hermitian tolerance somewhere
        # in 60..200 dB for each of these alphas.  ErrorStats checks PSD too.
        for snr_db in range(60, 201, 5):
            stats_sr, stats_rd = estimation_stats(
                10.0 ** (snr_db / 10.0), 1 - 10.0**-k, n_s=4, m_r=4, n_r=4, m_d=4
            )
            for cov in (stats_sr.col_cov, stats_rd.row_cov):
                assert np.array_equal(cov, cov.conj().T)
                assert 0.0 < np.trace(cov).real <= 4.0


class TestErrorSampling:
    @pytest.mark.parametrize("shape", [(20000, 4, 4), (20000, 3, 3), (100000, 2), (7,)])
    def test_complex_gaussian_matches_two_draw_formula(self, shape):
        rng = np.random.default_rng(21)
        re, im = rng.standard_normal(shape), rng.standard_normal(shape)
        ref = (re + 1j * im) / np.sqrt(2.0)
        got = complex_gaussian(np.random.default_rng(21), *shape)
        assert got.dtype == np.complex128
        assert got.tobytes() == ref.tobytes()


class TestScenario:
    def test_same_seed_identical(self):
        cfg = make_config()
        k1, t1 = sample_scenario(cfg, 10.0, 0.3, 123)
        k2, t2 = sample_scenario(cfg, 10.0, 0.3, 123)
        assert np.array_equal(k1.est_sr, k2.est_sr)
        assert np.array_equal(t1.h_rd, t2.h_rd)

    def test_stack_matches_per_block_formula(self):
        from afrelay.channel import _scenario_factors

        cfg = make_config(dims=(3, 2, 4, 3), n_streams=2)
        know, truth = sample_scenario_stack(
            cfg, 10.0, 0.3, [np.random.default_rng(s) for s in (1, 2)]
        )
        _, _, roots = _scenario_factors(cfg, 10.0, 0.3)
        for i, seed in enumerate((1, 2)):
            rng = np.random.default_rng(seed)
            blocks = []
            for left, right in roots:
                shape = (left.shape[0], right.shape[0])
                re, im = rng.standard_normal(shape), rng.standard_normal(shape)
                blocks.append(left @ ((re + 1j * im) / np.sqrt(2.0)) @ right)
            est_sr, delta_sr, est_rd, delta_rd = blocks
            assert know.est_sr[i].tobytes() == est_sr.tobytes()
            assert know.est_rd[i].tobytes() == est_rd.tobytes()
            assert truth.delta_sr[i].tobytes() == delta_sr.tobytes()
            assert truth.delta_rd[i].tobytes() == delta_rd.tobytes()

    @pytest.mark.parametrize("snr_db", [-300.0, -100.0, 10.0])
    def test_estimate_covariance_is_identity_minus_error(self, snr_db):
        from afrelay.channel import _scenario_factors

        cfg = make_config(dims=(3, 2, 4, 3), n_streams=2)
        snr = 10.0 ** (snr_db / 10.0)
        stats_sr, stats_rd, roots = _scenario_factors(cfg, snr, 0.5)
        cases = (
            (roots[0][1], stats_sr.col_cov, exp_corr(0.5, 3)),
            (roots[2][0], stats_rd.row_cov, exp_corr(0.5, 3)),
        )
        for root, err_cov, r in cases:
            cov = root @ root
            # I - error covariance, exact to rounding where it does not cancel
            assert np.linalg.norm(cov - (np.eye(3) - err_cov)) <= 1e-12
            # and s R to first order, to relative precision where it does
            if snr < 1e-6:
                assert np.linalg.norm(cov - snr * r) <= 1e-9 * snr * np.linalg.norm(r)

    def test_truth_is_estimate_plus_error(self):
        cfg = make_config()
        know, truth = sample_scenario(cfg, 5.0, 0.3, 7)
        assert np.array_equal(truth.h_sr, know.est_sr + truth.delta_sr)
        assert np.array_equal(truth.h_rd, know.est_rd + truth.delta_rd)

    def test_high_estimation_snr_kills_errors(self):
        cfg = make_config()
        know, truth = sample_scenario(cfg, 1e12, 0.3, 9)
        assert np.linalg.norm(truth.delta_sr) <= 1e-5
        assert np.allclose(truth.h_sr, know.est_sr, atol=1e-5)

    def test_infinite_estimation_snr_gives_exact_estimates(self):
        # At snr_est = inf the error covariance is zero and the estimate
        # covariance s R (I + s R)^{-1} takes its limit I: no inf * 0, so
        # no warning, and the truth is the estimate.
        from afrelay.channel import _scenario_factors

        cfg = make_config(dims=(3, 2, 4, 3), n_streams=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            know, truth = sample_scenario(cfg, np.inf, 0.3, 1)
            _, _, roots = _scenario_factors(cfg, np.inf, 0.3)
            _, stack = sample_scenario_stack(cfg, np.inf, 0.3, [np.random.default_rng(32)] * 10_000)
        assert not truth.delta_sr.any() and not truth.delta_rd.any()
        assert np.array_equal(truth.h_sr, know.est_sr) and np.array_equal(truth.h_rd, know.est_rd)
        (sr_row, sr_col), _, (rd_row, rd_col), _ = roots
        for root in (sr_row, sr_col, rd_row, rd_col):
            assert np.array_equal(root, np.eye(len(root)))
        for h in (stack.h_sr, stack.h_rd):
            assert np.all(np.abs(np.mean(np.abs(h) ** 2, axis=0) - 1.0) <= 0.05)

    def test_true_channel_entries_have_unit_variance(self):
        cfg = make_config()
        n = 100_000
        _, truth = sample_scenario_stack(cfg, 10.0, 0.3, [np.random.default_rng(31)] * n)
        var_sr = np.mean(np.abs(truth.h_sr) ** 2, axis=0)
        var_rd = np.mean(np.abs(truth.h_rd) ** 2, axis=0)
        assert np.all(np.abs(var_sr - 1.0) <= 0.02)
        assert np.all(np.abs(var_rd - 1.0) <= 0.02)

    def test_errors_satisfy_the_expectation_identities(self):
        # E[dH A dH^H] = tr(A col) row  and  E[dH^H B dH] = tr(B row) col,
        # the identities behind the closed-form K1 and K2, on both hops'
        # sampled errors, each entry within 3 estimator standard deviations
        cfg = make_config(dims=(3, 2, 4, 3), n_streams=2)
        n = 100_000
        know, truth = sample_scenario_stack(cfg, 10.0, 0.5, [np.random.default_rng(35)] * n)
        rng = np.random.default_rng(36)
        for draws, stats in ((truth.delta_sr, know.stats_sr), (truth.delta_rd, know.stats_rd)):
            row, col = stats.row_cov, stats.col_cov
            a, b = rand_psd(rng, stats.cols), rand_psd(rng, stats.rows)
            for lhs_samples, rhs in (
                (np.einsum("nij,jk,nlk->nil", draws, a, draws.conj()), np.real(np.trace(a @ col)) * row),
                (np.einsum("nji,jk,nkl->nil", draws.conj(), b, draws), np.real(np.trace(b @ row)) * col),
            ):
                mean = lhs_samples.mean(axis=0)
                se = np.sqrt((lhs_samples.real.var(axis=0) + lhs_samples.imag.var(axis=0)) / n)
                assert np.all(np.abs(mean - rhs) <= 3.0 * se)
                assert np.linalg.norm(mean - rhs) <= 0.02 * np.linalg.norm(rhs)

    def test_estimate_and_error_are_uncorrelated(self):
        cfg = make_config()
        n = 100_000
        know, truth = sample_scenario_stack(cfg, 10.0, 0.3, [np.random.default_rng(33)] * n)
        cross = np.mean(know.est_sr * truth.delta_sr.conj(), axis=0)
        assert np.all(np.abs(cross) <= 0.02)


class TestKnowledgeObjects:
    def test_dimension_consistency_enforced(self):
        stats = ErrorStats(np.eye(4), np.eye(4))
        with pytest.raises(ValueError):
            ChannelKnowledge(np.zeros((3, 4)), np.zeros((4, 4)), stats, stats)

    @pytest.mark.parametrize(
        "build,match",
        [
            pytest.param(
                lambda: exact_knowledge(np.full((2, 2), np.nan), np.eye(2)),
                "est_sr must be a finite", id="non_finite_estimate",
            ),
            pytest.param(
                lambda: exact_knowledge(np.eye(2), np.zeros((1, 1, 2, 2))),
                "est_rd must be a finite", id="four_dimensional_estimate",
            ),
            pytest.param(
                lambda: exact_knowledge(np.zeros((2, 2, 2)), np.zeros((3, 2, 2))),
                "stack different numbers of draws", id="draw_counts_differ",
            ),
            pytest.param(
                lambda: HopTraining(np.ones(3), 1.0, 1.0), "training must be a 2-D",
                id="one_dimensional_training",
            ),
            pytest.param(
                lambda: HopTraining(np.array([[np.inf]]), 1.0, 1.0), "non-finite",
                id="non_finite_training",
            ),
            pytest.param(lambda: exp_corr(0.3, 0), "n must be >= 1", id="empty_correlation"),
        ],
    )
    def test_malformed_arguments_are_refused(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()

    def test_exact_knowledge_has_zero_stats(self):
        know = exact_knowledge(np.ones((4, 3)), np.ones((2, 4)))
        assert np.array_equal(know.stats_sr.row_cov, np.zeros((4, 4)))
        assert np.array_equal(know.stats_rd.col_cov, np.zeros((4, 4)))

    def test_error_stats_rejects_non_psd(self):
        with pytest.raises(ValueError):
            ErrorStats(np.diag([1.0, -0.2]), np.eye(3))

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_identity_sides_are_tested_at_any_scale(self, scale):
        # The squares of the gap from c I overflow at 1e200 and underflow
        # at 1e-200.
        def c_sr(row_cov):
            stats = ErrorStats(np.eye(2), np.eye(2))
            return ChannelKnowledge(np.eye(2), np.eye(2), ErrorStats(row_cov, np.eye(2)), stats).c_sr

        with pytest.raises(ValueError, match="^stats_sr.row_cov must be a scaled identity"):
            c_sr(scale * np.diag([1.0, 2.0]))
        assert c_sr(scale * np.eye(2)) == scale

    def test_per_draw_error_stats_are_validated_draw_by_draw(self):
        good = np.stack([np.eye(2), 2.0 * np.eye(2), np.eye(2)])
        not_psd, not_hermitian = good.copy(), good.astype(complex)
        not_psd[1] = np.diag([1.0, -0.2])
        not_hermitian[2, 0, 1] = 0.5j
        with pytest.raises(ValueError, match=r"not PSD \(stack entry 1\)"):
            ErrorStats(not_psd, good)
        with pytest.raises(ValueError, match=r"not Hermitian \(stack entry 2\)"):
            ErrorStats(good, not_hermitian)
        assert ErrorStats(good, good).row_cov.shape == (3, 2, 2)

    def test_per_draw_statistics_must_match_the_draw_count(self):
        est = np.zeros((3, 2, 2))
        eye = np.stack([np.eye(2)] * 3)
        shared, per_draw = ErrorStats(eye[0], eye[0]), ErrorStats(eye, eye)
        assert ChannelKnowledge(est, est, per_draw, shared).c_sr.shape == (3, 1, 1)
        for est_sr, stats in ((est[:2], per_draw), (est[0], per_draw)):
            with pytest.raises(ValueError, match="stats_sr holds covariances of other draws"):
                ChannelKnowledge(est_sr, est_sr, stats, shared)


def _point_stacks(cfg, snrs, draws=2):
    """One sampled knowledge stack per estimation SNR (linear)."""
    return [
        sample_scenario_stack(cfg, snr, 0.3, [np.random.default_rng((k, i)) for i in range(draws)])[0]
        for k, snr in enumerate(snrs)
    ]


class TestKnowledgeStacks:
    def test_concat_keeps_each_draws_statistics(self, monkeypatch):
        import afrelay.channel as channel_mod

        cfg = make_config(dims=(3, 4, 2, 3), n_streams=2)
        parts = _point_stacks(cfg, (0.01, 1e6))
        for part in parts:
            part.c_sr, part.c_rd
        validations, calls = [], count_identity_tests(monkeypatch)
        real = channel_mod._as_psd
        monkeypatch.setattr(
            channel_mod, "_as_psd", lambda m, name="matrix": validations.append(name) or real(m, name)
        )
        mixed = ChannelKnowledge.concat(parts)
        # The per-draw covariances join the parts' validated ones, with no
        # new validation, and each identity side is tested once, for all
        # draws at a time.
        assert validations == []
        mixed.c_sr, mixed.c_rd, mixed.c_sr
        assert calls == ["stats_sr.row_cov", "stats_rd.col_cov"]
        assert mixed.est_sr.shape == (4, 4, 3) and mixed.est_rd.shape == (4, 3, 2)
        assert mixed.stats_sr.col_cov.shape == (4, 3, 3)
        for i in range(4):
            part, j = parts[i // 2], i % 2
            one = mixed.select(i)
            for hop in ("stats_sr", "stats_rd"):
                for side in ("row_cov", "col_cov"):
                    expected = getattr(getattr(part, hop), side)
                    assert np.array_equal(getattr(getattr(mixed, hop), side)[i], expected)
                    assert np.array_equal(getattr(getattr(one, hop), side), expected)
            assert np.array_equal(one.est_sr, part.est_sr[j])
            assert one.c_sr == part.c_sr and one.c_rd == part.c_rd
        for name in ("c_sr", "c_rd"):
            per_draw = getattr(mixed, name)
            assert per_draw.shape == (4, 1, 1)
            assert per_draw[:, 0, 0].tolist() == [getattr(p, name) for p in parts for _ in range(2)]
        # Draws of one point select to, and rejoin into, its statistics.
        same = mixed.select(slice(2, 4))
        assert np.array_equal(same.est_sr, parts[1].est_sr)
        assert np.array_equal(same.stats_sr.col_cov, np.stack([parts[1].stats_sr.col_cov] * 2))
        rejoined = ChannelKnowledge.concat([mixed.select(1), mixed.select(0)])
        assert np.array_equal(rejoined.est_sr, parts[0].est_sr[::-1])
        assert np.array_equal(rejoined.stats_rd.row_cov, np.stack([parts[0].stats_rd.row_cov] * 2))
        # A concat of parts that share statistics keeps that object.
        shared = ChannelKnowledge.concat([parts[0].select(1), parts[0]])
        assert shared.stats_sr is parts[0].stats_sr and shared.stats_rd is parts[0].stats_rd
        # A mixed selection keeps the order and the statistics of its draws.
        picked = mixed.select([3, 0, 2])
        assert np.array_equal(picked.stats_sr.col_cov[1], parts[0].stats_sr.col_cov)
        assert picked.c_sr[:, 0, 0].tolist() == [parts[1].c_sr, parts[0].c_sr, parts[1].c_sr]

    def test_stacks_of_general_statistics_concat_without_reading_scales(self):
        rng = np.random.default_rng(4)
        general = [
            ChannelKnowledge(
                rng.standard_normal((1, 2, 2)), rng.standard_normal((1, 2, 2)),
                ErrorStats(rand_psd(rng, 2), rand_psd(rng, 2)),
                ErrorStats(rand_psd(rng, 2), rand_psd(rng, 2)),
            )
            for _ in range(2)
        ]
        mixed = ChannelKnowledge.concat(general)
        with pytest.raises(ValueError, match="stats_sr.row_cov"):
            mixed.c_sr

    def test_equality_is_identity_and_never_raises(self):
        cfg = make_config()
        know = _point_stacks(cfg, (10.0,), draws=3)[0]
        restored = pickle.loads(pickle.dumps(know))
        assert (know == restored) is False and (know == know) is True
        assert (know.stats_sr == restored.stats_sr) is False
        assert np.array_equal(restored.est_sr, know.est_sr) and restored.c_sr == know.c_sr
        mixed = ChannelKnowledge.concat([know, *_point_stacks(cfg, (100.0,))])
        again = pickle.loads(pickle.dumps(mixed))
        assert (mixed == again) is False and (mixed != again) is True
        assert (mixed.stats_rd == again.stats_rd) is False
        assert np.array_equal(again.c_rd, mixed.c_rd)


class TestKeptEigensystem:
    def test_roots_are_the_bytes_herm_sqrt_gives(self):
        # Shared, per-draw (concat) and selected statistics each keep the
        # eigensystem their validation computed; the sampler's and the
        # Monte-Carlo's roots are rebuilt from it, in herm_sqrt's bytes,
        # so no sampled bit moves.
        from afrelay.linalg import herm_sqrt

        cfg = make_config(dims=(3, 4, 2, 3), n_streams=2)
        parts = _point_stacks(cfg, (0.01, 1e6))
        mixed = ChannelKnowledge.concat(parts)
        assert mixed.stats_sr.col_cov.ndim == 3
        for know in (*parts, mixed, mixed.select(2), mixed.select([3, 0])):
            for stats in (know.stats_sr, know.stats_rd):
                for side in ("row_cov", "col_cov"):
                    cov = getattr(stats, side)
                    w, q = stats.eig(side)
                    assert w.shape == cov.shape[:-1] and q.shape == cov.shape
                    assert (w >= 0.0).all() and (np.diff(w, axis=-1) >= 0.0).all()
                    rebuilt = (q * w[..., None, :]) @ q.conj().swapaxes(-1, -2)
                    assert np.allclose(rebuilt, cov, rtol=0.0, atol=1e-14)
                    assert stats.root(side).tobytes() == herm_sqrt(cov).tobytes()

    def test_joined_sliced_and_identity_statistics_keep_the_decomposition_bytes(self):
        # Statistics built without a decomposition (a concat of a concat, a
        # select of a select, zero statistics, the known identity sides)
        # keep the (w, q) and the roots that decomposing them gives.
        from afrelay.linalg import _as_psd, herm_sqrt

        cfg = make_config(dims=(3, 4, 2, 3), n_streams=2)
        parts = _point_stacks(cfg, (0.01, 1e6))
        mixed = ChannelKnowledge.concat(parts)
        nested = ChannelKnowledge.concat([mixed, parts[1], mixed.select([2])])
        assert nested.stats_sr.col_cov.shape == (7, 3, 3)
        twice = mixed.select([3, 0, 2]).select(slice(1, 3))
        zero = exact_knowledge(np.ones((2, 3, 4)), np.ones((2, 4, 2)))
        knows = (nested, nested.select(4), twice, twice.select(0), zero)
        stats = [s for know in knows for s in (know.stats_sr, know.stats_rd)]
        stats += [*estimation_stats(10.0, 0.3, 3, 4, 2, 3), *estimation_stats(0.0, 0.0, 1, 1, 1, 1)]
        t = HopTraining(complex_gaussian(np.random.default_rng(2), 3, 5), 1.0, 0.1)
        stats += [error_stats_first_hop(t, 3, 4), error_stats_second_hop(t, 2, 3)]
        for one in stats:
            for side in ("row_cov", "col_cov"):
                cov = getattr(one, side)
                _, w, q = _as_psd(cov)
                assert [a.tobytes() for a in one.eig(side)] == [w.tobytes(), q.tobytes()]
                assert one.root(side).tobytes() == herm_sqrt(cov).tobytes()

    def test_zero_covariances_keep_the_identity(self):
        for n in range(1, 9):
            stats = exact_knowledge(np.ones((n, n)), np.ones((n, n))).stats_sr
            for side in ("row_cov", "col_cov"):
                w, q = stats.eig(side)
                assert np.array_equal(w, np.zeros(n)) and np.array_equal(q, np.eye(n))

    def test_sampling_decomposes_only_the_estimate_covariances(self, monkeypatch):
        # Per stack: two eighs in the MMSE error covariances, one per
        # validated non-identity side (two) and one per estimate
        # covariance's root (two); the four error-side roots come from the
        # kept eigensystems, and the identity sides' are known.
        import afrelay.channel as channel_mod

        cfg = make_config()
        roots, decompositions = [], []
        real_sqrt = channel_mod.herm_sqrt
        monkeypatch.setattr(channel_mod, "herm_sqrt", lambda m: roots.append(m) or real_sqrt(m))
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda m, real=real: decompositions.append(m) or real(m))
        sample_scenario_stack(cfg, 10.0, 0.3, [np.random.default_rng(i) for i in range(3)])
        assert len(roots) == 2 and len(decompositions) == 6
