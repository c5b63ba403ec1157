import importlib

import numpy as np
import pytest
import scipy.linalg

from afrelay.channel import ChannelKnowledge, ErrorStats, estimation_stats, exact_knowledge
from afrelay.design import (
    AllocationState,
    ConvergenceError,
    DesignOptions,
    InfeasibleAllocationError,
    alternate,
    assemble,
    design,
    design_batch,
    solve_eta_p,
    spectral_decompose,
    waterfill,
    waterfill_kkt_residual,
    weight_eigensystem,
)
from afrelay.linalg import NotPSDError, svd_ordered
from afrelay.mse import optimal_equalizer, tilde_maps, weighted_mse
from conftest import count_identity_tests, make_config, make_instance, rand_complex


def saturated_multiplier_oracle(weights, budget, iters=200):
    """Solve sum_i (sqrt(w_i) t - 1)^+ = budget for t = 1/sqrt(mu) by
    bisection, assuming every stream stays active."""
    w = np.asarray(weights, float)
    lo, hi = 0.0, 1e9
    for _ in range(iters):
        t = 0.5 * (lo + hi)
        if np.sum(np.sqrt(w) * t - 1.0) > budget:
            hi = t
        else:
            lo = t
    return 0.5 * (lo + hi)


def fill_one(amp, gains_fixed, gains, weights, budget):
    """One half step on a stack of one: the amplitudes and multiplier of
    water-filling ``gains`` while the other hop holds ``amp`` over
    ``gains_fixed`` (coefficients w a / (1 + a), a = (amp gains_fixed)^2)."""
    a = (np.asarray(amp, float) * np.asarray(gains_fixed, float)) ** 2
    x, mu = waterfill((weights * a / (1 + a))[None], np.asarray(gains, float)[None], budget)
    return np.sqrt(x[0]), mu[0]


def alternate_one(gains_sr, gains_rd, weights, p_s, p_r, **kwargs):
    """:func:`alternate` on a stack of one, as that row's own state."""
    state, infeasible = alternate(gains_sr[None], gains_rd[None], weights, p_s, p_r, **kwargs)
    assert not infeasible[0]
    return state.draw(0)


class TestWeightEigensystem:
    def test_paper_weight_matrix(self):
        e = weight_eigensystem(np.diag([0.3, 0.3, 0.2, 0.2]))
        assert np.allclose(e.values, [0.3, 0.3, 0.2, 0.2])
        assert np.array_equal(e.vectors, np.eye(4))

    def test_identity(self):
        e = weight_eigensystem(np.eye(3))
        assert np.array_equal(e.values, np.ones(3))
        assert np.array_equal(e.vectors, np.eye(3))

    def test_random_psd_reconstruction(self):
        rng = np.random.default_rng(0)
        a = rand_complex(rng, 4, 4)
        w = a @ a.conj().T
        e = weight_eigensystem(w)
        assert np.linalg.norm(e.reconstruct() - w) <= 1e-9 * np.linalg.norm(w)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSDError):
            weight_eigensystem(np.diag([1.0, -0.3]))

    def test_designs_on_one_config_decompose_the_weight_once(self, monkeypatch):
        design_mod = importlib.import_module("afrelay.design")
        calls = []
        real = design_mod.weight_eigensystem
        monkeypatch.setattr(
            design_mod, "weight_eigensystem", lambda w: calls.append(w) or real(w)
        )
        cfg, know, _ = make_instance(37, weight=np.diag([0.4, 0.3, 0.2, 0.1]))
        first = design(cfg, know)
        second = design(cfg, know, DesignOptions(restarts=1))
        assert len(calls) == 1 and calls[0] is cfg.weight
        assert first.tx.precoder.tobytes() == design(cfg, know).tx.precoder.tobytes()
        assert second.achieved_wmse <= first.achieved_wmse + 1e-12
        assert len(calls) == 1


class TestSpectralDecompose:
    def test_perfect_csi_reduces_to_scaling(self):
        cfg, _, _ = make_instance(1)
        rng = np.random.default_rng(2)
        h_sr = rand_complex(rng, cfg.m_r, cfg.n_s)
        h_rd = rand_complex(rng, cfg.m_d, cfg.n_r)
        from afrelay.channel import exact_knowledge

        know = exact_knowledge(h_sr, h_rd)
        sp = spectral_decompose(cfg, know)
        expected_sr = np.linalg.svd(h_sr, compute_uv=False) / np.sqrt(cfg.sigma1_sq)
        expected_rd = np.linalg.svd(h_rd, compute_uv=False) / np.sqrt(cfg.sigma2_sq)
        assert np.allclose(sp.gains_sr, expected_sr[: cfg.n_streams])
        assert np.allclose(sp.gains_rd, expected_rd[: cfg.n_streams])

    def test_scalar_column_covariance_scales_gains(self):
        cfg = make_config()
        rng = np.random.default_rng(3)
        h_sr = rand_complex(rng, 4, 4)
        h_rd = rand_complex(rng, 4, 4)
        psi = 0.2
        know = ChannelKnowledge(
            h_sr,
            h_rd,
            ErrorStats(np.eye(4), psi * np.eye(4)),
            ErrorStats(np.zeros((4, 4)), np.zeros((4, 4))),
        )
        sp = spectral_decompose(cfg, know)
        expected = np.linalg.svd(h_sr, compute_uv=False) / np.sqrt(
            cfg.p_s * psi + cfg.sigma1_sq
        )
        assert np.allclose(sp.gains_sr, expected)

    def test_gains_are_nonincreasing_with_stream_count(self):
        cfg, know, _ = make_instance(4)
        sp = spectral_decompose(cfg, know)
        assert sp.gains_sr.shape == (cfg.n_streams,)
        assert sp.gains_rd.shape == (cfg.n_streams,)
        assert np.all(np.diff(sp.gains_sr) <= 0)
        assert np.all(np.diff(sp.gains_rd) <= 0)

    def test_rejects_general_row_covariance(self):
        cfg = make_config()
        rng = np.random.default_rng(5)
        corr = np.diag([1.0, 0.5, 1.0, 1.0])
        know = ChannelKnowledge(
            rand_complex(rng, 4, 4),
            rand_complex(rng, 4, 4),
            ErrorStats(corr, 0.1 * np.eye(4)),
            ErrorStats(0.1 * np.eye(4), np.eye(4)),
        )
        with pytest.raises(ValueError):
            spectral_decompose(cfg, know)


class TestWaterfill:
    def test_single_stream_takes_full_budget(self):
        f, _ = fill_one(
            np.array([1.0]), np.array([2.0]), np.array([1.5]), np.array([1.0]), 3.0
        )
        assert np.isclose(f[0] ** 2, 3.0)

    def test_symmetric_split_is_uniform(self):
        n = 4
        f, _ = fill_one(
            np.full(n, 1.0), np.full(n, 2.0), np.full(n, 2.0), np.full(n, 0.5), 2.0
        )
        assert np.allclose(f**2, 0.5)

    def test_two_stream_case_matches_bisection_oracle(self):
        # saturated source factor, unit second-hop gains, w = [2, 1]:
        # the multiplier equation reduces to (sqrt(2) + 1) t = budget + 2
        weights = np.array([2.0, 1.0])
        t = saturated_multiplier_oracle(weights, 2.0)
        expected = np.sqrt(weights) * t - 1.0
        assert np.allclose(expected, [1.3431, 0.6569], atol=1e-4)
        f, mu = fill_one(
            np.array([1e12, 1e12]),
            np.array([1.0, 1.0]),
            np.array([1.0, 1.0]),
            weights,
            2.0,
        )
        assert np.allclose(f**2, expected, rtol=1e-4)
        assert np.isclose(1.0 / np.sqrt(mu), t, rtol=1e-4)

    def test_budget_met_exactly(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            p = rng.uniform(0.1, 2.0, n)
            gsr = np.sort(rng.uniform(0.1, 20.0, n))[::-1]
            grd = np.sort(rng.uniform(0.1, 20.0, n))[::-1]
            w = np.sort(rng.uniform(0.05, 1.0, n))[::-1]
            budget = float(rng.uniform(0.5, 4.0))
            f, mu = fill_one(p, gsr, grd, w, budget)
            assert abs(np.sum(f**2) - budget) <= 1e-9 * budget
            a = (p * gsr) ** 2
            res = waterfill_kkt_residual(f**2, mu, w * a / (1 + a), grd)
            assert res <= 1e-8

    def test_weak_stream_gets_clamped(self):
        f, _ = fill_one(
            np.array([1.0, 1.0]),
            np.array([5.0, 5.0]),
            np.array([10.0, 0.01]),
            np.array([1.0, 1.0]),
            0.1,
        )
        assert f[1] == 0.0
        assert np.isclose(f[0] ** 2, 0.1)

    def test_all_zero_gains_is_infeasible(self):
        with pytest.raises(InfeasibleAllocationError):
            fill_one(
                np.array([1.0, 1.0]),
                np.array([1.0, 1.0]),
                np.array([0.0, 0.0]),
                np.array([1.0, 1.0]),
                1.0,
            )

    def test_source_side_mirrors_relay_side(self):
        weights = np.array([2.0, 1.0])
        t = saturated_multiplier_oracle(weights, 2.0)
        # the source fill sees the relay's amplitudes over the second hop
        p, _ = fill_one(
            np.array([1e12, 1e12]),
            np.array([1.0, 1.0]),
            np.array([1.0, 1.0]),
            weights,
            2.0,
        )
        assert np.allclose(p**2, np.sqrt(weights) * t - 1.0, rtol=1e-4)

    def test_stack_rows_equal_each_row_alone(self):
        # tied, zero, all-zero-coefficient (flat) and clamped rows in one stack
        coeffs = np.array([
            [0.5, 0.5, 0.5, 0.5],
            [2.0, 1.0, 0.5, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [1.0, 1.0, 1.0, 1.0],
            [0.3, 0.9, 0.2, 0.7],
        ])
        gains = np.array([
            [2.0, 2.0, 2.0, 2.0],
            [3.0, 0.0, 1.0, 1.0],
            [1.0, 1.0, 0.0, 0.0],
            [10.0, 0.01, 0.0, 10.0],
            [4.0, 3.0, 3.0, 1e-15],
        ])
        x, mu = waterfill(coeffs, gains, 1.5)
        assert x.shape == (5, 4) and mu.shape == (5,)
        assert np.isinf(mu[2]) and np.array_equal(x[2], [0.75, 0.75, 0.0, 0.0])
        for i in range(5):
            x_i, mu_i = waterfill(coeffs[i : i + 1], gains[i : i + 1], 1.5)
            assert np.array_equal(x_i[0], x[i]) and np.array_equal(mu_i[0], mu[i])

    @pytest.mark.parametrize("budget", [np.nan, np.inf, 0.0, -1.0])
    def test_budget_must_be_finite_and_positive(self, budget):
        with pytest.raises(ValueError, match="budget"):
            waterfill(np.ones((1, 2)), np.ones((1, 2)), budget)

    @pytest.mark.parametrize("name", ["coeffs", "gains"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
    def test_entries_must_be_finite_and_nonnegative(self, name, bad):
        args = {"coeffs": np.ones((2, 3)), "gains": np.ones((2, 3))}
        args[name][1, 2] = bad
        with pytest.raises(ValueError, match=name):
            waterfill(budget=1.0, **args)

    @pytest.mark.parametrize("gain,budget", [(1.0, 1.0), (5.0, 5.0)])
    def test_subnormal_coefficient_has_an_exact_kkt_residual(self, gain, budget):
        # The whole budget goes to the one positive coefficient, to
        # rounding; its multiplier c g^2 / (1 + x g^2)^2 is subnormal, so
        # its rounding alone made a relative residual of up to 4e-11.
        coeffs = np.array([[0.0, 2.2250738585e-313, 0.0]])
        gains = np.array([[1.0, gain, 1.0]])
        x, mu = waterfill(coeffs, gains, budget)
        assert np.allclose(x[0], [0.0, budget, 0.0], rtol=4 * np.finfo(float).eps, atol=0.0)
        assert 0.0 < mu[0] < np.finfo(float).tiny
        assert waterfill_kkt_residual(x, mu, coeffs, gains)[0] <= 1e-12

    def test_rows_must_be_two_dimensional(self):
        with pytest.raises(ValueError, match="rows"):
            waterfill(np.ones(3), np.ones(3), 1.0)


class TestIterateAllocations:
    def test_single_stream_hits_both_budgets(self):
        st = alternate_one(
            np.array([3.0]), np.array([2.0]), np.array([1.0]), 1.5, 2.5
        )
        assert np.isclose(st.p_alloc[0] ** 2, 1.5)
        assert np.isclose(st.f_alloc[0] ** 2, 2.5)
        assert st.converged

    def test_symmetric_problem_stays_uniform(self):
        n = 4
        st = alternate_one(
            np.full(n, 3.0), np.full(n, 3.0), np.full(n, 0.25), 1.0, 1.0
        )
        assert np.allclose(st.p_alloc**2, 0.25)
        assert np.allclose(st.f_alloc**2, 0.25)

    def test_objective_trace_monotone_and_kkt(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            gsr = np.sort(rng.uniform(0.2, 30.0, n))[::-1]
            grd = np.sort(rng.uniform(0.2, 30.0, n))[::-1]
            w = np.sort(rng.uniform(0.05, 1.0, n))[::-1]
            st = alternate_one(gsr, grd, w, 1.0, 1.0)
            tr = st.objective_trace
            assert not np.any(np.diff(tr) > 1e-12 * np.abs(tr[:-1]) + 1e-300)
            assert tr[-1] <= tr[0]
            a = (st.p_alloc * gsr) ** 2
            b = (st.f_alloc * grd) ** 2
            assert waterfill_kkt_residual(st.f_alloc**2, st.mu_f, w * a / (1 + a), grd) <= 1e-8
            assert waterfill_kkt_residual(st.p_alloc**2, st.mu_p, w * b / (1 + b), gsr) <= 1e-8

    def test_non_convergence_raises_with_trace(self, monkeypatch):
        # One iteration and a zero tolerance: the draw reports a
        # ConvergenceError carrying the iteration's two objective values.
        import functools

        design_mod = importlib.import_module("afrelay.design")
        short = functools.partial(design_mod.alternate, tol=0.0, max_iters=1)
        monkeypatch.setattr(design_mod, "alternate", short)
        cfg, know, _ = make_instance(41)
        batch = design_batch(cfg, know)
        (failure,) = batch.failures
        assert isinstance(failure, ConvergenceError)
        assert failure.objective_trace.shape == (2,)
        with pytest.raises(ConvergenceError):
            batch.draw(0)

    def test_stack_rows_equal_each_row_alone(self):
        # tied, zero and all-zero gains, tied and zero weights, and a row
        # that one iteration cannot settle, from uniform and given inits
        gsr = np.array([
            [3.0, 3.0, 1.0],
            [5.0, 0.0, 0.0],
            [0.0, 0.0, 0.0],
            [4.0, 2.0, 1.0],
            [30.0, 0.2, 0.2],
        ])
        grd = np.array([
            [2.0, 1.0, 1.0],
            [4.0, 2.0, 0.0],
            [1.0, 1.0, 1.0],
            [0.0, 0.0, 0.0],
            [0.5, 0.5, 0.1],
        ])
        w = np.array([0.5, 0.5, 0.0])
        for p_init in (None, np.array([0.2, 0.5, 0.6])):
            state, infeasible = alternate(gsr, grd, w, 1.5, 2.0, p_init)
            assert infeasible.tolist() == [False, False, True, True, False]
            assert state.converged.tolist() == [True, True, False, False, True]
            for i in range(len(gsr)):
                alone, flag = alternate(gsr[i : i + 1], grd[i : i + 1], w, 1.5, 2.0, p_init)
                assert flag[0] == infeasible[i]
                got, want = state.draw(i), alone.draw(0)
                for field in ("p_alloc", "f_alloc", "mu_p", "mu_f", "n_iters", "converged"):
                    assert np.array_equal(
                        getattr(got, field), getattr(want, field), equal_nan=True
                    ), field
                if state.converged[i]:
                    assert np.array_equal(got.objective_trace, want.objective_trace)
        short, _ = alternate(gsr[:1], grd[:1], w, 1.5, 2.0, tol=0.0, max_iters=1)
        assert not short.converged[0] and short.objective_trace.shape == (1, 2)

    def test_all_infeasible_stack_is_reported_not_raised(self):
        state, infeasible = alternate(np.zeros((2, 2)), np.ones((2, 2)), np.ones(2), 1.0, 1.0)
        assert infeasible.tolist() == [True, True]
        assert not state.converged.any() and state.objective_trace.shape == (2, 0)
        cfg, know, _ = make_instance(42)
        zero = ChannelKnowledge(np.zeros_like(know.est_sr), know.est_rd, know.stats_sr,
                                know.stats_rd)
        with pytest.raises(InfeasibleAllocationError):
            design(cfg, zero)

    @pytest.mark.parametrize("name", ["p_s", "p_r"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_budgets_must_be_finite_and_positive(self, name, bad):
        budgets = {"p_s": 1.0, "p_r": 1.0, name: bad}
        with pytest.raises(ValueError, match=name):
            alternate(np.ones((1, 2)), np.ones((1, 2)), np.ones(2), **budgets)

    @pytest.mark.parametrize("name", ["gains_sr", "gains_rd", "weights", "p_init"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
    def test_entries_must_be_finite_and_nonnegative(self, name, bad):
        args = {n: np.ones((2, 3)) for n in ("gains_sr", "gains_rd", "weights", "p_init")}
        args[name][1, 2] = bad
        with pytest.raises(ValueError, match=name):
            alternate(p_s=1.0, p_r=1.0, **args)

    def test_gains_must_be_nonincreasing(self):
        with pytest.raises(ValueError, match="gains_rd must be nonincreasing"):
            alternate(np.ones((1, 2)), np.array([[1.0, 2.0]]), np.ones(2), 1.0, 1.0)


class TestSolveEtaP:
    def test_zero_error_covariance_gives_noise_variance(self):
        cfg, _, _ = make_instance(8)
        from afrelay.channel import exact_knowledge

        rng = np.random.default_rng(9)
        know = exact_knowledge(rand_complex(rng, 4, 4), rand_complex(rng, 4, 4))
        sp = spectral_decompose(cfg, know)
        eta = solve_eta_p(np.full(4, 0.5), sp, cfg.p_s)
        assert np.isclose(eta, cfg.sigma1_sq)

    def test_scalar_covariance_collapses_in_closed_form(self):
        cfg = make_config()
        psi = 0.07
        rng = np.random.default_rng(10)
        know = ChannelKnowledge(
            rand_complex(rng, 4, 4),
            rand_complex(rng, 4, 4),
            ErrorStats(np.eye(4), psi * np.eye(4)),
            ErrorStats(np.zeros((4, 4)), np.zeros((4, 4))),
        )
        sp = spectral_decompose(cfg, know)
        p_alloc = np.sqrt(cfg.p_s) * np.array([0.6, 0.5, 0.5, np.sqrt(1 - 0.86)])
        assert np.isclose(np.sum(p_alloc**2), cfg.p_s)
        eta = solve_eta_p(p_alloc, sp, cfg.p_s)
        assert np.isclose(eta, cfg.p_s * psi + cfg.sigma1_sq)

    @pytest.mark.parametrize("seed,snr1_db,est_snr_db", [
        (2, 70.0, 3.9), (11, 60.0, 19.9), (25, 65.0, -20.0),
        (27, 60.0, 5.1), (31, 65.0, -14.6), (45, 70.0, 22.3),
    ])
    def test_high_first_hop_snr_keeps_the_contracts(self, seed, snr1_db, est_snr_db):
        # sigma1^2 / (1 - t) amplified the budget error by 1/(1 - t) here:
        # each of these instances used to miss its source budget
        from afrelay.mse import second_order_stats

        cfg, know, _ = make_instance(
            seed, snr1_db=snr1_db, snr2_db=30.0, est_snr_db=est_snr_db
        )
        sol = design(cfg, know)
        p = sol.tx.precoder
        assert abs(np.real(np.trace(p @ p.conj().T)) - cfg.p_s) <= 1e-9 * cfg.p_s
        so = second_order_stats(cfg, know, p, sol.tx.forward)
        relay = np.real(np.trace(sol.tx.forward @ so.r_x @ sol.tx.forward.conj().T))
        assert abs(relay - cfg.p_r) <= 1e-9 * cfg.p_r
        fixed_point = float(
            np.real(np.trace(p @ p.conj().T @ sol.spectral.psi_eff))
        ) + cfg.sigma1_sq
        assert abs(sol.alloc.eta_p - fixed_point) <= 1e-9 * sol.alloc.eta_p

    def test_fixed_point_residual_after_assembly(self):
        for seed in (11, 12, 13):
            cfg, know, _ = make_instance(seed, est_snr_db=6.0)
            sol = design(cfg, know)
            p = sol.tx.precoder
            psi_eff = sol.spectral.psi_eff
            direct = float(
                np.real(np.trace(p @ p.conj().T @ psi_eff))
            ) + cfg.sigma1_sq
            assert abs(sol.alloc.eta_p - direct) <= 1e-9 * sol.alloc.eta_p


class TestAssemble:
    def test_single_active_stream_gives_rank_one(self):
        cfg, know, _ = make_instance(14)
        know = know.as_stack()
        sp = spectral_decompose(cfg, know)
        p_alloc = np.array([[np.sqrt(cfg.p_s), 0.0, 0.0, 0.0]])
        f_alloc = np.array([[np.sqrt(cfg.p_r), 0.0, 0.0, 0.0]])
        eta = solve_eta_p(p_alloc, sp, cfg.p_s)
        alloc = AllocationState(
            p_alloc=p_alloc,
            f_alloc=f_alloc,
            mu_p=np.array([np.nan]),
            mu_f=np.array([np.nan]),
            eta_p=eta,
            objective_trace=np.array([[1.0]]),
            n_iters=np.array([1]),
            converged=np.array([True]),
        )
        sol = assemble(cfg, know, sp, alloc).draw(0)
        assert np.linalg.matrix_rank(sol.tx.precoder, tol=1e-9) == 1
        assert np.linalg.matrix_rank(sol.tx.forward, tol=1e-9) == 1

    def test_power_constraints_hold_with_equality(self):
        from afrelay.mse import second_order_stats

        for seed in (15, 16):
            cfg, know, _ = make_instance(seed)
            sol = design(cfg, know)
            p = sol.tx.precoder
            assert abs(np.real(np.trace(p @ p.conj().T)) - cfg.p_s) <= 1e-9 * cfg.p_s
            so = second_order_stats(cfg, know, p, sol.tx.forward)
            relay_power = np.real(
                np.trace(sol.tx.forward @ so.r_x @ sol.tx.forward.conj().T)
            )
            assert abs(relay_power - cfg.p_r) <= 1e-9 * cfg.p_r

    def test_residual_matches_direct_evaluation(self):
        cfg, know, _ = make_instance(17)
        sol = design(cfg, know)
        direct = weighted_mse(cfg, know, sol.tx)
        assert abs(sol.achieved_wmse - direct) <= 1e-9 * direct


class TestDesign:
    def test_deterministic(self):
        cfg, know, _ = make_instance(18)
        a = design(cfg, know)
        b = design(cfg, know)
        assert a.tx.precoder.tobytes() == b.tx.precoder.tobytes()
        assert a.tx.forward.tobytes() == b.tx.forward.tobytes()
        assert a.tx.equalizer.tobytes() == b.tx.equalizer.tobytes()

    def test_final_scalar_objective_equals_achieved_wmse(self):
        cfg, know, _ = make_instance(19)
        sol = design(cfg, know)
        assert np.isclose(sol.alloc.objective_trace[-1], sol.achieved_wmse, rtol=1e-8)

    def test_m_matrix_eigen_structure(self):
        cfg, know, _ = make_instance(20)
        sol = design(cfg, know)
        sp = sol.spectral
        ft = sol.tilde_forward
        hft = know.est_rd @ ft
        m_direct = (
            hft.conj().T
            @ np.linalg.inv(hft @ hft.conj().T + sp.k2_const)
            @ hft
        )
        u_sr_n = sp.first_hop.left[:, : cfg.n_streams]
        prod = (sol.alloc.f_alloc * sp.gains_rd) ** 2
        lam_m = 1.0 - 1.0 / (1.0 + prod)
        m_struct = (u_sr_n * lam_m) @ u_sr_n.conj().T
        assert np.linalg.norm(m_direct - m_struct) <= 1e-8 * max(
            np.linalg.norm(m_direct), 1e-300
        )

    def test_right_singular_vectors_align_with_weight_basis(self):
        from afrelay.linalg import herm_sqrt

        for seed in (21, 22, 23):
            cfg, know, _ = make_instance(seed)
            sol = design(cfg, know)
            maps = tilde_maps(cfg, know, sol.tx.precoder)
            a_mat = (
                maps.whitened_source
                @ know.est_sr
                @ sol.tx.precoder
                @ herm_sqrt(cfg.weight)
            )
            a_svd = svd_ordered(a_mat)
            u_w = weight_eigensystem(cfg.weight).vectors
            values = a_svd.values
            scale = max(values[0], 1e-300)
            start = 0
            while start < len(values):
                stop = start + 1
                while stop < len(values) and values[start] - values[stop] <= 1e-6 * scale:
                    stop += 1
                angles = scipy.linalg.subspace_angles(
                    a_svd.right[:, start:stop], u_w[:, start:stop]
                )
                assert np.max(angles) <= 1e-6
                start = stop

    def test_relay_only_perfect_csi_diagonalizes_both_hops(self):
        from afrelay.channel import exact_knowledge

        cfg = make_config(weight=np.eye(4))
        rng = np.random.default_rng(24)
        know = exact_knowledge(rand_complex(rng, 4, 4), rand_complex(rng, 4, 4))
        sol = design(cfg, know, DesignOptions(mode="relay_only"))
        sp = sol.spectral
        n = cfg.n_streams
        cascade = know.est_rd @ sol.tx.forward @ know.est_sr @ sol.tx.precoder
        core = (
            sp.second_hop.left[:, :n].conj().T
            @ sp.whiten_rd
            @ cascade
            @ sp.first_hop.right[:, :n]
        )
        offdiag = core - np.diag(np.diag(core))
        assert np.linalg.norm(offdiag) <= 1e-8 * np.linalg.norm(core)
        # the forward matrix itself receives along Usr and transmits along Vrd
        f_core = sp.second_hop.right[:, :n].conj().T @ sol.tx.forward @ sp.first_hop.left[:, :n]
        f_off = f_core - np.diag(np.diag(f_core))
        assert np.linalg.norm(f_off) <= 1e-8 * np.linalg.norm(f_core)

    def test_noiseless_identity_second_hop_reduces_to_source_waterfilling(self):
        cfg = make_config(dims=(4, 4, 4, 4), snr2_db=120.0)
        rng = np.random.default_rng(25)
        stats_sr, _ = estimation_stats(10.0, 0.3, 4, 4, 4, 4)
        know = ChannelKnowledge(
            rand_complex(rng, 4, 4),
            np.eye(4),
            stats_sr,
            ErrorStats(np.zeros((4, 4)), np.zeros((4, 4))),
        )
        sol = design(cfg, know)
        sp = sol.spectral
        w = weight_eigensystem(cfg.weight).values
        # relay factor saturates, so the source allocation alone decides p
        p_direct, _ = fill_one(np.full(4, 1e9), sp.gains_rd, sp.gains_sr, w, cfg.p_s)
        assert np.allclose(sol.alloc.p_alloc, p_direct, rtol=1e-5, atol=1e-8)

    def test_continuity_to_naive_design(self):
        from afrelay.channel import exact_knowledge

        cfg, know, _ = make_instance(26)
        eps = 1e-4
        scaled = ChannelKnowledge(
            know.est_sr,
            know.est_rd,
            ErrorStats(know.stats_sr.row_cov * eps, know.stats_sr.col_cov),
            ErrorStats(know.stats_rd.row_cov * eps, know.stats_rd.col_cov),
        )
        sol_eps = design(cfg, scaled)
        sol_zero = design(cfg, exact_knowledge(know.est_sr, know.est_rd))
        assert abs(sol_eps.achieved_wmse - sol_zero.achieved_wmse) < 1e-3

    def test_robust_beats_naive_under_true_statistics(self):
        from afrelay.channel import exact_knowledge

        for seed in (27, 28, 29, 30):
            cfg, know, _ = make_instance(seed, est_snr_db=8.0)
            robust = design(cfg, know)
            naive = design(cfg, exact_knowledge(know.est_sr, know.est_rd))
            naive_actual = weighted_mse(cfg, know, naive.tx)
            assert robust.achieved_wmse <= naive_actual + 1e-12

    def test_joint_beats_relay_only(self):
        for seed in (31, 32):
            cfg, know, _ = make_instance(seed)
            joint = design(cfg, know)
            nopre = design(cfg, know, DesignOptions(mode="relay_only"))
            assert joint.achieved_wmse <= nopre.achieved_wmse + 1e-12

    def test_relay_only_meets_power_budgets(self):
        from afrelay.mse import second_order_stats

        cfg, know, _ = make_instance(33)
        sol = design(cfg, know, DesignOptions(mode="relay_only"))
        p = sol.tx.precoder
        assert np.allclose(p, np.sqrt(cfg.p_s / 4) * np.eye(4))
        so = second_order_stats(cfg, know, p, sol.tx.forward)
        relay_power = np.real(np.trace(sol.tx.forward @ so.r_x @ sol.tx.forward.conj().T))
        assert abs(relay_power - cfg.p_r) <= 1e-8 * cfg.p_r
        direct = weighted_mse(cfg, know, sol.tx)
        assert abs(sol.achieved_wmse - direct) <= 1e-9 * direct

    def test_relay_only_budget_miss_is_a_contract_failure(self, monkeypatch):
        import importlib

        from afrelay.design import ContractError, design_batch

        # the package re-exports the function design under the module's name
        design_mod = importlib.import_module("afrelay.design")

        cfg, know, _ = make_instance(33)
        real = design_mod._waterfill

        def overspend(coeffs, terms, budget):
            levels, mu = real(coeffs, terms, budget)
            return 1.1 * levels, mu

        monkeypatch.setattr(design_mod, "_waterfill", overspend)
        (failure,) = design_batch(cfg, know, DesignOptions(mode="relay_only")).failures
        assert isinstance(failure, ContractError)
        assert failure.cause == "relay_power"

    def test_rectangular_antenna_configuration(self):
        from afrelay.mse import second_order_stats

        cfg, know, _ = make_instance(
            36, dims=(5, 4, 3, 4), n_streams=2, weight=np.diag([0.6, 0.4])
        )
        for mode in ("joint", "relay_only"):
            sol = design(cfg, know, DesignOptions(mode=mode))
            assert sol.tx.precoder.shape == (5, 2)
            assert sol.tx.forward.shape == (3, 4)
            assert sol.tx.equalizer.shape == (2, 4)
            p = sol.tx.precoder
            assert abs(np.real(np.trace(p @ p.conj().T)) - cfg.p_s) <= 1e-8 * cfg.p_s
            so = second_order_stats(cfg, know, p, sol.tx.forward)
            relay = np.real(np.trace(sol.tx.forward @ so.r_x @ sol.tx.forward.conj().T))
            assert abs(relay - cfg.p_r) <= 1e-8 * cfg.p_r
            assert abs(sol.achieved_wmse - weighted_mse(cfg, know, sol.tx)) <= 1e-9

    @pytest.mark.parametrize("algorithm", ["robust_full", "robust_nopre", "naive"])
    def test_batch_evaluation_is_the_public_one_bit_for_bit(self, algorithm):
        """A stack's direct weighted MSE and equalizer are exactly what the
        public entries give for its (P, F), so the CSV's analytic column is
        the public evaluation."""
        from afrelay.channel import exact_knowledge, sample_scenario_stack
        from afrelay.design import design_batch
        from afrelay.sim import ExperimentSpec, system_config

        rng = np.random.default_rng(70)
        for case in range(60):
            dims = [int(d) for d in rng.integers(1, 6, size=4)]
            n = int(rng.integers(1, min(dims) + 1))
            weights = np.round(rng.uniform(0.0, 1.0, size=n), 1)
            weights[0] = max(weights[0], 0.1)
            spec = ExperimentSpec.from_dict({
                "dims": dims,
                "n_streams": n,
                "alpha": float(rng.uniform(0.0, 0.9)),
                "data_snr_db": rng.uniform(-10.0, 70.0, size=2).tolist(),
                "est_snr_db": [float(rng.uniform(-20.0, 60.0))],
                "weights": weights.tolist(),
                "n_channel_draws": 3,
                "n_symbols": 1,
                "seed": case,
            })
            cfg = system_config(spec)
            know, _ = sample_scenario_stack(
                cfg, 10.0 ** (spec.est_snr_db[0] / 10.0), spec.alpha,
                [np.random.default_rng((case, d)) for d in range(3)],
            )
            if algorithm == "naive":
                know = exact_knowledge(know.est_sr, know.est_rd)
            mode = "relay_only" if algorithm == "robust_nopre" else "joint"
            batch = design_batch(cfg, know, DesignOptions(mode=mode))
            tx = batch.solution.tx
            assert np.array_equal(batch.direct_wmse, weighted_mse(cfg, know, tx))
            assert np.array_equal(
                tx.equalizer, optimal_equalizer(cfg, know, tx.precoder, tx.forward)
            )

    def test_mismatched_knowledge_shapes_rejected(self):
        cfg, _, _ = make_instance(37)
        _, wrong_know, _ = make_instance(38, dims=(3, 3, 3, 3), n_streams=3,
                                         weight=np.eye(3))
        with pytest.raises(ValueError):
            design(cfg, wrong_know)

    def test_restarts_never_worsen_the_objective(self):
        cfg, know, _ = make_instance(34)
        base = design(cfg, know)
        multi = design(cfg, know, DesignOptions(restarts=8, restart_seed=1))
        assert multi.achieved_wmse <= base.achieved_wmse + 1e-12

    def test_failing_draw_is_masked_in_a_stack(self):
        from afrelay.design import design_batch

        cfg, know, _ = make_instance(39)
        _, other, _ = make_instance(40)
        est_sr = np.stack([know.est_sr, np.zeros_like(know.est_sr), other.est_sr])
        est_rd = np.stack([know.est_rd, know.est_rd, other.est_rd])
        stack = ChannelKnowledge(est_sr, est_rd, know.stats_sr, know.stats_rd)
        batch = design_batch(cfg, stack)
        assert batch.failures[0] is None and batch.failures[2] is None
        assert isinstance(batch.failures[1], InfeasibleAllocationError)
        with pytest.raises(InfeasibleAllocationError):
            batch.draw(1)
        for i in (0, 2):
            alone = design(cfg, stack.select(i))
            assert batch.draw(i).tx.precoder.tobytes() == alone.tx.precoder.tobytes()
            assert batch.draw(i).achieved_wmse == alone.achieved_wmse

    def test_design_errors_share_a_base(self):
        from afrelay.design import ContractError, DesignError, NumericalError

        assert issubclass(ConvergenceError, DesignError)
        assert issubclass(ConvergenceError, RuntimeError)
        assert issubclass(InfeasibleAllocationError, DesignError)
        assert issubclass(InfeasibleAllocationError, ValueError)
        assert issubclass(ContractError, RuntimeError)
        assert issubclass(NumericalError, ValueError)
        assert ContractError("source_power", "msg").cause == "source_power"

    def test_unknown_mode_rejected(self):
        cfg, know, _ = make_instance(35)
        with pytest.raises(ValueError):
            design(cfg, know, DesignOptions(mode="hybrid"))

    @pytest.mark.parametrize("restarts", [-3, 2.5, True])
    def test_restarts_must_be_a_nonnegative_int(self, restarts):
        with pytest.raises(ValueError, match="restarts"):
            DesignOptions(restarts=restarts)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_restart_seed_must_be_a_nonnegative_int(self, seed):
        with pytest.raises(ValueError, match="restart_seed"):
            DesignOptions(restarts=1, restart_seed=seed)

    def test_identity_sides_are_tested_once_per_design(self, monkeypatch):
        # Each knowledge object is tested at most once per side in its
        # lifetime: the second design of ``know`` reuses its scales.
        cfg, know, _ = make_instance(36)
        calls = count_identity_tests(monkeypatch)
        for knowledge, opts in (
            (know, DesignOptions()),
            (know, DesignOptions(mode="relay_only")),
            (exact_knowledge(know.est_sr, know.est_rd), DesignOptions()),
        ):
            design(cfg, knowledge, opts)
        assert sorted(calls) == ["stats_rd.col_cov", "stats_rd.col_cov",
                                 "stats_sr.row_cov", "stats_sr.row_cov"]


@pytest.mark.parametrize("knowledge", ["estimated", "exact"])
@pytest.mark.parametrize("mode", ["joint", "relay_only"])
def test_eta_p_fixed_point_is_k1_level_bit_for_bit(mode, knowledge):
    # The fixed point tr(P P^H psi_eff) + sigma1^2 is K1's level.  Joint on
    # exact knowledge is the naive design; estimation_stats gives c_sr = 1
    # and exact_knowledge c_sr = 0, where both forms round alike.
    from afrelay.channel import sample_scenario_stack
    from afrelay.design import design_batch
    from afrelay.linalg import _ct

    for dims, n, seed in (((4, 4, 4, 4), 4, 70), ((2, 3, 4, 5), 2, 71), ((5, 3, 2, 4), 1, 72)):
        cfg = make_config(dims, n)
        know, _ = sample_scenario_stack(
            cfg, 10.0, 0.3, [np.random.default_rng((seed, d)) for d in range(5)]
        )
        if knowledge == "exact":
            know = exact_knowledge(know.est_sr, know.est_rd)
        sol = design_batch(cfg, know, DesignOptions(mode=mode)).solution
        p = sol.tx.precoder
        trace_form = (
            np.real(np.trace(p @ _ct(p) @ sol.spectral.psi_eff, axis1=-2, axis2=-1))
            + cfg.sigma1_sq
        )
        level = tilde_maps(cfg, know, p)._k1_level[:, 0, 0]
        assert np.array_equal(level, trace_form)
        if mode == "relay_only":
            assert np.array_equal(sol.alloc.eta_p, trace_form)


def _per_draw_arrays(batch) -> dict:
    """Every array of a DesignBatch, each with the leading draw axis."""
    sol, draws = batch.solution, len(batch.failures)
    out = {"direct_wmse": batch.direct_wmse, "achieved_wmse": sol.achieved_wmse,
           "tilde_forward": sol.tilde_forward}
    out.update((f"tx.{f}", getattr(sol.tx, f)) for f in ("precoder", "forward", "equalizer"))
    for f in ("p_alloc", "f_alloc", "mu_p", "mu_f", "eta_p", "n_iters", "converged"):
        out[f"alloc.{f}"] = np.asarray(getattr(sol.alloc, f), dtype=float)
    for hop in ("first_hop", "second_hop"):
        for f in ("left", "values", "right"):
            out[f"{hop}.{f}"] = getattr(getattr(sol.spectral, hop), f)
    out.update(gains_sr=sol.spectral.gains_sr, gains_rd=sol.spectral.gains_rd)
    for f in ("whiten_sr", "whiten_rd", "k2_const", "psi_eff"):
        m = getattr(sol.spectral, f)
        out[f] = m if m.ndim == 3 else np.broadcast_to(m, (draws, *m.shape))
    return out


def test_mixed_statistics_stack_designs_each_draw_as_its_points_stack():
    # Sweep points at -20, 60 and 20 dB in one stack, one draw of the
    # first with a zero first hop (a joint allocation failure): every array of
    # every algorithm's designs equals that of each point's own stack, bit
    # for bit, and so do the failures and the naive design's evaluation
    # under the true statistics.
    from afrelay.channel import sample_scenario_stack
    from afrelay.design import design_batch

    cfg = make_config(snr1_db=30.0, snr2_db=25.0)
    parts = []
    for k, snr_db in enumerate((-20.0, 60.0, 20.0)):
        rngs = [np.random.default_rng((80, k, d)) for d in range(3)]
        parts.append(sample_scenario_stack(cfg, 10.0 ** (snr_db / 10.0), 0.3, rngs)[0])
    est_sr = parts[0].est_sr.copy()
    est_sr[1] = 0.0
    parts[0] = ChannelKnowledge(est_sr, parts[0].est_rd, parts[0].stats_sr, parts[0].stats_rd)
    mixed = ChannelKnowledge.concat(parts)
    for make, opts in (
        (lambda k: k, DesignOptions()),
        (lambda k: k, DesignOptions(mode="relay_only")),
        (lambda k: exact_knowledge(k.est_sr, k.est_rd), DesignOptions()),
    ):
        stacked = design_batch(cfg, make(mixed), opts)
        own = [design_batch(cfg, make(part), opts) for part in parts]
        expected = [fail for batch in own for fail in batch.failures]
        assert [type(f) for f in stacked.failures] == [type(f) for f in expected]
        assert [str(f) for f in stacked.failures] == [str(f) for f in expected]
        if opts.mode == "joint":
            assert isinstance(stacked.failures[1], InfeasibleAllocationError)
        got, parts_arrays = _per_draw_arrays(stacked), [_per_draw_arrays(b) for b in own]
        for key, value in got.items():
            want = np.concatenate([a[key] for a in parts_arrays])
            assert np.array_equal(value, want, equal_nan=True), key
        row = 0
        for batch in own:
            trace = batch.solution.alloc.objective_trace
            width = trace.shape[1]
            block = stacked.solution.alloc.objective_trace[row : row + len(trace)]
            assert np.array_equal(block[:, :width], trace, equal_nan=True)
            # A failed draw's trace runs as long as its stack does.
            kept = [fail is None for fail in batch.failures]
            assert np.isnan(block[kept, width:]).all()
            row += len(trace)
        analytic = weighted_mse(cfg, mixed, stacked.solution.tx)
        assert np.array_equal(
            analytic,
            np.concatenate([weighted_mse(cfg, p, b.solution.tx) for p, b in zip(parts, own)]),
        )
