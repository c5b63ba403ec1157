import dataclasses
import importlib

import numpy as np
import pytest
import scipy.linalg

from afrelay.channel import ChannelKnowledge, ErrorStats, estimation_stats, exact_knowledge
from afrelay.design import (
    CONVERGENCE_TOL,
    CROSS_KKT_TOL,
    MAX_ITERS,
    AllocationState,
    ConvergenceError,
    DesignOptions,
    InfeasibleAllocationError,
    alternate,
    assemble,
    design,
    design_batch,
    scalar_gradient,
    scalar_objective,
    solve_eta_p,
    spectral_decompose,
    waterfill,
    waterfill_kkt_residual,
    weight_eigensystem,
    _extrapolate,
    _gain_terms,
    _waterfill,
)
from afrelay.linalg import NotPSDError, svd_ordered
from afrelay.mse import optimal_equalizer, tilde_maps, weighted_mse
from conftest import (
    count_identity_tests,
    make_config,
    make_instance,
    paper_objective_extended,
    rand_complex,
)


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


# Default-config rows (weights 0.3, 0.3, 0.2, 0.2) whose plain alternation
# takes 164 and 201 iterations: (gains_sr, gains_rd).
W_DEFAULT = [0.3, 0.3, 0.2, 0.2]
SLOW_DEFAULT_ROWS = [
    ([5.596380662395337, 2.788454052536596, 1.9486496358315746, 0.523965363259102],
     [5.949906432565584, 3.962796994584375, 1.166148764091555, 0.4770049724029152]),
    ([40.337032930789356, 19.487155423945463, 7.734774299193905, 0.382930792266898],
     [28.817664427485578, 15.195810324524132, 12.079187252916217, 2.8262100671024077]),
]
STATE_FIELDS = ("p_alloc", "f_alloc", "mu_p", "mu_f", "n_iters", "converged", "objective_trace")


def reference_alternate(gsr, grd, w, p, p_s, p_r, tol, max_iters, extrapolate=True):
    """Alternating water-filling that updates every row of (R, n) arrays
    until the slowest row stops: the reference for :func:`alternate`.

    With ``extrapolate`` one plain evaluation of the iteration map T
    leads, and then every third evaluation starts from the squared
    extrapolation of the cycle's amplitudes p0, p1 = T(p0), p2 = T(p1),
    and a row that it does not serve keeps (p2, f2, mu_p, mu_f); without
    it T simply repeats.  Returns (p, f, mu_p, mu_f,
    n_iters, converged, objective trace, rejected extrapolations per row)."""

    def half_coeffs(amp, gains):
        a = (amp * gains) ** 2
        return w * a / (1.0 + a)

    def extrapolation(p0, p1, p2):
        # alpha = min(-|r| / |v|, -1); where v = 0 (alpha = -1) or the
        # vector is not finite, p2.  Rows of all-zero gains hold zero
        # amplitudes; they are never read.
        r, v = p1 - p0, p2 - p1 - (p1 - p0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            alpha = np.minimum(-np.sqrt(np.sum(r**2, axis=-1) / np.sum(v**2, axis=-1)), -1.0)
            p_e = np.abs(p0 - 2.0 * alpha[:, None] * r + alpha[:, None] ** 2 * v)
            p_e = p_e * np.sqrt(p_s / np.sum(p_e**2, axis=-1, keepdims=True))
        ok = (v != 0.0).any(axis=-1) & np.isfinite(p_e).all(axis=-1)
        return np.where(ok[:, None], p_e, p2)

    rows = p.shape[0]
    pending = (gsr.max(axis=-1) > 0.0) & (grd.max(axis=-1) > 0.0)
    out_p, out_f = p.copy(), np.zeros_like(p)
    out_mu_p, out_mu_f = np.full(rows, np.nan), np.full(rows, np.nan)
    n_iters, done = np.zeros(rows, dtype=int), np.zeros(rows, dtype=bool)
    rejected = np.zeros(rows, dtype=int)
    settled, prev, trace = np.zeros(rows, dtype=bool), np.full(rows, np.nan), []
    cycle = [p]
    for it in range(1, max_iters + 1 if pending.any() else 1):
        # The lead evaluation (it = 1) closes a cycle without extrapolating.
        step = (it + 1) % 3 if extrapolate else 0
        guarded = step == 2 and it > 1
        start = extrapolation(*cycle) if guarded else p
        x_f, mu_f = _waterfill(half_coeffs(start, gsr), _gain_terms(grd), p_r)
        f = np.sqrt(x_f)
        half = scalar_objective(start, f, gsr, grd, w)
        x_p, mu_p = _waterfill(half_coeffs(f, grd), _gain_terms(gsr), p_s)
        p = np.sqrt(x_p)
        cur = scalar_objective(p, f, gsr, grd, w)
        counts = np.ones(rows, dtype=bool)
        if guarded:
            counts = half <= prev
            rejected += pending & ~counts
            p, f = np.where(counts[:, None], p, cycle[2]), np.where(counts[:, None], f, f_2)
            mu_p, mu_f = np.where(counts, mu_p, mu_p_2), np.where(counts, mu_f, mu_f_2)
            half, cur = np.where(counts, half, prev), np.where(counts, cur, prev)
        trace += [half, cur]
        cycle = [p] if step == 2 or not extrapolate else cycle + [p]
        f_2, mu_p_2, mu_f_2 = f, mu_p, mu_f
        settled |= counts & (np.abs(prev - cur) <= tol * np.maximum(np.abs(cur), 1e-300))
        check = settled & pending
        if check.any():
            coeff_f = half_coeffs(p, gsr)
            fin = check & (waterfill_kkt_residual(f**2, mu_f, coeff_f, grd) <= CROSS_KKT_TOL)
            out_p[fin], out_f[fin] = p[fin], f[fin]
            out_mu_p[fin], out_mu_f[fin] = mu_p[fin], mu_f[fin]
            n_iters[fin] = it
            done |= fin
            pending &= ~fin
            if not pending.any():
                break
        prev = cur
    # Rows still pending when the budget runs out ran every evaluation.
    n_iters[pending] = max_iters
    trace = np.stack(trace, axis=-1) if trace else np.empty((rows, 0))
    trace[done[:, None] & (np.arange(trace.shape[-1]) >= 2 * n_iters[:, None])] = np.nan
    return out_p, out_f, out_mu_p, out_mu_f, n_iters, done, trace, rejected


def plain_alternate(gsr, grd, w, p, p_s, p_r, tol=CONVERGENCE_TOL, max_iters=MAX_ITERS):
    """The alternation without extrapolation: T repeated, as the library
    ran it before the squared extrapolation."""
    return reference_alternate(gsr, grd, w, p, p_s, p_r, tol, max_iters, extrapolate=False)


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

    def test_exact_knowledge_whitens_without_a_decomposition(self, monkeypatch):
        # A zero error covariance leaves sigma^2 I to whiten: sigma^{-1} I,
        # the bytes its eigendecomposition gives, with no eigh call; the
        # sampled knowledge's whitening decomposes both hops.
        from afrelay.design import _floored_inv_sqrt
        from afrelay.linalg import _rebuild

        design_mod = importlib.import_module("afrelay.design")
        cfg, know, _ = make_instance(43)
        naive = exact_knowledge(know.est_sr, know.est_rd)
        calls, whitenings = [], []
        real_eigh, real_whitening = np.linalg.eigh, design_mod._whitening

        def whitening(cfg, know):
            monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or real_eigh(m))
            try:
                whitenings.append(real_whitening(cfg, know))
                return whitenings[-1]
            finally:
                monkeypatch.setattr(np.linalg, "eigh", real_eigh)

        monkeypatch.setattr(design_mod, "_whitening", whitening)
        sol = design(cfg, naive)
        assert len(whitenings) == 1 and calls == []
        assert sol.spectral.whiten_sr.tobytes() == whitenings[0][0].tobytes()
        design(cfg, know)
        assert len(whitenings) == 2 and len(calls) == 2
        for whiten, m, noise in zip(whitenings[0], (
            cfg.p_s * naive.stats_sr.col_cov + cfg.sigma1_sq * np.eye(cfg.n_s),
            cfg.p_r * naive.stats_rd.row_cov + cfg.sigma2_sq * np.eye(cfg.m_d),
        ), (cfg.sigma1_sq, cfg.sigma2_sq)):
            assert np.array_equal(m, noise * np.eye(len(m)))
            w, q = real_eigh(m)
            decomposed = _rebuild(q, np.sqrt(np.maximum(w, noise)), inverse=True)
            assert whiten.dtype == decomposed.dtype
            assert whiten.tobytes() == _floored_inv_sqrt(m, noise).tobytes()
            assert whiten.tobytes() == decomposed.tobytes()

    @pytest.mark.parametrize("per_draw", [False, True])
    def test_whitening_carries_the_draw_axis(self, per_draw):
        # Shared statistics give every draw the one whitening, per-draw
        # statistics each draw its own: whiten_sr has the draw axis either
        # way, and row i holds the bytes of draw i decomposed alone.
        from afrelay.channel import sample_scenario_stack

        cfg = make_config()
        snrs = (10.0, 30.0) if per_draw else (10.0,)
        know = ChannelKnowledge.concat([
            sample_scenario_stack(cfg, 10.0 ** (snr / 10.0), 0.3,
                                  [np.random.default_rng((45, k, d)) for d in range(4 // len(snrs))])[0]
            for k, snr in enumerate(snrs)
        ])
        assert (know.stats_sr.col_cov.ndim == 3) == per_draw
        whiten = spectral_decompose(cfg, know).whiten_sr
        assert whiten.shape == (4, cfg.n_s, cfg.n_s)
        for i in range(4):
            alone = spectral_decompose(cfg, know.select(i)).whiten_sr
            assert whiten[i].tobytes() == alone.tobytes()

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
        # tied, zero, all-zero-coefficient (flat) and clamped rows in one
        # stack, and rows whose levels c g^2 are nonincreasing with ties of
        # unequal terms 1/g^2 (225 on three streams, then 9 on two): alone
        # such a row skips the sort, in the stack it is sorted with the
        # unordered rows, and only a stable sort keeps its summation order
        coeffs = np.array([
            [0.5, 0.5, 0.5, 0.5],
            [2.0, 1.0, 0.5, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [1.0, 1.0, 1.0, 1.0],
            [0.3, 0.9, 0.2, 0.7],
            [225.0, 25.0, 9.0, 0.0],
            [9.0, 1.0, 1.0, 1.0],
        ])
        gains = np.array([
            [2.0, 2.0, 2.0, 2.0],
            [3.0, 0.0, 1.0, 1.0],
            [1.0, 1.0, 0.0, 0.0],
            [10.0, 0.01, 0.0, 10.0],
            [4.0, 3.0, 3.0, 1e-15],
            [1.0, 3.0, 5.0, 7.0],
            [1.0, 3.0, 1.0, 0.5],
        ])
        x, mu = waterfill(coeffs, gains, 1.5)
        assert x.shape == (7, 4) and mu.shape == (7,)
        assert np.isinf(mu[2]) and np.array_equal(x[2], [0.75, 0.75, 0.0, 0.0])
        levels = coeffs * gains**2
        assert (np.diff(levels[5:], axis=-1) <= 0.0).all() and (np.diff(levels[4]) > 0.0).any()
        assert levels[5, 0] == levels[5, 2] and levels[6, 0] == levels[6, 1]
        for i in range(7):
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


class TestScalarObjective:
    LIFTS = (1e-300, 1.0, 1e150, 1e300)

    @pytest.mark.parametrize("a", LIFTS)
    @pytest.mark.parametrize("b", LIFTS)
    def test_value_and_partials_match_extended_precision(self, a, b):
        # Unit amplitudes on gains sqrt(a) and sqrt(b): the value and both
        # partials equal the paper's form in extended precision wherever
        # that is a normal double.  Formed as (1 + a)(1 + b), the product
        # overflows past a b = 1.8e308 and the value reads 0.
        one = np.ones(1)
        args = (one, one, np.sqrt([a]), np.sqrt([b]), np.array([0.7]))
        want = paper_objective_extended(*args)
        got = (scalar_objective(*args), *scalar_gradient(*args))
        tiny, huge = np.finfo(float).tiny, np.finfo(float).max
        checked = 0
        for have, ref in zip(got, want):
            ref = np.longdouble(np.ravel(ref)[0])
            if tiny <= abs(ref) <= huge:
                assert abs(np.longdouble(np.ravel(have)[0]) - ref) <= 1e-15 * abs(ref)
                checked += 1
        assert checked >= 1


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

    def test_pending_rows_equal_the_all_rows_reference_bit_for_bit(self):
        # Fast rows, the two slow default-config rows, tied gains and
        # weights, a zero weight, zero and all-zero gains, and random
        # restarts in one stack, with rejected extrapolations on some rows;
        # at the default iteration budget and at one that leaves the slow
        # rows unconverged.
        cases = [
            (*SLOW_DEFAULT_ROWS[0], W_DEFAULT),
            (*SLOW_DEFAULT_ROWS[1], W_DEFAULT),
            ([3.0, 2.0, 1.0, 0.5], [2.5, 2.0, 1.0, 0.2], [0.4, 0.3, 0.2, 0.1]),
            ([2.0, 2.0, 2.0, 2.0], [3.0, 3.0, 1.0, 1.0], [0.25, 0.25, 0.25, 0.25]),
            ([4.0, 2.0, 1.0, 1.0], [3.0, 2.0, 2.0, 0.5], [0.5, 0.3, 0.2, 0.0]),
            ([5.0, 1.0, 0.0, 0.0], [2.0, 2.0, 1.0, 0.0], W_DEFAULT),
            ([0.0, 0.0, 0.0, 0.0], [2.0, 1.0, 1.0, 1.0], W_DEFAULT),
            ([2.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0], W_DEFAULT),
        ]
        rng = np.random.default_rng(90)
        for _ in range(8):
            gsr_r, grd_r = (np.sort(rng.uniform(0.1, 30.0, 4))[::-1] for _ in range(2))
            cases.append((gsr_r, grd_r, np.sort(rng.uniform(0.0, 1.0, 4))[::-1]))
        gsr, grd, w = (np.array([c[k] for c in cases], dtype=float) for k in range(3))
        frac = rng.random(gsr.shape) + 1e-3
        restarts = np.sqrt(frac / frac.sum(axis=-1, keepdims=True))
        uniform = np.full(gsr.shape, 0.5)
        p_init = np.concatenate([uniform, restarts])
        gsr, grd, w = (np.tile(v, (2, 1)) for v in (gsr, grd, w))
        for max_iters in (MAX_ITERS, 10):
            state, infeasible = alternate(gsr, grd, w, 1.0, 1.0, p_init, max_iters=max_iters)
            want = reference_alternate(gsr, grd, w, p_init, 1.0, 1.0, CONVERGENCE_TOL, max_iters)
            ok = ~infeasible
            assert infeasible.sum() == 4 and 0 < (want[-1] > 0).sum() < ok.sum()
            assert state.objective_trace.shape == want[6].shape
            for name, ref in zip(STATE_FIELDS, want):
                got = getattr(state, name)
                assert np.array_equal(got[ok], ref[ok], equal_nan=True), (max_iters, name)
            assert not state.converged[infeasible].any()
            assert np.isnan(state.objective_trace[infeasible]).all()
            if max_iters == MAX_ITERS:
                assert state.n_iters[:2].max() <= 30 and state.converged[ok].all()
            else:
                assert not state.converged[:2].any() and state.converged[2:4].all()

    def test_a_settled_objective_survives_another_rows_stop(self):
        # At tol 1e-3 row 0's objective settles at evaluation 3 (relative
        # change 3.7e-4) while its cross-KKT test is still open.  Row 1
        # stops at evaluation 4; row 0's next changes, 1.53e-3 and 1.01e-3,
        # are above tol, so row 0 stops at evaluation 5 only if its settled
        # flag sticks while row 1 stops.  (Found by a search over random
        # two-stream pairs for one whose stop moves when the flag is
        # dropped as another row stops.)
        gsr = np.array([[2.5413971360668164, 0.9814943375081745],
                        [8.030714480889849, 1.5606099840579717]])
        grd = np.array([[27.916118069793537, 1.7262012147144445],
                        [18.737793844696757, 1.6406003041765733]])
        w = np.array([[0.9184875792840514, 0.20525415444566847],
                      [0.8480747521657895, 0.3159528747663637]])
        state, _ = alternate(gsr, grd, w, 1.0, 1.0, tol=1e-3)
        want = reference_alternate(gsr, grd, w, np.full((2, 2), np.sqrt(0.5)), 1.0, 1.0, 1e-3,
                                   MAX_ITERS)
        assert state.n_iters.tolist() == [5, 4]
        for name, ref in zip(STATE_FIELDS, want):
            assert np.array_equal(getattr(state, name), ref, equal_nan=True), name

    def test_slow_default_rows_converge_within_30_evaluations(self):
        # The plain loop needs 164 and 201 iterations on these rows.
        gsr, grd = (np.array([row[k] for row in SLOW_DEFAULT_ROWS]) for k in range(2))
        plain = plain_alternate(gsr, grd, W_DEFAULT, np.full(gsr.shape, 0.5), 1.0, 1.0)
        state, _ = alternate(gsr, grd, W_DEFAULT, 1.0, 1.0)
        assert plain[4].tolist() == [164, 201]
        assert state.converged.all() and state.n_iters.max() <= 30

    @pytest.mark.parametrize("problems", ["criterion_04", "slow_default_rows"])
    def test_extrapolation_matches_the_plain_loop(self, problems):
        # The final objective of the plain loop to 1e-12 relative, both KKT
        # residuals at most 1e-8 and a nonincreasing trace.  Without the
        # safeguard, the traces of criterion-04 problems 147 and 296 rise.
        if problems == "criterion_04":
            rng = np.random.default_rng(7)
            rows = []
            for _ in range(300):
                n = int(rng.integers(2, 6))
                gsr = np.sort(rng.uniform(0.1, 40.0, n))[::-1]
                grd = np.sort(rng.uniform(0.1, 40.0, n))[::-1]
                rows.append((gsr, grd, np.sort(rng.uniform(0.05, 1.0, n))[::-1]))
        else:
            rows = [(*map(np.array, row), np.array(W_DEFAULT)) for row in SLOW_DEFAULT_ROWS]
        for gsr, grd, w in rows:
            st = alternate_one(gsr, grd, w, 1.0, 1.0)
            uniform = np.full((1, len(w)), np.sqrt(1.0 / len(w)))
            plain = plain_alternate(gsr[None], grd[None], w, uniform, 1.0, 1.0)
            tr = st.objective_trace
            want = plain[6][0, 2 * plain[4][0] - 1]
            assert st.converged and plain[5][0]
            assert abs(tr[-1] - want) <= 1e-12 * want
            assert not np.any(np.diff(tr) > 1e-12 * np.abs(tr[:-1]) + 1e-300)
            a = (st.p_alloc * gsr) ** 2
            b = (st.f_alloc * grd) ** 2
            assert waterfill_kkt_residual(st.f_alloc**2, st.mu_f, w * a / (1 + a), grd) <= 1e-8
            assert waterfill_kkt_residual(st.p_alloc**2, st.mu_p, w * b / (1 + b), gsr) <= 1e-8

    def test_extrapolation_gives_p2_back_where_v_is_zero(self):
        # A fixed point (r = v = 0) and exactly linear iterates (v = 0,
        # r != 0) give p2 back (alpha = -1); an ordinary row lands on the
        # source budget with alpha = min(-|r| / |v|, -1).
        p0 = np.array([[0.6, 0.8], [0.25, 1.0], [0.8, 0.6]])
        p1 = np.array([[0.6, 0.8], [0.5, 0.75], [0.7, 0.7]])
        p2 = np.array([[0.6, 0.8], [0.75, 0.5], [0.65, 0.75]])
        got = _extrapolate(p0, p1, p2, 2.0)
        assert np.array_equal(got[:2], p2[:2])
        r, v = p1[2] - p0[2], p2[2] - 2.0 * p1[2] + p0[2]
        alpha = min(-np.linalg.norm(r) / np.linalg.norm(v), -1.0)
        want = np.abs(p0[2] - 2.0 * alpha * r + alpha**2 * v)
        assert np.allclose(got[2], want * np.sqrt(2.0 / np.sum(want**2)), rtol=1e-12)

    def test_accepted_and_rejected_extrapolations_stack_as_rows_alone(self):
        # Criterion-04-style rows of three streams; the reference says which
        # rows reject an extrapolation, and the stack holds both kinds.
        rng = np.random.default_rng(3)
        gsr, grd = (np.sort(rng.uniform(0.1, 40.0, (40, 3)), axis=-1)[:, ::-1] for _ in range(2))
        w = np.sort(rng.uniform(0.05, 1.0, (40, 3)), axis=-1)[:, ::-1]
        state, _ = alternate(gsr, grd, w, 1.0, 1.0)
        want = reference_alternate(gsr, grd, w, np.full((40, 3), np.sqrt(1.0 / 3.0)), 1.0, 1.0,
                                   CONVERGENCE_TOL, MAX_ITERS)
        rejecting = want[-1] > 0
        assert 0 < rejecting.sum() < len(w) and state.converged.all()
        for name, ref in zip(STATE_FIELDS, want):
            assert np.array_equal(getattr(state, name), ref, equal_nan=True), name
        for i in range(len(w)):
            alone, _ = alternate(gsr[i : i + 1], grd[i : i + 1], w[i : i + 1], 1.0, 1.0)
            for name in STATE_FIELDS:
                got = getattr(state, name)[i]
                mine = getattr(alone, name)[0]
                if name == "objective_trace":
                    got = got[~np.isnan(got)]
                assert np.array_equal(got, mine), (i, name)

    def test_all_infeasible_stack_is_reported_not_raised(self):
        state, infeasible = alternate(np.zeros((2, 2)), np.ones((2, 2)), np.ones(2), 1.0, 1.0)
        assert infeasible.tolist() == [True, True]
        assert not state.converged.any() and state.objective_trace.shape == (2, 0)
        cfg, know, _ = make_instance(42)
        zero = ChannelKnowledge(np.zeros_like(know.est_sr), know.est_rd, know.stats_sr,
                                know.stats_rd)
        with pytest.raises(InfeasibleAllocationError):
            design(cfg, zero)

    def test_rows_out_of_evaluations_count_every_one(self):
        # Two rows that two evaluations cannot settle ran both of them, and
        # their traces are full; an infeasible row never iterates.
        gsr = [[2.0, 1.0, 0.5], [1.5, 1.2, 0.3], [0.0, 0.0, 0.0]]
        grd = [[1.8, 0.9, 0.4], [1.1, 1.0, 0.2], [1.0, 1.0, 1.0]]
        state, infeasible = alternate(gsr, grd, [0.5, 0.3, 0.2], 1.0, 1.0, max_iters=2)
        assert infeasible.tolist() == [False, False, True]
        assert state.n_iters.tolist() == [2, 2, 0]
        assert state.converged.tolist() == [False, False, False]
        assert state.objective_trace.shape == (3, 4)
        assert np.isfinite(state.objective_trace[:2]).all()
        assert np.isnan(state.objective_trace[2]).all()

    @pytest.mark.parametrize("name", ["p_s", "p_r"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_budgets_must_be_finite_and_positive(self, name, bad):
        budgets = {"p_s": 1.0, "p_r": 1.0, name: bad}
        with pytest.raises(ValueError, match=name):
            alternate(np.ones((1, 2)), np.ones((1, 2)), np.ones(2), **budgets)

    def test_max_iters_must_be_nonnegative(self):
        args = ([[2.0, 1.0]], [[2.0, 1.0]], [0.6, 0.4], 1.0, 1.0)
        with pytest.raises(ValueError, match="max_iters"):
            alternate(*args, max_iters=-1)
        state, infeasible = alternate(*args, max_iters=0)
        assert state.n_iters.tolist() == [0] and not state.converged.any()
        assert state.objective_trace.shape == (1, 0) and not infeasible.any()

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
            np.real(np.trace(p @ p.conj().T @ (know.c_sr * know.stats_sr.col_cov)))
        ) + cfg.sigma1_sq
        assert abs(sol.alloc.eta_p - fixed_point) <= 1e-9 * sol.alloc.eta_p

    def test_fixed_point_residual_after_assembly(self):
        for seed in (11, 12, 13):
            cfg, know, _ = make_instance(seed, est_snr_db=6.0)
            sol = design(cfg, know)
            p = sol.tx.precoder
            psi_eff = know.c_sr * know.stats_sr.col_cov
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

    def test_a_nan_allocation_fails_only_its_draw_as_numerical(self):
        # Draw 1's relay allocation holds a NaN, so its design is not
        # finite: it fails with cause numerical (no contract test lets a
        # NaN pass), and draws 0 and 2 equal those of the same stack
        # without the NaN, bit for bit.
        from afrelay.channel import sample_scenario_stack

        cfg = make_config()
        rngs = [np.random.default_rng((17, i)) for i in range(3)]
        know, _ = sample_scenario_stack(cfg, 10.0, 0.3, rngs)
        sp = spectral_decompose(cfg, know)
        state, _ = alternate(sp.gains_sr, sp.gains_rd, cfg.weight_eig.values, cfg.p_s, cfg.p_r)
        alloc = dataclasses.replace(state, eta_p=solve_eta_p(state.p_alloc, sp, cfg.p_s))
        f_nan = alloc.f_alloc.copy()
        f_nan[1, 0] = np.nan
        clean = assemble(cfg, know, sp, alloc)
        broken = assemble(cfg, know, sp, dataclasses.replace(alloc, f_alloc=f_nan))
        assert clean.failures == (None,) * 3
        assert broken.failures[0] is None and broken.failures[2] is None
        assert broken.failures[1].cause == "numerical"
        want = _per_draw_arrays(clean)
        for key, value in _per_draw_arrays(broken).items():
            assert np.array_equal(value[[0, 2]], want[key][[0, 2]]), key

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
    def test_refuses_a_stack(self):
        cfg, know, _ = make_instance(18)
        with pytest.raises(ValueError, match="design_batch takes stacks"):
            design(cfg, know.as_stack())

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
        k2_const = cfg.p_r * (know.c_rd * know.stats_rd.row_cov) + cfg.sigma2_sq * np.eye(cfg.m_d)
        m_direct = (
            hft.conj().T
            @ np.linalg.inv(hft @ hft.conj().T + k2_const)
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
            a_mat = maps.signal @ herm_sqrt(cfg.weight)
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
        # Exact knowledge leaves K2 = sigma2^2 I to whiten the second hop.
        core = (
            sp.second_hop.left[:, :n].conj().T
            @ (np.eye(cfg.m_d) / np.sqrt(cfg.sigma2_sq))
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

    def test_a_single_start_design_is_the_alternate_row(self):
        # Without restarts the stack's gains go to alternate as they are,
        # from its uniform default start.
        cfg, know, _ = make_instance(44)
        _, other, _ = make_instance(45)
        stack = ChannelKnowledge.concat([know.as_stack(), other.as_stack()])
        batch = design_batch(cfg, stack)
        spectral = batch.solution.spectral
        want, _ = alternate(spectral.gains_sr, spectral.gains_rd, cfg.weight_eig.values,
                            cfg.p_s, cfg.p_r)
        got = batch.solution.alloc
        assert batch.failures == (None, None)
        for name in STATE_FIELDS:
            assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True), name

    def test_restarts_never_worsen_the_objective(self):
        cfg, know, _ = make_instance(34)
        base = design(cfg, know)
        multi = design(cfg, know, DesignOptions(restarts=8))
        assert multi.achieved_wmse <= base.achieved_wmse + 1e-12

    def test_a_draw_failing_every_restart_reports_one_trace(self, monkeypatch):
        # Every init stops unconverged after one evaluation, so the draw
        # fails; its ConvergenceError and its allocation row carry the
        # same init's trace (the last init's).
        design_mod = importlib.import_module("afrelay.design")
        real = design_mod.alternate

        def one_evaluation(*args, **kwargs):
            return real(*args, **{**kwargs, "tol": 0.0, "max_iters": 1})

        monkeypatch.setattr(design_mod, "alternate", one_evaluation)
        cfg, know, _ = make_instance(3)
        batch = design_batch(cfg, know, DesignOptions(restarts=2))
        (failure,) = batch.failures
        assert isinstance(failure, ConvergenceError)
        trace = batch.solution.alloc.objective_trace[0]
        assert np.array_equal(failure.objective_trace, trace[~np.isnan(trace)])
        assert len(failure.objective_trace) == 2

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

    def test_a_kept_draw_owns_its_arrays(self):
        # No array of draw i shares memory with any array of its stack
        # (the shared whitening included), so a kept draw does not pin
        # the stack.
        from afrelay.channel import sample_scenario_stack

        def arrays(obj):
            for value in vars(obj).values():
                if isinstance(value, np.ndarray):
                    yield value
                elif dataclasses.is_dataclass(value):
                    yield from arrays(value)

        cfg = make_config()
        rngs = [np.random.default_rng((46, d)) for d in range(3)]
        know, _ = sample_scenario_stack(cfg, 10.0, 0.3, rngs)
        for opts in (DesignOptions(), DesignOptions(mode="relay_only"), DesignOptions(restarts=1)):
            batch = design_batch(cfg, know, opts)
            stack = [batch.direct_wmse, *arrays(batch.solution)]
            for i in range(3):
                for got in arrays(batch.draw(i)):
                    assert not any(np.shares_memory(got, a) for a in stack)

    def test_relay_only_fails_a_zero_second_hop_as_infeasible(self):
        # The relay-only precoder is fixed, so a zero first hop still has
        # a relay design; a zero second hop has none.  Joint designs need
        # both hops.
        cfg, know, _ = make_instance(39)
        est_sr = np.stack([know.est_sr, np.zeros_like(know.est_sr), know.est_sr])
        est_rd = np.stack([know.est_rd, know.est_rd, np.zeros_like(know.est_rd)])
        stack = ChannelKnowledge(est_sr, est_rd, know.stats_sr, know.stats_rd)
        relay = design_batch(cfg, stack, DesignOptions(mode="relay_only")).failures
        assert relay[0] is None and relay[1] is None
        assert type(relay[2]) is InfeasibleAllocationError
        assert str(relay[2]) == "all channel gains are zero"
        joint = design_batch(cfg, stack).failures
        assert joint[0] is None
        for fail in joint[1:]:
            assert type(fail) is InfeasibleAllocationError
            assert str(fail) == "all channel gains are zero"

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
    # The fixed point c_sr tr(P P^H Psi) + sigma1^2 is K1's level.  Joint on
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
            np.real(np.trace(p @ _ct(p) @ (know.c_sr * know.stats_sr.col_cov), axis1=-2, axis2=-1))
            + cfg.sigma1_sq
        )
        level = tilde_maps(cfg, know, p)._k1_level[:, 0, 0]
        assert np.array_equal(level, trace_form)
        if mode == "relay_only":
            assert np.array_equal(sol.alloc.eta_p, trace_form)


def test_naive_design_at_200_db_meets_its_contracts():
    # Exact knowledge at 200 dB data SNR with 2 streams on 4 relay
    # antennas: pi_p's eigenvalues run from 1 to about 1/sigma1^2 = 1e20,
    # so F lands on the relay budget and the residual weighted MSE agrees
    # with the direct one only where pi_p is applied factor by factor.
    from test_properties import _point, scenario

    cfg, know = scenario(_point([4, 4, 4, 4], [0.6, 0.4], data_snr_db=200.0), 14, 3)
    batch = design_batch(cfg, exact_knowledge(know.est_sr, know.est_rd))
    assert batch.failures == (None, None, None)
    achieved, direct = batch.solution.achieved_wmse, batch.direct_wmse
    floor = 1e-12 * np.real(np.trace(cfg.weight))
    assert np.all(np.abs(achieved - direct)
                  <= np.maximum(1e-9 * np.maximum(np.abs(achieved), np.abs(direct)), floor))


def test_every_contract_test_fails_a_nan():
    # One pass over a stack gives each row its first failed check.  Each
    # test reads "within the bound", so a NaN in any checked quantity
    # fails the contract that reads it; a row just outside a bound fails
    # it, one just inside passes, and a row that misses two contracts
    # reports the earlier check.  Every message is pinned byte for byte
    # (perfbench's failure_cause reads their words).
    from afrelay.design import ContractError, NumericalError, _failures

    cfg = make_config(p_s=2.0, p_r=3.0)  # tr(W) = 1: the agreement floor is 1e-12
    nan, inf = np.nan, np.inf
    good = dict(finite=True, converged=True, zero_hop=False, eta_p=1.0, power_p=2.0,
                power_f=3.0, fixed_point=1.0, achieved=0.5, direct=0.5)

    def src(v):
        return f"source power {v:.12e} misses the budget 2.000000000000e+00"

    def relay(v):
        return f"relay power {v:.12e} misses the budget 3.000000000000e+00"

    def agree(a, d):
        return f"residual weighted MSE {a:.12e} disagrees with the direct evaluation {d:.12e}"

    cases = [
        ({}, None, None),
        ({"finite": False}, "numerical",
         "the equalizer, forward matrix or weighted MSE is not finite"),
        ({"converged": False, "zero_hop": True}, "infeasible", "all channel gains are zero"),
        ({"converged": False}, "convergence",
         "alternating water-filling did not converge in 500 iterations"),
        ({"eta_p": nan}, "eta_p", "eta_p nan is not positive"),
        ({"power_p": nan}, "source_power", "source power nan misses the budget 2.000000000000e+00"),
        ({"power_f": nan}, "relay_power", "relay power nan misses the budget 3.000000000000e+00"),
        ({"fixed_point": nan}, "eta_p",
         "eta_p fixed-point residual too large: 1.000000000000e+00 vs nan"),
        ({"achieved": nan}, "wmse_agreement",
         "residual weighted MSE nan disagrees with the direct evaluation 5.000000000000e-01"),
        ({"direct": nan}, "wmse_agreement",
         "residual weighted MSE 5.000000000000e-01 disagrees with the direct evaluation nan"),
        ({"eta_p": 0.0, "fixed_point": 0.0}, "eta_p", "eta_p 0.000000000000e+00 is not positive"),
        ({"eta_p": inf, "fixed_point": inf}, "eta_p", "eta_p inf is not positive"),
        ({"power_p": 2.0 * (1 + 2e-9)}, "source_power", src(2.0 * (1 + 2e-9))),
        ({"power_p": 2.0 * (1 + 5e-10)}, None, None),
        ({"power_f": 3.0 * (1 - 2e-9)}, "relay_power", relay(3.0 * (1 - 2e-9))),
        ({"power_f": 3.0 * (1 - 5e-10)}, None, None),
        ({"fixed_point": 1.0 + 2e-9}, "eta_p",
         f"eta_p fixed-point residual too large: 1.000000000000e+00 vs {1.0 + 2e-9:.12e}"),
        ({"fixed_point": 1.0 + 5e-10}, None, None),
        ({"direct": 0.5 * (1 + 3e-9)}, "wmse_agreement", agree(0.5, 0.5 * (1 + 3e-9))),
        ({"direct": 0.5 * (1 + 5e-10)}, None, None),
        ({"achieved": 0.0, "direct": 2e-12}, "wmse_agreement", agree(0.0, 2e-12)),
        ({"achieved": 0.0, "direct": 5e-13}, None, None),
        ({"power_p": 0.0, "power_f": 0.0}, "source_power", src(0.0)),
        ({"finite": False, "converged": False, "zero_hop": True}, "numerical",
         "the equalizer, forward matrix or weighted MSE is not finite"),
    ]
    rows = [{**good, **over} for over, _, _ in cases]
    col = {name: np.array([row[name] for row in rows]) for name in good}
    trace = np.full((len(rows), 3), nan)
    trace[:, :2] = np.arange(2 * len(rows)).reshape(-1, 2)
    alloc = AllocationState(p_alloc=None, f_alloc=None, mu_p=None, mu_f=None,
                            eta_p=col["eta_p"], objective_trace=trace, n_iters=None,
                            converged=col["converged"])
    failures = _failures(cfg, alloc, col["zero_hop"], col["finite"], col["power_p"],
                         col["power_f"], col["fixed_point"], col["achieved"], col["direct"])
    kinds = {"numerical": NumericalError, "infeasible": InfeasibleAllocationError,
             "convergence": ConvergenceError}
    assert len(failures) == len(cases)
    for i, ((over, cause, message), fail) in enumerate(zip(cases, failures)):
        if cause is None:
            assert fail is None, over
            continue
        assert type(fail) is kinds.get(cause, ContractError), over
        assert fail.cause == cause and str(fail) == message, over
        if cause == "convergence":
            assert np.array_equal(fail.objective_trace, trace[i, :2])


def _scalar_verdict(cfg, finite, converged, zero_hop, eta_p, power_p, power_f, fixed_point,
                    achieved, direct):
    """One draw's checks in scalar Python: the reference the one-pass
    check of a stack must equal, as (cause, message) or None."""
    if not finite:
        return "numerical", "the equalizer, forward matrix or weighted MSE is not finite"
    if not converged:
        if zero_hop:
            return "infeasible", "all channel gains are zero"
        return "convergence", f"alternating water-filling did not converge in {MAX_ITERS} iterations"
    if not (np.isfinite(eta_p) and eta_p > 0):
        return "eta_p", f"eta_p {eta_p:.12e} is not positive"
    if not abs(power_p - cfg.p_s) <= 1e-9 * cfg.p_s:
        return "source_power", f"source power {power_p:.12e} misses the budget {cfg.p_s:.12e}"
    if not abs(power_f - cfg.p_r) <= 1e-9 * cfg.p_r:
        return "relay_power", f"relay power {power_f:.12e} misses the budget {cfg.p_r:.12e}"
    if not abs(eta_p - fixed_point) <= 1e-9 * abs(eta_p):
        return "eta_p", f"eta_p fixed-point residual too large: {eta_p:.12e} vs {fixed_point:.12e}"
    floor = 1e-12 * float(np.real(np.trace(cfg.weight)))
    if not abs(achieved - direct) <= max(1e-9 * max(abs(achieved), abs(direct)), floor):
        return "wmse_agreement", (f"residual weighted MSE {achieved:.12e} disagrees with the "
                                  f"direct evaluation {direct:.12e}")
    return None


def test_one_pass_check_equals_the_scalar_checks_draw_by_draw():
    # 2,000 rows whose checked values are each good, NaN, infinite, zero,
    # negative or just inside or outside its bound, in random mixes.
    from afrelay.design import _failures

    cfg = make_config(p_s=2.0, p_r=3.0, weight=np.diag([0.4, 0.3, 2e-3, 1e-4]))
    rng = np.random.default_rng(19)
    rows = 2000
    good = dict(eta_p=1.5, power_p=2.0, power_f=3.0, fixed_point=1.5, achieved=0.25,
                direct=0.25)
    cols = {}
    for name, value in good.items():
        choices = np.array([value, np.nan, np.inf, -np.inf, 0.0, -value, value * (1 + 2e-9),
                            value * (1 - 5e-10), value * (1 + 1e-12), 1e-13])
        pick = np.where(rng.random(rows) < 0.7, 0, rng.integers(0, len(choices), rows))
        cols[name] = choices[pick]
    flags = {name: rng.random(rows) < p for name, p in
             (("finite", 0.95), ("converged", 0.9), ("zero_hop", 0.3))}
    alloc = AllocationState(p_alloc=None, f_alloc=None, mu_p=None, mu_f=None,
                            eta_p=cols["eta_p"], objective_trace=np.zeros((rows, 1)),
                            n_iters=None, converged=flags["converged"])
    failures = _failures(cfg, alloc, flags["zero_hop"], flags["finite"], cols["power_p"],
                         cols["power_f"], cols["fixed_point"], cols["achieved"], cols["direct"])
    causes = set()
    for i, fail in enumerate(failures):
        want = _scalar_verdict(cfg, **{k: v[i].item() for k, v in {**flags, **cols}.items()})
        assert (None if fail is None else (fail.cause, str(fail))) == want, i
        causes.add(None if want is None else want[0])
    assert causes == {None, "numerical", "infeasible", "convergence", "eta_p", "source_power",
                      "relay_power", "wmse_agreement"}


def _per_draw_arrays(batch) -> dict:
    """Every array of a DesignBatch, each with the leading draw axis."""
    sol = batch.solution
    out = {"direct_wmse": batch.direct_wmse, "achieved_wmse": sol.achieved_wmse,
           "tilde_forward": sol.tilde_forward}
    out.update((f"tx.{f}", getattr(sol.tx, f)) for f in ("precoder", "forward", "equalizer"))
    for f in ("p_alloc", "f_alloc", "mu_p", "mu_f", "eta_p", "n_iters", "converged"):
        out[f"alloc.{f}"] = np.asarray(getattr(sol.alloc, f), dtype=float)
    for hop in ("first_hop", "second_hop"):
        for f in ("left", "values", "right"):
            out[f"{hop}.{f}"] = getattr(getattr(sol.spectral, hop), f)
    out.update(gains_sr=sol.spectral.gains_sr, gains_rd=sol.spectral.gains_rd,
               whiten_sr=sol.spectral.whiten_sr)
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
    # The same stack with its per-draw statistics built directly.
    direct = ChannelKnowledge(mixed.est_sr, mixed.est_rd, *(
        ErrorStats(*(np.repeat([getattr(getattr(p, hop), side) for p in parts], 3, axis=0)
                     for side in ("row_cov", "col_cov")))
        for hop in ("stats_sr", "stats_rd")
    ))
    for make, opts in (
        (lambda k: k, DesignOptions()),
        (lambda k: k, DesignOptions(mode="relay_only")),
        (lambda k: exact_knowledge(k.est_sr, k.est_rd), DesignOptions()),
        (lambda k: direct if k is mixed else k, DesignOptions()),
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
