import dataclasses

import numpy as np
import pytest

from afrelay import empirical_mse_matrix, empirical_weighted_mse
from afrelay.channel import ChannelKnowledge, ErrorStats, exact_knowledge
from afrelay.mse import (
    SystemConfig,
    Transceiver,
    mse_matrix,
    optimal_equalizer,
    residual_weighted_mse,
    second_order_stats,
    tilde_maps,
    weighted_mse,
)
from conftest import complex_gaussian, make_config, make_instance, rand_complex, rand_psd


def scalar_chain():
    """All dimensions 1, perfect CSI, unit channels/powers/noises."""
    cfg = SystemConfig(
        n_s=1, m_r=1, n_r=1, m_d=1, n_streams=1,
        p_s=1.0, p_r=2.0, sigma1_sq=1.0, sigma2_sq=1.0,
        weight=np.eye(1),
    )
    know = exact_knowledge(np.ones((1, 1)), np.ones((1, 1)))
    return cfg, know


def random_transceiver(cfg, rng):
    p = rand_complex(rng, cfg.n_s, cfg.n_streams)
    p *= np.sqrt(cfg.p_s) / np.linalg.norm(p)
    f = rand_complex(rng, cfg.n_r, cfg.m_r)
    f *= np.sqrt(cfg.p_r) / np.linalg.norm(f)
    g = rand_complex(rng, cfg.n_streams, cfg.m_d)
    return p, f, g


class TestSecondOrderStats:
    def test_zero_precoder_leaves_noise_floor(self):
        cfg, know, _ = make_instance(0)
        p = np.zeros((cfg.n_s, cfg.n_streams))
        f = np.zeros((cfg.n_r, cfg.m_r))
        so = second_order_stats(cfg, know, p, f)
        assert np.allclose(so.k1, cfg.sigma1_sq * np.eye(cfg.m_r))
        assert np.allclose(so.r_x, cfg.sigma1_sq * np.eye(cfg.m_r))

    def test_trace_identity_with_identity_stats(self):
        cfg = make_config()
        stats = ErrorStats(np.eye(4), np.eye(4))
        rng = np.random.default_rng(1)
        know = ChannelKnowledge(
            rand_complex(rng, 4, 4), rand_complex(rng, 4, 4), stats, stats
        )
        p = rand_complex(rng, 4, 4)
        p *= np.sqrt(cfg.p_s) / np.linalg.norm(p)
        so = second_order_stats(cfg, know, p, np.zeros((4, 4)))
        assert np.allclose(so.k1, (cfg.p_s + cfg.sigma1_sq) * np.eye(4))

    def test_relay_covariance_matches_monte_carlo(self):
        from afrelay.linalg import herm_sqrt

        cfg, know, _ = make_instance(2, snr1_db=10.0)
        rng = np.random.default_rng(3)
        p, f, _ = random_transceiver(cfg, rng)
        so = second_order_stats(cfg, know, p, f)
        n = 100_000
        mc = np.random.default_rng(4)
        row, col = know.stats_sr.row_cov, know.stats_sr.col_cov
        dh = herm_sqrt(row) @ complex_gaussian(mc, n, cfg.m_r, cfg.n_s) @ herm_sqrt(col)
        s = complex_gaussian(mc, n, cfg.n_streams)
        n1 = np.sqrt(cfg.sigma1_sq) * complex_gaussian(mc, n, cfg.m_r)
        x = np.einsum("nij,nj->ni", know.est_sr[None] + dh, s @ p.T) + n1
        emp = np.einsum("ni,nj->ij", x, x.conj()) / n
        assert np.linalg.norm(emp - so.r_x) <= 0.02 * np.linalg.norm(so.r_x)

    def test_noise_floor_orderings(self):
        # k1 and k2 dominate their noise floors, r_x dominates k1
        for seed in (50, 51, 52):
            cfg, know, _ = make_instance(seed)
            rng = np.random.default_rng(seed + 1000)
            p, f, _ = random_transceiver(cfg, rng)
            so = second_order_stats(cfg, know, p, f)
            tol = -1e-12
            assert np.linalg.eigvalsh(so.k1 - cfg.sigma1_sq * np.eye(cfg.m_r))[0] >= tol
            assert np.linalg.eigvalsh(so.k2 - cfg.sigma2_sq * np.eye(cfg.m_d))[0] >= tol
            assert np.linalg.eigvalsh(so.r_x - so.k1)[0] >= tol

    def test_error_growth_is_monotone(self):
        cfg, know, _ = make_instance(5)
        rng = np.random.default_rng(6)
        p, f, _ = random_transceiver(cfg, rng)
        so = second_order_stats(cfg, know, p, f)
        bumped = ChannelKnowledge(
            know.est_sr,
            know.est_rd,
            ErrorStats(know.stats_sr.row_cov, know.stats_sr.col_cov + 0.05 * np.eye(cfg.n_s)),
            know.stats_rd,
        )
        so_b = second_order_stats(cfg, bumped, p, f)
        assert np.real(np.trace(so_b.k1)) > np.real(np.trace(so.k1))
        assert np.real(np.trace(so_b.r_x)) > np.real(np.trace(so.r_x))

    def test_dimension_mismatch_raises(self):
        cfg, know, _ = make_instance(7)
        with pytest.raises(ValueError):
            second_order_stats(cfg, know, np.zeros((3, 4)), np.zeros((4, 4)))


class TestMseMatrix:
    def test_zero_equalizer_gives_identity(self):
        cfg, know, _ = make_instance(8)
        rng = np.random.default_rng(9)
        p, f, _ = random_transceiver(cfg, rng)
        tx = Transceiver(p, f, np.zeros((cfg.n_streams, cfg.m_d)))
        assert np.allclose(mse_matrix(cfg, know, tx), np.eye(cfg.n_streams))

    def test_scalar_wiener_chain(self):
        cfg, know = scalar_chain()
        tx = Transceiver(np.ones((1, 1)), np.ones((1, 1)), np.full((1, 1), 1.0 / 3.0))
        assert np.allclose(mse_matrix(cfg, know, tx), 2.0 / 3.0)

    def test_matches_monte_carlo_entrywise(self):
        cfg, know, _ = make_instance(10, snr1_db=15.0, snr2_db=15.0)
        rng = np.random.default_rng(11)
        p, f, g = random_transceiver(cfg, rng)
        tx = Transceiver(p, f, 0.1 * g)
        analytic = mse_matrix(cfg, know, tx)
        est = empirical_mse_matrix(cfg, know, tx, 100_000, 12)
        assert np.all(np.abs(est.mean - analytic) <= 3.0 * est.std_error)


class TestWeightedMse:
    def test_identity_weight_sums_stream_mses(self):
        cfg, know, _ = make_instance(13, weight=np.eye(4))
        rng = np.random.default_rng(14)
        p, f, g = random_transceiver(cfg, rng)
        tx = Transceiver(p, f, g)
        e = mse_matrix(cfg, know, tx)
        assert np.isclose(weighted_mse(cfg, know, tx), np.real(np.trace(e)))

    def test_example_weight_on_identity_mse(self):
        w = np.diag([0.3, 0.3, 0.2, 0.2])
        cfg, know, _ = make_instance(15, weight=w)
        tx = Transceiver(
            np.zeros((cfg.n_s, 4)), np.zeros((cfg.n_r, cfg.m_r)), np.zeros((4, cfg.m_d))
        )
        # G = 0 makes the MSE matrix exactly I, so tr(W I) = 1.0
        assert np.isclose(weighted_mse(cfg, know, tx), 1.0)

    def test_matches_monte_carlo(self):
        cfg, know, _ = make_instance(16)
        rng = np.random.default_rng(17)
        p, f, g = random_transceiver(cfg, rng)
        tx = Transceiver(p, f, 0.1 * g)
        analytic = weighted_mse(cfg, know, tx)
        est = empirical_weighted_mse(cfg, know, tx, 100_000, 18)
        assert abs(est.mean - analytic) <= 3.0 * est.std_error


class TestOptimalEqualizer:
    def test_zero_forward_gives_zero_equalizer(self):
        cfg, know, _ = make_instance(19)
        rng = np.random.default_rng(20)
        p, _, _ = random_transceiver(cfg, rng)
        g = optimal_equalizer(cfg, know, p, np.zeros((cfg.n_r, cfg.m_r)))
        assert np.allclose(g, 0.0)

    def test_scalar_wiener_value(self):
        cfg, know = scalar_chain()
        g = optimal_equalizer(cfg, know, np.ones((1, 1)), np.ones((1, 1)))
        assert np.allclose(g, 1.0 / 3.0)

    @pytest.mark.parametrize("wseed", [None, 0, 1])
    def test_beats_random_perturbations(self, wseed):
        if wseed is None:
            weight = np.eye(4)
        else:
            weight = rand_psd(np.random.default_rng(wseed), 4)
        cfg, know, _ = make_instance(21, weight=weight)
        rng = np.random.default_rng(22)
        p, f, _ = random_transceiver(cfg, rng)
        g_star = optimal_equalizer(cfg, know, p, f)
        base = weighted_mse(cfg, know, Transceiver(p, f, g_star))
        for k in range(100):
            scale = 10.0 ** (-3 + 2 * (k % 5) / 4.0)  # 1e-3 .. 1e-1
            delta = scale * rand_complex(rng, cfg.n_streams, cfg.m_d)
            perturbed = weighted_mse(cfg, know, Transceiver(p, f, g_star + delta))
            assert perturbed >= base - 1e-12 * max(base, 1.0)


def _singular_destination_stack():
    """A config at 3000 dB second-hop SNR and a two-draw stack whose draw
    1 has two equal second-hop rows, so with F and F_tilde the identity
    both of its destination covariances are exactly singular in floats."""
    cfg = make_config(dims=(2, 2, 2, 2), n_streams=2, snr2_db=3000.0)
    rng = np.random.default_rng(60)
    est_sr = np.stack([rand_complex(rng, 2, 2) for _ in range(2)])
    est_rd = np.stack([rand_complex(rng, 2, 2), np.ones((2, 2))])
    return cfg, exact_knowledge(est_sr, est_rd), rand_complex(rng, 2, 2), np.eye(2)


@pytest.mark.parametrize("entry", [optimal_equalizer, residual_weighted_mse])
def test_a_singular_solve_raises_from_the_public_entries(entry):
    # Inside the designer a singular solve fails only its draw; the public
    # entries still raise LinAlgError, for the draw alone and in a stack.
    cfg, know, p, f = _singular_destination_stack()
    assert np.isfinite(entry(cfg, know.select(0), p, f)).all()
    for draws in (know.select(1), know):
        with pytest.raises(np.linalg.LinAlgError):
            entry(cfg, draws, p, f)


class TestTildeMaps:
    def test_zero_precoder_scales_by_sigma(self):
        cfg, know, _ = make_instance(23)
        maps = tilde_maps(cfg, know, np.zeros((cfg.n_s, cfg.n_streams)))
        assert np.array_equal(maps._pi_d, np.ones(cfg.m_r))
        assert np.array_equal(maps.signal, np.zeros((cfg.m_r, cfg.n_streams)))
        rng = np.random.default_rng(24)
        f = rand_complex(rng, cfg.n_r, cfg.m_r)
        assert np.allclose(maps.to_tilde(f), np.sqrt(cfg.sigma1_sq) * f)
        assert np.allclose(maps.from_tilde(f), f / np.sqrt(cfg.sigma1_sq))

    def test_round_trip(self):
        cfg, know, _ = make_instance(25)
        rng = np.random.default_rng(26)
        p, f, _ = random_transceiver(cfg, rng)
        maps = tilde_maps(cfg, know, p)
        back = maps.from_tilde(maps.to_tilde(f))
        assert np.linalg.norm(back - f) <= 1e-10 * np.linalg.norm(f)

    def test_trace_preservation(self):
        cfg, know, _ = make_instance(27)
        rng = np.random.default_rng(28)
        p, f, _ = random_transceiver(cfg, rng)
        so = second_order_stats(cfg, know, p, f)
        maps = tilde_maps(cfg, know, p)
        ft = maps.to_tilde(f)
        lhs = np.real(np.trace(f @ so.r_x @ f.conj().T))
        rhs = np.real(np.trace(ft @ ft.conj().T))
        assert abs(lhs - rhs) <= 1e-9 * rhs


class TestResidualWeightedMse:
    def test_zero_tilde_forward_gives_trace_w(self):
        cfg, know, _ = make_instance(29)
        rng = np.random.default_rng(30)
        p, _, _ = random_transceiver(cfg, rng)
        val = residual_weighted_mse(cfg, know, p, np.zeros((cfg.n_r, cfg.m_r)))
        assert np.isclose(val, np.real(np.trace(cfg.weight)))

    def test_scalar_chain_value(self):
        cfg, know = scalar_chain()
        maps = tilde_maps(cfg, know, np.ones((1, 1)))
        ft = maps.to_tilde(np.ones((1, 1)))
        assert np.isclose(residual_weighted_mse(cfg, know, np.ones((1, 1)), ft), 2.0 / 3.0)

    @pytest.mark.parametrize("seed", [31, 32, 33, 34, 35])
    def test_equals_weighted_mse_at_lmmse_equalizer(self, seed):
        cfg, know, _ = make_instance(seed)
        rng = np.random.default_rng(seed + 100)
        p, f, _ = random_transceiver(cfg, rng)
        maps = tilde_maps(cfg, know, p)
        ft = maps.to_tilde(f)
        g = optimal_equalizer(cfg, know, p, f)
        direct = weighted_mse(cfg, know, Transceiver(p, f, g))
        residual = residual_weighted_mse(cfg, know, p, ft)
        assert abs(residual - direct) <= 1e-10 * max(abs(direct), 1e-300)

    @pytest.mark.parametrize("dims", [(1, 1, 1, 1), (2, 3, 2, 3), (3, 3, 3, 3)])
    def test_stack_equals_single_draw_calls(self, dims):
        n_streams = min(2, min(dims))
        cfg, know, _ = make_instance(36, dims=dims, n_streams=n_streams)
        rng = np.random.default_rng(37)
        p = np.stack([random_transceiver(cfg, rng)[0] for _ in range(6)])
        ft = np.stack([rand_complex(rng, cfg.n_r, cfg.m_r) for _ in range(6)])
        stacked = residual_weighted_mse(cfg, know, p, ft)
        single = [residual_weighted_mse(cfg, know, pi, fi) for pi, fi in zip(p, ft)]
        assert stacked.shape == (6,)
        assert np.allclose(stacked, single, rtol=1e-12, atol=0.0)


class TestSystemConfigValidation:
    def test_rejects_too_many_streams(self):
        with pytest.raises(ValueError):
            make_config(dims=(2, 4, 4, 4), n_streams=3, weight=np.eye(3))

    @pytest.mark.parametrize(
        "overrides,match",
        [
            ({"dims": (4, 0, 4, 4), "n_streams": 1, "weight": np.eye(1)}, "counts must be >= 1"),
            ({"weight": np.eye(3)}, "weight must be 4x4"),
        ],
    )
    def test_rejects_malformed_counts_and_weights(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            make_config(**overrides)

    def test_rejects_non_psd_weight(self):
        with pytest.raises(ValueError):
            make_config(weight=np.diag([1.0, 1.0, 1.0, -0.5]))

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            make_config(p_s=0.0)

    @pytest.mark.parametrize("name", ["p_s", "p_r", "sigma1_sq", "sigma2_sq"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_power_and_noise(self, name, value):
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(make_config(), **{name: value})


@pytest.mark.parametrize("scale", [1e200, 1e-150, 1e-170, 1.0])
def test_the_solve_check_verifies_at_any_scale(monkeypatch, scale):
    # At 1e200 the squared norms overflow: the bound read inf and passed
    # any x.  At 1e-170 they underflow.  Warnings are errors here.
    from afrelay import mse

    rng = np.random.default_rng(0)
    a = rand_complex(rng, 3, 3)
    x = rand_complex(rng, 3, 2)
    c = scale * (a @ a.conj().T + np.eye(3))
    b = c @ x
    pair = (np.stack([c, c / scale]), np.stack([b, b / scale]))
    assert np.allclose(mse._solve_hermitian(c, b), x)
    assert np.allclose(mse._solve_hermitian(*pair), x)
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda c, b: 2.0 * solve(c, b))
    assert np.isnan(mse._solve_hermitian(c, b)).all()
    assert np.isnan(mse._solve_hermitian(*pair)).all()


def _entry_calls():
    """Each public entry, called with a dict of its (possibly wrong) arguments."""
    def tx(a):
        return Transceiver(a["precoder"], a["forward"], a["equalizer"])

    return {
        "second_order_stats": (
            ("precoder", "forward"),
            lambda cfg, know, a: second_order_stats(cfg, know, a["precoder"], a["forward"]),
        ),
        "mse_matrix": (
            ("precoder", "forward", "equalizer"),
            lambda cfg, know, a: mse_matrix(cfg, know, tx(a)),
        ),
        "weighted_mse": (
            ("precoder", "forward", "equalizer"),
            lambda cfg, know, a: weighted_mse(cfg, know, tx(a)),
        ),
        "optimal_equalizer": (
            ("precoder", "forward"),
            lambda cfg, know, a: optimal_equalizer(cfg, know, a["precoder"], a["forward"]),
        ),
        "tilde_maps": (("precoder",), lambda cfg, know, a: tilde_maps(cfg, know, a["precoder"])),
        "residual_weighted_mse": (
            ("precoder", "tilde_forward"),
            lambda cfg, know, a: residual_weighted_mse(cfg, know, a["precoder"], a["tilde_forward"]),
        ),
    }


@pytest.mark.parametrize(
    "entry, name",
    [
        (entry, name)
        for entry, (names, _) in _entry_calls().items()
        for name in (*names, "est_sr", "est_rd")
    ],
)
def test_wrong_shape_is_rejected_by_name(entry, name):
    dims = (4, 3, 5, 3)
    weight = np.diag([0.6, 0.4])
    cfg, know, _ = make_instance(50, dims=dims, n_streams=2, weight=weight)
    rng = np.random.default_rng(51)
    args = {
        "precoder": rand_complex(rng, 4, 2),
        "forward": rand_complex(rng, 5, 3),
        "tilde_forward": rand_complex(rng, 5, 3),
        "equalizer": rand_complex(rng, 2, 3),
    }
    _, call = _entry_calls()[entry]
    call(cfg, know, args)
    if name in args:
        args[name] = args[name].T
    else:
        # knowledge whose other estimate still matches the config
        wrong = (3, 3, 5, 3) if name == "est_sr" else (4, 3, 4, 3)
        _, know, _ = make_instance(52, dims=wrong, n_streams=2, weight=weight)
    with pytest.raises(ValueError, match=f"^{name} must"):
        call(cfg, know, args)


def _with_identity_sides(know, row_sr, col_rd):
    """``know`` with stats_sr.row_cov and stats_rd.col_cov replaced."""
    return ChannelKnowledge(
        know.est_sr,
        know.est_rd,
        ErrorStats(row_sr, know.stats_sr.col_cov),
        ErrorStats(know.stats_rd.row_cov, col_rd),
    )



def _ct(a):
    return a.conj().swapaxes(-1, -2)


def _herm(a):
    return 0.5 * (a + _ct(a))


def _trace(a):
    return np.real(np.trace(a, axis1=-2, axis2=-1))[..., None, None]


@pytest.mark.parametrize("draws", [None, 1, 5])
@pytest.mark.parametrize("c_rd", [0.0, 1.0, 0.37])
@pytest.mark.parametrize("c_sr", [0.0, 1.0, 0.37])
def test_scalar_k1_equals_the_matrix_path_bit_for_bit(c_sr, c_rd, draws):
    # K1 = k1 I is applied through its scalar roots; the products must
    # equal those with the Hermitian roots of the K1 matrix, and K1, Rx, K2
    # the general forms tr(. col) row + sigma^2 I, bit for bit.
    from afrelay.channel import sample_scenario_stack

    cfg = make_config()
    n = draws or 1
    know, _ = sample_scenario_stack(
        cfg, 10.0, 0.3, [np.random.default_rng(61 + i) for i in range(n)]
    )
    know = _with_identity_sides(know, c_sr * np.eye(4), c_rd * np.eye(4))
    rng = np.random.default_rng(60)
    p, f, ft = (np.stack([rand_complex(rng, 4, 4) for _ in range(n)]) for _ in range(3))
    if draws is None:
        know, p, f, ft = know.select(0), p[0], f[0], ft[0]

    maps = tilde_maps(cfg, know, p)
    so = second_order_stats(cfg, know, p, f)
    # K1's roots as matrices from eigh, pi_p's powers as factors from the
    # SVD x = q diag(s) v^H (x is square here, so pi_p has no unit padding).
    w1, q1 = np.linalg.eigh(_herm(so.k1))
    k1_half = (q1 * np.sqrt(w1)[..., None, :]) @ _ct(q1)
    k1_inv_half = (q1 / np.sqrt(w1)[..., None, :]) @ _ct(q1)
    x = k1_inv_half @ know.est_sr @ p
    q, s, vh = np.linalg.svd(x)
    d = 1.0 + s**2
    root = np.sqrt(d)[..., None, :]
    assert np.array_equal(maps.to_tilde(f), (f @ k1_half @ q * root) @ _ct(q))
    assert np.array_equal(maps.from_tilde(ft), ((ft @ q) / root) @ _ct(q) @ k1_inv_half)
    assert np.array_equal(maps.signal, (q * (s[..., None, :] / root)) @ vh)
    assert np.array_equal(maps._pi_q, q) and np.array_equal(maps._pi_d, d)

    stats_sr, stats_rd = know.stats_sr, know.stats_rd
    gram = p @ _ct(p)
    k1 = _herm(_trace(gram @ stats_sr.col_cov) * stats_sr.row_cov + cfg.sigma1_sq * np.eye(4))
    r_x = _herm(know.est_sr @ gram @ _ct(know.est_sr) + k1)
    frf = f @ r_x @ _ct(f)
    k2 = _herm(_trace(frf @ stats_rd.col_cov) * stats_rd.row_cov + cfg.sigma2_sq * np.eye(4))
    assert so.k1.dtype == np.complex128
    assert np.array_equal(so.k1, k1)
    assert np.array_equal(so.r_x, r_x)
    assert np.array_equal(so.k2, k2)


@pytest.mark.parametrize(
    "entry, name",
    [
        (entry, name)
        for entry in (*_entry_calls(), "spectral_decompose")
        for name in ("stats_sr.row_cov", "stats_rd.col_cov")
        # the tilde maps read the first hop only
        if (entry, name) != ("tilde_maps", "stats_rd.col_cov")
    ],
)
def test_general_identity_side_is_rejected_by_name(entry, name):
    from afrelay.design import spectral_decompose

    dims = (4, 3, 5, 3)
    cfg, know, _ = make_instance(53, dims=dims, n_streams=2, weight=np.diag([0.6, 0.4]))
    rng = np.random.default_rng(54)
    args = {
        "precoder": rand_complex(rng, 4, 2),
        "forward": rand_complex(rng, 5, 3),
        "tilde_forward": rand_complex(rng, 5, 3),
        "equalizer": rand_complex(rng, 2, 3),
    }
    if entry == "spectral_decompose":
        def call(cfg, know, _):
            return spectral_decompose(cfg, know)
    else:
        _, call = _entry_calls()[entry]
    call(cfg, know, args)
    row_sr, col_rd = know.stats_sr.row_cov, know.stats_rd.col_cov
    if name == "stats_sr.row_cov":
        row_sr = np.diag([1.0, 0.5, 1.0])
    else:
        col_rd = np.diag([0.2, 0.2, 0.2, 0.2, 0.1])
    with pytest.raises(ValueError, match=f"^{name} must be a scaled identity"):
        call(cfg, _with_identity_sides(know, row_sr, col_rd), args)
