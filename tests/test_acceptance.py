"""Acceptance suite: one test per criterion, each printing a verdict line.

Monte-Carlo checks use frozen seeds so the suite is reproducible; the
tolerances are the contract values, not calibrated numbers.
"""

import pathlib

import numpy as np
import scipy.linalg

from afrelay.channel import ChannelKnowledge, ErrorStats, estimation_stats, exact_knowledge
from afrelay.design import (
    DesignOptions,
    alternate,
    design,
    waterfill,
    waterfill_kkt_residual,
    weight_eigensystem,
)
from afrelay.linalg import herm_sqrt, svd_ordered
from afrelay.mse import (
    Transceiver,
    optimal_equalizer,
    residual_weighted_mse,
    second_order_stats,
    tilde_maps,
    weighted_mse,
)
from afrelay.sim import ExperimentSpec, emit_csv, run_experiment
from afrelay.validate import (
    brute_force_design,
    empirical_mse_matrix,
    empirical_weighted_mse,
)
from conftest import make_instance, rand_complex, rand_psd

CONFIG_PATH = pathlib.Path(__file__).resolve().parents[1] / "configs" / "default_sweep.json"
GOLDEN_CSV_PATH = pathlib.Path(__file__).resolve().parent / "data" / "default_sweep.csv"


def _report(num, name, violations):
    ok = not violations
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {name}")
    assert ok, f"criterion {num} ({name}):\n" + "\n".join(violations)


def test_criterion_01_mse_model_fidelity():
    violations = []
    for i in range(50):
        knobs = np.random.default_rng(1000 + i)
        snr1 = float(knobs.uniform(5.0, 25.0))
        snr2 = float(knobs.uniform(5.0, 25.0))
        est_snr = float(knobs.uniform(0.0, 20.0))
        cfg, know, _ = make_instance(
            2000 + i, snr1_db=snr1, snr2_db=snr2, est_snr_db=est_snr
        )
        if i % 2 == 0:
            tx = design(cfg, know).tx
        else:
            rng = np.random.default_rng(5000 + i)
            p = rand_complex(rng, cfg.n_s, cfg.n_streams)
            p *= np.sqrt(cfg.p_s) / np.linalg.norm(p)
            f = rand_complex(rng, cfg.n_r, cfg.m_r)
            f *= np.sqrt(cfg.p_r) / np.linalg.norm(f)
            tx = Transceiver(p, f, optimal_equalizer(cfg, know, p, f))
        from afrelay.mse import mse_matrix

        analytic_mat = mse_matrix(cfg, know, tx)
        est_mat = empirical_mse_matrix(cfg, know, tx, 100_000, 13000 + i)
        bad = np.abs(est_mat.mean - analytic_mat) > 3.0 * est_mat.std_error
        if bad.any():
            violations.append(
                f"instance {i}: {int(bad.sum())} matrix entries outside 3 std"
            )
        analytic = weighted_mse(cfg, know, tx)
        est = empirical_weighted_mse(cfg, know, tx, 100_000, 4000 + i)
        if abs(est.mean - analytic) > 3.0 * est.std_error:
            violations.append(
                f"instance {i}: weighted MSE off by "
                f"{abs(est.mean - analytic) / est.std_error:.2f} std"
            )
    _report(1, "analytic MSE matches Monte-Carlo within 3 std on 50 instances", violations)


def test_criterion_02_equalizer_optimality():
    violations = []
    for i in range(10):
        weight = np.diag([0.3, 0.3, 0.2, 0.2]) if i % 2 == 0 else rand_psd(
            np.random.default_rng(60 + i), 4
        )
        cfg, know, _ = make_instance(40 + i, weight=weight)
        rng = np.random.default_rng(80 + i)
        p = rand_complex(rng, cfg.n_s, cfg.n_streams)
        p *= np.sqrt(cfg.p_s) / np.linalg.norm(p)
        f = rand_complex(rng, cfg.n_r, cfg.m_r)
        f *= np.sqrt(cfg.p_r) / np.linalg.norm(f)
        g_star = optimal_equalizer(cfg, know, p, f)
        base = weighted_mse(cfg, know, Transceiver(p, f, g_star))
        for k in range(100):
            scale = 10.0 ** (-3 + 2 * (k % 5) / 4.0)
            delta = scale * rand_complex(rng, cfg.n_streams, cfg.m_d)
            val = weighted_mse(cfg, know, Transceiver(p, f, g_star + delta))
            if val < base - 1e-12 * max(base, 1.0):
                violations.append(f"instance {i}: perturbation {k} beat the equalizer")
        maps = tilde_maps(cfg, know, p)
        residual = residual_weighted_mse(cfg, know, p, maps.to_tilde(f))
        if abs(residual - base) > 1e-10 * max(abs(base), 1e-300):
            violations.append(
                f"instance {i}: residual form off by {abs(residual - base):.3e}"
            )
    _report(
        2,
        "LMMSE equalizer beats 100 perturbations; residual equals direct to 1e-10",
        violations,
    )


def test_criterion_03_constraint_exactness():
    violations = []
    cases = []
    for i in range(8):
        cfg, know, _ = make_instance(100 + i, est_snr_db=float(3 + 2 * i))
        cases.append((f"joint-{i}", cfg, know, design(cfg, know)))
    for i in range(4):
        cfg, know, _ = make_instance(120 + i)
        cases.append(
            (f"relay-only-{i}", cfg, know, design(cfg, know, DesignOptions(mode="relay_only")))
        )
        know0 = exact_knowledge(know.est_sr, know.est_rd)
        cases.append((f"naive-{i}", cfg, know0, design(cfg, know0)))
    for label, cfg, know, sol in cases:
        p = sol.tx.precoder
        source_power = float(np.real(np.trace(p @ p.conj().T)))
        if abs(source_power - cfg.p_s) > 1e-9 * cfg.p_s:
            violations.append(f"{label}: source power {source_power!r}")
        so = second_order_stats(cfg, know, p, sol.tx.forward)
        relay_power = float(
            np.real(np.trace(sol.tx.forward @ so.r_x @ sol.tx.forward.conj().T))
        )
        if abs(relay_power - cfg.p_r) > 1e-9 * cfg.p_r:
            violations.append(f"{label}: relay power {relay_power!r}")
    _report(3, "designed solutions sit exactly on both power budgets", violations)


def test_criterion_04_water_filling_correctness():
    violations = []
    rng = np.random.default_rng(7)
    for i in range(20):
        n = int(rng.integers(2, 6))
        gsr = np.sort(rng.uniform(0.1, 40.0, n))[::-1]
        grd = np.sort(rng.uniform(0.1, 40.0, n))[::-1]
        w = np.sort(rng.uniform(0.05, 1.0, n))[::-1]
        stack, _ = alternate(gsr[None], grd[None], w, 1.0, 1.0)
        if not stack.converged[0]:
            violations.append(f"problem {i}: alternation did not converge")
            continue
        st = stack.draw(0)
        tr = st.objective_trace
        if np.any(np.diff(tr) > 1e-12 * np.abs(tr[:-1]) + 1e-300):
            violations.append(f"problem {i}: objective trace increased")
        a = (st.p_alloc * gsr) ** 2
        b = (st.f_alloc * grd) ** 2
        r_f = waterfill_kkt_residual(st.f_alloc**2, st.mu_f, w * a / (1 + a), grd)
        r_p = waterfill_kkt_residual(st.p_alloc**2, st.mu_p, w * b / (1 + b), gsr)
        if max(r_f, r_p) > 1e-8:
            violations.append(f"problem {i}: KKT residual {max(r_f, r_p):.3e}")

    # frozen two-stream multiplier example, checked against a 1-D bisection
    weights = np.array([2.0, 1.0])
    lo, hi = 0.0, 1e9
    for _ in range(200):
        t = 0.5 * (lo + hi)
        if np.sum(np.sqrt(weights) * t - 1.0) > 2.0:
            hi = t
        else:
            lo = t
    oracle = np.sqrt(weights) * t - 1.0
    # a saturated source factor leaves the relay coefficients at w a / (1 + a) = w
    a = (np.array([1e12, 1e12]) * np.ones(2)) ** 2
    x, _ = waterfill((weights * a / (1 + a))[None], np.ones((1, 2)), 2.0)
    f = np.sqrt(x[0])
    if not np.allclose(f**2, [1.3431, 0.6569], atol=1e-4):
        violations.append(f"frozen example: f^2 = {f**2}")
    if not np.allclose(f**2, oracle, rtol=1e-6):
        violations.append(f"bisection oracle disagrees: {oracle} vs {f**2}")
    _report(
        4,
        "monotone alternating descent, KKT residuals <= 1e-8, worked example to 1e-4",
        violations,
    )


def test_criterion_05_eta_p_self_consistency():
    violations = []
    for i in range(10):
        cfg, know, _ = make_instance(200 + i, est_snr_db=float(2 * i))
        sol = design(cfg, know)
        p = sol.tx.precoder
        fixed_point = float(
            np.real(np.trace(p @ p.conj().T @ sol.spectral.psi_eff))
        ) + cfg.sigma1_sq
        if abs(sol.alloc.eta_p - fixed_point) > 1e-9 * sol.alloc.eta_p:
            violations.append(
                f"instance {i}: fixed-point residual "
                f"{abs(sol.alloc.eta_p - fixed_point):.3e}"
            )
    # scalar-covariance collapse eta = p_s psi + sigma^2
    from afrelay.design import solve_eta_p, spectral_decompose
    from conftest import make_config

    cfg = make_config()
    psi = 0.04
    rng = np.random.default_rng(250)
    know = ChannelKnowledge(
        rand_complex(rng, 4, 4),
        rand_complex(rng, 4, 4),
        ErrorStats(np.eye(4), psi * np.eye(4)),
        ErrorStats(np.zeros((4, 4)), np.zeros((4, 4))),
    )
    sp = spectral_decompose(cfg, know)
    p_alloc = np.sqrt(cfg.p_s / 4) * np.ones(4)
    eta = solve_eta_p(p_alloc, sp, cfg.p_s)
    if abs(eta - (cfg.p_s * psi + cfg.sigma1_sq)) > 1e-12:
        violations.append(f"scalar collapse gave {eta!r}")
    _report(5, "eta_p fixed point holds to 1e-9; scalar collapse exact", violations)


def test_criterion_06_structural_optimality_against_brute_force():
    violations = []
    for i in range(25):
        dims = (2, 2, 2, 2) if i % 2 == 0 else (3, 3, 3, 3)
        knobs = np.random.default_rng(300 + i)
        cfg, know, _ = make_instance(
            400 + i,
            dims=dims,
            n_streams=2,
            weight=np.diag([0.6, 0.4]),
            snr1_db=float(knobs.uniform(8, 22)),
            snr2_db=float(knobs.uniform(8, 22)),
            est_snr_db=float(knobs.uniform(2, 15)),
        )
        sol = design(cfg, know, DesignOptions(restarts=8))
        brute = brute_force_design(cfg, know, restarts=4, seed=500 + i)
        if brute.best_objective < sol.achieved_wmse - 1e-6:
            violations.append(
                f"instance {i}: brute force {brute.best_objective:.9f} beat "
                f"designer {sol.achieved_wmse:.9f}"
            )
    _report(6, "brute force never improves on the designer by more than 1e-6", violations)


def test_criterion_07_weight_basis_alignment():
    violations = []
    for i in range(10):
        weight = np.diag([0.3, 0.3, 0.2, 0.2]) if i % 2 == 0 else rand_psd(
            np.random.default_rng(600 + i), 4
        )
        cfg, know, _ = make_instance(700 + i, weight=weight)
        sol = design(cfg, know)
        maps = tilde_maps(cfg, know, sol.tx.precoder)
        a_mat = (
            maps.whitened_source @ know.est_sr @ sol.tx.precoder @ herm_sqrt(cfg.weight)
        )
        a_svd = svd_ordered(a_mat)
        u_w = weight_eigensystem(cfg.weight).vectors
        values = a_svd.values
        scale = max(float(values[0]), 1e-300)
        start = 0
        while start < len(values):
            stop = start + 1
            while stop < len(values) and values[start] - values[stop] <= 1e-6 * scale:
                stop += 1
            angles = scipy.linalg.subspace_angles(
                a_svd.right[:, start:stop], u_w[:, start:stop]
            )
            if angles.size and np.max(angles) > 1e-6:
                violations.append(
                    f"instance {i}: cluster {start}:{stop} angle {np.max(angles):.3e}"
                )
            start = stop
    _report(
        7,
        "right singular basis of the source factor aligns with the weight basis",
        violations,
    )


def test_criterion_08_special_case_reductions():
    violations = []
    # perfect CSI + identity weight + fixed scaled-identity precoder:
    # the relay matrix diagonalizes both hops' singular bases
    from conftest import make_config

    cfg = make_config(weight=np.eye(4))
    rng = np.random.default_rng(800)
    know = exact_knowledge(rand_complex(rng, 4, 4), rand_complex(rng, 4, 4))
    sol = design(cfg, know, DesignOptions(mode="relay_only"))
    sp = sol.spectral
    f_core = (
        sp.second_hop.right[:, :4].conj().T @ sol.tx.forward @ sp.first_hop.left[:, :4]
    )
    off = f_core - np.diag(np.diag(f_core))
    if np.linalg.norm(off) > 1e-8 * np.linalg.norm(f_core):
        violations.append("relay-only solution did not diagonalize the hop bases")

    # identity, effectively noiseless second hop: the source allocation
    # matches stand-alone source water-filling with a saturated relay factor
    cfg2 = make_config(snr2_db=120.0)
    rng2 = np.random.default_rng(801)
    stats_sr, _ = estimation_stats(10.0, 0.3, 4, 4, 4, 4)
    know2 = ChannelKnowledge(
        rand_complex(rng2, 4, 4),
        np.eye(4),
        stats_sr,
        ErrorStats(np.zeros((4, 4)), np.zeros((4, 4))),
    )
    sol2 = design(cfg2, know2)
    w = weight_eigensystem(cfg2.weight).values
    a = (np.full(4, 1e9) * sol2.spectral.gains_rd) ** 2
    x, _ = waterfill((w * a / (1 + a))[None], sol2.spectral.gains_sr[None], cfg2.p_s)
    p_direct = np.sqrt(x[0])
    if not np.allclose(sol2.alloc.p_alloc, p_direct, rtol=1e-5, atol=1e-8):
        violations.append(
            f"source-only limit mismatch: {sol2.alloc.p_alloc} vs {p_direct}"
        )
    _report(8, "special-case reductions (relay-only structure, source-only limit)", violations)


def test_criterion_09_sweep_ordering_surrogate(tmp_path):
    violations = []
    spec = ExperimentSpec.from_json(CONFIG_PATH)
    records = run_experiment(spec)
    # The default CSV is pinned: a change that moves its bytes regenerates
    # tests/data/default_sweep.csv with afrelay-sim and shows the diff.
    out = tmp_path / "default_sweep.csv"
    emit_csv(records, out, metadata=spec.to_dict())
    if out.read_bytes() != GOLDEN_CSV_PATH.read_bytes():
        violations.append(f"default CSV differs from {GOLDEN_CSV_PATH.name}")
    by_key = {(r.est_snr_db, r.algorithm): r for r in records}
    for snr in spec.est_snr_db:
        full = by_key[(snr, "robust_full")]
        nopre = by_key[(snr, "robust_nopre")]
        naive = by_key[(snr, "naive")]
        if not full.wmse_analytic <= nopre.wmse_analytic <= naive.wmse_analytic:
            violations.append(
                f"{snr} dB analytic: {full.wmse_analytic:.5f}, "
                f"{nopre.wmse_analytic:.5f}, {naive.wmse_analytic:.5f}"
            )
        if not full.wmse_empirical <= nopre.wmse_empirical <= naive.wmse_empirical:
            violations.append(
                f"{snr} dB empirical: {full.wmse_empirical:.5f}, "
                f"{nopre.wmse_empirical:.5f}, {naive.wmse_empirical:.5f}"
            )
        if full.n_failed or nopre.n_failed or naive.n_failed:
            violations.append(f"{snr} dB: design failures recorded")
        gap = abs(full.wmse_empirical - full.wmse_analytic)
        if gap > 3 * full.wmse_diff_se:
            violations.append(
                f"{snr} dB: robust_full self-consistency gap {gap:.3e} "
                f"exceeds 3 x {full.wmse_diff_se:.3e}"
            )
    _report(
        9,
        "robust_full <= robust_nopre <= naive at every sweep point (1000 draws)",
        violations,
    )


def test_criterion_10_determinism_byte_identical_csv(tmp_path):
    violations = []
    spec = ExperimentSpec.from_dict(
        {
            "dims": [4, 4, 4, 4],
            "n_streams": 4,
            "alpha": 0.3,
            "data_snr_db": [30.0, 30.0],
            "est_snr_db": [5.0, 15.0],
            "weights": [0.3, 0.3, 0.2, 0.2],
            "n_channel_draws": 20,
            "n_symbols": 200,
            "seed": 99,
        }
    )
    p1 = tmp_path / "run1.csv"
    p2 = tmp_path / "run2.csv"
    emit_csv(run_experiment(spec), p1, metadata=spec.to_dict())
    emit_csv(run_experiment(spec), p2, metadata=spec.to_dict())
    if p1.read_bytes() != p2.read_bytes():
        violations.append("identical spec+seed produced different CSV bytes")
    _report(10, "identical config + seed produces byte-identical CSV", violations)
