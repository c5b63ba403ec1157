import dataclasses
import json
import pathlib

import numpy as np
import pytest

from afrelay.channel import exact_knowledge, sample_scenario_stack
from afrelay.cli import cli_main
from afrelay.design import DesignOptions, design
from afrelay.sim import (
    ConfigError,
    ExperimentRecord,
    ExperimentSpec,
    emit_csv,
    run_experiment,
    system_config,
)
from conftest import count_identity_tests, paper_objective_extended


CONFIG_PATH = pathlib.Path(__file__).resolve().parents[1] / "configs" / "default_sweep.json"


def tiny_spec(**overrides):
    base = dict(
        dims=(2, 2, 2, 2),
        n_streams=2,
        alpha=0.3,
        data_snr_db=(20.0, 20.0),
        est_snr_db=(5.0,),
        weights=np.diag([0.6, 0.4]),
        n_channel_draws=6,
        n_symbols=200,
        seed=5,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def spec_dict(**overrides):
    raw = {
        "dims": [2, 2, 2, 2],
        "n_streams": 2,
        "alpha": 0.3,
        "data_snr_db": [20.0, 20.0],
        "est_snr_db": [5.0],
        "weights": [0.6, 0.4],
        "n_channel_draws": 6,
        "n_symbols": 200,
        "seed": 5,
    }
    raw.update(overrides)
    return raw


def _reference_link(spec, cfg, point, draw):
    """One draw's (bits, symbols, noise1, noise2), drawn and assembled as
    separate blocks in stream 1's order."""
    import afrelay.sim as sim_mod

    rng = sim_mod._draw_rng(spec.seed, point, draw, 1)
    bits = rng.integers(0, 2, size=(2, cfg.n_streams, spec.n_symbols)).astype(bool)
    noises = []
    for rows, var in ((cfg.m_r, cfg.sigma1_sq), (cfg.m_d, cfg.sigma2_sq)):
        shape = (rows, spec.n_symbols)
        noises.append(
            np.sqrt(var / 2.0) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        )
    symbols = ((1 - 2 * bits[0]) + 1j * (1 - 2 * bits[1])) / np.sqrt(2.0)
    return bits, symbols, *noises


def _reference_transmit(tx, h_sr, h_rd, bits, symbols, noise1, noise2, weight):
    """Per-draw weighted MSE and BER through the stage-by-stage chain
    x = H_sr P s + n1, y = H_rd F x + n2, s_hat = G y."""
    x = h_sr @ (tx.precoder @ symbols)
    x += noise1
    y = h_rd @ (tx.forward @ x)
    y += noise2
    s_hat = tx.equalizer @ y
    err = s_hat - symbols
    wmse = np.mean(np.real(np.einsum("bin,ij,bjn->bn", err.conj(), weight, err)), axis=-1)
    detected = np.stack([s_hat.real < 0, s_hat.imag < 0], axis=1)
    ber = np.mean(detected != bits, axis=(1, 2, 3))
    return wmse, ber


class TestSpecValidation:
    def test_round_trips_through_dict(self):
        spec = ExperimentSpec.from_dict(spec_dict())
        again = ExperimentSpec.from_dict(spec.to_dict())
        assert again.dims == spec.dims
        assert np.array_equal(again.weights, spec.weights)

    @pytest.mark.parametrize(
        "patch,field",
        [
            ({"dims": [2, 2, 2]}, "dims"),
            ({"n_streams": 5}, "n_streams"),
            ({"alpha": 1.2}, "alpha"),
            ({"est_snr_db": []}, "est_snr_db"),
            ({"weights": [0.5, 0.3, 0.2]}, "weights"),
            ({"algorithms": []}, "algorithms"),
            ({"algorithms": ["fancy"]}, "algorithms"),
            ({"n_channel_draws": 0}, "n_channel_draws"),
            ({"bogus_key": 1}, "bogus_key"),
            ({"n_streams": "two"}, "n_streams"),
            ({"est_snr_db": 5.0}, "est_snr_db"),
            ({"est_snr_db": [5.0, float("nan")]}, "est_snr_db"),
            ({"data_snr_db": float("inf")}, "data_snr_db"),
            ({"data_snr_db": [20.0, float("nan")]}, "data_snr_db"),
            ({"p_s": float("nan")}, "p_s"),
            ({"p_r": float("inf")}, "p_r"),
            ({"weights": [0.6, -0.4]}, "weights"),
            ({"weights": [[0.5, 0.9], [0.9, 0.5]]}, "weights"),
            ({"weights": [[0.5, 0.1], [0.0, 0.5]]}, "weights"),
            ({"data_snr_db": [4000, 20]}, "data_snr_db"),
            ({"data_snr_db": [-4000, 20]}, "data_snr_db"),
            ({"est_snr_db": [5000.0]}, "est_snr_db"),
            ({"p_s": 1e308, "data_snr_db": [-300, 20]}, "p_s"),
            ({"n_streams": 2.7}, "n_streams"),
            ({"n_channel_draws": 3.9}, "n_channel_draws"),
            ({"algorithms": ["naive", "naive"]}, "algorithms"),
            ({"algorithms": ["robust_full", "naive", "robust_full"]}, "algorithms"),
        ],
    )
    def test_errors_name_the_field(self, patch, field):
        with pytest.raises(ConfigError) as err:
            ExperimentSpec.from_dict(spec_dict(**patch))
        assert field in str(err.value)

    @pytest.mark.parametrize(
        "field,patch",
        [
            ("dims", {"dims": [True, 2, 2, 2], "n_streams": 1, "weights": [1.0]}),
            ("n_streams", {"n_streams": True, "weights": [1.0]}),
            ("alpha", {"alpha": False}),
            ("data_snr_db", {"data_snr_db": True}),
            ("data_snr_db", {"data_snr_db": [20.0, True]}),
            ("est_snr_db", {"est_snr_db": [True]}),
            ("weights", {"weights": [0.6, True]}),
            ("n_channel_draws", {"n_channel_draws": True}),
            ("n_symbols", {"n_symbols": True}),
            ("seed", {"seed": True}),
            ("p_s", {"p_s": True}),
            ("p_r", {"p_r": True}),
            ("workers", {"workers": True}),
        ],
    )
    def test_booleans_are_not_numbers(self, field, patch):
        # JSON's true and false would otherwise pass as 1 and 0.
        with pytest.raises(ConfigError) as err:
            ExperimentSpec.from_dict(spec_dict(**patch))
        assert field in str(err.value)

    def test_system_config_noise_follows_snr(self):
        spec = tiny_spec(data_snr_db=(10.0, 20.0), p_s=2.0, p_r=4.0)
        cfg = system_config(spec)
        assert np.isclose(cfg.sigma1_sq, 0.2)
        assert np.isclose(cfg.sigma2_sq, 0.04)

    def test_to_dict_gives_every_field_as_the_provenance_line_prints_it(self):
        spec = ExperimentSpec.from_dict(
            {
                "dims": [2, 3, 4, 5],
                "n_streams": 2,
                "alpha": 0.25,
                "data_snr_db": [12.5, 17.0],
                "est_snr_db": [-3.0, 7.5],
                "weights": [[0.6, 0.1], [0.1, 0.4]],
                "n_channel_draws": 3,
                "n_symbols": 17,
                "seed": 2**40 + 3,
                "algorithms": ["robust_nopre", "naive"],
                "p_s": 2.0,
                "p_r": 0.5,
                "workers": 2,
            }
        )
        expected = {
            "dims": [2, 3, 4, 5],
            "n_streams": 2,
            "alpha": 0.25,
            "data_snr_db": [12.5, 17.0],
            "est_snr_db": [-3.0, 7.5],
            "weights": [[0.6, 0.1], [0.1, 0.4]],
            "n_channel_draws": 3,
            "n_symbols": 17,
            "seed": 1099511627779,
            "algorithms": ["robust_nopre", "naive"],
            "p_s": 2.0,
            "p_r": 0.5,
            "workers": 2,
        }
        assert set(expected) == {f.name for f in dataclasses.fields(ExperimentSpec)}
        for f in dataclasses.fields(ExperimentSpec):
            assert f.default is dataclasses.MISSING or getattr(spec, f.name) != f.default
        got = spec.to_dict()
        assert got == expected
        assert json.dumps(got, sort_keys=True) == json.dumps(expected, sort_keys=True)


class TestRunExperiment:
    def test_identity_sides_are_tested_once_per_design_stack(self, monkeypatch):
        # The 40 draws are one design stack.  Its per-draw sampled
        # statistics (read by robust_full, robust_nopre and the naive
        # evaluation) and its exact knowledge for the naive design are
        # each tested on both sides once, all draws at a time: 2 + 2.
        spec = dataclasses.replace(ExperimentSpec.from_json(CONFIG_PATH), n_channel_draws=8)
        calls = count_identity_tests(monkeypatch)
        run_experiment(spec)
        assert sorted(calls) == ["stats_rd.col_cov", "stats_rd.col_cov",
                                 "stats_sr.row_cov", "stats_sr.row_cov"]

    def test_produces_one_record_per_point_and_algorithm(self):
        spec = tiny_spec(est_snr_db=(0.0, 10.0))
        records = run_experiment(spec)
        assert len(records) == 2 * 3
        for rec in records:
            assert rec.n_draws == spec.n_channel_draws
            assert rec.n_failed == 0
            assert np.isfinite(rec.wmse_analytic)
            assert np.isfinite(rec.wmse_empirical)
            assert 0.0 <= rec.ber <= 1.0

    def test_perfect_csi_noiseless_draw_has_zero_ber(self):
        spec = tiny_spec(
            data_snr_db=(200.0, 200.0),
            est_snr_db=(200.0,),
            n_channel_draws=1,
            algorithms=("robust_full",),
        )
        (rec,) = run_experiment(spec)
        assert rec.ber == 0.0
        assert rec.wmse_empirical <= 1e-12

    def test_empirical_tracks_analytic_for_robust_design(self):
        spec = tiny_spec(n_channel_draws=60, n_symbols=400)
        records = {r.algorithm: r for r in run_experiment(spec)}
        rec = records["robust_full"]
        gap = abs(rec.wmse_empirical - rec.wmse_analytic)
        assert gap <= 3 * rec.wmse_diff_se

    def test_deterministic_records(self):
        spec = tiny_spec()
        a = run_experiment(spec)
        b = run_experiment(spec)
        assert a == b

    def test_worker_pool_matches_serial(self, monkeypatch):
        import afrelay.sim as sim_mod

        # two workers cut the 8 draws into two stacks of 4, so two really start
        monkeypatch.setattr(sim_mod.os, "cpu_count", lambda: 2)
        spec = tiny_spec(n_channel_draws=4, n_symbols=50, est_snr_db=(5.0, 15.0))
        serial = run_experiment(spec)
        pooled = run_experiment(dataclasses.replace(spec, workers=2))
        assert serial == pooled

    def test_one_pool_per_run_capped_at_draws_and_cpus(self, monkeypatch):
        import afrelay.sim as sim_mod

        pools = []

        class FakePool:
            """Runs the jobs in this process, so no worker is started."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *args):
                return map(fn, *args)

        spec = tiny_spec(n_channel_draws=7, est_snr_db=(5.0, 15.0))
        serial = run_experiment(spec)
        monkeypatch.setattr(sim_mod, "ProcessPoolExecutor", FakePool)
        # link chunks of three draws; the pool is capped by the run's 14
        # draws and the CPUs, not by the link chunks
        monkeypatch.setattr(sim_mod, "CHUNK_ELEMS", 3 * spec.n_symbols * max(spec.dims))
        huge = dataclasses.replace(spec, workers=100_000)
        for cpus, expected in ((64, [14]), (4, [14, 4]), (None, [14, 4])):
            monkeypatch.setattr(sim_mod.os, "cpu_count", lambda cpus=cpus: cpus)
            assert run_experiment(huge) == serial
            assert pools == expected

    def test_design_failures_are_counted_and_excluded(self, monkeypatch):
        import dataclasses

        import afrelay.sim as sim_mod
        from afrelay.design import ConvergenceError

        real = sim_mod._design_algorithm
        calls = {"n": 0}

        def flaky(algorithm, designs):
            batch = real(algorithm, designs)
            if algorithm != "naive":
                return batch
            failures = []
            for fail in batch.failures:
                calls["n"] += 1
                forced = ConvergenceError("forced failure", [1.0])
                failures.append(forced if calls["n"] % 2 == 0 else fail)
            return dataclasses.replace(batch, failures=tuple(failures))

        monkeypatch.setattr(sim_mod, "_design_algorithm", flaky)
        records = {r.algorithm: r for r in run_experiment(tiny_spec())}
        assert records["naive"].n_failed == 3
        assert records["naive"].n_draws == 3
        assert records["robust_full"].n_failed == 0
        assert np.isfinite(records["naive"].wmse_analytic)
        assert records["naive"].failures == {"convergence": 3}
        assert records["robust_full"].failures == {}

    def test_vanishing_estimation_snr_counts_failures_and_runs(self):
        # At -300 dB the estimate covariance s R (I + s R)^{-1} is about
        # 1e-30 R; formed as I - (I + s R)^{-1} it cancelled to a negative
        # eigenvalue and the sweep aborted in herm_sqrt.
        spec = tiny_spec(
            alpha=0.5, est_snr_db=(-300.0, -100.0), n_channel_draws=40, n_symbols=100, seed=3
        )
        records = run_experiment(spec)
        assert len(records) == 6
        for rec in records:
            assert rec.n_draws + rec.n_failed == 40
            assert sum(rec.failures.values()) == rec.n_failed
            assert set(rec.failures) <= {
                "convergence", "source_power", "relay_power", "eta_p", "wmse_agreement"
            }

    def test_singular_solves_fail_only_their_draws(self, monkeypatch):
        # At 200 dB data SNR some draws' LMMSE solves are singular or miss
        # the backward-error bound.  Each such draw fails alone, with cause
        # numerical, inside the one design call per algorithm on the
        # 24-draw stack, and the records, failures by cause included,
        # equal those of one-draw stacks.
        import afrelay.sim as sim_mod

        sizes = []
        real = sim_mod._design_algorithm

        def counted(algorithm, designs):
            sizes.append(designs.know.est_sr.shape[0])
            return real(algorithm, designs)

        monkeypatch.setattr(sim_mod, "_design_algorithm", counted)
        spec = ExperimentSpec.from_dict(spec_dict(
            dims=[4, 4, 4, 4], alpha=0.5, data_snr_db=[200.0, 200.0], est_snr_db=[40.0, 200.0],
            n_channel_draws=12, n_symbols=16, seed=0,
        ))
        records = run_experiment(spec)
        assert sizes == [24] * 3
        failures = {(r.est_snr_db, r.algorithm): r.failures for r in records}
        assert failures == {
            (40.0, "naive"): {"numerical": 1}, (40.0, "robust_full"): {},
            (40.0, "robust_nopre"): {}, (200.0, "naive"): {},
            (200.0, "robust_full"): {"numerical": 1}, (200.0, "robust_nopre"): {"numerical": 1},
        }
        monkeypatch.setattr(sim_mod, "CHUNK_DRAWS", 1)
        sizes.clear()
        assert [repr(r) for r in run_experiment(spec)] == [repr(r) for r in records]
        assert sizes == [1] * 72

    def test_high_data_snr_sweep_fails_no_draw(self):
        # At 150 dB data SNR with fewer streams than relay antennas, pi_p's
        # eigenvalues run from 1 to about 1/sigma1^2 = 1e15: a dense
        # pi_p^{-1/2} would round its small range-space block at the eps
        # of its O(1) null-space block, and F would miss the relay budget.
        spec = ExperimentSpec.from_dict(spec_dict(
            dims=[4, 3, 5, 4], alpha=0.5, data_snr_db=[150.0, 150.0],
            est_snr_db=[-20.0, 40.0, 200.0], n_channel_draws=8, n_symbols=8, seed=0,
        ))
        records = run_experiment(spec)
        assert [(r.n_draws, r.n_failed, r.failures) for r in records] == [(8, 0, {})] * 9

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("snr", [1550.0, 3000.0])
    def test_objective_trace_is_exact_past_the_gain_product_overflow(self, snr):
        # Naive gains reach about 1e77 at 1,550 dB and 1e150 at 3,000 dB, so
        # a b passes 1.8e308: the paper's form (1 + a)(1 + b) overflowed
        # there, its trace read up to 19% low and then [0, 0, 0, 0], and
        # restarts could not be ranked.
        spec = ExperimentSpec.from_dict(spec_dict(
            dims=[4, 4, 4, 4], n_streams=4, weights=[0.3, 0.3, 0.2, 0.2], alpha=0.3,
            data_snr_db=snr, est_snr_db=[20.0], n_channel_draws=8, n_symbols=8, seed=1,
        ))
        records = run_experiment(spec)
        assert [(r.n_draws, r.n_failed) for r in records] == [(8, 0)] * 3
        import afrelay.sim as sim_mod

        cfg = system_config(spec)
        know, _ = sample_scenario_stack(
            cfg, sim_mod._linear("est_snr_db", 20.0), spec.alpha, [sim_mod._draw_rng(1, 0, 0, 0)]
        )
        naive = exact_knowledge(know.est_sr[0], know.est_rd[0])
        sols = [design(cfg, naive, DesignOptions(restarts=r)) for r in (0, 3)]
        for sol in sols:
            trace = sol.alloc.objective_trace
            assert (trace > 0.0).all() and (np.diff(trace) <= 0.0).all()
        for sol in sols:
            want, _, _ = paper_objective_extended(
                sol.alloc.p_alloc, sol.alloc.f_alloc, sol.spectral.gains_sr,
                sol.spectral.gains_rd, cfg.weight_eig.values,
            )
            assert abs(np.longdouble(sol.alloc.objective_trace[-1]) - want) <= 1e-15 * want

    @pytest.mark.parametrize("snr, seed", [(200.0, 2), (250.0, 1)])
    def test_relay_only_design_keeps_the_relay_budget_at_high_data_snr(self, snr, seed):
        # The relay-only F_tilde takes its left singular vectors from the
        # whitened signal.  Formed as q^H x after an eigh of x x^H, the
        # signal's rows along pi_p's unit eigenvalues read about eps / sigma1
        # instead of 0; F scaled them by 1 / sigma1 and missed the relay
        # budget (3 and 2 draws of these runs failed relay_power).
        spec = ExperimentSpec.from_dict(spec_dict(
            dims=[4, 3, 5, 4], alpha=0.5, data_snr_db=[snr, snr],
            est_snr_db=[-20.0, 40.0, 200.0], n_channel_draws=8, n_symbols=8, seed=seed,
            algorithms=["robust_nopre"],
        ))
        records = run_experiment(spec)
        assert [(r.n_draws, r.n_failed, r.failures) for r in records] == [(8, 0, {})] * 3

    def test_accepted_space_grid_counts_every_draw(self):
        # The committed grid over the accepted space's corners: no run
        # raises, and every draw is averaged or counted as failed by cause.
        # Contract misses there are still open (416 of 3,456 designs when
        # the grid was committed), so the counts are printed, not asserted.
        from grid_probe import failure_counts, probe

        runs = list(probe())
        assert len(runs) == 24
        for spec, records in runs:
            assert len(records) == 18
            for rec in records:
                assert rec.n_draws + rec.n_failed == spec.n_channel_draws
                assert sum(rec.failures.values()) == rec.n_failed
        counts = failure_counts(runs)
        print(f"grid probe: {sum(counts.values())} failed designs by (streams, alpha, data SNR, "
              f"est SNR, algorithm, cause): {dict(sorted(counts.items()))}")

    def test_high_snr_whitening_fails_no_stack(self):
        # Near alpha = 1 and at high SNR both whitened matrices are PD
        # only through the noise they add: no conditioning guard may fail
        # the stack, nor every robust draw of it as numerical.
        import afrelay.sim as sim_mod
        from afrelay.channel import sample_scenario_stack
        from afrelay.design import DesignOptions, design_batch

        spec = ExperimentSpec.from_dict(spec_dict(
            dims=[4, 3, 5, 4], alpha=1 - 1e-14, data_snr_db=[150.0, 150.0], est_snr_db=[140.0],
            n_channel_draws=8, n_symbols=20, seed=14,
        ))
        cfg = system_config(spec)
        know, _ = sample_scenario_stack(
            cfg, 1e14, spec.alpha, [sim_mod._draw_rng(spec.seed, 0, d, 0) for d in range(8)]
        )
        for opts in (None, DesignOptions(mode="relay_only")):
            assert len(design_batch(cfg, know, opts).failures) == 8
        for rec in run_experiment(spec):
            assert rec.n_draws + rec.n_failed == 8
            assert rec.failures.get("numerical", 0) < 8, rec.algorithm

    def test_design_stacks_span_sweep_points(self, monkeypatch):
        import afrelay.sim as sim_mod

        sizes = []
        real = sim_mod._design_algorithm

        def counted(algorithm, designs):
            sizes.append(designs.know.est_sr.shape[0])
            return real(algorithm, designs)

        monkeypatch.setattr(sim_mod, "_design_algorithm", counted)
        spec = dataclasses.replace(
            ExperimentSpec.from_json(CONFIG_PATH), n_channel_draws=8, n_symbols=50
        )
        whole = run_experiment(spec)
        # 5 points x 8 draws: one stack of 40 draws per algorithm.
        assert sizes == [40] * 3
        # 13 draws per point: the 65 draws need two stacks, cut near-equal
        # across the points.
        sizes.clear()
        run_experiment(dataclasses.replace(spec, n_channel_draws=13))
        assert sizes == [32] * 3 + [33] * 3
        # Stacks of one draw give the same records.
        monkeypatch.setattr(sim_mod, "CHUNK_DRAWS", 1)
        sizes.clear()
        assert [r.__dict__ for r in run_experiment(spec)] == [r.__dict__ for r in whole]
        assert sizes == [1] * 120

    def test_robust_designs_share_one_spectral_decomposition(self, monkeypatch):
        import importlib

        import afrelay.sim as sim_mod
        from afrelay.design import DesignOptions, design_batch
        from test_design import _per_draw_arrays

        design_mod = importlib.import_module("afrelay.design")
        decomposed = []
        real_decompose = design_mod.spectral_decompose

        def counted(cfg, know):
            decomposed.append(know)
            return real_decompose(cfg, know)

        monkeypatch.setattr(design_mod, "spectral_decompose", counted)
        designed = {}
        real = sim_mod._design_algorithm

        def kept(algorithm, designs):
            designed[algorithm] = designs.know, real(algorithm, designs)
            return designed[algorithm][1]

        monkeypatch.setattr(sim_mod, "_design_algorithm", kept)
        spec = dataclasses.replace(
            ExperimentSpec.from_json(CONFIG_PATH), n_channel_draws=8, n_symbols=50
        )
        run_experiment(spec)
        # One 40-draw stack: its sampled knowledge is decomposed once for
        # both robust designs, its exact knowledge once for the naive one.
        know, nopre = designed["robust_nopre"]
        assert designed["robust_full"][0] is know
        assert len(decomposed) == 2 and decomposed[0] is know
        alone = design_batch(system_config(spec), know, DesignOptions(mode="relay_only"))
        assert nopre.failures == alone.failures == (None,) * 40
        want = _per_draw_arrays(alone)
        for key, value in _per_draw_arrays(nopre).items():
            assert np.array_equal(value, want[key], equal_nan=True), key

    def test_chunked_sweep_matches_draw_by_draw_designs(self):
        from afrelay.channel import exact_knowledge, sample_scenario_stack
        from afrelay.design import DesignOptions, design
        from afrelay.mse import Transceiver, weighted_mse
        import afrelay.sim as sim_mod

        spec = tiny_spec(n_channel_draws=5, n_symbols=60)
        records = {r.algorithm: r for r in run_experiment(spec)}
        cfg = system_config(spec)
        rows = {alg: [] for alg in spec.algorithms}
        for draw in range(spec.n_channel_draws):
            stack, truth = sample_scenario_stack(
                cfg, 10.0 ** (spec.est_snr_db[0] / 10.0), spec.alpha,
                [sim_mod._draw_rng(spec.seed, 0, draw, 0)],
            )
            know = stack.select(0)
            link = sim_mod._link(spec, cfg, 0, [draw], truth)
            for alg, sol in (
                ("robust_full", design(cfg, know)),
                ("robust_nopre", design(cfg, know, DesignOptions(mode="relay_only"))),
                ("naive", design(cfg, exact_knowledge(know.est_sr, know.est_rd))),
            ):
                tx = Transceiver(sol.tx.precoder[None], sol.tx.forward[None],
                                 sol.tx.equalizer[None])
                emp, ber = sim_mod._transmit(tx, link, cfg.weight)
                rows[alg].append((weighted_mse(cfg, know, sol.tx), emp[0], ber[0]))
        for alg, vals in rows.items():
            mean = np.asarray(vals).mean(axis=0)
            rec = records[alg]
            assert (rec.wmse_analytic, rec.wmse_empirical, rec.ber) == tuple(mean)

    def test_link_rows_are_the_symbols_and_noises(self):
        import afrelay.sim as sim_mod
        from afrelay.linalg import _ct

        spec = tiny_spec(dims=(3, 2, 4, 3), n_symbols=7, data_snr_db=(10.0, 25.0))
        cfg = system_config(spec)
        draws = [0, 3]
        _, truth = sample_scenario_stack(
            cfg, 1.0, spec.alpha, [sim_mod._draw_rng(spec.seed, 1, d, 0) for d in draws]
        )
        h_sr, h_rd, z, gram, sent = sim_mod._link(spec, cfg, 1, draws, truth)
        assert h_sr is truth.h_sr and h_rd is truth.h_rd
        n, m_r = cfg.n_streams, cfg.m_r
        assert z.shape == (2, n + m_r + cfg.m_d, spec.n_symbols)
        for i, draw in enumerate(draws):
            bits, symbols, noise1, noise2 = _reference_link(spec, cfg, 1, draw)
            assert z[i, :n].tobytes() == symbols.tobytes()
            assert z[i, n : n + m_r].tobytes() == noise1.tobytes()
            assert z[i, n + m_r :].tobytes() == noise2.tobytes()
        assert np.array_equal(gram, z @ _ct(z))
        signs = np.stack([z[:, :n].real < 0, z[:, :n].imag < 0], axis=-1)
        assert np.array_equal(sent, signs.reshape(sent.shape))

    @pytest.mark.parametrize("case", range(60))
    def test_composed_transmit_matches_stage_chain(self, case):
        import afrelay.sim as sim_mod

        rng = np.random.default_rng(1000 + case)
        dims = [int(d) for d in rng.integers(1, 6, size=4)]
        n = int(rng.integers(1, min(dims) + 1))
        if case % 2:
            a = rng.standard_normal((n, n))
            weights = (a @ a.T).tolist()
        else:
            weights = rng.uniform(0.0, 1.0, size=n).tolist()
        spec = ExperimentSpec.from_dict(
            spec_dict(
                dims=dims,
                n_streams=n,
                weights=weights,
                data_snr_db=rng.uniform(-10.0, 70.0, size=2).tolist(),
                est_snr_db=[float(rng.uniform(-20.0, 60.0))],
                n_symbols=(1, 7, 1000)[case % 3],
                n_channel_draws=3,
            )
        )
        cfg = system_config(spec)
        draws = range(spec.n_channel_draws)
        know, truth = sample_scenario_stack(
            cfg, sim_mod._linear("est_snr_db", spec.est_snr_db[0]), spec.alpha,
            [sim_mod._draw_rng(spec.seed, 0, d, 0) for d in draws],
        )
        link = sim_mod._link(spec, cfg, 0, draws, truth)
        ref_link = [np.stack(a) for a in zip(*(_reference_link(spec, cfg, 0, d) for d in draws))]
        exact = exact_knowledge(know.est_sr, know.est_rd)
        for alg in spec.algorithms:
            designs = sim_mod._StackDesigns(cfg, exact if alg == "naive" else know)
            tx = sim_mod._design_algorithm(alg, designs).solution.tx
            wmse, ber = sim_mod._transmit(tx, link, cfg.weight)
            ref_wmse, ref_ber = _reference_transmit(
                tx, truth.h_sr, truth.h_rd, *ref_link, cfg.weight
            )
            assert np.array_equal(ber, ref_ber)
            # Both forms round the error e = s_hat - s to about eps * |s|, so
            # their weighted MSEs differ by about eps * |e| * |s|, which is far
            # more than eps * |e|^2 once the error is small against the symbols.
            scale = ref_wmse + np.sqrt(ref_wmse * np.trace(cfg.weight).real)
            assert np.all(np.abs(wmse - ref_wmse) <= 1e-12 * scale)

    def test_chunks_shrink_for_long_blocks(self):
        import afrelay.sim as sim_mod

        four = dict(dims=(4, 4, 4, 4), weights=np.diag([0.6, 0.4]))
        assert sim_mod._chunk_draws(tiny_spec(n_symbols=1000, **four)) == sim_mod.CHUNK_DRAWS
        assert sim_mod._chunk_draws(tiny_spec(n_symbols=2000, **four)) == 32
        assert sim_mod._chunk_draws(tiny_spec(n_symbols=100_000, **four)) == 1
        assert sim_mod._chunk_draws(tiny_spec(n_symbols=10_000_000, **four)) == 1
        for symbols, dims in ((1500, (2, 5, 3, 2)), (40_000, (2, 2, 2, 2)), (7, (5, 5, 5, 5))):
            spec = tiny_spec(n_symbols=symbols, dims=dims)
            step = sim_mod._chunk_draws(spec)
            assert 1 <= step <= sim_mod.CHUNK_DRAWS
            assert step == 1 or step * symbols * max(dims) <= sim_mod.CHUNK_ELEMS

    def test_chunk_size_leaves_records_unchanged(self, monkeypatch):
        import afrelay.sim as sim_mod

        spec = tiny_spec(n_channel_draws=7, est_snr_db=(5.0, 15.0))
        whole = run_experiment(spec)
        monkeypatch.setattr(sim_mod, "CHUNK_ELEMS", 3 * spec.n_symbols * max(spec.dims))
        assert sim_mod._chunk_draws(spec) == 3
        chunked = run_experiment(spec)
        assert [r.__dict__ for r in chunked] == [r.__dict__ for r in whole]

    def test_sixty_db_sweep_completes(self, tmp_path):
        path = tmp_path / "cfg.json"
        raw = json.loads(CONFIG_PATH.read_text(encoding="utf-8"))
        raw.update(data_snr_db=[60.0, 60.0], n_channel_draws=10, n_symbols=100)
        path.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "s60.csv"
        assert cli_main(["--config", str(path), "--out", str(out)]) == 0
        rows = out.read_text(encoding="utf-8").splitlines()[2:]
        assert len(rows) == 15


class TestEmitCsv:
    def test_single_record_gives_two_lines(self, tmp_path):
        rec = ExperimentRecord(
            est_snr_db=10.0,
            algorithm="robust_full",
            wmse_analytic=0.25,
            wmse_empirical=0.2501,
            ber=0.001,
            n_draws=100,
            n_failed=0,
            seed=7,
        )
        path = tmp_path / "one.csv"
        emit_csv([rec], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("est_snr_db,algorithm,")
        assert lines[1].startswith("10,robust_full,0.25,")

    def test_rows_sorted_by_point_then_algorithm(self, tmp_path):
        spec = tiny_spec(est_snr_db=(10.0, 0.0), n_channel_draws=2, n_symbols=50)
        records = run_experiment(spec)
        path = tmp_path / "sorted.csv"
        emit_csv(records, path)
        rows = path.read_text(encoding="utf-8").splitlines()[1:]
        keys = [(float(r.split(",")[0]), r.split(",")[1]) for r in rows]
        assert keys == sorted(keys)

    def test_same_spec_and_seed_byte_identical(self, tmp_path):
        spec = tiny_spec()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_experiment(spec), p1, metadata=spec.to_dict())
        emit_csv(run_experiment(spec), p2, metadata=spec.to_dict())
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_parse_preserves_12_digits(self, tmp_path):
        spec = tiny_spec()
        records = run_experiment(spec)
        path = tmp_path / "rt.csv"
        emit_csv(records, path)
        rows = path.read_text(encoding="utf-8").splitlines()[1:]
        by_key = {(r.est_snr_db, r.algorithm): r for r in records}
        for row in rows:
            parts = row.split(",")
            rec = by_key[(float(parts[0]), parts[1])]
            for col, value in ((2, rec.wmse_analytic), (3, rec.wmse_empirical), (4, rec.ber)):
                assert float(parts[col]) == float(format(value, ".12g"))

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([], tmp_path / "x.csv")

    def test_write_failure_reports_path(self, tmp_path):
        rec = ExperimentRecord(
            est_snr_db=1.0, algorithm="naive", wmse_analytic=0.5,
            wmse_empirical=0.5, ber=0.1, n_draws=1, n_failed=0, seed=1,
        )
        bad = tmp_path / "missing_dir" / "out.csv"
        with pytest.raises(OSError) as err:
            emit_csv([rec], bad)
        assert str(bad) in str(err.value)


class TestCli:
    def test_missing_config_exits_two(self, capsys):
        assert cli_main(["--mode", "sweep", "--out", "x.csv"]) == 2
        assert "--config" in capsys.readouterr().err

    def test_unknown_flag_exits_two(self):
        assert cli_main(["--frobnicate"]) == 2

    def test_malformed_config_exits_two_and_names_field(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec_dict(alpha=2.0)), encoding="utf-8")
        code = cli_main(
            ["--config", str(path), "--out", str(tmp_path / "o.csv"), "--mode", "single"]
        )
        assert code == 2
        assert "alpha" in capsys.readouterr().err

    def test_single_mode_runs_first_point_only(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(spec_dict(est_snr_db=[5.0, 15.0], n_channel_draws=3, n_symbols=50)),
            encoding="utf-8",
        )
        out = tmp_path / "out.csv"
        assert cli_main(["--config", str(path), "--out", str(out)]) == 0
        full_rows = out.read_text(encoding="utf-8").splitlines()
        assert cli_main(
            ["--config", str(path), "--out", str(out), "--mode", "single"]
        ) == 0
        single_rows = out.read_text(encoding="utf-8").splitlines()
        assert len(full_rows) == 1 + 1 + 6  # metadata + header + 2 points x 3 algs
        assert len(single_rows) == 1 + 1 + 3

    def test_seed_override_changes_output(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(spec_dict(n_channel_draws=3, n_symbols=50)), encoding="utf-8")
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert cli_main(["--config", str(path), "--out", str(out1), "--seed", "1"]) == 0
        assert cli_main(["--config", str(path), "--out", str(out2), "--seed", "2"]) == 0
        assert out1.read_bytes() != out2.read_bytes()

    def test_cli_output_is_deterministic(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(spec_dict(n_channel_draws=3, n_symbols=50)), encoding="utf-8")
        out1, out2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
        assert cli_main(["--config", str(path), "--out", str(out1)]) == 0
        assert cli_main(["--config", str(path), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_selftest_mode_passes(self, capsys):
        assert cli_main(["--mode", "selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "PASS" in out

    def test_selftest_reports_a_contract_miss(self, monkeypatch, capsys):
        import afrelay.sim as sim_mod
        from afrelay.design import ContractError

        real = sim_mod._design_algorithm

        def one_miss(algorithm, designs):
            batch = real(algorithm, designs)
            if algorithm != "robust_full":
                return batch
            miss = ContractError("relay_power", "relay power misses the budget")
            return dataclasses.replace(batch, failures=(miss, *batch.failures[1:]))

        monkeypatch.setattr(sim_mod, "_design_algorithm", one_miss)
        assert cli_main(["--mode", "selftest"]) == 1
        fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
        assert any("relay_power" in line for line in fails)

    def test_single_mode_self_consistency(self, tmp_path):
        spec = ExperimentSpec.from_dict(
            spec_dict(
                dims=[1, 1, 1, 1],
                n_streams=1,
                weights=[1.0],
                n_channel_draws=40,
                n_symbols=400,
            )
        )
        records = {r.algorithm: r for r in run_experiment(spec)}
        rec = records["robust_full"]
        assert abs(rec.wmse_empirical - rec.wmse_analytic) <= 3 * rec.wmse_diff_se
