import dataclasses
import json
import pathlib

import numpy as np
import pytest

from afrelay.cli import cli_main
from afrelay.sim import (
    ConfigError,
    ExperimentRecord,
    ExperimentSpec,
    emit_csv,
    run_experiment,
    system_config,
)


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
        ],
    )
    def test_errors_name_the_field(self, patch, field):
        with pytest.raises(ConfigError) as err:
            ExperimentSpec.from_dict(spec_dict(**patch))
        assert field in str(err.value)

    def test_system_config_noise_follows_snr(self):
        spec = tiny_spec(data_snr_db=(10.0, 20.0), p_s=2.0, p_r=4.0)
        cfg = system_config(spec)
        assert np.isclose(cfg.sigma1_sq, 0.2)
        assert np.isclose(cfg.sigma2_sq, 0.04)


class TestRunExperiment:
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

        # two sweep points make two chunks, so two workers really start
        monkeypatch.setattr(sim_mod.os, "cpu_count", lambda: 2)
        spec = tiny_spec(n_channel_draws=4, n_symbols=50, est_snr_db=(5.0, 15.0))
        serial = run_experiment(spec)
        pooled = run_experiment(dataclasses.replace(spec, workers=2))
        assert serial == pooled

    def test_one_pool_per_run_capped_at_chunks_and_cpus(self, monkeypatch):
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

            def map(self, fn, jobs):
                return map(fn, jobs)

        spec = tiny_spec(n_channel_draws=7, est_snr_db=(5.0, 15.0))
        serial = run_experiment(spec)
        monkeypatch.setattr(sim_mod, "ProcessPoolExecutor", FakePool)
        # three chunks per point, six in the run
        monkeypatch.setattr(sim_mod, "CHUNK_ELEMS", 3 * spec.n_symbols * max(spec.dims))
        huge = dataclasses.replace(spec, workers=100_000)
        for cpus, expected in ((64, [6]), (4, [6, 4]), (None, [6, 4])):
            monkeypatch.setattr(sim_mod.os, "cpu_count", lambda cpus=cpus: cpus)
            assert run_experiment(huge) == serial
            assert pools == expected

    def test_design_failures_are_counted_and_excluded(self, monkeypatch):
        import dataclasses

        import afrelay.sim as sim_mod
        from afrelay.design import ConvergenceError

        real = sim_mod._design_algorithm
        calls = {"n": 0}

        def flaky(algorithm, cfg, know):
            batch = real(algorithm, cfg, know)
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

    def test_stack_wide_numerical_failure_is_isolated(self, monkeypatch):
        import afrelay.sim as sim_mod
        from afrelay.channel import sample_scenario
        from afrelay.design import NumericalError

        spec = tiny_spec()
        clean = {r.algorithm: r for r in run_experiment(spec)}
        cfg = system_config(spec)
        bad_est, _ = sample_scenario(
            cfg, 10.0 ** (spec.est_snr_db[0] / 10.0), spec.alpha,
            sim_mod._draw_rng(spec.seed, 0, 3, 0),
        )
        real = sim_mod._design_algorithm

        def fragile(algorithm, cfg, know):
            if algorithm == "robust_full" and any(
                np.array_equal(est, bad_est.est_sr) for est in know.est_sr
            ):
                raise NumericalError("forced kernel rejection")
            return real(algorithm, cfg, know)

        monkeypatch.setattr(sim_mod, "_design_algorithm", fragile)
        records = {r.algorithm: r for r in run_experiment(spec)}
        assert records["robust_full"].n_failed == 1
        assert records["robust_full"].n_draws == spec.n_channel_draws - 1
        assert records["robust_full"].failures == {"numerical": 1}
        assert records["naive"] == clean["naive"]
        assert records["robust_nopre"] == clean["robust_nopre"]

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
        raw = json.loads(
            (pathlib.Path(__file__).resolve().parents[1] / "configs" / "default_sweep.json")
            .read_text(encoding="utf-8")
        )
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
