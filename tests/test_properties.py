"""Property tests over a wide part of the parameter space the CLI accepts.

The CLI accepts any finite SNR and alpha in [0, 1); the generated
examples cover only part of that: dims 1-5, data SNR -10..70 dB per hop,
estimation SNR -20..60 dB (the sweep tests: -300..100 dB), alpha up to
0.999, distinct, tied and partly zero weights.  Pinned examples reach
further (200 dB data SNR, alpha 1 - 1e-14).  The derandomized profile
registered in conftest keeps every run on the same examples.
"""

import pathlib
import tempfile
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from afrelay.channel import ChannelKnowledge, exact_knowledge, sample_scenario_stack
from afrelay.design import (
    TINY_GAIN_RTOL,
    DesignError,
    DesignOptions,
    InfeasibleAllocationError,
    alternate,
    design,
    design_batch,
    spectral_decompose,
    waterfill,
    waterfill_kkt_residual,
    weight_eigensystem,
)
import afrelay.sim as sim_mod
from afrelay.sim import ExperimentSpec, emit_csv, run_experiment, system_config
from test_design import fill_one, saturated_multiplier_oracle

EPS = np.finfo(float).eps


@st.composite
def weight_lists(draw, n):
    kind = draw(st.sampled_from(("distinct", "tied", "zeros")))
    value = st.floats(0.05, 1.0)
    if kind == "distinct":
        return draw(st.lists(value, min_size=n, max_size=n))
    if kind == "tied":
        pair = draw(st.lists(value, min_size=2, max_size=2))
        return [pair[i] for i in draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))]
    weights = draw(st.lists(st.sampled_from((0.0, 1.0)), min_size=n, max_size=n))
    weights[draw(st.integers(0, n - 1))] = 1.0
    return [w * draw(value) for w in weights]


def scenario(raw: dict, seed: int, n_draws: int, scale_sr=None):
    """The config of ``raw`` (an ExperimentSpec dict of one point) and a
    stack of ``n_draws`` channel draws, draw i's first-hop estimate
    scaled by ``scale_sr[i]`` when given."""
    spec = ExperimentSpec.from_dict(raw)
    cfg = system_config(spec)
    rngs = [np.random.default_rng((seed, i)) for i in range(n_draws)]
    know, _ = sample_scenario_stack(
        cfg, 10.0 ** (spec.est_snr_db[0] / 10.0), spec.alpha, rngs
    )
    if scale_sr is not None:
        est_sr = know.est_sr * np.asarray(scale_sr, dtype=float)[:, None, None]
        know = ChannelKnowledge(est_sr, know.est_rd, know.stats_sr, know.stats_rd)
    return cfg, know


@st.composite
def scenarios(draw):
    """A CLI-valid config and a stack of 1-3 channel draws at one point."""
    dims = draw(st.lists(st.integers(1, 5), min_size=4, max_size=4))
    n = draw(st.integers(1, min(dims)))
    raw = {
        "dims": dims,
        "n_streams": n,
        "alpha": draw(st.floats(0.0, 0.999)),
        "data_snr_db": draw(st.lists(st.floats(-10.0, 70.0), min_size=2, max_size=2)),
        "est_snr_db": [draw(st.floats(-20.0, 60.0))],
        "weights": draw(weight_lists(n)),
    }
    return scenario(raw, draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 3)))


def _point(dims, weights, **raw):
    """An ExperimentSpec dict of one 10 dB point at 30 dB data SNR."""
    return {"dims": dims, "n_streams": len(weights), "weights": weights, "alpha": 0.3,
            "data_snr_db": 30.0, "est_snr_db": [10.0], **raw}


def _identity_estimates(cfg, know):
    """The scenario with identity estimates of both hops: tied gains."""
    est_sr, est_rd = (
        np.broadcast_to(np.eye(*e.shape[1:]), e.shape).copy() for e in (know.est_sr, know.est_rd)
    )
    return cfg, ChannelKnowledge(est_sr, est_rd, know.stats_sr, know.stats_rd)


@st.composite
def experiment_specs(draw):
    """A CLI-valid sweep of one estimation-SNR point, 2-4 draws of 8 symbols."""
    dims = draw(st.lists(st.integers(1, 5), min_size=4, max_size=4))
    n = draw(st.integers(1, min(dims)))
    return ExperimentSpec.from_dict({
        "dims": dims,
        "n_streams": n,
        "alpha": draw(st.floats(0.0, 0.999)),
        "data_snr_db": draw(st.lists(st.floats(-10.0, 70.0), min_size=2, max_size=2)),
        "est_snr_db": [draw(st.floats(-300.0, 100.0))],
        "weights": draw(weight_lists(n)),
        "n_channel_draws": draw(st.integers(2, 4)),
        "n_symbols": 8,
        "seed": draw(st.integers(0, 2**32 - 1)),
    })


def _spec(**raw):
    """A one-point ExperimentSpec of 4 draws of 8 symbols, 2 weighted streams."""
    return ExperimentSpec.from_dict({"n_streams": 2, "weights": [0.6, 0.4], "n_channel_draws": 4,
                                     "n_symbols": 8, "seed": 0, **raw})


def test_sweeps_over_the_accepted_space_count_every_draw():
    # No exception escapes a sweep, every draw is averaged or counted as
    # failed by cause, no cell fails every draw as numerical, and the
    # averages are finite.  Contract misses are reported, not asserted
    # away: the misses at estimation SNRs near -100 dB and below are
    # still open.
    causes = Counter()

    @settings(max_examples=60)
    @given(experiment_specs())
    # alpha near 1: R_alpha is ill-conditioned, and a general inverse of
    # I + s R_alpha is not Hermitian within ErrorStats' tolerance.
    @example(_spec(dims=[4, 4, 4, 4], alpha=0.999999999, data_snr_db=30.0, est_snr_db=[60.0]))
    # Both whitened matrices are PD only through the noise they add.
    @example(_spec(dims=[4, 3, 5, 4], alpha=1 - 1e-14, data_snr_db=150.0, est_snr_db=[140.0],
                   n_channel_draws=8, n_symbols=20, seed=14))
    def sweep(spec):
        for rec in run_experiment(spec):
            assert rec.n_draws + rec.n_failed == spec.n_channel_draws
            assert sum(rec.failures.values()) == rec.n_failed
            assert rec.failures.get("numerical", 0) < spec.n_channel_draws
            if rec.n_draws > 0:
                assert np.isfinite([rec.wmse_analytic, rec.wmse_empirical, rec.ber]).all()
            causes.update({(rec.algorithm, cause): k for cause, k in rec.failures.items()})

    sweep()
    print(f"failed draws by (algorithm, cause): {dict(sorted(causes.items()))}")


@st.composite
def multi_point_specs(draw):
    """A CLI-valid sweep of 2-3 estimation-SNR points, 2-3 draws of 8 symbols."""
    dims = draw(st.lists(st.integers(1, 5), min_size=4, max_size=4))
    n = draw(st.integers(1, min(dims)))
    return ExperimentSpec.from_dict({
        "dims": dims,
        "n_streams": n,
        "alpha": draw(st.floats(0.0, 0.999)),
        "data_snr_db": draw(st.lists(st.floats(-10.0, 70.0), min_size=2, max_size=2)),
        "est_snr_db": draw(st.lists(st.floats(-300.0, 100.0), min_size=2, max_size=3)),
        "weights": draw(weight_lists(n)),
        "n_channel_draws": draw(st.integers(2, 3)),
        "n_symbols": 8,
        "seed": draw(st.integers(0, 2**32 - 1)),
    })


@settings(max_examples=15)
@given(multi_point_specs())
def test_design_stacks_across_points_leave_the_csv_bytes_unchanged(spec):
    # At the default every point's draws share one design stack; with
    # CHUNK_DRAWS = 1 every draw is designed alone.
    texts = []
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "sweep.csv"
        for chunk_draws in (sim_mod.CHUNK_DRAWS, 1):
            with mock.patch.object(sim_mod, "CHUNK_DRAWS", chunk_draws):
                emit_csv(run_experiment(spec), path)
            texts.append(path.read_bytes())
    assert texts[0] == texts[1]


def _single(cfg, know, opts):
    try:
        return design(cfg, know, opts)
    except DesignError as err:
        return err


def _nonincreasing(vals) -> bool:
    return bool(np.all(vals[1:] <= vals[:-1] + 1e-9 * vals.max(initial=0.0)))


@settings(max_examples=40)
@given(scenarios(), st.integers(0, 2))
# A subnormal weight, so the weakest stream's first relay coefficient is
# subnormal (below 2.2e-313).
@example(scenario(_point([4, 4, 4, 4], [0.5, 0.3, 0.2, 2.2250738585e-313]), 1, 2), 0)
# An all-zero first hop between two ordinary draws.
@example(scenario(_point([3, 3, 3, 3], [0.5, 0.3, 0.2]), 2, 3, [1.0, 0.0, 1.0]), 1)
# Tied gains and tied weights: identity estimates, uncorrelated errors.
@example(_identity_estimates(*scenario(_point([4, 4, 4, 4], [0.25] * 4, alpha=0.0), 3, 2)), 2)
# A single stream.
@example(scenario(_point([2, 3, 1, 2], [1.0]), 4, 3), 2)
# 200 dB data SNR: under exact knowledge pi_p's eigenvalues reach about
# 1e20, so F meets the relay budget only through pi_p's factors.
@example(scenario(_point([4, 4, 4, 4], [0.6, 0.4], data_snr_db=200.0), 14, 3), 0)
def test_stack_equals_single_draw_designs(scenario, restarts):
    cfg, know = scenario
    for knowledge, opts in (
        (know, DesignOptions(restarts=restarts)),
        (know, DesignOptions(mode="relay_only")),
        (exact_knowledge(know.est_sr, know.est_rd), DesignOptions()),
    ):
        batch = design_batch(cfg, knowledge, opts)
        for i, fail in enumerate(batch.failures):
            alone = _single(cfg, knowledge.select(i), opts)
            if fail is not None:
                assert type(alone) is type(fail) and str(alone) == str(fail)
                continue
            got = batch.draw(i)
            for name in ("precoder", "forward", "equalizer"):
                assert getattr(got.tx, name).tobytes() == getattr(alone.tx, name).tobytes()
            assert got.achieved_wmse == alone.achieved_wmse
            assert got.alloc.n_iters == alone.alloc.n_iters


def test_a_first_hop_below_1e_154_takes_the_flat_fill():
    # Scaled by 4e-157, draw 0's first-hop gains square to subnormals, so
    # 1/g^2 would overflow; 1 + x g^2 rounds to 1 and the source side's
    # objective is flat.  Under warnings as errors the draw designs, takes
    # the uniform flat fill (mu = inf) and meets its contracts.
    cfg, know = scenario(_point([4] * 4, [0.3, 0.3, 0.2, 0.2]), 1, 2, [4e-157, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        designs = [
            design_batch(cfg, knowledge, opts)
            for knowledge, opts in (
                (know, DesignOptions()),
                (know, DesignOptions(mode="relay_only")),
                (exact_knowledge(know.est_sr, know.est_rd), DesignOptions()),
            )
        ]
    for batch in designs:
        assert batch.failures == (None, None)
    joint = designs[0].solution.alloc
    assert np.isinf(joint.mu_p[0]) and np.isfinite(joint.mu_p[1])
    assert np.array_equal(joint.p_alloc[0], np.full(4, np.sqrt(cfg.p_s / 4)))


@settings(max_examples=60)
@given(scenarios())
def test_uniform_init_keeps_the_products_ordered(scenario):
    # Nonincreasing weights and gains make both half water-fills monotone
    # in the rank, so the alternation from the uniform init never leaves
    # the paired order (p_i lsr_i)^2, (f_i lrd_i)^2 nonincreasing.
    cfg, know = scenario
    spectral = spectral_decompose(cfg, know)
    weights = weight_eigensystem(cfg.weight).values
    gains_sr, gains_rd = spectral.gains_sr, spectral.gains_rd
    state, _ = alternate(gains_sr, gains_rd, weights, cfg.p_s, cfg.p_r)
    for i in np.flatnonzero(state.converged):
        alloc, gsr, grd = state.draw(i), gains_sr[i], gains_rd[i]
        assert _nonincreasing((alloc.p_alloc * gsr) ** 2)
        assert _nonincreasing((alloc.f_alloc * grd) ** 2)


@settings(max_examples=40)
@given(scenarios())
def test_designs_with_restarts_keep_the_products_ordered(scenario):
    cfg, know = scenario
    for i in range(know.est_sr.shape[0]):
        sol = _single(cfg, know.select(i), DesignOptions(restarts=2))
        if isinstance(sol, DesignError):
            continue
        assert _nonincreasing((sol.alloc.p_alloc * sol.spectral.gains_sr) ** 2)
        assert _nonincreasing((sol.alloc.f_alloc * sol.spectral.gains_rd) ** 2)


gains = st.one_of(st.floats(1e-6, 1e3), st.sampled_from((0.0, 1e-15, 1.0, 2.0)))


@settings(max_examples=300)
@given(
    st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.lists(st.one_of(st.floats(0.0, 10.0), st.just(0.0)), min_size=n, max_size=n),
        st.lists(gains, min_size=n, max_size=n),
    )),
    st.floats(1e-3, 1e3),
)
@example(([0.0, 2.2250738585e-313, 0.0], [1.0, 5.0, 1.0]), 5.0)  # subnormal coefficient
@example(([1.0, 0.5, 0.0], [0.0, 0.0, 0.0]), 1.0)  # all-zero gains
@example(([0.5, 0.5, 0.2, 0.2], [2.0, 2.0, 1.0, 1.0]), 3.0)  # tied levels
@example(([0.7], [3.0]), 2.0)  # a single stream
def test_exact_waterfill_lands_on_budget(problem, budget):
    coeffs, gain = (np.asarray(v, dtype=float) for v in problem)
    if gain.max() == 0.0:
        with pytest.raises(InfeasibleAllocationError):
            waterfill(coeffs[None], gain[None], budget)
        return
    x, mu = waterfill(coeffs[None], gain[None], budget)
    x, mu = x[0], mu[0]
    # streams below TINY_GAIN_RTOL of the strongest get no power by design
    candidate = (gain > TINY_GAIN_RTOL * gain.max()) & (coeffs > 0.0)
    # x_i = s_i / sqrt(mu) - 1/g_i^2: rounding scales with the budget plus
    # the 1/g_i^2 offsets of the streams that can be active
    slack = 4 * (len(x) + 2) * EPS * (budget + 2 * np.sum(1.0 / gain[candidate] ** 2))
    assert np.all(x >= 0.0)
    assert abs(x.sum() - budget) <= slack
    assert waterfill_kkt_residual(x, mu, coeffs * candidate, gain) <= 1e-12


@settings(max_examples=200)
@given(
    st.lists(st.floats(0.05, 10.0), min_size=1, max_size=5),
    st.floats(1e-2, 1e2),
)
def test_exact_waterfill_matches_the_all_active_oracle(weights, budget):
    w = np.sort(np.asarray(weights))[::-1]
    n = len(w)
    f, mu = fill_one(np.full(n, 1e12), np.ones(n), np.ones(n), w, budget)
    assume(np.all(f > 0.0))
    t = saturated_multiplier_oracle(w, budget)
    assert np.allclose(f**2, np.sqrt(w) * t - 1.0, rtol=1e-9, atol=1e-12 * budget)
    assert np.isclose(1.0 / np.sqrt(mu), t, rtol=1e-9)
