import os

# The BLAS and OpenMP pools get one thread each, as in perfbench/run.py,
# unless the environment already sets them.  This has to happen before
# numpy is imported: an unpinned OpenBLAS pool competes with the
# Monte-Carlo estimators' drawing thread for the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402

from afrelay import SystemConfig, sample_scenario  # noqa: E402
from afrelay.channel import _complex_parts  # noqa: E402

# Property tests run the same examples on every run (derandomized, no
# example database), so Tier-1 stays deterministic.
settings.register_profile(
    "deterministic", derandomize=True, database=None, deadline=None, print_blob=True
)
settings.load_profile("deterministic")

DEFAULT_WEIGHT = np.diag([0.3, 0.3, 0.2, 0.2])


def complex_gaussian(rng, *shape):
    """The tests' reference sampler: i.i.d. circularly symmetric CN(0, 1)
    entries (variance 1/2 per part), the real parts drawn first, then the
    imaginary parts."""
    return _complex_parts(rng.standard_normal((2, *shape)), 1 / np.sqrt(2.0))


def rand_complex(rng, rows, cols):
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def rand_psd(rng, n, scale=1.0):
    a = rand_complex(rng, n, n)
    return scale * (a @ a.conj().T) / n


def make_config(
    dims=(4, 4, 4, 4),
    n_streams=4,
    weight=None,
    snr1_db=20.0,
    snr2_db=20.0,
    p_s=1.0,
    p_r=1.0,
):
    n_s, m_r, n_r, m_d = dims
    if weight is None:
        weight = DEFAULT_WEIGHT[:n_streams, :n_streams]
    return SystemConfig(
        n_s=n_s,
        m_r=m_r,
        n_r=n_r,
        m_d=m_d,
        n_streams=n_streams,
        p_s=p_s,
        p_r=p_r,
        sigma1_sq=p_s / 10.0 ** (snr1_db / 10.0),
        sigma2_sq=p_r / 10.0 ** (snr2_db / 10.0),
        weight=weight,
    )


def make_instance(
    seed,
    dims=(4, 4, 4, 4),
    n_streams=4,
    weight=None,
    snr1_db=20.0,
    snr2_db=20.0,
    est_snr_db=10.0,
    alpha=0.3,
    p_s=1.0,
    p_r=1.0,
):
    """Random config + model-consistent channel knowledge + a truth draw."""
    cfg = make_config(dims, n_streams, weight, snr1_db, snr2_db, p_s, p_r)
    rng = np.random.default_rng(seed)
    know, truth = sample_scenario(cfg, 10.0 ** (est_snr_db / 10.0), alpha, rng)
    return cfg, know, truth


def count_identity_tests(monkeypatch) -> list:
    """The names of the covariances ``channel._identity_scale`` tests from
    now on, one entry per test."""
    import afrelay.channel as channel_mod

    calls = []
    real = channel_mod._identity_scale

    def counted(cov, name):
        calls.append(name)
        return real(cov, name)

    monkeypatch.setattr(channel_mod, "_identity_scale", counted)
    return calls


def paper_objective_extended(p_alloc, f_alloc, gains_sr, gains_rd, weights):
    """sum_i w_i (1 + a_i + b_i) / ((1 + a_i)(1 + b_i)) in the paper's form,
    evaluated in np.longdouble from the given doubles, and its partials
    -2 p g_sr^2 w b / ((1 + b)(1 + a)^2) and -2 f g_rd^2 w a / ((1 + a)(1 + b)^2).
    Skips the calling test where np.longdouble is no wider than float64
    in precision and range, as on some platforms: the reference then has
    nothing over the code it checks."""
    wide, double = np.finfo(np.longdouble), np.finfo(np.float64)
    if not (wide.eps < double.eps and wide.maxexp > double.maxexp):
        pytest.skip("np.longdouble is no wider than float64 here: no extended reference")
    p, f, gsr, grd, w = (np.asarray(v, dtype=float).astype(np.longdouble)
                         for v in (p_alloc, f_alloc, gains_sr, gains_rd, weights))
    a, b = (p * gsr) ** 2, (f * grd) ** 2
    value = np.sum(w * (1 + a + b) / ((1 + a) * (1 + b)), axis=-1)
    grad_p = -2 * p * gsr**2 * w * b / ((1 + b) * (1 + a) ** 2)
    grad_f = -2 * f * grd**2 * w * a / ((1 + a) * (1 + b) ** 2)
    return value, grad_p, grad_f
