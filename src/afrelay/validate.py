"""Independent verification machinery for the closed-form pipeline.

Monte-Carlo estimators replay the actual signal chain (true channels =
estimate + sampled error) and estimate the detection MSE empirically; a
multi-start numeric minimizer searches the residual weighted MSE over
(P, F_tilde) directly on the power spheres.  Neither path reuses the
closed-form design structure, so agreement is evidence, not tautology.

A Monte-Carlo call draws its normals on one worker thread, at most two
blocks ahead of the arithmetic, into two reused buffers, in the serial
draw order: the samples, and the state a passed-in ``Generator`` is left
in, are those of drawing each block in turn.

scipy is imported only by :func:`brute_force_design`, on its first call,
so importing this module (and the package) loads numpy alone.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass

import numpy as np

from .channel import ChannelKnowledge, _complex_parts, as_generator
from .design import scalar_gradient, scalar_objective
from .linalg import herm_sqrt
from .mse import SystemConfig, residual_weighted_mse

__all__ = [
    "McEstimate",
    "BruteForceResult",
    "empirical_weighted_mse",
    "empirical_mse_matrix",
    "brute_force_design",
    "gradient_check_scalar_objective",
    "projected_gradient_norm",
]

_CHUNK = 20_000
# L-BFGS-B's default absolute finite-difference step, and the step scipy
# falls back to where x + eps rounds back to x (sqrt(machine eps), relative).
_FD_STEP = 1e-8
_FD_FALLBACK = float(np.sqrt(np.finfo(np.float64).eps))


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo mean with its standard error.

    For matrix-valued estimates ``std_error`` combines the real and
    imaginary standard errors per entry, sqrt(se_re^2 + se_im^2).
    """

    mean: np.ndarray | float
    std_error: np.ndarray | float
    n_samples: int
    seed: int


@dataclass(frozen=True)
class BruteForceResult:
    """Best (P, F_tilde) found by the multi-start numeric search.

    ``iterations_per_restart`` holds the L-BFGS iterations each restart
    ran; ``evaluations_per_restart`` its objective-and-gradient calls,
    each one stacked evaluation of the point and its forward steps.
    """

    best_precoder: np.ndarray
    best_tilde_forward: np.ndarray
    best_objective: float
    restarts: int
    iterations_per_restart: tuple[int, ...]
    evaluations_per_restart: tuple[int, ...]


def _sample_count(n_samples) -> int:
    """``n_samples`` as an int: an integer, at least 100."""
    try:
        n = operator.index(n_samples)
    except TypeError:
        raise TypeError(f"n_samples must be an integer, got {n_samples!r}") from None
    if n < 100:
        raise ValueError("n_samples must be at least 100")
    return n


def _error_samples(cfg, know, tx, n_samples, seed):
    """Stream samples of e = G y - s in chunks.

    Per chunk the draws are taken in this order: both hops' errors
    (source-relay first), then data, relay noise and destination noise,
    each block's real parts before its imaginary parts.  One worker
    thread draws the blocks in that order into two reused buffers, each
    sized for the largest block, so it runs at most two blocks ahead and
    never past the last sample; the main thread turns each block into
    complex entries in one reused chunk buffer and does the chunk's
    arithmetic while the worker draws on.  A passed-in ``Generator`` is
    advanced exactly as by drawing the blocks one after another.
    Each hop's error L W R (W white) acts on the signal vector u as
    L (W (R u)), so the per-sample true channels are never formed.
    """
    # Here, not at the top: importing the package loads no thread pool.
    from concurrent.futures import ThreadPoolExecutor

    rng = as_generator(seed)
    p = np.asarray(tx.precoder, dtype=np.complex128)
    f = np.asarray(tx.forward, dtype=np.complex128)
    g = np.asarray(tx.equalizer, dtype=np.complex128)
    hops = [
        (est, herm_sqrt(stats.row_cov), herm_sqrt(stats.col_cov))
        for est, stats in ((know.est_sr, know.stats_sr), (know.est_rd, know.stats_rd))
    ]

    def through(hop, white, u):
        est, left, right = hop
        return u @ est.T + np.einsum("nij,nj->ni", white, u @ right.T) @ left.T

    shapes = [est.shape for est, _, _ in hops] + [(cfg.n_streams,), (cfg.m_r,), (cfg.m_d,)]
    blocks = [
        (min(_CHUNK, n_samples - done), *shape)
        for done in range(0, n_samples, _CHUNK)
        for shape in shapes
    ]
    floats = [np.empty(2 * max(map(math.prod, blocks))) for _ in range(2)]
    chunk = np.empty(sum(map(math.prod, blocks[: len(shapes)])), dtype=np.complex128)

    def draw(i):
        parts = floats[i % 2][: 2 * math.prod(blocks[i])].reshape(2, *blocks[i])
        return rng.standard_normal(out=parts)

    with ThreadPoolExecutor(1) as worker:
        ahead = deque(worker.submit(draw, i) for i in range(min(2, len(blocks))))
        for first in range(0, len(blocks), len(shapes)):
            views, start = [], 0
            for i in range(first, first + len(shapes)):
                size = math.prod(blocks[i])
                out = chunk[start : start + size].reshape(blocks[i])
                views.append(_complex_parts(ahead.popleft().result(), 1 / np.sqrt(2.0), out))
                if i + 2 < len(blocks):
                    ahead.append(worker.submit(draw, i + 2))
                start += size
            w_sr, w_rd, s, n1, n2 = views
            np.multiply(np.sqrt(cfg.sigma1_sq), n1, out=n1)
            np.multiply(np.sqrt(cfg.sigma2_sq), n2, out=n2)
            x = through(hops[0], w_sr, s @ p.T) + n1
            y = through(hops[1], w_rd, x @ f.T) + n2
            e = y @ g.T - s
            yield e


def empirical_weighted_mse(cfg, know, tx, n_samples: int, seed) -> McEstimate:
    """Sample mean of (Gy - s)^H W (Gy - s) over fresh draws of data,
    both hops' estimation errors and both noises.

    Data symbols are unit-power circularly symmetric Gaussian; the
    analytic MSE depends on the data only through its second moment, so
    the constellation choice is free.
    """
    n_samples = _sample_count(n_samples)
    w = cfg.weight
    total = 0.0
    total_sq = 0.0
    for e in _error_samples(cfg, know, tx, n_samples, seed):
        vals = np.real(np.einsum("ni,ij,nj->n", e.conj(), w, e))
        total += float(vals.sum())
        total_sq += float((vals**2).sum())
    mean = total / n_samples
    var = max(total_sq / n_samples - mean**2, 0.0)
    return McEstimate(
        mean=mean,
        std_error=float(np.sqrt(var / n_samples)),
        n_samples=n_samples,
        seed=int(seed) if np.isscalar(seed) else -1,
    )


def empirical_mse_matrix(cfg, know, tx, n_samples: int, seed) -> McEstimate:
    """Entrywise sample mean of (Gy - s)(Gy - s)^H with standard errors."""
    n_samples = _sample_count(n_samples)
    n = cfg.n_streams
    mean_acc = np.zeros((n, n), dtype=np.complex128)
    re_sq = np.zeros((n, n))
    im_sq = np.zeros((n, n))
    for e in _error_samples(cfg, know, tx, n_samples, seed):
        outer = e[:, :, None] * e[:, None, :].conj()
        mean_acc += outer.sum(axis=0)
        re_sq += (outer.real**2).sum(axis=0)
        im_sq += (outer.imag**2).sum(axis=0)
    mean = mean_acc / n_samples
    var_re = np.clip(re_sq / n_samples - mean.real**2, 0.0, None)
    var_im = np.clip(im_sq / n_samples - mean.imag**2, 0.0, None)
    se = np.sqrt((var_re + var_im) / n_samples)
    return McEstimate(
        mean=mean,
        std_error=se,
        n_samples=n_samples,
        seed=int(seed) if np.isscalar(seed) else -1,
    )


def _row_norm(z):
    """Norm of each row of z, rounded as ``np.linalg.norm`` rounds one
    flattened matrix (a real dot product over each of the strided real
    and imaginary views), so a row unpacks exactly as it would alone."""
    re, im = z.real, z.imag
    sq = re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]
    return np.sqrt(sq[:, 0, 0])[:, None, None]


def _unpack(x, cfg):
    """Rows of ``x`` -> (k, n_s, N) precoders and (k, n_r, m_r) tilde
    forwards, each rescaled onto its power sphere."""
    k = x.shape[0]
    n_p = cfg.n_s * cfg.n_streams
    p_re, p_im, f_re, f_im = np.split(x, [n_p, 2 * n_p, 2 * n_p + cfg.n_r * cfg.m_r], axis=1)
    p_raw, f_raw = p_re + 1j * p_im, f_re + 1j * f_im
    p = p_raw.reshape(k, cfg.n_s, cfg.n_streams)
    ft = f_raw.reshape(k, cfg.n_r, cfg.m_r)
    p = p * np.sqrt(cfg.p_s) / np.maximum(_row_norm(p_raw), 1e-300)
    ft = ft * np.sqrt(cfg.p_r) / np.maximum(_row_norm(f_raw), 1e-300)
    return p, ft


def _objective_and_gradient(cfg, know, x):
    """Residual weighted MSE at ``x`` and its forward-difference gradient.

    x and its ``dim`` forward-stepped copies go through one stacked
    ``residual_weighted_mse`` call.  The rule is scipy's '2-point'
    ``approx_derivative`` at absolute step ``_FD_STEP``: where x + h
    rounds back to x the step falls back to one relative to |x|, and each
    difference is divided by (x + h) - x, not by h.
    """
    dim = x.shape[0]
    sign = np.where(x >= 0, 1.0, -1.0)
    h = np.full_like(x, _FD_STEP)
    h = np.where((x + h) - x == 0, _FD_FALLBACK * sign * np.maximum(1.0, np.abs(x)), h)
    points = np.tile(x, (dim + 1, 1))
    points[np.arange(1, dim + 1), np.arange(dim)] = x + h
    vals = residual_weighted_mse(cfg, know, *_unpack(points, cfg))
    return float(vals[0]), (vals[1:] - vals[0]) / ((x + h) - x)


def brute_force_design(
    cfg: SystemConfig,
    know: ChannelKnowledge,
    restarts: int = 5,
    seed=0,
    max_iters: int = 300,
) -> BruteForceResult:
    """Numeric minimization of the residual weighted MSE over (P, F_tilde).

    Parameterizes both matrices by their real/imaginary parts, rescales
    onto the power spheres inside the objective (the optimum is known to
    sit on the boundary) and runs L-BFGS from several random starts, with
    gradients by stacked forward differences, one objective call per
    gradient.  Meant for small problems (n_streams <= 2, a handful of
    antennas): a best-effort lower-bound probe, not a solver.
    """
    import scipy.optimize

    rng = as_generator(seed)
    dim = 2 * cfg.n_s * cfg.n_streams + 2 * cfg.n_r * cfg.m_r
    best_val = np.inf
    best_x = None
    iters, evals = [], []
    for _ in range(max(1, restarts)):
        x0 = rng.standard_normal(dim)
        res = scipy.optimize.minimize(
            lambda x: _objective_and_gradient(cfg, know, x),
            x0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": max_iters, "ftol": 1e-14, "gtol": 1e-10},
        )
        iters.append(int(res.nit))
        evals.append(int(res.nfev))
        if res.fun < best_val:
            best_val = float(res.fun)
            best_x = res.x
    p, ft = _unpack(best_x[None], cfg)
    return BruteForceResult(
        best_precoder=p[0],
        best_tilde_forward=ft[0],
        best_objective=best_val,
        restarts=max(1, restarts),
        iterations_per_restart=tuple(iters),
        evaluations_per_restart=tuple(evals),
    )


def gradient_check_scalar_objective(
    p_alloc, f_alloc, gains_sr, gains_rd, weights, h: float = 1e-6
) -> float:
    """Max relative error of the analytic scalarized gradient vs central
    finite differences at an interior point (all p_i, f_i > 0).

    Kept without a package caller: checks the stationarity oracle's gradient."""
    if not 1e-7 <= h <= 1e-4:
        raise ValueError("h must be in [1e-7, 1e-4]")
    p = np.asarray(p_alloc, dtype=float)
    f = np.asarray(f_alloc, dtype=float)
    if np.any(p <= 0) or np.any(f <= 0):
        raise ValueError("gradient check needs a strictly interior point")
    grad_p, grad_f = scalar_gradient(p, f, gains_sr, gains_rd, weights)
    worst = 0.0
    for vec, grad, which in ((p, grad_p, "p"), (f, grad_f, "f")):
        for i in range(vec.shape[0]):
            step = np.zeros_like(vec)
            step[i] = h
            if which == "p":
                hi = scalar_objective(vec + step, f, gains_sr, gains_rd, weights)
                lo = scalar_objective(vec - step, f, gains_sr, gains_rd, weights)
            else:
                hi = scalar_objective(p, vec + step, gains_sr, gains_rd, weights)
                lo = scalar_objective(p, vec - step, gains_sr, gains_rd, weights)
            fd = (hi - lo) / (2 * h)
            denom = max(abs(fd), abs(grad[i]), 1e-12)
            worst = max(worst, abs(fd - grad[i]) / denom)
    return worst


def projected_gradient_norm(p_alloc, f_alloc, gains_sr, gains_rd, weights) -> float:
    """Norm of the scalarized gradient projected onto the power spheres.

    At a KKT point of the two-sphere problem the gradient restricted to
    the active coordinates is parallel to the allocation vector in each
    block, so this norm vanishes.

    Kept without a package caller: the designer's stationarity oracle.
    """
    p = np.asarray(p_alloc, dtype=float)
    f = np.asarray(f_alloc, dtype=float)
    grad_p, grad_f = scalar_gradient(p, f, gains_sr, gains_rd, weights)
    total = 0.0
    for vec, grad in ((p, grad_p), (f, grad_f)):
        act = vec > 0
        if not act.any():
            continue
        v = vec[act]
        g = grad[act]
        coef = float(v @ g) / float(v @ v)
        total += float(np.sum((g - coef * v) ** 2))
    return float(np.sqrt(total))
