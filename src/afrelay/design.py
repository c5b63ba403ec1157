"""Joint robust weighted-LMMSE transceiver design.

The minimum of the weighted MSE over (precoder P, relay matrix F,
equalizer G) under per-node power constraints has closed-form spectral
structure: after whitening each hop by its error-plus-noise covariance,

    P  = sqrt(eta_p) (p_s Psi + sigma1^2 I)^{-1/2} Vsr_N diag(p_i) Uw^H,
    Ft = Vrd_N diag(f_i) Usr_N^H,

where (Usr, Vsr) come from the SVD of the whitened first-hop estimate,
Vrd from the whitened second hop, Uw from the eigendecomposition of the
weighting matrix, and eta_p is the scalar that makes the first-hop
effective noise covariance proportional to identity.  The remaining
diagonal gains solve

    min sum_i w_i (1 + a_i + b_i) / ((1 + a_i)(1 + b_i)),
    a_i = p_i^2 lsr_i^2,  b_i = f_i^2 lrd_i^2,
    sum p_i^2 = p_s,  sum f_i^2 = p_r,

which alternating water-filling handles: each half problem has the
closed-form level

    x_i = ( sqrt(c_i / (mu g_i^2)) - 1/g_i^2 )^+,

and the multiplier is exact: with the streams sorted by c_i g_i^2 and the
k strongest active, sqrt(mu) = sum s_i / (budget + sum 1/g_i^2) over the
active set (s_i = sqrt(c_i) / g_i), for the largest k whose k-th stream
stays active.  Both constraints are active at the optimum, so power
lands on the budget to rounding.  The alternation converges linearly,
so after one plain alternation it runs in squared-extrapolation
(SQUAREM) cycles: two alternations p1 = T(p0), p2 = T(p1) give the step
length of an extrapolated source allocation, and a third alternation
from it is kept where it does not raise the objective
(:func:`alternate`).  A row that settles within three alternations, as
most rows of an error-free design do, pays for no extrapolation.

The pipeline works on a (B, ., .) stack of channel draws that share one
config (:func:`design_batch`): the whitening once for error statistics
that the draws share (draw by draw for per-draw statistics, as where the
draws come from several sweep points), one stacked SVD per hop, the
alternation on every draw at once with a per-draw convergence mask, and
one pass of checks that gives every draw its verdict, so a failing draw
is reported without disturbing the others.  :func:`design` is the B = 1
case.  Every step has one public entry, which takes stacks:
:func:`spectral_decompose`, :func:`waterfill`, :func:`alternate`,
:func:`solve_eta_p`, :func:`assemble`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelKnowledge
from .linalg import (
    OrderedHermitianEig,
    OrderedSVD,
    _check_psd,
    _ct,
    _herm,
    _rebuild,
    _rows,
    eig_hermitian_ordered,
    svd_ordered,
)
from .mse import SystemConfig, Transceiver, _checked, _link, _scalar, _trace, tilde_maps

__all__ = [
    "DesignError",
    "InfeasibleAllocationError",
    "ConvergenceError",
    "ContractError",
    "NumericalError",
    "SpectralData",
    "AllocationState",
    "TransceiverSolution",
    "DesignBatch",
    "DesignOptions",
    "weight_eigensystem",
    "spectral_decompose",
    "waterfill",
    "waterfill_kkt_residual",
    "scalar_objective",
    "scalar_gradient",
    "alternate",
    "solve_eta_p",
    "assemble",
    "design_batch",
    "design",
]

# Streams whose gain is below this fraction of the largest get no power.
TINY_GAIN_RTOL = 1e-12
# A row whose largest gain is below this has a flat objective in floats.
FLAT_GAIN = 1e-140
# Relay-side KKT residual against the final source allocation that ends
# the alternation.
CROSS_KKT_TOL = 1e-9
# Relative change of the objective over one full iteration (an evaluation
# of the alternation map) below which the alternation checks
# CROSS_KKT_TOL, and its budget of evaluations.
CONVERGENCE_TOL = 1e-10
MAX_ITERS = 500


class DesignError(Exception):
    """Base of every failure a design reports for a valid input.

    ``cause`` names the kind of failure; a sweep counts failed draws by it.
    """

    cause = "other"


class InfeasibleAllocationError(DesignError, ValueError):
    """Raised when a water-filling step has no usable stream."""

    cause = "infeasible"


class ConvergenceError(DesignError, RuntimeError):
    """Alternating water-filling failed to converge within the budget.

    ``objective_trace`` carries the recorded objective values so the
    failure can be inspected; no best-effort solution is returned.
    """

    cause = "convergence"

    def __init__(self, message: str, objective_trace):
        super().__init__(message)
        self.objective_trace = np.asarray(objective_trace, dtype=float)


class ContractError(DesignError, RuntimeError):
    """A designed transceiver missed a contract: a power budget, the eta_p
    fixed point or the residual-vs-direct weighted-MSE agreement."""

    def __init__(self, cause: str, message: str):
        super().__init__(message)
        self.cause = cause


class NumericalError(DesignError, ValueError):
    """A draw's solve was singular: its equalizer, forward matrix or
    weighted MSE is not finite.  Only that draw fails."""

    cause = "numerical"


@dataclass(frozen=True)
class SpectralData:
    """Whitened-hop SVDs and per-stream gains used by the designer.

    ``first_hop`` decomposes est_sr @ whiten_sr, ``second_hop``
    whiten_rd @ est_rd where whiten_sr = (p_s Psi + sigma1^2 I)^{-1/2}
    and whiten_rd = K2^{-1/2} with the constant K2 = p_r Sigma_rd +
    sigma2^2 I.  Gains are the leading n_streams singular values.  For a
    stack of draws every field carries its leading axis; whiten_sr, which
    the assembled precoder reads, is a broadcast view of one matrix where
    the draws share the first hop's error statistics.
    """

    first_hop: OrderedSVD
    second_hop: OrderedSVD
    gains_sr: np.ndarray
    gains_rd: np.ndarray
    whiten_sr: np.ndarray


@dataclass(frozen=True)
class AllocationState:
    """Converged per-stream amplitudes and solver diagnostics.

    For a stack of R rows every field carries the leading axis: the
    amplitudes are (R, n); ``mu_p``, ``mu_f``, ``eta_p``, ``n_iters`` and
    ``converged`` are (R,); ``objective_trace`` is (R, T), padded with
    NaN past each row's own trace, and all NaN for a row that never
    iterates (all-zero gains).  :meth:`draw` gives one row's state with
    scalar diagnostics and its unpadded trace.  ``n_iters`` counts the
    evaluations of the alternation map (a relay then a source half step,
    two trace entries each), extrapolated and rejected ones included.
    """

    p_alloc: np.ndarray
    f_alloc: np.ndarray
    mu_p: np.ndarray | float
    mu_f: np.ndarray | float
    eta_p: np.ndarray | float
    objective_trace: np.ndarray
    n_iters: np.ndarray | int
    converged: np.ndarray | bool

    def draw(self, i: int) -> "AllocationState":
        trace = self.objective_trace[i]
        return AllocationState(
            p_alloc=self.p_alloc[i].copy(),
            f_alloc=self.f_alloc[i].copy(),
            mu_p=float(self.mu_p[i]),
            mu_f=float(self.mu_f[i]),
            eta_p=float(self.eta_p[i]),
            objective_trace=trace[~np.isnan(trace)],
            n_iters=int(self.n_iters[i]),
            converged=bool(self.converged[i]),
        )


@dataclass(frozen=True)
class TransceiverSolution:
    """Designed transceiver plus the factors and diagnostics behind it."""

    tx: Transceiver
    tilde_forward: np.ndarray
    alloc: AllocationState
    spectral: SpectralData
    achieved_wmse: float


@dataclass(frozen=True)
class DesignBatch:
    """Designs for a stack of B draws sharing one config.

    ``solution`` holds (B, ...) arrays.  ``failures[i]`` is the
    :class:`DesignError` of draw i, or None; a failed draw's entries are
    placeholders.  ``direct_wmse`` is each design's weighted MSE
    evaluated directly (``mse.weighted_mse`` under the design knowledge),
    as the agreement check computed it.
    """

    solution: TransceiverSolution
    direct_wmse: np.ndarray
    failures: tuple

    def draw(self, i: int) -> TransceiverSolution:
        """Draw i alone, owning every array it holds; raises its failure, if any."""
        if self.failures[i] is not None:
            raise self.failures[i]
        sol = self.solution
        return TransceiverSolution(
            tx=_rows(sol.tx, i),
            tilde_forward=sol.tilde_forward[i].copy(),
            alloc=sol.alloc.draw(i),
            spectral=_rows(sol.spectral, i),
            achieved_wmse=float(sol.achieved_wmse[i]),
        )


@dataclass(frozen=True)
class DesignOptions:
    """Knobs for :func:`design` and :func:`design_batch`.

    ``mode`` is "joint" (full pipeline) or "relay_only" (the precoder is
    the scaled identity that spreads the source budget evenly over the
    streams; only F and G are designed).  ``restarts`` adds that many
    random initializations on top of the uniform one; the best final
    objective wins, ties going to the earlier candidate.  Their draws come
    from a generator seeded with 0, so a design is deterministic.  Both
    knobs are checked when the options are built.
    """

    mode: str = "joint"
    restarts: int = 0

    def __post_init__(self):
        if self.mode not in ("joint", "relay_only"):
            raise ValueError(f"unknown design mode {self.mode!r}")
        r = self.restarts
        if isinstance(r, bool) or not isinstance(r, (int, np.integer)) or r < 0:
            raise ValueError(f"restarts must be an int >= 0, got {r!r}")


def weight_eigensystem(w) -> OrderedHermitianEig:
    """Eigendecomposition of the PSD weighting matrix, values nonincreasing."""
    eig = eig_hermitian_ordered(w)
    _check_psd(eig.values[..., ::-1], "weight")
    return OrderedHermitianEig(
        vectors=eig.vectors, values=np.clip(eig.values, 0.0, None)
    )


def _floored_inv_sqrt(m: np.ndarray, floor: float) -> np.ndarray:
    """m^{-1/2} of m = (a PSD matrix) + floor I, its eigenvalues floored at
    ``floor``: PD by construction, so no conditioning guard applies.  A
    zero PSD part (exact knowledge) gives floor^{-1/2} I without a
    decomposition, the bytes the decomposition gives."""
    eye = np.eye(m.shape[-1])
    if (m == floor * eye).all():
        return np.broadcast_to(eye / np.sqrt(floor), m.shape).astype(m.dtype)
    w, q = np.linalg.eigh(_herm(m))
    return _rebuild(q, np.sqrt(np.maximum(w, floor)), inverse=True)


def _whitening(cfg: SystemConfig, know: ChannelKnowledge):
    """whiten_sr and whiten_rd of the knowledge's error statistics (see
    :class:`SpectralData`)."""
    # Each hop's identity-side scale folds into its other factor.
    b_sr = cfg.p_s * (know.c_sr * know.stats_sr.col_cov) + cfg.sigma1_sq * np.eye(cfg.n_s)
    k2_const = cfg.p_r * (know.c_rd * know.stats_rd.row_cov) + cfg.sigma2_sq * np.eye(cfg.m_d)
    return _floored_inv_sqrt(b_sr, cfg.sigma1_sq), _floored_inv_sqrt(k2_const, cfg.sigma2_sq)


def spectral_decompose(cfg: SystemConfig, know: ChannelKnowledge) -> SpectralData:
    """Ordered SVDs of both whitened hop estimates plus truncated gains;
    the whitening is formed once for statistics shared by the stack's
    draws (whiten_sr is then a broadcast view), and draw by draw otherwise."""
    _checked(cfg, know)
    whiten_sr, whiten_rd = _whitening(cfg, know)
    n = cfg.n_streams
    first = svd_ordered(know.est_sr @ whiten_sr)
    second = svd_ordered(whiten_rd @ know.est_rd)
    return SpectralData(
        first_hop=first,
        second_hop=second,
        gains_sr=first.values[..., :n].copy(),
        gains_rd=second.values[..., :n].copy(),
        whiten_sr=np.broadcast_to(whiten_sr, first.right.shape),
    )


def _gain_terms(gains):
    """The coefficient-independent parts of water-filling against (R, n)
    gains: g^2 on usable streams (0 elsewhere), 1/g^2 with unusable
    gains taken as 1, the usable streams and a per-row flag for rows
    whose gains are all zero.

    A row whose largest gain is below FLAT_GAIN gets zero levels: 1 + x
    g^2 rounds to 1 on all its streams for any budget below 1e250, so its
    objective is flat, and zero levels send its water-fill straight to
    the flat fill (1/g^2 of its usable streams could overflow).  Above
    FLAT_GAIN every usable g^2 is a normal float."""
    g = np.asarray(gains, dtype=float)
    gmax = g.max(axis=-1, keepdims=True)
    usable = g > TINY_GAIN_RTOL * gmax
    levels = usable & (gmax >= FLAT_GAIN)
    g2 = np.where(levels, g, 1.0) ** 2
    return g2 * levels, 1.0 / g2, usable, gmax[..., 0] <= 0.0


def _waterfill(coeffs, terms, budget):
    """min sum c_i / (1 + x_i g_i^2) over x >= 0 with sum x_i = budget,
    exactly and independently for every row of (R, n) arrays.

    ``terms`` are the :func:`_gain_terms` of the gains.  Returns the
    squared allocations x and the multiplier mu per row.  Streams with
    (relatively) zero gain get no power; a row with no positive
    coefficient on a usable stream has a flat objective, and its budget
    is spread uniformly over the usable streams (mu = inf).
    """
    g2, inv_g2, usable, _ = terms
    # Stream i is active iff mu < c_i g_i^2.  With the streams sorted by
    # that level and the k strongest active, sqrt(mu) = sum s_i /
    # (budget + sum 1/g_i^2) with s_i = sqrt(c_i) / g_i; the answer is
    # the largest k whose k-th stream stays active, mu < c_k g_k^2.
    level = coeffs * g2
    s_c = np.sqrt(level) * inv_g2
    rows = np.arange(level.shape[0])[:, None]
    sorted_s, sorted_inv, sorted_level = s_c, inv_g2 * (level > 0.0), level
    # Nonincreasing gains and coefficients give nonincreasing levels, as on
    # every evaluation of the alternation that does not start from an
    # extrapolation or a random restart.  The stable sort leaves such rows
    # as they are, so skipping it there changes no bit.
    if not (level[:, 1:] <= level[:, :-1]).all():
        order = (-level).argsort(axis=-1, kind="stable")
        sorted_s, sorted_inv, sorted_level = (v[rows, order] for v in (s_c, sorted_inv, level))
    root_k = sorted_s.cumsum(axis=-1) / (budget + sorted_inv.cumsum(axis=-1))
    k = (root_k * root_k < sorted_level).sum(axis=-1)
    root = root_k[rows, k[:, None] - 1]
    if k.all():
        return np.maximum(s_c / root - inv_g2, 0.0), root[:, 0] ** 2
    flat = k == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.maximum(s_c / root - inv_g2, 0.0)
    share = budget / np.maximum(usable.sum(axis=-1, keepdims=True), 1)
    x = np.where(flat[:, None], share * usable, x)
    return x, np.where(flat, np.inf, root[:, 0] ** 2)


def _checked_rows(budgets: dict, ordered=0, **arrays) -> np.ndarray:
    """The arrays broadcast to one (R, n) shape and stacked, after one check
    that the budgets are finite and positive, every entry is finite and
    nonnegative and the rows of the first ``ordered`` arrays are
    nonincreasing; a ValueError names the first argument that is not."""
    for name, value in budgets.items():
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    names = tuple(arrays)
    stack = np.stack(np.broadcast_arrays(*arrays.values())).astype(float, copy=False)
    if stack.ndim != 3 or stack.shape[-1] == 0:
        raise ValueError(f"{', '.join(names)} must broadcast to (R, n) rows with n >= 1")
    if not (stack.min(initial=0.0) >= 0.0 and stack.max(initial=0.0) < np.inf):
        bad = ~(np.isfinite(stack) & (stack >= 0.0)).all(axis=(1, 2))
        raise ValueError(f"{names[bad.argmax()]} must be finite and nonnegative")
    lead = stack[:ordered]
    bad = (lead[..., 1:] > lead[..., :-1] + 1e-9 * lead.max(-1, keepdims=True)).any(axis=(1, 2))
    if bad.any():
        raise ValueError(f"{names[bad.argmax()]} must be nonincreasing (paired by rank)")
    return stack


def waterfill(coeffs, gains, budget):
    """:func:`_waterfill` (levels x and multiplier mu) of every row of (R, n)
    coefficients and gains, after one check: a ValueError unless ``budget``
    is finite and positive and every entry finite and nonnegative, and an
    :class:`InfeasibleAllocationError` if a row's gains are all zero.

    Kept without a package caller: the checked public water-filling step."""
    c, g = _checked_rows({"budget": budget}, coeffs=coeffs, gains=gains)
    terms = _gain_terms(g)
    if terms[3].any():
        raise InfeasibleAllocationError("all channel gains are zero")
    return _waterfill(c, terms, budget)


def waterfill_kkt_residual(levels_sq, mu, coeffs, gains) -> float | np.ndarray:
    """Max relative KKT violation of a water-filling solution.

    Active streams must satisfy (1 + x g^2)^2 mu = c g^2; inactive ones
    need mu >= c g^2 (the clamp condition).  Violations are relative to
    the mu each condition names, floored at the smallest normal float (a
    subnormal mu has no relative precision).  Degenerate flat problems
    (mu = inf) vacuously satisfy the conditions.  One value per row for
    (..., n) arrays.

    Kept without a package caller: the test oracle of water-filling KKT.
    """
    g2 = np.asarray(gains, dtype=float) ** 2
    return _scalar(_kkt_residual(
        np.asarray(levels_sq, dtype=float), np.asarray(mu, dtype=float),
        np.asarray(coeffs, dtype=float) * g2, g2,
    ))


def _kkt_residual(x, mu, cg, g2):
    """:func:`waterfill_kkt_residual` of levels x, multipliers mu, levels
    c g^2 and squared gains g^2."""
    m = mu[..., None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lift = (1.0 + x * g2) ** 2
        gap = np.where(x > 0.0, np.abs(lift * m - cg), cg - m)
        res = gap / np.maximum(cg, lift * np.finfo(float).tiny)
    res = np.where((cg > 0.0) & (res > 0.0), res, 0.0).max(axis=-1, initial=0.0)
    return np.where(np.isfinite(mu), res, 0.0)


def scalar_objective(p_alloc, f_alloc, gains_sr, gains_rd, weights):
    """sum_i w_i (1 + a_i + b_i) / ((1 + a_i)(1 + b_i)) — the weighted MSE
    predicted for the structured solution with these diagonal gains (one
    value per row for stacked allocations)."""
    a = (np.asarray(p_alloc, float) * np.asarray(gains_sr, float)) ** 2
    b = (np.asarray(f_alloc, float) * np.asarray(gains_rd, float)) ** 2
    w = np.asarray(weights, float)
    return _scalar(np.sum(w * (1.0 + a + b) / ((1.0 + a) * (1.0 + b)), axis=-1))


def scalar_gradient(p_alloc, f_alloc, gains_sr, gains_rd, weights):
    """Analytic partials of :func:`scalar_objective` w.r.t. p_i and f_i."""
    p = np.asarray(p_alloc, float)
    f = np.asarray(f_alloc, float)
    gsr = np.asarray(gains_sr, float)
    grd = np.asarray(gains_rd, float)
    w = np.asarray(weights, float)
    a = (p * gsr) ** 2
    b = (f * grd) ** 2
    grad_p = -2.0 * p * gsr**2 * w * b / ((1.0 + b) * (1.0 + a) ** 2)
    grad_f = -2.0 * f * grd**2 * w * a / ((1.0 + a) * (1.0 + b) ** 2)
    return grad_p, grad_f


def alternate(
    gains_sr, gains_rd, weights, p_s, p_r, p_init=None, *, tol=CONVERGENCE_TOL, max_iters=MAX_ITERS
):
    """Alternating water-filling on every row of (R, n) problems at once,
    accelerated by squared extrapolation (SQUAREM, Varadhan & Roland 2008).

    The iteration map T is one relay half step then one source half step,
    each solving its subproblem exactly.  One plain evaluation from
    ``p_init`` leads, and its output is the first cycle's p0; the cycles
    start at the second evaluation, so a row that settles by its third
    runs no extrapolation.  A cycle evaluates T three times: p1 = T(p0),
    p2 = T(p1), then T(p_e) at the extrapolation

        r = p1 - p0,  v = p2 - 2 p1 + p0,  alpha = min(-|r| / |v|, -1),
        p_e = |p0 - 2 alpha r + alpha^2 v|  rescaled onto sum p^2 = p_s

    (alpha = -1 where v = 0, which gives p2 back).  A row keeps the third
    evaluation only if the objective after its relay half step is at most
    that of (p2, f2); otherwise it keeps (p2, f2) and traces that
    objective for the evaluation, which does not count towards settling.
    So every traced value is the objective of a feasible pair and a row's
    trace is nonincreasing (modulo ~1e-16 float noise).

    From ``p_init`` (uniform source amplitudes by default) each row
    follows exactly the iteration of its problem alone (alpha comes from
    the row's own vectors, and all rows start their cycles together) and
    stops on its own: once its relative objective change over an
    evaluation is below ``tol``, as soon as its relay-side KKT residual
    against the final source allocation is at most CROSS_KKT_TOL (the
    last relay update lags one half step).  Every row is updated until
    the last one stops, and a stopped row's trace ends after 2·``n_iters``
    entries.  ``n_iters`` counts every evaluation of T: the lead, the
    plain ones and the extrapolated ones, rejected or kept.

    Gains, weights and ``p_init`` broadcast to (R, n).  One check raises a
    ValueError naming the argument unless the budgets are finite and
    positive, ``max_iters`` is at least 0, every entry finite and
    nonnegative and the gains and weights nonincreasing along each row.
    Returns an :class:`AllocationState` of (R, ...) arrays (``converged``
    False and ``n_iters`` = ``max_iters`` for rows not stopped within
    ``max_iters`` evaluations, ``eta_p`` NaN) and the per-row infeasible
    (all-zero-gain) flag; an infeasible row never iterates and its trace
    is all NaN.  No row's outcome raises.
    """
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters!r}")
    gsr, grd, w, p = _checked_rows(
        {"p_s": p_s, "p_r": p_r}, 3, gains_sr=gains_sr, gains_rd=gains_rd, weights=weights,
        p_init=0.0 if p_init is None else p_init,
    )
    if p_init is None:
        p = np.full_like(p, np.sqrt(p_s / p.shape[-1]))
    rows = p.shape[0]
    terms_sr, terms_rd = _gain_terms(gsr), _gain_terms(grd)
    infeasible = terms_sr[3] | terms_rd[3]
    out_p, out_f = p.copy(), np.zeros_like(p)
    out_mu_p, out_mu_f = np.full(rows, np.nan), np.full(rows, np.nan)
    # A row that stops records its count; one that runs out of them ran all.
    n_iters = np.where(infeasible, 0, max_iters)
    pending = ~infeasible
    g2_rd = grd**2
    settled = np.zeros(rows, dtype=bool)
    prev = np.full(rows, np.nan)
    columns = []
    # a = (p g_sr)^2 and b = (f g_rd)^2 with 1 + a and 1 + b are formed
    # once per half step and shared by the next half step's coefficients
    # w a / (1 + a) and the objective sum w (1 + a + b) / ((1 + a)(1 + b)).
    a = (p * gsr) ** 2
    one_a = 1.0 + a
    coeff_f = w * a / one_a
    for it in range(1, max_iters + 1 if pending.any() else 1):
        # The lead evaluation (it = 1) ends a cycle of its own; after it
        # every third evaluation starts from an extrapolation.
        step = (it + 1) % 3
        guarded = step == 2 and it > 1
        x_f, mu_f = _waterfill(coeff_f, terms_rd, p_r)
        f = np.sqrt(x_f)
        b = (f * grd) ** 2
        one_b = 1.0 + b
        half = (w * (one_a + b) / (one_a * one_b)).sum(axis=-1)
        x_p, mu_p = _waterfill(w * b / one_b, terms_sr, p_s)
        p = np.sqrt(x_p)
        # The safeguard: a row whose extrapolation raises the objective of
        # (p2, f2) after the relay half step keeps that pair.
        counts = half <= prev if guarded else True
        rejected = guarded and not counts.all()
        if rejected:
            p = np.where(counts[:, None], p, cycle[2])
        a = (p * gsr) ** 2
        one_a = 1.0 + a
        cur = (w * (one_a + b) / (one_a * one_b)).sum(axis=-1)
        coeff_f = w * a / one_a
        if rejected:
            half, cur = np.where(counts, half, prev), np.where(counts, cur, prev)
        columns += [half, cur]
        # The source amplitudes of the running cycle: p0, then T's outputs.
        cycle = [p] if step == 2 else cycle + [p]
        settle = np.abs(prev - cur) <= tol * np.maximum(np.abs(cur), 1e-300)
        prev = cur
        # A rejected evaluation leaves its row as it was: it neither
        # settles the row nor stops it.
        if rejected:
            settle &= counts
        settled |= settle
        fin = settled & (pending & counts if rejected else pending)
        if fin.any():
            fin &= _kkt_residual(f**2, mu_f, coeff_f * g2_rd, g2_rd) <= CROSS_KKT_TOL
        if fin.any():
            out_p[fin], out_f[fin] = p[fin], f[fin]
            out_mu_p[fin], out_mu_f[fin] = mu_p[fin], mu_f[fin]
            n_iters[fin] = it
            pending &= ~fin
            if not pending.any():
                break
        if step == 1:
            p = _extrapolate(*cycle, p_s)
            a = (p * gsr) ** 2
            one_a = 1.0 + a
            coeff_f = w * a / one_a
    trace = np.stack(columns, axis=-1) if columns else np.empty((rows, 0))
    trace[np.arange(trace.shape[-1]) >= 2 * n_iters[:, None]] = np.nan
    state = AllocationState(
        p_alloc=out_p,
        f_alloc=out_f,
        mu_p=out_mu_p,
        mu_f=out_mu_f,
        eta_p=np.full(rows, np.nan),
        objective_trace=trace,
        n_iters=n_iters,
        converged=~(pending | infeasible),
    )
    return state, infeasible


def _extrapolate(p0, p1, p2, p_s):
    """The squared extrapolation of three successive (R, n) source
    amplitudes, row by row, on the source budget; p2 where v = 0 or the
    extrapolation is not a finite nonzero vector."""
    r = p1 - p0
    v = p2 - p1 - r
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        alpha = np.minimum(-np.sqrt((r * r).sum(axis=-1) / (v * v).sum(axis=-1)), -1.0)[:, None]
        p_e = np.abs(p0 - 2.0 * alpha * r + alpha**2 * v)
        scale = np.sqrt(p_s / (p_e * p_e).sum(axis=-1, keepdims=True))
        return np.where((scale > 0.0) & (scale < np.inf), p_e * scale, p2)


def solve_eta_p(p_alloc, spectral: SpectralData, p_s):
    """Closed-form first-hop noise-plus-leakage level.

    eta_p = p_s / sum_i p_i^2 [Vsr_N^H B^{-1} Vsr_N]_ii with
    B = p_s Psi + sigma1^2 I.  Since p_s B^{-1/2} Psi B^{-1/2} = I -
    sigma1^2 B^{-1}, this equals sigma1^2 / (1 - tr[Vsr_N^H B^{-1/2} Psi
    B^{-1/2} Vsr_N diag(p_i^2)]) when sum p_i^2 = p_s, without the
    cancellation in 1 - t that grows as 1/(1 - t) at high first-hop SNR.
    It satisfies the fixed point eta_p = tr(P P^H Psi) + sigma1^2 and
    puts the assembled precoder exactly on its budget.  One value per
    row for stacked allocations; a zero load gives inf (a failed contract).
    """
    p = np.asarray(p_alloc, dtype=float)
    n = p.shape[-1]
    cols = spectral.whiten_sr @ spectral.first_hop.right[..., :n]
    load = np.sum(p**2 * np.sum(np.abs(cols) ** 2, axis=-2), axis=-1)
    with np.errstate(divide="ignore"):
        return _scalar(p_s / load)


# Verdicts in check order, (error class or contract cause, message); 0 passes.
_VERDICTS = (
    None,
    (NumericalError, "the equalizer, forward matrix or weighted MSE is not finite"),
    (InfeasibleAllocationError, "all channel gains are zero"),
    (ConvergenceError, f"alternating water-filling did not converge in {MAX_ITERS} iterations"),
    ("eta_p", "eta_p {eta_p:.12e} is not positive"),
    ("source_power", "source power {power_p:.12e} misses the budget {p_s:.12e}"),
    ("relay_power", "relay power {power_f:.12e} misses the budget {p_r:.12e}"),
    ("eta_p", "eta_p fixed-point residual too large: {eta_p:.12e} vs {fixed_point:.12e}"),
    ("wmse_agreement", "residual weighted MSE {achieved:.12e} disagrees with the direct "
                       "evaluation {direct:.12e}"),
)


def _failures(cfg, alloc, zero_hop, finite, power_p, power_f, fixed_point, achieved, direct):
    """Each draw's :class:`DesignError`, or None: its first failed check
    of :data:`_VERDICTS` in one pass over the stack's (B,) arrays, with
    the message formatted from the draw's values.  An unconverged
    allocation is infeasible on a ``zero_hop`` (a hop whose gains are all
    zero).  Each test reads "within the bound", so a NaN fails it.
    Errors are built for failing draws only.
    """
    eta = np.asarray(alloc.eta_p, dtype=float)
    # Both evaluations subtract nearly equal quantities from tr(W); at
    # extreme SNR the difference is dominated by that cancellation, hence
    # the absolute floor scaled by tr(W).
    floor = 1e-12 * float(np.real(np.trace(cfg.weight)))
    with np.errstate(invalid="ignore"):
        passed = np.stack([
            np.ones_like(finite),
            finite,
            alloc.converged | ~zero_hop,
            alloc.converged,
            (eta > 0.0) & (eta < np.inf),
            np.abs(power_p - cfg.p_s) <= 1e-9 * cfg.p_s,
            np.abs(power_f - cfg.p_r) <= 1e-9 * cfg.p_r,
            np.abs(eta - fixed_point) <= 1e-9 * np.abs(eta),
            np.abs(achieved - direct)
            <= np.maximum(1e-9 * np.maximum(np.abs(achieved), np.abs(direct)), floor),
        ])
    verdicts = passed.argmin(axis=0)
    failures = [None] * len(verdicts)
    for d in np.flatnonzero(verdicts).tolist():
        kind, message = _VERDICTS[verdicts[d]]
        message = message.format(p_s=cfg.p_s, p_r=cfg.p_r, eta_p=eta[d], power_p=power_p[d],
                                 power_f=power_f[d], fixed_point=fixed_point[d],
                                 achieved=achieved[d], direct=direct[d])
        if kind is ConvergenceError:
            trace = alloc.objective_trace[d]
            failures[d] = ConvergenceError(message, trace[~np.isnan(trace)])
        else:
            failures[d] = ContractError(kind, message) if isinstance(kind, str) else kind(message)
    return tuple(failures)


def _verified_batch(cfg, know, spectral, alloc, p_mat, tilde_f, maps) -> DesignBatch:
    """Finish a stack of designs from P and F_tilde and check every draw.

    Builds F, the LMMSE equalizer G, the residual and direct weighted MSE
    and both powers, all from the one ``mse._link`` of (P, F) and the
    precoder's tilde maps; the eta_p fixed point c_sr tr(P P^H Psi) +
    sigma1^2 is K1's level, which the maps already hold.  An ``alloc``
    whose eta_p is None belongs to a fixed precoder: its eta_p is the
    fixed point and its objective trace the achieved weighted MSE.  Every
    :class:`DesignError` a design stack reports comes from its one
    :func:`_failures` pass.
    """
    f_mat = maps.from_tilde(tilde_f)
    link = _link(cfg, know, p_mat, f_mat, maps)
    tx = Transceiver(precoder=p_mat, forward=f_mat, equalizer=link.equalizer())
    achieved = link.residual_weighted_mse(tilde_f, maps)
    direct = link.weighted_mse(tx.equalizer)
    fixed_point = link.k1[:, 0, 0]
    if alloc.eta_p is None:
        alloc = replace(alloc, eta_p=fixed_point, objective_trace=achieved[:, None])
    finite = np.isfinite(achieved) & np.isfinite(direct)
    finite &= np.isfinite(tx.equalizer).all(axis=(-2, -1)) & np.isfinite(f_mat).all(axis=(-2, -1))
    # The gains are ordered, so a hop's first is its largest.
    zero_hop = np.minimum(spectral.gains_sr[:, 0], spectral.gains_rd[:, 0]) <= 0.0
    failures = _failures(cfg, alloc, zero_hop, finite, np.real(_trace(link.gram_p)),
                         np.real(_trace(link.frf)), fixed_point, achieved, direct)
    solution = TransceiverSolution(
        tx=tx, tilde_forward=tilde_f, alloc=alloc, spectral=spectral, achieved_wmse=achieved
    )
    return DesignBatch(solution=solution, direct_wmse=direct, failures=failures)


def assemble(
    cfg: SystemConfig,
    know: ChannelKnowledge,
    spectral: SpectralData,
    alloc: AllocationState,
) -> DesignBatch:
    """Build (P, F, G) for a stack of draws from converged allocations and
    verify the contracts.

    ``know``, ``spectral`` and ``alloc`` carry the leading draw axis (a
    single draw is a stack of one).  Checks per draw: the design is
    finite, the allocation converged, both power constraints hold with
    equality (1e-9 relative), eta_p satisfies its fixed point, and the
    residual weighted MSE agrees with the direct evaluation at the LMMSE
    equalizer.  Each failed draw gets its first failed check as a
    :class:`DesignError` (see :func:`_failures`).
    """
    n = cfg.n_streams
    eta = np.asarray(alloc.eta_p, dtype=float)
    safe_eta = np.where(np.isfinite(eta) & (eta > 0), eta, 1.0)
    v_sr_n = spectral.first_hop.right[..., :n]
    u_sr_n = spectral.first_hop.left[..., :n]
    v_rd_n = spectral.second_hop.right[..., :n]
    tilde_p = (v_sr_n * alloc.p_alloc[:, None, :]) @ _ct(cfg.weight_eig.vectors)
    p_mat = (np.sqrt(safe_eta)[:, None, None] * spectral.whiten_sr) @ tilde_p
    tilde_f = (v_rd_n * alloc.f_alloc[:, None, :]) @ _ct(u_sr_n)
    maps = tilde_maps(cfg, know, p_mat)
    return _verified_batch(cfg, know, spectral, alloc, p_mat, tilde_f, maps)


def _design_relay_only(cfg, know, spectral) -> DesignBatch:
    """Robust F and G for the scaled-identity precoder that spends the
    source budget evenly over the streams (no source optimization).

    The per-stream coefficients come from the SVD of
    A = Pi_P^{-1/2} K1^{-1/2} Hsr P W^{1/2}, the maps' whitened signal
    times W^{1/2}; a single water-filling pass against the whitened
    second-hop gains yields the relay diagonal.
    """
    n = cfg.n_streams
    draws = know.est_sr.shape[0]
    p_one = np.sqrt(cfg.p_s / n) * np.eye(cfg.n_s, n, dtype=np.complex128)
    p_mat = np.broadcast_to(p_one, (draws, *p_one.shape))
    maps = tilde_maps(cfg, know, p_mat)
    a_svd = svd_ordered(maps.signal @ cfg.weight_half)
    terms = _gain_terms(spectral.gains_rd)
    levels, mu_f = _waterfill(a_svd.values[:, :n] ** 2, terms, cfg.p_r)
    f_alloc = np.sqrt(levels)
    tilde_f = (spectral.second_hop.right[..., :n] * f_alloc[:, None, :]) @ _ct(
        a_svd.left[..., :n]
    )
    alloc = AllocationState(
        p_alloc=np.linalg.norm(p_mat, axis=-2),
        f_alloc=f_alloc,
        mu_p=np.full(draws, np.nan),
        mu_f=mu_f,
        eta_p=None,
        objective_trace=None,
        n_iters=np.ones(draws, dtype=int),
        converged=~terms[3],  # an all-zero second hop has no relay fill
    )
    return _verified_batch(cfg, know, spectral, alloc, p_mat, tilde_f, maps)


def _best_start(cfg, spectral, opts) -> AllocationState:
    """Alternating water-filling from the uniform init and ``opts.restarts``
    random ones on every draw of the stack, the best init per draw."""
    n = cfg.n_streams
    draws = spectral.gains_sr.shape[0]
    inits = [np.full(n, np.sqrt(cfg.p_s / n))]
    rng = np.random.default_rng(0)
    for _ in range(opts.restarts):
        frac = rng.random(n) + 1e-3
        start = np.sqrt(cfg.p_s * frac / frac.sum())
        inits.append(start * np.sqrt(cfg.p_s / float(np.sum(start**2))))
    # Rows are init-major: row j * draws + d is init j on draw d.
    n_inits = len(inits)
    rows, _ = alternate(
        np.tile(spectral.gains_sr, (n_inits, 1)),
        np.tile(spectral.gains_rd, (n_inits, 1)),
        cfg.weight_eig.values,
        cfg.p_s,
        cfg.p_r,
        np.repeat(np.stack(inits), draws, axis=0),
    )
    # A failed row ranks behind every converged one, and among failed rows
    # the last init's ranks first: a draw on which every init failed (as
    # an infeasible draw does) keeps the last init, whose trace its
    # ConvergenceError carries.
    ok = rows.converged
    final = np.full(ok.shape, np.inf)
    final[-draws:] = np.finfo(float).max
    final[ok] = rows.objective_trace[ok, 2 * rows.n_iters[ok] - 1]
    pick = np.argmin(final.reshape(n_inits, draws), axis=0) * draws + np.arange(draws)
    return _rows(rows, pick)


def _design_joint(cfg, know, spectral, opts) -> DesignBatch:
    """Alternating water-filling for every draw of the stack (the best of
    its inits with restarts), eta_p, and the assembled, verified designs."""
    n = cfg.n_streams
    if opts.restarts:
        alloc = _best_start(cfg, spectral, opts)
    else:
        alloc, _ = alternate(
            spectral.gains_sr, spectral.gains_rd, cfg.weight_eig.values, cfg.p_s, cfg.p_r
        )
    failed = ~alloc.converged
    if failed.any():
        # Placeholder allocations keep the stacked numerics well defined.
        alloc = replace(
            alloc,
            p_alloc=np.where(failed[:, None], np.sqrt(cfg.p_s / n), alloc.p_alloc),
            f_alloc=np.where(failed[:, None], np.sqrt(cfg.p_r / n), alloc.f_alloc),
        )
    alloc = replace(alloc, eta_p=solve_eta_p(alloc.p_alloc, spectral, cfg.p_s))
    return assemble(cfg, know, spectral, alloc)


class _StackDesigns:
    """:func:`design_batch` of one stack of knowledge under any options; the
    stack's :func:`spectral_decompose` runs at most once for all of them.

    A sweep designs robust_full and robust_nopre on the same sampled
    knowledge.  The decomposition is made here from ``know``, so it
    always belongs to the knowledge it designs.
    """

    def __init__(self, cfg: SystemConfig, know: ChannelKnowledge):
        self.cfg = cfg
        self.know = know.as_stack()
        self._spectral = None

    def __call__(self, opts: DesignOptions | None = None) -> DesignBatch:
        opts = opts or DesignOptions()
        if self._spectral is None:
            self._spectral = spectral_decompose(self.cfg, self.know)
        if opts.mode == "relay_only":
            return _design_relay_only(self.cfg, self.know, self._spectral)
        return _design_joint(self.cfg, self.know, self._spectral, opts)


def design_batch(
    cfg: SystemConfig, know: ChannelKnowledge, opts: DesignOptions | None = None
) -> DesignBatch:
    """Design every draw of a stack of channel knowledge at once.

    ``know`` holds (B, rows, cols) estimates (a single draw counts as
    B = 1), whose error statistics are shared or given draw by draw
    (:class:`ChannelKnowledge`); each draw is designed under its own.
    Joint mode: weight eigensystem -> whitened-hop SVDs -> alternating
    water-filling (uniform init plus optional random restarts) -> eta_p
    -> assembled (P, F, G).  Relay-only mode keeps the precoder fixed and
    designs F, G robustly.  Draw i of the result equals the design of
    draw i alone, and a failed draw (a singular solve too) is listed in
    ``failures``; no draw's failure raises for the stack.
    """
    return _StackDesigns(cfg, know)(opts)


def design(
    cfg: SystemConfig, know: ChannelKnowledge, opts: DesignOptions | None = None
) -> TransceiverSolution:
    """Full design pipeline for one draw; deterministic given inputs and
    options.  The B = 1 case of :func:`design_batch`; raises the draw's
    :class:`DesignError` if it fails."""
    if know.est_sr.ndim != 2:
        raise ValueError("design takes one draw; design_batch takes stacks")
    return design_batch(cfg, know, opts).draw(0)
