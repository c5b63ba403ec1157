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
lands on the budget to rounding.

The pipeline works on a (B, ., .) stack of channel draws that share one
config (:func:`design_batch`): the whitening once per set of error
statistics in the stack, one stacked SVD per hop, the alternation on
every draw at once with a per-draw convergence mask, and the contract
checks per draw, so a failing draw is reported without disturbing the
others.  The draws may come from several sweep points: each reads its
own statistics.  :func:`design` is the B = 1 case.  Every step has one
public entry, which takes stacks: :func:`spectral_decompose`,
:func:`waterfill`, :func:`alternate`, :func:`solve_eta_p`, :func:`assemble`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelKnowledge
from .linalg import (
    LinalgError,
    OrderedHermitianEig,
    OrderedSVD,
    _check_psd,
    _ct,
    eig_hermitian_ordered,
    herm_inv_sqrt,
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
# Relay-side KKT residual against the final source allocation that ends
# the alternation.
CROSS_KKT_TOL = 1e-9
# Relative change of the objective over one full iteration below which
# the alternation checks CROSS_KKT_TOL, and its iteration budget.
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
    """A linear-algebra kernel rejected an intermediate of the design; the
    original error is chained as ``__cause__``."""

    cause = "numerical"


def _own(stack: np.ndarray, i: int) -> np.ndarray:
    """Entry i of a stack as an array of its own, so a kept single-draw
    result does not pin the whole stack."""
    return stack[i].copy()


@dataclass(frozen=True)
class SpectralData:
    """Whitened-hop SVDs and per-stream gains used by the designer.

    ``first_hop`` decomposes est_sr @ whiten_sr, ``second_hop``
    whiten_rd @ est_rd where whiten_sr = (p_s Psi + sigma1^2 I)^{-1/2}
    and whiten_rd = K2^{-1/2} with the constant K2 = p_r Sigma_rd +
    sigma2^2 I.  Gains are the leading n_streams singular values.  For a
    stack of draws the SVDs and gains carry its leading axis; the
    whitening matrices, ``k2_const`` and ``psi_eff`` are shared (2-D)
    where the draws share their error statistics and carry the leading
    axis where they do not.
    """

    first_hop: OrderedSVD
    second_hop: OrderedSVD
    gains_sr: np.ndarray
    gains_rd: np.ndarray
    whiten_sr: np.ndarray
    whiten_rd: np.ndarray
    k2_const: np.ndarray
    psi_eff: np.ndarray

    def draw(self, i: int) -> "SpectralData":
        def svd(s):
            return OrderedSVD(left=_own(s.left, i), values=_own(s.values, i), right=_own(s.right, i))

        def stats(name):
            m = getattr(self, name)
            return _own(m, i) if m.ndim == 3 else m

        return replace(
            self,
            first_hop=svd(self.first_hop),
            second_hop=svd(self.second_hop),
            gains_sr=_own(self.gains_sr, i),
            gains_rd=_own(self.gains_rd, i),
            **{name: stats(name) for name in ("whiten_sr", "whiten_rd", "k2_const", "psi_eff")},
        )


@dataclass(frozen=True)
class AllocationState:
    """Converged per-stream amplitudes and solver diagnostics.

    For a stack every field carries the leading draw axis, and
    ``objective_trace`` is padded with NaN past each draw's own trace.
    """

    p_alloc: np.ndarray
    f_alloc: np.ndarray
    mu_p: float
    mu_f: float
    eta_p: float
    objective_trace: np.ndarray
    n_iters: int
    converged: bool

    def draw(self, i: int) -> "AllocationState":
        trace = self.objective_trace[i]
        return AllocationState(
            p_alloc=_own(self.p_alloc, i),
            f_alloc=_own(self.f_alloc, i),
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
        """Draw i as a single-draw solution; raises its failure, if any."""
        if self.failures[i] is not None:
            raise self.failures[i]
        sol = self.solution
        return TransceiverSolution(
            tx=Transceiver(
                precoder=_own(sol.tx.precoder, i),
                forward=_own(sol.tx.forward, i),
                equalizer=_own(sol.tx.equalizer, i),
            ),
            tilde_forward=_own(sol.tilde_forward, i),
            alloc=sol.alloc.draw(i),
            spectral=sol.spectral.draw(i),
            achieved_wmse=float(sol.achieved_wmse[i]),
        )


@dataclass(frozen=True)
class DesignOptions:
    """Knobs for :func:`design` and :func:`design_batch`.

    ``mode`` is "joint" (full pipeline) or "relay_only" (the precoder is
    the scaled identity that spreads the source budget evenly over the
    streams; only F and G are designed).  ``restarts`` adds that many
    random initializations on top of the uniform one; the best final
    objective wins, ties going to the earlier candidate; ``restart_seed``
    seeds their draws.  All three are checked when the options are built.
    """

    mode: str = "joint"
    restarts: int = 0
    restart_seed: int = 0

    def __post_init__(self):
        if self.mode not in ("joint", "relay_only"):
            raise ValueError(f"unknown design mode {self.mode!r}")
        for name in ("restarts", "restart_seed"):
            r = getattr(self, name)
            if isinstance(r, bool) or not isinstance(r, (int, np.integer)) or r < 0:
                raise ValueError(f"{name} must be an int >= 0, got {r!r}")


def weight_eigensystem(w) -> OrderedHermitianEig:
    """Eigendecomposition of the PSD weighting matrix, values nonincreasing."""
    eig = eig_hermitian_ordered(w)
    _check_psd(eig.values[..., ::-1], "weight")
    return OrderedHermitianEig(
        vectors=eig.vectors, values=np.clip(eig.values, 0.0, None)
    )


def _whitening(cfg: SystemConfig, know: ChannelKnowledge):
    """psi_eff, whiten_sr, k2_const and whiten_rd of the knowledge's
    error statistics (see :class:`SpectralData`)."""
    # Each hop's identity-side scale folds into its other factor.
    psi_eff = know.c_sr * know.stats_sr.col_cov
    sigma_rd_eff = know.c_rd * know.stats_rd.row_cov
    b_sr = cfg.p_s * psi_eff + cfg.sigma1_sq * np.eye(cfg.n_s)
    k2_const = cfg.p_r * sigma_rd_eff + cfg.sigma2_sq * np.eye(cfg.m_d)
    return psi_eff, herm_inv_sqrt(b_sr), k2_const, herm_inv_sqrt(k2_const)


def spectral_decompose(cfg: SystemConfig, know: ChannelKnowledge) -> SpectralData:
    """Ordered SVDs of both whitened hop estimates plus truncated gains;
    the whitening is formed once per set of error statistics."""
    _checked(cfg, know)
    psi_eff, whiten_sr, k2_const, whiten_rd = know.per_statistics(
        lambda stats: _whitening(cfg, stats)
    )
    n = cfg.n_streams
    first = svd_ordered(know.est_sr @ whiten_sr)
    second = svd_ordered(whiten_rd @ know.est_rd)
    return SpectralData(
        first_hop=first,
        second_hop=second,
        gains_sr=first.values[..., :n].copy(),
        gains_rd=second.values[..., :n].copy(),
        whiten_sr=whiten_sr,
        whiten_rd=whiten_rd,
        k2_const=k2_const,
        psi_eff=psi_eff,
    )


def _gain_terms(gains):
    """The coefficient-independent parts of water-filling against (R, n)
    gains: g^2 on usable streams (0 elsewhere), 1/g^2 with unusable
    gains taken as 1, the usable streams and a per-row flag for rows
    whose gains are all zero."""
    g = np.asarray(gains, dtype=float)
    gmax = g.max(axis=-1, keepdims=True)
    usable = g > TINY_GAIN_RTOL * gmax
    g2 = np.where(usable, g, 1.0) ** 2
    return g2 * usable, 1.0 / g2, usable, gmax[..., 0] <= 0.0


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
    order = (-level).argsort(axis=-1)
    root_k = s_c[rows, order].cumsum(axis=-1) / (
        budget + (inv_g2 * (level > 0.0))[rows, order].cumsum(axis=-1)
    )
    k = (root_k * root_k < level[rows, order]).sum(axis=-1)
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
    :class:`InfeasibleAllocationError` if a row's gains are all zero."""
    c, g = _checked_rows({"budget": budget}, coeffs=coeffs, gains=gains)
    terms = _gain_terms(g)
    if terms[3].any():
        raise InfeasibleAllocationError("all channel gains are zero")
    return _waterfill(c, terms, budget)


def _half_coeffs(amp, gains, weights):
    """w_i a_i / (1 + a_i) with a_i = (amp_i gains_i)^2: the coefficients
    one half step sees from the other hop's fixed allocation."""
    a = (np.asarray(amp, dtype=float) * np.asarray(gains, dtype=float)) ** 2
    return np.asarray(weights, dtype=float) * a / (1.0 + a)


def waterfill_kkt_residual(levels_sq, mu, coeffs, gains) -> float | np.ndarray:
    """Max relative KKT violation of a water-filling solution.

    Active streams must satisfy (1 + x g^2)^2 mu = c g^2; inactive ones
    need mu >= c g^2 (the clamp condition).  Violations are relative to
    the mu each condition names, floored at the smallest normal float (a
    subnormal mu has no relative precision).  Degenerate flat problems
    (mu = inf) vacuously satisfy the conditions.  One value per row for
    (..., n) arrays.
    """
    x = np.asarray(levels_sq, dtype=float)
    g2 = np.asarray(gains, dtype=float) ** 2
    cg = np.asarray(coeffs, dtype=float) * g2
    m = np.asarray(mu, dtype=float)[..., None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lift = (1.0 + x * g2) ** 2
        gap = np.where(x > 0.0, np.abs(lift * m - cg), cg - m)
        res = gap / np.maximum(cg, lift * np.finfo(float).tiny)
    res = np.where((cg > 0.0) & (res > 0.0), res, 0.0).max(axis=-1, initial=0.0)
    return _scalar(np.where(np.isfinite(m[..., 0]), res, 0.0))


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
    """Alternating water-filling on every row of (R, n) problems at once.

    Each half step solves its subproblem exactly, so a row's objective
    trace is nonincreasing (modulo ~1e-16 float noise).  From ``p_init``
    (uniform source amplitudes by default) each row follows exactly the
    iteration of its problem alone and stops on its own: once its
    full-iteration relative change is below ``tol``, as soon as its
    relay-side KKT residual against the final source allocation is at
    most CROSS_KKT_TOL (the last relay update lags one half step).

    Gains, weights and ``p_init`` broadcast to (R, n).  One check raises a
    ValueError naming the argument unless the budgets are finite and
    positive, every entry finite and nonnegative and the gains and
    weights nonincreasing along each row.  Returns an
    :class:`AllocationState` of (R, ...) arrays (``converged`` False for
    rows not stopped within ``max_iters``, ``eta_p`` NaN) and the per-row
    infeasible (all-zero-gain) flag; no row's outcome raises.
    """
    gsr, grd, w, p = _checked_rows(
        {"p_s": p_s, "p_r": p_r}, 3, gains_sr=gains_sr, gains_rd=gains_rd, weights=weights,
        p_init=0.0 if p_init is None else p_init,
    )
    if p_init is None:
        p = np.full_like(p, np.sqrt(p_s / p.shape[-1]))
    rows = p.shape[0]
    terms_sr, terms_rd = _gain_terms(gsr), _gain_terms(grd)
    infeasible = terms_sr[3] | terms_rd[3]
    pending = ~infeasible
    out_p, out_f = p.copy(), np.zeros_like(p)
    out_mu_p, out_mu_f = np.full(rows, np.nan), np.full(rows, np.nan)
    n_iters = np.zeros(rows, dtype=int)
    done = np.zeros(rows, dtype=bool)
    settled = np.zeros(rows, dtype=bool)
    prev = np.full(rows, np.nan)
    trace = []
    coeff_f = _half_coeffs(p, gsr, w)
    for it in range(1, max_iters + 1 if pending.any() else 1):
        x_f, mu_f = _waterfill(coeff_f, terms_rd, p_r)
        f = np.sqrt(x_f)
        trace.append(scalar_objective(p, f, gsr, grd, w))
        x_p, mu_p = _waterfill(_half_coeffs(f, grd, w), terms_sr, p_s)
        p = np.sqrt(x_p)
        cur = scalar_objective(p, f, gsr, grd, w)
        trace.append(cur)
        coeff_f = _half_coeffs(p, gsr, w)
        settled |= np.abs(prev - cur) <= tol * np.maximum(np.abs(cur), 1e-300)
        check = settled & pending
        if check.any():
            fin = check & (waterfill_kkt_residual(f**2, mu_f, coeff_f, grd) <= CROSS_KKT_TOL)
            out_p[fin], out_f[fin] = p[fin], f[fin]
            out_mu_p[fin], out_mu_f[fin] = mu_p[fin], mu_f[fin]
            n_iters[fin] = it
            done |= fin
            pending &= ~fin
            if not pending.any():
                break
        prev = cur
    trace = np.stack(trace, axis=-1) if trace else np.empty((rows, 0))
    trace[done[:, None] & (np.arange(trace.shape[-1]) >= 2 * n_iters[:, None])] = np.nan
    state = AllocationState(
        p_alloc=out_p,
        f_alloc=out_f,
        mu_p=out_mu_p,
        mu_f=out_mu_f,
        eta_p=np.full(rows, np.nan),
        objective_trace=trace,
        n_iters=n_iters,
        converged=done,
    )
    return state, infeasible


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


def _contract_failure(cfg, power_p, power_f, eta_p, fixed_point, achieved, direct):
    """The first design contract a draw misses, or None.

    In order: eta_p is positive, both powers sit on their budgets (1e-9
    relative), eta_p satisfies its fixed point, and the residual weighted
    MSE agrees with the direct evaluation at the LMMSE equalizer.
    """
    if not (np.isfinite(eta_p) and eta_p > 0):
        return ContractError("eta_p", f"eta_p {eta_p:.12e} is not positive")
    if abs(power_p - cfg.p_s) > 1e-9 * cfg.p_s:
        return ContractError(
            "source_power",
            f"source power {power_p:.12e} misses the budget {cfg.p_s:.12e}",
        )
    if abs(power_f - cfg.p_r) > 1e-9 * cfg.p_r:
        return ContractError(
            "relay_power",
            f"relay power {power_f:.12e} misses the budget {cfg.p_r:.12e}",
        )
    if abs(eta_p - fixed_point) > 1e-9 * abs(eta_p):
        return ContractError(
            "eta_p",
            f"eta_p fixed-point residual too large: {eta_p:.12e} vs {fixed_point:.12e}",
        )
    # Both evaluations subtract nearly equal quantities from tr(W); at
    # extreme SNR the difference is dominated by that cancellation, hence
    # the absolute floor scaled by tr(W).
    floor = 1e-12 * float(np.real(np.trace(cfg.weight)))
    if abs(achieved - direct) > max(1e-9 * max(abs(achieved), abs(direct)), floor):
        return ContractError(
            "wmse_agreement",
            f"residual weighted MSE {achieved:.12e} disagrees with the direct "
            f"evaluation {direct:.12e}",
        )
    return None


def _verified_batch(cfg, know, spectral, alloc, p_mat, tilde_f, maps, failures) -> DesignBatch:
    """Finish a stack of designs from P and F_tilde and check every draw.

    Builds F, the LMMSE equalizer G, the residual and direct weighted MSE
    and both powers, all from the one ``mse._link`` of (P, F) and the
    precoder's tilde maps; the eta_p fixed point tr(P P^H psi_eff) +
    sigma1^2 is K1's level, which the maps already hold.  A draw keeps
    its entry of ``failures`` (an allocation failure) or gets its first
    missed contract.  An ``alloc`` whose eta_p is None belongs to a fixed
    precoder: its eta_p is the fixed point and its objective trace the
    achieved weighted MSE.
    """
    f_mat = maps.from_tilde(tilde_f)
    link = _link(cfg, know, p_mat, f_mat, maps)
    tx = Transceiver(precoder=p_mat, forward=f_mat, equalizer=link.equalizer())
    achieved = link.residual_weighted_mse(tilde_f, maps)
    direct = link.weighted_mse(tx.equalizer)
    power_p = np.real(_trace(link.gram_p))
    power_f = np.real(_trace(link.frf))
    fixed_point = link.k1[:, 0, 0]
    if alloc.eta_p is None:
        alloc = replace(alloc, eta_p=fixed_point, objective_trace=achieved[:, None])
    checks = zip(
        power_p.tolist(), power_f.tolist(), np.asarray(alloc.eta_p, dtype=float).tolist(),
        fixed_point.tolist(), achieved.tolist(), direct.tolist(),
    )
    failures = tuple(
        fail if fail is not None else _contract_failure(cfg, *vals)
        for fail, vals in zip(failures, checks)
    )
    solution = TransceiverSolution(
        tx=tx, tilde_forward=tilde_f, alloc=alloc, spectral=spectral, achieved_wmse=achieved
    )
    return DesignBatch(solution=solution, direct_wmse=direct, failures=failures)


def assemble(
    cfg: SystemConfig,
    know: ChannelKnowledge,
    spectral: SpectralData,
    alloc: AllocationState,
    failures=None,
) -> DesignBatch:
    """Build (P, F, G) for a stack of draws from converged allocations and
    verify the contracts.

    ``know``, ``spectral`` and ``alloc`` carry the leading draw axis (a
    single draw is a stack of one).  Checks per draw: both power
    constraints hold with equality (1e-9 relative), eta_p satisfies its
    fixed point, and the residual weighted MSE agrees with the direct
    evaluation at the LMMSE equalizer.  A draw keeps its entry of
    ``failures`` (an allocation failure; none by default) or is listed
    with its first missed contract as a :class:`ContractError`.
    """
    n = cfg.n_streams
    if failures is None:
        failures = (None,) * know.est_sr.shape[0]
    eta = np.asarray(alloc.eta_p, dtype=float)
    safe_eta = np.where(np.isfinite(eta) & (eta > 0), eta, 1.0)
    v_sr_n = spectral.first_hop.right[..., :n]
    u_sr_n = spectral.first_hop.left[..., :n]
    v_rd_n = spectral.second_hop.right[..., :n]
    tilde_p = (v_sr_n * alloc.p_alloc[:, None, :]) @ _ct(cfg.weight_eig.vectors)
    p_mat = (np.sqrt(safe_eta)[:, None, None] * spectral.whiten_sr) @ tilde_p
    tilde_f = (v_rd_n * alloc.f_alloc[:, None, :]) @ _ct(u_sr_n)
    maps = tilde_maps(cfg, know, p_mat)
    return _verified_batch(cfg, know, spectral, alloc, p_mat, tilde_f, maps, failures)


def _design_relay_only(cfg, know, spectral) -> DesignBatch:
    """Robust F and G for the scaled-identity precoder that spends the
    source budget evenly over the streams (no source optimization).

    The per-stream coefficients come from the SVD of
    A = Pi_P^{-1/2} K1^{-1/2} Hsr P W^{1/2}; a single water-filling pass
    against the whitened second-hop gains yields the relay diagonal.
    """
    n = cfg.n_streams
    draws = know.est_sr.shape[0]
    p_one = np.sqrt(cfg.p_s / n) * np.eye(cfg.n_s, n, dtype=np.complex128)
    p_mat = np.broadcast_to(p_one, (draws, *p_one.shape))
    maps = tilde_maps(cfg, know, p_mat)
    a_svd = svd_ordered(maps.whitened_source @ know.est_sr @ p_mat @ cfg.weight_half)
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
        converged=np.ones(draws, dtype=bool),
    )
    failures = [
        InfeasibleAllocationError("all channel gains are zero") if bad else None
        for bad in terms[3].tolist()
    ]
    return _verified_batch(cfg, know, spectral, alloc, p_mat, tilde_f, maps, failures)


def _design_joint(cfg, know, spectral, opts) -> DesignBatch:
    """Alternating water-filling for every (draw, init) pair of the stack,
    the best init per draw, eta_p, and the assembled, verified designs."""
    n = cfg.n_streams
    draws = know.est_sr.shape[0]
    inits = [np.full(n, np.sqrt(cfg.p_s / n))]
    if opts.restarts > 0:
        rng = np.random.default_rng(opts.restart_seed)
        for _ in range(opts.restarts):
            frac = rng.random(n) + 1e-3
            start = np.sqrt(cfg.p_s * frac / frac.sum())
            inits.append(start * np.sqrt(cfg.p_s / float(np.sum(start**2))))
    # Rows are init-major: row j * draws + d is init j on draw d.
    n_inits = len(inits)
    rows, infeasible = alternate(
        np.tile(spectral.gains_sr, (n_inits, 1)),
        np.tile(spectral.gains_rd, (n_inits, 1)),
        cfg.weight_eig.values,
        cfg.p_s,
        cfg.p_r,
        np.repeat(np.stack(inits), draws, axis=0),
    )
    ok = rows.converged
    final = np.full(ok.shape, np.inf)
    final[ok] = rows.objective_trace[ok, 2 * rows.n_iters[ok] - 1]
    pick = np.argmin(final.reshape(n_inits, draws), axis=0) * draws + np.arange(draws)
    alloc = AllocationState(**{name: value[pick] for name, value in vars(rows).items()})
    # An infeasible draw never converges; a draw on which every init failed
    # reports the last one, as the loop over inits did.
    failed = ~alloc.converged
    failures = [None] * draws
    for d in np.flatnonzero(failed).tolist():
        if infeasible[d]:
            failures[d] = InfeasibleAllocationError("all channel gains are zero")
            continue
        trace = rows.objective_trace[(n_inits - 1) * draws + d]
        failures[d] = ConvergenceError(
            f"alternating water-filling did not converge in {MAX_ITERS} iterations",
            trace[~np.isnan(trace)],
        )
    if failed.any():
        # Placeholder allocations keep the stacked numerics well defined.
        alloc = replace(
            alloc,
            p_alloc=np.where(failed[:, None], np.sqrt(cfg.p_s / n), alloc.p_alloc),
            f_alloc=np.where(failed[:, None], np.sqrt(cfg.p_r / n), alloc.f_alloc),
        )
    alloc = replace(alloc, eta_p=solve_eta_p(alloc.p_alloc, spectral, cfg.p_s))
    return assemble(cfg, know, spectral, alloc, failures)


def design_batch(
    cfg: SystemConfig, know: ChannelKnowledge, opts: DesignOptions | None = None
) -> DesignBatch:
    """Design every draw of a stack of channel knowledge at once.

    ``know`` holds (B, rows, cols) estimates (a single draw counts as
    B = 1), whose draws may have different error statistics
    (:meth:`ChannelKnowledge.concat`); each draw is designed under its
    own.  Joint mode: weight eigensystem -> whitened-hop SVDs ->
    alternating water-filling (uniform init plus optional random restarts)
    -> eta_p -> assembled (P, F, G).  Relay-only mode keeps the precoder fixed and designs F, G
    robustly.  Draw i of the result equals the design of draw i alone;
    a draw that fails is listed in ``failures`` and leaves the others
    untouched.  A linear-algebra kernel rejecting an intermediate of any
    draw raises :class:`NumericalError` for the whole stack.
    """
    opts = opts or DesignOptions()
    stack = know.as_stack()
    try:
        spectral = spectral_decompose(cfg, stack)
        if opts.mode == "relay_only":
            return _design_relay_only(cfg, stack, spectral)
        return _design_joint(cfg, stack, spectral, opts)
    except (LinalgError, np.linalg.LinAlgError) as err:
        raise NumericalError(str(err)) from err


def design(
    cfg: SystemConfig, know: ChannelKnowledge, opts: DesignOptions | None = None
) -> TransceiverSolution:
    """Full design pipeline for one draw; deterministic given inputs and
    options.  The B = 1 case of :func:`design_batch`; raises the draw's
    :class:`DesignError` if it fails."""
    if know.est_sr.ndim != 2:
        raise ValueError("design takes one draw; design_batch takes stacks")
    return design_batch(cfg, know, opts).draw(0)
