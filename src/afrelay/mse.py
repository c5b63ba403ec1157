"""Exact weighted-MSE evaluation for a dual-hop AF MIMO relay link.

Given estimated channels with Gaussian error statistics, the detection
MSE matrix for data s, precoder P, relay forward matrix F and equalizer
G is available in closed form (expectation over data, both hops' errors
and both noises):

    E = G (Hrd F Rx F^H Hrd^H + K2) G^H + I - L - L^H,
    L = G Hrd F Hsr P,
    Rx = Hsr P P^H Hsr^H + K1,
    K1 = tr(P P^H col_sr) row_sr + sigma1^2 I,
    K2 = tr(F Rx F^H col_rd) row_rd + sigma2^2 I,

with Hsr/Hrd the channel estimates.  This module evaluates these
quantities, the LMMSE equalizer, the residual weighted MSE after the
optimal G has been substituted in, and the whitening change of variables
F -> F_tilde that makes the relay power constraint independent of P.
Every function takes one draw, or (B, ., .) stacks of draws that share
the config and error statistics, and then works draw by draw.  The
private helpers take checked inputs plus the K1/r_x/K2 of (P, F), so a
designer computes those once and shares them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channel import ChannelKnowledge
from .linalg import _as_psd, _ct, _sq_norm, herm_roots, herm_sqrt

__all__ = [
    "SystemConfig",
    "Transceiver",
    "SecondOrderStats",
    "TildeMaps",
    "second_order_stats",
    "mse_matrix",
    "weighted_mse",
    "optimal_equalizer",
    "tilde_maps",
    "residual_weighted_mse",
]

# Backward-error bound for linear solves; LU is ~eps, so this
# only fires on genuinely broken systems.
_SOLVE_BACKWARD_RTOL = 1e-12


@dataclass(frozen=True)
class SystemConfig:
    """Antenna counts, stream count, powers, noise variances, weighting.

    ``weight`` is the N x N Hermitian PSD matrix of the weighted-MSE
    objective tr(W E).
    """

    n_s: int
    m_r: int
    n_r: int
    m_d: int
    n_streams: int
    p_s: float
    p_r: float
    sigma1_sq: float
    sigma2_sq: float
    weight: np.ndarray

    def __post_init__(self):
        dims = (self.n_s, self.m_r, self.n_r, self.m_d)
        if any(d < 1 for d in dims) or self.n_streams < 1:
            raise ValueError("antenna and stream counts must be >= 1")
        if self.n_streams > min(dims):
            raise ValueError(
                f"n_streams={self.n_streams} exceeds min antenna count {min(dims)}"
            )
        for name in ("p_s", "p_r", "sigma1_sq", "sigma2_sq"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite")
        w = np.asarray(self.weight, dtype=np.complex128)
        if w.shape != (self.n_streams, self.n_streams):
            raise ValueError(
                f"weight must be {self.n_streams}x{self.n_streams}, got {w.shape}"
            )
        object.__setattr__(self, "weight", _as_psd(w, "weight"))

    @cached_property
    def weight_half(self) -> np.ndarray:
        """W^{1/2}, computed once per config."""
        return herm_sqrt(self.weight)


@dataclass(frozen=True)
class Transceiver:
    """Precoder (n_s x N), relay forward matrix (n_r x m_r), equalizer (N x m_d)."""

    precoder: np.ndarray
    forward: np.ndarray
    equalizer: np.ndarray


@dataclass(frozen=True)
class SecondOrderStats:
    """Relay receive covariance r_x and effective noise covariances k1, k2."""

    r_x: np.ndarray
    k1: np.ndarray
    k2: np.ndarray


def _herm(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + _ct(a))


def _trace(a: np.ndarray) -> np.ndarray:
    return np.trace(a, axis1=-2, axis2=-1)


def _scalar(x):
    """A Python float for a single draw, the array itself for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def _solve_hermitian(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve c @ x = b for Hermitian PD c (or stacks), with a backward-error check."""
    c = _herm(c)
    x = np.linalg.solve(c, b)
    resid, norm_c, norm_x, norm_b = (np.sqrt(_sq_norm(m)) for m in (c @ x - b, c, x, b))
    bound = _SOLVE_BACKWARD_RTOL * (norm_c * norm_x + norm_b)
    bad = resid > np.maximum(bound, 1e-300)
    if bad.any():
        raise np.linalg.LinAlgError(
            f"hermitian solve residual {float(np.max(resid)):.3e} exceeds "
            "backward-error bound"
        )
    return x


def _check_tx_dims(cfg: SystemConfig, know: ChannelKnowledge, p, f, g=None):
    if know.est_sr.shape[-2:] != (cfg.m_r, cfg.n_s):
        raise ValueError(
            f"est_sr shape {know.est_sr.shape} does not match config "
            f"({cfg.m_r}, {cfg.n_s})"
        )
    if know.est_rd.shape[-2:] != (cfg.m_d, cfg.n_r):
        raise ValueError(
            f"est_rd shape {know.est_rd.shape} does not match config "
            f"({cfg.m_d}, {cfg.n_r})"
        )
    if p.shape[-2:] != (cfg.n_s, cfg.n_streams):
        raise ValueError(f"precoder must be ({cfg.n_s}, {cfg.n_streams}), got {p.shape}")
    if f is not None and f.shape[-2:] != (cfg.n_r, cfg.m_r):
        raise ValueError(f"forward must be ({cfg.n_r}, {cfg.m_r}), got {f.shape}")
    if g is not None and g.shape[-2:] != (cfg.n_streams, cfg.m_d):
        raise ValueError(f"equalizer must be ({cfg.n_streams}, {cfg.m_d}), got {g.shape}")


def _first_hop_noise(cfg: SystemConfig, know: ChannelKnowledge, gram_p) -> np.ndarray:
    """K1 = tr(P P^H col_sr) row_sr + sigma1^2 I for the precoder Gram matrix."""
    load = np.real(_trace(gram_p @ know.stats_sr.col_cov))[..., None, None]
    return load * know.stats_sr.row_cov + cfg.sigma1_sq * np.eye(cfg.m_r)


def _second_order_stats(cfg: SystemConfig, know: ChannelKnowledge, p, f, k1) -> SecondOrderStats:
    """r_x, k1, k2 of (P, F) given the precoder's K1 (checked inputs)."""
    gram_p = p @ _ct(p)
    r_x = _herm(know.est_sr @ gram_p @ _ct(know.est_sr) + k1)
    frf = f @ r_x @ _ct(f)
    k2 = (
        np.real(_trace(frf @ know.stats_rd.col_cov))[..., None, None]
        * know.stats_rd.row_cov
        + cfg.sigma2_sq * np.eye(cfg.m_d)
    )
    return SecondOrderStats(r_x=r_x, k1=_herm(k1), k2=_herm(k2))


def second_order_stats(cfg: SystemConfig, know: ChannelKnowledge, precoder, forward) -> SecondOrderStats:
    """r_x, k1, k2 for a given precoder and relay forward matrix."""
    p = np.asarray(precoder, dtype=np.complex128)
    f = np.asarray(forward, dtype=np.complex128)
    _check_tx_dims(cfg, know, p, f)
    return _second_order_stats(cfg, know, p, f, _first_hop_noise(cfg, know, p @ _ct(p)))


def _received_covariance(know: ChannelKnowledge, f, so: SecondOrderStats):
    """Hrd F and the destination covariance Hrd F Rx F^H Hrd^H + K2."""
    hf = know.est_rd @ f
    return hf, hf @ so.r_x @ _ct(hf) + so.k2


def _mse_matrix(cfg: SystemConfig, know: ChannelKnowledge, p, f, g, so: SecondOrderStats):
    """The MSE matrix of checked (P, F, G) whose (P, F) have the stats ``so``."""
    hf, cov_y = _received_covariance(know, f, so)
    lin = g @ hf @ know.est_sr @ p
    return _herm(g @ cov_y @ _ct(g) + np.eye(cfg.n_streams) - lin - _ct(lin))


def _weighted_mse(cfg: SystemConfig, know: ChannelKnowledge, tx: Transceiver, so: SecondOrderStats):
    """tr(W E) of a checked transceiver whose (P, F) have the stats ``so``."""
    e = _mse_matrix(cfg, know, tx.precoder, tx.forward, tx.equalizer, so)
    return np.real(_trace(cfg.weight @ e))


def mse_matrix(cfg: SystemConfig, know: ChannelKnowledge, tx: Transceiver) -> np.ndarray:
    """N x N detection MSE matrix (expectation over data, errors, noises)."""
    p = np.asarray(tx.precoder, dtype=np.complex128)
    f = np.asarray(tx.forward, dtype=np.complex128)
    g = np.asarray(tx.equalizer, dtype=np.complex128)
    _check_tx_dims(cfg, know, p, f, g)
    return _mse_matrix(cfg, know, p, f, g, second_order_stats(cfg, know, p, f))


def weighted_mse(cfg: SystemConfig, know: ChannelKnowledge, tx: Transceiver):
    """tr(W E) for the MSE matrix E of the given transceiver.

    A float for one draw, an array of B values for a stack.
    """
    return _scalar(np.real(_trace(cfg.weight @ mse_matrix(cfg, know, tx))))


def _optimal_equalizer(know: ChannelKnowledge, p, f, so: SecondOrderStats) -> np.ndarray:
    hf, cov_y = _received_covariance(know, f, so)
    return _ct(_solve_hermitian(cov_y, hf @ know.est_sr @ p))


def optimal_equalizer(cfg: SystemConfig, know: ChannelKnowledge, precoder, forward) -> np.ndarray:
    """LMMSE equalizer (Hrd F Hsr P)^H (Hrd F Rx F^H Hrd^H + K2)^{-1}."""
    p = np.asarray(precoder, dtype=np.complex128)
    f = np.asarray(forward, dtype=np.complex128)
    return _optimal_equalizer(know, p, f, second_order_stats(cfg, know, p, f))


@dataclass(frozen=True)
class TildeMaps:
    """Whitening change of variables F <-> F_tilde for a fixed precoder.

    ``F_tilde = F @ k1^{1/2} @ pi_p^{1/2}`` with
    ``pi_p = k1^{-1/2} Hsr P P^H Hsr^H k1^{-1/2} + I``, which makes
    tr(F Rx F^H) = tr(F_tilde F_tilde^H) exactly.
    """

    pi_p: np.ndarray
    k1: np.ndarray
    _k1_half: np.ndarray = field(repr=False)
    _k1_inv_half: np.ndarray = field(repr=False)
    _pi_half: np.ndarray = field(repr=False)
    _pi_inv_half: np.ndarray = field(repr=False)

    def to_tilde(self, forward) -> np.ndarray:
        f = np.asarray(forward, dtype=np.complex128)
        return f @ self._k1_half @ self._pi_half

    def from_tilde(self, tilde_forward) -> np.ndarray:
        ft = np.asarray(tilde_forward, dtype=np.complex128)
        return ft @ self._pi_inv_half @ self._k1_inv_half

    @property
    def whitened_source(self) -> np.ndarray:
        """pi_p^{-1/2} k1^{-1/2}, the factor in front of Hsr P in the MSE."""
        return self._pi_inv_half @ self._k1_inv_half


def tilde_maps(cfg: SystemConfig, know: ChannelKnowledge, precoder) -> TildeMaps:
    """Build the F <-> F_tilde maps for the given precoder (or stack)."""
    p = np.asarray(precoder, dtype=np.complex128)
    _check_tx_dims(cfg, know, p, None)
    k1 = _herm(_first_hop_noise(cfg, know, p @ _ct(p)))
    k1_half, k1_inv_half = herm_roots(k1)
    x = k1_inv_half @ know.est_sr @ p
    # pi_p = I + x x^H is always PD with min eigenvalue 1, so its roots are
    # taken on the PSD part directly; herm_inv_sqrt's conditioning guard
    # would reject extreme but perfectly valid SNRs here.
    w, q = np.linalg.eigh(_herm(x @ _ct(x)))
    w = np.clip(w, 0.0, None)[..., None, :]
    pi_p = _herm((q * (1.0 + w)) @ _ct(q))
    pi_half = _herm((q * np.sqrt(1.0 + w)) @ _ct(q))
    pi_inv_half = _herm((q / np.sqrt(1.0 + w)) @ _ct(q))
    return TildeMaps(
        pi_p=pi_p,
        k1=k1,
        _k1_half=k1_half,
        _k1_inv_half=k1_inv_half,
        _pi_half=pi_half,
        _pi_inv_half=pi_inv_half,
    )


def _residual_weighted_mse(cfg: SystemConfig, know: ChannelKnowledge, p, ft, maps: TildeMaps, so: SecondOrderStats):
    """The residual weighted MSE of checked inputs, given the precoder's
    maps and the stats ``so`` of (P, F)."""
    b = know.est_rd @ ft @ maps.whitened_source @ know.est_sr @ p @ cfg.weight_half
    hft = know.est_rd @ ft
    cov = hft @ _ct(hft) + so.k2
    quad = np.real(_trace(_ct(b) @ _solve_hermitian(cov, b)))
    return float(np.real(np.trace(cfg.weight))) - quad


def residual_weighted_mse(cfg: SystemConfig, know: ChannelKnowledge, precoder, tilde_forward):
    """Weighted MSE with the optimal equalizer already substituted in.

    tr(W) - tr[B^H (Hrd Ft Ft^H Hrd^H + K2)^{-1} B] with
    B = Hrd Ft pi_p^{-1/2} k1^{-1/2} Hsr P W^{1/2}.  Matches
    ``weighted_mse`` at the LMMSE equalizer to solver precision.
    """
    p = np.asarray(precoder, dtype=np.complex128)
    ft = np.asarray(tilde_forward, dtype=np.complex128)
    if ft.shape[-2:] != (cfg.n_r, cfg.m_r):
        raise ValueError(
            f"tilde_forward must be ({cfg.n_r}, {cfg.m_r}), got {ft.shape}"
        )
    maps = tilde_maps(cfg, know, p)
    so = _second_order_stats(cfg, know, p, maps.from_tilde(ft), maps.k1)
    return _scalar(_residual_weighted_mse(cfg, know, p, ft, maps, so))
