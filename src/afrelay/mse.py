"""Exact weighted-MSE evaluation for a dual-hop AF MIMO relay link.

Given estimated channels with Gaussian error statistics, the detection
MSE matrix for data s, precoder P, relay forward matrix F and equalizer
G is available in closed form (expectation over data, both hops' errors
and both noises):

    E = G (Hrd F Rx F^H Hrd^H + K2) G^H + I - L - L^H,
    L = G Hrd F Hsr P,
    Rx = Hsr P P^H Hsr^H + K1,
    K1 = (c_sr tr(P P^H col_sr) + sigma1^2) I,
    K2 = c_rd tr(F Rx F^H) row_rd + sigma2^2 I,

with Hsr/Hrd the channel estimates.  Training-based estimation makes the
first hop's row covariance c_sr I and the second hop's column covariance
c_rd I, and every entry requires that: it reads each c from the
knowledge (``ChannelKnowledge.c_sr`` / ``c_rd``), whose statistics test
the side once and reject any other covariance by name.  So K1 is a scaled
identity, carried as its level with scalar roots; that level is also the
eta_p fixed point the designer checks.  This module evaluates these
quantities, the LMMSE equalizer, the residual weighted MSE after the
optimal G has been substituted in, and the whitening change of variables
F -> F_tilde that makes the relay power constraint independent of P; its
pi_p and the whitened first-hop signal come from one SVD per precoder,
and pi_p is kept as an eigensystem and applied factor by factor.
Every function takes one draw, or (B, ., .) stacks of draws that share
the config, and then works draw by draw; a stack's error statistics, and
so c_sr and c_rd, are shared by its draws or given per draw
(:class:`ChannelKnowledge`), so K1's level and K2 are each draw's own.
Each public entry checks its arguments once (``_checked``) and evaluates
through one builder, ``_Link``, which forms P P^H, K1, Rx, F Rx F^H, K2,
Hrd F, Hrd F Hsr P and cov_y each at most once, on first use.
The designer builds one per stack, with P P^H and K1 taken from the
precoder's tilde maps, and reads every quantity it checks from it.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channel import ChannelKnowledge
from .linalg import _as_hermitian, _ct, _fro_norms, _herm, _rebuild

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


@dataclass(frozen=True, eq=False)
class SystemConfig:
    """Antenna counts, stream count, powers, noise variances, weighting.

    Counts are integers, powers and noise variances positive finite
    numbers, never booleans.  ``weight`` is the N x N Hermitian PSD matrix
    of the weighted-MSE objective tr(W E), stored as its Hermitian part and
    validated by its one decomposition, kept as ``weight_eig``
    (``design.weight_eigensystem``), with ``weight_half`` = W^{1/2} rebuilt
    from it.  Equality is identity, as for ``ErrorStats``.
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
        from .design import weight_eigensystem  # design imports this module

        for name in ("n_s", "m_r", "n_r", "m_d", "n_streams"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer count, got {value!r}")
        dims = (self.n_s, self.m_r, self.n_r, self.m_d)
        if any(d < 1 for d in dims) or self.n_streams < 1:
            raise ValueError("antenna and stream counts must be >= 1")
        if self.n_streams > min(dims):
            raise ValueError(
                f"n_streams={self.n_streams} exceeds min antenna count {min(dims)}"
            )
        for name in ("p_s", "p_r", "sigma1_sq", "sigma2_sq"):
            value = getattr(self, name)
            if isinstance(value, bool) or not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if np.shape(self.weight) != (self.n_streams, self.n_streams):
            raise ValueError(
                f"weight must be {self.n_streams}x{self.n_streams}, got {np.shape(self.weight)}"
            )
        h = _as_hermitian(self.weight, "weight")
        eig = weight_eigensystem(h)
        vars(self).update(weight=h, weight_eig=eig,
                          weight_half=_rebuild(eig.vectors, np.sqrt(eig.values)))


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


def _trace(a: np.ndarray) -> np.ndarray:
    return np.trace(a, axis1=-2, axis2=-1)


def _scalar(x):
    """A Python float for a single draw, the array itself for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def _solve_hermitian(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve c @ x = b for Hermitian PD c (or stacks); NaN for a draw whose
    c is singular or whose x misses the backward-error bound.  A stacked
    solve that LAPACK rejects is redone matrix by matrix."""
    c = _herm(c)
    try:
        x = np.linalg.solve(c, b)
    except np.linalg.LinAlgError:
        # b's draws are among c's (c is formed from everything b is).
        b = np.broadcast_to(b, c.shape[:-2] + b.shape[-2:])
        x = np.full_like(b, np.nan)
        for i in np.ndindex(c.shape[:-2]):
            with suppress(np.linalg.LinAlgError):
                x[i] = np.linalg.solve(c[i], b[i])
    resid, norm_c, norm_x, norm_b = _fro_norms(c @ x - b, c, x, b)
    ok = resid <= _SOLVE_BACKWARD_RTOL * (norm_c * norm_x + norm_b)
    return x if ok.all() else np.where(ok[..., None, None], x, np.nan)


def _solved(x: np.ndarray) -> np.ndarray:
    """``x``, or a LinAlgError if the solve behind it rejected a draw (NaN)."""
    if np.isnan(x).any():
        raise np.linalg.LinAlgError("hermitian solve is singular or misses the backward-error bound")
    return x


def _checked(cfg: SystemConfig, know: ChannelKnowledge, **arrays) -> list[np.ndarray]:
    """Check both estimates against ``cfg``; return the named arrays
    (precoder, forward, tilde_forward, equalizer) as complex128, each
    checked against its shape.  A mismatch raises a ValueError naming
    the argument.  The one shape check of this module and the designer."""
    shapes = {
        "est_sr": (cfg.m_r, cfg.n_s),
        "est_rd": (cfg.m_d, cfg.n_r),
        "precoder": (cfg.n_s, cfg.n_streams),
        "forward": (cfg.n_r, cfg.m_r),
        "tilde_forward": (cfg.n_r, cfg.m_r),
        "equalizer": (cfg.n_streams, cfg.m_d),
    }
    named = {"est_sr": know.est_sr, "est_rd": know.est_rd}
    named.update((name, np.asarray(a, dtype=np.complex128)) for name, a in arrays.items())
    for name, a in named.items():
        if a.shape[-2:] != shapes[name]:
            raise ValueError(f"{name} must be {shapes[name]}, got shape {a.shape}")
    return [named[name] for name in arrays]


def _first_hop(cfg: SystemConfig, know: ChannelKnowledge, p):
    """P P^H and K1's level c_sr tr(P P^H col_sr) + sigma1^2, shaped
    (..., 1, 1), of a checked precoder."""
    gram_p = p @ _ct(p)
    load = np.real(_trace(gram_p @ know.stats_sr.col_cov))[..., None, None]
    return gram_p, load * know.c_sr + cfg.sigma1_sq


@dataclass(frozen=True)
class TildeMaps:
    """Whitening change of variables F <-> F_tilde for a fixed precoder.

    ``F_tilde = F @ k1^{1/2} @ pi_p^{1/2}`` with
    ``pi_p = x x^H + I``, ``x = k1^{-1/2} Hsr P``, which makes
    tr(F Rx F^H) = tr(F_tilde F_tilde^H) exactly.  K1 = k1 I, so its
    roots are (..., 1, 1) scalars, applied by broadcasting.  pi_p is kept
    only as its eigensystem (vectors ``_pi_q``, values ``_pi_d``, which
    run from 1 to about 1/sigma1^2), taken from the SVD of x, and each of
    its powers is applied factor by factor, q diag(d^{+-1/2}) q^H, never
    as a dense matrix: a dense root would round its small range-space
    block at the absolute eps of its O(1) null-space block.  The maps
    also keep P P^H, K1's level and the whitened first-hop signal
    pi_p^{-1/2} x (``signal``).
    """

    _gram_p: np.ndarray = field(repr=False)
    _k1_level: np.ndarray = field(repr=False)
    _pi_q: np.ndarray = field(repr=False)
    _pi_d: np.ndarray = field(repr=False)
    signal: np.ndarray = field(repr=False)

    def to_tilde(self, forward) -> np.ndarray:
        """F -> F_tilde = ((F k1^{1/2}) q) diag(d^{1/2}) q^H.

        Kept without a package caller: the test oracle of :meth:`from_tilde`."""
        f = np.asarray(forward, dtype=np.complex128)
        q = self._pi_q
        return ((f * np.sqrt(self._k1_level)) @ q * np.sqrt(self._pi_d)[..., None, :]) @ _ct(q)

    def from_tilde(self, tilde_forward) -> np.ndarray:
        """F_tilde -> F = ((F_tilde q) diag(d^{-1/2})) q^H k1^{-1/2}."""
        ft = np.asarray(tilde_forward, dtype=np.complex128)
        q, k1_inv_half = self._pi_q, 1.0 / np.sqrt(self._k1_level)
        return ((ft @ q) / np.sqrt(self._pi_d)[..., None, :]) @ _ct(q) * k1_inv_half


@dataclass(frozen=True)
class _Link:
    """The second-order quantities of checked (P, F), draw by draw.

    ``gram_p`` is P P^H and ``k1`` K1's (..., 1, 1) level; r_x, F Rx F^H
    (``frf``), K2, Hrd F (``hf``), Hrd F Hsr P (``gain``) and the destination
    covariance Hrd F Rx F^H Hrd^H + K2 (``cov_y``) are each formed once, on
    first use.
    """

    cfg: SystemConfig
    know: ChannelKnowledge
    p: np.ndarray
    f: np.ndarray
    gram_p: np.ndarray
    k1: np.ndarray

    @cached_property
    def r_x(self) -> np.ndarray:
        est = self.know.est_sr
        return _herm(est @ self.gram_p @ _ct(est) + self.k1 * np.eye(self.cfg.m_r))

    @cached_property
    def frf(self) -> np.ndarray:
        return self.f @ self.r_x @ _ct(self.f)

    @cached_property
    def k2(self) -> np.ndarray:
        stats = self.know.stats_rd
        # c_rd tr(F Rx F^H), each entry scaled before the sum as in tr(F Rx F^H c_rd I)
        load = np.real(_trace(self.know.c_rd * self.frf))[..., None, None]
        return _herm(load * stats.row_cov + self.cfg.sigma2_sq * np.eye(self.cfg.m_d))

    @cached_property
    def hf(self) -> np.ndarray:
        return self.know.est_rd @ self.f

    @cached_property
    def cov_y(self) -> np.ndarray:
        return self.hf @ self.r_x @ _ct(self.hf) + self.k2

    @cached_property
    def gain(self) -> np.ndarray:
        return self.hf @ self.know.est_sr @ self.p

    def equalizer(self) -> np.ndarray:
        """The LMMSE equalizer (Hrd F Hsr P)^H cov_y^{-1}."""
        return _ct(_solve_hermitian(self.cov_y, self.gain))

    def mse_matrix(self, g) -> np.ndarray:
        lin = g @ self.gain
        return _herm(g @ self.cov_y @ _ct(g) + np.eye(self.cfg.n_streams) - lin - _ct(lin))

    def weighted_mse(self, g) -> np.ndarray:
        return np.real(_trace(self.cfg.weight @ self.mse_matrix(g)))

    def residual_weighted_mse(self, ft, maps: TildeMaps) -> np.ndarray:
        """tr(W) - tr[B^H (Hrd Ft Ft^H Hrd^H + K2)^{-1} B] for F the image
        of ``ft`` under the precoder's ``maps``; forms neither Hrd F nor
        cov_y."""
        hft = self.know.est_rd @ ft
        b = hft @ maps.signal @ self.cfg.weight_half
        cov = hft @ _ct(hft) + self.k2
        quad = np.real(_trace(_ct(b) @ _solve_hermitian(cov, b)))
        return float(np.real(np.trace(self.cfg.weight))) - quad


def _link(cfg: SystemConfig, know: ChannelKnowledge, p, f, maps: TildeMaps | None = None) -> _Link:
    """The :class:`_Link` of checked (P, F); P P^H and K1 are taken from
    the precoder's ``maps`` when given."""
    first = (maps._gram_p, maps._k1_level) if maps is not None else _first_hop(cfg, know, p)
    return _Link(cfg, know, p, f, *first)


def second_order_stats(cfg: SystemConfig, know: ChannelKnowledge, precoder, forward) -> SecondOrderStats:
    """r_x, k1, k2 for a given precoder and relay forward matrix."""
    link = _link(cfg, know, *_checked(cfg, know, precoder=precoder, forward=forward))
    k1 = link.k1 * np.eye(cfg.m_r, dtype=np.complex128)
    return SecondOrderStats(r_x=link.r_x, k1=k1, k2=link.k2)


def mse_matrix(cfg: SystemConfig, know: ChannelKnowledge, tx: Transceiver) -> np.ndarray:
    """N x N detection MSE matrix (expectation over data, errors, noises)."""
    p, f, g = _checked(
        cfg, know, precoder=tx.precoder, forward=tx.forward, equalizer=tx.equalizer
    )
    return _link(cfg, know, p, f).mse_matrix(g)


def weighted_mse(cfg: SystemConfig, know: ChannelKnowledge, tx: Transceiver):
    """tr(W E) for the MSE matrix E of the given transceiver.

    A float for one draw, an array of B values for a stack.
    """
    p, f, g = _checked(
        cfg, know, precoder=tx.precoder, forward=tx.forward, equalizer=tx.equalizer
    )
    return _scalar(_link(cfg, know, p, f).weighted_mse(g))


def optimal_equalizer(cfg: SystemConfig, know: ChannelKnowledge, precoder, forward) -> np.ndarray:
    """LMMSE equalizer (Hrd F Hsr P)^H (Hrd F Rx F^H Hrd^H + K2)^{-1}; LinAlgError if singular.

    Kept without a package caller: the test oracle of the substituted G."""
    link = _link(cfg, know, *_checked(cfg, know, precoder=precoder, forward=forward))
    return _solved(link.equalizer())


def tilde_maps(cfg: SystemConfig, know: ChannelKnowledge, precoder) -> TildeMaps:
    """Build the F <-> F_tilde maps for the given precoder (or stack)."""
    (p,) = _checked(cfg, know, precoder=precoder)
    gram_p, k1 = _first_hop(cfg, know, p)
    k1_inv_half = 1.0 / np.sqrt(k1)
    x = (k1_inv_half * know.est_sr) @ p
    # x = q diag(s) v^H gives pi_p = q diag(d) q^H, d = 1 + s^2 padded with
    # ones (>= 1: no conditioning guard), and the signal pi_p^{-1/2} x as
    # q diag(s / sqrt(d)) v^H, exactly 0 along the unit eigenvalues.  Not
    # q^H x: that rounds to eps |x| ~ eps / sigma1 there, and F would scale
    # it by 1 / sigma1 past the relay budget.
    q, s, vh = np.linalg.svd(x)
    k = s.shape[-1]
    d = np.ones(q.shape[:-1])
    d[..., :k] += s**2
    signal = (q[..., :k] * (s / np.sqrt(d[..., :k]))[..., None, :]) @ vh
    return TildeMaps(_gram_p=gram_p, _k1_level=k1, _pi_q=q, _pi_d=d, signal=signal)


def residual_weighted_mse(cfg: SystemConfig, know: ChannelKnowledge, precoder, tilde_forward):
    """Weighted MSE with the optimal equalizer already substituted in.

    tr(W) - tr[B^H (Hrd Ft Ft^H Hrd^H + K2)^{-1} B], B = Hrd Ft pi_p^{-1/2}
    k1^{-1/2} Hsr P W^{1/2}, with the whitened signal read from the maps.
    Matches ``weighted_mse`` at the LMMSE equalizer to solver precision;
    a LinAlgError if the solve is singular.
    """
    p, ft = _checked(cfg, know, precoder=precoder, tilde_forward=tilde_forward)
    maps = tilde_maps(cfg, know, p)
    link = _link(cfg, know, p, maps.from_tilde(ft), maps)
    return _scalar(_solved(link.residual_weighted_mse(ft, maps)))
