"""Channel estimation error statistics and scenario sampling.

The two hop channels are modeled as ``H = H_bar + Delta_H`` where the
estimation error has a separable (matrix-variate Gaussian) covariance,
``Delta_H = row_cov^{1/2} @ H_w @ col_cov^{1/2}`` with ``H_w`` holding
i.i.d. circularly symmetric unit-variance complex Gaussians.  With MMSE
training-based estimation the first hop has row covariance exactly I and
the second hop has column covariance exactly I; the nontrivial factors
follow from the training sequences.  The transceiver design needs that
structure: each :class:`ErrorStats` tests an identity side once, on
first use, and keeps its scale (``ChannelKnowledge.c_sr``, ``c_rd``),
while sampling and knowledge with general statistics never read it.
The statistics of a knowledge stack are shared by all of its draws, or
given draw by draw (a stack that joins sweep points, say).

All sampling takes an explicit seed or ``numpy.random.Generator``; there
is no hidden global RNG state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _as_psd, _first_bad, _fro_norms, _herm, _rebuild, _rows, herm_sqrt

__all__ = [
    "ErrorStats",
    "HopTraining",
    "ChannelKnowledge",
    "TrueChannelDraw",
    "exp_corr",
    "error_stats_first_hop",
    "error_stats_second_hop",
    "estimation_stats",
    "exact_knowledge",
    "as_generator",
    "sample_scenario",
    "sample_scenario_stack",
]

def as_generator(seed) -> np.random.Generator:
    """Normalize an int seed / SeedSequence / Generator to a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass(frozen=True, eq=False)
class ErrorStats:
    """Separable covariance of one hop's estimation error.

    ``row_cov`` is the receive-side correlation (size = channel rows),
    ``col_cov`` the transmit-side correlation (size = channel columns).
    Each is a matrix shared by every draw of a knowledge stack, or a
    (B, n, n) stack, one per draw, validated draw by draw by one eigh,
    whose eigensystem is kept (:meth:`eig`, :meth:`root`) and sliced or
    joined with it.  The scale of an identity side is tested once per
    object, on first use.  Equality is identity: no field-wise comparison
    of arrays.
    """

    row_cov: np.ndarray
    col_cov: np.ndarray

    def __post_init__(self):
        self._of(*map(_as_psd, (self.row_cov, self.col_cov), ("row_cov", "col_cov")), into=self)

    @classmethod
    def _of(cls, row, col, into=None) -> "ErrorStats":
        """Set ``into`` (or a new object) from each side's ``_as_psd`` (h, w, q): the one setter."""
        stats = object.__new__(cls) if into is None else into
        vars(stats).update(row_cov=row[0], col_cov=col[0], _scales={},
                           _kept={"row_cov": row, "col_cov": col})
        return stats

    @property
    def rows(self) -> int:
        return self.row_cov.shape[-1]

    @property
    def cols(self) -> int:
        return self.col_cov.shape[-1]

    def eig(self, side: str):
        """(w, q) of ``side`` ("row_cov" or "col_cov"), cov = q diag(w) q^H,
        w nondecreasing and clamped at 0: (n,), (n, n) or per draw (B, ...)."""
        return self._kept[side][1:]

    def root(self, side: str) -> np.ndarray:
        """q diag(w^{1/2}) q^H of ``side``: ``herm_sqrt``'s bytes, no eigh."""
        _, w, q = self._kept[side]
        return _rebuild(q, np.sqrt(w))

    def _scale(self, side: str, name: str):
        """:func:`_identity_scale` of ``side`` ("row_cov" or "col_cov")."""
        if side not in self._scales:
            self._scales[side] = _identity_scale(getattr(self, side), name)
        return self._scales[side]

    def _select(self, index) -> "ErrorStats":
        """These statistics for the draws ``index`` of a stack, eigensystems alike."""
        if self.row_cov.ndim == 2 and self.col_cov.ndim == 2:
            return self
        return ErrorStats._of(*(kept if kept[0].ndim == 2 else tuple(a[index] for a in kept)
                                for kept in self._kept.values()))


def _eye_psd(n: int, c: float = 1.0):
    """``_as_psd`` of c I (c = 0 or 1), whose eigh gives exactly (c, I)."""
    return c * np.eye(n, dtype=np.complex128), np.full(n, c), np.eye(n, dtype=np.complex128)


@dataclass(frozen=True)
class HopTraining:
    """Training sequence and variances of one estimation stage.

    ``training`` has one row per transmit antenna of that stage and one
    column per training symbol.
    """

    training: np.ndarray
    channel_var: float
    noise_var: float

    def __post_init__(self):
        t = np.asarray(self.training, dtype=np.complex128)
        if t.ndim != 2:
            raise ValueError("training must be a 2-D matrix")
        if not np.isfinite(t).all():
            raise ValueError("training contains non-finite entries")
        for name in ("channel_var", "noise_var"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        object.__setattr__(self, "training", t)


def _identity_scale(cov: np.ndarray, name: str):
    """c where ``cov`` = c I (within 1e-10 relative, Frobenius norm): a
    float, or (B, 1, 1) for a (B, n, n) stack, tested draw by draw; any
    other covariance raises a ValueError naming it."""
    c = cov[..., 0, 0].real
    n = cov.shape[-1]
    gap = cov - c[..., None, None] * np.eye(n)
    bad = _fro_norms(gap)[0] > 1e-10 * np.abs(c) * n**0.5
    if bad.any():
        raise ValueError(f"{name} must be a scaled identity{_first_bad(bad)}, "
                         "as training-based estimation makes it")
    return float(c) if c.ndim == 0 else c[:, None, None]


@dataclass(frozen=True, eq=False)
class ChannelKnowledge:
    """Estimated channels of both hops plus their error statistics.

    ``est_sr`` / ``est_rd`` are single matrices, or (B, rows, cols)
    stacks of B draws.  Each :class:`ErrorStats` is shared by every draw,
    or holds (B, n, n) covariances, one per draw (:meth:`concat` builds
    those where the joined stacks' statistics differ).  ``c_sr`` and
    ``c_rd`` are the scales of the identity sides that training-based
    estimation gives, ``stats_sr.row_cov`` = c_sr I and
    ``stats_rd.col_cov`` = c_rd I: floats, or (B, 1, 1) arrays that
    broadcast per draw.  Each is tested once per statistics object, on
    first use, so every knowledge that holds the object (a
    :meth:`select`, say) shares the result; reading one where that side
    is not a scaled identity raises a ValueError naming the covariance.
    Equality is identity: no field-wise comparison of arrays.
    """

    est_sr: np.ndarray
    est_rd: np.ndarray
    stats_sr: ErrorStats
    stats_rd: ErrorStats

    def __post_init__(self):
        sr = np.asarray(self.est_sr, dtype=np.complex128)
        rd = np.asarray(self.est_rd, dtype=np.complex128)
        for name, a in (("est_sr", sr), ("est_rd", rd)):
            if a.ndim not in (2, 3) or not np.isfinite(a).all():
                raise ValueError(f"{name} must be a finite 2-D matrix or (B, m, n) stack")
        if sr.shape[:-2] != rd.shape[:-2]:
            raise ValueError(
                f"est_sr and est_rd stack different numbers of draws "
                f"({sr.shape[:-2]} vs {rd.shape[:-2]})"
            )
        for hop, est in (("sr", sr), ("rd", rd)):
            stats = getattr(self, f"stats_{hop}")
            if est.shape[-2:] != (stats.rows, stats.cols):
                raise ValueError(
                    f"stats_{hop} shape {(stats.rows, stats.cols)} "
                    f"does not match est_{hop} shape {est.shape}"
                )
            if {stats.row_cov.shape[:-2], stats.col_cov.shape[:-2]} - {(), est.shape[:-2]}:
                raise ValueError(f"stats_{hop} holds covariances of other draws "
                                 f"than est_{hop} of shape {est.shape}")
        object.__setattr__(self, "est_sr", sr)
        object.__setattr__(self, "est_rd", rd)

    @property
    def c_sr(self):
        return self.stats_sr._scale("row_cov", "stats_sr.row_cov")

    @property
    def c_rd(self):
        return self.stats_rd._scale("col_cov", "stats_rd.col_cov")

    @classmethod
    def concat(cls, parts) -> "ChannelKnowledge":
        """The draws of ``parts`` (knowledge objects of one shape), in order,
        as one stack.

        A hop whose statistics object every part shares keeps it (and the
        scales it has tested); otherwise that hop's statistics are given
        draw by draw, joined from the parts' with their kept eigensystems.
        """
        parts = [p.as_stack() for p in parts]

        def joined(stats):
            if all(s is stats[0] for s in stats):
                return stats[0]
            sides = zip(*(s._kept.values() for s in stats))  # h, w, q: 2, 1, 2 core axes
            return ErrorStats._of(*(tuple(np.concatenate([
                np.broadcast_to(a, (len(p.est_sr), *a.shape[-k:])) for p, a in zip(parts, arrays)
            ]) for k, arrays in zip((2, 1, 2), zip(*kept))) for kept in sides))

        return cls(
            np.concatenate([p.est_sr for p in parts]),
            np.concatenate([p.est_rd for p in parts]),
            joined([p.stats_sr for p in parts]),
            joined([p.stats_rd for p in parts]),
        )

    def select(self, index) -> "ChannelKnowledge":
        """The draws ``index`` (an int, slice or index array) of a stack:
        shared statistics are kept, per-draw ones sliced alike."""
        return ChannelKnowledge(
            self.est_sr[index], self.est_rd[index],
            self.stats_sr._select(index), self.stats_rd._select(index),
        )

    def as_stack(self) -> "ChannelKnowledge":
        """This knowledge as a stack (a single draw becomes a stack of one)."""
        return self if self.est_sr.ndim == 3 else self.select(np.newaxis)


@dataclass(frozen=True)
class TrueChannelDraw:
    """One realization of true channels and the sampled errors."""

    h_sr: np.ndarray
    h_rd: np.ndarray
    delta_sr: np.ndarray
    delta_rd: np.ndarray


def exp_corr(alpha: float, n: int) -> np.ndarray:
    """Exponential correlation matrix, entry (i, j) = alpha^|i-j|."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    if n < 1:
        raise ValueError("n must be >= 1")
    idx = np.arange(n)
    return alpha ** np.abs(idx[:, None] - idx[None, :]) + 0j


def _mmse_error_cov(gram: np.ndarray, prior: float, gain: float) -> np.ndarray:
    """(prior I + gain gram)^{-1} for a PSD ``gram``, rebuilt from gram's
    eigensystem: Hermitian PSD even where gram is ill-conditioned."""
    w, q = np.linalg.eigh(gram)
    return _rebuild(q, prior + gain * np.clip(w, 0.0, None), inverse=True)


def error_stats_first_hop(t: HopTraining, n_s: int, m_r: int) -> ErrorStats:
    """MMSE error covariances of the source->relay channel estimate.

    Row covariance is exactly I_{m_r}; the column covariance is
    ``((1/channel_var) I + (1/noise_var) D1 D1^H)^{-1}`` with the
    training D1 transmitted from the source (n_s rows), rebuilt from the
    eigensystem of D1 D1^H.

    Kept without a package caller: the paper's general training model.
    """
    if t.training.shape[0] != n_s:
        raise ValueError(
            f"first-hop training must have n_s={n_s} rows, "
            f"got {t.training.shape[0]}"
        )
    col = _mmse_error_cov(t.training @ t.training.conj().T, 1 / t.channel_var, 1 / t.noise_var)
    return ErrorStats._of(_eye_psd(m_r), _as_psd(col, "col_cov"))


def error_stats_second_hop(t: HopTraining, n_r: int, m_d: int) -> ErrorStats:
    """MMSE error covariances of the relay->destination channel estimate.

    Training for this hop travels in the reverse direction (m_d rows),
    so the roles flip: column covariance is exactly I_{n_r} and
    ``row_cov = ((1/channel_var) I + (1/noise_var) D2 D2^H)^{-1}``,
    rebuilt from the eigensystem of D2 D2^H.

    Kept without a package caller: the paper's general training model.
    """
    if t.training.shape[0] != m_d:
        raise ValueError(
            f"second-hop training must have m_d={m_d} rows, "
            f"got {t.training.shape[0]}"
        )
    row = _mmse_error_cov(t.training @ t.training.conj().T, 1 / t.channel_var, 1 / t.noise_var)
    return ErrorStats._of(_as_psd(row, "row_cov"), _eye_psd(n_r))


def estimation_stats(
    snr_est: float, alpha: float, n_s: int, m_r: int, n_r: int, m_d: int
) -> tuple[ErrorStats, ErrorStats]:
    """Error statistics for exponentially correlated training.

    Training correlation D D^H proportional to exp_corr(alpha) at
    estimation SNR ``snr_est`` (linear) gives
    ``col_cov_sr = (I + snr_est * R_alpha)^{-1}`` on the first hop and
    the mirrored ``row_cov_rd`` on the second, both rebuilt from R_alpha's
    eigensystem: Hermitian PSD even where R_alpha is ill-conditioned.
    """
    if not snr_est >= 0:
        raise ValueError(f"snr_est must be nonnegative, got {snr_est}")
    psi_sr, sigma_rd = (_mmse_error_cov(exp_corr(alpha, n), 1.0, snr_est) for n in (n_s, m_d))
    return (ErrorStats._of(_eye_psd(m_r), _as_psd(psi_sr, "col_cov")),
            ErrorStats._of(_as_psd(sigma_rd, "row_cov"), _eye_psd(n_r)))


def exact_knowledge(h_sr, h_rd) -> ChannelKnowledge:
    """Knowledge that treats the channels (or stacks) as error-free, with no eigh."""
    zero = [ErrorStats._of(*(_eye_psd(n, 0.0) for n in np.shape(h)[-2:])) for h in (h_sr, h_rd)]
    return ChannelKnowledge(h_sr, h_rd, *zero)


def _complex_parts(parts: np.ndarray, scale: float, out=None) -> np.ndarray:
    """``scale * (parts[0] + 1j * parts[1])``, written part by part into
    ``out`` (a new complex128 array, or a view into a larger block).

    Bit-identical to that expression, and for ``scale = 1 / d`` to the sum
    divided by ``d`` (numpy's complex division multiplies by the
    reciprocal), without the expression's temporaries.
    """
    if out is None:
        out = np.empty(parts.shape[1:], dtype=np.complex128)
    np.multiply(parts[0], scale, out=out.real)
    np.multiply(parts[1], scale, out=out.imag)
    return out


def _scenario_factors(cfg, snr_est: float, alpha: float):
    """The per-point constants of scenario sampling: both hops' error
    stats and the (row, column) covariance roots of the four sampled
    blocks est_sr, delta_sr, est_rd, delta_rd, in that order."""
    stats_sr, stats_rd = estimation_stats(
        snr_est, alpha, cfg.n_s, cfg.m_r, cfg.n_r, cfg.m_d
    )
    # MMSE orthogonality with i.i.d. unit-variance true entries leaves each
    # estimate with covariance I - (error covariance) = s R (I + s R)^{-1};
    # that factors per hop because estimation_stats builds row_cov_sr and
    # col_cov_rd as I.  The product form has no cancellation, so a tiny s
    # still gives a PSD covariance; an infinite s gives its limit, I.
    def estimate_cov(n, err_cov):
        if snr_est == np.inf:
            return np.eye(n, dtype=np.complex128)
        return _herm(snr_est * exp_corr(alpha, n) @ err_cov)

    # Each hop's estimate and error share one side's covariance, and so its
    # root; only the two estimate covariances are decomposed here.
    rows_sr, cols_rd = stats_sr.root("row_cov"), stats_rd.root("col_cov")
    roots = (
        (rows_sr, herm_sqrt(estimate_cov(cfg.n_s, stats_sr.col_cov))),
        (rows_sr, stats_sr.root("col_cov")),
        (herm_sqrt(estimate_cov(cfg.m_d, stats_rd.row_cov)), cols_rd),
        (stats_rd.root("row_cov"), cols_rd),
    )
    return stats_sr, stats_rd, roots


def sample_scenario_stack(cfg, snr_est: float, alpha: float, rngs):
    """One scenario draw per generator, stacked along a leading axis.

    Draw i consumes ``rngs[i]`` exactly as :func:`sample_scenario`
    consumes its generator, so it equals ``sample_scenario(cfg, snr_est,
    alpha, rngs[i])`` bit for bit; the error stats and covariance roots
    are built once for the whole stack.  Returns ``(ChannelKnowledge,
    TrueChannelDraw)`` with (B, rows, cols) arrays.
    """
    stats_sr, stats_rd, roots = _scenario_factors(cfg, snr_est, alpha)
    shapes = [(left.shape[0], right.shape[0]) for left, right in roots]
    sizes = [rows * cols for rows, cols in shapes]
    # One call per generator yields the normals of the four blocks in order,
    # each block's real parts before its imaginary parts.
    z = np.stack([as_generator(rng).standard_normal(2 * sum(sizes)) for rng in rngs])
    white, start = [], 0
    for (rows, cols), size in zip(shapes, sizes):
        parts = z[:, start : start + 2 * size].reshape(-1, 2, rows, cols)
        white.append(_complex_parts(parts.swapaxes(0, 1), 1 / np.sqrt(2.0)))
        start += 2 * size
    est_sr, delta_sr, est_rd, delta_rd = (
        left[None] @ hw @ right[None] for (left, right), hw in zip(roots, white)
    )
    know = ChannelKnowledge(est_sr, est_rd, stats_sr, stats_rd)
    truth = TrueChannelDraw(
        h_sr=est_sr + delta_sr,
        h_rd=est_rd + delta_rd,
        delta_sr=delta_sr,
        delta_rd=delta_rd,
    )
    return know, truth


def sample_scenario(cfg, snr_est: float, alpha: float, rng):
    """Draw estimated channels, errors and true channels for one trial.

    Channel entries have unit total variance: the estimate carries
    1 - (error variance) per entry and true = estimate + error.  Returns
    ``(ChannelKnowledge, TrueChannelDraw)``.
    """
    know, truth = sample_scenario_stack(cfg, snr_est, alpha, [rng])
    return know.select(0), _rows(truth, 0)
