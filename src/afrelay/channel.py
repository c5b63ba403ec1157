"""Channel estimation error statistics and scenario sampling.

The two hop channels are modeled as ``H = H_bar + Delta_H`` where the
estimation error has a separable (matrix-variate Gaussian) covariance,
``Delta_H = row_cov^{1/2} @ H_w @ col_cov^{1/2}`` with ``H_w`` holding
i.i.d. circularly symmetric unit-variance complex Gaussians.  With MMSE
training-based estimation the first hop has row covariance exactly I and
the second hop has column covariance exactly I; the nontrivial factors
follow from the training sequences.  The transceiver design needs that
structure: :class:`ChannelKnowledge` tests each identity side once per
set of statistics and keeps its scale (``c_sr``, ``c_rd``), while
sampling and knowledge with general statistics never read it.  A stack
may join draws of several sets of statistics (sweep points, say), each
validated and tested once for all of its draws.

All sampling takes an explicit seed or ``numpy.random.Generator``; there
is no hidden global RNG state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _as_psd, _rebuild, herm_sqrt

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
    "complex_gaussian",
    "sample_error",
    "sample_error_batch",
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
    The statistics of a knowledge stack that mixes several sets hold
    (B, n, n) covariances, draw by draw (:meth:`ChannelKnowledge.concat`).
    Equality is identity: no field-wise comparison of arrays.
    """

    row_cov: np.ndarray
    col_cov: np.ndarray

    def __post_init__(self):
        for name in ("row_cov", "col_cov"):
            cov = _as_psd(getattr(self, name), name)
            if cov.ndim != 2:
                raise ValueError(f"{name} must be a square matrix, got shape {cov.shape}")
            object.__setattr__(self, name, cov)

    @property
    def rows(self) -> int:
        return self.row_cov.shape[-1]

    @property
    def cols(self) -> int:
        return self.col_cov.shape[-1]

    @classmethod
    def _per_draw(cls, sets, index) -> "ErrorStats":
        """Draw i's covariances are those of ``sets[index[i]]``.  Each set
        was validated when it was built, so nothing is checked again."""
        stats = object.__new__(cls)
        for name in ("row_cov", "col_cov"):
            object.__setattr__(stats, name, np.stack([getattr(t, name) for t in sets])[index])
        return stats


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
        if self.channel_var <= 0 or self.noise_var <= 0:
            raise ValueError("channel_var and noise_var must be positive")
        object.__setattr__(self, "training", t)


def _identity_scale(cov: np.ndarray, name: str) -> float:
    """c where ``cov`` = c I (within 1e-10 relative, Frobenius norm); any
    other covariance raises a ValueError naming it."""
    c = float(cov[0, 0].real)
    gap = cov - c * np.eye(len(cov))
    if np.vdot(gap, gap).real ** 0.5 > 1e-10 * max(abs(c) * len(cov) ** 0.5, 1e-300):
        raise ValueError(f"{name} must be a scaled identity, as training-based estimation makes it")
    return c


class _Statistics:
    """One set of error statistics of both hops and the scales of its
    identity sides, each tested once, on first use."""

    __slots__ = ("stats_sr", "stats_rd", "scales")

    def __init__(self, stats_sr: ErrorStats, stats_rd: ErrorStats):
        self.stats_sr, self.stats_rd, self.scales = stats_sr, stats_rd, {}

    def scale(self, name: str) -> float:
        """c of the covariance ``name`` ("stats_sr.row_cov", say) = c I."""
        if name not in self.scales:
            hop, side = name.split(".")
            self.scales[name] = _identity_scale(getattr(getattr(self, hop), side), name)
        return self.scales[name]


@dataclass(frozen=True, eq=False)
class ChannelKnowledge:
    """Estimated channels of both hops plus their error statistics.

    ``est_sr`` / ``est_rd`` are single matrices, or (B, rows, cols)
    stacks of B draws.  The draws of a stack built here share one set of
    statistics; :meth:`concat` joins stacks of different sets (several
    sweep points, say), and then ``stats_sr`` / ``stats_rd`` hold
    (B, n, n) covariances, draw by draw.  ``c_sr`` and ``c_rd`` are the
    scales of the identity sides that training-based estimation gives,
    ``stats_sr.row_cov`` = c_sr I and ``stats_rd.col_cov`` = c_rd I:
    floats, or (B, 1, 1) arrays that broadcast per draw where the draws'
    statistics differ.  Each side is tested once per set of statistics,
    on first use, and the result is shared with every :meth:`select`,
    :meth:`as_stack` and :meth:`concat` that holds the set; reading one
    where that side is not a scaled identity raises a ValueError naming
    the covariance.  Equality is identity: no field-wise comparison of
    arrays.
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
        if sr.shape[-2:] != (self.stats_sr.rows, self.stats_sr.cols):
            raise ValueError(
                f"stats_sr shape {(self.stats_sr.rows, self.stats_sr.cols)} "
                f"does not match est_sr shape {sr.shape}"
            )
        if rd.shape[-2:] != (self.stats_rd.rows, self.stats_rd.cols):
            raise ValueError(
                f"stats_rd shape {(self.stats_rd.rows, self.stats_rd.cols)} "
                f"does not match est_rd shape {rd.shape}"
            )
        object.__setattr__(self, "est_sr", sr)
        object.__setattr__(self, "est_rd", rd)
        # The distinct sets of statistics, and each draw's set (None: one set).
        object.__setattr__(self, "_sets", (_Statistics(self.stats_sr, self.stats_rd),))
        object.__setattr__(self, "_set_of", None)

    @property
    def c_sr(self):
        return self._scale("stats_sr.row_cov")

    @property
    def c_rd(self):
        return self._scale("stats_rd.col_cov")

    def _scale(self, name: str):
        if self._set_of is None:
            return self._sets[0].scale(name)
        return np.array([s.scale(name) for s in self._sets])[self._set_of, None, None]

    @classmethod
    def _of_sets(cls, est_sr, est_rd, sets, set_of) -> "ChannelKnowledge":
        """Estimates whose draw i has the statistics ``sets[set_of[i]]``;
        sets no draw uses are dropped, and one set left gives an ordinary
        knowledge object."""
        used, set_of = np.unique(set_of, return_inverse=True)
        sets = tuple(sets[i] for i in used.tolist())
        if len(sets) == 1:
            know = cls(est_sr, est_rd, sets[0].stats_sr, sets[0].stats_rd)
        else:
            hops = [ErrorStats._per_draw([getattr(s, hop) for s in sets], set_of)
                    for hop in ("stats_sr", "stats_rd")]
            know = cls(est_sr, est_rd, *hops)
            object.__setattr__(know, "_set_of", set_of.reshape(-1))
        object.__setattr__(know, "_sets", sets)
        return know

    @classmethod
    def concat(cls, parts) -> "ChannelKnowledge":
        """The draws of ``parts`` (knowledge objects of one shape), in order,
        as one stack.

        Nothing is validated or tested again: each part's statistics keep
        their identity scales, and parts holding the same set of
        statistics (selections of one stack, say) share it.  Where every
        draw has the same set the result is an ordinary stack.
        """
        parts = [p.as_stack() for p in parts]
        sets, set_of = {}, []
        for part in parts:
            ids = np.array([sets.setdefault(id(s), (len(sets), s))[0] for s in part._sets])
            local = 0 if part._set_of is None else part._set_of
            set_of.append(np.broadcast_to(ids[local], part.est_sr.shape[:1]))
        return cls._of_sets(
            np.concatenate([p.est_sr for p in parts]),
            np.concatenate([p.est_rd for p in parts]),
            [s for _, s in sets.values()],
            np.concatenate(set_of),
        )

    def select(self, index) -> "ChannelKnowledge":
        """The draws ``index`` (an int, slice or index array) of a stack.

        The selection holds the sets of statistics of its draws, with the
        identity scales this object has tested: a scale either of them
        tests is known to both.  A single draw, or draws of one set, get
        that set's own 2-D statistics.
        """
        if self._set_of is None:
            picked = ChannelKnowledge(
                self.est_sr[index], self.est_rd[index], self.stats_sr, self.stats_rd
            )
            object.__setattr__(picked, "_sets", self._sets)
            return picked
        return self._of_sets(
            self.est_sr[index], self.est_rd[index], self._sets, self._set_of[index]
        )

    def as_stack(self) -> "ChannelKnowledge":
        """This knowledge as a stack (a single draw becomes a stack of one)."""
        return self if self.est_sr.ndim == 3 else self.select(np.newaxis)

    def per_statistics(self, fn):
        """``fn(k)`` for a ``fn`` that reads only the statistics and
        identity scales of a knowledge ``k`` and returns a tuple of arrays.

        Where the draws share one set of statistics, ``k`` is this object.
        Otherwise ``k`` holds one draw per set, and each output's leading
        (set) axis is gathered draw by draw into a (B, ...) stack; so what
        depends only on the statistics is computed once per set.
        """
        if self._set_of is None:
            return fn(self)
        _, first = np.unique(self._set_of, return_index=True)
        return tuple(out[self._set_of] for out in fn(self.select(first)))


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


def error_stats_first_hop(t: HopTraining, n_s: int, m_r: int) -> ErrorStats:
    """MMSE error covariances of the source->relay channel estimate.

    Row covariance is exactly I_{m_r}; the column covariance is
    ``((1/channel_var) I + (1/noise_var) D1 D1^H)^{-1}`` with the
    training D1 transmitted from the source (n_s rows).
    """
    if t.training.shape[0] != n_s:
        raise ValueError(
            f"first-hop training must have n_s={n_s} rows, "
            f"got {t.training.shape[0]}"
        )
    d = t.training
    info = np.eye(n_s) / t.channel_var + (d @ d.conj().T) / t.noise_var
    col = np.linalg.inv(info)
    return ErrorStats(row_cov=np.eye(m_r, dtype=np.complex128), col_cov=col)


def error_stats_second_hop(t: HopTraining, n_r: int, m_d: int) -> ErrorStats:
    """MMSE error covariances of the relay->destination channel estimate.

    Training for this hop travels in the reverse direction (m_d rows),
    so the roles flip: column covariance is exactly I_{n_r} and
    ``row_cov = ((1/channel_var) I + (1/noise_var) D2 D2^H)^{-1}``.
    """
    if t.training.shape[0] != m_d:
        raise ValueError(
            f"second-hop training must have m_d={m_d} rows, "
            f"got {t.training.shape[0]}"
        )
    d = t.training
    info = np.eye(m_d) / t.channel_var + (d @ d.conj().T) / t.noise_var
    row = np.linalg.inv(info)
    return ErrorStats(row_cov=row, col_cov=np.eye(n_r, dtype=np.complex128))


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
    if snr_est < 0:
        raise ValueError("snr_est must be nonnegative")
    psi_sr, sigma_rd = (
        _rebuild(q, 1.0 + snr_est * np.clip(w, 0.0, None), inverse=True)
        for w, q in (np.linalg.eigh(exp_corr(alpha, n)) for n in (n_s, m_d))
    )
    stats_sr = ErrorStats(row_cov=np.eye(m_r, dtype=np.complex128), col_cov=psi_sr)
    stats_rd = ErrorStats(row_cov=sigma_rd, col_cov=np.eye(n_r, dtype=np.complex128))
    return stats_sr, stats_rd


def exact_knowledge(h_sr, h_rd) -> ChannelKnowledge:
    """Knowledge object that treats the given channels (or stacks) as error-free."""
    h_sr = np.asarray(h_sr, dtype=np.complex128)
    h_rd = np.asarray(h_rd, dtype=np.complex128)
    zero_sr = ErrorStats(
        np.zeros((h_sr.shape[-2],) * 2), np.zeros((h_sr.shape[-1],) * 2)
    )
    zero_rd = ErrorStats(
        np.zeros((h_rd.shape[-2],) * 2), np.zeros((h_rd.shape[-1],) * 2)
    )
    return ChannelKnowledge(h_sr, h_rd, zero_sr, zero_rd)


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


def complex_gaussian(rng, *shape) -> np.ndarray:
    """i.i.d. circularly symmetric CN(0, 1) entries (variance 1/2 per part).

    The real parts are drawn first, then the imaginary parts.
    """
    return _complex_parts(as_generator(rng).standard_normal((2, *shape)), 1 / np.sqrt(2.0))


def _sample_error_from_roots(left: np.ndarray, right: np.ndarray, n: int, rng) -> np.ndarray:
    """n draws of left @ H_w @ right for given covariance roots.

    Both products run as one 2-D GEMM over all draws, (left @ H_w) first
    as in the stacked product, instead of n tiny matmuls.
    """
    rows, cols = left.shape[0], right.shape[0]
    hw = complex_gaussian(rng, n, rows, cols)
    # (n, r, c) -> (r, n*c): every draw's columns side by side.
    lh = left @ hw.transpose(1, 0, 2).reshape(rows, n * cols)
    # (r, n*c) -> (n*r, c): every draw's rows stacked.
    lh = lh.reshape(rows, n, cols).transpose(1, 0, 2).reshape(n * rows, cols)
    return (lh @ right).reshape(n, rows, cols)


def sample_error_batch(stats: ErrorStats, n: int, rng) -> np.ndarray:
    """n draws of row_cov^{1/2} @ H_w @ col_cov^{1/2}, shape (n, rows, cols)."""
    return _sample_error_from_roots(
        herm_sqrt(stats.row_cov), herm_sqrt(stats.col_cov), n, as_generator(rng)
    )


def sample_error(stats: ErrorStats, rng) -> np.ndarray:
    """One estimation-error realization with the given covariances."""
    return sample_error_batch(stats, 1, rng)[0]


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
    # still gives a PSD covariance.
    def estimate_cov(n, err_cov):
        a = snr_est * exp_corr(alpha, n) @ err_cov
        return 0.5 * (a + a.conj().T)

    covs = (
        (stats_sr.row_cov, estimate_cov(cfg.n_s, stats_sr.col_cov)),
        (stats_sr.row_cov, stats_sr.col_cov),
        (estimate_cov(cfg.m_d, stats_rd.row_cov), stats_rd.col_cov),
        (stats_rd.row_cov, stats_rd.col_cov),
    )
    roots = tuple((herm_sqrt(row), herm_sqrt(col)) for row, col in covs)
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
    # One call per generator yields the normals that complex_gaussian would
    # draw block by block (real parts, then imaginary parts), in order.
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
    return know.select(0), TrueChannelDraw(
        h_sr=truth.h_sr[0],
        h_rd=truth.h_rd[0],
        delta_sr=truth.delta_sr[0],
        delta_rd=truth.delta_rd[0],
    )
