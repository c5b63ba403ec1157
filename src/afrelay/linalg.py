"""Deterministic dense complex-matrix kernels.

Ordered SVD and Hermitian eigendecompositions with a fixed phase /
tie-breaking convention, Hermitian square roots, and ``_fro_norms``, the
one Frobenius norm of every check, at any finite scale.  Everything
downstream (whitening, spectral design, oracle checks) leans on the
reproducibility guarantees here: the same input bits always produce the
same output bits.

Conventions
-----------
* Singular values / eigenvalues are returned in nonincreasing order.
* In every left singular vector (or eigenvector) the entry of largest
  magnitude is rotated to be real and nonnegative; the paired right
  singular vector absorbs the opposite rotation so the factorization is
  unchanged.
* A tie group is a run of consecutive values whose neighbours differ by
  at most TIE_RTOL times the largest magnitude.  Inside each group the
  columns are re-sorted in descending lexicographic order of the
  phase-fixed left vectors, real and imaginary parts interleaved row by
  row; equal keys keep their order.  One stable sort over the tied
  matrices of a stack does this.  The choice inside a degenerate
  subspace is implementation-defined but deterministic.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinalgError",
    "NotHermitianError",
    "NotPSDError",
    "OrderedSVD",
    "OrderedHermitianEig",
    "svd_ordered",
    "eig_hermitian_ordered",
    "herm_sqrt",
]

# Relative tolerance for accepting an input as Hermitian.
HERMITIAN_RTOL = 1e-10
# Eigenvalues above -PSD_CLAMP_RTOL * ||m|| are clamped to zero; anything
# more negative is treated as a modeling bug, not noise.
PSD_CLAMP_RTOL = 1e-10
# Relative gap below which singular values / eigenvalues count as tied.
TIE_RTOL = 1e-12


class LinalgError(ValueError):
    """Base class for contract violations raised by this module."""


class NotHermitianError(LinalgError):
    pass


class NotPSDError(LinalgError):
    pass


@dataclass(frozen=True)
class OrderedSVD:
    """Full SVD ``m = left @ Sigma @ right^H`` with ordered values.

    ``left`` is (m, m) unitary, ``right`` is (n, n) unitary and ``values``
    holds the min(m, n) singular values, nonincreasing.  Factors of a
    (B, m, n) stack carry the same leading axis.
    """

    left: np.ndarray
    values: np.ndarray
    right: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """Kept without a package caller: the test oracle of the factors."""
        k = self.values.shape[-1]
        return (self.left[..., :k] * self.values[..., None, :]) @ _ct(self.right[..., :k])


@dataclass(frozen=True)
class OrderedHermitianEig:
    """Eigendecomposition ``m = vectors @ diag(values) @ vectors^H``.

    ``values`` are real and nonincreasing, ``vectors`` is unitary.
    Factors of a (B, n, n) stack carry the same leading axis.
    """

    vectors: np.ndarray
    values: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """Kept without a package caller: the test oracle of the factors."""
        return (self.vectors * self.values[..., None, :]) @ _ct(self.vectors)


def _ct(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of every matrix in a stack."""
    return a.swapaxes(-1, -2).conj()


def _herm(a: np.ndarray) -> np.ndarray:
    """Hermitian part a/2 + a^H/2 of a matrix or of every matrix in a stack,
    halved first so that no sum overflows."""
    half = 0.5 * a
    return half + _ct(half)


def _rows(obj, index):
    """The dataclass ``obj`` of stacked arrays with every array field indexed
    at ``index`` and copied, nested dataclasses likewise, other fields
    kept: a kept row owns its arrays and does not pin its stack."""
    return type(obj)(**{
        name: value[index].copy() if isinstance(value, np.ndarray)
        else _rows(value, index) if hasattr(value, "__dataclass_fields__") else value
        for name, value in vars(obj).items()
    })


def _fro_norms(*mats: np.ndarray) -> tuple[np.ndarray, ...]:
    """Frobenius norm of each of ``mats`` (a matrix, or a stack: one norm
    per matrix) at any finite scale.  Where a square over- or underflows,
    each matrix is summed again scaled by the power of two that brings its
    largest entry into [0.5, 1) (Blue 1978): the same bits where none did."""
    with suppress(FloatingPointError), np.errstate(over="raise", under="raise"):
        return tuple(np.sqrt((m.real**2 + m.imag**2).sum(axis=(-2, -1))) for m in mats)
    norms = []
    with np.errstate(under="ignore"):
        for m in mats:
            e = np.frexp(np.abs(m).max(axis=(-2, -1)))[1]
            re, im = (np.ldexp(part, -e[..., None, None]) for part in (m.real, m.imag))
            norms.append(np.ldexp(np.sqrt((re**2 + im**2).sum(axis=(-2, -1))), e))
    return tuple(norms)


def _as_matrix(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim not in (2, 3):
        raise ValueError(
            f"{name} must be 2-D or a (B, m, n) stack, got shape {a.shape}"
        )
    if a.size and not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _first_bad(bad: np.ndarray) -> str:
    """' (stack entry i)' for the first flagged matrix of a stack."""
    return "" if bad.ndim == 0 else f" (stack entry {int(np.argmax(bad))})"


def _as_hermitian(m, name: str = "matrix") -> np.ndarray:
    a = _as_matrix(m, name)
    if a.shape[-2] != a.shape[-1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    # Skew and Hermitian parts of the halved matrix: no difference or sum
    # overflows, and halving keeps the ratio of the two norms.
    half = 0.5 * a
    skew, norm = _fro_norms(half - _ct(half), half)
    bad = skew > HERMITIAN_RTOL * norm
    if bad.any():
        raise NotHermitianError(
            f"{name} is not Hermitian{_first_bad(bad)}: ||m - m^H|| / 2 = "
            f"{float(np.max(skew)):.3e} exceeds {HERMITIAN_RTOL:g} * ||m|| / 2"
        )
    return half + _ct(half)


def _phase_factors(cols: np.ndarray) -> np.ndarray:
    """Per column of a unitary factor, the conjugate phase that makes its
    dominant entry real nonnegative; shape ``cols.shape[:-2] + (k,)``."""
    at = np.abs(cols).argmax(axis=-2)
    dom = np.take_along_axis(cols, at[..., None, :], axis=-2)[..., 0, :]
    return np.conj(dom / np.abs(dom))


def _sort_ties(values: np.ndarray, *column_sets) -> None:
    """Reorder, in place, the columns inside each group of tied values by
    descending lexicographic key of the first column set (real and
    imaginary parts interleaved, row by row); every set is permuted alike.

    Values are left untouched, so their ordering guarantee is never
    disturbed.  The sort is one stable ``np.lexsort`` over the matrices of
    the stack whose (nonincreasing) values contain a tie; untied matrices,
    nearly all of them, are left alone.
    """
    if values.shape[-1] < 2:
        return
    scale = np.maximum(np.abs(values[..., :1]), np.abs(values[..., -1:]))
    tied = (values[..., :-1] - values[..., 1:] <= TIE_RTOL * scale).any(axis=-1)
    if not tied.any():
        return
    idx = np.flatnonzero(tied)
    vals = values.reshape(-1, values.shape[-1])[idx]
    sets = [c.reshape(-1, *c.shape[-2:]) for c in column_sets]
    # A new group starts wherever consecutive values are not tied.
    split = np.abs(vals[:, :-1] - vals[:, 1:]) > TIE_RTOL * np.maximum(
        np.abs(vals).max(axis=-1, keepdims=True), 1e-300
    )
    group = np.concatenate([np.zeros((idx.size, 1)), np.cumsum(split, axis=-1)], axis=-1)
    primary = sets[0][idx]
    key = np.stack([primary.real, primary.imag], axis=2).reshape(idx.size, -1, vals.shape[-1])
    # np.lexsort sorts by its last key first: the group, then key rows 0, 1, ...
    order = np.lexsort(np.concatenate([-key[:, ::-1].swapaxes(0, 1), group[None]]), axis=-1)
    for cols in sets:
        cols[idx] = np.take_along_axis(cols[idx], order[:, None, :], axis=-1)


def svd_ordered(m) -> OrderedSVD:
    """Full SVD with nonincreasing singular values and fixed phases.

    Paired left/right columns are rotated together, so the factorization
    is exact; the unpaired null-space columns (when the input is not
    square) are phase-fixed individually.  A (B, m, n) stack gives
    stacked factors, each equal to the factorization of its matrix.
    """
    a = _as_matrix(m)
    u, s, vh = np.linalg.svd(a, full_matrices=True)
    v = _ct(vh).copy()
    k = s.shape[-1]
    ph = _phase_factors(u)
    u = u * ph[..., None, :]
    v[..., :k] *= ph[..., None, :k]
    if v.shape[-1] > k:
        v[..., k:] *= _phase_factors(v[..., k:])[..., None, :]
    _sort_ties(s, u[..., :k], v[..., :k])
    return OrderedSVD(left=u, values=s, right=v)


def eig_hermitian_ordered(m) -> OrderedHermitianEig:
    """Eigendecomposition of a Hermitian matrix, values nonincreasing.

    The input must be Hermitian within ``HERMITIAN_RTOL`` (it is
    symmetrized internally); the same phase and tie conventions as
    :func:`svd_ordered` apply.  Stacks are decomposed matrix by matrix.
    """
    h = _as_hermitian(m)
    w, q = np.linalg.eigh(h)
    w = w[..., ::-1].copy()
    q = q[..., ::-1]
    q = q * _phase_factors(q)[..., None, :]
    _sort_ties(w, q)
    return OrderedHermitianEig(vectors=q, values=w)


def _rebuild(q: np.ndarray, d: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Hermitian part of q diag(d) q^H (of q diag(d)^{-1} q^H when
    ``inverse``), matrix by matrix."""
    return _herm(((q / d[..., None, :]) if inverse else (q * d[..., None, :])) @ _ct(q))


def _check_psd(w: np.ndarray, name: str = "matrix") -> None:
    """Raise :class:`NotPSDError` unless the nondecreasing eigenvalues
    ``w`` (of a matrix or stack) are finite and above -PSD_CLAMP_RTOL * ||m||."""
    if w.size:
        bad = ~np.isfinite(w).all(axis=-1)
        if bad.any():
            raise NotPSDError(f"{name} has a non-finite eigenvalue{_first_bad(bad)}")
        scale = np.maximum(-w[..., 0], w[..., -1])
        bad = w[..., 0] < -PSD_CLAMP_RTOL * scale
        if bad.any():
            raise NotPSDError(
                f"{name} is not PSD{_first_bad(bad)}: min eigenvalue "
                f"{float(np.min(w[..., 0])):.3e} < -{PSD_CLAMP_RTOL:g} * ||m||"
            )


def _as_psd(m, name: str = "matrix"):
    """(h, w, q): the Hermitian part h of ``m`` (a matrix or stack), checked
    Hermitian within HERMITIAN_RTOL and PSD within PSD_CLAMP_RTOL by one
    eigh, h = q diag(w) q^H with w nondecreasing and clamped at 0 (q = I
    for h = 0).  The one validator of covariances and of a spec's weights."""
    h = _as_hermitian(m, name)
    w, q = np.linalg.eigh(h)
    _check_psd(w, name)
    return h, np.clip(w, 0.0, None), q


def herm_sqrt(m) -> np.ndarray:
    """Hermitian square root S of a PSD matrix (or stack), S @ S = m.

    Eigenvalues in [-PSD_CLAMP_RTOL * ||m||, 0) are clamped to zero;
    anything more negative raises :class:`NotPSDError`.
    """
    _, w, q = _as_psd(m)
    return _rebuild(q, np.sqrt(w))

