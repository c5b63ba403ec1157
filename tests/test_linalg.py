import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import afrelay.linalg as linalg_mod
from afrelay.linalg import (
    TIE_RTOL,
    NotHermitianError,
    NotPSDError,
    eig_hermitian_ordered,
    herm_sqrt,
    svd_ordered,
)


def _rand_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestSvdOrdered:
    def test_diagonal_input_gives_permuted_identity(self):
        s = svd_ordered(np.diag([1.0, 2.0]))
        assert np.allclose(s.values, [2.0, 1.0])
        assert np.allclose(np.abs(s.left), [[0, 1], [1, 0]])
        assert np.allclose(np.abs(s.right), [[0, 1], [1, 0]])
        assert np.allclose(s.reconstruct(), np.diag([1.0, 2.0]))

    def test_identity_is_exact(self):
        s = svd_ordered(np.eye(3))
        assert np.array_equal(s.values, np.ones(3))
        assert np.array_equal(s.reconstruct(), np.eye(3))
        # the tie convention pins the degenerate block to the identity
        assert np.array_equal(s.left, np.eye(3))
        assert np.array_equal(s.right, np.eye(3))

    def test_random_rectangular_reconstruction(self):
        rng = np.random.default_rng(1)
        m = _rand_complex(rng, 4, 3)
        s = svd_ordered(m)
        rel = np.linalg.norm(s.reconstruct() - m) / np.linalg.norm(m)
        assert rel <= 1e-9

    def test_stack_reconstruction(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2))
        s = svd_ordered(m)
        assert s.left.shape == (3, 4, 4) and s.right.shape == (3, 2, 2)
        out = s.reconstruct()
        assert out.shape == m.shape
        for b in range(3):
            assert np.linalg.norm(out[b] - m[b]) <= 1e-9 * np.linalg.norm(m[b])
            assert np.array_equal(out[b], svd_ordered(m[b]).reconstruct())

    def test_invariants_on_1000_random_matrices(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            rows = int(rng.integers(1, 7))
            cols = int(rng.integers(1, 7))
            m = _rand_complex(rng, rows, cols)
            s = svd_ordered(m)
            assert np.linalg.norm(s.left.conj().T @ s.left - np.eye(rows)) <= 1e-10
            assert np.linalg.norm(s.right.conj().T @ s.right - np.eye(cols)) <= 1e-10
            rel = np.linalg.norm(s.reconstruct() - m) / max(np.linalg.norm(m), 1e-300)
            assert rel <= 1e-9
            assert np.all(np.diff(s.values) <= 0)
            assert np.all(s.values >= 0)

    def test_phase_convention_dominant_entry_real_nonnegative(self):
        rng = np.random.default_rng(3)
        m = _rand_complex(rng, 5, 4)
        s = svd_ordered(m)
        for j in range(s.left.shape[1]):
            col = s.left[:, j]
            dom = col[np.argmax(np.abs(col))]
            assert abs(dom.imag) <= 1e-12 * abs(dom)
            assert dom.real >= 0

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(4)
        m = _rand_complex(rng, 6, 4)
        a = svd_ordered(m)
        b = svd_ordered(m.copy())
        assert a.left.tobytes() == b.left.tobytes()
        assert a.values.tobytes() == b.values.tobytes()
        assert a.right.tobytes() == b.right.tobytes()

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            svd_ordered(np.array([[1.0, np.nan], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            svd_ordered(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize(
        "factor,m,match",
        [
            (svd_ordered, np.zeros((1, 2, 2, 2)), "2-D or a"),
            (eig_hermitian_ordered, np.zeros((2, 3)), "must be square"),
        ],
    )
    def test_rejects_malformed_shapes(self, factor, m, match):
        with pytest.raises(ValueError, match=match):
            factor(m)


class TestEigHermitianOrdered:
    def test_weight_matrix_example(self):
        e = eig_hermitian_ordered(np.diag([0.3, 0.3, 0.2, 0.2]))
        assert np.allclose(e.values, [0.3, 0.3, 0.2, 0.2])
        assert np.array_equal(e.vectors, np.eye(4))

    def test_identity(self):
        e = eig_hermitian_ordered(np.eye(3))
        assert np.array_equal(e.values, np.ones(3))
        assert np.array_equal(e.vectors, np.eye(3))

    def test_random_psd_reconstruction(self):
        rng = np.random.default_rng(5)
        a = _rand_complex(rng, 4, 4)
        m = a @ a.conj().T
        e = eig_hermitian_ordered(m)
        rel = np.linalg.norm(e.reconstruct() - m) / np.linalg.norm(m)
        assert rel <= 1e-9
        assert np.all(np.diff(e.values) <= 0)

    def test_stack_reconstruction(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        m = a + a.conj().swapaxes(-1, -2)
        e = eig_hermitian_ordered(m)
        assert e.vectors.shape == (3, 4, 4) and e.values.shape == (3, 4)
        out = e.reconstruct()
        assert out.shape == m.shape
        for b in range(3):
            assert np.linalg.norm(out[b] - m[b]) <= 1e-9 * np.linalg.norm(m[b])
            assert np.array_equal(out[b], eig_hermitian_ordered(m[b]).reconstruct())

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(6)
        a = _rand_complex(rng, 5, 5)
        m = a @ a.conj().T
        x = eig_hermitian_ordered(m)
        y = eig_hermitian_ordered(m.copy())
        assert x.vectors.tobytes() == y.vectors.tobytes()

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            eig_hermitian_ordered(np.array([[1.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_rejects_non_hermitian_at_any_scale(self, scale):
        # At 1e200 every square overflows, at 1e-200 every one underflows.
        with pytest.raises(NotHermitianError):
            eig_hermitian_ordered(scale * np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_hermitian_and_skew_parts_near_the_largest_double(self):
        # Halving comes before the sum and the difference, so neither
        # overflows: a skew matrix near 1e308 is refused and a Hermitian
        # one kept bit for bit, with no RuntimeWarning.
        h = 1e308 * np.array([[1.0, 0.5j], [-0.5j, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotHermitianError):
                eig_hermitian_ordered(1e308 * np.array([[1.0, -1.0], [1.0, 1.0]]))
            assert linalg_mod._as_hermitian(h).tobytes() == h.tobytes()

    def test_hermitian_part_keeps_the_bits_of_the_plain_average(self):
        rng = np.random.default_rng(3)
        for scale in (1e-300, 1e-10, 1.0, 1e10, 1e300):
            a = scale * _rand_complex(rng, 5, 5)
            assert linalg_mod._herm(a).tobytes() == (0.5 * (a + a.conj().T)).tobytes()

    def test_refuses_non_finite_eigenvalues(self):
        # Finite entries whose eigenvalue overflows: eigh returns inf.
        big = 1e308 * np.ones((2, 2))
        with pytest.raises(NotPSDError, match="weight has a non-finite eigenvalue"):
            linalg_mod._as_psd(big, "weight")
        with pytest.raises(NotPSDError, match=r"non-finite eigenvalue \(stack entry 1\)"):
            herm_sqrt(np.stack([np.eye(2), big]))


class TestHermSqrt:
    def test_identity(self):
        assert np.allclose(herm_sqrt(np.eye(3)), np.eye(3))

    def test_scaled_identity(self):
        assert np.allclose(herm_sqrt(4.0 * np.eye(2)), 2.0 * np.eye(2))

    def test_random_psd_squared_residual(self):
        rng = np.random.default_rng(7)
        a = _rand_complex(rng, 5, 5)
        m = a @ a.conj().T
        s = herm_sqrt(m)
        assert np.linalg.norm(s - s.conj().T) <= 1e-12 * np.linalg.norm(s)
        assert np.linalg.norm(s @ s - m) <= 1e-9 * np.linalg.norm(m)

    def test_composition_invariant(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            a = _rand_complex(rng, 4, 4)
            m = a @ a.conj().T
            s = herm_sqrt(m)
            assert np.linalg.norm(s @ s - m) <= 1e-9 * np.linalg.norm(m)

    def test_small_negative_eigenvalues_are_clamped(self):
        m = np.diag([1.0, -1e-13])
        s = herm_sqrt(m)
        assert np.allclose(s, np.diag([1.0, 0.0]), atol=1e-9)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSDError):
            herm_sqrt(np.diag([1.0, -0.5]))


# The per-matrix tie sort that the stacked ``np.lexsort`` in
# ``linalg._sort_ties`` replaced, kept as the reference it must match bit
# for bit: tie groups found by a loop, each sorted by a Python tuple key.
def _lex_key(col):
    key = np.empty(2 * col.shape[0])
    key[0::2] = col.real
    key[1::2] = col.imag
    return tuple(key.tolist())


def _tie_groups(values, rtol=TIE_RTOL):
    n = values.shape[0]
    if n == 0:
        return []
    scale = max(float(np.max(np.abs(values))), 1e-300)
    groups = []
    start = 0
    for i in range(1, n):
        if abs(values[i - 1] - values[i]) > rtol * scale:
            groups.append(slice(start, i))
            start = i
    groups.append(slice(start, n))
    return groups


def _sort_tied_columns(values, *column_sets):
    """Returns whether any column moved."""
    primary = column_sets[0]
    moved = False
    for grp in _tie_groups(values):
        if grp.stop - grp.start < 2:
            continue
        order = sorted(
            range(grp.start, grp.stop),
            key=lambda j: _lex_key(primary[:, j]),
            reverse=True,
        )
        if list(order) != list(range(grp.start, grp.stop)):
            moved = True
            for cols in column_sets:
                cols[:, grp] = cols[:, order]
    return moved


class _ReferenceSortTies:
    """The old router: the same untied pre-filter, then the per-matrix sort;
    counts the matrices it reorders."""

    def __init__(self):
        self.reordered = 0

    def __call__(self, values, *column_sets):
        if values.shape[-1] < 2:
            return
        scale = np.maximum(np.abs(values[..., :1]), np.abs(values[..., -1:]))
        tied = (values[..., :-1] - values[..., 1:] <= TIE_RTOL * scale).any(axis=-1)
        vals = values.reshape(-1, values.shape[-1])
        sets = [c.reshape(-1, *c.shape[-2:]) for c in column_sets]
        for i in np.flatnonzero(tied):
            self.reordered += _sort_tied_columns(vals[i], *(c[i] for c in sets))


def _unitary(rng, n):
    q, r = np.linalg.qr(_rand_complex(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _tied_values(rng, n):
    return rng.choice([0.0, 1.0, 2.0, 3.0], size=n, p=[0.1, 0.5, 0.3, 0.1])


def _tied_general(rng, kind, rows, cols):
    """A (rows, cols) matrix with repeated singular values."""
    if kind == "diagonal":
        m = np.zeros((rows, cols), dtype=complex)
        k = min(rows, cols)
        m[np.arange(k), np.arange(k)] = _tied_values(rng, k)
        return m
    if kind == "mixed":
        d = np.zeros((rows, cols))
        k = min(rows, cols)
        d[np.arange(k), np.arange(k)] = _tied_values(rng, k)
        return _unitary(rng, rows) @ d @ _unitary(rng, cols).conj().T
    if kind == "integer":
        return rng.integers(-1, 2, (rows, cols)) + 1j * rng.integers(-1, 2, (rows, cols))
    return 2.0 * np.eye(rows, cols)


def _tied_hermitian(rng, kind, n):
    """An (n, n) Hermitian matrix with repeated eigenvalues."""
    if kind == "diagonal":
        return np.diag(_tied_values(rng, n) - 1.0).astype(complex)
    if kind == "mixed":
        q = _unitary(rng, n)
        return (q * (_tied_values(rng, n) - 1.0)) @ q.conj().T
    if kind == "integer":
        a = rng.integers(-1, 2, (n, n)) + 1j * rng.integers(-1, 2, (n, n))
        return a + a.conj().T
    return np.eye(n, dtype=complex)


def _stacks(rng, tied, untied):
    """2-D inputs, B = 1 stacks and B > 1 stacks that mix tied matrices
    with untied random ones."""
    yield tied()
    yield tied()[None]
    yield np.stack([tied() if rng.random() < 0.5 else untied() for _ in range(int(rng.integers(2, 9)))])


class TestStackedTieSort:
    KINDS = ("diagonal", "mixed", "integer", "identity")

    def _check(self, monkeypatch, decompose, inputs):
        """Every input gives bit-identical factors with the stacked sort and
        the reference; returns the number of matrices and of reorderings."""
        ref = _ReferenceSortTies()
        matrices = 0
        for m in inputs:
            new = decompose(m)
            with monkeypatch.context() as mp:
                mp.setattr(linalg_mod, "_sort_ties", ref)
                old = decompose(m)
            for a, b in zip(vars(new).values(), vars(old).values()):
                assert np.array_equal(a, b)
            matrices += 1 if m.ndim == 2 else m.shape[0]
        return matrices, ref.reordered

    def test_svd_matches_per_matrix_reference(self, monkeypatch):
        rng = np.random.default_rng(40)

        def inputs():
            for _ in range(400):
                kind = self.KINDS[int(rng.integers(4))]
                shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
                yield from _stacks(
                    rng, lambda: _tied_general(rng, kind, *shape), lambda: _rand_complex(rng, *shape)
                )

        matrices, reordered = self._check(monkeypatch, svd_ordered, inputs())
        assert matrices >= 2000 and reordered >= 100

    def test_eig_matches_per_matrix_reference(self, monkeypatch):
        rng = np.random.default_rng(41)

        def untied(n):
            a = _rand_complex(rng, n, n)
            return a + a.conj().T

        def inputs():
            for _ in range(400):
                kind = self.KINDS[int(rng.integers(4))]
                n = int(rng.integers(1, 7))
                yield from _stacks(rng, lambda: _tied_hermitian(rng, kind, n), lambda: untied(n))

        matrices, reordered = self._check(monkeypatch, eig_hermitian_ordered, inputs())
        assert matrices >= 2000 and reordered >= 100

    def test_sort_ties_matches_reference_on_quantized_columns(self):
        # Entries from {-1, 0, 1} + 1j {-1, 0, 1} make keys collide in their
        # leading entries and repeat whole columns, which pins the key's
        # interleaving and the order of equal keys.
        rng = np.random.default_rng(42)
        ref = _ReferenceSortTies()
        for _ in range(500):
            b, rows, k = (int(x) for x in rng.integers((1, 1, 2), (6, 5, 6)))
            values = -np.sort(-rng.choice([0.0, 1.0, 2.0], size=(b, k)), axis=-1)
            sets = [
                rng.integers(-1, 2, (b, r, k)) + 1j * rng.integers(-1, 2, (b, r, k))
                for r in (rows, int(rng.integers(1, 5)))
            ]
            new = [c.copy() for c in sets]
            linalg_mod._sort_ties(values, *new)
            ref(values, *sets)
            for a, c in zip(new, sets):
                assert np.array_equal(a, c)
        assert ref.reordered >= 500


def _ldexp(a, k):
    """The complex stack ``a`` times 2^k, part by part."""
    return np.ldexp(a.real, k) + 1j * np.ldexp(a.imag, k)


@st.composite
def complex_stacks(draw, lowest=-1080):
    """A (B, m, n) complex stack whose matrices each sit at their own
    power-of-two scale, 2^lowest to 2^1018, with parts spread over 60
    binades below it, or over 1,100; a matrix's norm stays below the
    largest double."""
    shape = draw(st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4)))
    mantissas = st.one_of(
        st.just(0.0), st.floats(0.5, 1.0, exclude_max=True), st.floats(-1.0, -0.5, exclude_min=True)
    )
    parts = draw(hnp.arrays(np.float64, (2, *shape), elements=mantissas))
    width = draw(st.sampled_from([60, 1100]))
    spread = draw(hnp.arrays(np.int64, (2, *shape), elements=st.integers(-width, 0)))
    scale = draw(hnp.arrays(np.int64, (shape[0], 1, 1), elements=st.integers(lowest, 1018)))
    re, im = np.ldexp(parts, spread + scale)
    return re + 1j * im


@st.composite
def shifted_stacks(draw):
    """A stack of normal parts (a subnormal one is set to 0) and a k that
    keeps every nonzero part normal and at most 2^1018 in 2^k times it."""
    a = draw(complex_stacks(lowest=-950))
    for part in (a.real, a.imag):
        part[np.abs(part) < np.finfo(float).tiny] = 0.0
    parts = np.abs(np.stack([a.real, a.imag]))
    exps = np.frexp(parts[parts > 0])[1]
    lo, hi = (-1021 - int(exps.min()), 1018 - int(exps.max())) if exps.size else (-1100, 1100)
    return a, draw(st.integers(lo, hi))


# A stack of a matrix whose squares overflow, one whose squares underflow,
# one whose squares stay normal (it takes the scaled pass too) and one
# whose small part underflows even scaled.
_MIXED = np.array([[[1e200, 3e199j]], [[1e-200, -2e-201]], [[0.75 - 0.5j, 3.0]], [[1e200, 1e-200j]]])


class TestFroNorm:
    @settings(max_examples=120)
    @given(complex_stacks())
    @example(_MIXED)
    def test_keeps_the_plain_bits_where_no_square_leaves_the_normal_range(self, a):
        norm = linalg_mod._fro_norms(a)[0]
        with np.errstate(all="ignore"):
            plain = np.sqrt((a.real**2 + a.imag**2).sum(axis=(-2, -1)))
        normal = np.ones(len(a), dtype=bool)
        for i, m in enumerate(a):
            try:
                with np.errstate(over="raise", under="raise"):
                    (m.real**2 + m.imag**2).sum()
            except FloatingPointError:
                normal[i] = False
        assert np.array_equal(norm[normal], plain[normal])

    @settings(max_examples=120)
    @given(shifted_stacks())
    @example((_MIXED, 350))
    @example((np.array([[[2.0**-1022 * (1 + 1j)]]]), 1))  # the smallest normal parts
    def test_commutes_with_powers_of_two(self, shifted):
        a, k = shifted
        assert np.array_equal(
            linalg_mod._fro_norms(_ldexp(a, k))[0], np.ldexp(linalg_mod._fro_norms(a)[0], k)
        )

    @settings(max_examples=120)
    @given(complex_stacks())
    @example(_MIXED)
    def test_is_finite_and_accurate_at_any_finite_scale(self, a):
        # Even where the caller's error state warns on every event.
        with warnings.catch_warnings(), np.errstate(all="warn"):
            warnings.simplefilter("error")
            norm = linalg_mod._fro_norms(a)[0]
        assert np.isfinite(norm).all()
        for got, m in zip(norm, a):
            ref = math.hypot(*m.real.ravel(), *m.imag.ravel())
            assert abs(got - ref) <= 1e-14 * ref + 5e-324
