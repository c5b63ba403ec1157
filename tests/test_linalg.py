import numpy as np
import pytest

from afrelay.linalg import (
    NotHermitianError,
    NotPSDError,
    SingularMatrixError,
    eig_hermitian_ordered,
    herm_inv_sqrt,
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


class TestHermInvSqrt:
    def test_identity(self):
        assert np.allclose(herm_inv_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal_example(self):
        r = herm_inv_sqrt(np.diag([4.0, 9.0]))
        assert np.allclose(r, np.diag([0.5, 1.0 / 3.0]))

    def test_random_pd_sandwich(self):
        rng = np.random.default_rng(9)
        a = _rand_complex(rng, 5, 5)
        m = a @ a.conj().T + np.eye(5)
        r = herm_inv_sqrt(m)
        assert np.linalg.norm(r @ m @ r - np.eye(5)) <= 1e-8

    def test_rejects_ill_conditioned(self):
        with pytest.raises(SingularMatrixError):
            herm_inv_sqrt(np.diag([1.0, 1e-14]))
        with pytest.raises(SingularMatrixError):
            herm_inv_sqrt(np.zeros((2, 2)))
