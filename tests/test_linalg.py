import math

import numpy as np
import pytest

from rmtlab.linalg import (HermitianMatrix, RngHandle, _philox_key, eigenvalues_hermitian,
                           gaussian_complex, standard_complex_normals)


# --- independent oracles -------------------------------------------------------

def jacobi_eigenvalues(a: np.ndarray, sweeps: int = 60) -> np.ndarray:
    """Cyclic complex Jacobi rotations; independent of LAPACK."""
    a = a.astype(complex).copy()
    n = a.shape[0]
    for _ in range(sweeps):
        off = math.sqrt(float(np.sum(np.abs(np.tril(a, -1)) ** 2)))
        if off <= 1e-13 * max(1.0, float(np.max(np.abs(a)))):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < 1e-300:
                    continue
                phi = apq / abs(apq)
                tau = (a[q, q].real - a[p, p].real) / (2.0 * abs(apq))
                t = (1.0 if tau >= 0 else -1.0) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rot = np.eye(n, dtype=complex)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s * phi
                rot[q, p] = -s * np.conj(phi)
                a = rot.conj().T @ a @ rot
    return np.sort(np.real(np.diag(a)))


# cubic-root oracle, frozen: the characteristic polynomial of
# H3 = [[2, 1-1j, 0], [1+1j, 3, 1j], [0, -1j, 1]] is -x^3 + 6x^2 - 8x + 2
# (cofactor expansion: (2-x)(3-x)(1-x) - (2-x) - 2(1-x)); the trigonometric
# method for three real roots gives the values below.
H3 = np.array([[2, 1 - 1j, 0], [1 + 1j, 3, 1j], [0, -1j, 1]])
H3_ROOTS = (0.32486912943335344, 1.4608111271891115, 4.214319743377535)


def solve_depressed_cubic(c3, c2, c1, c0):
    a, b, c = c2 / c3, c1 / c3, c0 / c3
    p = b - a * a / 3.0
    q = 2.0 * a**3 / 27.0 - a * b / 3.0 + c
    m = 2.0 * math.sqrt(-p / 3.0)
    theta = math.acos(3.0 * q / (p * m)) / 3.0
    return sorted(m * math.cos(theta - 2.0 * math.pi * k / 3.0) - a / 3.0
                  for k in range(3))


def test_cubic_oracle_reproduces_frozen_roots():
    assert np.allclose(solve_depressed_cubic(-1.0, 6.0, -8.0, 2.0), H3_ROOTS, atol=1e-12)


def test_eigenvalues_match_characteristic_roots():
    h = HermitianMatrix.from_array(H3)
    assert np.allclose(eigenvalues_hermitian(h), H3_ROOTS, atol=1e-10)


def test_identity_and_2x2():
    eye = HermitianMatrix.from_array(np.eye(4, dtype=complex))
    assert np.allclose(eigenvalues_hermitian(eye), [1, 1, 1, 1])
    h = HermitianMatrix.from_array(np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex))
    assert np.allclose(eigenvalues_hermitian(h), [1.0, 3.0])


def test_matches_independent_jacobi():
    rng = RngHandle(17, 0)
    for n in (3, 5, 8, 12):
        h = HermitianMatrix.from_upper(standard_complex_normals(rng.substream(n), (n, n)))
        mine = eigenvalues_hermitian(h)
        assert np.allclose(mine, jacobi_eigenvalues(h.data), atol=1e-9 * n)


def test_rejects_non_finite():
    data = np.eye(3, dtype=complex)
    data[0, 0] = np.nan
    h = HermitianMatrix(3, data)
    with pytest.raises(ValueError):
        eigenvalues_hermitian(h)


def test_hermitian_invariants_enforced():
    with pytest.raises(ValueError):
        HermitianMatrix.from_array(np.array([[1.0, 2.0], [3.0, 1.0]]))
    h = HermitianMatrix.from_upper(np.array([[1 + 2j, 3 + 4j], [0, 5 - 1j]]))
    assert np.array_equal(h.data, h.data.conj().T)
    assert np.all(np.imag(np.diag(h.data)) == 0)



def parent_assembly(upper: np.ndarray) -> np.ndarray:
    """The earlier from_upper: triu copy, add its conjugate transpose, real diagonal."""
    arr = np.triu(upper, k=1)
    full = arr + arr.conj().T
    full[np.diag_indices(upper.shape[0])] = np.real(np.diagonal(upper))
    return full


@pytest.mark.parametrize("shape", [(3,), (2, 3), (3, 2), (2, 2, 2), ()])
def test_from_upper_rejects_non_square(shape):
    with pytest.raises(ValueError):
        HermitianMatrix.from_upper(np.zeros(shape, dtype=complex))


@pytest.mark.parametrize("n", [1, 2, 5, 33])
def test_from_upper_reads_strict_upper_and_real_diagonal(n):
    upper = standard_complex_normals(RngHandle(41, n), (n, n))
    before = upper.copy()
    h = HermitianMatrix.from_upper(upper)
    assert np.array_equal(upper, before)
    assert not h.data.flags.writeable
    assert h.data.dtype == complex
    assert h.data.tobytes() == parent_assembly(upper).tobytes()
    # what lies below the diagonal does not count
    scrambled = upper.copy()
    scrambled[np.tril_indices(n, k=-1)] = 7.0 - 3.0j
    assert HermitianMatrix.from_upper(scrambled).data.tobytes() == h.data.tobytes()


@pytest.mark.parametrize("n", [1, 2, 5, 33])
def test_from_triangle_scatters_the_upper_triangle_it_is_given(n):
    rng = RngHandle(47, n)
    m = n * (n - 1) // 2
    x, y, diag = rng.normals(m), rng.normals(m), rng.normals(n)
    before = [a.copy() for a in (x, y, diag)]
    h = HermitianMatrix.from_triangle(x, y, diag, {"kind": "test"})
    assert all(np.array_equal(a, b) for a, b in zip((x, y, diag), before))
    assert not h.data.flags.writeable
    assert h.meta == {"kind": "test"}
    upper = np.zeros((n, n), dtype=complex)
    upper[np.triu_indices(n, k=1)] = x + 1j * y
    upper[np.diag_indices(n)] = diag
    assert h.data.tobytes() == parent_assembly(upper).tobytes()


@pytest.mark.parametrize("sizes", [(2, 3, 3), (3, 2, 3), (3, 3, 4), (0, 0, 0)])
def test_from_triangle_rejects_mismatched_lengths(sizes):
    with pytest.raises(ValueError):
        HermitianMatrix.from_triangle(*(np.zeros(k) for k in sizes))
    with pytest.raises(ValueError):
        HermitianMatrix.from_triangle(np.zeros(3), np.zeros(3), np.zeros((3, 1)))
    read_only = np.zeros(3)
    read_only.flags.writeable = False
    with pytest.raises(ValueError):  # y is negated in place and back
        HermitianMatrix.from_triangle(np.zeros(3), read_only, np.zeros(3))


def test_from_upper_real_and_non_contiguous_input():
    rng = RngHandle(43, 0)
    real = rng.normals((6, 6))
    before = real.copy()
    h = HermitianMatrix.from_upper(real)
    assert np.array_equal(real, before)
    assert not h.data.flags.writeable
    assert np.array_equal(h.data, parent_assembly(real))
    # a transposed view and a strided slice are read in logical, not memory, order
    base = standard_complex_normals(rng, (12, 12))
    base_before = base.copy()
    for view in (base.T, base[::2, ::2], base[1:7, 2:8]):
        assert not view.flags.c_contiguous
        h = HermitianMatrix.from_upper(view)
        assert not h.data.flags.writeable
        assert h.data.tobytes() == parent_assembly(view).tobytes()
    assert np.array_equal(base, base_before)


def test_trace_identities():
    rng = RngHandle(23, 0)
    for n in (4, 16, 64):
        h = HermitianMatrix.from_upper(standard_complex_normals(rng.substream(n), (n, n)))
        lam = eigenvalues_hermitian(h)
        scale = n * h.maxabs()
        assert abs(lam.sum() - h.trace()) <= 1e-9 * scale
        assert abs((lam**2).sum() - h.trace_square()) <= 1e-8 * n * h.maxabs() ** 2


def test_shift_identity():
    rng = RngHandle(29, 0)
    n, c = 6, 0.7
    h = HermitianMatrix.from_upper(standard_complex_normals(rng, (n, n)))
    shifted = HermitianMatrix.from_array(h.data + c * np.eye(n))
    assert np.allclose(eigenvalues_hermitian(shifted),
                       eigenvalues_hermitian(h) + c, atol=1e-10)


# --- randomness ------------------------------------------------------------------

def test_gaussian_complex_deterministic():
    rng = RngHandle(42, 0)
    a, b = gaussian_complex(rng, 1.0), gaussian_complex(rng, 1.0)
    rng2 = RngHandle(42, 0)
    assert a != b
    assert (gaussian_complex(rng2, 1.0), gaussian_complex(rng2, 1.0)) == (a, b)


def test_gaussian_complex_rejects_bad_stddev():
    with pytest.raises(ValueError):
        gaussian_complex(RngHandle(1, 0), 0.0)
    with pytest.raises(ValueError):
        gaussian_complex(RngHandle(1, 0), -1.0)


def test_gaussian_complex_variance_million_draws():
    draws = standard_complex_normals(RngHandle(7, 0), 10**6, 1.0)
    assert 0.49 <= float(np.var(draws.real)) <= 0.51
    assert 0.49 <= float(np.var(draws.imag)) <= 0.51
    assert abs(float(np.mean(draws.real))) < 5e-3


def test_substreams_reproducible_and_decorrelated():
    base = RngHandle(99, 0)
    child = base.substream(3, 1)
    again = RngHandle(99, 0).substream(3, 1)
    x = child.normals(1000)
    assert np.array_equal(x, again.normals(1000))
    other = RngHandle(99, 0).substream(3, 2)
    y = other.normals(1000)
    corr = float(np.corrcoef(x, y)[0, 1])
    assert abs(corr) < 0.12  # ~3.8 sigma band for independent streams


@pytest.mark.parametrize("seed, stream", [
    (5, 3), (0, 2 ** 63 - 1), (5, 2 ** 63), (5, 2 ** 63 + 12345), (2 ** 53 - 1, 2 ** 64 - 2049),
    (2 ** 63 + 7, 3)])
def test_philox_key_is_what_numpy_derives_from_the_pair(seed, stream):
    # a pair with a value of at least 2**63 goes through float64, rounding to 53 bits
    want = np.random.Philox(key=[seed, stream]).state["state"]["key"]
    got = _philox_key(seed, stream)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert RngHandle(seed, stream)._gen.bit_generator.state["state"]["key"].tobytes() \
        == want.tobytes()
