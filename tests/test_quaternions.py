from __future__ import annotations

import json

import numpy as np
import pytest

from qopuc.errors import NotInImage
from qopuc.quaternions import (
    SliceFrame, chi, chi_inv, chi_mat, from_frame_coords, qarr_abs, qarr_conj, qarr_inv,
    qarr_mul, qarr_norm_sq, qmul_parts, right_eigen_slice,
)
from conftest import (
    ONE, QI, QJ, QK, Quaternion, block_permutation, blockwise_chi, chi_scalar,
    from_split_scalar, qbytes, qmat_conj_T, qmat_mul, qmul_scalar, random_frame,
    random_qmatrix, random_quaternion, signed_zero_coeff_arrays, signed_zero_frames,
)


def test_defining_relations():
    assert QI * QJ == QK
    assert QI * QI == Quaternion(-1)
    assert QJ * QJ == Quaternion(-1)
    assert QK * QK == Quaternion(-1)
    p = Quaternion(1.5, -2.0, 0.25, 3.0)
    assert ONE * p == p
    assert p * ONE == p
    # the library's product, on component tuples and on (4,) arrays
    one, i, j, k = np.eye(4)
    assert qmul_parts(tuple(i), tuple(j)) == tuple(k)
    assert np.array_equal(qarr_mul(i, j), k)
    for unit in (i, j, k):
        assert np.array_equal(qarr_mul(unit, unit), -one)
    p = p.to_array()
    assert np.array_equal(qarr_mul(one, p), p)
    assert np.array_equal(qarr_mul(p, one), p)


def test_mul_bilinear_associative(rng):
    for _ in range(50):
        a, b, c = (random_quaternion(rng) for _ in range(3))
        lhs = (a * b) * c
        rhs = a * (b * c)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(a) * abs(b) * abs(c))
        s = 0.7
        assert abs((a * s) * b - (a * b) * s) < 1e-12
        a, b, c = a.to_array(), b.to_array(), c.to_array()
        lhs = qarr_mul(qarr_mul(a, b), c)
        rhs = qarr_mul(a, qarr_mul(b, c))
        assert qarr_abs(lhs - rhs) < 1e-12 * max(1.0, qarr_abs(a) * qarr_abs(b) * qarr_abs(c))
        assert qarr_abs(qarr_mul(a * s, b) - qarr_mul(a, b) * s) < 1e-12


def test_norm_multiplicative_and_conj(rng):
    for _ in range(100):
        p = random_quaternion(rng)
        q = random_quaternion(rng)
        assert abs(abs(p * q) - abs(p) * abs(q)) < 1e-11 * max(1.0, abs(p) * abs(q))
        cp = p.conjugate() * p
        assert abs(cp - Quaternion(p.norm_sq())) < 1e-12 * max(1.0, p.norm_sq())
        # the array forms: the same relations, and the oracle's inverse bit for bit
        inv = p.inverse().to_array()
        p, q = p.to_array(), q.to_array()
        norm = qarr_abs(p) * qarr_abs(q)
        assert abs(qarr_abs(qarr_mul(p, q)) - norm) < 1e-11 * max(1.0, norm)
        nsq = qarr_norm_sq(p)
        cp = qarr_mul(qarr_conj(p), p)
        assert qarr_abs(cp - (nsq, 0.0, 0.0, 0.0)) < 1e-12 * max(1.0, nsq)
        assert qarr_inv(p).tobytes() == inv.tobytes()
        assert qarr_abs(qarr_mul(p, qarr_inv(p)) - ONE.to_array()) < 1e-12


def test_split_standard_frame(frame):
    z1, z2 = chi(Quaternion(1, 2, 3, 4).to_array(), frame)[0]
    assert z1 == 1 + 2j and z2 == 3 + 4j
    z1, z2 = chi(Quaternion(5).to_array(), frame)[0]
    assert z1 == 5 + 0j and z2 == 0j


def test_split_reassembly_random_frames(rng):
    for _ in range(50):
        fr = random_frame(rng)
        p = random_quaternion(rng)
        z1, z2 = chi(p.to_array(), fr)[0]
        back = from_split_scalar(fr, z1, z2)
        assert abs(back - p) < 4 * np.finfo(float).eps * max(1.0, abs(p))


def test_frame_validation():
    i, j = QI.to_array(), QJ.to_array()
    with pytest.raises(ValueError, match="^frame generator i is not purely imaginary$"):
        SliceFrame((0.1, 1, 0, 0), j)
    with pytest.raises(ValueError, match="^frame generator j is not a unit quaternion$"):
        SliceFrame(i, (0, 0, 2, 0))
    with pytest.raises(ValueError, match="^frame generators are not orthogonal$"):
        SliceFrame(i, i)
    k = Quaternion.from_array(SliceFrame(i, j).k)
    assert k == QK
    assert abs(k * k + ONE) == 0


def test_frame_units_bitwise_equal_to_quaternion_oracle(rng):
    # read-only (4,) units: k = i j, the JSON form and its round trip through
    # JSON text give the bits of the oracle's product and of its JSON
    for fr in signed_zero_frames(rng, 22):
        i, j = Quaternion.from_array(fr.i), Quaternion.from_array(fr.j)
        assert fr.k.tobytes() == qmul_scalar(i, j).to_array().tobytes()
        assert all(unit.shape == (4,) and not unit.flags.writeable
                   for unit in (fr.i, fr.j, fr.k))
        text = json.dumps(fr.to_json())
        assert text == json.dumps({"i": i.to_json(), "j": j.to_json()})
        back = SliceFrame.from_json(json.loads(text))
        assert b"".join(u.tobytes() for u in (back.i, back.j, back.k)) == \
            b"".join(u.tobytes() for u in (fr.i, fr.j, fr.k))


def test_chi_basics(frame):
    assert np.allclose(chi(ONE.to_array(), frame), np.eye(2))
    assert np.allclose(chi(QJ.to_array(), frame), np.array([[0, 1], [-1, 0]]))


def test_chi_homomorphism_isometry(rng):
    for _ in range(100):
        fr = random_frame(rng)
        p = random_quaternion(rng)
        q = random_quaternion(rng)
        Mp, Mq = chi(p.to_array(), fr), chi(q.to_array(), fr)
        scale = max(1.0, abs(p) * abs(q))
        assert np.max(np.abs(chi((p * q).to_array(), fr) - Mp @ Mq)) < 1e-12 * scale
        assert np.max(np.abs(chi(p.conjugate().to_array(), fr) - Mp.conj().T)) < \
            1e-14 * max(1.0, abs(p))
        assert abs(np.linalg.norm(Mp, 2) - abs(p)) < 1e-12 * max(1.0, abs(p))


def test_chi_inv_round_trip(rng):
    for _ in range(50):
        fr = random_frame(rng)
        p = random_quaternion(rng)
        back = Quaternion.from_array(chi_inv(chi(p.to_array(), fr), fr))
        assert abs(back - p) < 1e-12 * max(1.0, abs(p))
    assert Quaternion.from_array(chi_inv(np.eye(2), SliceFrame.standard())) == ONE


def test_chi_inv_rejects_structure_violations(frame):
    with pytest.raises(NotInImage):
        chi_inv(np.diag([1.0, 2.0]), frame)
    # the residual is checked over the whole stack, and NaN does not pass
    stack = chi(np.array([[0.5, 0.1, 0.0, 0.2], [0.3, 0.0, -0.4, 0.0]]), frame)
    stack[1, 1, 1] += 1e-9
    with pytest.raises(NotInImage):
        chi_inv(stack, frame)
    stack[1, 1, 1] = np.nan
    with pytest.raises(NotInImage):
        chi_inv(stack, frame)
    assert chi_inv(np.empty((0, 2, 2)), frame).shape == (0, 4)


def _signed_zero_coordinates(rng, n):
    """n random complex pairs, a quarter of their parts replaced by 0.0 or -0.0."""
    z = rng.normal(size=(4, n)) * 10.0 ** rng.integers(-3, 4, size=(4, n))
    mask = rng.random(size=z.shape) < 0.25
    z[mask] = rng.choice([0.0, -0.0], size=int(mask.sum()))
    z1, z2 = np.empty(n, dtype=complex), np.empty(n, dtype=complex)
    z1.real, z1.imag, z2.real, z2.imag = z
    return z1, z2


def test_from_frame_coords_bitwise_equal_to_quaternion_sum(rng):
    # 300 frames, signed zeros included: the array kernel on an array and on
    # one pair, and chi_inv on a stack, give the bits of the per-value
    # Quaternion sum
    for fr in signed_zero_frames(rng, 300):
        z1, z2 = _signed_zero_coordinates(rng, 12)
        want = qbytes(from_split_scalar(fr, a, b) for a, b in zip(z1, z2))
        assert from_frame_coords(z1, z2, fr).tobytes() == want
        assert qbytes(Quaternion.from_array(from_frame_coords(complex(a), complex(b), fr))
                      for a, b in zip(z1, z2)) == want
        stack = np.empty((12, 2, 2), dtype=complex)
        stack[:, 0, 0], stack[:, 0, 1] = z1, z2
        stack[:, 1, 0], stack[:, 1, 1] = -np.conj(z2), np.conj(z1)
        assert chi_inv(stack, fr).tobytes() == want
        assert chi_inv(stack.reshape(3, 4, 2, 2), fr).tobytes() == want


def test_chi_mat_scalar_case(frame):
    A = np.array([[ONE.to_array()]])
    assert np.array_equal(chi_mat(A, frame), np.eye(2, dtype=complex))


def test_chi_mat_multiplicative(rng):
    for _ in range(20):
        fr = random_frame(rng)
        A = random_qmatrix(rng, 3)
        B = random_qmatrix(rng, 3)
        lhs = chi_mat(qmat_mul(A, B), fr)
        rhs = chi_mat(A, fr) @ chi_mat(B, fr)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_chi_mat_positivity(rng, frame):
    # Hermitian PD quaternionic matrix -> Hermitian PD complex matrix
    for _ in range(10):
        B = random_qmatrix(rng, 3)
        A = qmat_mul(B, qmat_conj_T(B))
        A[np.arange(3), np.arange(3), 0] += 0.5  # push eigenvalues off zero
        M = chi_mat(A, frame)
        assert np.max(np.abs(M - M.conj().T)) < 1e-12
        np.linalg.cholesky(M)  # raises if not PD


def test_block_permutation_printed_matrices():
    assert np.array_equal(block_permutation(1), np.eye(2, dtype=int))
    U2 = np.array([
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ])
    assert np.array_equal(block_permutation(2), U2)
    U3 = np.array([
        [1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 1],
    ])
    assert np.array_equal(block_permutation(3), U3)


def test_block_permutation_conjugation_exact(rng):
    for n in range(1, 7):
        fr = random_frame(rng)
        A = random_qmatrix(rng, n)
        U = block_permutation(n)
        lhs = chi_mat(A, fr)
        rhs = U @ blockwise_chi(A, fr) @ U.T
        assert np.array_equal(lhs, rhs)  # a permutation of entries: bitwise equal


def test_right_eigen_slice_small_cases(frame):
    A = np.array([[Quaternion(2.5).to_array()]])
    vals = sorted(right_eigen_slice(A, frame).real)
    assert np.allclose(vals, [2.5, 2.5])
    A = np.array([[QI.to_array()]])
    vals = sorted(right_eigen_slice(A, frame), key=lambda z: z.imag)
    assert np.allclose(vals, [-1j, 1j])


def test_right_eigen_slice_conjugation_symmetry(rng):
    from conftest import multiset_distance
    for _ in range(10):
        fr = random_frame(rng)
        A = random_qmatrix(rng, 3)
        vals = right_eigen_slice(A, fr)
        assert multiset_distance(vals, np.conj(vals)) < 1e-9


def test_right_eigen_slice_hermitian(rng, frame):
    for _ in range(5):
        B = random_qmatrix(rng, 3)
        A = 0.5 * (B + qmat_conj_T(B))
        vals = right_eigen_slice(A, frame)
        assert np.max(np.abs(vals.imag)) < 1e-9
        re = np.sort(vals.real)
        # conjugate-coincident pairs
        assert np.max(np.abs(re[0::2] - re[1::2])) < 1e-9
        # characteristic polynomial oracle
        M = chi_mat(A, frame)
        for lam in vals:
            cofactor = np.linalg.svd(M - lam * np.eye(6), compute_uv=False)
            assert cofactor[-1] < 1e-9 * max(1.0, cofactor[0])


def test_qarr_helpers(rng):
    a = rng.normal(size=(5, 4))
    b = rng.normal(size=(5, 4))
    prod = qarr_mul(a, b)
    for i in range(5):
        expected = Quaternion.from_array(a[i]) * Quaternion.from_array(b[i])
        assert np.allclose(prod[i], expected.to_array())
    assert np.allclose(qarr_abs(a), [abs(Quaternion.from_array(r)) for r in a])


def test_qarr_mul_bitwise_equal_to_scalar_product(rng):
    rows = np.concatenate(signed_zero_coeff_arrays(rng) + [rng.normal(size=(40, 4))])
    a, b = rows, rng.permutation(rows)
    prod = qarr_mul(a, b)
    for k in range(len(a)):
        want = qmul_scalar(Quaternion(*a[k]), Quaternion(*b[k])).to_array()
        assert prod[k].tobytes() == want.tobytes()
        assert (Quaternion(*a[k]) * Quaternion(*b[k])).to_array().tobytes() == want.tobytes()
    # broadcasting one factor against a stack gives the same bits
    assert qarr_mul(a[3], b).tobytes() == qarr_mul(np.broadcast_to(a[3], b.shape), b).tobytes()


def test_chi_on_arrays_bitwise_equal_to_scalar_chi(rng):
    rows = np.concatenate(signed_zero_coeff_arrays(rng) + [rng.normal(size=(40, 4))])
    for fr in (SliceFrame.standard(), random_frame(rng)):
        want = np.array([chi_scalar(Quaternion(*q), fr) for q in rows])
        assert chi(rows, fr).tobytes() == want.tobytes()
        assert chi(rows[5], fr).tobytes() == want[5].tobytes()
        for k, q in enumerate(rows):
            z1, z2 = chi(Quaternion(*q).to_array(), fr)[0]
            assert np.array([z1, z2]).tobytes() == want[k, 0].tobytes()
        A = rows[:36].reshape(6, 6, 4)
        blocks = want[:36].reshape(6, 6, 2, 2)
        assert blockwise_chi(A, fr).tobytes() == \
            blocks.transpose(0, 2, 1, 3).reshape(12, 12).tobytes()
        M = chi_mat(A, fr)
        assert M[:6, :6].tobytes() == np.ascontiguousarray(blocks[:, :, 0, 0]).tobytes()
        assert M[:6, 6:].tobytes() == np.ascontiguousarray(blocks[:, :, 0, 1]).tobytes()
