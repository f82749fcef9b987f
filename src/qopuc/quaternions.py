"""Quaternion arrays, slice frames, and the 2x2 complex embedding.

A slice frame is an ordered orthogonal pair (i, j) of imaginary units; it
fixes a complex plane C_i inside the quaternions and the embedding ``chi``
of quaternions into 2x2 complex matrices.  Once a frame is chosen, elements
of C_i are handled as ordinary Python complex numbers, which keeps all
matrix code frame-agnostic.

Quaternion data inside the library are plain float arrays of shape
(..., 4), the last axis holding coordinates in the basis (1, i, j, k):
moments and Verblunsky coefficients (n, 4), polynomial coefficients
(n+1, 4), quaternion matrices (n, n, 4); a frame holds its units i, j and
k as (4,) arrays.  ``Quaternion`` is a record the API hands out (a
``VerblunskySeq`` iterates as them) and has no arithmetic.  One Hamilton
product, ``qmul_parts``, serves floats, long-double scalars (route B's
gamma) and arrays; ``polynomials.eval_norm_sq`` reads its terms as a table,
in its order, to form a Horner step's 16 products in one multiply.
``chi`` is the library's one quaternion -> 2x2 embedding: ``chi_mat`` lays
its output out in 2n x 2n blocks, and the density grid reads the frame
coordinates (z1, z2) off its first row.  Its inverse split,
``from_frame_coords``, serves ``chi_inv`` and the density loader, so ``chi``
of a whole (..., 4) array and ``chi_inv`` of a whole (..., 2, 2) stack give
the bits of the per-quaternion sums.
``right_eigen_slice`` answers one quaternion matrix or a stack with one
LAPACK call.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence, NotInImage

# structural tolerance for membership in the embedding image
TAU_IMG = 1e-10
FRAME_TOL = 1e-12

class Quaternion:
    """An immutable quaternion w + x i + y j + z k, as the API hands one out:
    a record with its JSON form.  The library computes on (..., 4) arrays."""

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w=0.0, x=0.0, y=0.0, z=0.0):
        object.__setattr__(self, "w", float(w))
        object.__setattr__(self, "x", float(x))
        object.__setattr__(self, "y", float(y))
        object.__setattr__(self, "z", float(z))

    def __setattr__(self, name, value):
        raise AttributeError("Quaternion is immutable")

    def __repr__(self):
        return f"Quaternion({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"

    def to_json(self):
        return [self.w, self.x, self.y, self.z]


def qmul_parts(a, b) -> tuple:
    """Hamilton product of component tuples (w, x, y, z).

    The components may be floats or broadcastable arrays; the products are
    summed left to right in one fixed order, so the scalar and the array
    forms give the same bits.
    """
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw)


class SliceFrame:
    """An orthogonal pair (i, j) of imaginary units, with k = i j, each held
    as a read-only (4,) float array.

    Validated at construction: both generators purely imaginary, unit norm,
    and orthogonal in the coordinate sense, each to 1e-12.
    """

    __slots__ = ("i", "j", "k")

    def __init__(self, i, j):
        i, j = tuple(map(float, i)), tuple(map(float, j))
        for name, (w, x, y, z) in (("i", i), ("j", j)):
            if abs(w) > FRAME_TOL:
                raise ValueError(f"frame generator {name} is not purely imaginary")
            if abs(w * w + x * x + y * y + z * z - 1.0) > FRAME_TOL:
                raise ValueError(f"frame generator {name} is not a unit quaternion")
        if abs(float(np.dot(i[1:], j[1:]))) > FRAME_TOL:
            raise ValueError("frame generators are not orthogonal")
        for name, unit in (("i", i), ("j", j), ("k", qmul_parts(i, j))):
            unit = np.array(unit)
            unit.setflags(write=False)
            object.__setattr__(self, name, unit)

    def __setattr__(self, name, value):
        raise AttributeError("SliceFrame is immutable")

    @classmethod
    def standard(cls) -> "SliceFrame":
        return cls((0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0))

    def to_json(self):
        return {"i": self.i.tolist(), "j": self.j.tolist()}

    @classmethod
    def from_json(cls, obj) -> "SliceFrame":
        return cls(obj["i"], obj["j"])


def chi(p, frame: SliceFrame) -> np.ndarray:
    """The 2x2 complex image [[z1, z2], [-conj z2, conj z1]] of p, where
    (z1, z2) are p's frame coordinates, p = z1 + z2 j.

    ``p`` is an (..., 4) array (or a 4-sequence); it maps entrywise to an
    (..., 2, 2) array, so ``chi(poly.arr, frame)`` is the coefficientwise
    image of a polynomial.  ``np.vecdot`` gives the bits of a per-quaternion
    ``np.dot`` (``@`` and einsum do not), and the parts are assigned
    separately because ``a + 1j * b`` does not keep signed zeros.
    """
    p = np.asarray(p, dtype=float)
    im = p[..., 1:]
    out = np.empty(p.shape[:-1] + (2, 2), dtype=complex)
    z1, z2 = out[..., 0, 0], out[..., 0, 1]
    z1.real = p[..., 0]
    z1.imag = np.vecdot(im, frame.i[1:])
    z2.real = np.vecdot(im, frame.j[1:])
    z2.imag = np.vecdot(im, frame.k[1:])
    out[..., 1, 0] = -np.conj(z2)
    out[..., 1, 1] = np.conj(z1)
    return out


def chi_inv(M: np.ndarray, frame: SliceFrame) -> np.ndarray:
    """Invert the embedding: a (..., 2, 2) stack maps to the (..., 4) array of
    its quaternions; NotInImage unless the structural residual, the worst
    absolute defect over the stack in the identities M[1,1] = conj(M[0,0])
    and M[1,0] = -conj(M[0,1]), is at most TAU_IMG.
    """
    M = np.asarray(M, dtype=complex)
    residual = chi_image_residual(M)
    if not residual <= TAU_IMG:
        raise NotInImage(f"matrix is not in the embedding image "
                         f"(structural residual {residual:.3e} > {TAU_IMG:.1e})")
    return from_frame_coords(M[..., 0, 0], M[..., 0, 1], frame)


def chi_image_residual(M: np.ndarray) -> float:
    """The worst structural defect over a (..., 2, 2) stack (NaN propagates)."""
    M = np.asarray(M)
    defect = np.maximum(np.abs(M[..., 1, 1] - np.conj(M[..., 0, 0])),
                        np.abs(M[..., 1, 0] + np.conj(M[..., 0, 1])))
    return float(np.max(defect, initial=0.0))


# ---------------------------------------------------------------------
# quaternion arrays: shape (..., 4), basis (1, i, j, k)
# ---------------------------------------------------------------------

def qarr_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise (broadcast) Hamilton product of (..., 4) arrays."""
    parts = qmul_parts(np.moveaxis(np.asarray(a, dtype=float), -1, 0),
                       np.moveaxis(np.asarray(b, dtype=float), -1, 0))
    return np.stack(parts, axis=-1)


def qarr_inv(a: np.ndarray) -> np.ndarray:
    """Elementwise inverse conj(q) / |q|^2: each component of conj(q)
    divided by |q|^2."""
    return qarr_conj(a) / qarr_norm_sq(a)[..., None]


def qarr_conj(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out[..., 1:] *= -1.0
    return out


def qarr_norm_sq(a: np.ndarray) -> np.ndarray:
    """|q|^2 over an (..., 4) array, summed w^2 + x^2 + y^2 + z^2 left to
    right."""
    w, x, y, z = np.moveaxis(np.asarray(a, dtype=float), -1, 0)
    return w * w + x * x + y * y + z * z


def qarr_abs(a: np.ndarray) -> np.ndarray:
    """|q| over an (..., 4) array, the square root of ``qarr_norm_sq``.  Where
    |q|^2 overflows, q is scaled by 2^-600 first and |q| by 2^600 after, so a
    finite q's |q| is inf only beyond the float range, and no overflow
    warning escapes."""
    with np.errstate(over="ignore"):
        norm = np.sqrt(qarr_norm_sq(a))
        if np.isinf(norm).any():
            scaled = np.sqrt(qarr_norm_sq(np.multiply(a, 2.0 ** -600))) * 2.0 ** 600
            norm = np.where(np.isinf(norm), scaled, norm)
    return norm


def qarr_from(values) -> np.ndarray:
    """A fresh (n, 4) float array from an (n, 4) array or a sequence of
    4-sequences (w, x, y, z); ValueError for any other shape, so a flat list
    of reals is not read as quaternions four at a time."""
    arr = np.array(values, dtype=float)
    if arr.size and arr.shape[1:] != (4,):
        raise ValueError(f"quaternions must be rows of 4 components, got shape {arr.shape}")
    return arr.reshape(-1, 4)


def from_frame_coords(z1, z2, frame: SliceFrame) -> np.ndarray:
    """The (..., 4) array of q = z1 + z2 j, the inverse of ``chi``'s split
    into frame coordinates.

    Summed as ((z1.real + i z1.imag) + j z2.real) + k z2.imag per component
    from 0.0 off the real axis: the bits, signed zeros included, of the same
    sum on one quaternion's components.
    """
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    out = np.zeros(np.broadcast_shapes(z1.shape, z2.shape) + (4,))
    out[..., 0] = z1.real
    for part, unit in ((z1.imag, frame.i), (z2.real, frame.j), (z2.imag, frame.k)):
        out = out + part[..., None] * unit
    return out


def chi_mat(A: np.ndarray, frame: SliceFrame) -> np.ndarray:
    """Entrywise-split embedding of an (..., n, m, 4) stack of quaternion
    matrices: the 2n x 2m complex matrices [[A1, A2], [-conj A2, conj A1]],
    ``chi`` of every entry with its 2x2 blocks laid out by block position."""
    C = chi(A, frame)   # (..., n, m, 2, 2)
    *lead, n, m = C.shape[:-2]
    return np.moveaxis(C, (-2, -1), (-4, -2)).reshape(*lead, 2 * n, 2 * m)


def right_eigen_slice(A: np.ndarray, frame: SliceFrame) -> np.ndarray:
    """Spectrum of the embedded matrix = the C_i slice of the right spectrum.

    ``A`` is an (n, n, 4) matrix or an (..., n, n, 4) stack, answered by one
    LAPACK call with a (..., 2n) array; a stacked matrix gets the bits it
    gets alone.  Closed under complex conjugation; in no particular order.
    """
    M = chi_mat(A, frame)
    try:
        return np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(f"eigenvalue iteration failed: {exc}") from exc
