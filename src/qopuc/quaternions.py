"""Quaternion arithmetic, slice frames, and the 2x2 complex embedding.

A slice frame is an ordered orthogonal pair (i, j) of imaginary units; it
fixes a complex plane C_i inside the quaternions and the embedding ``chi``
of quaternions into 2x2 complex matrices.  Once a frame is chosen, elements
of C_i are handled as ordinary Python complex numbers, which keeps all
matrix code frame-agnostic.

Quaternion data inside the library are plain float arrays of shape
(..., 4), the last axis holding coordinates in the basis (1, i, j, k):
moments and Verblunsky coefficients (n, 4), polynomial coefficients
(n+1, 4), quaternion matrices (n, n, 4).  ``Quaternion`` is the scalar type
of the API.  One Hamilton product, ``qmul_parts``, serves both forms, on
floats, on long-double scalars (route B's gamma) and on arrays;
``polynomials.eval_norm_sq`` reads its terms as a table, in its order, to
form a Horner step's 16 products in one multiply.  One frame-coordinate
kernel, ``_frame_coords``, serves ``chi`` and ``chi_mat``, and its inverse
``_from_frame_coords`` serves ``chi_inv``, so ``chi`` of a whole (..., 4)
array and ``chi_inv`` of a whole (..., 2, 2) stack give the bits of the
per-quaternion sums.
``right_eigen_slice`` answers one quaternion matrix or a stack with one
LAPACK call.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NoConvergence, NotInImage

# structural tolerance for membership in the embedding image
TAU_IMG = 1e-10
FRAME_TOL = 1e-12

class Quaternion:
    """Immutable quaternion w + x i + y j + z k."""

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w=0.0, x=0.0, y=0.0, z=0.0):
        object.__setattr__(self, "w", float(w))
        object.__setattr__(self, "x", float(x))
        object.__setattr__(self, "y", float(y))
        object.__setattr__(self, "z", float(z))

    def __setattr__(self, name, value):
        raise AttributeError("Quaternion is immutable")

    # -- constructors -------------------------------------------------
    @classmethod
    def from_array(cls, a) -> "Quaternion":
        return cls(a[0], a[1], a[2], a[3])

    # -- structure ----------------------------------------------------
    def to_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])

    @property
    def real(self) -> float:
        return self.w

    @property
    def imag(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def __abs__(self) -> float:
        return math.sqrt(self.norm_sq())

    def inverse(self) -> "Quaternion":
        n = self.norm_sq()
        if n == 0.0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        return Quaternion(self.w / n, -self.x / n, -self.y / n, -self.z / n)

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        other = _coerce(other)
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __rsub__(self, other):
        return _coerce(other).__sub__(self)

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        return Quaternion(*qmul_parts((self.w, self.x, self.y, self.z),
                                      (other.w, other.x, other.y, other.z)))

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self.__mul__(other)
        return _coerce(other).__mul__(self)

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.w / other, self.x / other,
                              self.y / other, self.z / other)
        return self * _coerce(other).inverse()

    def __eq__(self, other):
        if isinstance(other, (int, float)):
            other = Quaternion(other)
        if not isinstance(other, Quaternion):
            return NotImplemented
        return (self.w, self.x, self.y, self.z) == (other.w, other.x, other.y, other.z)

    def __hash__(self):
        return hash((self.w, self.x, self.y, self.z))

    def __repr__(self):
        return f"Quaternion({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"

    def to_json(self):
        return [self.w, self.x, self.y, self.z]


def _coerce(value) -> Quaternion:
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, float)):
        return Quaternion(value)
    raise TypeError(f"cannot interpret {value!r} as a quaternion")


QI = Quaternion(0.0, 1.0)
QJ = Quaternion(0.0, 0.0, 1.0)


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
    """An orthogonal pair (i, j) of imaginary units, with k = i j.

    Validated at construction: both generators purely imaginary, unit norm,
    and orthogonal in the coordinate sense, each to 1e-12.
    """

    __slots__ = ("i", "j", "k")

    def __init__(self, i: Quaternion, j: Quaternion):
        i, j = _coerce(i), _coerce(j)
        for name, u in (("i", i), ("j", j)):
            if abs(u.real) > FRAME_TOL:
                raise ValueError(f"frame generator {name} is not purely imaginary")
            if abs(u.norm_sq() - 1.0) > FRAME_TOL:
                raise ValueError(f"frame generator {name} is not a unit quaternion")
        if abs(float(np.dot(i.imag, j.imag))) > FRAME_TOL:
            raise ValueError("frame generators are not orthogonal")
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "k", i * j)

    def __setattr__(self, name, value):
        raise AttributeError("SliceFrame is immutable")

    @classmethod
    def standard(cls) -> "SliceFrame":
        return cls(QI, QJ)

    def __eq__(self, other):
        if not isinstance(other, SliceFrame):
            return NotImplemented
        return self.i == other.i and self.j == other.j

    def __hash__(self):
        return hash((self.i, self.j))

    def __repr__(self):
        return f"SliceFrame(i={self.i!r}, j={self.j!r})"

    def to_json(self):
        return {"i": self.i.to_json(), "j": self.j.to_json()}

    @classmethod
    def from_json(cls, obj) -> "SliceFrame":
        return cls(Quaternion.from_array(obj["i"]), Quaternion.from_array(obj["j"]))


def chi(p, frame: SliceFrame) -> np.ndarray:
    """The 2x2 complex image [[z1, z2], [-conj z2, conj z1]] of p.

    ``p`` is a Quaternion or an (..., 4) array; an array maps entrywise to
    an (..., 2, 2) array, so ``chi(poly.arr, frame)`` is the coefficientwise
    image of a polynomial.
    """
    A1, A2 = _frame_coords(p.to_array() if isinstance(p, Quaternion) else p, frame)
    out = np.empty(A1.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = A1
    out[..., 0, 1] = A2
    out[..., 1, 0] = -np.conj(A2)
    out[..., 1, 1] = np.conj(A1)
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
    return _from_frame_coords(M[..., 0, 0], M[..., 0, 1], frame)


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
    """Elementwise inverse conj(q) / |q|^2, in ``Quaternion.inverse``'s order."""
    return qarr_conj(a) / qarr_norm_sq(a)[..., None]


def qarr_conj(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out[..., 1:] *= -1.0
    return out


def qarr_norm_sq(a: np.ndarray) -> np.ndarray:
    """|q|^2 over an (..., 4) array, in ``Quaternion.norm_sq``'s order."""
    w, x, y, z = np.moveaxis(np.asarray(a, dtype=float), -1, 0)
    return w * w + x * x + y * y + z * z


def qarr_abs(a: np.ndarray) -> np.ndarray:
    return np.sqrt(qarr_norm_sq(a))


def qarr_from(values) -> np.ndarray:
    """A fresh (n, 4) float array from an array or from a sequence whose items
    are Quaternions, reals (real quaternions) or 4-sequences (w, x, y, z)."""
    if not isinstance(values, np.ndarray):
        values = [v if isinstance(v, (list, tuple))
                  else v.to_array() if isinstance(v, Quaternion)
                  else (v, 0.0, 0.0, 0.0) if np.ndim(v) == 0 else v for v in values]
    return np.array(values, dtype=float).reshape(-1, 4)


def _frame_coords(A: np.ndarray, frame: SliceFrame):
    """Split an (..., 4) array into the coordinate arrays (z1, z2) of
    q = z1 + z2 j.

    ``np.vecdot`` gives the bits of a per-quaternion ``np.dot`` (``@`` and
    einsum do not), and the parts are assigned separately because
    ``a + 1j * b`` does not keep signed zeros.
    """
    A = np.asarray(A, dtype=float)
    im = A[..., 1:]
    A1 = np.empty(A.shape[:-1], dtype=complex)
    A2 = np.empty(A.shape[:-1], dtype=complex)
    A1.real = A[..., 0]
    A1.imag = np.vecdot(im, frame.i.imag)
    A2.real = np.vecdot(im, frame.j.imag)
    A2.imag = np.vecdot(im, frame.k.imag)
    return A1, A2


def _from_frame_coords(z1, z2, frame: SliceFrame) -> np.ndarray:
    """The (..., 4) array of q = z1 + z2 j, the inverse of ``_frame_coords``.

    Summed as ((z1.real + i z1.imag) + j z2.real) + k z2.imag per component
    from 0.0 off the real axis: the bits, signed zeros included, of the same
    sum in ``Quaternion`` arithmetic.
    """
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    out = np.zeros(np.broadcast_shapes(z1.shape, z2.shape) + (4,))
    out[..., 0] = z1.real
    for part, unit in ((z1.imag, frame.i), (z2.real, frame.j), (z2.imag, frame.k)):
        out = out + part[..., None] * unit.to_array()
    return out


def chi_mat(A: np.ndarray, frame: SliceFrame) -> np.ndarray:
    """Entrywise-split embedding of an (..., n, n, 4) stack of quaternion
    matrices.

    Returns the 2n x 2n complex matrices [[A1, A2], [-conj A2, conj A1]].
    """
    A1, A2 = _frame_coords(A, frame)
    top = np.concatenate([A1, A2], axis=-1)
    bot = np.concatenate([-np.conj(A2), np.conj(A1)], axis=-1)
    return np.concatenate([top, bot], axis=-2)


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
