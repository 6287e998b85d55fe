"""Exact algebra for 2x2 matrices acting as M (x) I_d.

Every operator in the coupled two-channel model (relaxation matrix, noise
covariance, transition covariance, diffusion kernel) is a 2x2 matrix of
scalar blocks on R^{2d}.  The d-fold tensor factor is implicit throughout,
so all linear algebra reduces to closed-form arithmetic on four scalars:
products, exponentials, inversion and Schur complements.  The model's
transition kernel, e^{Mt} and Q(t), is ``moments._transition``; ``mat_exp``
stays as an independent exponential for the acceptance tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidArgument,
    NotPositiveDefinite,
    SingularMatrix,
    UnsupportedShape,
)

SQRT1_2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class Block2:
    """A 2x2 matrix of scalar blocks; each entry multiplies I_d."""

    a11: float
    a12: float
    a21: float
    a22: float

    def __post_init__(self):
        for name in ("a11", "a12", "a21", "a22"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise InvalidArgument(f"non-finite entry {name}={v!r}")

    @staticmethod
    def diag(a: float, b: float) -> "Block2":
        return Block2(float(a), 0.0, 0.0, float(b))

    @staticmethod
    def exchange(diagonal: float, off: float) -> "Block2":
        """Exchange-symmetric form [[a, b], [b, a]]."""
        return Block2(float(diagonal), float(off), float(off), float(diagonal))

    @property
    def is_exchange_symmetric(self) -> bool:
        return self.a12 == self.a21 and self.a11 == self.a22

    @property
    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a21

    def matmul(self, other: "Block2") -> "Block2":
        return Block2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def __matmul__(self, other: "Block2") -> "Block2":
        return self.matmul(other)

    def add(self, other: "Block2") -> "Block2":
        return Block2(
            self.a11 + other.a11,
            self.a12 + other.a12,
            self.a21 + other.a21,
            self.a22 + other.a22,
        )

    def scale(self, c: float) -> "Block2":
        return Block2(c * self.a11, c * self.a12, c * self.a21, c * self.a22)

    def transpose(self) -> "Block2":
        return Block2(self.a11, self.a21, self.a12, self.a22)

    def apply(self, x, y):
        """Apply the block operator to a channel pair (x, y).

        ``x`` and ``y`` may be scalars or arrays of equal shape (the d
        components of each channel); broadcasting follows numpy rules.
        """
        return (
            self.a11 * x + self.a12 * y,
            self.a21 * x + self.a22 * y,
        )

    def as_array(self) -> np.ndarray:
        return np.array([[self.a11, self.a12], [self.a21, self.a22]])

    @staticmethod
    def from_array(a) -> "Block2":
        a = np.asarray(a, dtype=float)
        if a.shape != (2, 2):
            raise UnsupportedShape(f"expected a 2x2 array, got shape {a.shape}")
        return Block2(a[0, 0], a[0, 1], a[1, 0], a[1, 1])


def mat_exp(m: Block2, t: float) -> Block2:
    """exp(m * t) for the two structured shapes the model produces.

    An exchange-symmetric block [[a, b], [b, a]] has eigenvalues a +- b
    along (1, +-1)/sqrt(2), so exp(m t) has entries (e_+ +- e_-)/2 with
    e_pm = e^{(a +- b) t}; lower-triangular blocks with equal diagonal
    split into a scalar part and a nilpotent part, giving
    exp(m t) = e^{a t} (I + N t).
    """
    if not math.isfinite(t):
        raise InvalidArgument(f"non-finite time t={t!r}")
    if m.is_exchange_symmetric:
        e_p = math.exp((m.a11 + m.a12) * t)
        e_m = math.exp((m.a11 - m.a12) * t)
        return Block2.exchange(0.5 * (e_p + e_m), 0.5 * (e_p - e_m))
    if m.a12 == 0.0 and m.a11 == m.a22:
        s = math.exp(m.a11 * t)
        return Block2(s, 0.0, s * m.a21 * t, s)
    raise UnsupportedShape(
        "mat_exp supports exchange-symmetric or lower-triangular "
        "equal-diagonal blocks only"
    )


def block_inverse(m: Block2) -> Block2:
    det = m.det
    scale = max(abs(m.a11 * m.a22), abs(m.a12 * m.a21), 1.0)
    if det == 0.0 or abs(det) < 1e-300 * scale:
        raise SingularMatrix(f"block determinant {det!r} below threshold")
    inv = 1.0 / det
    return Block2(inv * m.a22, -inv * m.a12, -inv * m.a21, inv * m.a11)


def schur_complement(c11, c12, c22):
    """Conditional variance of the second channel given the first.

    Returns ``(c_y_given_x, gain)`` where ``c_y_given_x = c22 - c12^2/c11``
    and ``gain = c12/c11`` is the regression coefficient of y on x.  The
    entries are scalars or arrays that broadcast; raises
    NotPositiveDefinite unless every c11 and every c_y_given_x is positive
    and finite.
    """
    _require_positive("c11", c11)
    with np.errstate(over="ignore", invalid="ignore"):  # refused on the next line
        c_yx = c22 - c12 * c12 / c11
    _require_positive("c22 - c12^2/c11", c_yx)
    return c_yx, c12 / c11


def _require_positive(name: str, values):
    """One-line NotPositiveDefinite unless every entry is positive and
    finite: the first failing value, or that some are non-finite (an
    overflow or a nan), and for arrays the failing count and first index."""
    values = np.asarray(values)
    finite = np.isfinite(values)
    bad = values <= 0.0 if finite.all() else ~finite
    if np.any(bad):
        first = np.unravel_index(np.argmax(bad), bad.shape)
        value = float(values[first])
        what = f"={value!r}" if math.isfinite(value) else " holds non-finite values"
        where = (
            f" at {np.count_nonzero(bad)} of {bad.size} entries, first at index "
            f"{tuple(int(i) for i in first)}"
        ) if bad.ndim else ""
        raise NotPositiveDefinite(f"block not SPD: {name}{what}{where}")
