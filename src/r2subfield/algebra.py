"""Arithmetic in the eight-element ring R = F2[x]/(x^3 - x).

An element a + b*u + c*u**2 (u = image of x, so u**3 = u) is packed into an
int in ``range(8)`` as ``a | b << 1 | c << 2``.  Addition is XOR; products are
read from a precomputed 8 x 8 table.  The ring is an F2-algebra with the
F2-basis ``1, u, u**2`` but the construction here works throughout with the
alternative ordered basis

    e1 = 1 + u**2,   e2 = u**2,   e3 = u + u**2,

because the F2-linear form tau(a + b*u + c*u**2) = c pairs these basis
vectors into the coordinate maps used by the subfield construction:
writing x = g1*e1 + g2*e2 + g3*e3, the triple of trace values
(tau(x*e1), tau(x*e2), tau(x*e3)) equals (g1, g2 + g3, g2).

Binary vectors and matrices are plain ints used as bitmasks: coordinate i of
a length-n vector (1-based) lives in bit i - 1, and a matrix is a list of row
masks over a common column count.
"""

from __future__ import annotations

from collections.abc import Sequence

__all__ = [
    "R2_ZERO",
    "R2_ONE",
    "R2_U",
    "R2_USQ",
    "E1",
    "E2",
    "E3",
    "BASIS",
    "r2_add",
    "r2_mul",
    "trace",
    "to_basis_coords",
    "from_basis_coords",
    "trace_triple",
    "r2_dot",
    "f2_row_basis",
    "f2_gram_is_zero",
]

R2_ZERO = 0
R2_ONE = 1
R2_U = 2
R2_USQ = 4

E1 = R2_ONE | R2_USQ  # 1 + u^2
E2 = R2_USQ  # u^2
E3 = R2_U | R2_USQ  # u + u^2
BASIS = (E1, E2, E3)


def r2_add(x: int, y: int) -> int:
    """Sum in R; characteristic 2, so this is XOR of packed coefficients."""
    return x ^ y


def _mul_raw(x: int, y: int) -> int:
    # Polynomial product of (a1 + b1 u + c1 u^2)(a2 + b2 u + c2 u^2) reduced
    # by u^3 = u (hence u^4 = u^2), coefficients mod 2.
    a1, b1, c1 = x & 1, (x >> 1) & 1, (x >> 2) & 1
    a2, b2, c2 = y & 1, (y >> 1) & 1, (y >> 2) & 1
    a = a1 & a2
    b = (a1 & b2) ^ (b1 & a2) ^ (b1 & c2) ^ (c1 & b2)
    c = (a1 & c2) ^ (b1 & b2) ^ (c1 & a2) ^ (c1 & c2)
    return a | b << 1 | c << 2


_MUL = tuple(tuple(_mul_raw(x, y) for y in range(8)) for x in range(8))


def r2_mul(x: int, y: int) -> int:
    """Product in R via the precomputed table."""
    return _MUL[x][y]


def trace(x: int) -> int:
    """The F2-valued form tau: a + b*u + c*u**2  |->  c.

    tau is F2-linear and its kernel {a + b*u : a, b in F2} contains no
    nonzero ideal of R, which is what makes the pairing
    (x, y) |-> tau(x*y) non-degenerate enough to separate points.
    """
    return (x >> 2) & 1


def to_basis_coords(x: int) -> tuple[int, int, int]:
    """Coordinates (g1, g2, g3) of x with respect to (e1, e2, e3).

    From x = g1*e1 + g2*e2 + g3*e3 one reads off a = g1, b = g3 and
    c = g1 + g2 + g3, so the inverse map is g1 = a, g2 = a + b + c, g3 = b.
    """
    a, b, c = x & 1, (x >> 1) & 1, (x >> 2) & 1
    return (a, a ^ b ^ c, b)


def from_basis_coords(g1: int, g2: int, g3: int) -> int:
    """Inverse of :func:`to_basis_coords`."""
    return (g1 & 1) | (g3 & 1) << 1 | ((g1 ^ g2 ^ g3) & 1) << 2


def trace_triple(x: int) -> tuple[int, int, int]:
    """(tau(x*e1), tau(x*e2), tau(x*e3)) for a packed element x.

    Equals (g1, g2 + g3, g2) in basis coordinates; the identity is
    cross-checked against literal products in the test suite.
    """
    g1, g2, g3 = to_basis_coords(x)
    return (g1, g2 ^ g3, g2)


def r2_dot(xs: Sequence[int], ys: Sequence[int]) -> int:
    """Sum of coordinatewise products of two equal-length R-vectors."""
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} != {len(ys)}")
    acc = 0
    for x, y in zip(xs, ys):
        acc ^= _MUL[x][y]
    return acc


def f2_row_basis(rows: Sequence[int], ncols: int) -> list[int]:
    """Reduced row-echelon basis of the row space, pivots left to right."""
    basis: list[int] = []
    for r in rows:
        if r >> ncols:
            raise ValueError(f"row 0b{r:b} exceeds {ncols} columns")
        for b in basis:
            low = b & -b
            if r & low:
                r ^= b
        if r:
            low = r & -r
            basis = [b ^ r if b & low else b for b in basis]
            basis.append(r)
    basis.sort(key=lambda b: b & -b)
    return basis


def f2_gram_is_zero(rows: Sequence[int]) -> bool:
    """True when every pairwise (and self) F2 inner product of rows is 0.

    For a generator matrix this is exactly the self-orthogonality test
    G * G^T = 0: the spanned code is contained in its dual.
    """
    n = len(rows)
    for i in range(n):
        ri = rows[i]
        for j in range(i, n):
            if (ri & rows[j]).bit_count() & 1:
                return False
    return True
