"""F2 matrix helpers on bit-packed rows.

A binary vector is an int used as a bitmask: coordinate i of a length-n
vector (1-based) lives in bit i - 1, and a matrix is a list of row masks
over a common column count.
"""

from __future__ import annotations

from collections.abc import Sequence

__all__ = ["f2_gram_is_zero"]


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
