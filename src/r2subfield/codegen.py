"""Construction of the binary subfield code attached to a defining set.

A defining set D is a subset of R^m, for the eight-element ring
R = F2[x]/(x^3 - x) with u the image of x and the F2-basis e1 = 1 + u^2,
e2 = u^2, e3 = u + u^2, built coordinatewise from three simplicial
complexes:

    D = { e1*d1 + e2*d2 + e3*d3 : d1 in D1, d2 in D2, d3 in D3 }

with each Di either Delta_X or its complement inside F2^m, or alternatively
the set complement of such a D inside all of R^m ("global complement").
Since (e1, e2, e3) is an F2-basis of R the triple map is injective, so
|D| = |D1| * |D2| * |D3|.

Each element x of R^m is flattened to the 3m-bit mask whose blocks are the
coordinatewise values of (tau(x*e1), tau(x*e2), tau(x*e3)), where
tau(a + b*u + c*u^2) = c; the binary code is generated by the 3m rows of
bit j across these masks.  For the element built from (d1, d2, d3) that
mask is d1 | (d2 + d3) << m | d2 << 2m, so the codeword of a message
(alpha, beta, gamma) in (F2^m)^3 has, at the position indexed by
(d1, d2, d3), the bit

    alpha . d1 + beta . (d2 + d3) + gamma . d2,

i.e. the plain F2 parity of the message mask ANDed with the position mask.

:func:`weight_distribution_bruteforce` builds one code in three stages,
each a function of its own so a caller that needs several computes each once:

* n and the 3m generator rows (:func:`code_rows`).  For families 1-8 the
  columns are the product D1 x D2 x D3, D1 outermost and D3 innermost, each
  complex in increasing bitmask order, and the rows are repeated bit
  patterns of the three member lists: row j (j < m) repeats bit j of each
  d1 over a block of |D2|*|D3| columns, row 2m+j repeats bit j of each d2
  over |D3| columns and that pattern |D1| times, and row m+j is row 2m+j
  XOR the pattern of bit j of each d3 repeated |D1|*|D2| times.  A global
  complement (family 9) is F2^(3m) minus D1 x D2 x D3 in (d1, d2, d3)
  coordinates, the disjoint union of three products with F = F2^m and Di'
  the complement of Di in F: first D1' x F x F, then D1 x D2' x F, then
  D1 x D2 x D3'.  Each piece takes its columns in the same order as a
  family 1-8 product, after the columns of the pieces before it.
* The weights of all 2^(3m) messages (:func:`message_weights_from_rows`):
  one counting pass over the n columns gives the multiplicity of each 3m-bit
  column pattern, and a Walsh-Hadamard transform of those 2^(3m) counts,
  packed into one int of 1-, 2- or 4-byte fields (the narrowest that holds
  n), gives every weight at once.  It reads only the rows, never the
  spectra of the complexes, so the character-sum table below stays an
  independent check of it.
* The weight distribution: the weight histogram divided by the kernel size
  (:func:`summarize_message_weights`).

No function here builds an element of R.  The tests keep the literal
construction of the paper (R-vectors, trace triples, transposition) as a
reference route in ``tests/reference.py`` and compare :func:`code_rows`
with it: the same columns, in the same order for families 1-8; a global
complement there runs over R^m in increasing vector encoding instead.

The character-sum route is independent of the enumeration: the weight of
(alpha, beta, gamma) is (|D| - S1[alpha] * S2[beta + gamma] * S3[beta]) / 2
with Si the character-sum spectrum of the i-th complex, so the whole message
table follows from three spectra of length 2^m
(:func:`charsum_message_weights`).
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from collections.abc import Mapping, Sequence

from .simplicial import ComplexSpec, complex_size, enumerate_members, spectrum

__all__ = [
    "BRUTE_FORCE_M_CAP",
    "DegenerateConfigurationError",
    "InvariantError",
    "DefiningSetSpec",
    "CodeSummary",
    "code_rows",
    "message_weights_from_rows",
    "summarize_message_weights",
    "weight_distribution_bruteforce",
    "charsum_message_weights",
    "min_distance",
]

BRUTE_FORCE_M_CAP = 5

# :func:`message_weights_from_rows` packs one value per field of an int and
# reads the fields back as native array items.  Every partial sum of its
# transform lies in [-n, n], so a bias of 2^(8w - 1) keeps each w-byte field
# in range exactly when n < 2^(8w - 1): the narrowest of 1, 2 or 4 bytes that
# holds n is used (_field_typecode).  2^20 columns is 32 times the longest
# code the m cap allows (2^15 distinct columns) and bounds the n-byte strings
# the column count builds.
_MAX_COLUMNS = 1 << 20
_SPREAD = bytes.maketrans(b"01", b"\0\1")
if [array(typecode).itemsize for typecode in "BHI"] != [1, 2, 4]:
    raise ImportError(
        "r2subfield needs 1-byte array('B'), 2-byte array('H') and 4-byte array('I') items"
    )


class DegenerateConfigurationError(ValueError):
    """The requested configuration yields an empty or zero-dimensional code."""


class InvariantError(AssertionError):
    """An internal invariant of the construction failed: a program fault, not bad input.

    Raised explicitly, so the check also runs under ``python -O``.
    """


@dataclass(frozen=True)
class DefiningSetSpec:
    """The three complexes (and optional global complement) defining D."""

    m: int
    d1: ComplexSpec
    d2: ComplexSpec
    d3: ComplexSpec
    global_complement: bool = False

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        for name, part in (("D1", self.d1), ("D2", self.d2), ("D3", self.d3)):
            if part.m != self.m:
                raise ValueError(f"{name} lives in F2^{part.m}, expected F2^{self.m}")
        if self.global_complement and any(
            part.complemented for part in (self.d1, self.d2, self.d3)
        ):
            raise ValueError("global complement requires all three parts uncomplemented")

    @property
    def parts(self) -> tuple[ComplexSpec, ComplexSpec, ComplexSpec]:
        return (self.d1, self.d2, self.d3)


def _check_m_cap(m: int) -> None:
    if m > BRUTE_FORCE_M_CAP:
        raise ValueError(
            f"exhaustive enumeration is capped at m <= {BRUTE_FORCE_M_CAP}, got m = {m}"
        )


def _blocks(members: Sequence[int], j: int, width: int) -> int:
    """Bit j of each member, widened to ``width`` equal bits; first member lowest."""
    block = (1 << width) - 1
    out = 0
    for i, v in enumerate(members):
        if v >> j & 1:
            out |= block << (i * width)
    return out


def _repunit(width: int, times: int) -> int:
    """Bits 0, width, 2*width, ...: times a width-bit pattern repeats it ``times`` times."""
    return ((1 << (width * times)) - 1) // ((1 << width) - 1)


def _product_rows(
    members1: Sequence[int], members2: Sequence[int], members3: Sequence[int], m: int
) -> tuple[int, list[int]]:
    """n and the 3m generator rows of the product set of three member lists."""
    n1, n2, n3 = len(members1), len(members2), len(members3)
    n = n1 * n2 * n3
    if n == 0:
        return 0, [0] * (3 * m)
    repeat2 = _repunit(n2 * n3, n1)
    repeat3 = _repunit(n3, n1 * n2)
    rows1 = [_blocks(members1, j, n2 * n3) for j in range(m)]
    rows2 = [_blocks(members2, j, n3) * repeat2 for j in range(m)]
    rows3 = [_blocks(members3, j, 1) * repeat3 for j in range(m)]
    return n, rows1 + [r2 ^ r3 for r2, r3 in zip(rows2, rows3)] + rows2


def _column_products(spec: DefiningSetSpec) -> list[tuple[list[int], list[int], list[int]]]:
    """The defining set as disjoint products of member lists, in column order.

    One product for families 1-8, three for a global complement (see the
    module docstring).
    """
    inside = [enumerate_members(part) for part in spec.parts]
    if not spec.global_complement:
        return [tuple(inside)]
    outside = [enumerate_members(ComplexSpec(part.generator, True)) for part in spec.parts]
    full = list(range(1 << spec.m))
    return [
        (outside[0], full, full),
        (inside[0], outside[1], full),
        (inside[0], inside[1], outside[2]),
    ]


def code_rows(spec: DefiningSetSpec) -> tuple[int, list[int]]:
    """n and the 3m generator rows of the code defined by ``spec``.

    See the module docstring for the column order.  Raises
    :class:`DegenerateConfigurationError` for an empty defining set and
    ``ValueError`` above :data:`BRUTE_FORCE_M_CAP`.
    """
    _check_m_cap(spec.m)
    n, rows = 0, [0] * (3 * spec.m)
    for members in _column_products(spec):
        width, piece = _product_rows(*members, spec.m)
        rows = [row | p << n for row, p in zip(rows, piece)]
        n += width
    if not n:
        raise DegenerateConfigurationError("empty defining set")
    return n, rows


def message_weights_from_rows(rows: Sequence[int], m: int) -> list[int]:
    """Codeword weight of every message, indexed by packed message mask.

    The message (alpha, beta, gamma) is packed as alpha | beta << m |
    gamma << 2m, so bit j of the index selects row j.  The rows are read
    as n columns of 3m bits, and h[p] counts the columns with pattern p.
    Message v then has weight (n - H[v]) / 2, where H is the Walsh-Hadamard
    transform of h: H[v] is the sum of (-1)^(p . v) h[p] over all p.  The
    transform costs O(3m 2^(3m)) operations on one int of 2^(3m) fields of
    1, 2 or 4 bytes, the narrowest that holds n, whatever the dimension is.
    It reads only the rows, so the table stays independent of the spectra
    behind :func:`charsum_message_weights`.

    Raises ``ValueError`` above :data:`BRUTE_FORCE_M_CAP`, for a row count
    other than 3m, for a negative row and for rows of more than 2^20 columns
    (``_MAX_COLUMNS``).
    """
    _check_m_cap(m)
    if len(rows) != 3 * m:
        raise ValueError(f"expected {3 * m} generator rows, got {len(rows)}")
    if min(rows) < 0:
        raise ValueError("generator rows must be non-negative bitmasks")
    n = max(rows).bit_length()
    if n > _MAX_COLUMNS:
        raise ValueError(
            f"rows of {n} columns exceed the {_MAX_COLUMNS} the weight fields hold"
        )
    typecode = _field_typecode(n)
    width = array(typecode).itemsize
    bias = 1 << (8 * width - 1)
    fields = 1 << len(rows)
    ones = int.from_bytes(array(typecode, [1]) * fields, sys.byteorder)
    counts = _column_counts(rows, n, fields, typecode)
    transform = _walsh_hadamard(counts, bias * ones, fields, width)
    # every n - H[v] is even, so one shift halves each field exactly
    weights = ((n + bias) * ones - transform) >> 1
    return array(typecode, weights.to_bytes(width * fields, sys.byteorder)).tolist()


def _field_typecode(n: int) -> str:
    """The ``array`` typecode of the narrowest w-byte field with n < 2^(8w - 1)."""
    if n < 1 << 7:
        return "B"
    if n < 1 << 15:
        return "H"
    return "I"


def _column_counts(rows: Sequence[int], n: int, fields: int, typecode: str) -> int:
    """How many of the n columns have pattern p, in field p of ``typecode`` items."""
    counts = array(typecode, [0]) * fields
    for pattern in _column_patterns(rows, n):
        counts[pattern] += 1
    return int.from_bytes(counts, sys.byteorder)


def _walsh_hadamard(packed: int, bias: int, fields: int, width: int) -> int:
    """The Walsh-Hadamard transform H of the values in ``fields`` packed fields.

    Each field is ``width`` bytes.  ``bias`` holds the same bias B in every
    field, and the result holds H[v] + B in field v.  Each stage folds the
    pairs (x, y) that lie ``shift`` bits apart into (x + y, x - y) with a few
    whole-int operations.  Once the bias is taken off hi, lo + hi and lo - hi
    are the sums of x + y + B and x - y + B at the fields' offsets; those
    values lie in [B - n, B + n], inside a field, so the two ints are exactly
    the packed fields, whatever borrows the unbiased hi holds.  sel selects
    the low half of every block of 2 * shift bits; once shift is halved,
    sel ^ sel << shift is the next one, and as the top half of the top block
    is clear, nothing lands above the packed width.
    """
    packed += bias
    shift = 4 * width * fields
    sel = (1 << shift) - 1
    while shift >= 8 * width:
        lo = packed & sel
        hi = packed >> shift & sel
        hi -= bias & sel
        packed = (lo + hi) | (lo - hi) << shift
        shift >>= 1
        sel ^= sel << shift
    return packed


def _column_patterns(rows: Sequence[int], n: int) -> bytes | memoryview:
    """The 3m-bit pattern of each of n columns, as one byte or one 16-bit item each.

    Each row becomes one 0/1 byte per column up to its top bit, and rows
    8i..8i+7 are shifted into byte plane i of n bytes, so a shorter row
    reads as zero in the columns above it.  Two planes are interleaved so
    that each column reads as one native 16-bit item.
    """
    planes = []
    for base in range(0, len(rows), 8):
        plane = 0
        for j, row in enumerate(rows[base : base + 8]):
            spread = format(row, "b").encode().translate(_SPREAD)
            plane |= int.from_bytes(spread, "big") << j
        planes.append(plane.to_bytes(n, "big"))
    if len(planes) == 1:
        return planes[0]
    interleaved = bytearray(2 * n)
    low = 0 if sys.byteorder == "little" else 1
    interleaved[low::2], interleaved[1 - low :: 2] = planes
    return memoryview(interleaved).cast("H")


@dataclass(frozen=True)
class CodeSummary:
    """Exact parameters and weight distribution of one constructed code."""

    n: int
    k: int
    d: int
    weights: Mapping[int, int]

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "d": self.d,
            "weights": [{"w": w, "count": c} for w, c in sorted(self.weights.items())],
        }


def summarize_message_weights(weights: Sequence[int], n: int, m: int) -> CodeSummary:
    """Collapse a full message-weight table to the code's distribution.

    Every codeword has the same number of preimages (the kernel size, read
    off as the multiplicity of weight 0), so dividing each count by it gives
    the distribution of the code itself and k = 3m - log2(kernel).
    """
    hist = Counter(weights)
    kernel = hist[0]
    total = 1 << (3 * m)
    if len(weights) != total:
        raise InvariantError("weight table must cover every message")
    if not kernel or total % kernel or kernel & (kernel - 1):
        raise InvariantError("kernel must be a 2-power")
    k = (total // kernel).bit_length() - 1
    if k == 0:
        raise DegenerateConfigurationError("trivial code: every message maps to 0")
    dist = {}
    for w, count in sorted(hist.items()):
        if count % kernel:
            raise InvariantError("weight class not a union of kernel cosets")
        dist[w] = count // kernel
    return CodeSummary(n=n, k=k, d=min_distance(dist), weights=dist)


def weight_distribution_bruteforce(spec: DefiningSetSpec) -> CodeSummary:
    """Exact parameters of the code from the weights of all 2^(3m) messages.

    The weights come from the generator rows alone
    (:func:`message_weights_from_rows`), not from the character sums, so they
    check :func:`charsum_message_weights` rather than repeat it.
    """
    n, rows = code_rows(spec)
    return summarize_message_weights(message_weights_from_rows(rows, spec.m), n, spec.m)


def charsum_message_weights(spec: DefiningSetSpec) -> list[int]:
    """Weight of every message by the character-sum identity, no enumeration.

    Indexed like :func:`message_weights_from_rows`.  Message (alpha, beta,
    gamma) has weight (|D| - S1[alpha] * S2[beta + gamma] * S3[beta]) / 2.
    For a global complement the product enters with the opposite sign, and
    the zero message also subtracts 2^(3m) / 2: the character sum over all of
    R^m.  For fixed (beta, gamma) the 2^m messages alpha form one contiguous
    slice, which depends only on S2[beta + gamma] * S3[beta]; each distinct
    product is evaluated once.

    Raises ``ValueError`` above :data:`BRUTE_FORCE_M_CAP`, like
    :func:`code_rows`: the table has 2^(3m) entries.
    """
    _check_m_cap(spec.m)
    s1, s2, s3 = (spectrum(part) for part in spec.parts)
    m = spec.m
    low = (1 << m) - 1
    size = complex_size(spec.d1) * complex_size(spec.d2) * complex_size(spec.d3)
    sign = -1
    if spec.global_complement:
        size, sign = (1 << (3 * m)) - size, 1
    slices: dict[int, list[int]] = {}
    table: list[int] = []
    for v in range(1 << (2 * m)):
        beta, gamma = v & low, v >> m
        s23 = sign * s2[beta ^ gamma] * s3[beta]
        part = slices.get(s23)
        if part is None:
            doubled = [size + s * s23 for s in s1]
            if any(d & 1 for d in doubled):
                raise InvariantError("character sum parity broken")
            part = slices[s23] = [d >> 1 for d in doubled]
        table += part
    if spec.global_complement:
        table[0] -= 1 << (3 * m - 1)
    return table


def min_distance(weights: Mapping[int, int]) -> int:
    """Smallest weight of a nonzero codeword in a weight distribution."""
    positive = [w for w, c in weights.items() if w > 0 and c > 0]
    if not positive:
        raise DegenerateConfigurationError("trivial code has no nonzero codeword")
    return min(positive)
