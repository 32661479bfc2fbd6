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
tau(a + b*u + c*u^2) = c, and each mask is one column of the binary code.
For the element built from (d1, d2, d3) that mask is
d1 | (d2 + d3) << m | d2 << 2m, so the codeword of a message
(alpha, beta, gamma) in (F2^m)^3 has, at the position indexed by
(d1, d2, d3), the bit

    alpha . d1 + beta . (d2 + d3) + gamma . d2,

i.e. the plain F2 parity of the message mask ANDed with the position mask.

:func:`weight_distribution_bruteforce` builds one code in two stages,
each a function of its own so a caller that needs both computes each once:

* n and the weights of all 2^(3m) messages (:func:`message_weights`).  The
  columns are the image of D1 x D2 x D3 under (d1, d2, d3) -> (d1, d2 + d3,
  d2), or of its complement in F2^(3m) for a global complement (family 9),
  each column once.  Their 0/1 indicator is the column histogram, and its
  Walsh-Hadamard transform gives every weight at once.  That histogram is
  the Kronecker product of the indicator of D1 (2^m fields) and the
  indicator of the slots (d2 + d3, d2) (2^(2m) fields), both written
  straight from the member lists, so one m-bit and one 2m-bit transform,
  each on one int of 1-, 2- or 4-byte fields (the narrowest that holds n),
  joined by one multiplication, give the transform of all 2^(3m) fields:
  O(m 2^(2m)) packed operations, not O(m 2^(3m)).  It reads only
  the member lists, never the spectra of the complexes, so the
  character-sum table below stays an independent check of it.  Both come
  cached per factor from :mod:`.simplicial`; the tables are built afresh
  for every defining set.
* The weight distribution: the weight histogram divided by the kernel size
  (:func:`summarize_message_weights`).

No function here builds an element of R or a generator row.  The tests keep
the literal construction of the paper (R-vectors, trace triples,
transposition to generator rows) as a reference route in
``tests/reference.py`` and compare :func:`message_weights` with the weights
of its rows.

The character-sum route is independent of the enumeration: the weight of
(alpha, beta, gamma) is (|D| - S1[alpha] * S2[beta + gamma] * S3[beta]) / 2
with Si the character-sum spectrum of the i-th complex, so the whole message
table follows from three spectra of length 2^m
(:func:`charsum_message_weights`).
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from collections.abc import Mapping, Sequence
from functools import cache

from .simplicial import ComplexSpec, complex_size, enumerate_members, spectrum

__all__ = [
    "BRUTE_FORCE_M_CAP",
    "DegenerateConfigurationError",
    "InvariantError",
    "DefiningSetSpec",
    "CodeSummary",
    "message_weights",
    "summarize_message_weights",
    "weight_distribution_bruteforce",
    "charsum_message_weights",
    "min_distance",
]

BRUTE_FORCE_M_CAP = 5

# :func:`message_weights` packs one value per field of an int and reads the
# fields back as native array items.  Every partial sum of its two transforms
# lies in [-n, n] and every doubled weight in [0, 2n], so a bias of
# 2^(8w - 1) keeps each w-byte field in range when n < 2^(8w - 1): the
# narrowest of 1, 2 or 4 bytes that holds n is used (_field_typecode).  The
# m cap keeps n <= 2^15.
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


def message_weights(spec: DefiningSetSpec) -> tuple[int, list[int]]:
    """n and the codeword weight of every message, indexed by packed message mask.

    The message (alpha, beta, gamma) is packed as alpha | beta << m |
    gamma << 2m.  The n columns are the points (d1, d2 + d3, d2) of
    D1 x D2 x D3 (of its complement in F2^(3m) for a global complement),
    each a 3m-bit mask d1 | s << m with slot s = (d2 + d3) | d2 << m.
    Message v = alpha | sigma << m then has weight (n - H[v]) / 2, where H
    is the Walsh-Hadamard transform of the column histogram: H[v] is the sum
    of (-1)^(p . v) over the columns p.  For families 1-8 the histogram is
    the Kronecker product of the 0/1 slot indicator g (2^(2m) fields, one
    per (d2, d3), as (d2, d3) -> s is injective) and the indicator f of D1
    (2^m fields), so H[v] = F[alpha] * G[sigma] with F, G the transforms of
    f and g.  A global complement (family 9) counts every point except
    those, so H = 2^(3m) [v = 0] - F[alpha] * G[sigma].

    F is one int of 2^m packed fields and G, spread to every 2^m-th of
    2^(3m) fields, another; their product as signed ints puts F[alpha] *
    G[sigma] in field alpha + sigma 2^m, as the 2^m fields of F cannot
    overlap.  Each field is 1, 2 or 4 bytes, the narrowest with n <
    2^(8w - 1).  |F| <= |D1|, |G| <= |D2||D3| and their product is at most
    |D1||D2||D3|: that is n for families 1-8, and at most n for family 9,
    where D1 x D2 x D3 is at most half of F2^(3m).  So both transforms stay
    below the bias, and every n - H[v] lies in [0, 2n], inside a field of
    n ones - H.  The cost is O(m 2^(2m)) packed operations and one
    multiplication, not 3m stages over 2^(3m) fields.

    It reads only the member lists, never the spectra, so the table stays
    independent of :func:`charsum_message_weights`.  For the same reason g
    is not factored further into transforms of D2 and D3: that would
    recompute their spectra and repeat the character-sum identity rather
    than check it.

    Raises :class:`DegenerateConfigurationError` for an empty defining set
    and ``ValueError`` above :data:`BRUTE_FORCE_M_CAP`.
    """
    _check_m_cap(spec.m)
    m = spec.m
    members1, members2, members3 = (enumerate_members(part) for part in spec.parts)
    product = len(members1) * len(members2) * len(members3)
    n = (1 << 3 * m) - product if spec.global_complement else product
    if not n:
        raise DegenerateConfigurationError("empty defining set")
    typecode = _field_typecode(n)
    width = array(typecode).itemsize
    ones, bias1, bias2, bias_spread = _constants(m, typecode)
    f = array(typecode, [0]) * (1 << m)
    for d1 in members1:
        f[d1] = 1
    g = array(typecode, [0]) * (1 << 2 * m)
    for d2 in members2:
        for d3 in members3:
            g[(d2 ^ d3) | d2 << m] = 1
    f_hat = _walsh_hadamard(int.from_bytes(f, sys.byteorder), bias1, 1 << m, width) - bias1
    # G keeps its bias through the spread: array fields are unsigned
    g_hat = _walsh_hadamard(int.from_bytes(g, sys.byteorder), bias2, 1 << 2 * m, width)
    spread = array(typecode, [0]) * (1 << 3 * m)
    spread[:: 1 << m] = array(typecode, g_hat.to_bytes(width << 2 * m, sys.byteorder))
    product_hat = f_hat * (int.from_bytes(spread, sys.byteorder) - bias_spread)
    if spec.global_complement:
        doubled = n * ones - (1 << 3 * m) + product_hat
    else:
        doubled = n * ones - product_hat
    # every n - H[v] is even, so one shift halves each field exactly
    weights = doubled >> 1
    return n, array(typecode, weights.to_bytes(width << 3 * m, sys.byteorder)).tolist()


def _field_typecode(n: int) -> str:
    """The ``array`` typecode of the narrowest w-byte field with n < 2^(8w - 1)."""
    if n < 1 << 7:
        return "B"
    if n < 1 << 15:
        return "H"
    return "I"


@cache
def _constants(m: int, typecode: str) -> tuple[int, int, int, int]:
    """The packed constants of :func:`message_weights` for one m and field type.

    A 1 in each of the 2^(3m) fields, then the bias B = 2^(8w - 1) in each
    of 2^m fields, in each of 2^(2m) fields, and in every 2^m-th of 2^(3m)
    fields.  The m cap bounds the cache to 15 entries.
    """
    bias = 1 << (8 * array(typecode).itemsize - 1)

    def packed(fields: int, step: int = 1) -> int:
        values = array(typecode, [0]) * fields
        values[::step] = array(typecode, [1]) * (fields // step)
        return int.from_bytes(values, sys.byteorder)

    return (
        packed(1 << 3 * m),
        bias * packed(1 << m),
        bias * packed(1 << 2 * m),
        bias * packed(1 << 3 * m, 1 << m),
    )


def _walsh_hadamard(packed: int, bias: int, fields: int, width: int) -> int:
    """The Walsh-Hadamard transform H of the values in ``fields`` packed fields.

    Each field is ``width`` bytes and holds a count h[p] >= 0; H[v] is the
    sum of (-1)^(p . v) h[p] over all p.  ``bias`` holds the same bias B in
    every field, and the result holds H[v] + B in field v.  Each stage folds
    the pairs (x, y) that lie ``shift`` bits apart into (x + y, x - y) with a
    few whole-int operations.  Once the bias is taken off hi, lo + hi and
    lo - hi are the sums of x + y + B and x - y + B at the fields' offsets;
    every partial sum lies in [-t, t] for t the sum of the counts, so with
    t < B those values lie in [B - t, B + t], inside a field, and the two
    ints are exactly the packed fields, whatever borrows the unbiased hi
    holds.  sel selects the low half of every block of 2 * shift bits; once
    shift is halved, sel ^ sel << shift is the next one, and as the top half
    of the top block is clear, nothing lands above the packed width.
    :func:`message_weights` runs it on 2^m and on 2^(2m) fields.
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
    the distribution of the code itself and k = 3m - log2(kernel).  Counts
    are run lengths of the sorted table, found by bisection: faster than a dict.
    """
    ordered = sorted(weights)
    total = 1 << (3 * m)
    if len(ordered) != total:
        raise InvariantError("weight table must cover every message")
    kernel = bisect_right(ordered, 0) - bisect_left(ordered, 0)
    if not kernel or total % kernel or kernel & (kernel - 1):
        raise InvariantError("kernel must be a 2-power")
    k = (total // kernel).bit_length() - 1
    if k == 0:
        raise DegenerateConfigurationError("trivial code: every message maps to 0")
    dist = {}
    start = 0
    while start < total:
        end = bisect_right(ordered, ordered[start], start)
        if (end - start) % kernel:
            raise InvariantError("weight class not a union of kernel cosets")
        dist[ordered[start]] = (end - start) // kernel
        start = end
    return CodeSummary(n=n, k=k, d=min_distance(dist), weights=dist)


def weight_distribution_bruteforce(spec: DefiningSetSpec) -> CodeSummary:
    """Exact parameters of the code from the weights of all 2^(3m) messages.

    The weights come from the member lists alone (:func:`message_weights`),
    not from the character sums, so they check
    :func:`charsum_message_weights` rather than repeat it.
    """
    n, weights = message_weights(spec)
    return summarize_message_weights(weights, n, spec.m)


def charsum_message_weights(spec: DefiningSetSpec) -> list[int]:
    """Weight of every message by the character-sum identity, no enumeration.

    Indexed like :func:`message_weights`.  Message (alpha, beta,
    gamma) has weight (|D| - S1[alpha] * S2[beta + gamma] * S3[beta]) / 2.
    For a global complement the product enters with the opposite sign, and
    the zero message also subtracts 2^(3m) / 2: the character sum over all of
    R^m (:func:`_charsum_terms`).  For fixed (beta, gamma) the 2^m messages
    alpha form one contiguous slice, which depends only on
    S2[beta + gamma] * S3[beta]; each distinct product is evaluated once.

    Raises ``ValueError`` above :data:`BRUTE_FORCE_M_CAP`, like
    :func:`message_weights`: the table has 2^(3m) entries.
    """
    _check_m_cap(spec.m)
    s1, s2, s3 = (spectrum(part) for part in spec.parts)
    m = spec.m
    low = (1 << m) - 1
    size, sign, whole = _charsum_terms(spec)
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
    table[0] -= whole >> 1
    return table


def _charsum_terms(spec: DefiningSetSpec) -> tuple[int, int, int]:
    """(n, sign, whole) of the doubled weight 2W(a) = n + sign * S1*S2*S3 - whole * [a = 0].

    n = |D1||D2||D3|, sign = -1 and whole = 0; a global complement takes
    n = 2^(3m) - n, sign = +1 and whole = 2^(3m), the character sum over all
    of R^m.
    """
    n = complex_size(spec.d1) * complex_size(spec.d2) * complex_size(spec.d3)
    if spec.global_complement:
        return (1 << 3 * spec.m) - n, 1, 1 << 3 * spec.m
    return n, -1, 0


def min_distance(weights: Mapping[int, int]) -> int:
    """Smallest weight of a nonzero codeword in a weight distribution."""
    positive = [w for w, c in weights.items() if w > 0 and c > 0]
    if not positive:
        raise DegenerateConfigurationError("trivial code has no nonzero codeword")
    return min(positive)
