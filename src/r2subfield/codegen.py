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

One code is weighed in two stages, both by :func:`weigh`:

* n and two factor transforms.  The columns are the image of
  D1 x D2 x D3 under (d1, d2, d3) -> (d1, d2 + d3, d2), or of its
  complement in F2^(3m) for a global complement (family 9), each column
  once.  Message v has weight (n - H[v]) / 2 with H the Walsh-Hadamard
  transform of the column indicator, and that indicator is the Kronecker
  product of the indicator of D1 (2^m entries) and the indicator of the
  slots (d2 + d3, d2) (2^(2m) entries), both written straight from the
  member lists.  So H factors into F and G, the transforms of the two
  indicators (:func:`_d1_transform`, :func:`_slot_transform`), each one
  int of 1-, 2- or 4-byte packed fields.  No table of the 2^(3m) messages
  is built.  F and G read only the member lists, never the spectra of the
  complexes, so the character-sum check below stays an independent check
  of them.
* The weight distribution (:func:`_summarize`): the histogram of the
  doubled weights n -+ F[alpha] * G[sigma] is the product of the value
  histograms of F and G, each of a few values.  :func:`_cosets` divides it
  by the kernel into k and the distribution of the code; the predicted
  table (``analysis._instantiate``) is normalized by the same step.

F depends on D1 alone and G on (D2, D3) alone, so :func:`weigh` (and the
sweep, through :func:`_weigh_records`) reads both stages and the character-sum
check below from two LRU records: one per D1 (:class:`~.simplicial.ComplexSpec`)
and one per (D2, D3).  Their bounds are the 2 * 2^m factors and the
4 * 4^m pairs summed over m <= :data:`BRUTE_FORCE_M_CAP`, 124 and 5,456
entries, so each holds every factor or pair up to the cap.  A record
holds the value histogram of its transform as (value, count) pairs, the
value at 0 and whether the transform equals the spectra, and no list of
2^m or 2^(2m) values.  The transforms come only from the member lists and
the spectra only from :func:`~.simplicial.char_sum`, and every
configuration is summarized and checked from its own two records.  The
summary is a pure function of the contents of those two records, so it is
memoised on them (:func:`_summarize`): the 4,608 configurations at m = 3
share 195 distinct keys.  A wrong record is a different key, and so gets
its own summary.

No function here builds an element of R or a generator row.  The tests keep
the literal construction of the paper (R-vectors, trace triples,
transposition to generator rows) and a full table of the 2^(3m) message
weights as a reference route in ``tests/reference.py``, and compare the
factored route with them.

The character-sum route is independent of the enumeration: the weight of
(alpha, beta, gamma) is (|D| - S1[alpha] * S2[beta + gamma] * S3[beta]) / 2
with Si the character-sum spectrum of the i-th complex (for a global
complement the product enters with the opposite sign, and the zero message
also subtracts 2^(3m)).  F[0] = |D1| = S1[0] and G[0] = |D2||D3| =
S2[0] * S3[0] are nonzero for a non-degenerate code, so the enumeration
agrees with it on every message exactly when F = S1 (:func:`_d1_matches`)
and G[beta | gamma << m] = S2[beta + gamma] * S3[beta]
(:func:`_slots_match`), 2^m + 2^(2m) comparisons in place of 2^(3m).
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache

from .simplicial import ComplexSpec, enumerate_members, spectrum

__all__ = [
    "BRUTE_FORCE_M_CAP",
    "DegenerateConfigurationError",
    "InvariantError",
    "DefiningSetSpec",
    "CodeSummary",
    "weigh",
    "min_distance",
]

BRUTE_FORCE_M_CAP = 5

# :func:`_indicator_transform` packs one value per field of an int and reads
# the fields back as native array items.  Every partial sum of the transform
# of t points lies in [-t, t], so a bias of 2^(8w - 1) keeps each w-byte
# field in range when t < 2^(8w - 1): the narrowest of 1, 2 or 4 bytes that
# holds t is used (_field_typecode).
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


def weigh(spec: DefiningSetSpec) -> tuple[CodeSummary, bool]:
    """The code's summary, and whether its transforms match the character sums.

    The message (alpha, beta, gamma), packed as v = alpha | sigma << m with
    sigma = beta | gamma << m, has weight (n - H[v]) / 2 for H[v] the sum of
    (-1)^(p . v) over the columns p.  For families 1-8 the column indicator
    is the Kronecker product of the slot indicator and the indicator of D1,
    so H[alpha | sigma << m] = F[alpha] * G[sigma] for F and G their
    transforms (:func:`_d1_transform`, :func:`_slot_transform`).  A global
    complement (family 9) counts the other points of F2^(3m), so
    H = 2^(3m) [v = 0] - F[alpha] * G[sigma].  n = F[0] * G[0] = |D1||D2||D3|,
    or 2^(3m) minus that for a global complement.

    F and G are read from the two per-factor records (:func:`_d1_record` and
    :func:`_slot_record`) and weighed by :func:`_weigh_records`.

    Raises :class:`DegenerateConfigurationError` for an empty defining set or
    a trivial code, and ``ValueError`` above :data:`BRUTE_FORCE_M_CAP`.
    """
    if spec.m > BRUTE_FORCE_M_CAP:
        raise ValueError(
            f"exhaustive enumeration is capped at m <= {BRUTE_FORCE_M_CAP}, got m = {spec.m}"
        )
    return _weigh_records(
        spec.m, _d1_record(spec.d1), _slot_record(spec.d2, spec.d3), spec.global_complement
    )


def _weigh_records(m: int, d1_record, slot_record, global_complement: bool):
    """:func:`weigh` from the records of D1 and (D2, D3) (:func:`_d1_record`, :func:`_slot_record`).

    A record holds its transform's value histogram, value at 0 and check
    against the spectra, so a sweep weighs each configuration from records
    it has read once, and :func:`_summarize` summarizes each distinct pair once.
    """
    f_counts, f0, f_ok = d1_record
    g_counts, g0, g_ok = slot_record
    n = (1 << 3 * m) - f0 * g0 if global_complement else f0 * g0
    if not n:
        raise DegenerateConfigurationError("empty defining set")
    return _summarize(n, f_counts, g_counts, f0 * g0, global_complement), f_ok and g_ok


def _d1_transform(part: ComplexSpec) -> list[int]:
    """F, the transform of the indicator of D1 (2^m entries), from its member list."""
    return _indicator_transform(enumerate_members(part), part.m)


def _slot_transform(d2: ComplexSpec, d3: ComplexSpec) -> list[int]:
    """G, the transform of the slot indicator (2^(2m) entries), from the member lists.

    The slot of (d2, d3) is s = (d2 + d3) | d2 << m, and (d2, d3) -> s is
    injective, so the indicator has one 1 per pair.  It is not factored
    further into transforms of D2 and D3: those would be their spectra, and
    G would then repeat the character-sum identity rather than check it.
    """
    m, members3 = d2.m, enumerate_members(d3)
    slots = [(x ^ y) | x << m for x in enumerate_members(d2) for y in members3]
    return _indicator_transform(slots, 2 * m)


# (value, count) pairs of a transform
_Histogram = tuple[tuple[int, int], ...]


@lru_cache(maxsize=sum(2 << m for m in range(1, BRUTE_FORCE_M_CAP + 1)))
def _d1_record(part: ComplexSpec) -> tuple[_Histogram, int, bool]:
    """(value histogram of F, F[0], F == S1) for one D1: every factor at m <= the cap."""
    f = _d1_transform(part)
    return _histogram(f), f[0], _d1_matches(part, f)


@lru_cache(maxsize=sum(4 << 2 * m for m in range(1, BRUTE_FORCE_M_CAP + 1)))
def _slot_record(d2: ComplexSpec, d3: ComplexSpec) -> tuple[_Histogram, int, bool]:
    """(value histogram of G, G[0], G == S2 o S3) for one (D2, D3): every pair at m <= the cap."""
    g = _slot_transform(d2, d3)
    return _histogram(g), g[0], _slots_match(d2, d3, g)


def _histogram(values: Sequence[int]) -> _Histogram:
    """The distinct values with their multiplicities, as (value, count) pairs by value.

    Sorted, so that equal histograms are equal keys of :func:`_summarize`
    whatever order the values came in.
    """
    return tuple(sorted(Counter(values).items()))


def _indicator_transform(points: Sequence[int], bits: int) -> list[int]:
    """The Walsh-Hadamard transform of the 0/1 indicator of distinct ``points`` in F2^bits.

    The indicator is packed in fields of the narrowest width whose bias
    exceeds the number of points (:func:`_field_typecode`), and transformed
    by :func:`_walsh_hadamard`.
    """
    typecode = _field_typecode(len(points))
    width = array(typecode).itemsize
    bias = 1 << (8 * width - 1)
    fields = 1 << bits
    indicator = array(typecode, [0]) * fields
    for p in points:
        indicator[p] = 1
    packed = _walsh_hadamard(
        int.from_bytes(indicator, sys.byteorder),
        int.from_bytes(array(typecode, [bias]) * fields, sys.byteorder),
        fields,
        width,
    )
    biased = array(typecode, packed.to_bytes(width * fields, sys.byteorder))
    return [value - bias for value in biased]


def _field_typecode(t: int) -> str:
    """The ``array`` typecode of the narrowest w-byte field with t < 2^(8w - 1)."""
    if t < 1 << 7:
        return "B"
    if t < 1 << 15:
        return "H"
    return "I"


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
    :func:`_d1_transform` runs it on 2^m fields and :func:`_slot_transform`
    on 2^(2m).
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


@lru_cache(maxsize=4096)
def _summarize(
    n: int,
    f_counts: _Histogram,
    g_counts: _Histogram,
    zero: int,
    global_complement: bool,
) -> CodeSummary:
    """The code from the value histograms of F and G and zero = F[0] * G[0].

    The doubled-weight histogram is their product, each of a few values,
    with one count moved from n + zero to 0 for a global complement, and
    :func:`_cosets` divides it by the kernel into k and the distribution.

    A pure function of its arguments, so it is memoised on them: a full
    m = 5 sweep has 670 distinct keys, well under the bound.  Errors are
    raised afresh on every call, as ``lru_cache`` stores no exception.  Every
    call with the same key gets the same :class:`CodeSummary`, so its
    ``weights`` must not be mutated.
    """
    sign = 1 if global_complement else -1
    doubled = Counter()
    for a, a_count in f_counts:
        for b, b_count in g_counts:
            doubled[n + sign * a * b] += a_count * b_count
    if global_complement:
        doubled[n + zero] -= 1
        doubled[0] += 1
    total = sum(count for _, count in f_counts) * sum(count for _, count in g_counts)
    k, dist = _cosets(doubled, total)
    if k == 0:
        raise DegenerateConfigurationError("trivial code: every message maps to 0")
    return CodeSummary(n=n, k=k, d=min_distance(dist), weights=dist)


def _cosets(doubled: Mapping[int, int], total: int) -> tuple[int, dict[int, int]]:
    """k and the weight distribution of a code from its doubled-weight histogram.

    ``doubled`` counts the ``total`` messages by twice the weight of their
    codeword; zero counts are allowed and dropped.  Every codeword has the
    same number of preimages, the kernel (the messages of weight 0), so each
    weight class must be a union of kernel cosets, and dividing its count by
    the kernel size gives the codewords of that weight, with
    k = log2(total / kernel).  The enumerated code (:func:`_summarize`) and
    the predicted table (``analysis._instantiate``) both end here.
    """
    kernel = doubled.get(0, 0)
    if not kernel or total % kernel or kernel & (kernel - 1):
        raise InvariantError("kernel must be a 2-power")
    dist = {}
    for w, count in sorted(doubled.items()):
        if w & 1:
            raise InvariantError("doubled weight must be even")
        if count % kernel:
            raise InvariantError("weight class not a union of kernel cosets")
        if count:
            dist[w >> 1] = count // kernel
    return (total // kernel).bit_length() - 1, dist


def _d1_matches(part: ComplexSpec, f: Sequence[int]) -> bool:
    """Whether F equals the spectrum S1 of D1."""
    return f == spectrum(part)


def _slots_match(d2: ComplexSpec, d3: ComplexSpec, g: Sequence[int]) -> bool:
    """Whether G[beta | gamma << m] = S2[beta + gamma] * S3[beta] for every beta, gamma."""
    s2, s3 = spectrum(d2), spectrum(d3)
    full = range(1 << d2.m)
    return g == [s2[beta ^ gamma] * s3[beta] for gamma in full for beta in full]


def min_distance(weights: Mapping[int, int]) -> int:
    """Smallest weight of a nonzero codeword in a weight distribution."""
    positive = [w for w, c in weights.items() if w > 0 and c > 0]
    if not positive:
        raise DegenerateConfigurationError("trivial code has no nonzero codeword")
    return min(positive)
