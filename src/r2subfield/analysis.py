"""Closed-form predictions and structural checks for the nine families.

A family is a complement pattern for the defining-set triple (D1, D2, D3):

    1: none      2: D1        3: D2        4: D3
    5: D1, D2    6: D1, D3    7: D2, D3    8: all three
    9: global complement inside R^m of the family-1 set

Each family carries an exact predicted weight table in the subset sizes
(|L|, |M|, |N|).  Families with as many complemented factors are one
theorem with the roles of L, M, N permuted, so the tables, the sufficiency
conditions and the optimality rule are written once per complement shape
(none, one, two, three, global), in the complemented sizes and p, the sum
of the plain ones.  The tables are instantiated over the integers
(:func:`_instantiate`): zero-count rows are dropped, rows whose weights
collide are merged, and the result is normalized by the kernel-coset step
that also ends the enumeration (:func:`~r2subfield.codegen._cosets`).  A
row can land on weight 0 with positive count (in families 2-8 when a
complement degenerates, say |L| = |M| = m - 1 in family 5); the messages
then have extra kernel, every count is divided by the weight-0 count and k
drops accordingly.  The normalized table is what ``predicted_parameters``
reads n, k, d from; it is compared codeword-for-codeword against the
enumerated code by the sweep here and by the test suite.  The table,
the conditions, the optimality rule and both exact decisions below depend
on the size class (family, m, |L|, |M|, |N|) alone.  The table is cached
by it in an LRU of 1024 entries (one family's (m + 1)^3 classes up to
m = 9), as :func:`griesmer_sum` is by (k, d), and the rest in one record
per class (:func:`_size_class`), read once per report or sweep row body.
Neither holds an enumerated result, so every relabelling meets them with
its own code.

Also implemented: the Griesmer bound (sum of ceil(d / 2^i)), the
Ashikhmin-Barg sufficient condition for minimality (2 * wmin > wmax for
binary codes), self-orthogonality checks, and the catalogued per-family
sufficiency conditions for minimality and self-orthogonality
(``table10_conditions``).

Minimality (``minimal_exact``) is decided exactly by
:func:`spectral_minimality`, which reads it off the three character-sum
spectra and lists no codeword, and self-orthogonality (``self_orth_exact``)
likewise by :func:`spectral_self_orthogonality`, both in one walk of the
pair classes per size class, at any m.  The tests compare the first with a
scan of all codewords for two with disjoint supports, and the second with
the Gram check of the generator rows.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, lru_cache
from itertools import chain, compress, product
from typing import NamedTuple

from .codegen import (
    BRUTE_FORCE_M_CAP,
    CodeSummary,
    DefiningSetSpec,
    DegenerateConfigurationError,
    InvariantError,
    _cosets,
    _d1_record,
    _slot_record,
    _weigh_records,
    min_distance,
    weigh,
)
from .simplicial import ComplexSpec, Subset, complex_size

__all__ = [
    "FAMILIES",
    "MINIMALITY_CAP",
    "SWEEP_ROW_FIELDS",
    "SufficiencyConditions",
    "spec_for_family",
    "family_of_spec",
    "predicted_parameters",
    "predicted_weight_table",
    "griesmer_sum",
    "is_griesmer_code",
    "distance_optimal_by_griesmer",
    "optimality_condition",
    "ashikhmin_barg_minimal",
    "spectral_minimality",
    "spectral_self_orthogonality",
    "self_orth_mod4",
    "table10_conditions",
    "code_report",
    "run_sweep",
    "sweep_tasks",
    "SweepTasks",
    "fold_tallies",
]

FAMILIES = tuple(range(1, 10))

MINIMALITY_CAP = 1 << 14

# family -> (complement D1, complement D2, complement D3, global complement)
_PATTERNS = {
    1: (False, False, False, False),
    2: (True, False, False, False),
    3: (False, True, False, False),
    4: (False, False, True, False),
    5: (True, True, False, False),
    6: (True, False, True, False),
    7: (False, True, True, False),
    8: (True, True, True, False),
    9: (False, False, False, True),
}


def _check_family(family: int) -> None:
    if family not in _PATTERNS:
        raise ValueError(f"family must be 1..9, got {family}")


def _check_m(m: int) -> None:
    if not 1 <= m <= BRUTE_FORCE_M_CAP:
        raise ValueError(f"m must be in 1..{BRUTE_FORCE_M_CAP}, got {m}")


def spec_for_family(family: int, lset: Subset, mset: Subset, nset: Subset) -> DefiningSetSpec:
    """Defining-set spec for generators L, M, N under the family's pattern."""
    _check_family(family)
    if not lset.m == mset.m == nset.m:
        raise ValueError("L, M, N must share one ground set")
    c1, c2, c3, global_c = _PATTERNS[family]
    parts = ComplexSpec(lset, c1), ComplexSpec(mset, c2), ComplexSpec(nset, c3)
    return DefiningSetSpec(lset.m, *parts, global_c)


_FAMILY_OF_PATTERN = {pattern: family for family, pattern in _PATTERNS.items()}


def family_of_spec(spec: DefiningSetSpec) -> int:
    pattern = (spec.d1.complemented, spec.d2.complemented, spec.d3.complemented)
    return _FAMILY_OF_PATTERN[(*pattern, spec.global_complement)]


def _class_key(spec: DefiningSetSpec) -> tuple[int, ...]:
    """The size class (family, m, |L|, |M|, |N|) of ``spec``."""
    return (family_of_spec(spec), spec.m, *(part.generator.size for part in spec.parts))


def _check_sizes(family: int, m: int, sl: int, sm: int, sn: int) -> None:
    _check_family(family)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    for name, size in (("L", sl), ("M", sm), ("N", sn)):
        if not 0 <= size <= m:
            raise ValueError(f"|{name}| must be in 0..{m}, got {size}")


def _shape(family: int, sl: int, sm: int, sn: int) -> tuple[tuple[int, ...], int, bool]:
    """The complemented sizes in D1, D2, D3 order, p = the sum of the plain ones, global flag."""
    pattern = _PATTERNS[family]
    comp = tuple(compress((sl, sm, sn), pattern))
    return comp, sl + sm + sn - sum(comp), pattern[3]


def _table_rows(family: int, m: int, sl: int, sm: int, sn: int):
    """Raw table rows as (doubled weight, count), plus n and the nominal k.

    Weights are kept doubled so every entry is an integer even in rows whose
    count vanishes; counts are exact codeword counts before normalization.
    One formula serves each complement shape, in the complemented sizes and
    p, the sum of the plain ones.
    """
    comp, p, global_c = _shape(family, sl, sm, sn)
    if global_c:
        rows = [
            (1 << 3 * m, (1 << (3 * m - p)) - 1),
            ((1 << 3 * m) - (1 << p), (1 << 3 * m) - (1 << (3 * m - p))),
        ]
        return rows, (1 << 3 * m) - (1 << p), 3 * m
    if not comp:
        return [(1 << p, (1 << p) - 1)], 1 << p, p
    big = 1 << m
    # |Delta_X^c| and the nonzero w avoiding X, per complemented factor
    a = [big - (1 << x) for x in comp]
    t = [(1 << (m - x)) - 1 for x in comp]
    if len(comp) == 1:
        rows = [
            (a[0] << p, (1 << (m + p)) - (1 << (m - comp[0]))),
            (1 << (m + p), t[0]),
        ]
        return rows, a[0] << p, m + p
    if len(comp) == 2:
        x, y = comp
        rows = [
            (a[0] * a[1] << p, (1 << (2 * m + p)) - (1 << (2 * m - x - y))),
            (a[1] << (m + p), t[0]),
            (a[0] << (m + p), t[1]),
            ((big - (1 << x) - (1 << y)) << (m + p), t[0] * t[1]),
        ]
        return rows, a[0] * a[1] << p, 2 * m + p
    s = sum(comp)
    rows = [
        (a[0] * a[1] * a[2], (1 << 3 * m) - (1 << (3 * m - s))),
        (a[0] * a[1] * a[2] + (1 << s), t[0] * t[1] * t[2]),
    ]
    for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
        rows.append((a[j] * a[k] << m, t[i]))
        rows.append((a[i] * (big - (1 << comp[j]) - (1 << comp[k])) << m, t[j] * t[k]))
    return rows, a[0] * a[1] * a[2], 3 * m


@lru_cache(maxsize=1024)
def _instantiate(family: int, m: int, sl: int, sm: int, sn: int):
    """Normalized predicted table: returns (n, k, {weight: count}).

    The rows of :func:`_table_rows` and the zero codeword are merged into
    one doubled-weight histogram of 2^k nominal messages, which
    :func:`~r2subfield.codegen._cosets` divides by its kernel, as it does
    the enumerated code's.
    """
    _check_sizes(family, m, sl, sm, sn)
    rows, n, nominal_k = _table_rows(family, m, sl, sm, sn)
    merged = Counter({0: 1})
    for dw, count in rows:
        if count < 0:
            raise InvariantError("table counts must be non-negative")
        if count == 0:
            continue
        if dw < 0:
            raise InvariantError("positive-count row with negative weight")
        merged[dw] += count
    total = 1 << nominal_k
    if merged.total() != total:
        raise InvariantError("table counts must sum to 2^k")
    k, table = _cosets(merged, total)
    if n == 0 or k == 0:
        raise DegenerateConfigurationError(
            f"family {family} with |L|,|M|,|N| = {sl},{sm},{sn} at m = {m} "
            "yields an empty or trivial code"
        )
    if max(table) > n:
        raise InvariantError("predicted weight exceeds length")
    return n, k, table


def predicted_parameters(family: int, m: int, sl: int, sm: int, sn: int) -> tuple[int, int, int]:
    """Predicted [n, k, d], read off the normalized weight table."""
    n, k, table = _instantiate(family, m, sl, sm, sn)
    return n, k, min_distance(table)


def predicted_weight_table(family: int, m: int, sl: int, sm: int, sn: int) -> dict[int, int]:
    """Predicted weight distribution {weight: codeword count}, including 0."""
    return dict(_instantiate(family, m, sl, sm, sn)[2])


@lru_cache(maxsize=1024)
def griesmer_sum(k: int, d: int) -> int:
    """sum_{i=0}^{k-1} ceil(d / 2^i), the Griesmer lower bound on n."""
    if k < 1 or d < 1:
        raise ValueError(f"need k >= 1 and d >= 1, got k={k}, d={d}")
    return sum((d + (1 << i) - 1) >> i for i in range(k))


def is_griesmer_code(n: int, k: int, d: int) -> bool:
    """True when the parameters meet the Griesmer bound with equality."""
    return griesmer_sum(k, d) == n


def distance_optimal_by_griesmer(n: int, k: int, d: int) -> bool:
    """True when no [n, k, d + 1] binary code can exist by the bound.

    False means the bound does not decide; it never certifies non-optimality.
    """
    _griesmer_checked(n, k, d)
    return griesmer_sum(k, d + 1) > n


def _griesmer_checked(n: int, k: int, d: int) -> int:
    """:func:`griesmer_sum` (k, d); ``ValueError`` if [n, k, d] lies below the bound."""
    bound = griesmer_sum(k, d)
    if bound > n:
        raise ValueError(f"[{n},{k},{d}] already violates the Griesmer bound")
    return bound


def optimality_condition(family: int, m: int, sl: int, sm: int, sn: int) -> bool:
    """Whether the family's distance-optimality rule holds for these sizes.

    The rule is written per complement shape, in the complemented sizes and
    p, the sum of the plain ones.  One complemented factor (families 2-4)
    and the global complement (family 9) are distance-optimal without
    conditions.  No complemented factor (family 1) requires
    p = |L|+|M|+|N| >= 2: its code is [2^p, p, 2^(p-1)] with one
    identically zero coordinate, and the Griesmer sum for d + 1 is
    2^p - 1 + p, which exceeds n exactly when p >= 2; at p = 1 the code is
    [2, 1, 1] and the repetition code [2, 1, 2] beats it.  (The paper's
    abstract says only that "most" of the codes are distance-optimal, so this
    bound is derived here, not quoted.)  Two complemented factors (families
    5-7) require 2^(|L|+|M|+|N|) to be at most 2(m-1) + p.  Three (family
    8) carry no rule; use :func:`distance_optimal_by_griesmer` on the
    computed parameters instead.
    """
    _check_sizes(family, m, sl, sm, sn)
    comp, p, global_c = _shape(family, sl, sm, sn)
    if len(comp) == 3:
        raise ValueError("family 8 has no closed-form optimality rule")
    if global_c or len(comp) == 1:
        return True
    if not comp:
        return p >= 2
    return (1 << (sum(comp) + p)) <= 2 * (m - 1) + p


def ashikhmin_barg_minimal(weights) -> bool:
    """Sufficient condition for minimality: 2 * wmin > wmax (binary case)."""
    positive = [w for w, c in weights.items() if w > 0 and c > 0]
    if not positive:
        raise DegenerateConfigurationError("trivial code has no nonzero codeword")
    return 2 * min(positive) > max(positive)


@cache
def _pair_classes(m: int, size: int, complemented: bool) -> frozenset:
    """Realisable (S[u], S[v], S[u + v], u = 0, v = 0, u = v) over all u, v in F2^m.

    S is the spectrum of Delta_X, or of its complement, for |X| = size.  S
    and the flags depend only on whether each of u, v and u + v is zero,
    avoids X or hits X: on which of them vanish on X and which off X.  On
    k coordinates all three vanish, exactly one does (k >= 1) or none does
    (u, v independent, k >= 2).  So a model ground set with min(|X|, 2)
    coordinates in X and min(m - |X|, 2) outside it, given the real values
    (2^|X| or 0 on Delta_X; 2^m [u = 0] minus that on the complement),
    gives the same set: at most 256 pairs and 12 elements at every m.
    """
    hits = (1 << min(size, 2)) - 1
    model = range(1 << min(size, 2) + min(m - size, 2))
    s = [0 if u & hits else 1 << size for u in model]
    if complemented:
        s = [(1 << m) * (u == 0) - value for u, value in enumerate(s)]
    return frozenset((s[u], s[v], s[u ^ v], u == 0, v == 0, u == v) for u in model for v in model)


def _pair_weights(m: int, factors, n: int, sign: int, whole: int):
    """Doubled weights (2W(a), 2W(b), 2W(a + b)) of the realisable message pairs.

    ``factors`` holds (|X|, complemented) for D1, D2 and D3.  Message
    (alpha, beta, gamma) meets the three factors in one component each:
    alpha, x = beta + gamma and y = beta, and a + b splits the same way.  So
    a pair of messages is a pair (u, v) per factor, and its weights follow
    from the three :func:`_pair_classes`:

        2W(a) = n + sign * S1[alpha] * S2[x] * S3[y] - whole * [a = 0]

    with n, sign and whole from :func:`_charsum_terms`, the character-sum
    identity that :func:`~r2subfield.codegen.weigh` checks the factor
    transforms against.  Every realisable triple is yielded at least once,
    some more than once.
    """
    first, second, third = (_pair_classes(m, *factor) for factor in factors)
    products = {
        (sa * ta, sb * tb, sab * tab, za and ya, zb and yb, zab and yab)
        for sa, sb, sab, za, zb, zab in first
        for ta, tb, tab, ya, yb, yab in second
    }
    for pa, pb, pab, za, zb, zab in products:
        for sa, sb, sab, ya, yb, yab in third:
            yield (
                n + sign * pa * sa - whole * (za and ya),
                n + sign * pb * sb - whole * (zb and yb),
                n + sign * pab * sab - whole * (zab and yab),
            )


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


def spectral_minimality(spec: DefiningSetSpec) -> bool:
    """Decide minimality of the code of ``spec`` from the three spectra, listing no codeword.

    A binary linear code fails minimality exactly when some nonzero
    codeword covers another, which happens iff two nonzero codewords have
    disjoint supports: their sum covers both, and conversely u covering v
    makes u + v disjoint from v (Ding, Heng and Zhou, "Minimal binary
    linear codes", IEEE TIT 2018).  The codewords of messages a and b meet
    in (W(a) + W(b) - W(a + b)) / 2 positions, so that happens exactly when
    some pair has W(a) > 0, W(b) > 0 and W(a) + W(b) = W(a + b); two
    messages of one codeword have W(a + b) = 0 and never qualify.  The
    pairs come from :func:`_pair_weights` in one walk per size class
    (:func:`_size_class`).  A code with no nonzero codeword is vacuously
    minimal.

    The tests find the decision equal to Table 10's minimality condition
    (:func:`table10_conditions`) on every non-degenerate size class at
    m = 2..8.  At m = 1 it differs on seven classes, |L| = |M| = |N| = 0 in
    families 2-8, which are minimal but not claimed.
    """
    return _size_class(*_class_key(spec))[0]


def spectral_self_orthogonality(spec: DefiningSetSpec) -> bool:
    """Decide self-orthogonality of the code of ``spec`` from the three spectra.

    A binary linear code lies in its dual exactly when every two of its
    codewords, a codeword and itself included, meet in an even number of
    positions.  The codewords of messages a and b meet in
    (W(a) + W(b) - W(a + b)) / 2 positions, so the code is self-orthogonal
    exactly when 2W(a) + 2W(b) - 2W(a + b) is 0 mod 8 for every pair of
    :func:`_pair_weights`; a = b gives 4W(a), so every weight is even.  It
    is decided in the walk that decides :func:`spectral_minimality`.

    The tests find a non-degenerate size class self-orthogonal exactly when
    s = |L| + |M| + |N| is 0 or at least 3, at every m = 3..8.  At m = 1
    and 2 that fails only for s = 0 in families 2-8, which are not
    self-orthogonal.
    """
    return _size_class(*_class_key(spec))[1]


def self_orth_mod4(weights) -> bool:
    """Sufficient condition for self-orthogonality: every weight is 0 mod 4."""
    return all(w % 4 == 0 for w, c in weights.items() if c > 0)


class SufficiencyConditions(NamedTuple):
    minimal: bool
    self_orthogonal: bool


def table10_conditions(family: int, m: int, sl: int, sm: int, sn: int) -> SufficiencyConditions:
    """The catalogued per-family sufficiency conditions on the subset sizes.

    ``minimal`` guarantees the code is minimal, ``self_orthogonal`` that it
    is self-orthogonal; both are sufficient only, and both are checked
    against the exact decisions across full sweeps in the test suite.  They
    are written per complement shape, like :func:`_table_rows`.
    """
    _check_sizes(family, m, sl, sm, sn)
    comp, p, global_c = _shape(family, sl, sm, sn)
    minimal = p <= 3 * m - 2 if global_c else not comp or max(comp) <= m - 2
    self_orthogonal = min(comp) >= 1 if len(comp) == 3 else p >= 3
    return SufficiencyConditions(minimal, self_orthogonal)


@lru_cache(maxsize=1024)
def _size_class(family: int, m: int, sl: int, sm: int, sn: int) -> tuple:
    """Everything read off a size class but its predicted table.

    Returns (minimal, self-orthogonal, Table 10's two conditions, the
    optimality rule or None for family 8, whether the Griesmer claim covers
    the class: at most one complemented factor, or the global complement).
    Both exact decisions come from one walk of :func:`_pair_weights` on the
    canonical spec X = {1..|X|}, which stands for every relabelling.
    """
    table10_minimal, table10_self_orth = table10_conditions(family, m, sl, sm, sn)
    comp = _shape(family, sl, sm, sn)[0]
    opt = None if len(comp) == 3 else optimality_condition(family, m, sl, sm, sn)
    spec = spec_for_family(family, *(Subset(m, frozenset(range(1, s + 1))) for s in (sl, sm, sn)))
    factors = sorted((part.generator.size, part.complemented) for part in spec.parts)
    minimal, self_orthogonal = _decisions(m, tuple(factors), *_charsum_terms(spec))
    return minimal, self_orthogonal, table10_minimal, table10_self_orth, opt, len(comp) <= 1


@cache
def _decisions(m: int, factors: tuple, n: int, sign: int, whole: int) -> tuple[bool, bool]:
    """(minimal, self-orthogonal) from the distinct triples of :func:`_pair_weights`.

    The triples do not change when the three factors are permuted, so the
    size classes whose factors are one multiset, with one global flag
    (carried by ``sign``), share this walk: 102 keys for the 405
    non-degenerate size classes at m = 3.
    """
    triples = set(_pair_weights(m, factors, n, sign, whole))
    minimal = not any(wa > 0 and wb > 0 and wa + wb == wab for wa, wb, wab in triples)
    return minimal, all((wa + wb - wab) % 8 == 0 for wa, wb, wab in triples)


def _predict(key: tuple[int, ...]) -> CodeSummary:
    """The predicted :class:`~r2subfield.codegen.CodeSummary` of size class ``key``.

    Only called for a code that enumeration found nontrivial, so a
    prediction of degeneracy is a program fault (:class:`InvariantError`).
    The table is read through :func:`_instantiate` on every call; its
    ``min_distance`` still raises :class:`DegenerateConfigurationError` for
    a table with no nonzero weight.
    """
    try:
        pn, pk, ptable = _instantiate(*key)
    except DegenerateConfigurationError:
        raise InvariantError(
            "prediction says degenerate but enumeration found a nontrivial code"
        ) from None
    return CodeSummary(n=pn, k=pk, d=min_distance(ptable), weights=ptable)


def _evaluate(key: tuple[int, ...], measured: CodeSummary):
    """One configuration of size class ``key`` (:func:`_class_key`): prediction and flags.

    ``measured`` is the :class:`~r2subfield.codegen.CodeSummary` that
    :func:`~r2subfield.codegen.weigh` read off the enumerated side.  Exact
    minimality (:func:`spectral_minimality`) is reported for codes of up to
    :data:`MINIMALITY_CAP` codewords.  Returns the predicted
    :class:`~r2subfield.codegen.CodeSummary` (:func:`_predict`) and the
    flags of the report, in the stable JSON layout of the CLI; every value
    of the class but its table is read through its record (:func:`_size_class`).
    """
    params = (measured.n, measured.k, measured.d)
    predicted = _predict(key)
    minimal, self_orth, table10_minimal, table10_self_orth, opt, _ = _size_class(*key)
    minimal_exact = minimal if (1 << measured.k) <= MINIMALITY_CAP else None
    flags = {
        "griesmer_equal": is_griesmer_code(*params),
        "distance_optimal_by_griesmer": distance_optimal_by_griesmer(*params),
        "optimality_condition": opt,
        "minimal_exact": minimal_exact,
        "minimal_ab": ashikhmin_barg_minimal(measured.weights),
        "self_orth_exact": self_orth,
        "self_orth_mod4": self_orth_mod4(measured.weights),
        "table10_minimal": table10_minimal,
        "table10_self_orth": table10_self_orth,
    }
    return predicted, flags


def code_report(family: int, lset: Subset, mset: Subset, nset: Subset) -> dict:
    """The full report for one configuration (stable field layout).

    Exact minimality is decided from the spectra
    (:func:`spectral_minimality`) whenever the code has at most
    :data:`MINIMALITY_CAP` codewords.  Raises
    :class:`DegenerateConfigurationError` when the configuration yields an
    empty or zero-dimensional code.
    """
    spec = spec_for_family(family, lset, mset, nset)
    measured = weigh(spec)[0]
    predicted, flags = _evaluate(_class_key(spec), measured)
    return {
        "m": spec.m,
        "family": family,
        "L": str(lset),
        "M": str(mset),
        "N": str(nset),
        **measured.as_dict(),
        "predicted": predicted.as_dict(),
        "flags": flags,
        "match": predicted == measured,
    }


# The fields of a sweep row, in the order of its JSON object and CSV columns;
# the checks a row did not run stay None.
SWEEP_ROW_FIELDS = (
    "m", "family", "L", "M", "N", "status", "n", "k", "d", "match",
    "charsum_ok", "griesmer_ok", "minimal_claim_ok", "selforth_claim_ok",
    "ab_implication_ok", "detail",
)


def _row_body(key: tuple[int, ...], d1_record, slot_record, global_complement: bool) -> dict:
    """A row's fields after ``N``, from its size class ``key`` and its two factor records.

    The records of D1 and (D2, D3) are weighed by
    :func:`~r2subfield.codegen._weigh_records` and the class predicted by
    :func:`_predict`, both inside the catch that makes a row degenerate.
    The body is then one dict of the fields a row prints, read off the
    measured code, the prediction and the class record (:func:`_size_class`):
    the values :func:`_evaluate` would flag, computed only where a field
    reads them.  A code below the Griesmer bound is still a ``ValueError``
    (:func:`_griesmer_checked`).  Exact minimality is known only for codes
    of at most :data:`MINIMALITY_CAP` codewords, so at m = 5 a code with
    k > 14 checks no minimality claim.
    """
    try:
        measured, charsum_ok = _weigh_records(key[1], d1_record, slot_record, global_complement)
        predicted = _predict(key)
    except DegenerateConfigurationError as exc:
        return {**dict.fromkeys(SWEEP_ROW_FIELDS[5:]), "status": "degenerate", "detail": str(exc)}
    n, k, d, weights = measured.n, measured.k, measured.d, measured.weights
    minimal, self_orth, table10_minimal, table10_self_orth, _, griesmer_claim = _size_class(*key)
    griesmer_equal = _griesmer_checked(n, k, d) == n
    minimal_exact = minimal if (1 << k) <= MINIMALITY_CAP else None
    match = predicted == measured
    return {
        "status": "ok" if match else "mismatch",
        "n": n,
        "k": k,
        "d": d,
        "match": match,
        "charsum_ok": charsum_ok,
        "griesmer_ok": griesmer_equal if griesmer_claim else None,
        "minimal_claim_ok": minimal_exact if table10_minimal else None,
        "selforth_claim_ok": self_orth if table10_self_orth else None,
        "ab_implication_ok": (
            minimal_exact if minimal_exact is not None and ashikhmin_barg_minimal(weights) else None
        ),
        "detail": "" if match else "; ".join(
            f"{name} [n,k,d]=[{c.n},{c.k},{c.d}] weights={dict(sorted(c.weights.items()))}"
            for name, c in (("predicted", predicted), ("measured", measured))
        ),
    }


def _slot_table(m: int, c2: bool, c3: bool) -> tuple[list[tuple], list[int]]:
    """The slot classes of every (M, N) at m, D2 and D3 complemented as ``c2`` and ``c3``.

    Returns (classes, slot_of): ``classes`` lists each distinct
    (|M|, |N|, slot record) once, in order of first appearance over the 4^m
    (M, N) by mask, and ``slot_of`` the class number of the (M, N) at
    M << m | N.  Each :func:`~r2subfield.codegen._slot_record` is read once.
    """
    subsets = [Subset.from_mask(m, mask) for mask in range(1 << m)]
    d2s, d3s = ([ComplexSpec(s, c) for s in subsets] for c in (c2, c3))
    classes = {}
    slot_of = [
        classes.setdefault((mset.size, nset.size, _slot_record(d2, d3)), len(classes))
        for mset, d2 in zip(subsets, d2s)
        for nset, d3 in zip(subsets, d3s)
    ]
    return list(classes), slot_of


def _sweep_task(family: int, m: int, slot_table: tuple | None = None) -> tuple:
    """The rows of one (family, m) as the task (family, m, labels, bodies, index).

    ``labels`` holds the subset labels by mask, ``bodies`` each distinct row
    body (the fields after ``N``) once, and ``index`` one body number per
    row, the row of masks (L, M, N) at L << 2m | M << m | N, where
    ``itertools.product(labels, repeat=3)`` has its labels.  A body depends
    only on |L|, |M|, |N| and the records of D1 and of (D2, D3) that
    :func:`~r2subfield.codegen.weigh` reads.  So the task takes the slot
    classes (|M|, |N|, slot record) of the 4^m (M, N) from ``slot_table``
    (:func:`_slot_table` of m and the family's complements of D2 and D3,
    built here if not given; :class:`SweepTasks` passes one per sweep), and
    keys each L on (|L|, D1 record): the first L of a D1 class builds one
    body per slot class (:func:`_row_body`) and the class's index row, which
    every L of it appends.  A wrong record is a class, with bodies, of its own.
    """
    c1, c2, c3, global_c = _PATTERNS[family]
    slot_classes, slot_of = slot_table or _slot_table(m, c2, c3)
    subsets = [Subset.from_mask(m, mask) for mask in range(1 << m)]
    rows_of, bodies, index = {}, [], []
    for lset in subsets:
        key = lset.size, _d1_record(ComplexSpec(lset, c1))
        if key not in rows_of:
            sl, d1_record = key
            rows_of[key] = [len(bodies) + slot for slot in slot_of]
            bodies += (
                _row_body((family, m, sl, sm, sn), d1_record, record, global_c)
                for sm, sn, record in slot_classes
            )
        index += rows_of[key]
    return family, m, [str(s) for s in subsets], bodies, index


def _task_rows(task) -> list[dict]:
    """The flat rows (:data:`SWEEP_ROW_FIELDS`) of a :func:`_sweep_task`, in row order."""
    family, m, labels, bodies, index = task
    return [
        {"m": m, "family": family, "L": lset, "M": mset, "N": nset, **bodies[number]}
        for (lset, mset, nset), number in zip(product(labels, repeat=3), index)
    ]


def sweep_tasks(ms, families=FAMILIES) -> SweepTasks:
    """The (family, m) tasks of a sweep over ``ms`` and ``families``, as a :class:`SweepTasks`.

    ``ms`` and ``families`` are checked here, before any task runs:
    ``ValueError`` for an m outside 1..BRUTE_FORCE_M_CAP, an unknown family,
    or an empty ``ms`` or ``families``.
    """
    ms, families = tuple(ms), tuple(families)
    if not (ms and families):
        raise ValueError("a sweep needs at least one m and one family")
    for m in ms:
        _check_m(m)
    for family in families:
        _check_family(family)
    return SweepTasks([(family, m) for m in ms for family in families])


class SweepTasks:
    """The tasks of a sweep (:func:`_sweep_task`), one per (family, m), in sweep order.

    Made by :func:`sweep_tasks`; iterate it once.  Each step runs the next
    task and tallies it (:func:`_tally`) as it yields it; :meth:`summary`
    folds the tallies so far.  The slot table of a task (:func:`_slot_table`)
    depends only on m and the family's complements of D2 and D3, so the
    iteration builds it once per such (m, c2, c3) and hands it to every
    task that has it: 4 tables for the 9 families of one m.  The tables
    live for that one iteration, so the next sweep reads every record again.
    """

    def __init__(self, tasks: list[tuple[int, int]]) -> None:
        self._tasks = tasks
        self._tallies: list[dict] | None = None

    def __iter__(self):
        if self._tallies is not None:
            raise RuntimeError("a sweep's tasks can be iterated once")
        self._tallies = []
        tables = {}  # (m, complement D2, complement D3) -> its slot table, for this pass only
        for family, m in self._tasks:
            pattern = (m, *_PATTERNS[family][1:3])
            if pattern not in tables:
                tables[pattern] = _slot_table(*pattern)
            task = _sweep_task(family, m, tables[pattern])
            self._tallies.append(_tally(task))
            yield task

    def summary(self) -> dict:
        """:func:`fold_tallies` of the tasks yielded so far."""
        return fold_tallies(self._tallies or ())


def run_sweep(ms, families=FAMILIES):
    """Evaluate every (family, L, M, N) configuration for each m.

    Returns (rows, summary): the rows of every task of :func:`sweep_tasks`,
    built as flat dicts, and their summary.  Each (family, m) is one task,
    9 per m for all families, run in turn; rows are ordered by (m, family,
    L, M, N) masks.  A row (:data:`SWEEP_ROW_FIELDS`) is flat: every value
    is a str, int, bool or None, as the CLI's JSON rendering needs
    (:func:`r2subfield.cli._verify_json`).  Raises ``ValueError`` as
    :func:`sweep_tasks` does.
    """
    tasks = sweep_tasks(ms, families)
    rows = list(chain.from_iterable(map(_task_rows, tasks)))
    return rows, tasks.summary()


# The counts of a summary in key order; the last five count the rows whose
# field of SWEEP_ROW_FIELDS[10:15], in that order, is False.
_COUNTS = (
    "total", "ok", "mismatch", "degenerate", "mismatch_outside_family_8", "charsum_failures",
    "griesmer_failures", "minimality_claim_failures", "selforth_claim_failures",
    "ab_implication_failures",
)


def _tally(task) -> dict:
    """The summary counts and family-8 findings of one task, without the verdict.

    Each distinct body is read once, counted once per row that holds it; the
    findings are read row by row.  Tallies add up key by key
    (:func:`fold_tallies`), the findings lists in order.
    """
    family, m, labels, bodies, index = task
    tally = dict.fromkeys(_COUNTS, 0)
    tally["total"] = len(index)
    for number, rows in Counter(index).items():
        body = bodies[number]
        tally[body["status"]] += rows
        for key, field in zip(_COUNTS[5:], SWEEP_ROW_FIELDS[10:15]):
            tally[key] += rows * (body[field] is False)
    tally["mismatch_outside_family_8"] = tally["mismatch"] if family != 8 else 0
    tally["findings"] = [
        {key: row[key] for key in ("m", "family", "L", "M", "N", "detail")}
        for row in (_task_rows(task) if family == 8 and tally["mismatch"] else ())
        if row["status"] == "mismatch"
    ]
    return tally


def fold_tallies(tallies) -> dict:
    """The summary of a sweep from the tallies of its tasks, in sweep order."""
    summary = {**dict.fromkeys(_COUNTS, 0), "findings": []}
    for tally in tallies:
        for key, value in tally.items():
            summary[key] += value
    # The pass/fail verdict follows the table-agreement contract: family-8
    # disagreements are findings, everything else must match.  The other
    # tallies (Griesmer equality, sufficiency claims) are informational here
    # and asserted separately by the test suite.
    summary["passed"] = summary["mismatch_outside_family_8"] == 0
    return summary
