"""The reference route the tests compare the library with: the paper's construction, literally.

The library builds each code straight from the product set D1 x D2 x D3 in
F2^(3m) and decides minimality from three spectra.  This module keeps the
paper's own route: arithmetic in the eight-element ring R = F2[x]/(x^3 - x),
the defining set as R-vectors, their trace masks and the transposition to
generator rows, the codeword map, and the codeword list with a scan for
disjoint supports.  It also keeps the generator rows of the product set
(:func:`code_rows`) and a Gray-code walk that weighs every message from
rows (:func:`row_message_weights`).  The library weighs a code through two
factor transforms and never lists its 2^(3m) message weights; this module
keeps that full table twice, from one transform of the whole column
indicator (:func:`message_weights`) and from the character-sum identity
(:func:`charsum_message_weights`), and the distribution read off it
(:func:`summarize_message_weights`), for the tests to compare the factored
route with, and the exact self-orthogonality check that reads the weights
of the unit messages and their pairs (:func:`_self_orthogonal`), which the
tests compare with the library's decision from the spectra.  It keeps the
4^m walk that finds the pair classes of one factor
(:func:`enumerated_pair_classes`), which the library finds in closed form.
:func:`histogram_weight_distribution` builds the weight distribution of a
size class from three spectrum-value histograms, which the tests compare
with the paper's closed-form tables past the enumeration cap.  The library
builds a sweep task's bodies once per pair of factor classes, each as one
dict of the fields a row prints; :func:`sweep_task_by_rows` builds the same
task with one memo lookup per row, and :func:`row_body_by_flags` each body
from the nine flags of a report.  It tallies a sweep once per distinct row body; :func:`tally_rows`
tallies flat rows one by one, and :func:`shift_predictions` makes every prediction
wrong, so that the sweep has mismatches to tally and render.  It is a plain
module, not a test file; the tests import it as ``from reference import
...``.

An element a + b*u + c*u**2 of R (u = image of x, so u**3 = u) is packed into
an int in ``range(8)`` as ``a | b << 1 | c << 2``.  Addition is XOR; products
are read from a precomputed 8 x 8 table.  The ring is an F2-algebra with the
F2-basis ``1, u, u**2`` but the construction here works throughout with the
alternative ordered basis

    e1 = 1 + u**2,   e2 = u**2,   e3 = u + u**2,

because the F2-linear form tau(a + b*u + c*u**2) = c pairs these basis
vectors into the coordinate maps used by the subfield construction:
writing x = g1*e1 + g2*e2 + g3*e3, the triple of trace values
(tau(x*e1), tau(x*e2), tau(x*e3)) equals (g1, g2 + g3, g2).

Binary vectors are bitmask ints as in the library: coordinate i of a
length-n vector (1-based) lives in bit i - 1, and a matrix is a list of row
masks over a common column count.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from functools import cache
from itertools import combinations, product

from r2subfield import analysis
from r2subfield.analysis import MINIMALITY_CAP, _charsum_terms
from r2subfield.codegen import (
    CodeSummary,
    DefiningSetSpec,
    DegenerateConfigurationError,
    InvariantError,
    _indicator_transform,
    min_distance,
)
from r2subfield.simplicial import ComplexSpec, Subset, enumerate_members, spectrum

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


def _base_triples(spec: DefiningSetSpec) -> list[tuple[int, ...]]:
    members1 = enumerate_members(spec.d1)
    members2 = enumerate_members(spec.d2)
    members3 = enumerate_members(spec.d3)
    out = []
    for v1 in members1:
        for v2 in members2:
            for v3 in members3:
                out.append(
                    tuple(
                        from_basis_coords(v1 >> i & 1, v2 >> i & 1, v3 >> i & 1)
                        for i in range(spec.m)
                    )
                )
    return out


def build_defining_set(spec: DefiningSetSpec) -> list[tuple[int, ...]]:
    """The defining set as a list of R-vectors (tuples of element codes).

    Plain sets are ordered with D1 outermost and D3 innermost, each complex
    in increasing bitmask order; a global complement is ordered by increasing
    vector encoding over all of R^m.
    """
    base = _base_triples(spec)
    if len(set(base)) != len(base):
        raise InvariantError("basis expansion must be injective")
    if not spec.global_complement:
        return base
    skip = set(base)
    out = []
    for code in range(1 << (3 * spec.m)):
        vec = tuple(code >> (3 * i) & 7 for i in range(spec.m))
        if vec not in skip:
            out.append(vec)
    return out


def subfield_defining_set(vectors: Sequence[tuple[int, ...]], m: int) -> list[int]:
    """Flatten R-vectors to 3m-bit masks of coordinatewise trace triples.

    Bit i of the low block is tau(x_i * e1), the middle block tau(x_i * e2),
    the high block tau(x_i * e3).
    """
    out = []
    for vec in vectors:
        if len(vec) != m:
            raise ValueError(f"vector {vec!r} has length {len(vec)}, expected {m}")
        mask = 0
        for i, x in enumerate(vec):
            t1, t2, t3 = trace_triple(x)
            mask |= t1 << i | t2 << (m + i) | t3 << (2 * m + i)
        out.append(mask)
    return out


def subfield_generator_rows(masks: Sequence[int], m: int) -> list[int]:
    """Rows of the 3m x n binary generator matrix (row j = bit j of each mask)."""
    return [
        sum((mask >> j & 1) << i for i, mask in enumerate(masks)) for j in range(3 * m)
    ]


def columns(rows: Sequence[int], n: int) -> list[int]:
    """The mask of each of the n columns of ``rows``, first column first.

    Inverse of :func:`subfield_generator_rows`: bit j of column i is bit i
    of row j.
    """
    return [sum((row >> i & 1) << j for j, row in enumerate(rows)) for i in range(n)]


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

    One product for families 1-8, three for a global complement (see
    :func:`code_rows`).
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

    For families 1-8 the columns are the product D1 x D2 x D3, D1 outermost
    and D3 innermost, each complex in increasing bitmask order, and the rows
    are repeated bit patterns of the three member lists: row j (j < m)
    repeats bit j of each d1 over a block of |D2|*|D3| columns, row 2m+j
    repeats bit j of each d2 over |D3| columns and that pattern |D1| times,
    and row m+j is row 2m+j XOR the pattern of bit j of each d3 repeated
    |D1|*|D2| times.  A global complement (family 9) is F2^(3m) minus
    D1 x D2 x D3 in (d1, d2, d3) coordinates, the disjoint union of three
    products with F = F2^m and Di' the complement of Di in F: first
    D1' x F x F, then D1 x D2' x F, then D1 x D2 x D3'.  Each piece takes its
    columns in the same order as a family 1-8 product, after the columns of
    the pieces before it.  Raises :class:`DegenerateConfigurationError` for
    an empty defining set.
    """
    n, rows = 0, [0] * (3 * spec.m)
    for members in _column_products(spec):
        width, piece = _product_rows(*members, spec.m)
        rows = [row | p << n for row, p in zip(rows, piece)]
        n += width
    if not n:
        raise DegenerateConfigurationError("empty defining set")
    return n, rows


def row_message_weights(rows: Sequence[int]) -> list[int]:
    """The weight of every message, indexed by packed mask: bit j selects row j.

    A Gray-code walk: step t XORs in the one row whose bit flips, then
    popcounts the word.
    """
    weights = [0] * (1 << len(rows))
    word = 0
    for t in range(1, len(weights)):
        word ^= rows[(t & -t).bit_length() - 1]
        weights[t ^ (t >> 1)] = word.bit_count()
    return weights


def message_weights(spec: DefiningSetSpec) -> tuple[int, list[int]]:
    """n and the weight of every message, indexed by packed mask alpha | beta << m | gamma << 2m.

    One Walsh-Hadamard transform H of the indicator of all n columns, on
    2^(3m) fields, not its Kronecker factors: message v has weight
    (n - H[v]) / 2.  Raises :class:`DegenerateConfigurationError` for an
    empty defining set.
    """
    m = spec.m
    members1, members2, members3 = (enumerate_members(part) for part in spec.parts)
    product = {d1 | ((d2 ^ d3) | d2 << m) << m
               for d1 in members1 for d2 in members2 for d3 in members3}
    if spec.global_complement:
        product = set(range(1 << 3 * m)) - product
    n = len(product)
    if not n:
        raise DegenerateConfigurationError("empty defining set")
    return n, [(n - h) >> 1 for h in _indicator_transform(product, 3 * m)]


def charsum_message_weights(spec: DefiningSetSpec) -> list[int]:
    """The weight of every message by the character-sum identity, as :func:`message_weights`.

    2W(alpha, beta, gamma) = n + sign * S1[alpha] * S2[beta + gamma] * S3[beta]
    - whole * [message = 0], with (n, sign, whole) from ``analysis._charsum_terms``.
    """
    s1, s2, s3 = (spectrum(part) for part in spec.parts)
    n, sign, whole = _charsum_terms(spec)
    full = range(1 << spec.m)
    doubled = [
        n + sign * s2[beta ^ gamma] * s3[beta] * s for gamma in full for beta in full for s in s1
    ]
    doubled[0] -= whole
    return [d >> 1 for d in doubled]


def summarize_message_weights(weights: Sequence[int], n: int, m: int) -> CodeSummary:
    """The code's parameters from the weight of every message: its histogram over the kernel."""
    histogram = Counter(weights)
    kernel = histogram[0]
    if len(weights) != 1 << 3 * m or not kernel or kernel & (kernel - 1):
        raise InvariantError("the kernel of a full message table must be a 2-power")
    if kernel == len(weights):
        raise DegenerateConfigurationError("trivial code: every message maps to 0")
    if any(count % kernel for count in histogram.values()):
        raise InvariantError("weight class not a union of kernel cosets")
    dist = {w: count // kernel for w, count in sorted(histogram.items())}
    return CodeSummary(n, 3 * m - kernel.bit_length() + 1, min_distance(dist), dist)


def enumerated_pair_classes(m: int, size: int, complemented: bool) -> frozenset:
    """(S[u], S[v], S[u + v], u = 0, v = 0, u = v) over all 4^m pairs u, v in F2^m.

    S is the spectrum of Delta_X, or of its complement, for X = {1..size}.
    The library finds the same set on a model ground set of at most four
    coordinates.
    """
    s = spectrum(ComplexSpec(Subset(m, frozenset(range(1, size + 1))), complemented))
    full = range(1 << m)
    return frozenset((s[u], s[v], s[u ^ v], u == 0, v == 0, u == v) for u in full for v in full)


@cache
def _tagged_spectrum_values(m: int, size: int, complemented: bool) -> tuple:
    """((S[w], w = 0), multiplicity) over all w in F2^m, for X = {1..size}.

    Relabelling the coordinates permutes the spectrum S and fixes w = 0, so
    the histogram depends only on (m, |X|, complemented).  It has at most
    three entries: w = 0, the other w avoiding X, and the w hitting X.
    """
    s = spectrum(ComplexSpec(Subset(m, frozenset(range(1, size + 1))), complemented))
    return tuple(Counter((value, w == 0) for w, value in enumerate(s)).items())


def histogram_weight_distribution(spec: DefiningSetSpec) -> tuple[int, int, dict[int, int]]:
    """(n, k, {weight: count}) of the code of ``spec`` from three spectrum-value histograms.

    Message (alpha, beta, gamma) reads the spectra at (alpha, beta + gamma,
    beta), a linear bijection of (F2^m)^3, so its doubled weight runs over
    n - S1[u1] * S2[u2] * S3[u3] for independent u1, u2, u3.  A global
    complement takes n = 2^(3m) - |D1||D2||D3|, flips the sign of the
    product and subtracts 2^(3m) at u = 0.  n is the product of the S_i[0]
    = |D_i|.  Each histogram has at most three entries, so this sums at
    most 27 products, and the weight-0 count (the kernel) is divided out
    as in :func:`summarize_message_weights`.  Raises
    :class:`DegenerateConfigurationError` for an empty or trivial code.
    """
    m = spec.m
    first, second, third = (
        _tagged_spectrum_values(m, part.generator.size, part.complemented)
        for part in spec.parts
    )
    whole = 1 << 3 * m
    n = 1
    for histogram in (first, second, third):
        n *= next(value for (value, zero), _ in histogram if zero)
    sign, zero_term = -1, 0
    if spec.global_complement:
        n, sign, zero_term = whole - n, 1, whole
    if not n:
        raise DegenerateConfigurationError("empty defining set")
    doubled = Counter()
    for (s1, z1), c1 in first:
        for (s2, z2), c2 in second:
            for (s3, z3), c3 in third:
                doubled[n + sign * s1 * s2 * s3 - zero_term * (z1 and z2 and z3)] += c1 * c2 * c3
    kernel = doubled[0]
    if kernel == whole:
        raise DegenerateConfigurationError("trivial code: every message maps to 0")
    if kernel & (kernel - 1) or any(w % 2 or c % kernel for w, c in doubled.items()):
        raise InvariantError("histogram weights must be integers in kernel cosets")
    table = {w >> 1: c // kernel for w, c in sorted(doubled.items())}
    return n, (whole // kernel).bit_length() - 1, table


def production_vectors(spec: DefiningSetSpec) -> list[tuple[int, ...]]:
    """The reference R-vectors of ``spec`` in the column order of ``code_rows``.

    Each production column is looked up among the trace masks of
    :func:`build_defining_set`.  Raises ``ValueError`` unless the columns
    are exactly those masks, each once.
    """
    vectors = build_defining_set(spec)
    position = {mask: i for i, mask in enumerate(subfield_defining_set(vectors, spec.m))}
    n, rows = code_rows(spec)
    order = [position.get(column, -1) for column in columns(rows, n)]
    if sorted(order) != list(range(len(vectors))):
        raise ValueError(f"code_rows columns are not the reference trace masks of {spec}")
    return [vectors[i] for i in order]


def generator_matrix_subfield(
    g1_rows: Sequence[int],
    g2_rows: Sequence[int],
    g3_rows: Sequence[int],
    ncols: int,
) -> list[int]:
    """Stack the coefficient matrices of an R-generator matrix G = G1 + u*G2' ...

    Given the three binary matrices G1, G2, G3 with G = e1*G1 + e2*G2 + e3*G3
    entrywise, the binary generator of the subfield code is the vertical
    stack [G1; G2 + G3; G2].
    """
    if not len(g1_rows) == len(g2_rows) == len(g3_rows):
        raise ValueError("coefficient matrices must have equal row counts")
    for rows in (g1_rows, g2_rows, g3_rows):
        for r in rows:
            if r >> ncols:
                raise ValueError(f"row 0b{r:b} exceeds {ncols} columns")
    stacked = list(g1_rows)
    stacked.extend(r2 ^ r3 for r2, r3 in zip(g2_rows, g3_rows))
    stacked.extend(g2_rows)
    return stacked


def codeword(alpha: int, beta: int, gamma: int, masks: Sequence[int], m: int) -> int:
    """The length-n codeword of message (alpha, beta, gamma) as a bitmask."""
    full = 1 << m
    for name, part in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        if not 0 <= part < full:
            raise ValueError(f"{name} out of range for F2^{m}: {part}")
    v = alpha | beta << m | gamma << (2 * m)
    word = 0
    for i, mask in enumerate(masks):
        word |= ((v & mask).bit_count() & 1) << i
    return word


def message_words(masks: Sequence[int], m: int) -> list[int]:
    """The codeword of every message, indexed by packed mask alpha | beta << m | gamma << 2m."""
    low = (1 << m) - 1
    return [codeword(v & low, v >> m & low, v >> 2 * m, masks, m) for v in range(1 << 3 * m)]


def code_words_from_rows(rows: Sequence[int], ncols: int) -> list[int]:
    """All distinct words spanned by the rows, zero word first."""
    basis = f2_row_basis(rows, ncols)
    words = [0] * (1 << len(basis))
    word = 0
    for t in range(1, len(words)):
        word ^= basis[(t & -t).bit_length() - 1]
        words[t ^ (t >> 1)] = word
    return words


def code_words(spec: DefiningSetSpec) -> list[int]:
    """All 2^k distinct codewords of the code defined by ``spec``."""
    n, rows = code_rows(spec)
    return code_words_from_rows(rows, n)


def exact_minimality(codewords, n: int) -> bool:
    """Decide minimality by scanning a list of codewords for disjoint supports.

    The tests check ``analysis.spectral_minimality``, which the reports use,
    against this scan; its docstring states the disjoint-support lemma.
    ``codewords`` must be all the words of one binary linear code (the zero
    word included or not); the pruning below relies on it.

    If a and b of weights w1 and w2 have disjoint supports, then a + b is a nonzero codeword of weight w1 + w2, so a pair
    of weight classes is scanned only when w1 + w2 is itself a nonzero
    weight of the code.  Classes with w1 + w2 > n cannot hold disjoint
    pairs; classes with w1 + w2 == n can only pair a word with its exact
    complement, a set lookup.
    """
    if len(codewords) > MINIMALITY_CAP:
        raise ValueError(f"code size {len(codewords)} exceeds cap {MINIMALITY_CAP}")
    classes: dict[int, list[int]] = {}
    for word in codewords:
        wt = word.bit_count()
        if wt:
            classes.setdefault(wt, []).append(word)
    ws = sorted(classes)
    ones = (1 << n) - 1
    for i, w1 in enumerate(ws):
        for w2 in ws[i:]:
            if w1 + w2 > n:
                break
            if w1 + w2 not in classes:
                continue
            if w1 + w2 == n:
                partners = set(classes[w2])
                if any(v ^ ones in partners for v in classes[w1]):
                    return False
            elif w1 == w2:
                bucket = classes[w1]
                for a in range(len(bucket)):
                    va = bucket[a]
                    for b in range(a + 1, len(bucket)):
                        if not va & bucket[b]:
                            return False
            else:
                for va in classes[w1]:
                    for vb in classes[w2]:
                        if not va & vb:
                            return False
    return True


def _self_orthogonal(weights_by_message, m: int) -> bool:
    """Exact self-orthogonality from the weights of the unit messages and their pairs.

    Row i of a generator matrix is the codeword of the unit message e_i,
    and two rows meet in |r_i & r_j| = (W(e_i) + W(e_j) - W(e_i + e_j)) / 2
    positions.  So the Gram matrix over F2 vanishes, and the code lies in
    its dual, exactly when every W(e_i) is even and every
    W(e_i) + W(e_j) - W(e_i + e_j) is 0 mod 4.  ``weights_by_message`` maps
    (or indexes) packed messages to weights, the full table or only
    :func:`_unit_messages`.
    """
    return all(weights_by_message[1 << i] % 2 == 0 for i in range(3 * m)) and all(
        (weights_by_message[a] + weights_by_message[b] - weights_by_message[ab]) % 4 == 0
        for a, b, ab in _unit_pairs(m)
    )


@cache
def _unit_pairs(m: int) -> tuple[tuple[int, int, int], ...]:
    return tuple((a, b, a ^ b) for a, b in combinations([1 << i for i in range(3 * m)], 2))


@cache
def _unit_messages(m: int) -> frozenset[int]:
    return frozenset(v for triple in _unit_pairs(m) for v in triple)


def _unit_message_weights(n: int, f, g, global_complement: bool, m: int) -> dict[int, int]:
    """W(v) = (n -+ F[alpha] * G[sigma]) / 2 at the unit messages and their pairs.

    F and G are the factor transforms :func:`~r2subfield.codegen._d1_transform`
    and :func:`~r2subfield.codegen._slot_transform`.  None of these messages
    is the zero message, so family 9 needs no correction.
    """
    sign = 1 if global_complement else -1
    low = (1 << m) - 1
    return {v: (n + sign * f[v & low] * g[v >> m]) >> 1 for v in _unit_messages(m)}


def row_body_by_flags(key: tuple[int, ...], d1_record, slot_record, global_complement: bool) -> dict:
    """The body of :func:`~r2subfield.analysis._row_body`, read through the report's flags.

    The records are weighed by ``analysis._weigh_records`` and checked by
    ``analysis._evaluate``, the route of ``code_report``, whose nine flags
    the body then reads field by field, all through the names ``analysis``
    looks up, so a patched weighing or prediction reaches both routes.
    """
    body = {**dict.fromkeys(analysis.SWEEP_ROW_FIELDS[5:]), "status": "ok", "detail": ""}
    try:
        measured, charsum_ok = analysis._weigh_records(
            key[1], d1_record, slot_record, global_complement
        )
        predicted, flags = analysis._evaluate(key, measured)
    except DegenerateConfigurationError as exc:
        body.update(status="degenerate", detail=str(exc))
        return body
    body.update(
        n=measured.n, k=measured.k, d=measured.d, match=predicted == measured,
        charsum_ok=charsum_ok,
    )
    if not body["match"]:
        body.update(status="mismatch", detail="; ".join(
            f"{name} [n,k,d]=[{c.n},{c.k},{c.d}] weights={dict(sorted(c.weights.items()))}"
            for name, c in (("predicted", predicted), ("measured", measured))
        ))
    if analysis._size_class(*key)[-1]:  # the Griesmer claim
        body["griesmer_ok"] = flags["griesmer_equal"]
    if flags["table10_minimal"] and flags["minimal_exact"] is not None:
        body["minimal_claim_ok"] = flags["minimal_exact"]
    if flags["table10_self_orth"]:
        body["selforth_claim_ok"] = flags["self_orth_exact"]
    if flags["minimal_ab"] and flags["minimal_exact"] is not None:
        body["ab_implication_ok"] = flags["minimal_exact"]
    return body


def sweep_task_by_rows(family: int, m: int, row_body=None) -> tuple:
    """The task of :func:`~r2subfield.analysis._sweep_task`, built one row at a time.

    Every row of masks (L, M, N), in mask order, reads its two factor
    records and looks up the key (|L|, |M|, |N|, D1 record, slot record);
    a new key gets the next body number and its body, built by
    ``row_body`` (by default ``analysis._row_body``; :func:`row_body_by_flags`
    is the flags route).  The records are read through the names
    ``analysis`` looks up, so a patched record reaches both routes.
    """
    row_body = row_body or analysis._row_body
    c1, c2, c3, global_c = analysis._PATTERNS[family]
    subsets = [Subset.from_mask(m, mask) for mask in range(1 << m)]
    numbers, bodies, index = {}, [], []
    for lset, mset, nset in product(subsets, repeat=3):
        d1_record = analysis._d1_record(ComplexSpec(lset, c1))
        slot_record = analysis._slot_record(ComplexSpec(mset, c2), ComplexSpec(nset, c3))
        key = lset.size, mset.size, nset.size, d1_record, slot_record
        if key not in numbers:
            numbers[key] = len(bodies)
            bodies.append(row_body((family, m, *key[:3]), d1_record, slot_record, global_c))
        index.append(numbers[key])
    return family, m, [str(s) for s in subsets], bodies, index


def tally_rows(rows) -> dict:
    """The summary counts and family-8 findings of some flat sweep rows, without the verdict.

    The library tallies a task once per distinct row body; this reads every
    row, one pass per count.
    """
    return {
        "total": len(rows),
        "ok": sum(r["status"] == "ok" for r in rows),
        "mismatch": sum(r["status"] == "mismatch" for r in rows),
        "degenerate": sum(r["status"] == "degenerate" for r in rows),
        "mismatch_outside_family_8": sum(
            r["status"] == "mismatch" and r["family"] != 8 for r in rows
        ),
        "charsum_failures": sum(r["charsum_ok"] is False for r in rows),
        "griesmer_failures": sum(r["griesmer_ok"] is False for r in rows),
        "minimality_claim_failures": sum(r["minimal_claim_ok"] is False for r in rows),
        "selforth_claim_failures": sum(r["selforth_claim_ok"] is False for r in rows),
        "ab_implication_failures": sum(r["ab_implication_ok"] is False for r in rows),
        "findings": [
            {key: r[key] for key in ("m", "family", "L", "M", "N", "detail")}
            for r in rows
            if r["status"] == "mismatch" and r["family"] == 8
        ],
    }


def summarize_rows(rows) -> dict:
    """The sweep summary of flat rows: their tally and the verdict."""
    summary = tally_rows(rows)
    summary["passed"] = summary["mismatch_outside_family_8"] == 0
    return summary


def shift_predictions(monkeypatch) -> None:
    """Move one codeword of every predicted table from weight d to d - 1.

    No configuration at m <= 3 mismatches, so this wrong prediction forces
    a mismatch on every non-degenerate row.  The moved codeword lands last
    in the table's dict, so a row's detail must sort it.
    """
    real = analysis._instantiate

    def shifted(*size_class):
        n, k, table = real(*size_class)
        d = min(w for w in table if w)
        return n, k, {**table, d: table[d] - 1, d - 1: 1}

    monkeypatch.setattr(analysis, "_instantiate", shifted)
