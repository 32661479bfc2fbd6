"""Unit tests for defining sets, codeword generation, and brute-force sweeps."""

import itertools
import os
import random
import re
import subprocess
import sys
from array import array
from collections import Counter
from pathlib import Path

import pytest

from r2subfield import analysis, codegen
from r2subfield.analysis import FAMILIES, spec_for_family
from r2subfield.codegen import (
    BRUTE_FORCE_M_CAP,
    CodeSummary,
    DefiningSetSpec,
    DegenerateConfigurationError,
    InvariantError,
    min_distance,
    weigh,
)
from r2subfield.simplicial import ComplexSpec, Subset, complex_size, spectrum, subset
from reference import (
    _self_orthogonal,
    _unit_message_weights,
    build_defining_set,
    charsum_message_weights,
    code_rows,
    code_words,
    codeword,
    columns,
    from_basis_coords,
    generator_matrix_subfield,
    message_weights,
    message_words,
    production_vectors,
    r2_dot,
    row_message_weights,
    subfield_defining_set,
    subfield_generator_rows,
    summarize_message_weights,
    trace,
)


def spec(family, m, lmembers, mmembers, nmembers):
    return spec_for_family(
        family, subset(m, *lmembers), subset(m, *mmembers), subset(m, *nmembers)
    )


def test_defining_set_spec_validation():
    good = spec(1, 2, (1,), (2,), ())
    assert good.m == 2
    with pytest.raises(ValueError):
        DefiningSetSpec(
            m=2,
            d1=ComplexSpec(subset(2, 1)),
            d2=ComplexSpec(subset(3, 1)),
            d3=ComplexSpec(subset(2)),
        )
    with pytest.raises(ValueError):
        DefiningSetSpec(
            m=2,
            d1=ComplexSpec(subset(2, 1), complemented=True),
            d2=ComplexSpec(subset(2)),
            d3=ComplexSpec(subset(2)),
            global_complement=True,
        )


def test_build_defining_set_small_anchors():
    assert build_defining_set(spec(1, 1, (1,), (), ())) == [(0,), (5,)]
    assert build_defining_set(spec(1, 1, (1,), (1,), (1,))) == [
        (0,), (6,), (4,), (2,), (5,), (3,), (1,), (7,),
    ]
    # global complement walks the missing vectors in increasing encoding
    assert build_defining_set(spec(9, 1, (), (), ())) == [
        (1,), (2,), (3,), (4,), (5,), (6,), (7,),
    ]


def test_build_defining_set_size_and_injectivity():
    for family in range(1, 10):
        for m in (1, 2):
            s = spec(family, m, (1,), (), tuple(range(1, m + 1)))
            vectors = build_defining_set(s)
            parts = s.parts
            base = 1
            for part in parts:
                base *= complex_size(part)
            expected = (1 << (3 * m)) - base if s.global_complement else base
            assert len(vectors) == expected
            assert len(set(vectors)) == len(vectors)


def test_defining_set_entries_recombine_the_triples():
    s = spec(1, 2, (1,), (2,), (1, 2))
    vectors = build_defining_set(s)
    # walk the same loops and rebuild each entry coordinatewise
    from r2subfield.simplicial import enumerate_members

    rebuilt = []
    for d1 in enumerate_members(s.d1):
        for d2 in enumerate_members(s.d2):
            for d3 in enumerate_members(s.d3):
                rebuilt.append(
                    tuple(
                        from_basis_coords(d1 >> i & 1, d2 >> i & 1, d3 >> i & 1)
                        for i in range(2)
                    )
                )
    assert vectors == rebuilt


def test_subfield_defining_set_masks():
    masks = subfield_defining_set(build_defining_set(spec(1, 1, (1,), (1,), (1,))), 1)
    assert masks == [0, 2, 6, 4, 1, 3, 7, 5]
    with pytest.raises(ValueError):
        subfield_defining_set([(0, 0)], 1)  # wrong vector length


def test_generator_matrix_subfield_single_entry():
    # a 1x1 generator [u]: coordinates of u are (0, 1, 1), so the stack
    # [G1; G2+G3; G2] reads [0; 0; 1]
    assert generator_matrix_subfield([0b0], [0b1], [0b1], 1) == [0, 0, 1]
    with pytest.raises(ValueError):
        generator_matrix_subfield([0b0], [0b1], [0b1, 0b0], 1)
    with pytest.raises(ValueError):
        generator_matrix_subfield([0b10], [0b0], [0b0], 1)  # exceeds ncols


def test_codeword_against_ring_arithmetic():
    # the packed parity evaluation must agree with the literal definition:
    # bit at d equals trace(x . d) where x has coordinates built from the
    # three message vectors
    s = spec(5, 2, (1,), (), (2,))
    vectors = build_defining_set(s)
    masks = subfield_defining_set(vectors, 2)
    for alpha in range(4):
        for beta in range(4):
            for gamma in range(4):
                word = codeword(alpha, beta, gamma, masks, 2)
                x = tuple(
                    from_basis_coords(alpha >> i & 1, beta >> i & 1, gamma >> i & 1)
                    for i in range(2)
                )
                for idx, d in enumerate(vectors):
                    assert (word >> idx & 1) == trace(r2_dot(x, d))


def test_codeword_input_validation():
    masks = subfield_defining_set(build_defining_set(spec(1, 1, (1,), (), ())), 1)
    with pytest.raises(ValueError):
        codeword(2, 0, 0, masks, 1)


def test_codeword_weight_anchor():
    s = spec(1, 3, (1,), (2,), (3,))
    masks = subfield_defining_set(build_defining_set(s), 3)
    assert codeword(0b001, 0, 0, masks, 3).bit_count() == 4


def frozen_cases():
    # measured once by independent hand computation of the defining sets and
    # a direct parity count, then frozen
    return [
        (spec(1, 3, (1,), (2,), (3,)), CodeSummary(8, 3, 4, {0: 1, 4: 7})),
        (spec(2, 2, (1,), (), ()), CodeSummary(2, 2, 1, {0: 1, 1: 2, 2: 1})),
        (
            spec(8, 2, (), (), ()),
            CodeSummary(27, 6, 12, {0: 1, 12: 27, 14: 27, 18: 9}),
        ),
        (
            spec(9, 2, (1, 2), (1, 2), ()),
            CodeSummary(48, 6, 24, {0: 1, 24: 60, 32: 3}),
        ),
        # nominal k = 6 collapses to 3: the defining set spans too little
        (spec(5, 2, (1,), (2,), ()), CodeSummary(4, 3, 2, {0: 1, 2: 6, 4: 1})),
    ]


def test_weight_distribution_bruteforce_frozen_anchors():
    # every message weighed from the generator rows, independent of the
    # factored transforms, and the factored route itself
    for s, expected in frozen_cases():
        n, weights = message_weights(s)
        assert summarize_message_weights(weights, n, s.m) == expected, s
        assert weigh(s)[0] == expected, s


def test_summarize_rejects_uncovered_table():
    # m = 1: F has 2 entries and G 4, passed as n, their (value, count)
    # histograms and F[0] * G[0].  No message of weight 0 leaves the kernel
    # empty; an odd n - F[alpha] * G[sigma] is no doubled weight.
    with pytest.raises(InvariantError, match="kernel must be a 2-power"):
        codegen._summarize(2, ((1, 2),), ((0, 4),), 0, False)
    with pytest.raises(InvariantError, match="doubled weight must be even"):
        codegen._summarize(2, ((1, 2),), ((0, 2), (1, 1), (2, 1)), 2, False)


def test_summarize_rejects_broken_kernel_counts():
    # six messages of weight 0 among eight: no kernel size
    with pytest.raises(InvariantError, match="kernel must be a 2-power"):
        codegen._summarize(2, ((1, 2),), ((0, 1), (2, 3)), 2, False)
    # a kernel of two, but one message of doubled weight 2 and one of -4
    with pytest.raises(InvariantError, match="not a union of kernel cosets"):
        codegen._summarize(4, ((2, 1), (4, 1)), ((0, 2), (1, 1), (2, 1)), 4, False)


# One code per (family, |L|, |M|, |N|) of the m = 5 benchmark reports: every
# family, n from 224 to 32767, both global complements.
REPORT_CLASSES_M5 = (
    (2, 1, 1, 2), (3, 0, 2, 3), (1, 5, 4, 4), (1, 5, 5, 4), (2, 0, 4, 5), (3, 4, 0, 4),
    (4, 4, 4, 0), (5, 2, 2, 3), (6, 2, 4, 2), (7, 3, 2, 2), (4, 5, 5, 3), (5, 0, 0, 5),
    (8, 0, 0, 0), (8, 1, 1, 1), (9, 0, 0, 0), (9, 1, 1, 1),
)


def class_spec(family, m, sizes):
    return spec_for_family(family, *(Subset(m, frozenset(range(1, x + 1))) for x in sizes))


def test_factored_route_matches_the_full_table():
    # Every configuration at m <= 3, one code per size class at m = 4 and the
    # m = 5 report classes: the code summary read off F and G against the
    # full message table of the reference route, self-orthogonality from the
    # spectra against the unit-pair check, and the check of F and G against
    # the spectra against the comparison of the two full tables.  weigh runs
    # from cold records, and raises where the reference route does.
    codegen._d1_record.cache_clear()
    codegen._slot_record.cache_clear()
    specs = [
        spec_for_family(family, *(Subset.from_mask(m, x) for x in masks))
        for m in (1, 2, 3)
        for family in FAMILIES
        for masks in itertools.product(range(1 << m), repeat=3)
    ] + [
        class_spec(family, 4, sizes)
        for family in FAMILIES
        for sizes in itertools.product(range(5), repeat=3)
    ] + [class_spec(family, 5, sizes) for family, *sizes in REPORT_CLASSES_M5]
    compared, degenerate = Counter(), Counter()
    for s in specs:
        try:
            n, table = message_weights(s)
        except DegenerateConfigurationError:
            with pytest.raises(DegenerateConfigurationError, match="^empty defining set$"):
                weigh(s)
            degenerate["empty defining set"] += 1
            continue
        hist = Counter(table)
        kernel = hist[0]
        if kernel == len(table):
            with pytest.raises(DegenerateConfigurationError, match="^trivial code"):
                weigh(s)
            degenerate["trivial code"] += 1
            continue
        measured, charsum_ok = weigh(s)
        _, flags = analysis._evaluate(analysis._class_key(s), measured)
        expected = {w: count // kernel for w, count in sorted(hist.items())}
        assert list(measured.weights.items()) == list(expected.items()), s
        k = 3 * s.m - kernel.bit_length() + 1
        assert (measured.n, measured.k, measured.d) == (n, k, min_distance(expected)), s
        # the unit-pair check on the full table and on F and G at the unit messages
        exact = _self_orthogonal(table, s.m)
        f, g = codegen._d1_transform(s.d1), codegen._slot_transform(s.d2, s.d3)
        units = _unit_message_weights(n, f, g, s.global_complement, s.m)
        assert flags["self_orth_exact"] == exact == _self_orthogonal(units, s.m), s
        full_tables_agree = charsum_message_weights(s) == table
        assert charsum_ok is full_tables_agree is True, s
        compared[s.m] += 1
    assert compared == {1: 33, 2: 405, 3: 3885, 4: 852, 5: 16}
    assert degenerate == {"empty defining set": 1202, "trivial code": 4}


@pytest.mark.parametrize(
    "bits, without_zero, typecode", [(7, 1, "B"), (7, 0, "H"), (15, 1, "H"), (15, 0, "I")]
)
def test_indicator_transform_per_field_width(bits, without_zero, typecode):
    # {0 .. 2^bits - 1} in F2^16 has the transform 2^bits at the w that avoid
    # its bits and 0 elsewhere; without 0 it has 1 less everywhere.  2^7 - 1
    # and 2^7 points, 2^15 - 1 and 2^15, are the edges of the three widths.
    points = range(without_zero, 1 << bits)
    assert codegen._field_typecode(len(points)) == typecode
    low = (1 << bits) - 1
    expected = [(0 if w & low else 1 << bits) - without_zero for w in range(1 << 16)]
    assert codegen._indicator_transform(points, 16) == expected


def test_summarize_trivial_code():
    # n - F[alpha] * G[sigma] = 0 for every message
    with pytest.raises(DegenerateConfigurationError, match="trivial code"):
        codegen._summarize(1, ((1, 2),), ((1, 4),), 1, False)


def test_empty_defining_set_is_degenerate():
    # complementing a full simplicial complex leaves nothing
    with pytest.raises(DegenerateConfigurationError, match="^empty defining set$"):
        weigh(spec(3, 1, (), (1,), ()))


def test_all_zero_defining_set_is_degenerate():
    # D = {0} gives one identically zero coordinate and only the zero word
    with pytest.raises(DegenerateConfigurationError, match="trivial code"):
        weigh(spec(1, 1, (), (), ()))


def test_m_cap_enforced():
    m = BRUTE_FORCE_M_CAP + 1
    message = f"exhaustive enumeration is capped at m <= {BRUTE_FORCE_M_CAP}, got m = {m}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        weigh(spec(1, m, (1,), (), ()))


FIELD_WIDTH_CODES = [
    (1, ((1, 2),) * 3, 64),  # 1-byte fields
    (9, ((),) * 3, 2**15 - 1),  # the longest code with 2-byte fields
    (1, ((1, 2, 3, 4, 5),) * 3, 2**15),  # 4-byte fields
    (1, ((1, 2, 3), (1, 2), (1, 2)), 128),  # the shortest code with 2-byte fields
]


@pytest.mark.parametrize("family, members, n", FIELD_WIDTH_CODES)
def test_message_weights_match_charsum_per_field_width_at_m5(monkeypatch, family, members, n):
    # The reference table packs n < 2^7 in 1-byte fields and n < 2^15 in
    # 2-byte ones; F and G take the width of |D1| and |D2||D3| points, which
    # weigh transforms afresh here, past the cached records.
    s = spec(family, 5, *members)
    table = charsum_message_weights(s)
    assert message_weights(s) == (n, table)
    for name in ("_d1_record", "_slot_record"):
        monkeypatch.setattr(codegen, name, getattr(codegen, name).__wrapped__)
    assert weigh(s) == (summarize_message_weights(table, n, 5), True)


@pytest.mark.parametrize(
    "m, family, members, n",
    [(5, *code) for code in FIELD_WIDTH_CODES]
    + [(4, family, ((1, 3), (4,), (1, 2, 4)), None) for family in FAMILIES]
    # |L| + |M| + |N| = 3m - 1: D1 x D2 x D3 is half of F2^(3m), so n is
    # |D1||D2||D3| and the product F[alpha] * G[sigma] reaches n
    + [(4, 9, ((1, 2, 3, 4), (1, 2, 3, 4), (2, 3, 4)), 2**11)],
)
def test_message_weights_match_reference_rows_above_m3(m, family, members, n):
    # the generator rows of the product set, weighed by a Gray-code walk
    s = spec(family, m, *members)
    rows_n, rows = code_rows(s)
    if n is not None:
        assert rows_n == n
    weights = row_message_weights(rows)
    assert message_weights(s) == (rows_n, weights)
    assert weigh(s) == (summarize_message_weights(weights, rows_n, m), True)


def literal_walsh_hadamard(counts):
    return [
        sum((-1) ** (p & v).bit_count() * count for p, count in enumerate(counts))
        for v in range(len(counts))
    ]


@pytest.mark.parametrize("typecode", "BHI")
def test_walsh_hadamard_matches_the_literal_sum(typecode):
    # the sum t of the counts must stay below the bias B; at t = B - 1 the
    # transform reaches +t at v = 0 and -t where every counted p . v is odd
    width = array(typecode).itemsize
    bias = 1 << (8 * width - 1)
    rng = random.Random(typecode)
    for k in range(1, 7):
        fields = 1 << k
        ones = int.from_bytes(array(typecode, [1]) * fields, sys.byteorder)
        odd = [p for p in range(fields) if p.bit_count() & 1]
        extreme = [0] * fields
        for p in odd:
            extreme[p] = (bias - 1) // len(odd)
        extreme[odd[0]] += (bias - 1) % len(odd)
        single = [0] * fields
        single[fields - 1] = bias - 1
        spread = [0] * fields
        for _ in range(bias - 1 if width == 1 else 1000):
            spread[rng.randrange(fields)] += 1
        for counts in (extreme, single, spread, [1] * fields, [0] * fields):
            packed = int.from_bytes(array(typecode, counts), sys.byteorder)
            result = codegen._walsh_hadamard(packed, bias * ones, fields, width)
            fields_out = array(typecode, result.to_bytes(width * fields, sys.byteorder))
            expected = literal_walsh_hadamard(counts)
            assert [value - bias for value in fields_out] == expected, (k, counts)
        t = sum(extreme)
        assert literal_walsh_hadamard(extreme)[0] == t == bias - 1
        assert literal_walsh_hadamard(extreme)[fields - 1] == -t


def test_code_words_matches_message_image():
    for s, expected in frozen_cases():
        masks = subfield_defining_set(production_vectors(s), s.m)
        image = set(message_words(masks, s.m))
        words = code_words(s)
        assert len(words) == len(set(words)) == 1 << expected.k
        assert set(words) == image
        assert words[0] == 0


def test_min_distance():
    assert min_distance({0: 1, 4: 7}) == 4
    assert min_distance({0: 1, 3: 2, 1: 0}) == 3  # zero-count rows ignored
    with pytest.raises(DegenerateConfigurationError):
        min_distance({0: 1})
    with pytest.raises(DegenerateConfigurationError):
        min_distance({})


def test_code_summary_as_dict():
    summary = CodeSummary(2, 2, 1, {0: 1, 2: 1, 1: 2})
    assert summary.as_dict() == {
        "n": 2,
        "k": 2,
        "d": 1,
        "weights": [{"w": 0, "count": 1}, {"w": 1, "count": 2}, {"w": 2, "count": 1}],
    }


def test_code_rows_match_reference_route():
    # every configuration of all nine families at m <= 3: same length as
    # R-vectors -> trace masks -> transposition; families 1-8 also have the
    # same rows, a global complement the same columns in its own order; and
    # message_weights gives the weights of a Gray-code walk over those rows
    compared = 0
    for m in (1, 2, 3):
        subsets = [Subset.from_mask(m, mask) for mask in range(1 << m)]
        for family in FAMILIES:
            for lset in subsets:
                for mset in subsets:
                    for nset in subsets:
                        s = spec_for_family(family, lset, mset, nset)
                        masks = subfield_defining_set(build_defining_set(s), m)
                        if not masks:
                            with pytest.raises(DegenerateConfigurationError):
                                code_rows(s)
                            with pytest.raises(DegenerateConfigurationError):
                                weigh(s)
                            continue
                        n, rows = code_rows(s)
                        assert n == len(masks), s
                        if s.global_complement:
                            assert sorted(set(columns(rows, n))) == sorted(masks), s
                        else:
                            assert rows == subfield_generator_rows(masks, m), s
                        assert message_weights(s) == (n, row_message_weights(rows)), s
                        compared += 1
    assert compared == 4326


def test_charsum_table_equals_enumeration():
    # the frozen cases plus one m = 2 configuration of every family
    cases = [s for s, _ in frozen_cases()] + [
        spec(1, 2, (1,), (2,), (1, 2)),
        spec(2, 2, (1,), (2,), ()),
        spec(3, 2, (1, 2), (1,), (2,)),
        spec(4, 2, (), (1,), (2,)),
        spec(5, 2, (1,), (), (2,)),
        spec(6, 2, (1,), (2,), (1,)),
        spec(7, 2, (2,), (1,), ()),
        spec(8, 2, (), (), ()),
        spec(9, 2, (1, 2), (1, 2), ()),
    ]
    for s in cases:
        masks = subfield_defining_set(build_defining_set(s), s.m)
        assert charsum_message_weights(s) == [
            word.bit_count() for word in message_words(masks, s.m)
        ], s
        assert weigh(s)[1] is True, s


def test_charsum_check_rejects_corrupted_table():
    # one entry of F or of G off by one
    for s, _ in frozen_cases():
        f, g = codegen._d1_transform(s.d1), codegen._slot_transform(s.d2, s.d3)
        assert codegen._d1_matches(s.d1, f) and codegen._slots_match(s.d2, s.d3, g), s
        for v in (0, 1, len(f) - 1):
            corrupted = list(f)
            corrupted[v] += 1
            assert not codegen._d1_matches(s.d1, corrupted), (s, v)
        for v in (0, 1, len(g) - 1):
            corrupted = list(g)
            corrupted[v] += 1
            assert not codegen._slots_match(s.d2, s.d3, corrupted), (s, v)


def with_wrong_entry(i, j, delta):
    """``spectrum`` with entry j of the i-th complex's spectrum off by delta."""
    calls = []

    def wrong_spectrum(part):
        values = spectrum(part)
        if len(calls) % 3 == i:
            values[j] += delta
        calls.append(part)
        return values

    return wrong_spectrum


def test_charsum_check_rejects_wrong_spectrum_entry(monkeypatch):
    # weigh builds each record afresh from the patched spectra: the records'
    # uncached functions stand in for the cached ones, which keep what they hold
    for name in ("_d1_record", "_slot_record"):
        monkeypatch.setattr(codegen, name, getattr(codegen, name).__wrapped__)
    for s, expected in frozen_cases():
        spectra = [spectrum(part) for part in s.parts]
        # every spectrum value at 0 is nonzero here, so entry j of any one
        # spectrum reaches an entry of F or G
        assert all(values[0] for values in spectra), s
        for i in range(3):
            for j in (0, len(spectra[i]) - 1):
                with monkeypatch.context() as patch:
                    patch.setattr(codegen, "spectrum", with_wrong_entry(i, j, 2))
                    assert weigh(s) == (expected, False), (s, i, j)
        assert weigh(s) == (expected, True)
    # M = N = {} makes every S2 and S3 value 1, so an S1 entry off by one
    # would make 2 * weight odd in the full character-sum table; the factor
    # check reports it as a mismatch of F
    s = spec(2, 2, (1,), (), ())
    assert set(spectrum(s.d2)) == set(spectrum(s.d3)) == {1}
    expected = weigh(s)[0]
    monkeypatch.setattr(codegen, "spectrum", with_wrong_entry(0, 3, 1))
    assert weigh(s) == (expected, False)


def test_invariant_checks_survive_optimize_flag():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = (
        "from r2subfield.codegen import _summarize; "
        "print(_summarize(2, ((1, 2),), ((0, 4),), 0, False))"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True,
    )
    assert result.returncode != 0
    assert "InvariantError: kernel must be a 2-power" in result.stderr
    assert "CodeSummary" not in result.stdout
