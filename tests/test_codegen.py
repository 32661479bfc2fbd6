"""Unit tests for defining sets, codeword generation, and brute-force sweeps."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from r2subfield import codegen
from r2subfield.analysis import FAMILIES, spec_for_family
from r2subfield.codegen import (
    BRUTE_FORCE_M_CAP,
    CodeSummary,
    DefiningSetSpec,
    DegenerateConfigurationError,
    InvariantError,
    charsum_message_weights,
    code_rows,
    message_weights_from_rows,
    min_distance,
    summarize_message_weights,
    weight_distribution_bruteforce,
)
from r2subfield.simplicial import ComplexSpec, Subset, complex_size, spectrum, subset
from reference import (
    build_defining_set,
    code_words,
    code_words_from_rows,
    codeword,
    columns,
    f2_row_basis,
    from_basis_coords,
    generator_matrix_subfield,
    message_words,
    production_vectors,
    r2_dot,
    subfield_defining_set,
    subfield_generator_rows,
    trace,
)


def spec(family, m, lmembers, mmembers, nmembers):
    return spec_for_family(
        family, subset(m, *lmembers), subset(m, *mmembers), subset(m, *nmembers)
    )


def enumerated_weights(s):
    """The weight of every message of the code defined by ``s``, from its rows."""
    return message_weights_from_rows(code_rows(s)[1], s.m)


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
    for s, expected in frozen_cases():
        got = weight_distribution_bruteforce(s)
        assert got == expected, s


def test_summarize_rejects_uncovered_table():
    # too short a table, and a full one with no weight-0 message (no kernel)
    for weights, n in (([0, 1], 4), ([1] * 8, 2)):
        with pytest.raises(InvariantError):
            summarize_message_weights(weights, n, 1)


def test_summarize_trivial_code():
    with pytest.raises(DegenerateConfigurationError):
        summarize_message_weights([0] * 8, 1, 1)


def test_empty_defining_set_is_degenerate():
    # complementing a full simplicial complex leaves nothing
    with pytest.raises(DegenerateConfigurationError):
        weight_distribution_bruteforce(spec(3, 1, (), (1,), ()))


def test_all_zero_defining_set_is_degenerate():
    # D = {0} gives one identically zero coordinate and only the zero word
    with pytest.raises(DegenerateConfigurationError):
        weight_distribution_bruteforce(spec(1, 1, (), (), ()))


def test_m_cap_enforced():
    s = spec(1, BRUTE_FORCE_M_CAP + 1, (1,), (), ())
    with pytest.raises(ValueError):
        code_rows(s)
    with pytest.raises(ValueError):
        message_weights_from_rows([0] * (3 * s.m), s.m)
    with pytest.raises(ValueError):
        charsum_message_weights(s)


def literal_message_weights(rows, m):
    """Weight of every packed message: XOR the rows its bits select, then popcount."""
    weights = []
    for t in range(1 << (3 * m)):
        word = 0
        for j, row in enumerate(rows):
            if t >> j & 1:
                word ^= row
        weights.append(word.bit_count())
    return weights


def rank_deficient_rows(rng, m):
    """3m rows spanned by fewer than 3m random words, with a zero and a repeated row."""
    n = rng.randint(1, 12)
    base = [rng.getrandbits(n) for _ in range(rng.randint(1, 3 * m - 1))]
    rows = []
    for _ in range(3 * m - 2):
        row = 0
        for b in base:
            if rng.getrandbits(1):
                row ^= b
        rows.append(row)
    rows += [0, rows[0]]
    rng.shuffle(rows)
    return rows


def test_message_weights_from_rank_deficient_rows():
    rng = random.Random(6)
    for m in (1, 2, 3):
        cases = [[0] * (3 * m), [0b1011] * (3 * m), [0b01, 0b10, 0b11] * m]
        cases += [rank_deficient_rows(rng, m) for _ in range(20)]
        for rows in cases:
            assert len(f2_row_basis(rows, 12)) < 3 * m
            assert message_weights_from_rows(rows, m) == literal_message_weights(rows, m)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_message_weights_edge_columns(m):
    # m = 1, 2 fit the column patterns in one byte plane, m = 3 needs two
    rng = random.Random(m)
    top = (1 << (3 * m)) - 1
    some = [rng.randrange(top + 1) for _ in range(20)]
    cases = [
        [0] * (3 * m),
        subfield_generator_rows([top] * 300, m),
        subfield_generator_rows([1] * 256 + [top] * 257 + some, m),
        subfield_generator_rows(some * 40, m),
        # row j ends at column j: every row but the last has zero columns above its top bit
        [1 << j for j in range(3 * m)],
        [rng.getrandbits(3) for _ in range(3 * m - 1)] + [1 << 40],
    ]
    for rows in cases:
        assert message_weights_from_rows(rows, m) == literal_message_weights(rows, m)


@pytest.mark.parametrize("n", [127, 128, 2**15 - 1, 2**15])
def test_message_weights_at_field_width_boundaries(n):
    # 1-byte fields hold n < 2^7, 2-byte fields n < 2^15; on the all-ones row
    # H reaches -n, and at the zero message H is always n
    rng = random.Random(n)
    full = (1 << n) - 1
    cases = [
        [full, 0, 0],
        [full, full, 1 << (n - 1)],
        [rng.getrandbits(n - 1), full, rng.getrandbits(n)],
    ]
    for rows in cases:
        assert max(rows).bit_length() == n
        assert message_weights_from_rows(rows, 1) == literal_message_weights(rows, 1)


@pytest.mark.parametrize(
    "family, members, n",
    [
        (1, (1, 2), 64),  # 1-byte fields
        (9, (), 2**15 - 1),  # the longest code with 2-byte fields
        (1, (1, 2, 3, 4, 5), 2**15),  # 4-byte fields
    ],
)
def test_message_weights_match_charsum_per_field_width_at_m5(family, members, n):
    s = spec(family, 5, members, members, members)
    assert code_rows(s)[0] == n
    assert enumerated_weights(s) == charsum_message_weights(s)


def test_message_weights_validates_input():
    # the m cap is asserted in test_m_cap_enforced
    for count in (5, 7):
        with pytest.raises(ValueError, match="generator rows"):
            message_weights_from_rows([1] * count, 2)
    with pytest.raises(ValueError, match="non-negative"):
        message_weights_from_rows([-1, 2, 3], 1)
    # the packed fields hold rows of up to 2^20 columns, the all-ones row included
    widest = [(1 << 2**20) - 1, 0, 1 << (2**20 - 1)]
    assert message_weights_from_rows(widest, 1) == literal_message_weights(widest, 1)
    for length in (2**20 + 1, 2**21):
        with pytest.raises(ValueError, match="columns"):
            message_weights_from_rows([1 << (length - 1), 0, 0], 1)


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
    # same rows, a global complement the same columns in its own order
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
                            continue
                        n, rows = code_rows(s)
                        assert n == len(masks), s
                        if s.global_complement:
                            assert sorted(set(columns(rows, n))) == sorted(masks), s
                        else:
                            assert rows == subfield_generator_rows(masks, m), s
                        compared += 1
    assert compared == 4326


def test_spec_functions_compose_the_stages():
    for s, expected in frozen_cases():
        n, rows = code_rows(s)
        weights = message_weights_from_rows(rows, s.m)
        assert summarize_message_weights(weights, n, s.m) == expected
        assert weight_distribution_bruteforce(s) == expected
        assert code_words(s) == code_words_from_rows(rows, n)


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


def test_charsum_check_rejects_corrupted_table():
    for s, _ in frozen_cases():
        weights = enumerated_weights(s)
        for v in (0, 1, len(weights) - 1):
            corrupted = list(weights)
            corrupted[v] += 1
            assert charsum_message_weights(s) != corrupted, (s, v)


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
    for s, _ in frozen_cases():
        weights = enumerated_weights(s)
        spectra = [spectrum(part) for part in s.parts]
        # every spectrum value at 0 is nonzero here, so entry j of any one
        # spectrum reaches the weight of some message
        assert all(values[0] for values in spectra), s
        for i in range(3):
            for j in (0, len(spectra[i]) - 1):
                with monkeypatch.context() as patch:
                    patch.setattr(codegen, "spectrum", with_wrong_entry(i, j, 2))
                    assert charsum_message_weights(s) != weights, (s, i, j)
        assert charsum_message_weights(s) == weights
    # M = N = {} makes every S2 and S3 value 1, so an S1 entry off by one
    # makes 2 * weight odd: the parity check fires instead of a mismatch
    s = spec(2, 2, (1,), (), ())
    assert set(spectrum(s.d2)) == set(spectrum(s.d3)) == {1}
    monkeypatch.setattr(codegen, "spectrum", with_wrong_entry(0, 3, 1))
    with pytest.raises(InvariantError):
        charsum_message_weights(s)


def test_invariant_checks_survive_optimize_flag():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = (
        "from r2subfield.codegen import summarize_message_weights; "
        "print(summarize_message_weights([0, 1, 1], 2, 1))"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True,
    )
    assert result.returncode != 0
    assert "InvariantError: weight table must cover every message" in result.stderr
    assert "CodeSummary" not in result.stdout
