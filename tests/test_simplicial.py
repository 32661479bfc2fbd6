"""Unit tests for subsets, complexes, character sums, generating functions."""

from itertools import combinations

import pytest

from r2subfield.simplicial import (
    ComplexSpec,
    FacetFamily,
    Subset,
    char_sum,
    complex_size,
    enumerate_members,
    generating_function_eval,
    phi,
    spectrum,
    subset,
)


def test_subset_construction_and_accessors():
    s = subset(4, 1, 3)
    assert s.m == 4
    assert s.members == frozenset({1, 3})
    assert s.mask == 0b0101
    assert s.size == 2
    assert str(s) == "1,3"
    assert str(subset(4)) == "-"


def test_subset_validation():
    with pytest.raises(ValueError):
        subset(4, 5)
    with pytest.raises(ValueError):
        subset(4, 0)
    with pytest.raises(ValueError):
        Subset(-1, frozenset())


def test_subset_parse():
    assert Subset.parse(4, "1,3,4") == subset(4, 1, 3, 4)
    assert Subset.parse(4, "-") == subset(4)
    assert Subset.parse(4, "") == subset(4)
    assert Subset.parse(4, " 2 ") == subset(4, 2)
    with pytest.raises(ValueError):
        Subset.parse(4, "1,1")
    with pytest.raises(ValueError):
        Subset.parse(4, "1,x")
    with pytest.raises(ValueError):
        Subset.parse(4, "5")


def test_subset_from_mask_round_trip():
    for m in range(5):
        for mask in range(1 << m):
            s = Subset.from_mask(m, mask)
            assert s.mask == mask
            assert Subset.parse(m, str(s)) == s
    with pytest.raises(ValueError):
        Subset.from_mask(2, 0b100)


def test_enumerate_members_definition():
    # v belongs to Delta_L exactly when supp(v) is contained in L
    for m in range(5):
        for lmask in range(1 << m):
            gen = Subset.from_mask(m, lmask)
            plain = enumerate_members(ComplexSpec(gen))
            comp = enumerate_members(ComplexSpec(gen, complemented=True))
            expected = [v for v in range(1 << m) if v & ~lmask == 0]
            assert plain == expected
            assert comp == [v for v in range(1 << m) if v not in set(expected)]
            assert plain == sorted(plain)
            assert comp == sorted(comp)
            assert len(plain) == complex_size(ComplexSpec(gen))
            assert len(comp) == complex_size(ComplexSpec(gen, complemented=True))


def test_enumerate_members_examples():
    gen = subset(2, 1)
    assert enumerate_members(ComplexSpec(gen)) == [0, 1]
    assert enumerate_members(ComplexSpec(gen, complemented=True)) == [2, 3]


def test_complex_size_examples():
    assert complex_size(ComplexSpec(subset(4, 1, 2))) == 4
    assert complex_size(ComplexSpec(subset(4, 1, 2), complemented=True)) == 12
    assert complex_size(ComplexSpec(subset(3, 3), complemented=True)) == 6
    # complement of the full complex is empty
    assert complex_size(ComplexSpec(subset(3, 1, 2, 3), complemented=True)) == 0


def test_phi():
    gen = subset(3, 1, 3)
    assert phi(0b000, gen) == 1
    assert phi(0b010, gen) == 1
    assert phi(0b001, gen) == 0
    assert phi(0b110, gen) == 0
    empty = subset(3)
    for w in range(8):
        assert phi(w, empty) == 1


def test_char_sum_matches_literal_enumeration():
    # the closed form against a direct sum of (-1)^(w . v), every ground set
    # up to size 4, every generator, every w, both orientations
    for m in range(5):
        for lmask in range(1 << m):
            gen = Subset.from_mask(m, lmask)
            for complemented in (False, True):
                spec = ComplexSpec(gen, complemented)
                members = enumerate_members(spec)
                for w in range(1 << m):
                    literal = sum(
                        1 if (w & v).bit_count() % 2 == 0 else -1 for v in members
                    )
                    assert char_sum(spec, w) == literal, (m, lmask, complemented, w)


def test_spectrum_lists_every_char_sum():
    for m in range(4):
        for lmask in range(1 << m):
            for complemented in (False, True):
                spec = ComplexSpec(Subset.from_mask(m, lmask), complemented)
                assert spectrum(spec) == [char_sum(spec, w) for w in range(1 << m)]


def test_char_sum_input_validation():
    with pytest.raises(ValueError):
        char_sum(ComplexSpec(subset(2, 1)), 0b100)


def test_facet_family_validation():
    FacetFamily(3, (subset(3, 1, 2), subset(3, 2, 3)))
    with pytest.raises(ValueError):
        FacetFamily(3, (subset(3, 1), subset(3, 1, 2)))
    with pytest.raises(ValueError):
        FacetFamily(3, (subset(2, 1),))


def test_generating_function_counts_faces_at_ones():
    # H(1, ..., 1) is the number of faces; the complex generated by facets
    # is the union of the downward closures
    for m in range(1, 4):
        all_subsets = [
            frozenset(c) for r in range(m + 1) for c in combinations(range(1, m + 1), r)
        ]
        for f1 in all_subsets:
            for f2 in all_subsets:
                if f1 <= f2 or f2 <= f1:
                    continue
                family = FacetFamily(m, (Subset(m, f1), Subset(m, f2)))
                faces = {g for g in all_subsets if g <= f1 or g <= f2}
                point = (1,) * m
                assert generating_function_eval(family, point) == len(faces)


def test_generating_function_examples():
    family = FacetFamily(2, (subset(2, 1), subset(2, 2)))
    assert generating_function_eval(family, (1, 1)) == 3  # {}, {1}, {2}
    assert generating_function_eval(family, (0, 0)) == 1  # only the empty face
    # single empty facet: the complex {0}
    trivial = FacetFamily(2, (subset(2),))
    assert generating_function_eval(trivial, (1, 1)) == 1
    with pytest.raises(ValueError):
        generating_function_eval(family, (1,))


def test_generating_function_matches_literal_sum():
    family = FacetFamily(3, (subset(3, 1, 2), subset(3, 3)))
    faces = [
        frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2}), frozenset({3}),
    ]
    for point in ((1, 2, 3), (2, 0, 5), (1, 1, 1)):
        literal = 0
        for face in faces:
            prod = 1
            for i in face:
                prod *= point[i - 1]
            literal += prod
        assert generating_function_eval(family, point) == literal
