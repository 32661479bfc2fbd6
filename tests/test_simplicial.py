"""Unit tests for subsets, complexes and character sums."""

from dataclasses import FrozenInstanceError

import pytest

from r2subfield.simplicial import (
    ComplexSpec,
    Subset,
    char_sum,
    complex_size,
    enumerate_members,
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


def test_cached_factor_data_survives_mutation_by_callers():
    # the member list and the spectrum are cached per factor, so every call
    # must hand out its own list, and a cached subset must be immutable
    for complemented in (False, True):
        spec = ComplexSpec(subset(3, 1, 2), complemented)
        for function in (enumerate_members, spectrum):
            first = function(spec)
            expected = list(first)
            first[0] += 2
            first.append(7)
            assert function(spec) == expected, (function, complemented)
    shared = Subset.from_mask(3, 0b101)
    with pytest.raises(FrozenInstanceError):
        shared.m = 4
    assert (shared.m, shared.mask, str(shared)) == (3, 0b101, "1,3")
    # the text is built once, and caching it leaves equality and hashing alone
    assert str(shared) is str(shared)
    fresh = Subset(3, frozenset({3, 1}))
    assert (fresh, hash(fresh)) == (shared, hash(shared))


def test_char_sum_input_validation():
    with pytest.raises(ValueError):
        char_sum(ComplexSpec(subset(2, 1)), 0b100)
