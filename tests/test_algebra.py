"""Unit tests for the reference ring arithmetic and the F2 matrix helpers."""

import pytest

from r2subfield.algebra import f2_gram_is_zero
from reference import (
    BASIS,
    E1,
    E2,
    E3,
    R2_ONE,
    R2_U,
    R2_USQ,
    R2_ZERO,
    f2_row_basis,
    from_basis_coords,
    r2_add,
    r2_dot,
    r2_mul,
    to_basis_coords,
    trace,
    trace_triple,
)

ELEMENTS = range(8)


def test_named_constants():
    assert (R2_ZERO, R2_ONE, R2_U, R2_USQ) == (0, 1, 2, 4)
    assert E1 == r2_add(R2_ONE, R2_USQ)
    assert E2 == R2_USQ
    assert E3 == r2_add(R2_U, R2_USQ)
    assert BASIS == (E1, E2, E3)


def test_addition_is_xor_and_char_two():
    for x in ELEMENTS:
        assert r2_add(x, 0) == x
        assert r2_add(x, x) == 0
        for y in ELEMENTS:
            assert r2_add(x, y) == r2_add(y, x)


def test_multiplication_ring_axioms_exhaustive():
    for x in ELEMENTS:
        assert r2_mul(x, 1) == x
        assert r2_mul(x, 0) == 0
        for y in ELEMENTS:
            assert r2_mul(x, y) == r2_mul(y, x)
            for z in ELEMENTS:
                assert r2_mul(r2_mul(x, y), z) == r2_mul(x, r2_mul(y, z))
                assert r2_mul(x, r2_add(y, z)) == r2_add(r2_mul(x, y), r2_mul(x, z))


def test_defining_relation_u_cubed_is_u():
    u = R2_U
    assert r2_mul(u, r2_mul(u, u)) == u
    assert r2_mul(R2_USQ, R2_USQ) == R2_USQ  # u^4 = u^2


def test_sample_products():
    assert r2_mul(2, 4) == 2  # u * u^2 = u
    assert r2_mul(3, 5) == 5  # (1+u)(1+u^2) = 1+u^2
    assert r2_mul(6, 6) == 0  # (u+u^2)^2 = 0: the ring has zero divisors


def test_trace_values_and_linearity():
    assert [trace(x) for x in ELEMENTS] == [0, 0, 0, 0, 1, 1, 1, 1]
    for x in ELEMENTS:
        for y in ELEMENTS:
            assert trace(r2_add(x, y)) == trace(x) ^ trace(y)


def test_trace_kernel_contains_no_nonzero_ideal():
    # For every nonzero x some multiple of x has trace 1, so the pairing
    # (x, y) -> trace(x * y) separates points.
    for x in range(1, 8):
        assert any(trace(r2_mul(x, y)) == 1 for y in ELEMENTS)


def test_basis_coords_round_trip():
    seen = set()
    for x in ELEMENTS:
        g1, g2, g3 = to_basis_coords(x)
        assert from_basis_coords(g1, g2, g3) == x
        # and the coordinates really do expand x over (e1, e2, e3)
        expansion = 0
        for g, e in zip((g1, g2, g3), BASIS):
            if g:
                expansion = r2_add(expansion, e)
        assert expansion == x
        seen.add((g1, g2, g3))
    assert len(seen) == 8


def test_trace_triple_matches_literal_products():
    for x in ELEMENTS:
        literal = tuple(trace(r2_mul(x, e)) for e in BASIS)
        assert trace_triple(x) == literal


def test_trace_triple_anchors():
    # the basis is not orthonormal under the trace pairing: the matrix of
    # tau(e_i * e_j) is [[1,0,0],[0,1,1],[0,1,0]], which is invertible over
    # F2 and that is all the construction needs
    assert trace_triple(0) == (0, 0, 0)
    assert trace_triple(E1) == (1, 0, 0)
    assert trace_triple(E2) == (0, 1, 1)
    assert trace_triple(E3) == (0, 1, 0)


def test_dot_product():
    assert r2_dot([], []) == 0
    assert r2_dot([2], [4]) == 2
    assert r2_dot([3, 4], [4, 4]) == 2
    with pytest.raises(ValueError):
        r2_dot([1], [1, 2])


def test_f2_row_basis_preserves_span():
    rows = [0b0011, 0b0110, 0b0101]
    basis = f2_row_basis(rows, 4)
    assert len(basis) == 2

    def span(vs):
        words = {0}
        for v in vs:
            words |= {w ^ v for w in words}
        return words

    assert span(basis) == span(rows) == {0, 0b0011, 0b0110, 0b0101}
    # pivots are distinct, so the basis rows are visibly independent
    pivots = [b & -b for b in basis]
    assert len(set(pivots)) == len(basis)


def test_f2_gram_is_zero():
    assert f2_gram_is_zero([])
    assert f2_gram_is_zero([0b1111])
    assert f2_gram_is_zero([0b0011, 0b1100])
    assert not f2_gram_is_zero([0b0111])  # odd self-intersection
    assert not f2_gram_is_zero([0b011, 0b110])  # odd pairwise intersection
