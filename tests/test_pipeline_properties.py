"""Property tests at m = 4 and 5: the production route against the reference route.

Random (family, L, M, N) draws compare the generator rows of the reference
:func:`code_rows` with the literal construction (R-vectors, trace masks,
transposition; for a global complement, which orders its columns its own
way, the sorted columns).  The full message table of the reference
:func:`message_weights` is compared with a Gray-code walk over those rows,
with the literal codewords of drawn messages, and with the spectral
character-sum table, and the library's weighing (:func:`weigh`) with that table.
Skipped when hypothesis is not installed.
"""

import re

import pytest

pytest.importorskip("hypothesis")

from hypothesis import Phase, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from r2subfield.analysis import FAMILIES, spec_for_family  # noqa: E402
from r2subfield.codegen import DegenerateConfigurationError, weigh  # noqa: E402
from r2subfield.simplicial import Subset  # noqa: E402
from reference import (  # noqa: E402
    build_defining_set,
    charsum_message_weights,
    code_rows,
    codeword,
    columns,
    message_weights,
    row_message_weights,
    subfield_defining_set,
    subfield_generator_rows,
    summarize_message_weights,
)


# No shrink phase: every m = 5 example rebuilds the R^m reference route, so
# shrinking a failing draw takes minutes; the unshrunk draw is reported at once.
PHASES = (Phase.explicit, Phase.generate)


def configurations(m):
    masks = st.integers(min_value=0, max_value=(1 << m) - 1)
    return st.tuples(st.just(m), st.sampled_from(FAMILIES), masks, masks, masks)


def check_against_reference(config, messages):
    m, family, lmask, mmask, nmask = config
    spec = spec_for_family(
        family, Subset.from_mask(m, lmask), Subset.from_mask(m, mmask), Subset.from_mask(m, nmask)
    )
    masks = subfield_defining_set(build_defining_set(spec), m)
    try:
        n, table = message_weights(spec)
    except DegenerateConfigurationError as exc:
        assert not masks
        with pytest.raises(DegenerateConfigurationError, match=f"^{re.escape(str(exc))}$"):
            weigh(spec)
        return
    columns_n, rows = code_rows(spec)
    assert columns_n == n == len(masks)
    if spec.global_complement:
        assert sorted(set(columns(rows, n))) == sorted(masks)
    else:
        assert rows == subfield_generator_rows(masks, m)
    assert table == row_message_weights(rows)
    low = (1 << m) - 1
    for v in messages:
        assert table[v] == codeword(v & low, v >> m & low, v >> 2 * m, masks, m).bit_count()
    assert charsum_message_weights(spec) == table
    try:
        expected = summarize_message_weights(table, n, m)
    except DegenerateConfigurationError as exc:
        with pytest.raises(DegenerateConfigurationError, match=f"^{re.escape(str(exc))}$"):
            weigh(spec)
        return
    summary, charsum_ok = weigh(spec)
    assert summary == expected
    assert charsum_ok is True


@settings(max_examples=25, deadline=None, database=None, phases=PHASES)
@given(configurations(4), st.lists(st.integers(min_value=0, max_value=(1 << 12) - 1), max_size=8))
def test_code_rows_match_reference_m4(config, messages):
    check_against_reference(config, messages)


@settings(max_examples=6, deadline=None, database=None, phases=PHASES)
@given(configurations(5), st.lists(st.integers(min_value=0, max_value=(1 << 15) - 1), max_size=3))
def test_code_rows_match_reference_m5(config, messages):
    check_against_reference(config, messages)
