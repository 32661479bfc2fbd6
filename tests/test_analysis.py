"""Unit tests for predicted tables, bound checks, and the sweep machinery."""

import copy
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from r2subfield import analysis, codegen
from r2subfield.algebra import f2_gram_is_zero
from r2subfield.analysis import (
    FAMILIES,
    MINIMALITY_CAP,
    SWEEP_ROW_FIELDS,
    ashikhmin_barg_minimal,
    code_report,
    distance_optimal_by_griesmer,
    family_of_spec,
    fold_tallies,
    griesmer_sum,
    is_griesmer_code,
    optimality_condition,
    predicted_parameters,
    predicted_weight_table,
    run_sweep,
    self_orth_mod4,
    spec_for_family,
    spectral_minimality,
    spectral_self_orthogonality,
    sweep_tasks,
    table10_conditions,
)
from r2subfield.cli import _verify_json, main
from r2subfield.codegen import DegenerateConfigurationError, InvariantError
from r2subfield.simplicial import ComplexSpec, Subset, subset
from reference import (
    _self_orthogonal,
    code_rows,
    code_words_from_rows,
    enumerated_pair_classes,
    exact_minimality,
    histogram_weight_distribution,
    message_weights,
    row_body_by_flags,
    shift_predictions,
    summarize_rows,
    sweep_task_by_rows,
)


def sweep_row(family, m, lmask, mmask, nmask):
    """One sweep row, read off the rows of its (family, m) sweep."""
    return run_sweep([m], (family,))[0][lmask << 2 * m | mmask << m | nmask]


def test_predicted_parameters_anchors():
    assert predicted_parameters(2, 3, 1, 2, 3) == (192, 8, 96)
    assert predicted_parameters(5, 4, 0, 0, 0) == (225, 8, 112)
    assert predicted_parameters(1, 1, 1, 0, 0) == (2, 1, 1)
    assert predicted_parameters(9, 2, 2, 2, 0) == (48, 6, 24)
    assert predicted_parameters(8, 2, 0, 0, 0) == (27, 6, 12)
    assert predicted_parameters(5, 2, 0, 0, 2) == (36, 6, 16)


def test_predicted_weight_table_anchors():
    assert predicted_weight_table(1, 3, 1, 1, 1) == {0: 1, 4: 7}
    assert predicted_weight_table(5, 2, 0, 0, 2) == {0: 1, 16: 9, 18: 48, 24: 6}
    assert predicted_weight_table(8, 2, 0, 0, 0) == {0: 1, 12: 27, 14: 27, 18: 9}
    assert predicted_weight_table(9, 2, 2, 2, 0) == {0: 1, 24: 60, 32: 3}


def test_predicted_table_collapses_kernel():
    # family 5 at m=2 with |L| = |M| = 1: the nominal message count is 2^6
    # but 8 messages share each codeword, so k drops to 3
    assert predicted_parameters(5, 2, 1, 1, 0) == (4, 3, 2)
    assert predicted_weight_table(5, 2, 1, 1, 0) == {0: 1, 2: 6, 4: 1}


def test_predicted_table_conservation():
    for family in FAMILIES:
        for sl in range(3):
            for sm in range(3):
                for sn in range(3):
                    try:
                        table = predicted_weight_table(family, 2, sl, sm, sn)
                    except DegenerateConfigurationError:
                        continue
                    n, k, d = predicted_parameters(family, 2, sl, sm, sn)
                    assert table[0] == 1
                    assert sum(table.values()) == 1 << k
                    assert all(c > 0 for c in table.values())
                    assert max(table) <= n
                    assert min(w for w in table if w > 0) == d


def test_predicted_table_degenerate_and_validation():
    with pytest.raises(DegenerateConfigurationError):
        predicted_weight_table(3, 1, 0, 1, 0)  # complement of a full complex
    with pytest.raises(DegenerateConfigurationError):
        predicted_weight_table(1, 2, 0, 0, 0)  # only the zero codeword
    with pytest.raises(ValueError):
        predicted_weight_table(1, 2, 3, 0, 0)  # |L| exceeds m
    with pytest.raises(ValueError):
        predicted_weight_table(10, 2, 0, 0, 0)


def test_griesmer_sum():
    assert griesmer_sum(8, 96) == 192
    assert griesmer_sum(6, 24) == 48
    assert griesmer_sum(8, 97) == 198
    assert griesmer_sum(6, 17) == 37
    assert griesmer_sum(1, 5) == 5
    with pytest.raises(ValueError):
        griesmer_sum(0, 5)
    with pytest.raises(ValueError):
        griesmer_sum(3, 0)


def test_griesmer_sum_strictly_monotone_in_d():
    for k in range(1, 9):
        for d in range(1, 130):
            assert griesmer_sum(k, d + 1) > griesmer_sum(k, d)


def test_is_griesmer_code():
    assert is_griesmer_code(192, 8, 96)
    assert is_griesmer_code(48, 6, 24)
    assert is_griesmer_code(1, 1, 1)
    assert not is_griesmer_code(27, 6, 12)
    # the family-1 shape: one dead coordinate keeps it one short of the bound
    assert not is_griesmer_code(8, 3, 4)
    assert griesmer_sum(3, 4) == 7


def test_distance_optimal_by_griesmer():
    assert distance_optimal_by_griesmer(36, 6, 16)
    assert distance_optimal_by_griesmer(192, 8, 96)
    # griesmer_sum(6, 13) == 28, so d = 13 is not excluded: undecided
    assert not distance_optimal_by_griesmer(28, 6, 12)
    with pytest.raises(ValueError):
        distance_optimal_by_griesmer(2, 2, 2)  # parameters violate the bound


def test_optimality_condition():
    for family in (1, 2, 3, 4, 9):
        assert optimality_condition(family, 3, 1, 1, 1)
    # family 1 at s = 1 is [2, 1, 1]; the repetition code [2, 1, 2] beats it
    assert not optimality_condition(1, 2, 1, 0, 0)
    assert not optimality_condition(1, 3, 0, 0, 1)
    # family 5 needs 2^s <= 2(m-1) + |N|
    assert optimality_condition(5, 2, 0, 0, 2)  # 4 <= 2 + 2
    assert not optimality_condition(5, 2, 1, 1, 1)  # 8 > 2 + 1
    assert optimality_condition(6, 4, 1, 1, 0)  # 4 <= 6 + 1
    assert not optimality_condition(7, 2, 1, 1, 1)
    with pytest.raises(ValueError):
        optimality_condition(8, 2, 0, 0, 0)


def test_ashikhmin_barg_minimal():
    assert ashikhmin_barg_minimal({0: 1, 24: 60, 32: 3})
    assert not ashikhmin_barg_minimal({0: 1, 1: 2, 2: 1})
    assert ashikhmin_barg_minimal({0: 1, 4: 7})  # one-weight
    with pytest.raises(DegenerateConfigurationError):
        ashikhmin_barg_minimal({0: 1})


def test_exact_minimality():
    # span of {0011, 1100}: the two generators have disjoint supports
    assert not exact_minimality([0, 0b0011, 0b1100, 0b1111], 4)
    # simplex-like one-weight code is minimal
    assert exact_minimality([0, 0b011, 0b101, 0b110], 3)
    # trivial zero code is vacuously minimal
    assert exact_minimality([0], 4)
    # one-weight [8, 3, 4] code (simplex plus a zero column): the pair (4, 4)
    # sums to n = 8, which is no weight, so it is skipped; the code is minimal
    assert exact_minimality(code_words_from_rows([0b01010101, 0b00110011, 0b00001111], 8), 8)
    with pytest.raises(ValueError):
        exact_minimality(list(range(MINIMALITY_CAP + 1)), 20)


def test_exact_minimality_complement_pair():
    # two words that are exact complements: disjoint supports, not minimal
    words = [0, 0b0011, 0b1100, 0b1111]
    assert not exact_minimality(words, 4)
    # same words viewed in 5 columns: 00011 and 01100 still disjoint
    assert not exact_minimality(words, 5)


def literally_minimal(words):
    """No nonzero u != v with supp(v) inside supp(u): the definition of a minimal code."""
    nonzero = [w for w in words if w]
    return not any(u != v and not v & ~u for u in nonzero for v in nonzero)


def test_exact_minimality_matches_the_definition():
    rng = random.Random(6)
    seen = {"minimal": 0, "not minimal": 0, "all-ones": 0, "pruned": 0, "scanned": 0}
    for trial in range(400):
        n = rng.randint(1, 10)
        rows = [rng.getrandbits(n) for _ in range(rng.randint(1, 4))]
        if trial % 3 == 0:
            rows.append((1 << n) - 1)
        words = code_words_from_rows(rows, n)
        minimal = literally_minimal(words)
        assert exact_minimality(words, n) == minimal
        weights = {w.bit_count() for w in words if w}
        sums = [a + b for a in weights for b in weights if a <= b and a + b <= n]
        seen["minimal" if minimal else "not minimal"] += 1
        seen["all-ones"] += n in weights
        seen["pruned"] += any(s not in weights for s in sums)
        seen["scanned"] += any(s in weights for s in sums)
    assert min(seen.values()) >= 20, seen


def test_self_orth_sufficient_versus_exact():
    assert self_orth_mod4({0: 1, 24: 60, 32: 3})
    assert not self_orth_mod4({0: 1, 2: 1})
    # the repetition code {00, 11} shows mod-4 is only sufficient: its Gram
    # matrix is zero (self-orthogonal) although the weight 2 is not 0 mod 4
    assert f2_gram_is_zero([0b11])


def test_table10_conditions():
    assert table10_conditions(8, 4, 2, 2, 2) == (True, True)
    assert table10_conditions(2, 3, 2, 1, 1) == (False, False)
    assert table10_conditions(1, 3, 1, 1, 1) == (True, True)
    assert table10_conditions(1, 2, 1, 1, 0) == (True, False)
    assert table10_conditions(5, 4, 2, 2, 3) == (True, True)
    assert table10_conditions(9, 3, 3, 3, 3) == (False, True)  # s = 9 > 3m - 2
    assert table10_conditions(9, 3, 2, 2, 2) == (True, True)


SIZE_CLASSES_M1_TO_8 = [
    (family, m, sizes)
    for m in range(1, 9)
    for family in FAMILIES
    for sizes in itertools.product(range(m + 1), repeat=3)
]


def test_closed_forms_are_pinned_up_to_m8():
    # One line per size class with the predicted [n, k, d] and table (or the
    # degeneracy), Table 10's two conditions and the optimality rule (or
    # family 8's ValueError).  The digest was recorded before the per-family
    # formulas were folded into one per complement shape.
    digest = hashlib.sha256()
    for family, m, sizes in SIZE_CLASSES_M1_TO_8:
        try:
            table = (
                predicted_parameters(family, m, *sizes),
                sorted(predicted_weight_table(family, m, *sizes).items()),
            )
        except DegenerateConfigurationError:
            table = "degenerate"
        try:
            opt = optimality_condition(family, m, *sizes)
        except ValueError:
            opt = "no rule"
        conditions = tuple(table10_conditions(family, m, *sizes))
        digest.update(f"{family} {m} {sizes} {table} {conditions} {opt}\n".encode())
    assert len(SIZE_CLASSES_M1_TO_8) == 18216
    assert digest.hexdigest() == (
        "1135fba0aa0f9e5700e789b9fb92f223b0a6cd2a46c2339d5aa223540a33395e"
    )


def test_closed_forms_match_the_spectrum_histograms_up_to_m8():
    # Past the enumeration cap the three spectrum-value histograms still
    # give each class's weight distribution; it must equal the paper's
    # table, degeneracy included.
    degenerate = 0
    for family, m, sizes in SIZE_CLASSES_M1_TO_8:
        spec = class_spec(family, m, *sizes)
        try:
            expected = histogram_weight_distribution(spec)
        except DegenerateConfigurationError:
            with pytest.raises(DegenerateConfigurationError):
                analysis._instantiate(family, m, *sizes)
            degenerate += 1
            continue
        assert analysis._instantiate(family, m, *sizes) == expected, (family, m, sizes)
    assert degenerate == 3168


def test_spec_family_round_trip():
    lset, mset, nset = subset(3, 1), subset(3, 2), subset(3, 3)
    for family in FAMILIES:
        s = spec_for_family(family, lset, mset, nset)
        assert family_of_spec(s) == family
    with pytest.raises(ValueError):
        spec_for_family(0, lset, mset, nset)
    with pytest.raises(ValueError):
        spec_for_family(10, lset, mset, nset)


def test_code_report_matching_configuration():
    report = code_report(5, subset(2), subset(2), subset(2, 1, 2))
    assert report["match"] is True
    assert (report["n"], report["k"], report["d"]) == (36, 6, 16)
    assert report["predicted"]["weights"] == report["weights"]
    assert list(report) == [
        "m", "family", "L", "M", "N", "n", "k", "d", "weights", "predicted",
        "flags", "match",
    ]
    assert list(report["flags"]) == [
        "griesmer_equal", "distance_optimal_by_griesmer", "optimality_condition",
        "minimal_exact", "minimal_ab", "self_orth_exact", "self_orth_mod4",
        "table10_minimal", "table10_self_orth",
    ]
    assert report["L"] == "-" and report["N"] == "1,2"


def test_cached_predictions_survive_mutation_by_callers():
    # the table, n, k and d of a size class come from one cache entry: a
    # caller that edits the table it got must not change the next answers
    table = predicted_weight_table(5, 2, 0, 0, 2)
    del table[16]
    table[0] = 2
    assert predicted_weight_table(5, 2, 0, 0, 2) == {0: 1, 16: 9, 18: 48, 24: 6}
    assert predicted_parameters(5, 2, 0, 0, 2) == (36, 6, 16)
    report = code_report(5, subset(2), subset(2), subset(2, 1, 2))
    expected = copy.deepcopy(report)
    report["predicted"]["weights"].clear()
    report["flags"]["table10_minimal"] = None
    assert code_report(5, subset(2), subset(2), subset(2, 1, 2)) == expected


def test_code_report_family8_optimality_flag_is_none():
    report = code_report(8, subset(2), subset(2), subset(2))
    assert report["flags"]["optimality_condition"] is None
    assert report["match"] is True


def test_code_report_degenerate():
    with pytest.raises(DegenerateConfigurationError):
        code_report(1, subset(2), subset(2), subset(2))


def test_degenerate_prediction_of_a_nontrivial_code_is_an_invariant_error(monkeypatch):
    # a closed form that calls a code degenerate although the enumeration
    # found nonzero codewords is a program fault, not a degenerate row
    def degenerate(*size_class):
        raise DegenerateConfigurationError("forced")

    monkeypatch.setattr(analysis, "_instantiate", degenerate)
    message = "prediction says degenerate but enumeration found a nontrivial code"
    with pytest.raises(InvariantError, match=message):
        code_report(5, subset(2), subset(2), subset(2, 1, 2))
    with pytest.raises(InvariantError, match=message):
        sweep_row(5, 2, 0, 0, 0b11)


def test_degenerate_prediction_check_survives_optimize_flag():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = """
from r2subfield import analysis
from r2subfield.simplicial import subset

def degenerate(*size_class):
    raise analysis.DegenerateConfigurationError("forced")

analysis._instantiate = degenerate
for call in (
    lambda: analysis.code_report(5, subset(2), subset(2), subset(2, 1, 2)),
    lambda: analysis.run_sweep([2], (5,)),
):
    try:
        print(call())
    except analysis.InvariantError as exc:
        print("InvariantError:", exc)
"""
    result = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    message = "InvariantError: prediction says degenerate but enumeration found a nontrivial code"
    assert result.stdout.splitlines() == [message, message]


def class_spec(family, m, sl, sm, sn):
    """The canonical representative of a size class: L = {1..|L|}, and so on."""
    return spec_for_family(family, *(Subset(m, frozenset(range(1, s + 1))) for s in (sl, sm, sn)))


def pair_weights(spec):
    factors = tuple((part.generator.size, part.complemented) for part in spec.parts)
    return analysis._pair_weights(spec.m, factors, *analysis._charsum_terms(spec))


def scanned_minimality(spec):
    """Minimality by the codeword scan, or None for a code with no nonzero word."""
    try:
        n, rows = code_rows(spec)
    except DegenerateConfigurationError:
        return None
    words = code_words_from_rows(rows, n)
    return exact_minimality(words, n) if len(words) > 1 else None


def test_pair_classes_match_the_4m_enumeration():
    # m = 4 is the first ground set with two coordinates on either side of X
    for m in range(1, 8):
        for size in range(m + 1):
            for complemented in (False, True):
                expected = enumerated_pair_classes(m, size, complemented)
                assert analysis._pair_classes(m, size, complemented) == expected, (m, size)


def test_exact_decisions_follow_the_size_rules_up_to_m8():
    # Both decisions answer for every size class past the enumeration cap.
    # On the non-degenerate ones, exact minimality is Table 10's minimality
    # condition, and a class is self-orthogonal exactly when
    # s = |L| + |M| + |N| is 0 or at least 3.  Only s = 0 in families 2-8
    # breaks them: minimal but unclaimed at m = 1, not self-orthogonal at
    # m <= 2.
    breaks = {"minimal": [], "self_orth": []}
    classes = Counter()
    for m in range(1, 9):
        for family in FAMILIES:
            for sizes in itertools.product(range(m + 1), repeat=3):
                spec = class_spec(family, m, *sizes)
                minimal = spectral_minimality(spec)
                self_orth = spectral_self_orthogonality(spec)
                try:
                    predicted_parameters(family, m, *sizes)
                except DegenerateConfigurationError:
                    continue
                classes[m] += 1
                s = sum(sizes)
                if minimal != table10_conditions(family, m, *sizes).minimal:
                    breaks["minimal"].append((m, family, s))
                if self_orth != (s == 0 or s >= 3):
                    breaks["self_orth"].append((m, family, s))
    assert classes == {1: 33, 2: 150, 3: 405, 4: 852, 5: 1545, 6: 2538, 7: 3885, 8: 5640}
    assert breaks == {
        "minimal": [(1, family, 0) for family in range(2, 9)],
        "self_orth": [(m, family, 0) for m in (1, 2) for family in range(2, 9)],
    }


def test_spectral_minimality_matches_the_scan_up_to_m3():
    decided = {True: 0, False: 0}
    for m in (1, 2, 3):
        for family in FAMILIES:
            for masks in itertools.product(range(1 << m), repeat=3):
                spec = spec_for_family(family, *(Subset.from_mask(m, x) for x in masks))
                expected = scanned_minimality(spec)
                if expected is not None:
                    assert spectral_minimality(spec) == expected, (family, m, masks)
                    decided[expected] += 1
    assert decided == {True: 2428, False: 1895}


def test_spectral_minimality_matches_the_scan_per_class_at_m4():
    decided = {True: 0, False: 0}
    for family in FAMILIES:
        for sizes in itertools.product(range(5), repeat=3):
            spec = class_spec(family, 4, *sizes)
            expected = scanned_minimality(spec)
            if expected is not None:
                assert spectral_minimality(spec) == expected, (family, sizes)
                decided[expected] += 1
    assert decided == {True: 632, False: 220}


@pytest.mark.parametrize(
    "family, sizes",
    [
        (2, (1, 1, 2)), (3, (0, 2, 3)), (1, (5, 4, 4)), (1, (5, 5, 4)), (2, (0, 4, 5)),
        (3, (4, 0, 4)), (4, (4, 4, 0)), (5, (2, 2, 3)), (6, (2, 4, 2)), (7, (3, 2, 2)),
    ],
)
def test_spectral_minimality_matches_the_scan_on_m5_report_classes(family, sizes):
    # the size classes of the m = 5 benchmark reports whose codes have at
    # most MINIMALITY_CAP words, so the scan can run
    spec = class_spec(family, 5, *sizes)
    assert spectral_minimality(spec) == scanned_minimality(spec)


def unit_message_weights(rows):
    """W(e_i) and W(e_i + e_j) for all rows i <= j, keyed by packed message mask."""
    return {
        1 << i | 1 << j: (rows[i] ^ rows[j] if i != j else rows[i]).bit_count()
        for i in range(len(rows))
        for j in range(i, len(rows))
    }


def test_self_orthogonality_from_the_table_matches_the_gram_check():
    # Every configuration at m <= 3 on the full message table, then one
    # code per size class at m = 4 and 5 on the unit-message weights of the
    # rows (the whole table takes seconds there); a class fails in 81 codes
    # per m, 9 size triples in every family.  The library's decision from
    # the spectra must agree with the Gram check on each of them.
    specs = [
        spec_for_family(family, *(Subset.from_mask(m, x) for x in masks))
        for m in (1, 2, 3)
        for family in FAMILIES
        for masks in itertools.product(range(1 << m), repeat=3)
    ] + [
        class_spec(family, m, *sizes)
        for m in (4, 5)
        for family in FAMILIES
        for sizes in itertools.product(range(m + 1), repeat=3)
    ]
    decided = Counter()
    for spec in specs:
        try:
            _, rows = code_rows(spec)
        except DegenerateConfigurationError:
            continue
        weights = message_weights(spec)[1] if spec.m <= 3 else unit_message_weights(rows)
        exact = f2_gram_is_zero(rows)
        assert _self_orthogonal(weights, spec.m) == exact, spec
        assert spectral_self_orthogonality(spec) == exact, spec
        decided[max(spec.m, 3), exact] += 1
    assert decided == {
        (3, True): 3706, (3, False): 620, (4, True): 772, (4, False): 81,
        (5, True): 1465, (5, False): 81,
    }


def test_pair_weights_match_the_message_table():
    # The realisable (2W(a), 2W(b), 2W(a + b)) agree with the enumerated
    # message weights over all pairs of messages.  This pins the family-9
    # zero-message term and the u = v flag, which the decision alone cannot
    # see: family 9 has no weight 2^(3m - 2), so a wrong W(0) never makes
    # W(a) + W(b) = W(a + b) hold.
    specs = [
        class_spec(family, 2, *sizes)
        for family in FAMILIES
        for sizes in itertools.product(range(3), repeat=3)
    ]
    specs.append(class_spec(9, 3, 1, 2, 1))
    checked = 0
    for spec in specs:
        try:
            _, weights = message_weights(spec)
        except DegenerateConfigurationError:
            continue
        doubled = [2 * w for w in weights]
        messages = range(len(doubled))
        enumerated = {(doubled[a], doubled[b], doubled[a ^ b]) for a in messages for b in messages}
        assert set(pair_weights(spec)) == enumerated, spec
        checked += 1
    assert checked == 152


def test_minimality_claims_hold_past_the_cap():
    # Over every non-degenerate size class at m = 4 and 5, Table 10's
    # minimality claim and the Ashikhmin-Barg condition (read off the
    # spectral weights) each imply spectral minimality.  m = 5 codes reach
    # 2^15 words, past what the scan decides.
    for m, expected in ((4, (852, 632, 632, 632)), (5, (1545, 1211, 1211, 1211))):
        classes = claimed = ab = minimal = 0
        for family in FAMILIES:
            for sizes in itertools.product(range(m + 1), repeat=3):
                spec = class_spec(family, m, *sizes)
                weights = {wa >> 1 for wa, _, _ in pair_weights(spec)}
                if weights == {0}:
                    continue
                decided = spectral_minimality(spec)
                claim = table10_conditions(family, m, *sizes).minimal
                sufficient = ashikhmin_barg_minimal(dict.fromkeys(weights, 1))
                assert decided or not (claim or sufficient), (family, m, sizes)
                classes += 1
                claimed += claim
                ab += sufficient
                minimal += decided
        assert (classes, claimed, ab, minimal) == expected


# Two sweep rows under a prediction with one codeword moved from weight d to
# d - 1, recorded before the sweep stopped building report dicts.
MISMATCH_ROWS = (
    '[{"m": 3, "family": 8, "L": "1", "M": "2", "N": "3", "status": "mismatch", "n": 216, '
    '"k": 9, "d": 96, "match": false, "charsum_ok": true, "griesmer_ok": null, '
    '"minimal_claim_ok": true, "selforth_claim_ok": true, "ab_implication_ok": true, '
    '"detail": "predicted [n,k,d]=[216,9,95] weights={0: 1, 95: 1, 96: 26, 108: 448, 112: 27, '
    '144: 9}; measured [n,k,d]=[216,9,96] weights={0: 1, 96: 27, 108: 448, 112: 27, 144: 9}"}, '
    '{"m": 3, "family": 2, "L": "1", "M": "1,2", "N": "3", "status": "mismatch", "n": 48, '
    '"k": 6, "d": 24, "match": false, "charsum_ok": true, "griesmer_ok": true, '
    '"minimal_claim_ok": true, "selforth_claim_ok": true, "ab_implication_ok": true, '
    '"detail": "predicted [n,k,d]=[48,6,23] weights={0: 1, 23: 1, 24: 59, 32: 3}; '
    'measured [n,k,d]=[48,6,24] weights={0: 1, 24: 60, 32: 3}"}]'
)


def forced_mismatch_rows(monkeypatch):
    # Under the shifted predictions every non-degenerate row mismatches;
    # these two are a family-8 finding and a family-2 mismatch.
    shift_predictions(monkeypatch)
    return [sweep_row(8, 3, 1, 0b010, 0b100), sweep_row(2, 3, 1, 0b011, 0b100)]


def finding(row):
    return {key: row[key] for key in ("m", "family", "L", "M", "N", "detail")}


def test_mismatch_rows_are_pinned(monkeypatch):
    pinned = forced_mismatch_rows(monkeypatch)
    assert json.dumps(pinned) == MISMATCH_ROWS
    rows, summary = run_sweep([3], (8, 2))
    mismatches = [row for row in rows if row["status"] == "mismatch"]
    assert summary["mismatch"] == len(mismatches) == len(rows) - summary["degenerate"]
    assert summary["mismatch_outside_family_8"] == sum(r["family"] == 2 for r in mismatches)
    assert summary["findings"] == [finding(row) for row in mismatches if row["family"] == 8]
    assert finding(pinned[0]) in summary["findings"]
    assert summary["passed"] is False
    # the CLI renders the rows and findings, whose details hold "{", ":" and
    # ",", exactly as json.dumps(indent=2) does
    tasks = sweep_tasks([3], (8, 2))
    text = "".join(_verify_json(tasks, tasks.summary))
    assert text == json.dumps({"rows": rows, "summary": summary}, indent=2) + "\n"


def test_folded_task_tallies_equal_one_summary(monkeypatch):
    # A sweep is tallied one task at a time, once per distinct row body; the
    # folded tallies must equal the row-by-row tally of the reference route
    # over run_sweep's rows, key order and the order of the findings
    # included.  The forced sweep has findings in two family-8 tasks.
    def check(families):
        tasks = sweep_tasks([1, 2, 3], families)
        for _ in tasks:
            pass
        expected = summarize_rows(run_sweep([1, 2, 3], families)[0])
        assert tasks.summary() == expected
        assert json.dumps(tasks.summary()) == json.dumps(expected)
        return expected

    assert check(FAMILIES)["findings"] == []
    shift_predictions(monkeypatch)
    findings = check((2, 8, 9))["findings"]
    assert Counter(item["m"] for item in findings) == {2: 27, 3: 343}


def test_each_row_body_field_holds_one_type_besides_none(monkeypatch):
    # cli._verify_json writes each body field with the C encoder, at the
    # depth where indent=2 would put it on one line of its own, so every
    # value must be flat: a str, an int, a bool or None.  Each field holds
    # one of those types in every row.
    rows = run_sweep([1, 2, 3])[0] + forced_mismatch_rows(monkeypatch)
    types = {
        field: {type(row[field]) for row in rows} - {type(None)} for field in SWEEP_ROW_FIELDS[5:]
    }
    assert types == {
        "status": {str}, "n": {int}, "k": {int}, "d": {int}, "match": {bool},
        "charsum_ok": {bool}, "griesmer_ok": {bool}, "minimal_claim_ok": {bool},
        "selforth_claim_ok": {bool}, "ab_implication_ok": {bool}, "detail": {str},
    }


def test_run_sweep_m1_tallies():
    rows, summary = run_sweep([1])
    assert summary["total"] == 72
    assert summary["mismatch"] == 0
    assert summary["mismatch_outside_family_8"] == 0
    assert summary["charsum_failures"] == 0
    assert summary["findings"] == []
    assert summary["passed"] is True
    # family 1 at m=1: seven non-degenerate configurations, none of which
    # meets the Griesmer bound (the defining set always contains the zero
    # vector, wasting one coordinate)
    assert summary["griesmer_failures"] == 7
    f1_ok = [r for r in rows if r["family"] == 1 and r["status"] == "ok"]
    assert len(f1_ok) == 7
    assert all(r["griesmer_ok"] is False for r in f1_ok)
    assert all(
        r["griesmer_ok"] is not False for r in rows if r["family"] in (2, 3, 4, 9)
    )


def test_sweep_tasks_run_once():
    # a second pass would run and tally every task twice
    tasks = sweep_tasks([1], families=(9,))
    assert [len(index) for *_, index in tasks] == [8]
    with pytest.raises(RuntimeError, match="iterated once"):
        next(iter(tasks))
    assert tasks.summary()["total"] == 8


def factor_records_built():
    return codegen._d1_record.cache_info().misses, codegen._slot_record.cache_info().misses


def clear_factor_records():
    codegen._d1_record.cache_clear()
    codegen._slot_record.cache_clear()


def test_m3_sweep_with_warm_caches_skips_no_check():
    # A sweep transforms and checks against the spectra each D1 (16 at m = 3)
    # and each (D2, D3) (256) once, however many configurations share it, and
    # summarizes each of the 195 distinct pairs of record contents once.  A
    # second pass builds no record and returns the same rows.
    clear_factor_records()
    codegen._summarize.cache_clear()
    rows, summary = run_sweep([3])
    assert factor_records_built() == (16, 256)
    assert codegen._summarize.cache_info().misses == 195
    assert (summary["total"], summary["degenerate"]) == (4608, 4608 - 3885)
    assert run_sweep([3]) == (rows, summary)
    assert factor_records_built() == (16, 256)


def test_sweep_builds_each_row_body_once_per_task_and_key(monkeypatch):
    # Inside a (family, m) task the fields after N depend only on |L|, |M|,
    # |N| and the records of D1 and (D2, D3), so the m = 3 sweep weighs 576
    # codes (64 per task) for its 4,608 rows and still summarizes the 195
    # distinct record pairs.  Each task reads its 8 records of D1 once, 72
    # reads in all.  The slot records depend only on m and the complements
    # of D2 and D3, four patterns over the nine families, so the sweep reads
    # the 64 records of each pattern once: 256 reads.  A body weighs the
    # records the task holds, reading none again.
    weighed = []
    weigh_records = analysis._weigh_records

    def counted(*records):
        weighed.append(records)
        return weigh_records(*records)

    clear_factor_records()
    codegen._summarize.cache_clear()
    monkeypatch.setattr(analysis, "_weigh_records", counted)
    rows, summary = run_sweep([3])
    assert (len(weighed), summary["total"]) == (576, 4608)
    assert codegen._summarize.cache_info().misses == 195
    reads = codegen._slot_record.cache_info(), codegen._d1_record.cache_info()
    assert [info.hits + info.misses for info in reads] == [256, 72]


def test_slot_tables_are_read_once_per_sweep(monkeypatch):
    # A sweep shares one slot table per (m, complement D2, complement D3)
    # among its tasks, and builds it again on the next sweep.  After a clean
    # sweep, one (M, N)'s slot record with plain D2 and plain D3 says its
    # transform fails the spectra: the next sweep must fail exactly the
    # non-degenerate rows of that (M, N) at m = 3 in families 1, 2 and 9,
    # the families with plain D2 and D3, and leave every other row as it
    # was.  A table kept from the clean sweep would hide the poison, and one
    # keyed without m would serve the m = 2 table to the m = 3 tasks.
    clean = run_sweep([2, 3])
    target = tuple(ComplexSpec(Subset.from_mask(3, x), False) for x in (0b110, 1))
    record = analysis._slot_record

    def wrong(*parts):
        counts, zero, ok = record(*parts)
        return counts, zero, ok and parts != target

    clear_factor_records()
    monkeypatch.setattr(analysis, "_slot_record", wrong)
    rows, summary = run_sweep([2, 3])
    assert len(rows) == len(clean[0])
    hit = 0
    for row, clean_row in zip(rows, clean[0], strict=True):
        if (row["m"], row["M"], row["N"]) == (3, "2,3", "1") and row["family"] in (1, 2, 9):
            if clean_row["status"] != "degenerate":
                assert row == {**clean_row, "charsum_ok": False}, row
                hit += 1
                continue
        assert row == clean_row, row
    # in family 2, L = {1, 2, 3} leaves D1 empty, so that row is degenerate
    assert summary["charsum_failures"] == hit == 3 * 8 - 1


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("shifted", [False, True])
def test_row_bodies_equal_the_flags_route(monkeypatch, shifted, family):
    # A body is one dict of the fields a row prints; the reference reads
    # each field through the nine flags of code_report's _evaluate.  Every
    # body of every task must be equal, on clean records and under wrong
    # predictions.  These move a codeword of weight d to d - 1, so a table
    # whose one nonzero word has weight 1 (families 1-8 have such classes)
    # becomes degenerate by prediction, and every other non-degenerate row a
    # mismatch.
    if shifted:
        shift_predictions(monkeypatch)
    statuses = Counter()
    for m in (1, 2, 3):
        task = analysis._sweep_task(family, m)
        assert task == sweep_task_by_rows(family, m, row_body_by_flags)
        statuses.update(
            "by prediction" if body["detail"] == "trivial code has no nonzero codeword"
            else body["status"] for body in task[3]
        )
    assert (statuses["ok"] > 0, statuses["mismatch"] > 0) == (not shifted, shifted)
    assert (statuses["by prediction"] > 0) is (shifted and family != 9)


def test_a_code_below_the_griesmer_bound_is_a_value_error(monkeypatch, capsys):
    # No binary [3, 3, 2] code exists: the Griesmer sum is 2 + 1 + 1 = 4.  A
    # weighing that measured one is a fault the sweep must not print as a
    # row; the CLI reports it as an error and exits 2.
    weigh_records = analysis._weigh_records

    def impossible(*records):
        charsum_ok = weigh_records(*records)[1]  # a degenerate code stays degenerate
        return codegen.CodeSummary(n=3, k=3, d=2, weights={0: 1, 2: 6, 3: 1}), charsum_ok

    monkeypatch.setattr(analysis, "_weigh_records", impossible)
    with pytest.raises(ValueError, match=r"^\[3,3,2\] already violates the Griesmer bound$"):
        run_sweep([1], [1])
    assert main(["verify", "--m", "1", "--families", "1"]) == 2
    assert capsys.readouterr().err == "error: [3,3,2] already violates the Griesmer bound\n"


@pytest.mark.parametrize("family", FAMILIES)
def test_sweep_task_equals_the_row_by_row_route(family):
    # The task numbers its factor classes once and appends one index row per
    # L; the reference looks up each row's sizes and both records.  Labels,
    # bodies in order and index must be equal.  The records of a factor
    # depend on its size alone, so a task has one body per size class.
    for m in (1, 2, 3):
        task = analysis._sweep_task(family, m)
        assert task == sweep_task_by_rows(family, m)
        assert len(task[3]) == (m + 1) ** 3


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("poisoned", ["_d1_record", "_slot_record"])
def test_a_poisoned_record_gets_its_own_bodies_in_exactly_its_rows(monkeypatch, poisoned, family):
    # One L's D1 record, or one (M, N)'s slot record, says its transform
    # fails the spectra.  Its factor class is then a class of its own: its
    # rows, and only they, get body numbers that no other row has, and each
    # non-degenerate one fails the character-sum check.  Every other row
    # keeps its clean body.  Neither target is the first subset of its size.
    m = 3
    c1, c2, c3, _ = analysis._PATTERNS[family]
    if poisoned == "_d1_record":
        target = (ComplexSpec(Subset.from_mask(m, 0b101), c1),)

        def hit(row):
            return row >> 2 * m == 0b101
    else:
        target = tuple(ComplexSpec(Subset.from_mask(m, x), c) for x, c in ((0b110, c2), (1, c3)))

        def hit(row):
            return row & (1 << 2 * m) - 1 == 0b110 << m | 1
    record = getattr(analysis, poisoned)

    def wrong(*parts):
        counts, zero, ok = record(*parts)
        return counts, zero, ok and parts != target

    *_, clean_bodies, clean_index = analysis._sweep_task(family, m)
    monkeypatch.setattr(analysis, poisoned, wrong)
    task = analysis._sweep_task(family, m)
    assert task == sweep_task_by_rows(family, m)
    *_, bodies, index = task
    rows = range(len(index))
    assert sum(map(hit, rows)) == (64 if poisoned == "_d1_record" else 8)
    own = {index[row] for row in rows if hit(row)}
    assert own.isdisjoint(index[row] for row in rows if not hit(row))
    for row in rows:
        body, clean_body = bodies[index[row]], clean_bodies[clean_index[row]]
        if hit(row) and clean_body["status"] != "degenerate":
            assert body == {**clean_body, "charsum_ok": False}, row
        else:
            assert body == clean_body, row


def test_wrong_spectrum_value_fails_every_row_of_its_factor(monkeypatch):
    # One wrong value in the spectrum of one factor: the cached check must
    # fail exactly the non-degenerate rows with that factor as D1, D2 or D3,
    # and leave every other field of every row as the clean sweep has it.
    target = ComplexSpec(Subset.from_mask(3, 0b011), complemented=True)
    spectrum = codegen.spectrum

    def wrong_spectrum(part):
        values = spectrum(part)
        if part == target:
            values[0b100] += 2
        return values

    clean, _ = run_sweep([3])
    clear_factor_records()
    monkeypatch.setattr(codegen, "spectrum", wrong_spectrum)
    try:
        rows, summary = run_sweep([3])
    finally:
        clear_factor_records()
    failing = 0
    for row, clean_row in zip(rows, clean, strict=True):
        parts = spec_for_family(row["family"], *(Subset.parse(3, row[key]) for key in "LMN")).parts
        if row["status"] == "degenerate":
            assert row["charsum_ok"] is None, row
        else:
            assert row["charsum_ok"] is (target not in parts), row
            failing += target in parts
        assert {**row, "charsum_ok": True} == {**clean_row, "charsum_ok": True}, row
    assert summary["charsum_failures"] == failing > 0


def test_summary_memo_cannot_hide_a_wrong_record(monkeypatch):
    # The summaries are memoised on the contents of the two records, not on
    # the configuration.  With every summary of the sweep cached, a factor
    # whose member list loses one point must change exactly the rows built
    # from it: each one that was ok now measures a shorter code.
    target = ComplexSpec(Subset.from_mask(3, 0b011), complemented=True)
    members = codegen.enumerate_members

    def one_member_short(part):
        listed = members(part)
        return listed[:-1] if part == target else listed

    clean, _ = run_sweep([3])
    computed = codegen._summarize.cache_info().misses
    clear_factor_records()
    monkeypatch.setattr(codegen, "enumerate_members", one_member_short)
    try:
        rows, _ = run_sweep([3])
    finally:
        clear_factor_records()
    assert codegen._summarize.cache_info().misses > computed
    changed = 0
    for row, clean_row in zip(rows, clean, strict=True):
        parts = spec_for_family(row["family"], *(Subset.parse(3, row[key]) for key in "LMN")).parts
        if target in parts and clean_row["status"] == "ok":
            assert row["n"] < clean_row["n"], row
            assert (row["status"], row["match"], row["charsum_ok"]) == ("mismatch", False, False)
            changed += 1
        else:
            assert row == clean_row, row
    assert changed > 0


def test_one_pair_walk_per_size_class(monkeypatch):
    # Both exact decisions of a size class come from one walk of its pair
    # weights.  The weights do not change when the three factors are
    # permuted, so the 405 non-degenerate classes at m = 3 share 102 walks,
    # one per multiset of factors and global flag.  A second pass reads the
    # cached records and rebuilds no character-sum terms.
    analysis._size_class.cache_clear()
    analysis._decisions.cache_clear()
    calls = Counter()

    def counted(name):
        function = getattr(analysis, name)

        def wrapper(*args):
            calls[name] += 1
            return function(*args)

        return wrapper

    for name in ("_pair_weights", "_charsum_terms"):
        monkeypatch.setattr(analysis, name, counted(name))
    run_sweep([3])
    assert calls["_pair_weights"] == 102
    calls.clear()
    run_sweep([3])
    assert calls == {}


@pytest.mark.parametrize(
    "ms, families, message",
    [
        ([6], FAMILIES, "m must be in 1..5, got 6"),
        ([0], FAMILIES, "m must be in 1..5, got 0"),
        ([2], (10,), "family must be 1..9, got 10"),
        ([2, 6], (10,), "m must be in 1..5, got 6"),  # every m before any family
        # an empty sweep would pass on no rows
        ([], FAMILIES, "^a sweep needs at least one m and one family$"),
        ([2], (), "^a sweep needs at least one m and one family$"),
    ],
)
def test_run_sweep_checks_its_input_before_building_configurations(
    monkeypatch, ms, families, message
):
    # no task may start: at m = 6 each one would build 262,144 rows
    def unreachable(*args):
        raise AssertionError("a sweep task was run")

    monkeypatch.setattr(analysis, "_sweep_task", unreachable)
    with pytest.raises(ValueError, match=message):
        run_sweep(ms, families)
    with pytest.raises(ValueError, match=message):
        sweep_tasks(ms, families)  # when called, before it is iterated


def test_run_sweep_family_subset():
    rows, summary = run_sweep([2], families=(9,))
    assert summary["total"] == 64
    assert {r["family"] for r in rows} == {9}
    assert summary["mismatch"] == 0
    # the m values and the families are checked before the sweep, and
    # iterators of them still run
    assert run_sweep(iter([2]), families=(9,)) == (rows, summary)
    assert run_sweep([2], families=(f for f in (9,))) == (rows, summary)


def test_task_tally_flags_family8_findings():
    # a hand-built m = 1 task: 8 rows, one mismatch (masks 0, 0, 0) and
    # seven rows that share one body
    bodies = [
        {
            "status": "mismatch", "n": 27, "k": 6, "d": 12, "match": False,
            "charsum_ok": True, "griesmer_ok": None, "minimal_claim_ok": None,
            "selforth_claim_ok": None, "ab_implication_ok": True,
            "detail": "weights differ",
        },
        {
            "status": "ok", "n": 2, "k": 1, "d": 1, "match": True,
            "charsum_ok": True, "griesmer_ok": False, "minimal_claim_ok": None,
            "selforth_claim_ok": None, "ab_implication_ok": True,
            "detail": "",
        },
    ]
    task = [8, 1, ["-", "1"], bodies, [0] + [1] * 7]
    summary = fold_tallies([analysis._tally(task)])
    assert (summary["total"], summary["ok"], summary["mismatch"]) == (8, 7, 1)
    assert summary["griesmer_failures"] == 7
    assert summary["mismatch_outside_family_8"] == 0
    assert summary["findings"] == [
        {"m": 1, "family": 8, "L": "-", "M": "-", "N": "-", "detail": "weights differ"}
    ]
    assert summary["passed"] is True

    task[0] = 7
    summary = fold_tallies([analysis._tally(task)])
    assert summary["mismatch_outside_family_8"] == 1
    assert summary["findings"] == []
    assert summary["passed"] is False
