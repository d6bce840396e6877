"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured cost.

Criterion 12's first test asserts the source's three-attractor claim for the
preperiod-2 iterator as refuted: the three stated terminal sets are
attractors, but the orbit of the bare b twist enters a fourth, the 3-cycle
b -> (ab)^-1 -> a^2, which the numeric lift labels f_3/4.  The corrected
criterion with all four attractors is the test right below it.
"""

import time
from functools import lru_cache

from conftest import reduced_words
from twistclass.labels import (
    AIRPLANE,
    CORABBIT,
    F14,
    F34,
    F512,
    F_MINUS_I,
    FI,
    RABBIT,
    obstructed,
)
from twistclass import moduli, periodic2, preperiod2, rabbit
from twistclass.selfsim import (
    automata_distinct,
    homotopy_shift,
    is_trivial_action,
    moore_diagram,
    nucleus,
)
from twistclass.words import GenWord
from twistclass.wreath import act


def _report(number: int, detail: str) -> None:
    print(f"ACCEPTANCE {number:2d}: PASS ({detail})")


@lru_cache(maxsize=None)
def _quater_orbit_hits(stop: frozenset[GenWord]):
    """Where the psi_bar_q orbit of each reduced a,b word of length <= 10
    first meets ``stop``, within 64 steps.

    Returns, per word of ``stop``, the number of orbits meeting it first and
    the least such starting word by sort_key; and the words whose orbits miss
    ``stop``.  Both criterion-12 tests read this one sweep.  The loop is
    written out here, not taken from the library, because it is the
    reference the library's orbit loop is checked against.
    """
    hits: dict[GenWord, tuple[int, GenWord]] = {}
    misses = []
    for w in reduced_words(preperiod2.MODULI, 10):
        cur = w
        for _ in range(64):
            if cur in stop:
                count, least = hits.get(cur, (0, w))
                hits[cur] = (count + 1, min(least, w, key=GenWord.sort_key))
                break
            cur = preperiod2.psi_bar_q(cur)
        else:
            misses.append(w)
    return hits, misses


def test_criterion_01_twist_powers_agree_with_iteration():
    T = rabbit.MCG.gen("T")
    start = time.monotonic()
    for m in range(-2048, 2049):
        assert rabbit.classify_twist_power(m) == rabbit.classify_mcg(T ** m), m
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"sweep took {elapsed:.1f}s"
    _report(1, f"4097 twist powers in {elapsed:.1f}s")


def test_criterion_02_rabbit_family_anchors():
    expected = {
        1: AIRPLANE, 2: AIRPLANE,
        -1: CORABBIT, -4: CORABBIT,
        0: RABBIT, 12: RABBIT, 48: RABBIT,
    }
    for m, label in expected.items():
        assert rabbit.classify_twist_power(m) == label, m
    _report(2, "7 anchor twist powers")


def test_criterion_03_mapping_class_nucleus_exact():
    rec = rabbit.mcg_recursion()
    T, S = rabbit.MCG.gens()
    start = time.monotonic()
    got = nucleus(rec, rabbit.MCG.gens(), 100)
    elapsed = time.monotonic() - start
    assert got == {rabbit.MCG.identity(), S, T, T * S, ~S, ~T, ~S * ~T}
    assert elapsed < 1.0, f"nucleus took {elapsed:.2f}s"
    _report(3, f"7 states in {elapsed * 1000:.0f}ms")


def test_criterion_04_rabbit_nuclei_pairwise_distinct():
    diagrams = {}
    for variant in ("R", "A", "C"):
        rec = rabbit.rabbit_recursion(variant)
        diagrams[variant] = moore_diagram(rec, nucleus(rec, rabbit.PI1.gens(), 200))
    pairs = [("R", "A"), ("R", "C"), ("A", "C")]
    for x, y in pairs:
        assert automata_distinct(diagrams[x], diagrams[y]), (x, y)
    _report(4, "3 nuclei under bound 200, pairwise distinct")


def test_criterion_05_twisted_rabbit_matches_corabbit():
    shift = homotopy_shift(
        rabbit.twisted_rabbit_recursion(-1),
        rabbit.rabbit_recursion("C"),
        rabbit.ADDING_MACHINE,
        4,
    )
    assert shift == 0
    _report(5, "homotopy shift 0")


def test_criterion_06_adding_machine_is_odometer():
    rec = rabbit.rabbit_recursion("R")
    checked = 0
    for n in range(1, 9):
        for k in range(2 ** n):
            v = format(k, f"0{n}b")[::-1]
            expect = format((k + 1) % 2 ** n, f"0{n}b")[::-1]
            assert act(rec, rabbit.ADDING_MACHINE, v) == expect
            checked += 1
    _report(6, f"{checked} vertices, exhaustive to depth 8")


def test_criterion_07_arithmetic_classifier_anchors():
    A, B = periodic2.MODULI.gens()
    one = periodic2.MODULI.identity()
    assert periodic2.classify_mod5(one) == FI
    assert periodic2.classify_mod5(A * A) == FI
    assert periodic2.classify_mod5(A * A * B) == F_MINUS_I
    assert periodic2.classify_mod5(A * ~B * A * B) == FI
    assert periodic2.classify_mod5(A) == obstructed()
    _report(7, "5 anchors")


def test_criterion_08_classifier_factors_through_order_100_quotient():
    start = time.monotonic()
    by_q = {}
    count = 0
    for w in reduced_words(periodic2.MODULI, 8):
        q = periodic2.q_image(w)
        label = periodic2.classify_mod5(w)
        assert by_q.setdefault(q, label) == label, str(w)
        count += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
    _report(8, f"{count} words, {len(by_q)} quotient classes in {elapsed:.1f}s")


def test_criterion_09_gx_relations():
    # the stated relations live in the obstructed-classification quotient,
    # whose word problem is kernel membership of the iterated recursion
    # (tree-action triviality cannot separate the fourth twist power)
    A, B = periodic2.MODULI.gens()
    assert periodic2.gx_trivial(A * A)
    assert periodic2.gx_trivial((A * B) ** 4)
    b4 = B ** 4
    for w in (A, B, A * B, B * A, ~A * B):
        comm = b4 * b4.conjugate(w) * ~b4 * ~(b4.conjugate(w))
        assert periodic2.gx_trivial(comm), str(w)
    for k in range(1, 17):
        assert not periodic2.gx_trivial(B ** k), k
    _report(9, "7 relators trivial, 16 twist powers non-trivial")


def test_criterion_10_obstructed_distinctness_and_iterator_cycles():
    A, B = periodic2.MODULI.gens()
    for r in range(-5, 6):
        assert periodic2.obstructed_index(B ** r) == r, r
    assert periodic2.phi_bar(A) == A
    for k in (-3, -1, 1, 2, 5):
        assert periodic2.gx_equal(periodic2.phi_bar(B ** k), B ** k)
    ab = A * B
    b_neg_a = (~B).conjugate(A)
    assert periodic2.gx_equal(periodic2.phi_bar(ab), b_neg_a)
    assert periodic2.gx_equal(periodic2.phi_bar(b_neg_a), ab)
    a_b = A.conjugate(B)
    b_neg2a = (B ** -2).conjugate(A)
    abab = A * B * A * B
    assert periodic2.gx_equal(periodic2.phi_bar(a_b), b_neg2a)
    assert periodic2.gx_equal(periodic2.phi_bar(b_neg2a), abab)
    assert periodic2.gx_equal(periodic2.phi_bar(abab), a_b)
    _report(10, "indices -5..5 exact; fixed points, 2-cycle and 3-cycle")


def test_criterion_11_involutions_and_commutation():
    AL, BE, GA = periodic2.PI1.gens()
    fi = periodic2.fi_recursion()
    for g in (AL, BE, GA):
        assert is_trivial_action(fi, g * g, 10000)
    fstar = periodic2.fstar_recursion()
    assert is_trivial_action(fstar, BE * GA * ~BE * ~GA, 10000)
    _report(11, "3 involutions; one commutator")


def test_criterion_12_orbits_reach_three_attractor_terminals():
    # As stated, every orbit reaches {1, a, ab^-1 a, a^-1 b} within 64
    # steps.  The three stated terminal sets are attractors, but the claim
    # is refuted: the orbit of the bare b twist runs b -> (ab)^-1 -> a^2 -> b
    # forever, a direct consequence of the projection values
    # (psi(b) = b^-1 a^-1, psi(a^2) = b).  This test asserts the stated
    # attractors, that every orbit ends in them or in that 3-cycle, that the
    # cycle is closed and disjoint from them and is entered first by b, and
    # that the numeric lift labels the cycle with the class the three stated
    # attractors never name.
    A, B = preperiod2.MODULI.gens()
    one = preperiod2.MODULI.identity()
    psi = preperiod2.psi_bar_q
    assert psi(one) == one
    assert psi(A) == A
    assert psi(A * ~B * A) == ~A * B
    assert psi(~A * B) == A * ~B * A
    source_terminals = {one, A, A * ~B * A, ~A * B}

    extra_cycle = {B, ~B * ~A, A * A}
    assert {psi(w) for w in extra_cycle} == extra_cycle
    assert not extra_cycle & source_terminals

    hits, misses = _quater_orbit_hits(frozenset(source_terminals | extra_cycle))
    if misses:
        raise AssertionError(
            f"orbit of {misses[0]} reached neither the stated terminals nor the "
            f"b-cycle in 64 steps"
        )
    reach_source = sum(n for t, (n, _) in hits.items() if t in source_terminals)
    enter_cycle = sum(n for t, (n, _) in hits.items() if t in extra_cycle)
    assert reach_source and enter_cycle
    # b' enters too (via a b), but b comes first in the word order
    first = [least for t, (_, least) in hits.items() if t in extra_cycle]
    assert min(first, key=lambda w: w.sort_key()) == B

    fam = moduli.FAMILIES["quater"]()
    expected = {one: F14, A: F512, A * ~B * A: F512, ~A * B: F512}
    expected.update({w: F34 for w in extra_cycle})
    for w, label in expected.items():
        assert moduli.classify_numeric(fam, w) == label, str(w)
    _report(
        12,
        f"three-attractor claim refuted: {enter_cycle} orbits, shortest "
        f"b, enter the f_3/4 cycle b -> (ab)^-1 -> a^2",
    )


def test_criterion_12_corrected_orbits_and_printed_nuclei():
    terminals = set()
    for term, _ in preperiod2.TERMINAL_LABELS:
        terminals |= term
    start = time.monotonic()
    hits, misses = _quater_orbit_hits(frozenset(terminals))
    if misses:
        raise AssertionError(f"orbit of {misses[0]} did not land in 64 steps")
    count = sum(n for n, _ in hits.values())
    orbit_time = time.monotonic() - start

    from twistclass.selfsim import action_equal

    diagrams = {}
    for v in preperiod2.VARIANTS:
        rec = preperiod2.quater_recursion(v)
        computed = nucleus(rec, rec.alphabet.gens(), up_to_action=True)
        printed = preperiod2.printed_nucleus(v)
        reps = []
        for p in sorted(printed, key=lambda x: x.sort_key()):
            if not any(action_equal(rec, p, r) for r in reps):
                reps.append(p)
        assert len(computed) == len(reps), v
        for p in reps:
            assert sum(1 for c in computed if action_equal(rec, p, c)) == 1, (v, str(p))
        diagrams[v] = moore_diagram(rec, computed)
    for x in preperiod2.VARIANTS:
        for y in preperiod2.VARIANTS:
            assert automata_distinct(diagrams[x], diagrams[y]) == (x != y)
    _report(
        12,
        f"corrected terminals: {count} orbits in {orbit_time:.1f}s; "
        f"3 printed nuclei exact and pairwise distinct",
    )


def test_criterion_13_moduli_numerics():
    printed = {
        "rabbit": [0.8774 + 0.7449j, 0.8774 - 0.7449j, -0.7549 + 0j],
        "i": [2j, -2j, 1 + 0j],
        "quater": [-0.6478 + 1.7214j, -0.6478 - 1.7214j, 0.2956 + 0j],
    }
    for name, factory in moduli.FAMILIES.items():
        fam = factory()
        for value in printed[name]:
            assert min(abs(p - value) for p, _ in fam.fixed_points) < 1e-3
        for p, _ in fam.fixed_points:
            assert abs(fam.formula(p) - p) < 1e-9

    assert moduli.half_plane_contraction(moduli.ZETA) == moduli.ZETA

    fam = moduli.rabbit_family()
    T = fam.alphabet.gen("T")
    assert moduli.classify_numeric(fam, T, max_lifts=200) == AIRPLANE
    assert moduli.classify_numeric(fam, ~T, max_lifts=200) == CORABBIT

    start = time.monotonic()
    count = 0
    for w in reduced_words(fam.alphabet, 3, include_identity=False):
        assert moduli.classify_numeric(fam, w) == rabbit.classify_mcg(w), str(w)
        count += 1
    elapsed = time.monotonic() - start
    assert count >= 48
    _report(13, f"fixed points exact; {count} words agree in {elapsed:.1f}s")


def test_criterion_14_lift_anchor():
    fam = moduli.i_family()
    end = moduli.lift_path(fam, moduli.loop_around(fam, "a").points, 2j)[-1]
    assert abs(end - (4 - 2j) / 5) < 1e-6
    _report(14, f"endpoint error {abs(end - (4 - 2j) / 5):.2e}")
