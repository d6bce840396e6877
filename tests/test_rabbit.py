import random

import pytest

from conftest import psi_bar_cycles, random_word
from twistclass.labels import AIRPLANE, CORABBIT, RABBIT
from twistclass.moduli import classify_numeric, quater_family, rabbit_family
from twistclass.preperiod2 import TERMINAL_LABELS as QUATER_TERMINAL_LABELS
from twistclass.preperiod2 import psi_bar_q
from twistclass.rabbit import (
    ADDING_MACHINE,
    MCG,
    PI1,
    TERMINAL_LABELS,
    classify_mcg,
    classify_st_power,
    classify_twist_power,
    four_adic_digits,
    mcg_recursion,
    mcg_word_action,
    psi_bar,
    rabbit_recursion,
    twisted_mcg_recursion,
    twisted_rabbit_recursion,
    VARIANTS,
)
from twistclass.selfsim import automata_distinct, moore_diagram, nucleus
from twistclass.wreath import WreathElem, phi_apply

AL, BE, GA = PI1.gens()
T, S = MCG.gens()
ONE = PI1.identity()


def test_recursion_tables_match_source():
    r = dict(rabbit_recursion("R").table)
    assert r["alpha"] == WreathElem(~AL * ~BE, GA * BE * AL, True)
    assert r["beta"] == WreathElem(AL, ONE)
    assert r["gamma"] == WreathElem(BE, ONE)
    a = dict(rabbit_recursion("A").table)
    assert a["alpha"] == WreathElem(~AL, GA * AL, True)
    assert a["gamma"] == WreathElem(ONE, BE.conjugate(~GA))
    c = dict(rabbit_recursion("C").table)
    assert c["beta"] == WreathElem(AL.conjugate(BE * AL), ONE)
    assert c["gamma"] == WreathElem(BE.conjugate(AL), ONE)


def test_all_variants_share_the_adding_machine():
    for v in ("R", "A", "C"):
        assert rabbit_recursion(v).adding_machine == ADDING_MACHINE


def test_unknown_variant():
    with pytest.raises(ValueError):
        rabbit_recursion("X")


def test_psi_bar_generator_values():
    assert psi_bar(S) == T
    assert psi_bar(T * T) == ~S * ~T
    assert psi_bar(T) == T
    assert psi_bar(S.conjugate(T)).is_identity
    assert psi_bar(MCG.identity()).is_identity


def test_psi_bar_st_power_formulas():
    # one iterator step on (ST)^2m is the T-conjugated inverse twist power,
    # and on (ST)^(2m+1) the square twist times it
    st = S * T
    for m in range(1, 5):
        assert psi_bar(st ** (2 * m)) == (S ** -m).conjugate(~T)
        assert psi_bar(st ** (2 * m + 1)) == T * T * S ** -m
    assert psi_bar(st) == T * T


@pytest.mark.parametrize(
    "step, terminals, family",
    [
        pytest.param(psi_bar, TERMINAL_LABELS, rabbit_family, id="rabbit"),
        pytest.param(psi_bar_q, QUATER_TERMINAL_LABELS, quater_family, id="quater"),
    ],
)
def test_terminal_table_is_the_set_of_psi_bar_cycles(step, terminals, family):
    # the table is typed by hand; every cycle of the iterator on short words
    # must be a terminal, every terminal a cycle, and each cycle's label the
    # numeric lift's label of its shortest word
    fam = family()
    assert psi_bar_cycles(step, fam.alphabet, 8) == {ts for ts, _ in terminals}
    for ts, label in terminals:
        shortest = min(ts, key=lambda w: w.sort_key())
        assert classify_numeric(fam, shortest) == label, str(shortest)


def test_classify_anchors():
    assert classify_mcg(MCG.identity()) == RABBIT
    assert classify_mcg(T) == AIRPLANE
    assert classify_mcg(~T) == CORABBIT
    assert classify_mcg(S) == AIRPLANE
    assert classify_mcg(T * T * S) == CORABBIT
    assert classify_mcg(~S) == CORABBIT


def test_four_adic_digits():
    assert four_adic_digits(0) == [0]
    assert four_adic_digits(5) == [1, 1]
    assert four_adic_digits(12) == [0, 3]
    assert four_adic_digits(-1) == [3]
    assert four_adic_digits(-4) == [0]


def test_twist_power_anchors():
    assert classify_twist_power(0) == RABBIT
    assert classify_twist_power(-1) == CORABBIT
    assert classify_twist_power(-4) == CORABBIT
    assert classify_twist_power(1) == AIRPLANE
    assert classify_twist_power(2) == AIRPLANE
    assert classify_twist_power(5) == AIRPLANE
    assert classify_twist_power(12) == RABBIT
    assert classify_twist_power(48) == RABBIT


def test_twist_power_matches_iteration_small_range():
    for m in range(-128, 129):
        assert classify_twist_power(m) == classify_mcg(T ** m), m


@pytest.mark.parametrize(
    "m, label",
    [(65535, RABBIT), (-65536, CORABBIT), (100000, AIRPLANE), (-99999, AIRPLANE)],
)
def test_twist_power_matches_iteration_at_the_parse_cap(m, label):
    # words as long as the parser admits, walked a block at a time
    assert classify_mcg(T ** m) == classify_twist_power(m) == label


def test_iterated_psi_bar_shrinks_twist_powers():
    for k in range(-16, 17):
        w = T ** (4 * k)
        for _ in range(3):
            w = psi_bar(w)
        assert w == T ** k


def test_classification_ignores_lifted_kernel_twist():
    # S^T maps to the identity under the lift, so twisting by it before g
    # never moves the class
    st = S.conjugate(T)
    rng = random.Random(77)
    for _ in range(20):
        g = random_word(MCG, rng.randrange(8), rng)
        assert classify_mcg(st * g) == classify_mcg(g)
        assert psi_bar(st * g) == psi_bar(g)


def test_st_power_classification():
    expected = {
        -4: RABBIT, -3: RABBIT, -2: RABBIT, -1: CORABBIT,
        0: RABBIT, 1: AIRPLANE, 2: RABBIT, 3: AIRPLANE, 4: RABBIT,
    }
    for m, label in expected.items():
        assert classify_st_power(m) == label, m


def test_st_squared_twists_are_rabbits():
    # the iterator sends the square of (ST) powers back to rabbits
    for m in range(0, 9, 2):
        assert classify_st_power(m) == RABBIT


def test_nuclei_pairwise_distinct_under_small_bounds():
    diagrams = {}
    for v in ("R", "A", "C"):
        rec = rabbit_recursion(v)
        n = nucleus(rec, PI1.gens(), 200)
        diagrams[v] = moore_diagram(rec, n)
    assert nucleus(mcg_recursion(), MCG.gens(), 100)
    for x in diagrams:
        for y in diagrams:
            assert automata_distinct(diagrams[x], diagrams[y]) == (x != y)


def test_variant_labels():
    assert VARIANTS == {"R": RABBIT, "A": AIRPLANE, "C": CORABBIT}
    assert list(VARIANTS) == ["R", "A", "C"]


def test_twisted_recursion_classification_consistency():
    # the twisted table for m = 1 is the one the airplane conjugation is
    # built from; its adding machine survives and phi extends it
    rec = twisted_rabbit_recursion(1)
    assert phi_apply(rec, ADDING_MACHINE) == WreathElem(ONE, ADDING_MACHINE, True)


def test_classify_rejects_wrong_alphabet():
    with pytest.raises(ValueError):
        classify_mcg(AL)


def test_twisted_recursions_have_the_classified_nucleus():
    # end to end: the twisted table's group of tree actions is the group of
    # the variant the arithmetic classifier names
    variant_diagrams = {}
    for v in ("R", "A", "C"):
        rec = rabbit_recursion(v)
        variant_diagrams[VARIANTS[v]] = moore_diagram(
            rec, nucleus(rec, PI1.gens(), 200, up_to_action=True)
        )
    for m in range(-4, 6):
        rec = twisted_rabbit_recursion(m)
        d = moore_diagram(rec, nucleus(rec, PI1.gens(), 5000, up_to_action=True))
        hits = [
            lbl for lbl, diag in variant_diagrams.items()
            if not automata_distinct(diag, d)
        ]
        assert hits == [classify_twist_power(m)], m


def test_word_twisted_recursions_have_the_classified_nucleus():
    variant_diagrams = {}
    for v in ("R", "A", "C"):
        rec = rabbit_recursion(v)
        variant_diagrams[VARIANTS[v]] = moore_diagram(
            rec, nucleus(rec, PI1.gens(), 200, up_to_action=True)
        )
    for text in ("T S", "T' S", "S T T", "S' T'", "T T S'", "S' S' T"):
        g = MCG.parse(text)
        rec = twisted_mcg_recursion(g)
        d = moore_diagram(rec, nucleus(rec, PI1.gens(), 20000, up_to_action=True))
        hits = [
            lbl for lbl, diag in variant_diagrams.items()
            if not automata_distinct(diag, d)
        ]
        assert hits == [classify_mcg(g)], text


def test_word_action_matches_power_twists():
    T = MCG.gen("T")
    for m in range(-16, 17):
        assert twisted_mcg_recursion(T ** m).table == twisted_rabbit_recursion(m).table


def test_word_action_fixes_circle_word():
    import random
    from conftest import random_word

    rng = random.Random(55)
    for _ in range(10):
        g = random_word(MCG, rng.randrange(6), rng)
        assert mcg_word_action(g)(ADDING_MACHINE) == ADDING_MACHINE
