import pytest

from conftest import reduced_words
from twistclass.labels import F14, F34, F512
from twistclass.rabbit import MCG
from twistclass.preperiod2 import (
    ADDING_MACHINES,
    MODULI,
    PI1,
    classify_quater,
    moduli_q_recursion,
    psi_bar_q,
    quater_recursion,
    twisted_quater_recursion,
    word_action,
    VARIANTS,
)
from twistclass.selfsim import (
    automata_distinct,
    moore_diagram,
    nucleus,
)
from twistclass.words import Endo
from twistclass.wreath import WreathElem

AL, BE, GA = PI1.gens()
A, B = MODULI.gens()
ONE = MODULI.identity()


def test_recursion_tables_match_source():
    r = dict(quater_recursion("F14").table)
    assert r["alpha"] == WreathElem(~AL * ~BE, BE * AL, True)
    assert r["beta"] == WreathElem(AL, PI1.identity())
    assert r["gamma"] == WreathElem(GA, BE)
    r = dict(quater_recursion("F34").table)
    assert r["alpha"] == WreathElem(~BE * ~AL, AL * BE, True)
    assert r["beta"] == WreathElem(PI1.identity(), AL)
    assert r["gamma"] == WreathElem(GA, BE)
    r = dict(quater_recursion("F512").table)
    assert r["alpha"] == WreathElem(~AL * ~GA, GA * AL, True)
    assert r["beta"] == WreathElem(AL, PI1.identity())
    assert r["gamma"] == WreathElem(GA.conjugate(AL), BE)


def test_adding_machines():
    assert ADDING_MACHINES == {
        "F14": BE * AL * GA,
        "F34": AL * BE * GA,
        "F512": BE * GA * AL,
    }
    for v in VARIANTS:
        assert quater_recursion(v).adding_machine == ADDING_MACHINES[v]


def test_variant_labels():
    assert VARIANTS == {"F14": F14, "F34": F34, "F512": F512}
    assert list(VARIANTS) == ["F14", "F34", "F512"]


def test_unknown_variant():
    with pytest.raises(ValueError):
        quater_recursion("F12")


def test_moduli_q_nucleus():
    got = nucleus(moduli_q_recursion(), MODULI.gens(), 100)
    expect = {ONE}
    for w in (A, B, A * B, ~A * B):
        expect.add(w)
        expect.add(~w)
    assert got == expect


def test_psi_bar_q_values():
    assert psi_bar_q(A * A) == B
    assert psi_bar_q(B) == ~B * ~A
    assert psi_bar_q(A) == A
    assert psi_bar_q(ONE).is_identity


def test_two_cycle():
    assert psi_bar_q(~A * B) == A * ~B * A
    assert psi_bar_q(A * ~B * A) == ~A * B


def test_extra_cycle_through_bare_b_twist():
    # the projection values close a third cycle through the bare b twist, so
    # the iterator has a fourth attractor beyond {1}, {a} and the 2-cycle
    assert psi_bar_q(B) == ~B * ~A
    assert psi_bar_q(~B * ~A) == A * A
    assert psi_bar_q(A * A) == B


def test_classification_anchors():
    assert classify_quater(ONE) == F14
    assert classify_quater(A) == F512
    assert classify_quater(~A) == F14
    assert classify_quater(B) == F34
    assert classify_quater(A * B) == F34
    # pinned by the nucleus oracle and the numeric classifier jointly; the
    # source text contradicts itself on this word
    assert classify_quater(~A * B) == F512
    assert classify_quater(A * ~B * A) == F512


def test_classification_constant_on_iterator_orbits():
    for w in reduced_words(MODULI, 4):
        assert classify_quater(w) == classify_quater(psi_bar_q(w))


def test_twist_actions_are_inverse_pairs():
    for g in (A, ~A, B, ~B):
        assert word_action(g).then(word_action(~g)) == Endo.identity(PI1)


def test_twist_actions_fix_the_circle_word():
    am = ADDING_MACHINES["F14"]
    for e in (
        word_action(A),
        word_action(~A),
        word_action(B),
        word_action(~B),
    ):
        assert e(am) == am


def test_word_action_composes():
    e = word_action(~A * B)
    f = word_action(~A).then(word_action(B))
    for g in PI1.gens():
        assert e(g) == f(g)


def test_calibration_against_nucleus_oracle():
    # the nucleus of each twisted recursion is the automaton of the class
    # the iterator reports
    base = {}
    for v in VARIANTS:
        rec = quater_recursion(v)
        base[VARIANTS[v]] = moore_diagram(
            rec, nucleus(rec, rec.alphabet.gens(), up_to_action=True)
        )
    for w in (A, ~A, B, ~A * B, A * B):
        label = classify_quater(w)
        rec = twisted_quater_recursion("F14", w)
        d = moore_diagram(rec, nucleus(rec, PI1.gens(), 20000, up_to_action=True))
        hits = [lbl for lbl, diag in base.items() if not automata_distinct(diag, d)]
        assert hits == [label], (str(w), [str(h) for h in hits], str(label))


def test_psi_bar_q_rejects_wrong_alphabet():
    with pytest.raises(ValueError):
        psi_bar_q(AL)


def test_word_action_rejects_wrong_alphabet():
    for w in (AL, MCG.gen("T")):
        with pytest.raises(ValueError):
            word_action(w)
