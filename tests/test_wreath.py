import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_word, reduced_words
from twistclass import cli, periodic2, preperiod2, rabbit
from twistclass.labels import Diverged, obstructed
from twistclass.rabbit import (
    ADDING_MACHINE,
    MCG,
    PI1,
    mcg_recursion,
    mcg_word_action,
    rabbit_recursion,
    twisted_rabbit_recursion,
)
from twistclass.periodic2 import moduli_i_recursion, MODULI
from twistclass.preperiod2 import TERMINAL_LABELS, moduli_q_recursion, psi_bar_q
from twistclass.words import Endo
from twistclass.wreath import (
    BLOCK,
    MAX_ITERS,
    Recursion,
    WreathElem,
    act,
    coordinate_step,
    iterate_to_terminal,
    phi_apply,
    restrict,
    substitute_recursion,
    twist_recursion,
    _walk,
)

AL, BE, GA = PI1.gens()
T, S = MCG.gens()
A, B = MODULI.gens()


def test_sigma_swap_rule():
    g = WreathElem(AL, BE, False)
    sigma = WreathElem(PI1.identity(), PI1.identity(), True)
    assert sigma * g == WreathElem(BE, AL, True)


def test_inverse():
    g = WreathElem(AL, BE, True)
    assert (g * ~g).is_identity
    assert (~g * g).is_identity


def test_rabbit_adding_machine_image():
    rec = rabbit_recursion("R")
    assert phi_apply(rec, ADDING_MACHINE) == WreathElem(
        PI1.identity(), ADDING_MACHINE, True
    )


def test_mcg_square_of_t():
    rec = mcg_recursion()
    assert phi_apply(rec, T * T) == WreathElem(~S * ~T, ~S * ~T, False)


def test_moduli_i_a_squared_is_identity():
    rec = moduli_i_recursion()
    assert phi_apply(rec, A * A).is_identity


def test_phi_apply_is_homomorphism():
    rec = rabbit_recursion("R")
    rng = random.Random(2)
    for _ in range(60):
        u = random_word(PI1, rng.randrange(20), rng)
        v = random_word(PI1, rng.randrange(20), rng)
        assert phi_apply(rec, u * v) == phi_apply(rec, u) * phi_apply(rec, v)


def test_phi_apply_missing_generator():
    rec = mcg_recursion()
    with pytest.raises(Exception):
        phi_apply(rec, AL)


def test_restrict_examples():
    assert restrict(mcg_recursion(), T, "0").is_identity
    assert restrict(moduli_i_recursion(), B, "1") == B
    w = random_word(PI1, 6, random.Random(1))
    assert restrict(rabbit_recursion("R"), w, "") == w


def test_restriction_cocycle_identity():
    rec = rabbit_recursion("R")
    rng = random.Random(9)
    vertices = [
        format(k, f"0{n}b") for n in range(1, 7) for k in range(2 ** n)
    ]
    for _ in range(6):
        u = random_word(PI1, rng.randrange(8), rng)
        v = random_word(PI1, rng.randrange(8), rng)
        for vert in vertices:
            lhs = restrict(rec, u * v, vert)
            rhs = restrict(rec, u, vert) * restrict(rec, v, act(rec, u, vert))
            assert lhs == rhs


def test_act_examples():
    rec = rabbit_recursion("R")
    assert act(rec, ADDING_MACHINE, "00") == "10"
    assert act(moduli_i_recursion(), A, "0") == "1"
    assert act(rec, PI1.identity(), "0110") == "0110"


def test_adding_machine_is_binary_odometer():
    rec = rabbit_recursion("R")
    for n in range(1, 9):
        for k in range(2 ** n):
            v = format(k, f"0{n}b")[::-1]  # least significant bit first
            image = act(rec, ADDING_MACHINE, v)
            expect = format((k + 1) % 2 ** n, f"0{n}b")[::-1]
            assert image == expect


def test_act_is_bijective_per_level():
    rec = rabbit_recursion("R")
    rng = random.Random(21)
    words = [random_word(PI1, rng.randrange(1, 8), rng) for _ in range(4)]
    for w in words:
        for n in range(1, 9):
            vs = [format(k, f"0{n}b") for k in range(2 ** n)]
            images = {act(rec, w, v) for v in vs}
            assert len(images) == 2 ** n


def test_twist_by_identity_keeps_table():
    base = rabbit_recursion("R")
    assert twist_recursion(base, Endo.identity(PI1)).table == base.table


def test_twisted_rabbit_tables():
    assert twisted_rabbit_recursion(0).table == rabbit_recursion("R").table
    m1 = dict(twisted_rabbit_recursion(1).table)
    assert m1["gamma"] == WreathElem(
        BE.conjugate(~AL * ~BE), PI1.identity(), False
    )
    assert m1["beta"] == WreathElem(
        AL.conjugate(~AL * ~BE), PI1.identity(), False
    )
    mm1 = twisted_rabbit_recursion(-1)
    assert dict(mm1.table)["beta"] == WreathElem(
        AL.conjugate(BE * AL), PI1.identity(), False
    )
    assert mm1.table == rabbit_recursion("C").table


def test_twist_preserves_adding_machine():
    for m in (-3, -1, 0, 1, 2, 5):
        assert twisted_rabbit_recursion(m).adding_machine == ADDING_MACHINE


def test_substitute_recursion_telescopes():
    base = rabbit_recursion("R")
    e = mcg_word_action(T)
    sub = substitute_recursion(base, e)
    rng = random.Random(31)
    for _ in range(30):
        w = random_word(PI1, rng.randrange(10), rng)
        assert phi_apply(sub, w) == phi_apply(base, e(w))


def test_recursion_validates_adding_machine():
    one = MCG.identity()
    with pytest.raises(ValueError):
        Recursion.make(
            MCG,
            {"T": WreathElem(one, ~S * ~T, True), "S": WreathElem(T, one)},
            adding_machine=T,
        )


def test_recursion_requires_total_table():
    with pytest.raises(ValueError):
        Recursion(MCG, (("T", WreathElem(MCG.identity(), MCG.identity(), True)),))


def test_act_rejects_bad_vertex():
    with pytest.raises(ValueError):
        act(rabbit_recursion("R"), ADDING_MACHINE, "02")


def test_coordinate_step_matches_the_parity_corrected_restrictions():
    # a is the only active generator of both moduli recursions, so a word is
    # active exactly when it has an odd number of a letters, and then its
    # corrected coordinate is a times the coordinate of w a (i) or w a' (q)
    rec_i, rec_q = moduli_i_recursion(), moduli_q_recursion()
    for w in reduced_words(MODULI, 5):
        odd = w.exponent_sum("a") % 2 == 1
        want_i = A * restrict(rec_i, w * A, "1") if odd else restrict(rec_i, w, "1")
        want_q = A * restrict(rec_q, w * ~A, "0") if odd else restrict(rec_q, w, "0")
        assert coordinate_step(rec_i, 1, A, w) == want_i, str(w)
        assert coordinate_step(rec_q, 0, A, w) == want_q, str(w)


def test_iterate_to_terminal_stops_at_a_non_terminal_cycle():
    # without its f_3/4 entry the table leaves the cycle b -> (ab)^-1 -> a^2
    # non-terminal; the loop gives up at the first revisit, not the budget
    visited = []

    def step(w):
        visited.append(w)
        return psi_bar_q(w)

    stop = {t: label for ts, label in TERMINAL_LABELS[:3] for t in ts}.get
    with pytest.raises(Diverged, match="cycle"):
        iterate_to_terminal(step, stop, B, 64)
    assert visited == [B, ~B * ~A, A * A]


def reduced_random_word(alphabet, length, rng):
    """A seeded reduced word of ``length`` letters, built in one call."""
    letters = []
    while len(letters) < length:
        name, sign = rng.choice(alphabet.names), rng.choice((1, -1))
        if not letters or letters[-1] != (name, -sign):
            letters.append((name, sign))
    return alphabet.word(letters)


#: steps within which every probe below must end; ``MAX_ITERS`` allows 32
#: times more
ORBIT_STEPS = 32


def test_long_orbits_end_far_inside_the_step_budget():
    # a step about halves a twist word, so 10,000 letters need about
    # log2(10,000) ~ 13 steps; each classifier gives up past ORBIT_STEPS
    assert 32 * ORBIT_STEPS <= MAX_ITERS
    rng = random.Random(28)
    for _ in range(3):
        rabbit.classify_mcg(reduced_random_word(MCG, 10_000, rng), ORBIT_STEPS)
        preperiod2.classify_quater(
            reduced_random_word(MODULI, 10_000, rng), ORBIT_STEPS
        )
    # the z^2+i split runs no orbit, so draw until three words run one
    obstructed_words = 0
    while obstructed_words < 3:
        w = reduced_random_word(MODULI, 10_000, rng)
        label = periodic2.classify_full(w, iter_max=ORBIT_STEPS)
        obstructed_words += label.kind == "obstructed"
    assert rabbit.classify_mcg(T ** 5000, ORBIT_STEPS) == rabbit.classify_twist_power(5000)
    rabbit.classify_mcg((S * T) ** 2500, ORBIT_STEPS)
    preperiod2.classify_quater(A ** 5000, ORBIT_STEPS)
    preperiod2.classify_quater(B ** 5000, ORBIT_STEPS)
    assert periodic2.classify_full(A * B ** 5000, iter_max=ORBIT_STEPS) == obstructed(5000)


#: every built-in recursion, and the three the iterators walk, whose block
#: tables the other tests leave warm
WALKED = {name: factory() for name, (factory, _) in cli.RECURSIONS.items()} | {
    "psi_bar": rabbit._MCG_REC,
    "phi_bar": periodic2._MODULI_REC,
    "psi_bar_q": preperiod2._MODULI_REC,
}


def letter_by_letter(rec, letters, x):
    """Coordinate ``x`` and activity of the image of ``letters``, multiplied
    out one letter's table image at a time."""
    table = dict(rec.table)
    one = rec.alphabet.identity()
    image = WreathElem(one, one)
    for name, sign in letters:
        image = image * (table[name] if sign > 0 else ~table[name])
    return list((image.c0, image.c1)[x].letters), int(image.active)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(sorted(WALKED)),
    st.integers(0, 1),
    st.integers(0, 4 * BLOCK + 3) | st.just(500),
    st.randoms(use_true_random=False),
)
def test_block_walk_equals_the_letter_walk(name, x, length, rng):
    rec = WALKED[name]
    letters = reduced_random_word(rec.alphabet, length, rng).letters
    want = letter_by_letter(rec, letters, x)
    # a copy starts with an empty block table, walks it cold, then warm
    copy = dataclasses.replace(rec)
    assert copy._by_block == {}
    for walked in (copy, copy, rec):
        assert _walk(walked, letters, x) == want
        assert _walk(walked, list(letters), x) == want
    # a reduced word holds only reduced blocks
    k = 2 * len(rec.alphabet.names)
    assert len(copy._by_block) <= k * (k - 1) ** (BLOCK - 1)
