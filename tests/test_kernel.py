"""The word kernel's fast paths against their definitions.

Products, inverses, powers, endomorphism images and the one-coordinate
iterator walk build their results without re-validating them.  Each is
checked here against a plain reduce-everything or wreath-product reference,
and every result must pass the validating constructor unchanged.  Affine
images of twist words and the shared kernel tests of the obstructed-index
scan are checked against the letter-by-letter composite and fresh
word-problem runs.
"""

from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistclass import periodic2, preperiod2, rabbit
from twistclass.labels import AlphabetMismatch, BoundExceeded, Diverged
from twistclass.selfsim import _cyclic_core, _KernelTest, is_kernel_element
from twistclass.words import AB, MCG, PI1, Endo, GenWord, _reduce
from twistclass.wreath import WreathElem, act, coordinate_step, phi_apply, restrict

ALPHABETS = [MCG, AB, PI1]

RECURSIONS = {
    "mcg": rabbit.mcg_recursion(),
    "moduli-i": periodic2.moduli_i_recursion(),
    "moduli-q": preperiod2.moduli_q_recursion(),
    "rabbit": rabbit.rabbit_recursion("R"),
}


def words(alphabet, max_size=12):
    letters = st.sampled_from([(n, s) for n in alphabet.names for s in (1, -1)])
    return st.lists(letters, max_size=max_size).map(alphabet.word)


def word_pairs(max_size=12):
    return st.sampled_from(ALPHABETS).flatmap(
        lambda a: st.tuples(words(a, max_size), words(a, max_size))
    )


def recursion_words(max_size=10):
    return st.sampled_from(sorted(RECURSIONS)).flatmap(
        lambda name: st.tuples(
            st.just(RECURSIONS[name]), words(RECURSIONS[name].alphabet, max_size)
        )
    )


vertices = st.text(alphabet="01", max_size=4)


def assert_valid(w: GenWord) -> None:
    again = GenWord(w.alphabet, w.letters)
    assert again == w
    assert hash(again) == hash(w)
    assert all(isinstance(n, str) and s in (1, -1) for n, s in w.letters)


def phi_reference(rec, w: GenWord) -> WreathElem:
    """Image of ``w`` as the product of its letters' table entries."""
    factors = [
        rec.entry(n) if s > 0 else ~rec.entry(n) for n, s in w.letters
    ]
    return reduce(WreathElem.__mul__, factors, WreathElem.identity(rec.alphabet))


@given(word_pairs())
def test_product_cancels_like_a_full_reduction(pair):
    u, v = pair
    got = u * v
    assert got == GenWord(u.alphabet, _reduce(u.letters + v.letters))
    assert_valid(got)


@given(st.sampled_from(ALPHABETS).flatmap(words))
def test_inverse_is_the_reversed_negation(w):
    got = ~w
    assert got.letters == tuple((n, -s) for n, s in reversed(w.letters))
    assert_valid(got)
    assert (w * got).is_identity


@given(st.sampled_from(ALPHABETS).flatmap(words), st.integers(-6, 6))
def test_power_matches_repeat_then_reduce(w, n):
    base = w if n >= 0 else ~w
    got = w ** n
    assert got == GenWord(w.alphabet, _reduce(base.letters * abs(n)))
    assert_valid(got)


@given(
    st.sampled_from(ALPHABETS).flatmap(lambda a: st.lists(words(a, 5), max_size=5)),
    st.integers(-3, 3),
)
def test_parse_is_the_product_of_its_factors(factors, n):
    alphabet = factors[0].alphabet if factors else MCG
    got = alphabet.parse(" ".join(f"({w})^{n}" for w in factors))
    assert got == reduce(GenWord.__mul__, [w ** n for w in factors], alphabet.identity())
    assert_valid(got)
    assert alphabet.parse(str(got)) == got


@given(st.sampled_from(ALPHABETS).flatmap(words))
def test_cyclic_core_is_a_reduced_conjugate(w):
    core = _cyclic_core(w)
    assert_valid(core)
    k = (len(w) - len(core)) // 2
    if k:
        outer = GenWord(w.alphabet, w.letters[:k])
        assert outer * core * ~outer == w
    if len(core) >= 2:
        assert core.letters[0] != (core.letters[-1][0], -core.letters[-1][1])


@given(
    st.sampled_from(ALPHABETS).flatmap(
        lambda a: st.tuples(
            st.lists(words(a, 4), min_size=len(a.names), max_size=len(a.names)),
            words(a),
        )
    )
)
def test_endo_image_matches_letterwise_substitution(case):
    images, w = case
    alphabet = w.alphabet
    e = Endo.make(alphabet, dict(zip(alphabet.names, images)))
    raw = []
    for n, s in w.letters:
        img = e.image(n)
        raw += img.letters if s > 0 else (~img).letters
    got = e(w)
    assert got == GenWord(alphabet, _reduce(raw))
    assert_valid(got)


@given(recursion_words())
def test_phi_apply_is_the_product_of_table_entries(case):
    rec, w = case
    got = phi_apply(rec, w)
    assert got == phi_reference(rec, w)
    assert_valid(got.c0)
    assert_valid(got.c1)


@given(recursion_words(), vertices)
def test_restrict_matches_the_two_coordinate_form(case, v):
    rec, w = case
    want = w
    for ch in v:
        want = phi_reference(rec, want).coord(int(ch))
    got = restrict(rec, w, v)
    assert got == want
    assert_valid(got)


@given(recursion_words(), vertices)
def test_act_matches_the_two_coordinate_form(case, v):
    rec, w = case
    out, cur = [], w
    for ch in v:
        elem = phi_reference(rec, cur)
        out.append(str(1 - int(ch) if elem.active else int(ch)))
        cur = elem.coord(int(ch))
    assert act(rec, w, v) == "".join(out)


@settings(max_examples=200)
@given(recursion_words(), st.integers(0, 1))
def test_coordinate_step_matches_the_two_coordinate_form(case, x):
    rec, w = case
    correction = rec.alphabet.gens()[0]
    elem = phi_reference(rec, w)
    want = correction * elem.coord(x) if elem.active else elem.coord(x)
    got = coordinate_step(rec, x, correction, w)
    assert got == want
    assert_valid(got)


def test_family_steps_are_coordinate_steps():
    w = AB.parse("a b' a a b")
    assert preperiod2.psi_bar_q(w) == coordinate_step(
        RECURSIONS["moduli-q"], 0, AB.gen("a"), w
    )
    assert periodic2.phi_bar(w) == coordinate_step(
        RECURSIONS["moduli-i"], 1, AB.gen("a"), w
    )
    t = MCG.parse("T S' T^3")
    assert rabbit.psi_bar(t) == coordinate_step(RECURSIONS["mcg"], 0, MCG.gen("T"), t)


def test_walks_reject_a_foreign_alphabet():
    rec = RECURSIONS["moduli-q"]
    t = MCG.gen("T")
    with pytest.raises(AlphabetMismatch):
        coordinate_step(rec, 0, AB.gen("a"), t)
    with pytest.raises(AlphabetMismatch):
        restrict(rec, t, "0")
    with pytest.raises(AlphabetMismatch):
        act(rec, t, "0")
    with pytest.raises(AlphabetMismatch):
        phi_apply(rec, t)


def test_public_constructors_still_validate():
    with pytest.raises(ValueError):
        AB.gen("a", 2)
    with pytest.raises(AlphabetMismatch):
        AB.gen("T")
    with pytest.raises(AlphabetMismatch):
        AB.word([("a", 1), ("T", 1)])
    with pytest.raises(ValueError):
        AB.word([("a", 0)])
    with pytest.raises(AlphabetMismatch):
        GenWord(AB, (("T", 1),))
    with pytest.raises(ValueError):
        GenWord(AB, (("a", 1), ("a", -1)))
    with pytest.raises(ValueError):
        GenWord(AB, (("b", 3),))
    with pytest.raises(AlphabetMismatch):
        AB.gen("a") * MCG.gen("T")


def test_family_alphabets_are_shared():
    from twistclass import moduli

    assert rabbit.MCG is MCG
    assert periodic2.MODULI is AB
    assert preperiod2.MODULI is AB
    assert moduli.rabbit_family().alphabet is MCG
    assert moduli.i_family().alphabet is AB
    assert moduli.quater_family().alphabet is AB


@given(words(AB, 40))
def test_affine_image_is_the_composite_of_letter_images(w):
    images = [periodic2._PI_IMAGES[letter] for letter in w.letters]
    want = reduce(periodic2.AffineMap.compose, images, periodic2.AffineMap.identity())
    assert periodic2.affine_image(w) == want


A, B = AB.gens()
KERNEL_SEEDS = [AB.identity(), A * A, (A * B) ** 4, B ** 4, A * B]


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(
        words(AB, 8), st.sampled_from(KERNEL_SEEDS), words(AB, 4), st.integers(-6, 6)
    ),
    min_size=1, max_size=12,
))
def test_shared_kernel_test_agrees_with_fresh_runs(cases):
    rec = RECURSIONS["moduli-i"]
    shared = _KernelTest(rec)
    for u, k, v, m in cases:
        w = u * k * ~u * v * B ** m
        assert shared(w) == is_kernel_element(rec, w)
    # every verdict the shared test keeps for later words is right
    for state, member in shared._member.items():
        assert member == is_kernel_element(rec, state)


def test_shared_kernel_test_reuses_decided_states():
    # the first word escapes the kernel through the loop at b^4 below its
    # root, the second reaches b^4; the third leaves a' a' inside the
    # kernel, and the fourth reaches a' a'
    rec = RECURSIONS["moduli-i"]
    shared = _KernelTest(rec)
    cases = [
        AB.parse("a b^4 a"), AB.parse("b^2 a^-2 b^2"), (A * B) ** 4, A * A * (A * B) ** 4,
    ]
    assert [shared(w) for w in cases] == [False, False, True, True]
    assert shared._member[B ** 4] is False
    assert shared._member[A ** -2] is True
    for state, member in shared._member.items():
        assert member == is_kernel_element(rec, state)


def obstructed_index_reference(w, k_max, iter_max):
    """The obstructed-index scan with a fresh word problem per candidate."""
    cur = w
    for _ in range(iter_max):
        exp = periodic2._pure_b_exponent(cur)
        if exp is not None and abs(exp) > k_max:
            raise BoundExceeded(exp)
        for n in periodic2._candidate_indices(cur, k_max):
            if periodic2.gx_equal(cur, B ** n):
                return n
        cur = periodic2.phi_bar(cur)
    raise Diverged(iter_max)


def outcome(call, *args):
    try:
        return call(*args)
    except (BoundExceeded, Diverged) as exc:
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(words(AB, 24), st.integers(4, 24))
def test_obstructed_index_matches_the_unshared_scan(w, k_max):
    want = outcome(obstructed_index_reference, w, k_max, 64)
    assert outcome(periodic2.obstructed_index, w, k_max, 64) == want
