"""The word kernel's fast paths against their definitions.

Products, inverses, powers, endomorphism images and the one-coordinate
iterator walk build their results without re-validating them.  Each is
checked here against a plain reduce-everything or wreath-product reference,
and every result must pass the validating constructor unchanged.  Affine
images of twist words are checked against the letter-by-letter composite,
kernel membership against a level-by-level walk of restrictions, and the
obstructed index, which stops on a literal power of b, against a scan that
solves a fresh kernel word problem per candidate index.
"""

from functools import cache, reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import reduced_words
from twistclass import periodic2, preperiod2, rabbit
from twistclass.labels import AlphabetMismatch, Diverged
from twistclass.selfsim import _cyclic_core, is_kernel_element
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
    table, one = dict(rec.table), rec.alphabet.identity()
    factors = [table[n] if s > 0 else ~table[n] for n, s in w.letters]
    return reduce(WreathElem.__mul__, factors, WreathElem(one, one))


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
        img = dict(e.images)[n]
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
        elem = phi_reference(rec, want)
        want = (elem.c0, elem.c1)[int(ch)]
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
        cur = (elem.c0, elem.c1)[int(ch)]
    assert act(rec, w, v) == "".join(out)


@settings(max_examples=200)
@given(recursion_words(), st.integers(0, 1))
def test_coordinate_step_matches_the_two_coordinate_form(case, x):
    rec, w = case
    correction = rec.alphabet.gens()[0]
    elem = phi_reference(rec, w)
    coord = (elem.c0, elem.c1)[x]
    want = correction * coord if elem.active else coord
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
ONE = AB.identity()
KERNEL_SEEDS = [ONE, A * A, (A * B) ** 4, B ** 4, A * B]


def kernel_reference(rec, w, depth=8):
    """Kernel membership level by level: True once a level is all empty
    words, False at the first active state, None if undecided at ``depth``."""
    level = {w}
    for _ in range(depth + 1):
        if all(g.is_identity for g in level):
            return True
        nxt = set()
        for g in level:
            elem = phi_apply(rec, g)
            if elem.active:
                return False
            nxt |= {elem.c0, elem.c1}
        level = nxt
    return None


@settings(max_examples=300, deadline=None)
@given(words(AB, 8), st.sampled_from(KERNEL_SEEDS), words(AB, 4), st.integers(-6, 6))
# a b^4 a and b^2 a^-2 b^2 reach the loop at b^4; (ab)^4 and a a (ab)^4 die
@example(ONE, ONE, AB.parse("a b^4 a"), 0)
@example(ONE, ONE, AB.parse("b^2 a^-2"), 2)
@example(ONE, (A * B) ** 4, ONE, 0)
@example(ONE, A * A, (A * B) ** 4, 0)
def test_kernel_membership_matches_the_level_walk(u, k, v, m):
    # a word still undecided at depth 8 keeps a restriction alive, which
    # the library reports as outside the kernel
    rec = RECURSIONS["moduli-i"]
    w = u * k * ~u * v * B ** m
    assert is_kernel_element(rec, w) == bool(kernel_reference(rec, w))


#: the indices the reference scans; orbits of the words drawn below, of at
#: most 24 letters, reach no index beyond it, which the reference asserts
SCAN_RANGE = 64


@cache
def scanned_index(cur):
    """The n with ``cur = b^n`` in the kernel quotient, |n| <= SCAN_RANGE,
    by a fresh kernel word problem for every index the affine image allows;
    None if there is none.  Cached, since orbits of different words merge."""
    image = periodic2.affine_image(cur)
    for n in sorted(range(-SCAN_RANGE, SCAN_RANGE + 1), key=abs):
        if periodic2.affine_image(B ** n) == image and periodic2.gx_equal(cur, B ** n):
            return n
    return None


def obstructed_index_reference(w, iter_max):
    """The obstructed index by the scan: the first orbit word equal to a
    power of b in the kernel quotient."""
    cur = w
    for _ in range(iter_max):
        exp = periodic2._pure_b_exponent(cur)
        assert exp is None or abs(exp) <= SCAN_RANGE, (w, exp)
        n = scanned_index(cur)
        if n is not None:
            return n
        cur = periodic2.phi_bar(cur)
    raise Diverged(iter_max)


def outcome(call, *args):
    try:
        return call(*args)
    except Diverged as exc:
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(words(AB, 24))
def test_obstructed_index_matches_the_unshared_scan(w):
    want = outcome(obstructed_index_reference, w, 64)
    assert outcome(periodic2.obstructed_index, w, 64) == want


def test_obstructed_index_matches_the_scan_on_every_short_word():
    for w in reduced_words(AB, 6):
        want = outcome(obstructed_index_reference, w, 64)
        assert outcome(periodic2.obstructed_index, w, 64) == want, w


def test_the_orbit_stops_on_the_literal_b_power():
    # b^3 a^2 is b^3 in the kernel quotient (a^2 = <1, 1>); the literal
    # stop test meets the word b^3 one step later
    w = B ** 3 * A * A
    assert periodic2.gx_equal(w, B ** 3)
    assert periodic2.phi_bar(w) == B ** 3
    assert periodic2.obstructed_index(w, iter_max=2) == 3
    with pytest.raises(Diverged):
        periodic2.obstructed_index(w, iter_max=1)
