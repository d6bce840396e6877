import random

import pytest

from conftest import random_word, reduced_words
from twistclass import periodic2
from twistclass.labels import F_MINUS_I, FI, Diverged, obstructed
from twistclass.periodic2 import (
    MODULI,
    PI1,
    AffineMap,
    a_pi1_action,
    affine_image,
    classify_full,
    classify_mod5,
    fi_recursion,
    fstar_recursion,
    gx_equal,
    moduli_i_recursion,
    obstructed_index,
    phi_bar,
    q_image,
)
from twistclass.selfsim import is_trivial_action
from twistclass.wreath import WreathElem, restrict

AL, BE, GA = PI1.gens()
A, B = MODULI.gens()
ONE = MODULI.identity()


# --- exact arithmetic ----------------------------------------------------------

def test_affine_composition_convention():
    # (k1,c1) after (k2,c2): rotation adds, translation twists by i^k1
    m = AffineMap(1, 2, 0).compose(AffineMap(2, 0, 1))
    assert m == AffineMap(3, 1, 0)  # 2 + i * i
    ident = AffineMap.identity()
    rnd = AffineMap(3, -4, 7)
    assert rnd.compose(rnd.inverse()) == ident
    assert rnd.inverse().compose(rnd) == ident


def test_split_congruences_are_gaussian_divisibility():
    # x + yi is divisible by d when (x + yi) * conj(d) has both parts
    # divisible by the norm 5 of d
    def divisible(x, y, d_re, d_im):
        return (x * d_re + y * d_im) % 5 == 0 and (y * d_re - x * d_im) % 5 == 0

    for x in range(-12, 13):
        for y in range(-12, 13):
            assert ((x - 2 * y) % 5 == 0) == divisible(x, y, 2, 1), (x, y)
            assert ((x + 2 * y) % 5 == 0) == divisible(x, y, 1, 2), (x, y)
    # and classify_mod5 splits by the long way on c - 1 - i
    for w in reduced_words(MODULI, 5):
        m = affine_image(w)
        x, y = m.re - 1, m.im - 1
        if m.k == 0 and not divisible(x, y, 2, 1):
            want = FI
        elif m.k == 1 and not divisible(x, y, 1, 2):
            want = F_MINUS_I
        else:
            want = obstructed()
        assert classify_mod5(w) == want, str(w)


# --- the affine image ------------------------------------------------------------

def test_affine_images_of_generators():
    assert affine_image(ONE) == AffineMap.identity()
    assert affine_image(A) == AffineMap(2, 1, 0)
    assert affine_image(B) == AffineMap(1, 1, -1)
    assert affine_image(A * B) == AffineMap(3, 0, 1)


def test_affine_image_is_antihomomorphic_on_letters():
    # left-composition convention: the rightmost letter acts first
    rng = random.Random(5)
    for _ in range(40):
        u = random_word(MODULI, rng.randrange(8), rng)
        v = random_word(MODULI, rng.randrange(8), rng)
        assert affine_image(u * v) == affine_image(u).compose(affine_image(v))


def test_q_image():
    assert q_image(ONE) == (0, 0, 0)
    assert q_image(A) == (2, 1, 0)
    assert q_image(B) == (1, 1, 4)


def test_q_has_order_100():
    seen = {(0, 0, 0)}
    frontier = [AffineMap.identity()]
    gens = [affine_image(w) for w in (A, B, ~A, ~B)]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                m2 = m.compose(g)
                q = (m2.k, m2.re % 5, m2.im % 5)
                if q not in seen:
                    seen.add(q)
                    nxt.append(m2)
        frontier = nxt
    assert len(seen) == 100


# --- recursions -------------------------------------------------------------------

def test_fi_table():
    r = fi_recursion()
    table = dict(r.table)
    assert table["alpha"] == WreathElem(~AL * ~BE, BE * AL, True)
    assert table["beta"] == WreathElem(AL, GA)
    assert table["gamma"] == WreathElem(BE, PI1.identity())
    assert r.adding_machine == GA * BE * AL


def test_fstar_table():
    # fstar_recursion() is f_i post-twisted by a; this is the printed table
    r = fstar_recursion()
    table = dict(r.table)
    assert table["alpha"] == WreathElem(~AL, AL, True)
    assert table["beta"] == WreathElem(AL, GA)
    assert table["gamma"] == WreathElem(PI1.identity(), GA * BE * ~GA)
    assert r.adding_machine == GA * BE * AL


def test_a_action_fixes_circle_word():
    e = a_pi1_action()
    am = GA * BE * AL
    assert e(am) == am
    assert e(BE) == BE


def test_involutions_and_commutation_in_fstar():
    rec = fstar_recursion()
    for g in (AL, BE, GA):
        assert is_trivial_action(rec, g * g, 10000)
    assert is_trivial_action(rec, BE * GA * ~BE * ~GA, 10000)
    assert not is_trivial_action(rec, BE * GA, 10000)


# --- the obstructed machinery -----------------------------------------------------

def test_phi_bar_values():
    assert phi_bar(B) == B
    assert phi_bar(A * A).is_identity
    assert phi_bar(A) == A
    assert phi_bar(B.conjugate(A)) == ~B * ~A


def test_gx_equal_examples():
    assert gx_equal((A * B) ** 4, ONE)
    assert not gx_equal(B ** 4, ONE)
    b4 = B ** 4
    assert gx_equal(b4 * b4.conjugate(A * B), b4.conjugate(A * B) * b4)


def test_first_coordinate_map_identities():
    # images of the relators under the coordinate map, checked in the
    # obstructed-classification quotient
    rec = moduli_i_recursion()
    img = restrict(rec, (A * B) ** 4, "1")
    assert gx_equal(img, ~B * A ** -2 * B)
    img2 = restrict(rec, ~A * (A * B) ** 4 * A, "1")
    assert gx_equal(img2, A ** -2)


def test_phi_bar_fixed_points_and_cycles():
    # fixed: a and every twist power; 2-cycle ab <-> b^-a; 3-cycle
    # a^b -> b^-2a -> abab
    assert phi_bar(A) == A
    for k in range(-8, 9):
        assert gx_equal(phi_bar(B ** k), B ** k)
    ab = A * B
    b_neg_a = (~B).conjugate(A)
    assert gx_equal(phi_bar(ab), b_neg_a)
    assert gx_equal(phi_bar(b_neg_a), ab)
    a_b = A.conjugate(B)
    b_neg2a = (B ** -2).conjugate(A)
    abab = A * B * A * B
    assert gx_equal(phi_bar(a_b), b_neg2a)
    assert gx_equal(phi_bar(b_neg2a), abab)
    assert gx_equal(phi_bar(abab), a_b)


def test_obstructed_index_of_twist_powers():
    for r in range(-5, 6):
        assert obstructed_index(B ** r) == r


def test_obstructed_index_examples():
    assert obstructed_index(ONE) == 0
    assert obstructed_index(B ** 3) == 3
    assert obstructed_index(B.conjugate(A)) == 1


def test_obstructed_index_bound():
    # nothing caps the index
    assert obstructed_index(B ** 65) == 65


def test_obstructed_index_gives_up_at_the_first_revisit(monkeypatch):
    # a is a fixed point of phi_bar and no power of b, so the orbit gives up
    # at its first revisit, after one step
    visited = []

    def step(w):
        visited.append(w)
        return phi_bar(w)

    monkeypatch.setattr(periodic2, "phi_bar", step)
    with pytest.raises(Diverged, match="cycle"):
        obstructed_index(A)
    assert visited == [A]


def test_classify_full():
    assert classify_full(A) == obstructed(0)
    assert classify_full(A * B ** 5) == obstructed(5)
    assert classify_full(A * A * B) == F_MINUS_I
    assert classify_full(A * ~B * A * B) == FI
    assert classify_full(A * B.conjugate(A)) == obstructed(1)


def test_action_level_nuclei_of_the_family_recursions():
    # the word-level nuclei are infinite (generator squares act trivially);
    # over the group of tree actions both recursions are contracting
    from twistclass.selfsim import moore_diagram, nucleus

    fi = fi_recursion()
    n_fi = nucleus(fi, PI1.gens(), 20000, up_to_action=True)
    assert len(n_fi) == 8
    assert PI1.parse("gamma beta alpha") in n_fi
    fstar = fstar_recursion()
    n_fs = nucleus(fstar, PI1.gens(), 20000, up_to_action=True)
    assert len(n_fs) == 14
    d = moore_diagram(fstar, n_fs)
    assert sum(d.active) == 7
