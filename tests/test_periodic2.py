import random

import pytest

from conftest import random_word
from twistclass import periodic2
from twistclass.labels import F_MINUS_I, FI, BoundExceeded, Diverged, obstructed
from twistclass.periodic2 import (
    MODULI,
    PI1,
    AffineMap,
    GaussInt,
    GI_I,
    GI_ONE,
    GI_ZERO,
    a_pi1_action,
    affine_image,
    classify_full,
    fi_recursion,
    fstar_from_twist,
    fstar_recursion,
    gx_equal,
    moduli_i_recursion,
    obstructed_index,
    phi_bar,
    q_image,
    q_reduce,
    QElem,
)
from twistclass.selfsim import is_trivial_action
from twistclass.wreath import WreathElem, restrict

AL, BE, GA = PI1.gens()
A, B = MODULI.gens()
ONE = MODULI.identity()


# --- exact arithmetic ----------------------------------------------------------

def test_gauss_int_basics():
    z = GaussInt(3, -2)
    assert z + GaussInt(1, 5) == GaussInt(4, 3)
    assert z * GI_I == GaussInt(2, 3)
    assert z.conj() == GaussInt(3, 2)
    assert z.norm() == 13
    assert (-z).times_i_power(2) == z


def test_gauss_divisibility():
    five = GaussInt(5, 0)
    assert five.divisible_by(GaussInt(2, 1))
    assert five.divisible_by(GaussInt(1, 2))
    assert not GaussInt(-1, -1).divisible_by(GaussInt(2, 1))
    with pytest.raises(ZeroDivisionError):
        GI_ONE.divisible_by(GI_ZERO)


def test_affine_composition_convention():
    # (k1,c1) after (k2,c2): rotation adds, translation twists by i^k1
    m = AffineMap(1, GaussInt(2, 0)).compose(AffineMap(2, GaussInt(0, 1)))
    assert m == AffineMap(3, GaussInt(2, 0) + GaussInt(0, 1).times_i_power(1))
    ident = AffineMap.identity()
    rnd = AffineMap(3, GaussInt(-4, 7))
    assert rnd.compose(rnd.inverse()) == ident
    assert rnd.inverse().compose(rnd) == ident


# --- the affine image ------------------------------------------------------------

def test_affine_images_of_generators():
    assert affine_image(ONE) == AffineMap.identity()
    assert affine_image(A) == AffineMap(2, GI_ONE)
    assert affine_image(B) == AffineMap(1, GaussInt(1, -1))
    assert affine_image(A * B) == AffineMap(3, GI_I)


def test_affine_image_is_antihomomorphic_on_letters():
    # left-composition convention: the rightmost letter acts first
    rng = random.Random(5)
    for _ in range(40):
        u = random_word(MODULI, rng.randrange(8), rng)
        v = random_word(MODULI, rng.randrange(8), rng)
        assert affine_image(u * v) == affine_image(u).compose(affine_image(v))


def test_q_image():
    assert q_image(ONE) == QElem(0, 0, 0)
    assert q_image(A) == QElem(2, 1, 0)
    assert q_image(B) == QElem(1, 1, 4)


def test_q_has_order_100():
    seen = {q_reduce(AffineMap.identity())}
    frontier = [AffineMap.identity()]
    gens = [affine_image(w) for w in (A, B, ~A, ~B)]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                m2 = m.compose(g)
                q = q_reduce(m2)
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
    r = fstar_recursion()
    table = dict(r.table)
    assert table["alpha"] == WreathElem(~AL, AL, True)
    assert table["beta"] == WreathElem(AL, GA)
    assert table["gamma"] == WreathElem(PI1.identity(), GA * BE * ~GA)
    assert r.adding_machine == GA * BE * AL


def test_fstar_arises_from_twisting_fi():
    assert fstar_from_twist().table == fstar_recursion().table


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
    with pytest.raises(BoundExceeded):
        obstructed_index(B ** 9, k_max=5)


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
