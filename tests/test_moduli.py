import cmath
import dataclasses
import functools
import hashlib
import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import reduced_words
from twistclass.labels import (
    AIRPLANE,
    CORABBIT,
    F14,
    F34,
    F512,
    FI,
    RABBIT,
    BranchAmbiguity,
    PunctureProximity,
)
from twistclass.moduli import (
    _DISC_FRACTION,
    _PUNCTURES,
    FAMILIES,
    ZETA,
    classify_numeric,
    format_trace,
    half_plane_contraction,
    i_family,
    lift_path,
    loop_around,
    quater_family,
    rabbit_family,
    word_path,
    LoopSpec,
    _decimate,
)
from twistclass import moduli
from twistclass.rabbit import classify_mcg
from twistclass.preperiod2 import classify_quater
from twistclass.periodic2 import classify_mod5

PRINTED = {
    "rabbit": [0.8774 + 0.7449j, 0.8774 - 0.7449j, -0.7549],
    "i": [2j, -2j, 1.0],
    "quater": [-0.6478 + 1.7214j, -0.6478 - 1.7214j, 0.2956],
}

#: the cubic whose roots are each family's fixed points: w = formula(w)
#: cleared of denominators
CUBICS = {
    "rabbit": lambda w: w**3 - w**2 + 1,
    "i": lambda w: (w - 1) * (w**2 + 4),
    "quater": lambda w: w**3 + w**2 + 3 * w - 1,
}


def test_fixed_points_match_printed_values():
    for name, factory in FAMILIES.items():
        fam = factory()
        assert len(fam.fixed_points) == 3
        for printed in PRINTED[name]:
            assert min(abs(p - printed) for p, _ in fam.fixed_points) < 1e-3
        for p, _ in fam.fixed_points:
            assert abs(fam.formula(p) - p) < 1e-9
            assert abs(CUBICS[name](p)) <= 4e-15
        first_point, first_label = fam.fixed_points[0]
        assert fam.basepoint == first_point
        assert classify_numeric(fam, fam.alphabet.identity()) == first_label


def test_pullback_examples():
    fam = rabbit_family()
    t = fam.basepoint
    assert abs(fam.formula(t) - t) < 1e-9
    fi = i_family()
    assert abs(fi.formula(2j) - 2j) < 1e-12
    q = quater_family()
    p512 = [p for p, lbl in q.fixed_points if lbl == F512][0]
    assert abs(q.formula(p512) - p512) < 1e-9


def test_preimages_refuse_a_branch_through_infinity():
    # 1 has the puncture at infinity among its preimages in every family;
    # this is where the library raises PunctureProximity, which the CLI
    # maps to exit 3
    for factory in FAMILIES.values():
        with pytest.raises(PunctureProximity, match="runs through infinity"):
            factory().preimages(1)
    fam = rabbit_family()
    with pytest.raises(PunctureProximity):
        lift_path(fam, [fam.basepoint, 1 + 0j], fam.basepoint)


def test_exact_contraction_fixes_zeta():
    assert half_plane_contraction(ZETA) == ZETA
    from fractions import Fraction

    assert ZETA == (Fraction(3, 5), Fraction(1, 5))


def test_loops_avoid_punctures_and_close():
    for factory in FAMILIES.values():
        fam = factory()
        for letter in fam.alphabet.names:
            loop = loop_around(fam, letter)
            assert abs(loop.points[0] - loop.points[-1]) < 1e-12
            assert abs(loop.points[0] - fam.basepoint) < 1e-12
            for p in loop.points:
                assert abs(p) > 0.05 - 1e-12
                assert abs(p - 1) > 0.05 - 1e-12


def test_loop_spec_rejects_puncture_grazing():
    with pytest.raises(ValueError):
        LoopSpec((2j, 0.01 + 0j, 2j))


def test_lift_anchor_i_family_a_loop():
    fam = i_family()
    end = lift_path(fam, loop_around(fam, "a").points, 2j)[-1]
    assert abs(end - (4 - 2j) / 5) < 1e-6


def test_lift_i_family_b_loop_returns():
    fam = i_family()
    end = lift_path(fam, loop_around(fam, "b").points, 2j)[-1]
    assert abs(end - 2j) < 1e-6


def test_lift_a_twice_returns_to_start_sheet():
    fam = i_family()
    loop = loop_around(fam, "a").points
    end1 = lift_path(fam, loop, 2j)[-1]
    end2 = lift_path(fam, loop, end1)[-1]
    assert abs(end2 - 2j) < 1e-6


def test_lift_constant_loop():
    fam = rabbit_family()
    t = fam.basepoint
    lifted = lift_path(fam, [t, t, t], t)
    assert all(abs(p - t) < 1e-9 for p in lifted)


def test_lift_requires_matching_start():
    fam = i_family()
    with pytest.raises(ValueError):
        lift_path(fam, loop_around(fam, "a").points, 3 + 3j)


def test_classify_numeric_rabbit_anchors():
    fam = rabbit_family()
    T = fam.alphabet.parse("T")
    assert classify_numeric(fam, T) == AIRPLANE
    assert classify_numeric(fam, ~T) == CORABBIT
    assert classify_numeric(fam, fam.alphabet.identity()) == RABBIT


@pytest.mark.parametrize("name, reach", [
    ("rabbit", 0.74486), ("i", 1.11803), ("quater", 0.98149),
])
def test_a_family_whose_convergence_balls_overlap_fails_at_construction(
    monkeypatch, name, reach
):
    # overlapping balls let the first listed fixed point take every word
    # whose lifts entered the overlap: rabbit T read as rabbit at radius 3
    fam = FAMILIES[name]()
    w = fam.alphabet.gens()[1]
    label = classify_numeric(fam, w)
    monkeypatch.setattr(moduli, "_CONVERGENCE_RADIUS", 0.99 * reach)
    fam = FAMILIES[name]()
    assert classify_numeric(fam, w) == label
    monkeypatch.setattr(moduli, "_CONVERGENCE_RADIUS", 1.0001 * reach)
    for build in (FAMILIES[name], lambda: dataclasses.replace(fam)):
        with pytest.raises(ValueError, match="half the least distance"):
            build()


@functools.cache
def _numeric_runs(name):
    """(word, label, lift count, total lifted points, largest lifted path)
    for every reduced word of length 1-4 in one family, shared by the
    agreement, census and budget tests."""
    fam = FAMILIES[name]()
    sizes = []

    def counted(fam, points):
        # the convergence test runs once per lift, on the whole lifted path
        sizes.append(len(points))
        return nearest_label(fam, points)

    nearest_label = moduli._nearest_label
    runs = []
    with mock.patch.object(moduli, "_nearest_label", counted):
        for w in reduced_words(fam.alphabet, 4, include_identity=False):
            sizes.clear()
            label = classify_numeric(fam, w)
            runs.append((w, label, len(sizes), sum(sizes), max(sizes)))
    return tuple(runs)


def test_classify_numeric_agrees_with_iterator_short_words():
    for w, label, *_ in _numeric_runs("rabbit"):
        assert label == classify_mcg(w), str(w)


def test_classify_numeric_quater_anchors():
    fam = quater_family()
    a = fam.alphabet.parse("a")
    b = fam.alphabet.parse("b")
    assert classify_numeric(fam, a) == F512
    assert classify_numeric(fam, ~a * b) == F512
    assert classify_numeric(fam, b) == F34
    assert classify_numeric(fam, fam.alphabet.identity()) == F14


def test_classify_numeric_quater_agrees_with_iterator():
    for w, label, *_ in _numeric_runs("quater"):
        assert label == classify_quater(w), str(w)


def test_classify_numeric_obstructed_twist_runs_to_puncture():
    fam = i_family()
    a = fam.alphabet.parse("a")
    label = classify_numeric(fam, a)
    assert label.kind == "obstructed"
    assert classify_numeric(fam, fam.alphabet.identity()) == FI


def test_classify_numeric_agrees_with_arithmetic_classifier():
    for w, label, *_ in _numeric_runs("i"):
        assert label.kind == classify_mod5(w).kind, str(w)


#: sha256 prefix of the lines "word label lifts points" over every reduced
#: word of length 1-4 in each family, with the lift count and the total
#: number of lifted points of its classification: a change to bisection,
#: decimation or the convergence test that moves one lift changes these
_NUMERIC_CENSUS = {
    "i": "3d572f968e74ce44",
    "quater": "4f7224ae9872cd13",
    "rabbit": "c6c7e9910acbe656",
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_numeric_census_is_pinned(name):
    text = "\n".join(
        f"{w} {label} {lifts} {points}"
        for w, label, lifts, points, _ in _numeric_runs(name)
    )
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == _NUMERIC_CENSUS[name]


_EXACT = {"rabbit": classify_mcg, "quater": classify_quater, "i": classify_mod5}


def _drawn_reduced_word(alphabet, length, rng):
    """A reduced word of exactly ``length`` letters, each drawn from those
    that do not cancel the previous one."""
    letters = alphabet.gens() + [~g for g in alphabet.gens()]
    w = alphabet.identity()
    while len(w) < length:
        longer = w * rng.choice(letters)
        if len(longer) > len(w):
            w = longer
    return w


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_classify_numeric_agrees_on_drawn_longer_words(name):
    # 12 seeded words of each length 5-8; each takes a few milliseconds
    fam = FAMILIES[name]()
    rng = random.Random(0)
    for length in range(5, 9):
        for _ in range(12):
            w = _drawn_reduced_word(fam.alphabet, length, rng)
            assert classify_numeric(fam, w).kind == _EXACT[name](w).kind, str(w)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_lifted_paths_stay_within_point_budget(name):
    # an absolute step tolerance bisects thousands of times on the branches
    # that run out to the puncture at infinity (18,045 points for an i-family
    # word of length 3, 71,450 at length 4); the step scaled by max(1, |z|)
    # keeps every lift of every word up to length 4 at or below 1,281 points
    for w, *_, largest in _numeric_runs(name):
        assert largest <= 2000, str(w)


# --- the branch-ambiguity guard ---------------------------------------------


def _constant_preimages(p0, p1):
    """The i family with every base point lifting to the fixed pair p0, p1,
    so bisection never shortens the step and reaches the floor."""
    return dataclasses.replace(i_family(), preimages=lambda v: (p0, p1))


# current point, step to the nearer preimage, and two separations of the
# preimages, one below and one above twice the scaled tolerance
# _STEP_TOL * max(1, |current|) with _STEP_TOL = 0.05: 0.05 at 0.5, 50 at 1000
_GUARD_CASES = [
    (0.5 + 0j, 0.2, 0.08, 0.12),  # inside the unit disc
    (1000 + 0j, 200, 60, 120),  # next to the puncture at infinity
]


@pytest.mark.parametrize("current, step, close, apart", _GUARD_CASES)
def test_branch_ambiguity_guard_scales_with_the_point(
    monkeypatch, current, step, close, apart
):
    monkeypatch.setattr(moduli, "_BISECTION_FLOOR", 4)
    p0 = current + step
    fam = _constant_preimages(p0, p0 + close)
    with pytest.raises(BranchAmbiguity):
        lift_path(fam, (fam.formula(current), 3j), current)
    fam = _constant_preimages(p0, p0 + apart)
    lifted = lift_path(fam, (fam.formula(current), 3j), current)
    assert lifted[-1] == p0


def test_long_segment_is_bisected_to_the_step_tolerance():
    # the rabbit-family preimages of [-1, -1 - 10^6] run from sqrt(1/2) to
    # about 10^-3; every lifted step must keep to the scaled tolerance, which
    # takes 22 halvings here (a floor of 21 leaves a step 1.4 times too long,
    # and a floor of 8 raises BranchAmbiguity)
    fam = rabbit_family()
    a, b = -1, -1 - 10**6
    lifted = lift_path(fam, (a, b), fam.preimages(a)[0])
    for z, nxt in zip(lifted, lifted[1:]):
        assert abs(nxt - z) <= moduli._STEP_TOL * max(1.0, abs(z)), (z, nxt)
    assert abs(lifted[-1] - fam.preimages(b)[0]) < 1e-12


def test_segment_that_reaches_the_bisection_floor():
    # on [-1, -1 - 10^8] the bisection reaches its floor and accepts three
    # steps up to 3.4 times the scaled tolerance, since the preimages there
    # are well apart; the point count pins the floor from both sides (30
    # points at a floor of 25, 36 at 27)
    fam = rabbit_family()
    a, b = -1, -1 - 10**8
    lifted = lift_path(fam, (a, b), fam.preimages(a)[0])
    assert len(lifted) == 33
    assert abs(lifted[-1] - fam.preimages(b)[0]) < 1e-12


def test_trace_format():
    fam = rabbit_family()
    T = fam.alphabet.parse("T")
    trace = []
    classify_numeric(fam, T, trace=trace)
    text = format_trace(trace)
    lines = text.splitlines()
    assert len(lines) == len(trace)
    idx, re_part, im_part = lines[0].split()
    assert idx == "0"
    float(re_part), float(im_part)


def test_word_path_concatenates_loops():
    fam = rabbit_family()
    w = fam.alphabet.parse("T S'")
    pts = word_path(fam, w)
    assert abs(pts[0] - fam.basepoint) < 1e-12
    assert abs(pts[-1] - fam.basepoint) < 1e-12
    single = loop_around(fam, "T").points
    assert len(pts) == 2 * len(single) - 1
    for factory in FAMILIES.values():
        fam = factory()
        for w in reduced_words(fam.alphabet, 3):
            expected = [fam.basepoint]
            for name, sign in w.letters:
                points = loop_around(fam, name).points
                if sign < 0:
                    points = tuple(reversed(points))
                expected.extend(points[1:])
            assert word_path(fam, w) == tuple(expected), str(w)


# --- decimation of lifted paths --------------------------------------------


def _guards(fam):
    return _PUNCTURES + fam.poles


def _winding(points, centre):
    turn = sum(
        cmath.phase((b - centre) / (a - centre)) for a, b in zip(points, points[1:])
    )
    return round(turn / (2 * cmath.pi))


def _kept_indices(points, kept):
    """Indices of ``kept`` in ``points`` as an ordered subsequence; matched
    by identity, since a polyline may repeat a value."""
    indices, i = [], 0
    for z in kept:
        while points[i] is not z:
            i += 1
        indices.append(i)
        i += 1
    return indices


_FAMILIES = [factory() for factory in FAMILIES.values()]


@st.composite
def polylines(draw, closed=False):
    """A family and a polyline that wanders near its punctures and poles."""
    fam = draw(st.sampled_from(_FAMILIES))
    points = []
    for _ in range(draw(st.integers(1, 40))):
        centre = draw(st.sampled_from(_guards(fam)))
        # the shifted angle keeps points off the real axis, so that a segment
        # runs exactly through a guard only by rounding accident
        angle = 2 * cmath.pi * (draw(st.integers(0, 96)) + 0.3) / 97
        points.append(centre + draw(st.floats(1e-3, 0.6)) * cmath.exp(1j * angle))
    if closed:
        points.append(points[0])
    return fam, points


@given(polylines())
def test_decimate_keeps_an_ordered_subsequence_with_both_ends(case):
    fam, points = case
    kept = _decimate(fam, points)
    assert kept[0] == points[0] and kept[-1] == points[-1]
    indices = _kept_indices(points, kept)  # raises if not a subsequence
    assert indices[0] == 0 and indices[-1] == len(points) - 1


@given(polylines())
def test_decimate_drops_only_inside_a_guard_free_disc(case):
    fam, points = case
    kept = _decimate(fam, points)
    indices = _kept_indices(points, kept)
    assert _DISC_FRACTION < 1
    for start, stop in zip(indices, indices[1:]):
        if stop == start + 1:
            continue
        centre = points[start]
        clearance = min(abs(centre - g) for g in _guards(fam))
        # the dropped run and the far end of the chord replacing it
        for z in points[start + 1:stop + 1]:
            assert abs(z - centre) < _DISC_FRACTION * clearance


@given(polylines(closed=True))
def test_decimate_keeps_winding_numbers(case):
    fam, points = case
    for g in _guards(fam):
        # skip polylines that run through a guard: their winding is undefined
        for a, b in zip(points, points[1:]):
            assume(abs(cmath.phase((b - g) / (a - g))) < cmath.pi - 1e-6)
    kept = _decimate(fam, points)
    for g in _guards(fam):
        assert _winding(kept, g) == _winding(points, g)


@pytest.mark.parametrize("factory, letter, centre", [
    (i_family, "b", 1.0 + 0.0j),
    (rabbit_family, "S", 0.0 + 0.0j),
])
def test_decimated_twist_loop_winds_like_the_loop(factory, letter, centre):
    fam = factory()
    points = loop_around(fam, letter).points
    kept = _decimate(fam, points)
    assert len(kept) < len(points)
    assert _winding(points, centre) == fam.loops[letter][1]
    for g in _guards(fam):
        assert _winding(kept, g) == _winding(points, g)


# --- lift_path against the per-segment loop --------------------------------


def plain_lift_path(fam, points, start):
    """The lift with nothing carried over: every segment gets a fresh stack,
    and every segment popped from it evaluates the preimages of its end,
    also the right half of a bisected segment, whose end was evaluated
    before the bisection."""
    if abs(fam.formula(start) - points[0]) > 1e-5:
        raise ValueError(
            f"start {start} does not cover the path start {points[0]}"
        )
    lifted = [start]
    current = start
    for i in range(1, len(points)):
        stack = [(points[i - 1], points[i], 0)]
        while stack:
            a, b, depth = stack.pop()
            p0, p1 = fam.preimages(b)
            best = p0 if abs(p0 - current) <= abs(p1 - current) else p1
            tol = moduli._STEP_TOL * max(1.0, abs(current))
            if abs(best - current) > tol:
                if depth < moduli._BISECTION_FLOOR:
                    mid = (a + b) / 2
                    stack.append((mid, b, depth + 1))
                    stack.append((a, mid, depth + 1))
                    continue
                if abs(p0 - p1) < 2 * tol:
                    raise BranchAmbiguity(
                        f"preimages {p0} and {p1} of {b} are closer than "
                        f"twice the scaled step tolerance {tol}"
                    )
            current = best
            lifted.append(best)
    return lifted


def lift_outcome(lift, fam, points, start):
    try:
        return lift(fam, points, start)
    except (BranchAmbiguity, ValueError) as err:  # PunctureProximity too
        return type(err), str(err)


@settings(max_examples=60, deadline=None)
@given(polylines())
def test_lift_path_matches_the_plain_lift(case):
    fam, points = case
    start = fam.preimages(points[0])[0]
    assert lift_outcome(lift_path, fam, points, start) == lift_outcome(
        plain_lift_path, fam, points, start
    )


@pytest.mark.parametrize("current, step, close, apart", _GUARD_CASES)
def test_guard_cases_match_the_plain_lift(monkeypatch, current, step, close, apart):
    monkeypatch.setattr(moduli, "_BISECTION_FLOOR", 4)
    p0 = current + step
    outcomes = []
    for separation in (close, apart):
        fam = _constant_preimages(p0, p0 + separation)
        args = (fam, (fam.formula(current), 3j), current)
        outcomes.append(lift_outcome(plain_lift_path, *args))
        assert lift_outcome(lift_path, *args) == outcomes[-1]
    # the close pair raised, the apart pair lifted
    assert outcomes[0][0] is BranchAmbiguity and outcomes[1][-1] == p0


@pytest.mark.parametrize("far, floor", [
    (10**6, 26), (10**6, 8), (10**8, 26), (10**8, 2),
])
def test_bisection_floor_cases_match_the_plain_lift(monkeypatch, far, floor):
    # the two segments of the bisection tests, at the default floor and at a
    # floor low enough to raise BranchAmbiguity
    monkeypatch.setattr(moduli, "_BISECTION_FLOOR", floor)
    fam = rabbit_family()
    args = (fam, (-1, -1 - far), fam.preimages(-1)[0])
    assert lift_outcome(lift_path, *args) == lift_outcome(plain_lift_path, *args)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_lift_path_evaluates_each_lifted_point_once(name):
    base = FAMILIES[name]()
    evaluations = 0

    def counted_preimages(v):
        nonlocal evaluations
        evaluations += 1
        return base.preimages(v)

    fam = dataclasses.replace(base, preimages=counted_preimages)
    per_lift = []

    def counted_lift(*args, **kwargs):
        before = evaluations
        lifted = lift_path(*args, **kwargs)
        per_lift.append((evaluations - before, len(lifted) - 1))
        return lifted

    with mock.patch.object(moduli, "lift_path", counted_lift):
        for w in reduced_words(fam.alphabet, 3, include_identity=False):
            classify_numeric(fam, w)
    assert per_lift
    for made, lifted_points in per_lift:
        assert made == lifted_points


# --- the first lift, assembled from lifted letter loops ----------------------


def _lift_zero_words(fam):
    """Every reduced word of length 1-4, and the seeded words of length 5-8
    that the drawn-word agreement test classifies."""
    words = list(reduced_words(fam.alphabet, 4, include_identity=False))
    rng = random.Random(0)
    words += [
        _drawn_reduced_word(fam.alphabet, length, rng)
        for length in range(5, 9)
        for _ in range(12)
    ]
    return words


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_first_lift_equals_the_lift_of_the_word_path(name):
    fam = FAMILIES[name]()
    words = _lift_zero_words(fam)
    plain = {w: lift_path(fam, word_path(fam, w), fam.basepoint) for w in words}
    for w in words:
        # a cold cache, then the cache every word before this one filled
        assert moduli._first_lift(dataclasses.replace(fam), w) == plain[w], str(w)
        assert moduli._first_lift(fam, w) == plain[w], str(w)
    for w in words:
        assert moduli._first_lift(fam, w) == plain[w], str(w)
    # the pieces start at the basepoint or at one of its two preimages
    assert len(fam._letter_lifts) <= 6 * len(fam.alphabet.names)
    assert dataclasses.replace(fam)._letter_lifts == {}


@pytest.mark.parametrize("name, word", [
    ("rabbit", "T S' T"), ("i", "a b' a b"), ("quater", "b a' b'"),
])
def test_a_second_classification_lifts_no_letter_loop_again(name, word):
    base = FAMILIES[name]()
    evaluations = 0

    def counted_preimages(v):
        nonlocal evaluations
        evaluations += 1
        return base.preimages(v)

    fam = dataclasses.replace(base, preimages=counted_preimages)
    w = fam.alphabet.parse(word)
    label = classify_numeric(fam, w)
    first, evaluations = evaluations, 0
    pieces = dict(fam._letter_lifts)
    # each cached piece cost one evaluation per point when it was lifted
    lift_zero = sum(len(piece) for piece in pieces.values())
    assert lift_zero > 0
    assert classify_numeric(fam, w) == label
    assert evaluations == first - lift_zero
    assert fam._letter_lifts == pieces
