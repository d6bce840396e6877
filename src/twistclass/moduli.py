"""Numerical cross-check on moduli space: iterate the pull-back rational map
of each family, lift twist loops by nearest-preimage continuation, and label
a twist by the fixed point its lift chain converges to."""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .labels import (
    AIRPLANE,
    CORABBIT,
    F14,
    F34,
    F512,
    F_MINUS_I,
    FI,
    RABBIT,
    AlphabetMismatch,
    BranchAmbiguity,
    ClassLabel,
    Diverged,
    PunctureProximity,
    obstructed,
)
from .words import AB, MCG, Alphabet, GenWord

_PUNCTURES = (0.0 + 0.0j, 1.0 + 0.0j)
#: a lifted path within this distance of a fixed point has reached it
_CONVERGENCE_RADIUS = 1e-6


@dataclass(frozen=True)
class RationalFamily:
    """Pull-back dynamics of one family on the thrice-punctured sphere.

    ``fixed_points`` lists the three fixed points of ``formula``, the roots
    of one cubic, each with the class it labels; the first is the
    basepoint, where every twist loop starts.  Their balls of radius
    ``_CONVERGENCE_RADIUS`` must be disjoint, so a lifted path reaches at
    most one of them.  ``poles`` lists the poles of ``formula`` away from
    the punctures; only :func:`_decimate` reads them, to keep its discs
    clear of the poles as well as the punctures.
    ``loops`` maps each mapping-class letter to the puncture it encircles
    and the traversal direction (+1 counterclockwise, -1 clockwise).
    """

    alphabet: Alphabet
    poles: tuple[complex, ...]
    formula: Callable[[complex], complex]
    preimages: Callable[[complex], tuple[complex, complex]]
    fixed_points: tuple[tuple[complex, ClassLabel], ...]
    loops: dict[str, tuple[complex, int]]

    def __post_init__(self):
        points = [p for p, _ in self.fixed_points]
        for p in points:
            if abs(self.formula(p) - p) >= 1e-15:
                raise ValueError(f"{p} is not fixed by the pull-back map")
        reach = min(abs(p - q) for i, p in enumerate(points) for q in points[:i]) / 2
        if not _CONVERGENCE_RADIUS < reach:
            raise ValueError(
                f"convergence radius {_CONVERGENCE_RADIUS:g} is not below "
                f"{reach:.4g}, half the least distance between two fixed points"
            )
        # each signed letter's loop polyline without its first point, which
        # is the basepoint; word_path concatenates these
        by_letter = {}
        for name in self.loops:
            points = loop_around(self, name).points
            by_letter[(name, 1)] = points[1:]
            by_letter[(name, -1)] = points[-2::-1]
        object.__setattr__(self, "_by_letter", by_letter)
        # each signed letter's loop lifted from one start, without that
        # start, filled by _first_lift; a start is the basepoint or the end
        # of a lifted loop, one of the basepoint's two preimages, so there
        # are at most 3 starts (the basepoint's own preimage may differ
        # from it in the last bits)
        object.__setattr__(self, "_letter_lifts", {})

    @property
    def basepoint(self) -> complex:
        return self.fixed_points[0][0]


def rabbit_family() -> RationalFamily:
    def raw(w: complex) -> complex:
        return 1 - 1 / (w * w)

    def pre(v: complex) -> tuple[complex, complex]:
        d = 1 - v
        if abs(d) < 1e-14:
            raise PunctureProximity(f"preimage of {v} runs through infinity")
        r = cmath.sqrt(1 / d)
        return (r, -r)

    return RationalFamily(
        alphabet=MCG,
        poles=(),
        formula=raw,
        preimages=pre,
        # the roots of w^3 - w^2 + 1
        fixed_points=(
            (0.8774388331233464 + 0.7448617666197442j, RABBIT),
            (0.8774388331233464 - 0.7448617666197442j, CORABBIT),
            (-0.7548776662466927 + 0j, AIRPLANE),
        ),
        # the two twist loops run around the punctures in the negative
        # (clockwise) direction; calibrated once against the twist anchors
        loops={"T": (1.0 + 0.0j, -1), "S": (0.0 + 0.0j, -1)},
    )


def i_family() -> RationalFamily:
    def raw(w: complex) -> complex:
        z = (2 - w) / w
        return z * z

    def pre(v: complex) -> tuple[complex, complex]:
        r = cmath.sqrt(v)
        lo, hi = 1 + r, 1 - r
        if abs(lo) < 1e-14 or abs(hi) < 1e-14:
            raise PunctureProximity(f"preimage of {v} runs through infinity")
        return (2 / lo, 2 / hi)

    return RationalFamily(
        alphabet=AB,
        poles=(),
        formula=raw,
        preimages=pre,
        # the roots of (w - 1)(w^2 + 4)
        fixed_points=(
            (2j, FI),
            (-2j, F_MINUS_I),
            (1 + 0j, obstructed()),
        ),
        loops={"a": (0.0 + 0.0j, 1), "b": (1.0 + 0.0j, 1)},
    )


def quater_family() -> RationalFamily:
    def raw(w: complex) -> complex:
        z = (w - 1) / (w + 1)
        return z * z

    def pre(v: complex) -> tuple[complex, complex]:
        r = cmath.sqrt(v)
        lo, hi = 1 - r, 1 + r
        if abs(lo) < 1e-14 or abs(hi) < 1e-14:
            raise PunctureProximity(f"preimage of {v} runs through infinity")
        return ((1 + r) / lo, (1 - r) / hi)

    return RationalFamily(
        alphabet=AB,
        poles=(-1 + 0j,),
        formula=raw,
        preimages=pre,
        # the roots of w^3 + w^2 + 3w - 1
        fixed_points=(
            (-0.6477988712610424 + 1.7214332372471366j, F14),
            (-0.6477988712610424 - 1.7214332372471366j, F34),
            (0.2955977425220847 + 0j, F512),
        ),
        loops={"a": (0.0 + 0.0j, 1), "b": (1.0 + 0.0j, 1)},
    )


FAMILIES = {
    "rabbit": rabbit_family,
    "i": i_family,
    "quater": quater_family,
}


# --- loop geometry ------------------------------------------------------------

LOOP_RADIUS = 0.25
PUNCTURE_MARGIN = 0.05
#: points on the circle of a twist loop, and on the segment joining it to
#: the basepoint
_CIRCLE_POINTS = 64
_SEGMENT_POINTS = 16


@dataclass(frozen=True)
class LoopSpec:
    """Closed polyline based at the family basepoint."""

    points: tuple[complex, ...]

    def __post_init__(self):
        if abs(self.points[0] - self.points[-1]) > 1e-12:
            raise ValueError("loop polyline must be closed")
        for p in self.points:
            for q in _PUNCTURES:
                if abs(p - q) < PUNCTURE_MARGIN:
                    raise ValueError(f"loop point {p} too close to puncture {q}")


def loop_around(fam: RationalFamily, letter: str) -> LoopSpec:
    """Circle of radius 0.25 around the letter's puncture, joined to the
    basepoint by a straight segment."""
    center, direction = fam.loops[letter]
    base = fam.basepoint
    ray = (base - center) / abs(base - center)
    entry = center + LOOP_RADIUS * ray
    pts: list[complex] = []
    for k in range(_SEGMENT_POINTS):
        pts.append(base + (entry - base) * (k / _SEGMENT_POINTS))
    phase = cmath.phase(ray)
    for k in range(_CIRCLE_POINTS + 1):
        ang = phase + direction * 2 * cmath.pi * k / _CIRCLE_POINTS
        pts.append(center + LOOP_RADIUS * cmath.exp(1j * ang))
    for k in range(_SEGMENT_POINTS, 0, -1):
        pts.append(base + (entry - base) * ((k - 1) / _SEGMENT_POINTS))
    return LoopSpec(tuple(pts))


def _check_alphabet(fam: RationalFamily, w: GenWord) -> None:
    if w.alphabet != fam.alphabet:
        raise AlphabetMismatch(f"word must be over {fam.alphabet.names}")


def word_path(fam: RationalFamily, w: GenWord) -> tuple[complex, ...]:
    """Concatenated loop polyline for a mapping-class word (letters traverse
    left to right; inverse letters run their loop backwards)."""
    _check_alphabet(fam, w)
    pts: list[complex] = [fam.basepoint]
    for letter in w.letters:
        pts.extend(fam._by_letter[letter])
    return tuple(pts)


# --- path lifting -------------------------------------------------------------

#: largest lifted step inside the unit disc; outside it the step is relative
#: to |z|
_STEP_TOL = 0.05
#: bisection depth at which a longer step is accepted, unless the two
#: preimages there are closer than twice the step tolerance
_BISECTION_FLOOR = 26


def lift_path(
    fam: RationalFamily,
    points: Sequence[complex],
    start: complex,
) -> list[complex]:
    """Unique continuous preimage of the polyline starting at ``start``.

    Each base segment is bisected until every lifted step is at most the
    scaled tolerance ``_STEP_TOL * max(1, |z|)`` from the lifted point ``z``
    it continues.  Inside the unit disc that is the Euclidean ``_STEP_TOL``;
    outside it a step is measured as ``|dz| / |z|``, the step in the log
    coordinate, which is scale-invariant next to the puncture at infinity, so
    a lift running out there is not bisected in proportion to ``|z|``.  The
    two preimages there lie at least about ``|z|`` apart (``±z`` for the
    rabbit, ``z`` and a point near 0 or 1 for the i and quater families),
    ten times the guard's ``2 * _STEP_TOL * |z|``, so the nearest preimage
    stays unambiguous.  At the bisection floor a step is still accepted
    unless the two preimages are closer than twice the scaled tolerance,
    which raises :class:`BranchAmbiguity`.  Over every accepted step of
    every word of length <= 4 the two preimages lay at least 13 times the
    scaled tolerance apart in the quater family, 19.7 times in the rabbit
    family and 4.7 times in the i family; that is a measurement, not a proof
    that each lift stays on its branch.  The preimages of each base point
    are evaluated once: a bisection carries those of the segment's end to
    its right half, so a lift makes one evaluation per lifted point.

    ``start`` must be a preimage of the first point (checked loosely with the
    unguarded formula: lift chains may legitimately converge to a puncture).
    """
    if abs(fam.formula(start) - points[0]) > 1e-5:
        raise ValueError(
            f"start {start} does not cover the path start {points[0]}"
        )
    lifted = [start]
    current = start
    tol = _STEP_TOL * max(1.0, abs(current))
    pending = []  # right halves of bisected segments, with their preimages
    a = points[0]
    for b in points[1:]:
        p0, p1 = fam.preimages(b)
        depth = 0
        while True:
            d0, d1 = abs(p0 - current), abs(p1 - current)
            best, step = (p0, d0) if d0 <= d1 else (p1, d1)
            if step > tol:
                if depth < _BISECTION_FLOOR:
                    depth += 1
                    pending.append((b, depth, p0, p1))
                    b = (a + b) / 2
                    p0, p1 = fam.preimages(b)
                    continue
                if abs(p0 - p1) < 2 * tol:
                    raise BranchAmbiguity(
                        f"preimages {p0} and {p1} of {b} are closer than "
                        f"twice the scaled step tolerance {tol}"
                    )
            current = best
            lifted.append(best)
            tol = _STEP_TOL * max(1.0, abs(current))
            a = b
            if not pending:
                break
            b, depth, p0, p1 = pending.pop()
    return lifted


def _first_lift(fam: RationalFamily, w: GenWord) -> list[complex]:
    """``lift_path(fam, word_path(fam, w), fam.basepoint)``, assembled from
    the family's lifted letter loops.

    Every loop starts and ends at the basepoint, and :func:`lift_path`
    carries nothing but the lifted point from one base segment to the next,
    so the lift of a word is the concatenation of each letter loop's lift
    from the end of the one before: each is lifted once per family and
    start, and kept in ``fam._letter_lifts``.
    """
    lifted = [fam.basepoint]
    for letter in w.letters:
        key = (letter, lifted[-1])
        piece = fam._letter_lifts.get(key)
        if piece is None:
            loop = (fam.basepoint, *fam._by_letter[letter])
            piece = fam._letter_lifts[key] = lift_path(fam, loop, lifted[-1])[1:]
        lifted.extend(piece)
    return lifted


#: radius of a decimation disc as a fraction of its centre's distance to the
#: nearest puncture or pole, so every disc is clear of them
_DISC_FRACTION = 0.5


def _decimate(fam: RationalFamily, points: Sequence[complex]) -> list[complex]:
    """Subsequence of the polyline that replaces runs of points inside
    puncture-free discs by chords.

    Each disc is centred on the last kept point, with radius
    ``_DISC_FRACTION`` times that point's distance to the nearest puncture
    or pole.  A dropped run and the chord closing it both lie in the disc,
    which is convex and holds no branch value, so the chord is homotopic to
    the run: lifting the decimated path ends on the same sheet at the same
    endpoint.  The first and last points are always kept.
    """
    guards = _PUNCTURES + fam.poles

    def radius(z: complex) -> float:
        return _DISC_FRACTION * min([abs(z - g) for g in guards])

    anchor = points[0]
    kept = [anchor]
    reach = radius(anchor)
    inside: complex | None = None  # last point of the current run in the disc
    for z in points[1:]:
        dist = abs(z - anchor)
        if inside is not None and dist >= reach:
            anchor, reach, inside = inside, radius(inside), None
            kept.append(anchor)
            dist = abs(z - anchor)
        if dist < reach:
            inside = z
        else:
            anchor, reach = z, radius(z)
            kept.append(anchor)
    if inside is not None:
        kept.append(inside)
    return kept


#: default number of lifts before :func:`classify_numeric` gives up; no
#: reduced word of length <= 4 in any family takes more than 61
MAX_LIFTS = 200


def classify_numeric(
    fam: RationalFamily,
    w: GenWord,
    max_lifts: int = MAX_LIFTS,
    trace: list[tuple[int, complex]] | None = None,
) -> ClassLabel:
    """Label of the family map post-twisted by ``w``.

    Lifts the twist path repeatedly (each lift continues from the previous
    endpoint and lifts the previously lifted path), until three consecutive
    lifted paths lie entirely within ``_CONVERGENCE_RADIUS`` (1e-6) of one
    fixed point; :class:`RationalFamily` keeps those balls disjoint.  The
    identity twist is the basepoint's class.  Judging the endpoint alone is
    not enough: a twist whose first iterates fix the basepoint sheet parks
    its endpoints exactly on the base fixed point for several lifts before
    the dynamics moves away.

    Each lift bisects the base path under the step tolerance of
    :func:`lift_path`.  Bisection only adds points, so each lifted
    path is decimated before it becomes the next lift's input: runs of
    points inside a disc around the last kept point, clear of every
    puncture and pole, give way to one chord (:func:`_decimate`).  The disc
    is convex and holds no branch value, so the chord is homotopic to the
    run and the next lift ends on the same sheet at the same endpoint; a
    lifted loop that fits in one disc collapses to a chord instead of being
    carried along.  The convergence test still judges every point of the
    undecimated lift.  The first lift, of the word's loop polyline, is
    assembled from the family's lifted letter loops (:func:`_first_lift`).
    """
    _check_alphabet(fam, w)
    if w.is_identity:
        return fam.fixed_points[0][1]

    hits = 0
    last: ClassLabel | None = None
    lifted: list[complex] = []
    for n in range(max_lifts):
        if n:
            lifted = lift_path(fam, _decimate(fam, lifted), lifted[-1])
        else:
            lifted = _first_lift(fam, w)
        if trace is not None:
            trace.append((n, lifted[-1]))
        label = _nearest_label(fam, lifted)
        if label is not None and label == last:
            hits += 1
            if hits >= 3:
                return label
        else:
            hits = 1 if label is not None else 0
            last = label
    raise Diverged(f"no fixed point reached within {max_lifts} lifts")


def _nearest_label(
    fam: RationalFamily, points: Sequence[complex]
) -> ClassLabel | None:
    for p, label in fam.fixed_points:
        if all(abs(z - p) < _CONVERGENCE_RADIUS for z in points):
            return label
    return None


def format_trace(trace: Sequence[tuple[int, complex]]) -> str:
    """Plain-text trajectory dump: one 'index re im' line per lift."""
    return "\n".join(f"{i} {z.real!r} {z.imag!r}" for i, z in trace)


# --- exact fixed-point check for the half-translation model -------------------

FracPoint = tuple[Fraction, Fraction]

#: fixed point of the contraction below, (3+i)/5
ZETA: FracPoint = (Fraction(3, 5), Fraction(1, 5))


def half_plane_contraction(z: FracPoint) -> FracPoint:
    """The exact affine contraction z -> ((i-1)/2) z + 1 on the lattice cover
    of the i-family moduli space."""
    re, im = z
    # (i-1)/2 * (re + i*im) = (-re - im)/2 + i*(re - im)/2
    return (Fraction(-re - im, 2) + 1, Fraction(re - im, 2))
