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
    BranchAmbiguity,
    ClassLabel,
    Diverged,
    PunctureProximity,
    obstructed,
)
from .words import AB, MCG, Alphabet, GenWord

_PUNCTURES = (0.0 + 0.0j, 1.0 + 0.0j)
_PUNCTURE_EPS = 1e-8


@dataclass(frozen=True)
class RationalFamily:
    """Pull-back dynamics of one family on the thrice-punctured sphere.

    ``poles`` lists the poles of ``formula`` away from the punctures, which
    :meth:`apply` guards like the punctures.  ``loops`` maps each
    mapping-class letter to the puncture it encircles and the traversal
    direction (+1 counterclockwise, -1 clockwise).
    """

    family_id: str
    alphabet: Alphabet
    poles: tuple[complex, ...]
    formula: Callable[[complex], complex]
    preimages: Callable[[complex], tuple[complex, complex]]
    basepoint: complex
    fixed_points: tuple[tuple[complex, ClassLabel], ...]
    loops: dict[str, tuple[complex, int]]

    def __post_init__(self):
        for p, _ in self.fixed_points:
            if abs(self.formula(p) - p) >= 1e-9:
                raise ValueError(f"{p} is not fixed by the {self.family_id} map")
        if min(abs(self.basepoint - p) for p, _ in self.fixed_points) >= 1e-9:
            raise ValueError("the basepoint must be one of the fixed points")

    def apply(self, w: complex) -> complex:
        """The family map, refusing points next to a puncture or a pole."""
        for p in _PUNCTURES + self.poles:
            if abs(w - p) < _PUNCTURE_EPS:
                raise PunctureProximity(f"{w} is within {_PUNCTURE_EPS} of {p}")
        return self.formula(w)


def _newton_refine(
    f: Callable[[complex], complex], df: Callable[[complex], complex], z: complex
) -> complex:
    for _ in range(60):
        step = (f(z) - z) / (df(z) - 1)
        z = z - step
        if abs(step) < 1e-15:
            break
    return z


def rabbit_family() -> RationalFamily:
    def raw(w: complex) -> complex:
        return 1 - 1 / (w * w)

    def df(w: complex) -> complex:
        return 2 / w**3

    def pre(v: complex) -> tuple[complex, complex]:
        r = cmath.sqrt(1 / (1 - v))
        return (r, -r)

    rabbit = _newton_refine(raw, df, 0.8774 + 0.7449j)
    corabbit = _newton_refine(raw, df, 0.8774 - 0.7449j)
    airplane = _newton_refine(raw, df, -0.7549 + 0j)
    return RationalFamily(
        family_id="rabbit",
        alphabet=MCG,
        poles=(),
        formula=raw,
        preimages=pre,
        basepoint=rabbit,
        fixed_points=(
            (rabbit, RABBIT),
            (corabbit, CORABBIT),
            (airplane, AIRPLANE),
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
        family_id="i",
        alphabet=AB,
        poles=(),
        formula=raw,
        preimages=pre,
        basepoint=2j,
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

    def df(w: complex) -> complex:
        return 4 * (w - 1) / (w + 1) ** 3

    def pre(v: complex) -> tuple[complex, complex]:
        r = cmath.sqrt(v)
        lo, hi = 1 - r, 1 + r
        if abs(lo) < 1e-14 or abs(hi) < 1e-14:
            raise PunctureProximity(f"preimage of {v} runs through infinity")
        return ((1 + r) / lo, (1 - r) / hi)

    p14 = _newton_refine(raw, df, -0.6478 + 1.7214j)
    p34 = _newton_refine(raw, df, -0.6478 - 1.7214j)
    p512 = _newton_refine(raw, df, 0.2956 + 0j)
    return RationalFamily(
        family_id="quater",
        alphabet=AB,
        poles=(-1 + 0j,),
        formula=raw,
        preimages=pre,
        basepoint=p14,
        fixed_points=((p14, F14), (p34, F34), (p512, F512)),
        loops={"a": (0.0 + 0.0j, 1), "b": (1.0 + 0.0j, 1)},
    )


FAMILIES = {
    "rabbit": rabbit_family,
    "i": i_family,
    "quater": quater_family,
}


def pullback(fam: RationalFamily, w: complex) -> complex:
    """One application of the family map."""
    return fam.apply(w)


# --- loop geometry ------------------------------------------------------------

LOOP_RADIUS = 0.25
PUNCTURE_MARGIN = 0.05


@dataclass(frozen=True)
class LoopSpec:
    """Closed polyline based at the family basepoint, labelled by the
    mapping-class letter it represents."""

    label: str
    points: tuple[complex, ...]

    def __post_init__(self):
        if abs(self.points[0] - self.points[-1]) > 1e-12:
            raise ValueError("loop polyline must be closed")
        for p in self.points:
            for q in _PUNCTURES:
                if abs(p - q) < PUNCTURE_MARGIN:
                    raise ValueError(f"loop point {p} too close to puncture {q}")

    def reversed(self) -> "LoopSpec":
        return LoopSpec(self.label + "'", tuple(reversed(self.points)))


def loop_around(
    fam: RationalFamily,
    letter: str,
    n_circle: int = 64,
    n_segment: int = 16,
) -> LoopSpec:
    """Circle of radius 0.25 around the letter's puncture, joined to the
    basepoint by a straight segment."""
    center, direction = fam.loops[letter]
    base = fam.basepoint
    ray = (base - center) / abs(base - center)
    entry = center + LOOP_RADIUS * ray
    pts: list[complex] = []
    for k in range(n_segment):
        pts.append(base + (entry - base) * (k / n_segment))
    phase = cmath.phase(ray)
    for k in range(n_circle + 1):
        ang = phase + direction * 2 * cmath.pi * k / n_circle
        pts.append(center + LOOP_RADIUS * cmath.exp(1j * ang))
    for k in range(n_segment, 0, -1):
        pts.append(base + (entry - base) * ((k - 1) / n_segment))
    return LoopSpec(letter, tuple(pts))


def word_path(fam: RationalFamily, w: GenWord) -> tuple[complex, ...]:
    """Concatenated loop polyline for a mapping-class word (letters traverse
    left to right; inverse letters run their loop backwards)."""
    pts: list[complex] = [fam.basepoint]
    for name, sign in w.letters:
        loop = loop_around(fam, name)
        if sign < 0:
            loop = loop.reversed()
        pts.extend(loop.points[1:])
    return tuple(pts)


# --- path lifting -------------------------------------------------------------


def _lift_target(
    fam: RationalFamily,
    prev_base: complex,
    target: complex,
    current: complex,
    step_tol: float,
    floor: int,
) -> list[complex]:
    """Continue the lift from ``current`` over the base segment
    prev_base -> target, bisecting until steps are below step_tol."""
    out: list[complex] = []
    stack = [(prev_base, target, 0)]
    while stack:
        a, b, depth = stack.pop()
        p0, p1 = fam.preimages(b)
        best, other = (p0, p1) if abs(p0 - current) <= abs(p1 - current) else (p1, p0)
        if abs(best - current) <= step_tol:
            current = best
            out.append(best)
            continue
        if depth >= floor:
            if abs(p0 - p1) < 2 * step_tol:
                raise BranchAmbiguity(
                    f"preimages {p0} and {p1} of {b} are closer than twice the "
                    f"step tolerance"
                )
            current = best
            out.append(best)
            continue
        mid = (a + b) / 2
        stack.append((mid, b, depth + 1))
        stack.append((a, mid, depth + 1))
    return out


def lift_path(
    fam: RationalFamily,
    points: Sequence[complex],
    start: complex,
    step_tol: float = 0.05,
    floor: int = 26,
) -> list[complex]:
    """Unique continuous preimage of the polyline starting at ``start``.

    ``start`` must be a preimage of the first point (checked loosely with the
    unguarded formula: lift chains may legitimately converge to a puncture).
    """
    if abs(fam.formula(start) - points[0]) > 1e-5:
        raise ValueError(
            f"start {start} does not cover the path start {points[0]}"
        )
    lifted = [start]
    current = start
    for i in range(1, len(points)):
        seg = _lift_target(fam, points[i - 1], points[i], current, step_tol, floor)
        lifted.extend(seg)
        current = lifted[-1]
    return lifted


def lift_loop(
    fam: RationalFamily, loop: LoopSpec, start: complex, step_tol: float = 0.05
) -> tuple[complex, list[complex]]:
    """Lift one loop; returns (endpoint, full trajectory)."""
    traj = lift_path(fam, loop.points, start, step_tol)
    return traj[-1], traj


def classify_numeric(
    fam: RationalFamily,
    w: GenWord,
    max_lifts: int = 200,
    tol: float = 1e-6,
    step_tol: float = 0.05,
    trace: list[tuple[int, complex]] | None = None,
) -> ClassLabel:
    """Label of the family map post-twisted by ``w``.

    Lifts the twist path repeatedly (each lift continues from the previous
    endpoint and lifts the previously lifted path), until three consecutive
    lifted paths contract entirely into the ``tol``-ball of one fixed point.
    Judging the endpoint alone is not enough: a twist whose first iterates
    fix the basepoint sheet parks its endpoints exactly on the base fixed
    point for several lifts before the dynamics moves away.
    """
    if w.alphabet != fam.alphabet:
        raise ValueError(f"word must be over {fam.alphabet.names}")
    if w.is_identity:
        return _nearest_label(fam, [fam.basepoint], tol)

    path: Sequence[complex] = word_path(fam, w)
    endpoint = fam.basepoint
    hits = 0
    last: ClassLabel | None = None
    for n in range(max_lifts):
        lifted = lift_path(fam, path, endpoint, step_tol)
        endpoint = lifted[-1]
        if trace is not None:
            trace.append((n, endpoint))
        label = _nearest_label(fam, lifted, tol)
        if label is not None and label == last:
            hits += 1
            if hits >= 3:
                return label
        else:
            hits = 1 if label is not None else 0
            last = label
        path = lifted
    raise Diverged(f"no fixed point reached within {max_lifts} lifts")


def _nearest_label(
    fam: RationalFamily, points: Sequence[complex], tol: float
) -> ClassLabel | None:
    for p, label in fam.fixed_points:
        if all(abs(z - p) < tol for z in points):
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
