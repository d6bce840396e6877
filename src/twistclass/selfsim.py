"""Contraction machinery: restriction closures, nuclei, word problems,
Moore diagrams, automaton comparison, homotopy shifts, and reconstruction of
a recursion from a virtual endomorphism.

Every closure search runs through one bounded breadth-first walk, _closure,
with one bound rule: a search may visit ``bound`` distinct states, and the
next distinct state raises BoundExceeded.  A blown bound is evidence (not
proof) that the recursion is not contracting on the given seeds.  A
self-loop is proof: if a non-trivial word ``w`` fixes a letter ``x`` and
``w|_x = w``, then ``w^n|_x = w^n`` for every ``n``, so the infinitely many
powers of ``w`` all lie in the word-level nucleus.  The nucleus search
raises NotContracting, a BoundExceeded, as soon as it meets one.

Two word problems live here and they differ: triviality of the tree action
(no active restriction anywhere) and membership in the kernel of the
iterated recursion (all deep restrictions become the empty word).  The
second is strictly stronger; see is_kernel_element.  Both walk cyclically
reduced conjugates of restrictions; the active state that ends a
triviality walk is the witness of a non-trivial action.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

from .labels import BoundExceeded, NotContracting
from .words import Alphabet, GenWord, _core_span
from .wreath import Recursion, WreathElem, phi_apply


def _sorted_words(words: Iterable[GenWord]) -> list[GenWord]:
    return sorted(words, key=GenWord.sort_key)


def _closure(
    roots: Iterable[GenWord],
    children: Callable[[GenWord], tuple[GenWord, ...] | None],
    bound: int,
) -> tuple[dict[GenWord, tuple[GenWord, ...]], GenWord | None]:
    """Breadth-first closure of ``roots`` under ``children``.

    Returns the successor graph of the states visited and the state at
    which ``children`` stopped the walk by returning None (None when the
    walk finished, and then every child is a key of the graph).  The
    (bound+1)-th distinct state raises BoundExceeded before ``children``
    sees it.
    """
    graph: dict[GenWord, tuple[GenWord, ...]] = {}
    queue = deque(roots)
    while queue:
        w = queue.popleft()
        if w in graph:
            continue
        if len(graph) >= bound:
            raise BoundExceeded(f"restriction closure grew past {bound} states")
        kids = children(w)
        if kids is None:
            return graph, w
        graph[w] = kids
        for child in kids:
            if child not in graph:
                queue.append(child)
    return graph, None


def _peel(graph: dict[GenWord, tuple[GenWord, ...]]) -> set[GenWord]:
    """Nodes of a closed graph reachable from a directed cycle (self-loops
    included): repeatedly drop nodes that have no predecessors."""
    indegree = dict.fromkeys(graph, 0)
    for kids in graph.values():
        for child in kids:
            indegree[child] += 1
    sources = [g for g, n in indegree.items() if n == 0]
    while sources:
        g = sources.pop()
        del indegree[g]
        for child in graph[g]:
            indegree[child] -= 1
            if indegree[child] == 0:
                sources.append(child)
    return set(indegree)


def restriction_closure(
    rec: Recursion, seeds: Iterable[GenWord], bound: int = 10000
) -> set[GenWord]:
    """Smallest set containing ``seeds`` and closed under restriction."""

    def children(w: GenWord) -> tuple[GenWord, GenWord]:
        elem = phi_apply(rec, w)
        return elem.c0, elem.c1

    return set(_closure(seeds, children, bound)[0])


def _cyclic_core(w: GenWord) -> GenWord:
    """Cyclically reduced conjugate of ``w`` (matching end pairs stripped)."""
    i, j = _core_span(w.letters)
    if i == 0:
        return w
    return GenWord._trusted(w.alphabet, w.letters[i:j])


def _core_children(rec: Recursion, w: GenWord) -> tuple[GenWord, GenWord] | None:
    """Cyclic cores of the two restrictions of ``w``; None if ``w`` is active."""
    elem = phi_apply(rec, w)
    if elem.active:
        return None
    return _cyclic_core(elem.c0), _cyclic_core(elem.c1)


def _active_restriction(rec: Recursion, w: GenWord, bound: int) -> GenWord | None:
    """An active, cyclically reduced conjugate of a restriction of ``w``, or
    None when ``w`` acts trivially (see :func:`is_trivial_action`)."""
    return _closure(
        [_cyclic_core(w)], lambda g: _core_children(rec, g), bound
    )[1]


def is_trivial_action(rec: Recursion, w: GenWord, bound: int = 10000) -> bool:
    """True iff ``w`` acts trivially on the whole binary tree.

    The action is trivial exactly when no element of the restriction closure
    is active.  Triviality is a conjugacy invariant, so the search walks
    cyclically reduced conjugates (which keeps it finite for recursions whose
    tables conjugate rather than shorten), and it stops at the first active
    state.
    """
    return _active_restriction(rec, w, bound) is None


def is_kernel_element(rec: Recursion, w: GenWord, bound: int = 10000) -> bool:
    """True iff ``w`` dies under iterated restriction: at some depth every
    restriction is the empty word (``w`` is trivial in the quotient by the
    kernels of the iterated wreath recursion).

    This is strictly stronger than acting trivially on the tree: an element
    may fix every vertex yet keep non-trivial restriction words forever, and
    such an element is *not* a kernel element.

    The walk runs over cyclic cores, with the identity as a leaf and an
    active state ending it (outside the kernel).  A finished walk is
    outside the kernel exactly when its graph has a cycle.
    """
    graph, stop = _closure(
        [_cyclic_core(w)],
        lambda g: () if g.is_identity else _core_children(rec, g),
        bound,
    )
    return stop is None and not _peel(graph)


def action_equal(
    rec: Recursion, u: GenWord, v: GenWord, bound: int = 10000
) -> bool:
    """Equality of the tree actions of two words."""
    return is_trivial_action(rec, u * ~v, bound)


class _ActionIndex:
    """Canonical representatives of words up to equal tree action.

    Candidate matches are pre-filtered by the activity portrait of the first
    few tree levels; only portrait collisions pay for a word-problem run.
    """

    PORTRAIT_DEPTH = 4

    def __init__(self, rec: Recursion, bound: int):
        self.rec = rec
        self.bound = bound
        self.rep_of: dict[GenWord, GenWord] = {}
        self.by_portrait: dict[tuple, list[GenWord]] = {}

    def _portrait(self, w: GenWord) -> tuple:
        bits = []
        level = [w]
        for _ in range(self.PORTRAIT_DEPTH):
            nxt = []
            for g in level:
                elem = phi_apply(self.rec, g)
                bits.append(elem.active)
                nxt.append(elem.c0)
                nxt.append(elem.c1)
            level = nxt
        return tuple(bits)

    def canon(self, w: GenWord) -> GenWord:
        hit = self.rep_of.get(w)
        if hit is not None:
            return hit
        key = self._portrait(w)
        for cand in self.by_portrait.get(key, []):
            if is_trivial_action(self.rec, w * ~cand, self.bound):
                self.rep_of[w] = cand
                return cand
        self.rep_of[w] = w
        self.by_portrait.setdefault(key, []).append(w)
        return w


def nucleus(
    rec: Recursion,
    gens: Iterable[GenWord],
    bound: int = 10000,
    up_to_action: bool = False,
) -> set[GenWord]:
    """Nucleus of the recursion: the least set containing 1 whose products
    with generators have all sufficiently deep restrictions back in the set.

    By default states are reduced words of the group carrying the recursion.
    With ``up_to_action`` words are identified when their tree actions agree,
    which computes the nucleus of the faithful quotient instead; recursions
    whose quotient has torsion are only contracting in that sense.  Raises
    BoundExceeded when the candidate set, one restriction closure or the
    search work grows past the budget, which reports the recursion as not
    contracting within bound.

    Over words the search also raises NotContracting, a BoundExceeded,
    on the first expanded state ``w`` that is not the identity, is
    inactive and is its own restriction at a letter ``x``: all powers of
    ``w`` are then in the nucleus, so it is infinite and the search could
    never finish.  Up to action the powers of ``w`` may coincide (``b^4``
    acts trivially under the moduli-i recursion), so that mode has no
    certificate and stops only on its budget.
    """
    one = rec.alphabet.identity()
    if up_to_action:
        canon = _ActionIndex(rec, bound).canon
    else:
        # one object per word: set and dict lookups then match on identity
        # and skip the dataclass __eq__
        interned: dict[GenWord, GenWord] = {}
        canon = lambda w: interned.setdefault(w, w)
    budget = max(100 * bound, 200000)

    def children(w: GenWord) -> tuple[GenWord, GenWord]:
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise BoundExceeded("nucleus search expanded more states than its budget")
        elem = phi_apply(rec, w)
        c0, c1 = canon(elem.c0), canon(elem.c1)
        # w is interned too, so `is` finds a self-loop
        if not up_to_action and not elem.active and w.letters and (
            c0 is w or c1 is w
        ):
            raise NotContracting(w, 0 if c0 is w else 1)
        return c0, c1

    cache: dict[GenWord, set[GenWord]] = {}

    def eventual_range(w: GenWord) -> set[GenWord]:
        # class representatives appearing as restrictions of w at
        # arbitrarily large depth
        w = canon(w)
        if w not in cache:
            cache[w] = _peel(_closure([w], children, bound)[0])
        return cache[w]

    symmetric = {canon(h) for g in gens for h in (g, ~g)}
    symmetric.discard(one)
    gen_list = _sorted_words(symmetric)

    result: set[GenWord] = {canon(one)}
    while True:
        extra: set[GenWord] = set()
        for g in _sorted_words(result):
            for s in [one] + gen_list:
                for h in eventual_range(g * s):
                    if h not in result and h not in extra:
                        extra.add(h)
                        if len(result) + len(extra) > bound:
                            raise BoundExceeded(
                                f"nucleus candidate set grew past {bound}: "
                                f"not contracting within bound"
                            )
        if not extra:
            return result
        result |= extra


# --- Moore diagrams ---------------------------------------------------------


@dataclass(frozen=True)
class MooreDiagram:
    """Automaton view of a state-closed set: states, transitions, activity."""

    states: tuple[GenWord, ...]
    next0: tuple[int, ...]
    next1: tuple[int, ...]
    active: tuple[bool, ...]

    @property
    def size(self) -> int:
        return len(self.states)

    def to_json(self) -> str:
        payload = [
            {
                "state": str(self.states[i]),
                "active": self.active[i],
                "next": [str(self.states[self.next0[i]]),
                         str(self.states[self.next1[i]])],
            }
            for i in range(self.size)
        ]
        return json.dumps({"states": payload}, indent=2, sort_keys=True)

    def to_dot(self) -> str:
        lines = ["digraph moore {", "  rankdir=LR;"]
        for i, s in enumerate(self.states):
            color = "grey" if self.active[i] else "white"
            lines.append(
                f'  "{s}" [style=filled, fillcolor={color}];'
            )
        for i, s in enumerate(self.states):
            lines.append(f'  "{s}" -> "{self.states[self.next0[i]]}" [label="0"];')
            lines.append(f'  "{s}" -> "{self.states[self.next1[i]]}" [label="1"];')
        lines.append("}")
        return "\n".join(lines)


class NotStateClosed(ValueError):
    def __init__(self, violations: list[tuple[GenWord, int, GenWord]]):
        self.violations = violations
        detail = "; ".join(
            f"{state}|_{letter} = {target}" for state, letter, target in violations
        )
        super().__init__(f"state set is not closed under restriction: {detail}")


def moore_diagram(
    rec: Recursion,
    states: Iterable[GenWord],
    bound: int = 10000,
) -> MooreDiagram:
    """Build the Moore diagram of a state-closed set, or report violations.

    A restriction target counts as one of the given states when their tree
    actions agree; ``bound`` caps each of those action comparisons.
    """
    ordered = _sorted_words(set(states))
    pos = {s: i for i, s in enumerate(ordered)}

    def resolve(target: GenWord) -> int | None:
        hit = pos.get(target)
        if hit is not None:
            return hit
        for s in ordered:
            if action_equal(rec, target, s, bound):
                pos[target] = pos[s]
                return pos[s]
        return None

    next0, next1, active = [], [], []
    violations: list[tuple[GenWord, int, GenWord]] = []
    for s in ordered:
        elem = phi_apply(rec, s)
        row = []
        for letter, child in ((0, elem.c0), (1, elem.c1)):
            hit = resolve(child)
            if hit is None:
                violations.append((s, letter, child))
            else:
                row.append(hit)
        if not violations:
            next0.append(row[0])
            next1.append(row[1])
            active.append(elem.active)
    if violations:
        raise NotStateClosed(violations)
    return MooreDiagram(tuple(ordered), tuple(next0), tuple(next1), tuple(active))


def _refine_colors(d: MooreDiagram, swap: bool) -> tuple[int, ...]:
    n0 = d.next1 if swap else d.next0
    n1 = d.next0 if swap else d.next1
    colors = tuple(1 if a else 0 for a in d.active)
    while True:
        sig = [
            (colors[i], colors[n0[i]], colors[n1[i]]) for i in range(d.size)
        ]
        palette = {s: c for c, s in enumerate(sorted(set(sig)))}
        new = tuple(palette[s] for s in sig)
        if new == colors:
            return colors
        colors = new


def _isomorphic(d1: MooreDiagram, d2: MooreDiagram, swap: bool) -> bool:
    """Transition/activity-preserving bijection test, optionally with the two
    input letters of d2 swapped."""
    if d1.size != d2.size:
        return False
    c1 = _refine_colors(d1, False)
    c2 = _refine_colors(d2, swap)
    if sorted(c1) != sorted(c2):
        return False
    n0 = d2.next1 if swap else d2.next0
    n1 = d2.next0 if swap else d2.next1

    mapping: dict[int, int] = {}
    used: set[int] = set()

    def consistent() -> bool:
        for k, m in mapping.items():
            if d1.active[k] != d2.active[m]:
                return False
            for nxt1, nxt2 in ((d1.next0[k], n0[m]), (d1.next1[k], n1[m])):
                if nxt1 in mapping and mapping[nxt1] != nxt2:
                    return False
        return True

    def extend(i: int) -> bool:
        if i == d1.size:
            return True
        for j in range(d2.size):
            if j in used or c1[i] != c2[j]:
                continue
            mapping[i] = j
            used.add(j)
            if consistent() and extend(i + 1):
                return True
            del mapping[i]
            used.discard(j)
        return False

    return extend(0)


def automata_distinct(
    d1: MooreDiagram, d2: MooreDiagram, allow_letter_swap: bool = False
) -> bool:
    """True iff no state bijection preserves transitions and activity.

    ``allow_letter_swap`` additionally accepts mirror images (the two tree
    branches relabelled) as isomorphic.  It is off by default: mirror-related
    recursions arise from complex-conjugate polynomials, which are genuinely
    inequivalent, so the mirror must count as distinct.
    """
    if _isomorphic(d1, d2, False):
        return False
    if allow_letter_swap and _isomorphic(d1, d2, True):
        return False
    return True


# --- homotopy shift ---------------------------------------------------------


def homotopy_shift(
    rec_a: Recursion, rec_b: Recursion, a_word: GenWord, nmax: int
) -> int | None:
    """Smallest |n| <= nmax with Phi_A(g) = Phi_B(a^n g a^-n) for every
    generator g, scanning n = 0, 1, -1, 2, -2, ...; None when no shift fits.
    """
    if rec_a.alphabet != rec_b.alphabet:
        return None
    gens = rec_a.alphabet.gens()
    for n in _shift_order(nmax):
        shift = a_word ** (-n)
        if all(
            phi_apply(rec_a, g) == phi_apply(rec_b, g.conjugate(shift))
            for g in gens
        ):
            return n
    return None


def _shift_order(nmax: int):
    yield 0
    for k in range(1, nmax + 1):
        yield k
        yield -k


# --- reconstruction from a virtual endomorphism ------------------------------


class CosetAssignmentError(ValueError):
    """The coset oracle disagrees with the supplied domain data."""


@dataclass(frozen=True)
class VirtualEndo:
    """Index-two virtual endomorphism given on domain generators.

    ``coset_of`` assigns each word its coset index in {0, 1}; it must be a
    homomorphism onto Z/2 with the first rep in coset 0 and the second in
    coset 1.
    """

    alphabet: Alphabet
    domain_gens: tuple[GenWord, ...]
    images: tuple[GenWord, ...]
    coset_reps: tuple[GenWord, GenWord]
    coset_of: Callable[[GenWord], int]

    def __post_init__(self):
        if len(self.domain_gens) != len(self.images):
            raise ValueError("domain_gens and images must have equal length")
        if not self.coset_reps[0].is_identity:
            raise ValueError("the first coset rep must be the identity")
        if self.coset_of(self.coset_reps[0]) != 0 or self.coset_of(
            self.coset_reps[1]
        ) != 1:
            raise CosetAssignmentError(
                "coset reps must land in cosets 0 and 1 respectively"
            )


class _PhiEvaluator:
    """Evaluates the virtual endomorphism on arbitrary domain words by
    rewriting them over Schreier generators for the rep transversal."""

    def __init__(self, v: VirtualEndo):
        self.v = v
        self.table: dict[GenWord, GenWord] = {}
        one = v.alphabet.identity()
        self.table[one] = one
        for g, img in zip(v.domain_gens, v.images):
            self.table[g] = img
            self.table[~g] = ~img

    def _lookup(self, s: GenWord) -> GenWord:
        if s in self.table:
            return self.table[s]
        # express s as a short product of supplied domain generators
        basis = [g for g in self.table if not g.is_identity]
        frontier: list[tuple[GenWord, GenWord]] = [
            (g, self.table[g]) for g in basis
        ]
        seen = {g for g, _ in frontier}
        for _ in range(3):  # products of length <= 4
            nxt: list[tuple[GenWord, GenWord]] = []
            for word, img in frontier:
                for g in basis:
                    w2 = word * g
                    if w2 in seen:
                        continue
                    seen.add(w2)
                    img2 = img * self.table[g]
                    if w2 == s:
                        self.table[s] = img2
                        return img2
                    nxt.append((w2, img2))
            frontier = nxt
        raise CosetAssignmentError(
            f"cannot express {s} in the supplied domain generators"
        )

    def __call__(self, u: GenWord) -> GenWord:
        v = self.v
        state = 0
        out = v.alphabet.identity()
        for name, sign in u.letters:
            letter = GenWord(v.alphabet, ((name, sign),))
            new_state = state ^ (v.coset_of(letter) & 1)
            s = v.coset_reps[state] * letter * ~v.coset_reps[new_state]
            out = out * self._lookup(s)
            state = new_state
        if state != 0:
            raise CosetAssignmentError(f"{u} is not in the domain")
        return out


def recursion_from_virtual_endo(
    v: VirtualEndo, h_words: tuple[GenWord, GenWord] | None = None
) -> Recursion:
    """Rebuild a wreath recursion whose letter-0 virtual endomorphism is ``v``.

    Coordinate i of Phi(g) is ``h_i^-1 phi(r_i g r_{k_i}^-1) h_{k_i}`` with
    k_i the coset of r_i g; changing the correction words ``h_words`` moves
    Phi by an inner automorphism only.
    """
    one = v.alphabet.identity()
    if h_words is None:
        h_words = (one, one)
    phi = _PhiEvaluator(v)
    reps = v.coset_reps
    table: dict[str, WreathElem] = {}
    for name in v.alphabet.names:
        g = v.alphabet.gen(name)
        k0 = v.coset_of(g) & 1
        coords: list[GenWord] = []
        for i in (0, 1):
            ki = i ^ k0
            arg = reps[i] * g * ~reps[ki]
            coords.append(~h_words[i] * phi(arg) * h_words[ki])
        table[name] = WreathElem(coords[0], coords[1], k0 == 1)
    return Recursion.make(v.alphabet, table)
