"""Contraction machinery: restriction closures, nuclei, word problems,
Moore diagrams, automaton comparison and homotopy shifts.

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

One nucleus search expands each word once: its restrictions go through a
memo that lives for that call, and each round of its fixed-point loop scans
only the states the previous round added.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

from .labels import AlphabetMismatch, BoundExceeded, NotContracting
from .words import GenWord, _core_span
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


def _cyclic_core(w: GenWord) -> GenWord:
    """Cyclically reduced conjugate of ``w`` (matching end pairs stripped)."""
    i, j = _core_span(w.letters)
    if i == 0:
        return w
    return GenWord._trusted(w.alphabet, w.letters[i:j])


Restrict = Callable[[GenWord], WreathElem]


def _core_children(phi: Restrict, w: GenWord) -> tuple[GenWord, GenWord] | None:
    """Cyclic cores of the two restrictions of ``w``; None if ``w`` is active."""
    elem = phi(w)
    if elem.active:
        return None
    return _cyclic_core(elem.c0), _cyclic_core(elem.c1)


def _active_restriction(phi: Restrict, w: GenWord, bound: int) -> GenWord | None:
    """An active, cyclically reduced conjugate of a restriction of ``w`` under
    ``phi``, or None when ``w`` acts trivially (see :func:`is_trivial_action`)."""
    return _closure(
        [_cyclic_core(w)], lambda g: _core_children(phi, g), bound
    )[1]


def is_trivial_action(rec: Recursion, w: GenWord, bound: int = 10000) -> bool:
    """True iff ``w`` acts trivially on the whole binary tree.

    The action is trivial exactly when no element of the restriction closure
    is active.  Triviality is a conjugacy invariant, so the search walks
    cyclically reduced conjugates (which keeps it finite for recursions whose
    tables conjugate rather than shorten), and it stops at the first active
    state.
    """
    return _active_restriction(functools.partial(phi_apply, rec), w, bound) is None


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
    if w.alphabet != rec.alphabet:
        raise AlphabetMismatch(f"word must be over {rec.alphabet.names}")
    phi = functools.partial(phi_apply, rec)
    graph, stop = _closure(
        [_cyclic_core(w)],
        lambda g: () if g.is_identity else _core_children(phi, g),
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

    def __init__(self, phi: Restrict, bound: int):
        self.phi = phi
        self.bound = bound
        self.rep_of: dict[GenWord, GenWord] = {}
        self.by_portrait: dict[tuple, list[GenWord]] = {}

    def _portrait(self, w: GenWord) -> tuple:
        bits = []
        level = [w]
        for _ in range(self.PORTRAIT_DEPTH):
            nxt = []
            for g in level:
                elem = self.phi(g)
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
            if _active_restriction(self.phi, w * ~cand, self.bound) is None:
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
    # every restriction of this search, memoised for this call only
    phi = functools.cache(functools.partial(phi_apply, rec))
    if up_to_action:
        canon = _ActionIndex(phi, bound).canon
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
        elem = phi(w)
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

    # a state scanned in an earlier round has its products' ranges in result
    result: set[GenWord] = set()
    extra = {canon(one)}
    while extra:
        result |= extra
        new, extra = extra, set()
        for g in _sorted_words(new):
            for s in [one] + gen_list:
                for h in eventual_range(g * s):
                    if h not in result and h not in extra:
                        extra.add(h)
                        if len(result) + len(extra) > bound:
                            raise BoundExceeded(
                                f"nucleus candidate set grew past {bound}: "
                                f"not contracting within bound"
                            )
    return result


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
    actions agree, the first such state in sort order; the lookup is the
    up-to-action index of :func:`nucleus`, seeded with the states, and
    ``bound`` caps each of its action comparisons.
    """
    ordered = _sorted_words(set(states))
    pos = {s: i for i, s in enumerate(ordered)}
    phi = functools.cache(functools.partial(phi_apply, rec))
    canon = _ActionIndex(phi, bound).canon
    for s in ordered:
        canon(s)

    def resolve(target: GenWord) -> int | None:
        hit = pos.get(target)
        return hit if hit is not None else pos.get(canon(target))

    next0, next1, active = [], [], []
    violations: list[tuple[GenWord, int, GenWord]] = []
    for s in ordered:
        elem = phi(s)
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


def automata_distinct(d1: MooreDiagram, d2: MooreDiagram) -> bool:
    """True iff no state bijection preserves transitions and activity.

    Mirror images (the two tree branches relabelled) count as distinct:
    mirror-related recursions arise from complex-conjugate polynomials,
    which are genuinely inequivalent.  A comparison up to the mirror also
    compares against a copy of ``d2`` with ``next0`` and ``next1`` exchanged.

    The first unmapped state of d1 is tried against each unused state of d2,
    and the pair is propagated along both transitions: every state it
    reaches has a forced image, so only states that no mapped state reaches
    are guessed.
    """
    if d1.size != d2.size:
        return True

    def extend(image: dict[int, int]) -> bool:
        free = next((k for k in range(d1.size) if k not in image), None)
        if free is None:
            return True
        for j in set(range(d2.size)).difference(image.values()):
            trial, used = dict(image), set(image.values())
            pairs = [(free, j)]
            while pairs:
                k, m = pairs.pop()
                if k in trial:
                    if trial[k] != m:
                        break
                elif m in used or d1.active[k] != d2.active[m]:
                    break
                else:
                    trial[k] = m
                    used.add(m)
                    pairs += (
                        (d1.next0[k], d2.next0[m]), (d1.next1[k], d2.next1[m])
                    )
            else:
                if extend(trial):
                    return True
        return False

    return not extend({})


# --- homotopy shift ---------------------------------------------------------


def homotopy_shift(
    rec_a: Recursion, rec_b: Recursion, a_word: GenWord, nmax: int
) -> int | None:
    """Smallest |n| <= nmax with Phi_A(g) = Phi_B(a^n g a^-n) for every
    generator g, scanning n = 0, 1, -1, 2, -2, ...; None when no shift fits.
    Raises AlphabetMismatch when the recursions or ``a_word`` do not share
    one alphabet.
    """
    gens = rec_a.alphabet.gens()
    images = [phi_apply(rec_a, g) for g in gens]
    for n in _shift_order(nmax):
        shift = a_word ** (-n)
        if all(
            img == phi_apply(rec_b, g.conjugate(shift))
            for g, img in zip(gens, images)
        ):
            return n
    return None


def _shift_order(nmax: int):
    yield 0
    for k in range(1, nmax + 1):
        yield k
        yield -k
