"""The four benchmark workloads: seeded inputs, the timed call per item, and
the check each answer must pass.

Every item body looks library functions up through their module at call
time (``rabbit.classify_mcg(...)``, never a captured function object), so the
tracer's wrappers see the calls.  Expected answers come from an independent
oracle where one exists; otherwise from a label digest pinned at the commit
that introduced the benchmark.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from typing import Callable

from twistclass import cli, moduli, periodic2, preperiod2, rabbit, selfsim
from twistclass.labels import BoundExceeded, Diverged, obstructed
from twistclass.words import Alphabet


@dataclass
class Item:
    """One unit of work: ``run`` is timed, ``check`` judges its result."""

    run: Callable[[], object]
    check: Callable[[object], bool]
    letters: int = 0
    bucket: str | None = None


@dataclass
class Workload:
    name: str
    items: list[Item]
    #: percentile reported as item_tail_ms, fixed per workload so that runs
    #: with different sample counts report the same percentile; it keeps
    #: well over ten samples beyond it, so that a few scheduling hiccups in
    #: a run cannot move it
    tail_pct: float
    #: (group, got, want) for every pinned digest that did not match
    digest_errors: list[tuple[str, str, str]] = field(default_factory=list)
    #: numeric families in use; the tracer swaps in wrapped copies
    families: dict[str, moduli.RationalFamily] = field(default_factory=dict)


def reduced_letters(alphabet: Alphabet, length: int, rng: random.Random):
    """Random freely reduced letter sequence of exactly ``length`` letters,
    drawn letter by letter among the letters that do not cancel the last."""
    letters = [(n, s) for n in alphabet.names for s in (1, -1)]
    out: list[tuple[str, int]] = []
    while len(out) < length:
        allowed = [x for x in letters if not out or x != (out[-1][0], -out[-1][1])]
        out.append(rng.choice(allowed))
    return tuple(out)


def all_reduced_letters(alphabet: Alphabet, max_len: int):
    """Every freely reduced letter sequence up to ``max_len``, shortest first."""
    letters = [(n, s) for n in alphabet.names for s in (1, -1)]
    level = [()]
    out = [()]
    for _ in range(max_len):
        level = [
            w + (x,) for w in level for x in letters
            if not w or x != (w[-1][0], -w[-1][1])
        ]
        out.extend(level)
    return out


def _stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """One integer per equal-width stratum of [lo, hi), so every seed covers
    the range evenly."""
    width = (hi - lo) // count
    return [lo + k * width + rng.randrange(width) for k in range(count)]


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _pinned_group(
    wl: Workload, group: str, pinned: str, calls: list[tuple[str, int, Callable]]
) -> list[Item]:
    """Items whose answers have no independent oracle: run each call once,
    compare the digest of all labels with ``pinned``, and expect the same
    label from then on.  ``calls`` holds (word text, letters, call)."""
    labels = [str(call()) for _, _, call in calls]
    got = _digest([f"{text}\t{label}" for (text, _, _), label in zip(calls, labels)])
    if got != pinned:
        wl.digest_errors.append((group, got, pinned))
    return [
        Item(call, lambda r, want=label: str(r) == want, letters=letters)
        for (_, letters, call), label in zip(calls, labels)
    ]


# --- sweep ---------------------------------------------------------------------

SWEEP_TWIST_POWERS = 256        # one exponent per stratum of [-1024, 1024)
SWEEP_MCG_LEN = 6               # every reduced T,S word up to this length
SWEEP_AB_LEN = 6                # every reduced a,b word up to this length
SWEEP_DIGESTS = {
    "classify_mcg": "5084f0396eda760b",
    "classify_quater": "b18f6aab2ea87818",
    "classify_mod5": "dde96fccf32a8c5d",
}


def _twist_power(m: int):
    T = rabbit.MCG.gen("T")
    return rabbit.classify_mcg(T ** m), rabbit.classify_twist_power(m)


def _word_call(fn_name: str, module, alphabet: Alphabet, letters) -> Callable:
    def call():
        return getattr(module, fn_name)(alphabet.word(letters))
    return call


def sweep(seed: int) -> Workload:
    rng = random.Random(seed)
    wl = Workload("sweep", [], tail_pct=99.5)
    for m in _stratified(rng, -1024, 1024, SWEEP_TWIST_POWERS):
        # criterion 01: the iterator on T^m against the base-4 digits of m
        wl.items.append(Item(
            lambda m=m: _twist_power(m), lambda r: r[0] == r[1], letters=abs(m)
        ))
    mcg_words = all_reduced_letters(rabbit.MCG, SWEEP_MCG_LEN)
    ab_words = all_reduced_letters(preperiod2.MODULI, SWEEP_AB_LEN)
    groups = [
        ("classify_mcg", rabbit, rabbit.MCG, mcg_words),
        ("classify_quater", preperiod2, preperiod2.MODULI, ab_words),
        ("classify_mod5", periodic2, periodic2.MODULI, ab_words),
    ]
    for fn_name, module, alphabet, words in groups:
        calls = [
            (str(alphabet.word(w)), len(w), _word_call(fn_name, module, alphabet, w))
            for w in words
        ]
        wl.items.extend(_pinned_group(wl, fn_name, SWEEP_DIGESTS[fn_name], calls))
    rng.shuffle(wl.items)
    return wl


# --- long-text -----------------------------------------------------------------

LONG_TEXT_LENGTHS = (64, 256, 1024)
LONG_TEXT_WORDS = 2             # words per (length, command)

#: CLI command, its alphabet, and the library call with the CLI's budgets
LONG_TEXT_COMMANDS = (
    ("classify-rabbit", rabbit.MCG, lambda w: rabbit.classify_mcg(w, 1024)),
    ("classify-quater", preperiod2.MODULI,
     lambda w: preperiod2.classify_quater(w, 1024)),
    ("classify-i", periodic2.MODULI,
     lambda w: periodic2.classify_full(w, k_max=64, iter_max=1024, bound=10000)),
)


def cli_raw(argv: list[str]) -> tuple[int, str]:
    """Exit status and standard output of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_answer(command: str, text: str) -> tuple[int, str, int | None]:
    code, out = cli_raw([command, text, "--json"])
    payload = json.loads(out)
    return code, payload["label"], payload.get("index")


def _library_answer(call: Callable, word) -> tuple[int, str, int | None]:
    try:
        label = call(word)
    except BoundExceeded:
        return 3, "bound-exceeded", None
    except Diverged:
        return 3, "diverged", None
    return 0, label.kind, label.index


def long_text(seed: int) -> Workload:
    rng = random.Random(seed)
    wl = Workload("long-text", [], tail_pct=90.0)
    for length in LONG_TEXT_LENGTHS:
        for command, alphabet, call in LONG_TEXT_COMMANDS:
            for _ in range(LONG_TEXT_WORDS):
                word = alphabet.word(reduced_letters(alphabet, length, rng))
                want = _library_answer(call, word)
                wl.items.append(Item(
                    lambda c=command, t=str(word): _cli_answer(c, t),
                    lambda r, want=want: r == want,
                    letters=length,
                    bucket=f"len{length}",
                ))
    rng.shuffle(wl.items)
    return wl


# --- automata ------------------------------------------------------------------

#: nucleus sizes of the contracting built-ins
NUCLEUS_SIZES = {
    "rabbit": 9, "airplane": 7, "corabbit": 9, "mcg-rabbit": 7, "fi": 8,
    "fstar": 14, "q14": 9, "q34": 9, "q512": 10, "moduli-q": 9,
}
#: automata compared pairwise, within each family
FAMILY_GROUPS = (("rabbit", "airplane", "corabbit"), ("fi", "fstar"),
                 ("q14", "q34", "q512"))
AUTOMATA_INDICES = 32           # seeded obstructed indices per oracle
AUTOMATA_INDEX_RANGE = 48
#: state bound at which the non-contracting moduli-i nucleus search gives up
GIVEUP_BOUND = 200


def _nucleus_item(rec, up_to_action: bool):
    states = selfsim.nucleus(rec, rec.alphabet.gens(), 10000, up_to_action)
    return len(states), selfsim.moore_diagram(rec, states).size


def _give_up(rec, bound: int) -> str:
    try:
        selfsim.nucleus(rec, rec.alphabet.gens(), bound)
    except BoundExceeded:
        return "bound-exceeded"
    return "finished"


def _homotopy_shift():
    return selfsim.homotopy_shift(
        rabbit.twisted_rabbit_recursion(-1),
        rabbit.rabbit_recursion("C"),
        rabbit.ADDING_MACHINE,
        4,
    )


def automata(seed: int) -> Workload:
    rng = random.Random(seed)
    wl = Workload("automata", [], tail_pct=99.0)
    recs = {name: (factory(), flag) for name, (factory, flag) in cli.RECURSIONS.items()}
    diagrams = {}
    for name, size in NUCLEUS_SIZES.items():
        rec, flag = recs[name]
        diagrams[name] = selfsim.moore_diagram(
            rec, selfsim.nucleus(rec, rec.alphabet.gens(), 10000, flag)
        )
        wl.items.append(Item(
            lambda rec=rec, flag=flag: _nucleus_item(rec, flag),
            lambda r, size=size: r == (size, size),
        ))
    for group in FAMILY_GROUPS:
        for i, x in enumerate(group):
            for y in group[i + 1:]:
                wl.items.append(Item(
                    lambda d1=diagrams[x], d2=diagrams[y]: selfsim.automata_distinct(d1, d2),
                    lambda r: r is True,
                ))
    # criterion 05: the rabbit twisted by T^-1 is the corabbit, shift 0
    wl.items.append(Item(_homotopy_shift, lambda r: r == 0, letters=1))
    A, B = periodic2.MODULI.gens()
    span = AUTOMATA_INDEX_RANGE
    for n in _stratified(rng, -span, span, AUTOMATA_INDICES):
        wl.items.append(Item(
            lambda n=n: periodic2.classify_full(A * B ** n),
            lambda r, n=n: r == obstructed(n),
            letters=1 + abs(n),
        ))
    for r in _stratified(rng, -span, span, AUTOMATA_INDICES):
        wl.items.append(Item(
            lambda r=r: periodic2.obstructed_index(B ** r),
            lambda got, r=r: got == r,
            letters=abs(r),
        ))
    moduli_i = recs["moduli-i"][0]
    wl.items.append(Item(
        lambda: _give_up(moduli_i, GIVEUP_BOUND), lambda r: r == "bound-exceeded"
    ))
    rng.shuffle(wl.items)
    return wl


# --- numeric -------------------------------------------------------------------

#: The numeric word set is fixed: within one (family, length) stratum the
#: cost of classify_numeric spans three orders of magnitude (6 ms to 4 s for
#: i-family words of length 4), so a seed-drawn sample would make runs with
#: different seeds incomparable.  Each stratum contributes the word with the
#: median number of preimage evaluations among all reduced words of that
#: length.  The seed only permutes the order.
NUMERIC_WORDS = {
    "rabbit": ("S T", "S' S' S'", "T' S S S"),
    "quater": ("a b'", "a a b", "a b' a' b"),
    "i": ("b a", "b' a' b", "a b' a b'"),
}


def _word_level_label(family: str, word) -> str:
    if family == "rabbit":
        return rabbit.classify_mcg(word).kind
    if family == "quater":
        return preperiod2.classify_quater(word).kind
    return periodic2.classify_mod5(word).kind


def numeric(seed: int) -> Workload:
    rng = random.Random(seed)
    wl = Workload("numeric", [], tail_pct=85.0)
    wl.families = {name: factory() for name, factory in moduli.FAMILIES.items()}
    for family, texts in NUMERIC_WORDS.items():
        alphabet = wl.families[family].alphabet
        for text in texts:
            word = alphabet.parse(text)
            wl.items.append(Item(
                lambda f=family, w=word: moduli.classify_numeric(wl.families[f], w).kind,
                lambda r, want=_word_level_label(family, word): r == want,
                letters=len(word),
            ))
    rng.shuffle(wl.items)
    return wl


WORKLOADS = {
    "sweep": sweep,
    "long-text": long_text,
    "automata": automata,
    "numeric": numeric,
}
