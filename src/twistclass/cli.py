"""Command-line front door.

Exit status: 0 on success, 2 on argument/word parse errors and unwritable
output files, 3 when a bounded search or iteration gave up (BoundExceeded /
Diverged / branch ambiguity).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Callable

from . import moduli, periodic2, preperiod2, rabbit, selfsim
from .labels import (
    BoundExceeded,
    BranchAmbiguity,
    ClassLabel,
    Diverged,
    PunctureProximity,
    WordParseError,
)
from .words import Alphabet, GenWord
from .wreath import Recursion, iterate_to_terminal

#: flat registry of the built-in recursions, keyed by CLI name; the flag
#: marks recursions whose nuclei only exist over the group of tree actions
#: (their word-level nuclei are infinite)
RECURSIONS: dict[str, tuple[Callable[[], Recursion], bool]] = {
    "rabbit": (lambda: rabbit.rabbit_recursion("R"), False),
    "airplane": (lambda: rabbit.rabbit_recursion("A"), False),
    "corabbit": (lambda: rabbit.rabbit_recursion("C"), False),
    "mcg-rabbit": (rabbit.mcg_recursion, False),
    "fi": (periodic2.fi_recursion, True),
    "fstar": (periodic2.fstar_recursion, True),
    "moduli-i": (periodic2.moduli_i_recursion, False),
    "q14": (lambda: preperiod2.quater_recursion("F14"), True),
    "q34": (lambda: preperiod2.quater_recursion("F34"), True),
    "q512": (lambda: preperiod2.quater_recursion("F512"), True),
    "moduli-q": (preperiod2.moduli_q_recursion, False),
}


def _parse_word(alphabet: Alphabet, text: str) -> GenWord:
    return alphabet.parse(text)


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _label_payload(command: str, source: str, label: ClassLabel, **extra) -> dict:
    payload = {"command": command, "input": source, "label": label.kind}
    if label.index is not None:
        payload["index"] = label.index
    payload.update(extra)
    return payload


def _cmd_classify_rabbit(args) -> int:
    if args.power is not None:
        label = rabbit.classify_twist_power(args.power)
        payload = _label_payload("classify-rabbit", f"T^{args.power}", label)
        _emit(args, payload, f"T^{args.power} twist: {label}")
        return 0
    if args.st_power is not None:
        label = rabbit.classify_st_power(args.st_power, args.max_iters)
        payload = _label_payload("classify-rabbit", f"(ST)^{args.st_power}", label)
        _emit(args, payload, f"(ST)^{args.st_power} twist: {label}")
        return 0
    if args.word is None:
        print(
            "classify-rabbit needs a word, --power or --st-power",
            file=sys.stderr,
        )
        return 2
    w = _parse_word(rabbit.MCG, args.word)
    return _emit_orbit(args, w, rabbit.psi_bar, rabbit.TERMINAL_LABELS)


def _emit_orbit(args, w: GenWord, step, terminals) -> int:
    """Report the label of the orbit of ``w`` under ``step``, with the
    terminal word it reaches and the step count."""
    label, witness, steps = iterate_to_terminal(step, terminals, w, args.max_iters)
    payload = _label_payload(
        args.command, str(w), label, iterations=steps, witness=str(witness)
    )
    _emit(args, payload, f"{w} twist: {label} (reached {witness} in {steps} steps)")
    return 0


def _cmd_classify_i(args) -> int:
    w = _parse_word(periodic2.MODULI, args.word)
    label = periodic2.classify_full(
        w, k_max=args.k_max, iter_max=args.max_iters, bound=args.bound
    )
    payload = _label_payload("classify-i", str(w), label)
    if label.index is not None:
        payload["witness"] = str(periodic2.MODULI.gen("b") ** label.index)
    _emit(args, payload, f"{w} twist: {label}")
    return 0


def _cmd_classify_quater(args) -> int:
    w = _parse_word(preperiod2.MODULI, args.word)
    return _emit_orbit(args, w, preperiod2.psi_bar_q, preperiod2.TERMINAL_LABELS)


def _cmd_nucleus(args) -> int:
    factory, group_level = RECURSIONS[args.name]
    rec = factory()
    states = selfsim.nucleus(
        rec, rec.alphabet.gens(), args.bound, up_to_action=group_level
    )
    diagram = selfsim.moore_diagram(rec, states)
    if args.dot:
        print(diagram.to_dot())
        return 0
    ordered = sorted(states, key=GenWord.sort_key)
    payload = {
        "command": "nucleus",
        "input": args.name,
        "count": len(ordered),
        "states": [str(s) for s in ordered],
    }
    _emit(
        args,
        payload,
        f"nucleus of {args.name}: {len(ordered)} states\n"
        + "\n".join(f"  {s}" for s in ordered),
    )
    return 0


def _cmd_distinct(args) -> int:
    fac1, lvl1 = RECURSIONS[args.first]
    fac2, lvl2 = RECURSIONS[args.second]
    rec1, rec2 = fac1(), fac2()
    d1 = selfsim.moore_diagram(
        rec1, selfsim.nucleus(rec1, rec1.alphabet.gens(), args.bound, lvl1)
    )
    d2 = selfsim.moore_diagram(
        rec2, selfsim.nucleus(rec2, rec2.alphabet.gens(), args.bound, lvl2)
    )
    distinct = selfsim.automata_distinct(d1, d2)
    payload = {
        "command": "distinct",
        "input": f"{args.first} {args.second}",
        "distinct": distinct,
        "sizes": [d1.size, d2.size],
    }
    verdict = "distinct" if distinct else "isomorphic"
    _emit(args, payload, f"{args.first} vs {args.second}: nuclei are {verdict}")
    return 0


def _cmd_trivial(args) -> int:
    rec = RECURSIONS[args.name][0]()
    w = _parse_word(rec.alphabet, args.word)
    trivial = selfsim.is_trivial_action(rec, w, args.bound)
    payload = {
        "command": "trivial",
        "input": str(w),
        "trivial": trivial,
    }
    if not trivial:
        payload["witness"] = str(_active_witness(rec, w, args.bound))
    verdict = "trivial" if trivial else "non-trivial"
    _emit(args, payload, f"{w} acts {verdict}ly on the tree")
    return 0


def _active_witness(rec: Recursion, w: GenWord, bound: int) -> GenWord:
    from collections import deque

    from .wreath import phi_apply

    seen, queue = set(), deque([w])
    while queue:
        cur = queue.popleft()
        if cur in seen:
            continue
        seen.add(cur)
        elem = phi_apply(rec, cur)
        if elem.active:
            return cur
        queue.extend(c for c in (elem.c0, elem.c1) if c not in seen)
        if len(seen) > bound:
            break
    return w


def _cmd_moduli(args) -> int:
    fam = moduli.FAMILIES[args.family]()
    w = _parse_word(fam.alphabet, args.word)
    trace: list[tuple[int, complex]] = []
    label = moduli.classify_numeric(
        fam, w, max_lifts=args.max_lifts, tol=args.tol, trace=trace
    )
    if args.trace_file:
        try:
            with open(args.trace_file, "w", encoding="utf-8") as fh:
                fh.write(moduli.format_trace(trace) + "\n")
        except OSError as exc:
            print(f"error: cannot write the trace file: {exc}", file=sys.stderr)
            return 2
    payload = _label_payload(
        "moduli", str(w), label, iterations=len(trace), family=args.family
    )
    _emit(
        args,
        payload,
        f"{args.family} family, twist {w}: {label} ({len(trace)} lifts)",
    )
    return 0


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite positive number, got {text!r}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistclass",
        description="Decide equivalence classes of twisted quadratic "
        "topological polynomials.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="machine-readable output")
    common.add_argument("--bound", type=int, default=10000,
                        help="state bound for closures and nuclei")
    common.add_argument("--max-iters", type=int, default=1024,
                        help="iteration budget for the word classifiers")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add("classify-rabbit", help="classify a period-3 twist")
    p.add_argument("word", nargs="?", help="word over T, S")
    p.add_argument("--power", type=int, help="classify the pure twist T^m")
    p.add_argument("--st-power", type=int, help="classify the twist (ST)^m")
    p.set_defaults(func=_cmd_classify_rabbit)

    p = add("classify-i", help="classify a preperiod-1 twist")
    p.add_argument("word", help="word over a, b")
    p.add_argument("--k-max", type=int, default=64,
                   help="largest obstructed index searched")
    p.set_defaults(func=_cmd_classify_i)

    p = add("classify-quater", help="classify a preperiod-2 twist")
    p.add_argument("word", help="word over a, b")
    p.set_defaults(func=_cmd_classify_quater)

    p = add("nucleus", help="nucleus of a built-in recursion")
    p.add_argument("name", choices=sorted(RECURSIONS))
    p.add_argument("--dot", action="store_true", help="emit a DOT diagram")
    p.set_defaults(func=_cmd_nucleus)

    p = add("distinct", help="compare two nuclei as automata")
    p.add_argument("first", choices=sorted(RECURSIONS))
    p.add_argument("second", choices=sorted(RECURSIONS))
    p.set_defaults(func=_cmd_distinct)

    p = add("trivial", help="decide triviality of a tree action")
    p.add_argument("name", choices=sorted(RECURSIONS))
    p.add_argument("word")
    p.set_defaults(func=_cmd_trivial)

    p = add("moduli", help="numeric classification via pull-back")
    p.add_argument("family", choices=sorted(moduli.FAMILIES))
    p.add_argument("word")
    p.add_argument("--tol", type=_positive_float, default=1e-6,
                   help="fixed-point convergence tolerance")
    p.add_argument("--max-lifts", type=int, default=200)
    p.add_argument("--trace-file", help="write the lift trajectory here")
    p.set_defaults(func=_cmd_moduli)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except WordParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (BoundExceeded, Diverged, BranchAmbiguity, PunctureProximity) as exc:
        print(f"gave up: {exc}", file=sys.stderr)
        if args.json:
            kind = "bound-exceeded" if isinstance(exc, BoundExceeded) else "diverged"
            print(json.dumps({"command": args.command, "label": kind}))
        return 3


if __name__ == "__main__":
    sys.exit(main())
