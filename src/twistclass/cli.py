"""Command-line front door.

Exit status: 0 on success, 2 on argument/word parse errors and unwritable
output files, 3 when a bounded search or iteration gave up (BoundExceeded /
Diverged / branch ambiguity) or a lift ran into a puncture
(PunctureProximity); with --json every give-up but BoundExceeded is
labelled ``diverged``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable

from . import moduli, periodic2, preperiod2, rabbit, selfsim
from .labels import (
    BoundExceeded,
    BranchAmbiguity,
    ClassLabel,
    Diverged,
    NotContracting,
    PunctureProximity,
    WordParseError,
)
from .words import MAX_WORD_LENGTH, GenWord
from .wreath import Recursion, iterate_to_terminal

#: flat registry of the built-in recursions, keyed by CLI name; the flag
#: takes a nucleus up to action, where the word-level one is infinite
#: (squares of generators fix subtrees yet keep non-trivial restrictions)
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
    # argparse keeps --power and --st-power apart; the word is checked here,
    # after parse_args, since argparse takes the value of an option the
    # command does not read ("--max-iters 3") for the word, and a group
    # holding the word would report that clash instead of the option
    flag = ("--power" if args.power is not None
            else "--st-power" if args.st_power is not None else None)
    if (args.word is None) == (flag is None):
        reason = (f"argument word: not allowed with argument {flag}" if flag
                  else "one of the arguments word --power --st-power is required")
        print(f"error: {reason}", file=sys.stderr)
        return 2
    if args.power is not None:
        label = rabbit.classify_twist_power(args.power)
        payload = _label_payload("classify-rabbit", f"T^{args.power}", label)
        _emit(args, payload, f"T^{args.power} twist: {label}")
        return 0
    if args.st_power is not None:
        label = rabbit.classify_st_power(args.st_power)
        payload = _label_payload("classify-rabbit", f"(ST)^{args.st_power}", label)
        _emit(args, payload, f"(ST)^{args.st_power} twist: {label}")
        return 0
    w = rabbit.MCG.parse(args.word)
    return _emit_orbit(args, w, rabbit.psi_bar, rabbit.terminal_label)


def _emit_orbit(args, w: GenWord, step, stop) -> int:
    """Report the label of the orbit of ``w`` under ``step`` until ``stop``
    names a terminal word, with that word and the step count."""
    label, witness, steps = iterate_to_terminal(step, stop, w)
    text, witness = str(w), str(witness)
    payload = _label_payload(
        args.command, text, label, iterations=steps, witness=witness
    )
    _emit(args, payload, f"{text} twist: {label} (reached {witness} in {steps} steps)")
    return 0


def _cmd_classify_i(args) -> int:
    w = periodic2.MODULI.parse(args.word)
    label = periodic2.classify_full(w)
    text = str(w)
    payload = _label_payload("classify-i", text, label)
    if label.index is not None:
        payload["witness"] = str(periodic2.MODULI.gen("b") ** label.index)
    _emit(args, payload, f"{text} twist: {label}")
    return 0


def _cmd_classify_quater(args) -> int:
    w = preperiod2.MODULI.parse(args.word)
    return _emit_orbit(args, w, preperiod2.psi_bar_q, preperiod2.terminal_label)


def _diagram(name: str, bound: int) -> selfsim.MooreDiagram:
    """Moore diagram of the nucleus of the built-in recursion ``name``, the
    nucleus taken up to action where the registry says so; both steps keep
    the bound rule and the letter budget of ``bound``."""
    factory, up_to_action = RECURSIONS[name]
    rec = factory()
    states = selfsim.nucleus(rec, rec.alphabet.gens(), bound, up_to_action)
    return selfsim.moore_diagram(rec, states, bound)


def _cmd_nucleus(args) -> int:
    if args.dot and args.json:
        print("error: --dot and --json exclude each other", file=sys.stderr)
        return 2
    diagram = _diagram(args.name, args.bound)
    if args.dot:
        print(diagram.to_dot())
        return 0
    payload = {
        "command": "nucleus",
        "input": args.name,
        "count": diagram.size,
        "states": [str(s) for s in diagram.states],
    }
    _emit(
        args,
        payload,
        f"nucleus of {args.name}: {diagram.size} states\n"
        + "\n".join(f"  {s}" for s in diagram.states),
    )
    return 0


def _cmd_distinct(args) -> int:
    d1 = _diagram(args.first, args.bound)
    d2 = _diagram(args.second, args.bound)
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
    w = rec.alphabet.parse(args.word)
    witness = selfsim._Search(rec, args.bound).walk(w)[1]
    text = str(w)
    payload = {
        "command": "trivial",
        "input": text,
        "trivial": witness is None,
    }
    if witness is not None:
        payload["witness"] = str(witness)
    verdict = "trivial" if witness is None else "non-trivial"
    _emit(args, payload, f"{text} acts {verdict}ly on the tree")
    return 0


def _cmd_moduli(args) -> int:
    fam = moduli.FAMILIES[args.family]()
    w = fam.alphabet.parse(args.word)
    trace: list[tuple[int, complex]] = []
    try:
        label = moduli.classify_numeric(fam, w, max_lifts=args.max_lifts, trace=trace)
    finally:
        # written on a give-up too, when the lifts so far matter most; a
        # write error replaces the give-up and exits 2
        if args.trace_file:
            with open(args.trace_file, "w", encoding="utf-8") as fh:
                fh.write(moduli.format_trace(trace) + "\n")
    text = str(w)
    payload = _label_payload(
        "moduli", text, label, iterations=len(trace), family=args.family
    )
    _emit(args, payload,
          f"{args.family} family, twist {text}: {label} ({len(trace)} lifts)")
    return 0


def _int_between(low: int, high: int | None = None) -> Callable[[str], int]:
    """argparse type: an integer ``>= low`` and, if given, ``<= high``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low or (high is not None and value > high):
            span = f">= {low}" if high is None else f"between {low} and {high}"
            raise argparse.ArgumentTypeError(
                f"must be an integer {span}, got {text!r}"
            )
        return value

    return parse


_positive_int = _int_between(1)
#: (ST)^m has 2|m| letters, which obeys the parser's word-length cap
_st_exponent = _int_between(-(MAX_WORD_LENGTH // 2), MAX_WORD_LENGTH // 2)


def _option(*names: str, **kwargs) -> argparse.ArgumentParser:
    """Parent parser holding one option, for the commands that read it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **kwargs)
    return parent


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``twistclass`` parser, built on the first call and shared by
    every later one in the process, so callers must not mutate it.  Each
    ``parse_args`` still returns a fresh namespace, and argparse looks up
    ``sys.stdout``, ``sys.stderr`` and the help width when it prints."""
    parser = argparse.ArgumentParser(
        prog="twistclass",
        description="Decide equivalence classes of twisted quadratic "
        "topological polynomials.",
    )
    # each command takes only the options it reads, so any other exits 2
    json_opt = _option("--json", action="store_true",
                       help="machine-readable output")
    bound = _option("--bound", type=_positive_int, default=10000,
                    help="states a nucleus or one word-problem walk may hold; "
                    "restrictions may hold max(100x, 100000) letters")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, *options: argparse.ArgumentParser, **kwargs):
        return sub.add_parser(name, parents=[json_opt, *options], **kwargs)

    p = add("classify-rabbit", help="classify a period-3 twist")
    p.add_argument("word", nargs="?", help="word over T, S")
    given = p.add_mutually_exclusive_group()
    given.add_argument("--power", type=int, help="classify the pure twist T^m")
    given.add_argument("--st-power", type=_st_exponent,
                       help="classify the twist (ST)^m")
    p.set_defaults(func=_cmd_classify_rabbit)

    p = add("classify-i", help="classify a preperiod-1 twist")
    p.add_argument("word", help="word over a, b")
    p.set_defaults(func=_cmd_classify_i)

    p = add("classify-quater", help="classify a preperiod-2 twist")
    p.add_argument("word", help="word over a, b")
    p.set_defaults(func=_cmd_classify_quater)

    p = add("nucleus", bound, help="nucleus of a built-in recursion")
    p.add_argument("name", choices=sorted(RECURSIONS))
    p.add_argument("--dot", action="store_true", help="emit a DOT diagram")
    p.set_defaults(func=_cmd_nucleus)

    p = add("distinct", bound, help="compare two nuclei as automata")
    p.add_argument("first", choices=sorted(RECURSIONS))
    p.add_argument("second", choices=sorted(RECURSIONS))
    p.set_defaults(func=_cmd_distinct)

    p = add("trivial", bound, help="decide triviality of a tree action")
    p.add_argument("name", choices=sorted(RECURSIONS))
    p.add_argument("word")
    p.set_defaults(func=_cmd_trivial)

    p = add("moduli", help="numeric classification via pull-back")
    p.add_argument("family", choices=sorted(moduli.FAMILIES))
    p.add_argument("word")
    p.add_argument("--max-lifts", type=_positive_int, default=moduli.MAX_LIFTS)
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
    except OSError as exc:
        print(f"error: cannot write the output file: {exc}", file=sys.stderr)
        return 2
    except (BoundExceeded, Diverged, BranchAmbiguity, PunctureProximity) as exc:
        print(f"gave up: {exc}", file=sys.stderr)
        if args.json:
            kind = "bound-exceeded" if isinstance(exc, BoundExceeded) else "diverged"
            payload = {"command": args.command, "label": kind}
            if isinstance(exc, NotContracting):
                payload.update(witness=str(exc.state), vertex=exc.vertex)
            print(json.dumps(payload, sort_keys=True))
        return 3


if __name__ == "__main__":
    sys.exit(main())
