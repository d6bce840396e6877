import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twistclass
from twistclass import selfsim
from twistclass.cli import build_parser, main, RECURSIONS
from twistclass.labels import AIRPLANE, F34, Diverged
from twistclass.preperiod2 import MODULI, classify_quater
from twistclass.rabbit import MCG, classify_mcg
from twistclass.words import MAX_WORD_LENGTH
from twistclass.wreath import phi_apply


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out) if out else None, err


def test_classify_rabbit_power(capsys):
    code, payload, _ = run_json(capsys, "classify-rabbit", "--power", "-4")
    assert code == 0
    assert payload["label"] == "corabbit"


def test_classify_rabbit_word(capsys):
    code, payload, _ = run_json(capsys, "classify-rabbit", "T'")
    assert code == 0
    assert payload["label"] == "corabbit"
    assert MCG.parse(payload["witness"]) is not None
    assert payload["iterations"] >= 0


def test_classify_rabbit_st_power(capsys):
    code, payload, _ = run_json(capsys, "classify-rabbit", "--st-power", "2")
    assert code == 0
    assert payload["label"] == "rabbit"


def test_classify_i_identity(capsys):
    code, payload, _ = run_json(capsys, "classify-i", "a'a")
    assert code == 0
    assert payload["label"] == "f_i"


def test_classify_i_obstructed_carries_index(capsys):
    code, payload, _ = run_json(capsys, "classify-i", "a b^5")
    assert code == 0
    assert payload["label"] == "obstructed"
    assert payload["index"] == 5


def test_classify_i_reports_every_obstructed_index(capsys):
    # nothing caps the reported index
    code, payload, _ = run_json(capsys, "classify-i", "a b^65")
    assert code == 0
    assert payload["label"] == "obstructed"
    assert payload["index"] == 65
    assert MODULI.parse(payload["witness"]) == MODULI.parse("b^65")


def test_classify_quater(capsys):
    code, payload, _ = run_json(capsys, "classify-quater", "a")
    assert code == 0
    assert payload["label"] == "f_5/12"


def test_nucleus_json(capsys):
    code, payload, _ = run_json(capsys, "nucleus", "mcg-rabbit")
    assert code == 0
    assert payload["count"] == 7
    assert len(payload["states"]) == 7
    for state in payload["states"]:
        MCG.parse(state)


def test_nucleus_output_stable(capsys):
    _, first, _ = run(capsys, "nucleus", "mcg-rabbit", "--json")
    _, second, _ = run(capsys, "nucleus", "mcg-rabbit", "--json")
    assert first == second


def test_nucleus_dot(capsys):
    code, out, _ = run(capsys, "nucleus", "mcg-rabbit", "--dot")
    assert code == 0
    assert out.startswith("digraph")
    assert "fillcolor=grey" in out


def test_distinct_command(capsys):
    code, payload, _ = run_json(capsys, "distinct", "rabbit", "airplane")
    assert code == 0
    assert payload["distinct"] is True
    code, payload, _ = run_json(capsys, "distinct", "rabbit", "rabbit")
    assert payload["distinct"] is False


def test_trivial_command(capsys):
    code, payload, _ = run_json(capsys, "trivial", "moduli-i", "a^2")
    assert code == 0
    assert payload["trivial"] is True
    code, payload, _ = run_json(capsys, "trivial", "moduli-i", "b")
    assert payload["trivial"] is False
    assert MCG.parse(payload["witness"].replace("a", "T").replace("b", "S"))


@pytest.mark.parametrize("name, word", [
    ("fi", "beta alpha gamma' alpha gamma' beta'"),
    ("q14", "alpha' gamma' alpha"),
])
def test_trivial_witness_is_an_active_state(capsys, name, word):
    # the walk for these words meets its first active state only after
    # more plain restrictions than --bound allows
    code, payload, _ = run_json(capsys, "trivial", name, word, "--bound", "3")
    assert code == 0
    assert payload["trivial"] is False
    rec = RECURSIONS[name][0]()
    assert phi_apply(rec, rec.alphabet.parse(payload["witness"])).active


def test_moduli_command(capsys):
    code, payload, _ = run_json(capsys, "moduli", "rabbit", "T")
    assert code == 0
    assert payload["label"] == "airplane"
    assert payload["iterations"] > 0


def test_moduli_trace_file(capsys, tmp_path):
    path = tmp_path / "trace.txt"
    code, _, _ = run(capsys, "moduli", "rabbit", "T", "--trace-file", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines and lines[0].split()[0] == "0"


def test_moduli_trace_file_keeps_the_lifts_of_a_give_up(capsys, tmp_path):
    path = tmp_path / "trace.txt"
    code, out, err = run(
        capsys, "moduli", "quater", "a b", "--max-lifts", "2",
        "--trace-file", str(path),
    )
    assert code == 3
    assert out == ""
    assert "gave up" in err
    lines = path.read_text().strip().splitlines()
    assert [line.split()[0] for line in lines] == ["0", "1"]


def test_moduli_unwritable_trace_file(capsys, tmp_path):
    path = tmp_path / "missing-dir" / "trace.txt"
    code, out, err = run(capsys, "moduli", "rabbit", "T", "--trace-file", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, option", [
    (("nucleus", "mcg-rabbit"), "--bound"),
    (("moduli", "rabbit", "T"), "--max-lifts"),
])
@pytest.mark.parametrize("value", ["0", "-3", "1.5"])
def test_rejects_a_non_positive_budget(capsys, argv, option, value):
    # before, a budget <= 0 ran and gave up with exit 3
    code, out, err = run(capsys, *argv, f"{option}={value}")
    assert code == 2
    assert out == ""
    assert option in err


@pytest.mark.parametrize("argv, option", [
    (("classify-rabbit", "T"), "--bound"),
    (("classify-quater", "a"), "--bound"),
    (("moduli", "rabbit", "T"), "--bound"),
    (("nucleus", "rabbit"), "--max-iters"),
    (("distinct", "rabbit", "airplane"), "--max-iters"),
    (("trivial", "rabbit", "alpha"), "--max-iters"),
    (("moduli", "rabbit", "T"), "--max-iters"),
    (("classify-i", "a"), "--bound"),
    # the step budget is a library constant: no classify command reads one
    (("classify-rabbit", "T"), "--max-iters"),
    (("classify-quater", "a"), "--max-iters"),
    (("classify-i", "a"), "--max-iters"),
    # every obstructed index is reported, so nothing caps it
    (("classify-i", "a"), "--k-max"),
    # the convergence radius is a library constant, so moduli reads no --tol
    (("moduli", "rabbit", "T"), "--tol"),
    # argparse takes the "3" for the word, which must not hide the option
    (("classify-rabbit", "--power", "5"), "--max-iters"),
])
def test_an_option_the_command_does_not_read_exits_2(capsys, argv, option):
    code, out, err = run(capsys, *argv, option, "3")
    assert code == 2
    assert out == ""
    assert option in err


def test_nucleus_refuses_dot_with_json(capsys):
    # before, --dot won and --json went unread
    code, out, err = run(capsys, "nucleus", "mcg-rabbit", "--dot", "--json")
    assert code == 2
    assert out == ""
    assert "--dot" in err and "--json" in err


@pytest.mark.parametrize("argv", [("nucleus", "fi"), ("distinct", "fi", "q14")])
def test_bound_reaches_the_moore_diagram(capsys, monkeypatch, argv):
    # the Moore diagram of an up-to-action nucleus runs word problems too
    bounds = []
    walk = selfsim._Search.walk

    def spy(search, w):
        bounds.append(search.bound)
        return walk(search, w)

    monkeypatch.setattr(selfsim._Search, "walk", spy)
    code, _, _ = run(capsys, *argv, "--bound", "5000")
    assert code == 0
    assert bounds and set(bounds) == {5000}


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "classify-i", "xyz")
    assert code == 2
    assert "position" in err


def test_a_stray_closing_parenthesis_exits_2(capsys):
    # the word must not end at a ')' that closes no '(', leaving "a"
    code, out, err = run(capsys, "classify-quater", "a) b")
    assert code == 2
    assert out == ""
    assert "unbalanced ')'" in err


def test_bound_exceeded_exit_code(capsys):
    code, payload, err = run_json(capsys, "nucleus", "moduli-i", "--bound", "50")
    assert code == 3
    assert payload["label"] == "bound-exceeded"
    assert "bound" in err


def test_nucleus_names_its_self_loop_certificate(capsys):
    # at the default bound the budget alone would take minutes to run out
    code, payload, err = run_json(capsys, "nucleus", "moduli-i")
    assert code == 3
    assert payload == {
        "command": "nucleus", "label": "bound-exceeded", "witness": "b", "vertex": 1,
    }
    assert "bound" in err


def test_distinct_stops_on_the_certificate_too(capsys):
    code, payload, _ = run_json(capsys, "distinct", "rabbit", "moduli-i")
    assert code == 3
    assert payload["label"] == "bound-exceeded"
    assert (payload["witness"], payload["vertex"]) == ("b", 1)


def test_a_blown_budget_has_no_witness(capsys):
    # the rabbit nucleus has 9 states, so bound 8 is the largest that gives up
    for bound in ("1", "8"):
        code, payload, _ = run_json(capsys, "nucleus", "rabbit", "--bound", bound)
        assert code == 3
        assert payload == {"command": "nucleus", "label": "bound-exceeded"}
    code, payload, _ = run_json(capsys, "nucleus", "rabbit", "--bound", "9")
    assert code == 0 and payload["count"] == 9


@pytest.mark.parametrize("value, before", [
    ("-5", 2), ("-1", 2), ("x", 2), ("0", 0), ("5", 0),
])
def test_classify_i_k_max_must_not_be_negative(capsys, value, before):
    # before, --k-max capped the reported index: a negative or non-integer
    # value exited 2 and a cap of 0 or 5 ran (exit `before`). The cap is
    # gone, so every value exits 2 as an option classify-i does not read,
    # and an index past a cap that once ran is reported
    got, out, err = run(capsys, "classify-i", "a b^6", "--k-max", value)
    assert got == 2
    assert out == ""
    assert "--k-max" in err
    if before == 0:
        code, payload, _ = run_json(capsys, "classify-i", "a b^6")
        assert code == 0
        assert payload["index"] == 6 > int(value)


@pytest.mark.parametrize("argv", [
    ("classify-quater", "(" * 1500 + "a" + ")" * 1500),
    ("classify-i", "(a b)^3000000"),
    ("classify-rabbit", f"T^{MAX_WORD_LENGTH + 1}"),
    ("trivial", "rabbit", "alpha^" + "9" * 5000),
])
def test_oversized_words_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: ")


@pytest.mark.parametrize("value, code", [
    (str(MAX_WORD_LENGTH // 2), 0),
    (str(-(MAX_WORD_LENGTH // 2)), 0),
    (str(MAX_WORD_LENGTH // 2 + 1), 2),
    ("-10000000000", 2),
])
def test_st_power_obeys_the_length_cap(capsys, value, code):
    got, _, err = run(capsys, "classify-rabbit", "--st-power", value)
    assert got == code
    if code == 2:
        assert "--st-power" in err


def test_unknown_recursion_name(capsys):
    code, _, _ = run(capsys, "nucleus", "no-such-thing")
    assert code == 2


def test_registry_names():
    assert set(RECURSIONS) == {
        "rabbit", "airplane", "corabbit", "mcg-rabbit", "fi", "fstar",
        "moduli-i", "q14", "q34", "q512", "moduli-q",
    }


def test_moduli_diverged_exit_code(capsys):
    code, _, err = run(capsys, "moduli", "rabbit", "T", "--max-lifts", "2")
    assert code == 3
    assert "gave up" in err


def test_classify_rabbit_requires_input(capsys):
    code, _, err = run(capsys, "classify-rabbit")
    assert code == 2
    assert "one of the arguments word --power --st-power is required" in err


@pytest.mark.parametrize("argv", [
    ("T", "--power", "3"),
    ("T", "--st-power", "2"),
    ("--power", "3", "--st-power", "2"),
])
def test_classify_rabbit_inputs_are_exclusive(capsys, argv):
    code, out, err = run(capsys, "classify-rabbit", *argv)
    assert code == 2
    assert out == ""
    assert "not allowed with argument" in err


def test_nucleus_of_action_level_recursion(capsys):
    code, payload, _ = run_json(capsys, "nucleus", "fi")
    assert code == 0
    assert payload["count"] == 8


@pytest.mark.parametrize("command, text, steps, label, witness, classify, alphabet", [
    ("classify-rabbit", "T^200", 6, AIRPLANE, "T", classify_mcg, MCG),
    ("classify-quater", "a b^50", 6, F34, "a a", classify_quater, MODULI),
])
def test_classify_gives_up_on_a_spent_budget(
    capsys, command, text, steps, label, witness, classify, alphabet
):
    # the orbit reaches its terminal in `steps` steps: a library budget of
    # exactly that many gives up and one more answers; the command line,
    # which takes no budget, reports the same orbit
    with pytest.raises(Diverged):
        classify(alphabet.parse(text), steps)
    assert classify(alphabet.parse(text), steps + 1) == label

    code, payload, _ = run_json(capsys, command, text)
    assert code == 0
    assert payload["label"] == label.kind
    assert payload["iterations"] == steps
    assert payload["witness"] == witness


# --- one parser per process ---------------------------------------------------


def test_a_budget_does_not_reach_the_next_call(capsys):
    # two lifts are too few for T, so a leaked --max-lifts gives up again
    assert run(capsys, "moduli", "rabbit", "T", "--max-lifts", "2")[0] == 3
    code, payload, _ = run_json(capsys, "moduli", "rabbit", "T")
    assert code == 0
    assert payload["label"] == "airplane"


def test_k_max_does_not_reach_the_next_call(capsys):
    # a refused --k-max leaves no cap behind for the next call
    assert run(capsys, "classify-i", "a", "--k-max", "0")[0] == 2
    code, payload, _ = run_json(capsys, "classify-i", "a b^65")
    assert code == 0
    assert payload["label"] == "obstructed"
    assert payload["index"] == 65


def test_a_call_after_failed_ones_answers_as_a_fresh_process(capsys):
    good = ("classify-quater", "a' b", "--json")
    assert run(capsys, "classify-quater", "a) b") == (
        2, "", "parse error: unbalanced ')' (at position 1)\n"
    )
    code, out, err = run(capsys, "classify-quater", "a", "--nope")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --nope" in err
    src = str(Path(twistclass.__file__).parents[1])
    fresh = subprocess.run(
        [sys.executable, "-m", "twistclass.cli", *good],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert run(capsys, *good) == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_main_builds_the_parser_once(capsys, monkeypatch):
    run(capsys, "classify-rabbit", "--power", "5")
    builds = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    assert run(capsys, "classify-i", "a b^5")[0] == 0
    assert run(capsys, "nucleus", "--help")[0] == 0
    assert builds == []
    assert build_parser() is build_parser()


@pytest.mark.parametrize("argv", [("--help",), ("classify-rabbit", "--help")])
def test_help_prints_usage_and_exits_0(capsys, argv):
    first = run(capsys, *argv)
    code, out, err = first
    assert code == 0
    assert out.startswith("usage: twistclass")
    assert err == ""
    assert run(capsys, *argv) == first
