"""Benchmark for twistclass: one single-process, closed-loop client.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Inputs are generated from ``--seed`` before any timing.  With
``--trace 0`` the workload's fixed item list is run in whole passes for
``--seconds`` seconds and the end-to-end metrics are reported; item, give-up
and set-up times are rescaled to a reference machine speed measured by a
fixed loop timed between them (see ``perfbench/README.md``).  With
``--trace 1`` exactly one pass is run untraced and then once more traced, and
the per-layer metrics are reported, so their counts repeat for a seed.  Every
answer is checked; a wrong answer, an exception or a failed pinned digest
makes the command exit 1.  The last line of standard output is the JSON
result; the lines before it are a readable report.  Raw samples and spans
are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
#: workload and metric names, units and bounds
SPEC = ROOT / "BENCHMARK.json"

#: fresh processes timed for setup_s, after one untimed process that leaves
#: the bytecode cache warm; spread over the run
SETUP_RUNS = 7
#: ``twistclass nucleus moduli-i --bound <GIVEUP_BOUND>`` runs timed for
#: giveup_s, spread over the run
GIVEUP_RUNS = 9
WARMUP_SECONDS = 1.0
#: seconds of work between two timings of the reference loop
GAUGE_INTERVAL = 0.1
#: about the reference loop's time in the fast state of the machine the
#: benchmark was defined on (2-vCPU Intel Xeon VM, Python 3.11, observed
#: minimum 4.7 ms); timings are rescaled to the speed at which the loop
#: takes this long
REFERENCE_S = 0.005

#: a fresh process: times importing the package and building the built-in
#: recursions and numeric families, then times the reference loop (three
#: times, after the work, on the same core) for rescaling
SETUP_CHILD = """
import gc, json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from twistclass import cli, moduli
t1 = time.perf_counter()
recursions = [factory() for factory, _ in cli.RECURSIONS.values()]
t2 = time.perf_counter()
families = [factory() for factory in moduli.FAMILIES.values()]
t3 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
from run import reference_loop
refs = []
gc.disable()
for _ in range(3):
    t = time.perf_counter()
    reference_loop()
    refs.append(time.perf_counter() - t)
print(json.dumps({"import_s": t1 - t0, "recursions_s": t2 - t1,
                  "families_s": t3 - t2, "ref_s": sorted(refs)[1]}))
"""

#: iterator step functions, one per family
ITERATOR_STEPS = ("rabbit.psi_bar", "preperiod2.psi_bar_q", "periodic2.phi_bar")
#: argument-parser construction is part of cli.main's own work
UNTRACED = {"cli.build_parser"}


def _percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def _machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text(encoding="utf-8").strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                commit = ref_file.read_text(encoding="utf-8").strip()
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
    }


def reference_loop() -> int:
    """Fixed pure-Python work whose time tracks the machine's current speed.

    It mixes what the library spends its time on: tuple letters under free
    reduction, copies of long letter tuples, dict traffic on tuple keys and
    complex arithmetic.  It does not touch the library, so no change to the
    program moves it.
    """
    out: list[tuple[str, int]] = []
    counts: dict[tuple, int] = {}
    word: tuple = ()
    x, z = 12345, 0.5 + 0.5j
    for i in range(2000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        letter = ("ab"[x & 1], 1 if x & 2 else -1)
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
        key = tuple(out[-4:])
        counts[key] = counts.get(key, 0) + 1
        z = cmath.sqrt(z * z + 0.25j) if x & 4 else z * 0.5 + 0.1
        if i % 12 == 0:
            word = word[-600:] + tuple(out)
    return len(counts) + len(word) + int(abs(z))


class Session:
    """Runs and times items and probes, counts wrong answers, and times the
    reference loop between them.

    Every timing is recorded with the index of the reference-loop reading
    taken just before it, so that :meth:`scales` can rescale it.
    """

    def __init__(self, workload, seed: int):
        self.wl = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.refs: list[float] = []
        self._last_ref = -math.inf

    # --- the speed gauge ----------------------------------------------------

    def gauge(self) -> int:
        """Time the reference loop, with the garbage collector off so that
        the reading reflects the machine, not the size of the heap."""
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference_loop()
            self._last_ref = time.perf_counter()
        finally:
            gc.enable()
        self.refs.append(self._last_ref - t0)
        return len(self.refs) - 1

    def scales(self) -> list[float]:
        """Per reference reading, the factor that takes a time measured
        after it from the machine speed around it (median of it and its two
        neighbours) to the speed at which the loop takes :data:`REFERENCE_S`."""
        refs = self.refs
        return [
            REFERENCE_S / statistics.median(refs[max(0, k - 1): k + 2])
            for k in range(len(refs))
        ]

    # --- items and probes ---------------------------------------------------

    def run_item(self, idx: int) -> tuple[float, int]:
        """Run item ``idx``; return its seconds and reference reading."""
        ref = len(self.refs) - 1
        if time.perf_counter() - self._last_ref >= GAUGE_INTERVAL:
            ref = self.gauge()
        item = self.wl.items[idx]
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = item.run()
        except Exception:  # an item that raises is a failed item
            elapsed = time.perf_counter() - t0
            self.fail(f"item {idx}", traceback.format_exc())
            return elapsed, ref
        elapsed = time.perf_counter() - t0
        if not item.check(result):
            self.fail(f"item {idx}", f"wrong answer: {result!r}")
        return elapsed, ref

    def fail(self, what: str, detail: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"{what} of {self.wl.name} failed: {detail}", file=sys.stderr)

    def warm_up(self) -> None:
        start = time.perf_counter()
        for idx in range(len(self.wl.items)):
            self.run_item(idx)
            if time.perf_counter() - start > WARMUP_SECONDS:
                break

    def one_pass(self) -> tuple[array, array]:
        """Run every item once; their seconds and reference readings."""
        times, refs = array("d"), array("i")
        for idx in range(len(self.wl.items)):
            elapsed, ref = self.run_item(idx)
            times.append(elapsed)
            refs.append(ref)
        return times, refs

    def setup_run(self) -> dict:
        """Run one fresh :data:`SETUP_CHILD` process; its timings."""
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(Path(__file__).parent)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times = json.loads(proc.stdout)
        times["setup_s"] = times["import_s"] + times["recursions_s"] + times["families_s"]
        return times

    def give_up(self) -> tuple[float, int]:
        """Time one ``twistclass nucleus moduli-i`` run, which must give up."""
        import workloads

        ref = self.gauge()
        t0 = time.perf_counter()
        code, out = workloads.cli_raw(
            ["nucleus", "moduli-i", "--bound", str(workloads.GIVEUP_BOUND), "--json"]
        )
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        if code != 3 or json.loads(out).get("label") != "bound-exceeded":
            self.fail("give-up probe", f"exit {code}, output {out!r}")
        return elapsed, ref


def end_to_end(session: Session, seconds: float) -> tuple[dict, dict]:
    """Whole passes over the items for ``seconds``, with the set-up and
    give-up probes spread evenly over the run; the end-to-end metrics."""
    wl = session.wl
    passes: list[tuple[array, array]] = []
    probes: dict[str, list] = {"setup": [], "give_up": []}
    planned = {"setup": (SETUP_RUNS, session.setup_run),
               "give_up": (GIVEUP_RUNS, session.give_up)}
    session.setup_run()  # leaves the bytecode cache warm; not timed
    start = time.perf_counter()
    while True:
        passes.append(session.one_pass())
        elapsed = time.perf_counter() - start
        for kind, (total, probe) in planned.items():
            while len(probes[kind]) < min(total, math.ceil(total * elapsed / seconds)):
                probes[kind].append(probe())
        if elapsed >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    session.gauge()

    scale = session.scales()
    flat, pass_times = array("d"), []
    for times, refs in passes:
        scaled = [t * scale[ref] for t, ref in zip(times, refs)]
        flat.extend(scaled)
        pass_times.append(sum(scaled))
    setup_s = [r["setup_s"] * REFERENCE_S / r["ref_s"] for r in probes["setup"]]
    give_up_s = [t * scale[ref] for t, ref in probes["give_up"]]
    pass_median = statistics.median(pass_times)
    letters = sum(item.letters for item in wl.items)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "items_per_s": len(wl.items) / pass_median,
        "item_p50_ms": 1000 * statistics.median(flat),
        "item_tail_ms": 1000 * _percentile(flat, wl.tail_pct),
        "letters_per_s": letters / pass_median,
        "giveup_s": statistics.median(give_up_s),
        "peak_rss_mb": peak_rss_mb,
    }
    raw_pass = [sum(times) for times, _ in passes]
    info = {
        "passes": len(passes),
        "items_per_pass": len(wl.items),
        "samples": len(flat),
        "tail_pct": wl.tail_pct,
        "reference_ms": {
            "count": len(session.refs),
            "p10": 1000 * _percentile(session.refs, 10),
            "p50": 1000 * statistics.median(session.refs),
            "p90": 1000 * _percentile(session.refs, 90),
        },
        "unscaled": {
            "items_per_s": len(wl.items) / statistics.median(raw_pass),
            "giveup_s": statistics.median(t for t, _ in probes["give_up"]),
            "setup_s": statistics.median(r["setup_s"] for r in probes["setup"]),
        },
    }
    raw = {
        "refs": session.refs,
        "passes": [[times.tolist(), refs.tolist()] for times, refs in passes],
        "probes": probes,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{wl.name}-seed{session.seed}.samples.json").write_text(json.dumps(raw))
    return metrics, info


def per_layer(session: Session, names: list[str]) -> tuple[dict, dict]:
    """One untraced and one traced pass; the values of the per-layer
    metrics ``names``."""
    import tracer as tracing
    from twistclass import (
        cli, moduli, periodic2, preperiod2, rabbit, selfsim, words, wreath,
    )
    import twistclass

    wl = session.wl
    setup = [session.setup_run() for _ in range(SETUP_RUNS + 1)][1:]
    untraced_pass = session.one_pass()

    tracer = tracing.Tracer()
    hooks = {
        "wreath.phi_apply": lambda args, r: ("wreath.phi_apply.letters", len(args[1])),
        "moduli.lift_path": lambda args, r: ("moduli.lift_path.points", len(r)),
    }
    modules = [twistclass, words, wreath, selfsim, rabbit, periodic2, preperiod2,
               moduli, cli]
    classes = {"Alphabet": words.Alphabet, "GenWord": words.GenWord,
               "Endo": words.Endo}
    plain_families = dict(wl.families)
    tracer.install(modules, classes, hooks, skip=UNTRACED)
    tracer.register("moduli.preimages")
    for name, fam in plain_families.items():
        wl.families[name] = dataclasses.replace(
            fam, preimages=tracer.wrap("moduli.preimages", fam.preimages)
        )
    traced_pass = []
    try:
        for idx in range(len(wl.items)):
            tracer.item = idx
            traced_pass.append(session.run_item(idx))
    finally:
        tracer.uninstall()
        wl.families.update(plain_families)
    session.gauge()
    scale = session.scales()
    untraced = sum(t * scale[ref] for t, ref in zip(*untraced_pass))
    traced = sum(t * scale[ref] for t, ref in traced_pass)
    tracer.write(OUT / f"{wl.name}-seed{session.seed}.spans.json")

    totals = tracer.totals()
    by_home: dict[str, dict[str, float]] = {}
    for name, row in totals.items():
        agg = by_home.setdefault(tracer.home(name), dict.fromkeys(row, 0))
        for q, value in row.items():
            agg[q] += value

    def quantity(key: str, q: str) -> float:
        row = by_home.get(key) or totals.get(key)
        if row is None:
            raise KeyError(f"no traced function is named {key}")
        return row[q]

    steps = sum(quantity(f, "calls") for f in ITERATOR_STEPS)
    step_names = {n for n in tracer.names if tracer.home(n) in ITERATOR_STEPS}
    step_time = tracer.inclusive_by_item(step_names)
    lifts = quantity("moduli.lift_path", "calls")
    numeric_calls = quantity("moduli.classify_numeric", "calls")
    derived = {
        "wreath.phi_apply.letters": tracer.amounts["wreath.phi_apply.letters"],
        "iterate.steps_per_word": steps / len(wl.items),
        "moduli.points_per_lift":
            tracer.amounts["moduli.lift_path.points"] / lifts if lifts else 0.0,
        "moduli.lifts_per_word": lifts / numeric_calls if numeric_calls else 0.0,
        "trace.overhead_s": traced - untraced,
    }
    for part in ("import_s", "recursions_s", "families_s"):
        derived[f"setup.{part}"] = statistics.median(r[part] for r in setup)

    for metric in names:
        key, q = metric.rsplit(".", 1)
        if metric in derived:
            continue
        if key == "iterate.us_per_letter":
            # iterator time per input letter over the items of one bucket
            idxs = [i for i, item in enumerate(wl.items) if item.bucket == q]
            letters = sum(wl.items[i].letters for i in idxs)
            spent = sum(step_time[i] for i in idxs)
            derived[metric] = 1e6 * spent / letters if letters else 0.0
        else:
            derived[metric] = quantity(key, q)
    metrics = {metric: derived[metric] for metric in names}
    info = {"spans": len(tracer.start), "untraced_pass_s": untraced,
            "traced_pass_s": traced, "items_per_pass": len(wl.items),
            "note": "pass times rescaled to reference speed; layer times not"}
    return metrics, info


def parse_args(spec: dict, argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    args = parse_args(spec, argv)
    if not (SRC / "twistclass" / "__init__.py").is_file():
        print(f"no library sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # one core for the run and the set-up processes it starts, so that
        # the reference loop times the core the measured work runs on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    session = Session(wl, args.seed)
    session.warm_up()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        metrics, info = per_layer(session, [m["name"] for m in wanted])
    else:
        metrics, info = end_to_end(session, args.seconds)
    units = {m["name"]: m["unit"] for m in wanted}
    if set(metrics) != set(units):
        raise RuntimeError(f"measured {sorted(metrics)}, {SPEC.name} names {sorted(units)}")

    for group, got, want in wl.digest_errors:
        print(f"label digest of {group} is {got}, pinned {want}", file=sys.stderr)
        session.attempted += 1
        session.failed += 1
    correct = session.failed == 0
    print(f"# machine {json.dumps(_machine())}")
    print(f"# workload {wl.name} seed {args.seed} trace {args.trace} {json.dumps(info)}")
    error_frac = session.failed / max(1, session.attempted)
    print(f"# error_frac {error_frac:.6g} ({session.failed}/{session.attempted})")
    for name, value in metrics.items():
        print(f"# {name} {value:.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
