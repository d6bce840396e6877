"""Call tracing for the benchmark, installed from outside the library.

Every public function of a traced module is replaced, in each module
namespace that binds it, by a wrapper that records one span per call: name,
start, end, parent span and the id of the benchmark item being run.  Spans
live in flat arrays while the run goes on and are written out when it ends;
self times are computed from them afterwards.

Span names are ``<namespace>.<function>``: a call that ``selfsim`` makes to
``phi_apply`` is a ``selfsim.phi_apply`` span, one made from ``wreath`` code
a ``wreath.phi_apply`` span.  :meth:`Tracer.home` maps every span name to the
function's defining module, which is what aggregate metrics use.
"""

from __future__ import annotations

import inspect
import json
import time
from array import array
from collections import Counter
from pathlib import Path
from types import ModuleType
from typing import Callable

#: methods traced under a function-style name (they have no module binding)
METHODS = {
    ("Alphabet", "parse"): "words.parse",
    ("Alphabet", "word"): "words.alphabet_word",
    ("GenWord", "__mul__"): "words.mul",
    ("GenWord", "__invert__"): "words.invert",
    ("GenWord", "__pow__"): "words.pow",
    ("Endo", "__call__"): "words.endo_apply",
}


def _short(module: ModuleType) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    """Span recorder plus the bookkeeping to undo its patches."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._home: dict[str, str] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item_of = array("i")
        self.item = -1
        #: extra per-call quantities, keyed ``<home>.<quantity>``
        self.amounts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def home(self, name: str) -> str:
        return self._home[name]

    def register(self, name: str, home: str | None = None) -> int:
        """Id of span name ``name``; a registered name that never runs
        reports zero calls."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._home[name] = home or name
        return nid

    def wrap(
        self,
        name: str,
        fn: Callable,
        home: str | None = None,
        amount: Callable[[tuple, object], tuple[str, int]] | None = None,
    ) -> Callable:
        """Return ``fn`` wrapped so that each call records a span ``name``."""
        nid = self.register(name, home)
        clock = time.perf_counter
        stack, amounts = self._stack, self.amounts
        names, starts, ends = self.name, self.start, self.end
        parents, items = self.parent, self.item_of

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            items.append(self.item)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if amount is not None:
                key, value = amount(args, result)
                amounts[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner: object, attr: str, wrapped: Callable) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def install(
        self,
        modules: list[ModuleType],
        classes: dict[str, type],
        amounts: dict[str, Callable[[tuple, object], tuple[str, int]]],
        skip: set[str] = frozenset(),
    ) -> None:
        """Wrap the public functions of ``modules`` in every namespace of
        ``modules`` that binds them, and the :data:`METHODS` of ``classes``.

        ``amounts`` maps a home name to a hook returning an extra quantity
        to add up per call (for example letters read by ``phi_apply``);
        functions whose home is in ``skip`` stay unwrapped.
        """
        homes: dict[int, str] = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    homes[id(obj)] = f"{_short(mod)}.{attr}"
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                home = homes.get(id(obj))
                if home is None or home in skip or attr.startswith("_"):
                    continue
                name = f"{_short(mod)}.{attr}"
                self.patch(mod, attr, self.wrap(name, obj, home, amounts.get(home)))
        for (cls_name, attr), name in METHODS.items():
            cls = classes[cls_name]
            self.patch(cls, attr, self.wrap(name, getattr(cls, attr)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # --- analysis -----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive and self seconds."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name[i]]]
            row["calls"] += 1
            row["incl_s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        return out

    def inclusive_by_item(self, names: set[str]) -> Counter[int]:
        """Seconds spent inside spans named in ``names``, per item; a span
        inside another such span is not counted twice."""
        wanted = {self._ids[n] for n in names if n in self._ids}
        out: Counter[int] = Counter()
        for i in range(len(self.start)):
            if self.name[i] not in wanted:
                continue
            p = self.parent[i]
            while p >= 0 and self.name[p] not in wanted:
                p = self.parent[p]
            if p < 0:
                out[self.item_of[i]] += self.end[i] - self.start[i]
        return out

    def write(self, path: Path) -> None:
        """Write the spans: a JSON header next to one binary column file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = [
            ("name", self.name), ("start", self.start), ("end", self.end),
            ("parent", self.parent), ("item", self.item_of),
        ]
        header = {
            "count": len(self.start),
            "names": self.names,
            "columns": [[c, arr.typecode] for c, arr in columns],
            "data": path.name + ".bin",
        }
        with open(path.with_name(path.name + ".bin"), "wb") as fh:
            for _, arr in columns:
                arr.tofile(fh)
        path.write_text(json.dumps(header) + "\n", encoding="utf-8")
