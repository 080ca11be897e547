"""Spans around the program's public functions, recorded from outside it.

:class:`Tracer` replaces each traced function with a wrapper that records a
span (name, start, end, parent) in flat arrays, and restores the originals
on exit.  A module function is replaced in every ``forbiddenq`` namespace
that holds it, because modules import each other's functions by name
(``families`` calls its own binding of ``isolate_root``, ``verify_witness``
and others); a method is replaced on its class.  Self time is derived from
the spans: a span's duration minus the durations of its direct children.

Spans recorded inside worker processes (``scan --jobs``) stay in those
processes and are not reported.
"""

from __future__ import annotations

import statistics
import sys
import time
from array import array
from fractions import Fraction

from forbiddenq import cli, continuants, exact, families, loops

# (span name, owner, attribute); the span name is the metric prefix
TRACED = [
    ("cli.main", cli, "main"),
    ("cli.witness_to_dict", cli, "witness_to_dict"),
    ("cli.witness_from_dict", cli, "witness_from_dict"),
    ("loops.search_nonunit_loop", loops, "search_nonunit_loop"),
    ("loops.chain_length", loops, "chain_length"),
    ("loops.evaluate_path", loops, "evaluate_path"),
    ("loops.weight_squared", loops, "weight_squared"),
    ("loops.verify_witness", loops, "verify_witness"),
    ("exact.IntPoly.eval", exact.IntPoly, "eval"),
    ("exact.isolate_root", exact, "isolate_root"),
    ("exact.AlgebraicNumber.refine", exact.AlgebraicNumber, "refine"),
    ("continuants.u_set", continuants, "u_set"),
    ("continuants.ratio_in_q", continuants, "ratio_in_q"),
    ("families.darboux_witnesses", families, "darboux_witnesses"),
    ("families.pell_witnesses", families, "pell_witnesses"),
]


def _namespaces():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "forbiddenq" or name.startswith("forbiddenq."))]


class Tracer:
    """Context manager that traces :data:`TRACED` while it is active."""

    def __init__(self):
        self.names = [name for name, _, _ in TRACED]
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self.search = {"nodes": 0, "found": 0, "exhausted": 0, "empty_unexhausted": 0,
                       "useful_nodes": 0, "found.12": 0, "found.23": 0, "found.34": 0}
        self.verify_failed = 0

    def _wrap(self, nid: int, fn, on_result=None):
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_search(self, args, res) -> None:
        s = self.search
        s["nodes"] += res.nodes
        if res.witness is not None:
            s["found"] += 1
            s["useful_nodes"] += res.nodes
            q = Fraction(args[0])
            if 1 < q < 4:
                s[f"found.{int(q)}{int(q) + 1}"] += 1
        elif res.budget_exhausted:
            s["exhausted"] += 1
        else:
            s["empty_unexhausted"] += 1

    def _on_verify(self, args, ok) -> None:
        self.verify_failed += not ok

    def __enter__(self):
        hooks = {"loops.search_nonunit_loop": self._on_search,
                 "loops.verify_witness": self._on_verify}
        namespaces = _namespaces()
        for nid, (name, owner, attr) in enumerate(TRACED):
            original = getattr(owner, attr)
            wrapper = self._wrap(nid, original, hooks.get(name))
            owners = [owner] if isinstance(owner, type) else [
                m for m in namespaces if getattr(m, attr, None) is original]
            for o in owners:
                self._restore.append((o, attr, original))
                setattr(o, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for o, attr, original in reversed(self._restore):
            setattr(o, attr, original)
        self._restore.clear()
        return False

    def summary(self) -> dict:
        """calls, self_s and inclusive durations per span name."""
        n = len(self.name_id)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "self_s": 0.0, "durations": []} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_id[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["self_s"] += dur - child[i]
            row["durations"].append(dur)
        return out

    def dump(self, path) -> None:
        """Write the spans as tab-separated ``index name start end parent`` lines."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as f:
            f.write("index\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.name_id)):
                f.write(f"{i}\t{self.names[self.name_id[i]]}\t{self.start[i] - t0:.9f}\t"
                        f"{self.end[i] - t0:.9f}\t{self.parent[i]}\n")


def percentile_ms(durations: list[float], p: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100, method="inclusive")[p - 1] * 1e3
