"""Seeded workloads of the forbiddenq benchmark and the certificate gate.

A workload turns a seed into inputs, runs one pass over them through the
program's public entry points, and reports what came out.  The program sees
only the generated inputs: scan windows and flags for ``cli.main``, and
``(n, u_index, count, min_c)`` / ``count`` arguments for the families.

Every certificate a pass emits goes through :func:`audit`, which parses it
back with ``cli.witness_from_dict`` and re-checks it with
``loops.verify_witness``.  A certificate that fails, a call that raises or
exits non-zero, and a scan report that does not cover exactly the candidates
of its window all count as failed items.

A pass times its own measured phase: the ``cli.main`` calls of a scan, whose
reports are checked and audited window by window outside that phase, or the
family calls of a ``certs`` pass with their audit.  Given a ``calibrate``
callable, a pass calls it before each timed item and keeps what it returns,
so that the pass can be scaled to reference seconds (see ``reference``).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from forbiddenq import cli, families, loops


@dataclass(frozen=True)
class ScanSpec:
    """A scan workload: ``slots`` equal slots tiling ``[lo, hi]``.

    Each slot is scanned over one window of ``cover`` times its width, at an
    offset the seed picks for each slot on its own, so every seed scans the
    same share of every slot and only the excluded gaps move.  A single wide
    window would let the seed swing the number of budget-exhausted
    candidates, and with it the run time, by a third; one offset shared by
    all slots moves every fraction whose denominator divides ``slots`` in or
    out of the scan at once, which swings it by a tenth.
    """

    lo: int
    hi: int
    slots: int
    cover: Fraction
    max_den: int
    depth: int
    window: int
    budget: int
    check_jobs: int = 1  # > 1: an untimed pass with --jobs must match the serial output


@dataclass(frozen=True)
class CertsSpec:
    """Darboux families for every ``u_index`` of each ``n``, plus Pell witnesses.

    The seed picks the first level ``min_c`` for each ``n``.  Every ``n`` is
    kept: the number of accumulation points per ``n`` ranges from 3 to 11 on
    14..24, so drawing a few ``n`` would let the seed triple the work.
    """

    ns: tuple[int, ...]
    levels: int
    min_c: tuple[int, int]
    pell: int


SPECS = {
    "scan-lo": ScanSpec(1, 2, 8, Fraction(11, 12), 15, 6, 4, 50_000, check_jobs=2),
    "scan-hi": ScanSpec(2, 4, 16, Fraction(11, 12), 17, 9, 3, 30_000),
    "certs": CertsSpec(tuple(range(14, 25)), 3, (3, 10), 40),
}

# tiny sizes for the smoke test: every layer runs, in well under a second
SMOKE_SPECS = {
    "scan-lo": ScanSpec(1, 2, 2, Fraction(7, 8), 6, 4, 3, 2_000, check_jobs=2),
    "scan-hi": ScanSpec(2, 4, 2, Fraction(7, 8), 6, 8, 3, 2_000),
    "certs": CertsSpec((5, 6), 2, (3, 5), 4),
}


@dataclass
class PassResult:
    """What one pass over a workload's inputs produced."""

    output: str
    certificates: list[str]
    attempted: int
    failed: int = 0
    rejected: int = 0
    errors: list[str] = field(default_factory=list)
    per_interval: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    wall_s: float = 0.0
    audit_s: float = 0.0
    calib_s: list[float] = field(default_factory=list)

    def fail(self, items: int, message: str) -> None:
        self.failed += items
        self.errors.append(message)


def audit(certificates: list[str]) -> int:
    """Parse and re-verify every certificate; return how many fail.

    A certificate passes when it claims ``verified``, re-verifies from
    scratch after ``cli.witness_from_dict``, and serialises back to the same
    JSON object.
    """
    failed = 0
    for text in certificates:
        try:
            d = json.loads(text)
            w = cli.witness_from_dict(d)
            ok = (d["verified"] is True and loops.verify_witness(w)
                  and cli.witness_to_dict(w) == d)
        except (ValueError, KeyError, TypeError, ArithmeticError):
            ok = False
        failed += not ok
    return failed


def _interval_key(x: float) -> str:
    k = math.floor(x)
    return f"{k}-{k + 1}"


def _tally(per_interval: dict, key: str, field_name: str, n: int = 1) -> None:
    row = per_interval.setdefault(key, {})
    row[field_name] = row.get(field_name, 0) + n


def _candidates(lo: Fraction, hi: Fraction, max_den: int) -> set[Fraction]:
    """Reduced fractions in [lo, hi] with denominator <= max_den."""
    return {
        Fraction(a, b)
        for b in range(1, max_den + 1)
        for a in range(math.ceil(lo * b), math.floor(hi * b) + 1)
        if math.gcd(a, b) == 1
    }


class ScanWorkload:
    """``forbiddenq scan --json`` over seeded windows, one call per window."""

    def __init__(self, spec: ScanSpec, seed: int):
        self.spec = spec
        self.check_jobs = spec.check_jobs
        rng = random.Random(seed)
        slot = Fraction(spec.hi - spec.lo, spec.slots)
        width = slot * spec.cover
        self.windows = []
        for k in range(spec.slots):
            lo = spec.lo + k * slot + (slot - width) * Fraction(rng.randrange(1000), 1000)
            self.windows.append((lo, lo + width))
        self.expected = [_candidates(lo, hi, spec.max_den) for lo, hi in self.windows]

    def inputs(self) -> dict:
        s = self.spec
        return {
            "windows": [f"{lo},{hi}" for lo, hi in self.windows],
            "max_den": s.max_den, "depth": s.depth, "window": s.window,
            "budget": s.budget, "check_jobs": s.check_jobs,
            "candidates": sum(len(e) for e in self.expected),
        }

    def argv(self, lo: Fraction, hi: Fraction, jobs: int) -> list[str]:
        s = self.spec
        argv = ["scan", "--json", "--range", f"{lo},{hi}", "--max-den", str(s.max_den),
                "--depth", str(s.depth), "--window", str(s.window),
                "--budget", str(s.budget)]
        return argv + ["--jobs", str(jobs)] if jobs > 1 else argv

    def run_pass(self, jobs: int = 1, calibrate=None) -> PassResult:
        res = PassResult(output="", certificates=[],
                         attempted=sum(len(e) for e in self.expected))
        outputs = []
        for (lo, hi), expected in zip(self.windows, self.expected):
            out, err = io.StringIO(), io.StringIO()
            argv = self.argv(lo, hi, jobs)
            if calibrate is not None:
                res.calib_s.append(calibrate())
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            except Exception as e:  # the gate must report every failure, not stop
                code, err = None, io.StringIO(repr(e))
            res.wall_s += time.perf_counter() - t0
            text = out.getvalue()
            outputs.append(text)
            if code != 0:
                res.fail(len(expected), f"{lo},{hi}: exit {code}: {err.getvalue()}")
                continue
            certificates = self._check_report(res, lo, hi, expected, text)
            t0 = time.perf_counter()
            bad = audit(certificates)
            res.audit_s += time.perf_counter() - t0
            if bad:
                res.rejected += bad
                res.fail(bad, f"{lo},{hi}: {bad} certificates failed re-verification")
            res.certificates += certificates
        res.output = "".join(outputs)
        res.counts["cli_output_bytes"] = len(res.output.encode())
        return res

    def _check_report(self, res: PassResult, lo, hi, expected, text: str) -> list[str]:
        """Check a window's report; return its certificates as JSON texts."""
        try:
            report = json.loads(text)
            found = [Fraction(int(d["q"]["num"]), int(d["q"]["den"]))
                     for d in report["found"]]
            exhausted = [Fraction(x) for x in report["budget_exhausted"]]
            examined = report["examined"]
        except (ValueError, KeyError, TypeError) as e:
            res.fail(len(expected), f"{lo},{hi}: bad report: {e!r}")
            return []
        if (examined != len(expected) or not set(found) | set(exhausted) <= expected
                or len(set(found)) != len(found)):
            res.fail(len(expected), f"{lo},{hi}: report does not match the window's candidates")
            return []
        key = _interval_key(lo)
        _tally(res.per_interval, key, "examined", examined)
        _tally(res.per_interval, key, "certified", len(found))
        _tally(res.per_interval, key, "budget_exhausted", len(exhausted))
        return [json.dumps(d, sort_keys=True) for d in report["found"]]


def u_points(n: int) -> int:
    """Size of ``u_set(n)``: distinct min(j, n+1-j) over j coprime to n+1."""
    return len({min(j, n + 1 - j) for j in range(1, n + 1) if math.gcd(j, n + 1) == 1})


class CertsWorkload:
    """Darboux and Pell certificates, serialised, parsed back and re-verified."""

    check_jobs = 1  # no process pool: the families run in this process

    def __init__(self, spec: CertsSpec, seed: int):
        self.spec = spec
        rng = random.Random(seed)
        self.darboux = [(n, rng.randint(*spec.min_c)) for n in spec.ns]

    def inputs(self) -> dict:
        s = self.spec
        return {
            "darboux": [{"n": n, "u_indices": u_points(n), "count": s.levels, "min_c": c}
                        for n, c in self.darboux],
            "pell": {"count": s.pell, "reciprocal": [False, True]},
        }

    def run_pass(self, calibrate=None) -> PassResult:
        s = self.spec
        res = PassResult(output="", certificates=[],
                         attempted=sum(u_points(n) for n, _ in self.darboux) * s.levels
                         + 2 * s.pell)
        res.counts = {"certificates": 0, "algebraic": 0}
        groups = [partial(self._darboux, res, n, c) for n, c in self.darboux]
        for group in groups + [partial(self._pell, res)]:
            if calibrate is not None:
                res.calib_s.append(calibrate())
            t0 = time.perf_counter()
            group()
            res.wall_s += time.perf_counter() - t0
        res.output = "\n".join(res.certificates)
        return res

    def _darboux(self, res: PassResult, n: int, min_c: int) -> None:
        levels = self.spec.levels
        for i in range(u_points(n)):
            try:
                got = families.darboux_witnesses(n, i, levels, min_c=min_c)
            except Exception as e:  # the gate must report every failure, not stop
                res.fail(levels, f"darboux n={n} u_index={i}: raised {e!r}")
                continue
            if len(got) != levels:
                res.fail(levels - len(got), f"darboux n={n} u_index={i}: {len(got)} witnesses")
            self._emit(res, [dw.witness for dw in got])

    def _pell(self, res: PassResult) -> None:
        count = self.spec.pell
        for reciprocal in (False, True):
            try:
                got = families.pell_witnesses(count, reciprocal=reciprocal)
            except Exception as e:  # the gate must report every failure, not stop
                res.fail(count, f"pell reciprocal={reciprocal}: raised {e!r}")
                continue
            self._emit(res, [pw.witness for pw in got])

    @staticmethod
    def _emit(res: PassResult, witnesses: list) -> None:
        """Serialise one call's certificates, then parse them back and re-verify.

        Auditing call by call spreads the audit over the pass, so ``audit_s``
        samples the machine over the same stretch of time as ``wall_s``.
        """
        texts = [json.dumps(cli.witness_to_dict(w), sort_keys=True) for w in witnesses]
        t0 = time.perf_counter()
        bad = audit(texts)
        res.audit_s += time.perf_counter() - t0
        if bad:
            res.rejected += bad
            res.fail(bad, f"{bad} certificates failed re-verification")
        res.certificates += texts
        res.counts["certificates"] += len(witnesses)
        res.counts["algebraic"] += sum(not isinstance(w.q, Fraction) for w in witnesses)
        for w in witnesses:
            _tally(res.per_interval, _interval_key(float(w.q)), "certified")


def make(name: str, seed: int, smoke: bool = False):
    spec = (SMOKE_SPECS if smoke else SPECS)[name]
    return (CertsWorkload if isinstance(spec, CertsSpec) else ScanWorkload)(spec, seed)
