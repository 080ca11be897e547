"""Command-line front end: evaluate sequences, search, scan ranges, and emit
machine-readable certificates.

Exit codes: 0 success (including "nothing found"), 1 invalid input,
2 internal fault (budget, overflow, failed verification or root isolation:
any ``ArithmeticError`` but division by zero), 141 when the reader of stdout
closed it early.  Rationals are accepted as "a/b" or as finite decimals, both
converted exactly.  All big integers in JSON output are rendered as decimal
strings; one longer than the interpreter's int-to-str limit is a budget
fault, with nothing printed.

``scan --jobs N`` with N > 1 runs the candidates in a ``multiprocessing``
pool; that module is imported only then, so every other command starts
without it.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from fractions import Fraction
from typing import Iterator, Optional, Union

from .exact import AlgebraicNumber, IntPoly
from . import continuants, families, loops

WEIGHT_FORMULA = "1/|1+c q (c+(-1)^n)|"
EXIT_BROKEN_PIPE = 128 + 13  # the shell status of a writer killed by SIGPIPE

# hard guard on the candidates of `scan`: with D = --max-den, at most
# (hi - lo) * D(D+1)/2 + D fractions lie in [lo, hi], and that also bounds the
# steps reduced_fractions takes to list them
MAX_SCAN_CANDIDATES = 10**6


def parse_rational(text: str) -> Fraction:
    """Parse "a/b" or a finite decimal, exactly; |exponent| > 4300 is refused.

    So is a numerator or denominator, written or computed, of more digits
    than the interpreter's int-to-str limit (``sys.get_int_max_str_digits()``;
    no check where it is 0 or absent): no result could print it.
    """
    text = text.strip()
    # Fraction would first build 10**exp; 4300 is CPython's int-string digit limit
    mantissa, e, exp = text.lower().partition("e")
    if e:
        try:
            big = abs(int(exp)) > 4300
        except ValueError:
            # int() refuses a written integer only beyond the int-to-str limit
            if not re.fullmatch(r"[+-]?\d+", exp):
                raise ValueError(
                    f"the decimal exponent of {text!r} is not an integer") from None
            big = True
        if big:
            raise ValueError(f"decimal exponent {exp} is beyond 4300 in magnitude")
    limit = _digit_limit()
    too_long = f"a numerator or denominator of more than {limit} digits is refused"
    # Fraction would raise the interpreter's own error on a written one
    if limit and max(sum(map(str.isdigit, part)) for part in mantissa.split("/")) > limit:
        raise ValueError(too_long)
    try:
        x = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"the denominator of {text!r} is zero") from None
    except ValueError:
        raise ValueError(
            f"{text!r} is not a rational (a/b or a finite decimal)") from None
    if limit and max(abs(x.numerator), x.denominator) >= 10**limit:
        raise ValueError(too_long)
    return x


def _digit_limit() -> int:
    """The interpreter's int-to-str digit limit; 0 where it is 0 or absent."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def parse_sequence(text: str) -> tuple[int, ...]:
    """Comma-separated integers, as ``int`` reads them; empty entries are skipped.

    An entry of more digits than the int-to-str limit is refused, as in
    :func:`parse_rational`.
    """
    limit = _digit_limit()
    out = []
    for tok in text.split(","):
        if tok.strip() == "":
            continue
        if limit and sum(map(str.isdigit, tok)) > limit:
            raise ValueError(f"an entry of more than {limit} digits is refused")
        try:
            out.append(int(tok))
        except ValueError:
            raise ValueError(f"entry {tok.strip()!r} is not an integer") from None
    return tuple(out)


def frac_str(x: Union[int, Fraction]) -> str:
    """``x`` as "a" or "a/b"; more digits than the interpreter prints is a budget fault."""
    try:
        return str(x)
    except ValueError:  # str of an int raises it only beyond the digit limit
        raise loops.BudgetExceeded(
            f"a result has more than {sys.get_int_max_str_digits()} digits"
        ) from None


def q_to_dict(q: Union[Fraction, AlgebraicNumber]) -> dict:
    if isinstance(q, Fraction):
        return {"type": "rational", "num": frac_str(q.numerator),
                "den": frac_str(q.denominator)}
    return {
        "type": "algebraic",
        "poly": [frac_str(c) for c in q.defining.coeffs],
        "interval": [frac_str(q.lo), frac_str(q.hi)],
        "approx": q.approx,
    }


def q_from_dict(d: dict) -> Union[Fraction, AlgebraicNumber]:
    if d["type"] == "rational":
        return _fraction_from_json(d)
    if not isinstance(d["poly"], list):
        raise ValueError(f"poly must be a list of integers, got {d['poly']!r}")
    poly = IntPoly([_int_from_json(c) for c in d["poly"]])
    interval, approx = d["interval"], float(d["approx"])
    if not isinstance(interval, list) or len(interval) != 2:
        raise ValueError(f"need a two-entry interval, got {interval!r}")
    q = AlgebraicNumber(poly, _rational_from_json(interval[0]),
                        _rational_from_json(interval[1]))
    # approx is not a tolerance: the one float it may be is q's own, the
    # float of the interval midpoint; NaN, which equals nothing, is refused
    if approx != q.approx:
        raise ValueError("approx is not the float of the interval midpoint")
    return q


def w2_to_dict(w2: Union[Fraction, loops.FormulaWeight]) -> dict:
    if isinstance(w2, Fraction):
        return {"num": frac_str(w2.numerator), "den": frac_str(w2.denominator)}
    return {"formula": WEIGHT_FORMULA, "approx": w2.approx}


def witness_to_dict(w: loops.LoopWitness) -> dict:
    d = {
        "q": q_to_dict(w.q),
        "loop": list(w.loop),
        "weight_squared": w2_to_dict(w.weight_squared),
        "provenance": w.provenance,
        "verified": w.verified,
    }
    if w.provenance == "duplicate-c":
        d["other_loop"] = list(w.other_loop)
        d["other_weight_squared"] = w2_to_dict(w.other_weight_squared)
        d["c_value"] = frac_str(w.c_value)
    return d


def _entries_from_json(value) -> tuple[int, ...]:
    """A certificate's ``loop`` or ``other_loop``: a non-empty list of JSON integers."""
    if (not isinstance(value, list) or not value
            or not all(type(x) is int for x in value)):
        raise ValueError(f"a loop must be a non-empty list of integers, got {value!r}")
    return tuple(value)


def _int_from_json(value) -> int:
    """A certificate integer: a JSON integer or a decimal-integer string."""
    if type(value) is int:
        return value
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        return int(value)
    raise ValueError(f"expected an integer or a decimal-integer string, got {value!r}")


def _rational_from_json(value) -> Fraction:
    """A certificate rational: a JSON integer or an "a" or "a/b" string of digits.

    This is what :func:`frac_str` writes; a JSON float such as ``0.5`` or
    ``1e400`` is refused, not read as a binary fraction or an infinity.  The
    matched digits are read with ``int``, not parsed again as a whole.  A
    zero denominator raises ``ZeroDivisionError``, as in :func:`_fraction_from_json`.
    """
    if type(value) is int:
        return Fraction(value)
    match = isinstance(value, str) and re.fullmatch(r"(-?[0-9]+)(?:/([0-9]+))?", value)
    if match:
        return Fraction(int(match[1]), int(match[2] or 1))
    raise ValueError(f"expected an integer or an 'a/b' string, got {value!r}")


def _fraction_from_json(d: dict) -> Fraction:
    """The rational ``{"num": ..., "den": ...}`` of a certificate, exactly."""
    return Fraction(_int_from_json(d["num"]), _int_from_json(d["den"]))


def witness_from_dict(d: dict) -> loops.LoopWitness:
    q = q_from_dict(d["q"])
    loop = _entries_from_json(d["loop"])
    wd = d["weight_squared"]
    w2: Union[Fraction, loops.FormulaWeight]
    if "formula" in wd:
        if wd["formula"] != WEIGHT_FORMULA:
            raise ValueError(f"unknown weight formula {wd['formula']!r}")
        w2 = loops.FormulaWeight(float(wd["approx"]))
    else:
        w2 = _fraction_from_json(wd)
    if d["provenance"] not in ("search", "duplicate-c", "pell", "darboux"):
        raise ValueError(f"unknown provenance {d['provenance']!r}")
    kwargs = {}
    if d["provenance"] == "duplicate-c":
        kwargs = {
            "other_loop": _entries_from_json(d["other_loop"]),
            "other_weight_squared": _fraction_from_json(d["other_weight_squared"]),
            "c_value": _rational_from_json(d["c_value"]),
        }
    if not isinstance(d["verified"], bool):
        raise ValueError(f"verified must be a JSON boolean, got {d['verified']!r}")
    return loops.LoopWitness(
        q=q,
        loop=loop,
        weight_squared=w2,
        provenance=d["provenance"],
        verified=d["verified"],
        **kwargs,
    )


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


def cmd_eval(args) -> int:
    q = parse_rational(args.q)
    m = parse_sequence(args.m)
    ev = loops.evaluate_path(q, m)
    # every line is rendered before any is printed
    lines = ["prefix_c=" + ",".join(frac_str(c) for c in ev.prefix_c)]
    if ev.status == loops.STATUS_BROKEN:
        lines.append(f"status=broken_at:{ev.broken_at}")
    else:
        lines.append(f"status={ev.status}")
        lines.append(f"w2={frac_str(ev.weight_squared)}")
    print("\n".join(lines))
    return 0


def _search_config(args) -> loops.SearchConfig:
    return loops.SearchConfig(
        max_depth=args.depth, window=args.window, node_budget=args.budget
    )


def cmd_search(args) -> int:
    q = parse_rational(args.q)
    res = loops.search_nonunit_loop(q, _search_config(args))
    if res.witness is not None:
        _emit({"found": True, "nodes": res.nodes, "witness": witness_to_dict(res.witness)})
    else:
        _emit({"found": False, "budget_exhausted": res.budget_exhausted, "nodes": res.nodes})
    return 0


def reduced_fractions(lo: Fraction, hi: Fraction, max_den: int) -> Iterator[tuple[int, int]]:
    """Reduced fractions a/b in [lo, hi] with b <= max_den, generated in (b, a) order."""
    for b in range(1, max_den + 1):
        for a in range(max(1, math.ceil(lo * b)), math.floor(hi * b) + 1):
            if math.gcd(a, b) == 1:
                yield a, b


def _scan_candidate(task):
    a, b, cfg = task
    return a, b, loops.search_nonunit_loop(Fraction(a, b), cfg)


def cmd_scan(args) -> int:
    ends = args.range.split(",")
    if len(ends) != 2:
        raise ValueError(f"--range needs lo,hi, got {args.range!r}")
    lo, hi = (parse_rational(t) for t in ends)
    if not 0 < lo < hi:
        raise ValueError(f"bad range [{lo}, {hi}]: need 0 < lo < hi")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    if args.max_den < 1:
        raise ValueError(f"--max-den must be >= 1, got {args.max_den}")
    d = args.max_den
    if (hi - lo) * (d * (d + 1) // 2) + d > MAX_SCAN_CANDIDATES:
        raise ValueError(f"--range {args.range} with --max-den {d} could give more "
                         f"candidates than the guard {MAX_SCAN_CANDIDATES}")
    cfg = _search_config(args)
    tasks = ((a, b, cfg) for a, b in reduced_fractions(lo, hi, d))
    # imap, like map, yields in task order, so rows stay in (b, a) order.  Its
    # feeder thread sends chunks of 8 and blocks while the pipe to the workers
    # is full, and a result waits only until _scan_text takes it, so the pool
    # streams too.  On a fault, leaving the pool terminates its workers at
    # once, without waiting for the chunks in flight.
    if args.jobs > 1:
        import multiprocessing
        with multiprocessing.Pool(min(args.jobs, os.cpu_count() or 1)) as pool:
            text = _scan_text(args, lo, hi, pool.imap(_scan_candidate, tasks, 8))
    else:
        text = _scan_text(args, lo, hi, map(_scan_candidate, tasks))
    sys.stdout.write(text)
    return 0


def _scan_text(args, lo: Fraction, hi: Fraction, results) -> str:
    """The scan report, rendered as each result arrives and kept no longer.

    The JSON report keeps only its found certificates, its budget-exhausted
    values and a count; CSV rows go into the buffer one by one.  The caller
    writes the text after the last result, so a budget fault prints nothing.
    """
    if args.json:
        found, exhausted, examined = [], [], 0
        for a, b, res in results:
            examined += 1
            if res.witness:
                found.append(witness_to_dict(res.witness))
            if res.budget_exhausted:
                exhausted.append(frac_str(Fraction(a, b)))
        report = {
            "interval": [frac_str(lo), frac_str(hi)],
            "max_denominator": args.max_den,
            "config": {
                "max_depth": args.depth,
                "window": args.window,
                "node_budget": args.budget,
                "use_chain_pruning": True,
            },
            "found": found,
            "examined": examined,
            "budget_exhausted": exhausted,
        }
        return json.dumps(report, indent=2) + "\n"

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["a", "b", "q_float", "found", "loop", "w2_num", "w2_den", "nodes",
         "budget_exhausted", "provenance", "other_loop"]
    )
    for a, b, res in results:
        w = res.witness
        try:
            q_float = repr(a / b)
        except OverflowError:
            q_float = "inf"
        if w is not None:
            loop_s = ";".join(str(x) for x in w.loop)
            w2 = w.weight_squared
            w2n, w2d = frac_str(w2.numerator), frac_str(w2.denominator)
            prov = w.provenance
            other_s = ";".join(str(x) for x in w.other_loop or ())
        else:
            loop_s, w2n, w2d, prov, other_s = "", "", "", "", ""
        writer.writerow(
            [a, b, q_float, "true" if w is not None else "false", loop_s,
             w2n, w2d, res.nodes, "true" if res.budget_exhausted else "false",
             prov, other_s]
        )
    return buf.getvalue()


def cmd_pell(args) -> int:
    out = []
    for pw in families.pell_witnesses(args.count, reciprocal=args.reciprocal):
        out.append(
            {
                "k": pw.k,
                "a": frac_str(pw.a),
                "b": frac_str(pw.b),
                "q": q_to_dict(pw.q),
                "witness": witness_to_dict(pw.witness),
            }
        )
    _emit(out)
    return 0


def cmd_darboux(args) -> int:
    out = []
    for dw in families.darboux_witnesses(args.n, args.u_index, args.count):
        out.append(
            {
                "n": dw.n,
                "c_k": dw.c_k,
                "epsilon": dw.epsilon,
                "t0": q_to_dict(dw.t0),
                "t1_approx": dw.t1_approx,
                "q": q_to_dict(dw.q),
                "witness": witness_to_dict(dw.witness),
            }
        )
    _emit(out)
    return 0


def cmd_chain(args) -> int:
    print(loops.chain_length(parse_rational(args.q)))
    return 0


def cmd_gpoly(args) -> int:
    # json.dumps would raise the interpreter's ValueError past the digit limit
    print("[" + ", ".join(frac_str(c) for c in continuants.g_poly(args.n).coeffs) + "]")
    return 0


def cmd_roots(args) -> int:
    print(json.dumps(continuants.g_roots(args.n)))
    return 0


def cmd_uset(args) -> int:
    _emit([q_to_dict(a) for a in continuants.u_set(args.n)])
    return 0


def cmd_cos2(args) -> int:
    print(json.dumps(families.cos2_family(args.max_k, args.max_n)))
    return 0


def _add_search_bounds(sp: argparse.ArgumentParser) -> None:
    defaults = loops.SearchConfig()
    sp.add_argument("--depth", type=int, default=defaults.max_depth)
    sp.add_argument("--window", type=int, default=defaults.window)
    sp.add_argument("--budget", type=int, default=defaults.node_budget)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="forbiddenq",
        description="Exact continued-fraction loop weights and certified "
                    "forbidden conductor values.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eval", help="evaluate a sequence at q")
    sp.add_argument("--q", required=True)
    sp.add_argument("--m", required=True, help="comma-separated integers")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("search", help="search for a non-unit-weight loop at q")
    sp.add_argument("--q", required=True)
    _add_search_bounds(sp)
    sp.set_defaults(func=cmd_search)

    sp = sub.add_parser("scan", help="search every reduced fraction in a range")
    sp.add_argument("--range", required=True, help="lo,hi")
    sp.add_argument("--max-den", type=int, required=True, dest="max_den")
    _add_search_bounds(sp)
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--json", action="store_true", help="JSON report instead of CSV")
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("pell", help="witnesses from units of the norm form")
    sp.add_argument("--count", type=int, required=True)
    sp.add_argument("--reciprocal", action="store_true")
    sp.set_defaults(func=cmd_pell)

    sp = sub.add_parser("darboux", help="witnesses above an accumulation point")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--u-index", type=int, default=0, dest="u_index")
    sp.add_argument("--count", type=int, required=True)
    sp.set_defaults(func=cmd_darboux)

    sp = sub.add_parser("chain", help="alternating-chain length bound at q")
    sp.add_argument("--q", required=True)
    sp.set_defaults(func=cmd_chain)

    sp = sub.add_parser("gpoly", help="coefficients of the alternating continuant")
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=cmd_gpoly)

    sp = sub.add_parser("roots", help="roots 2cos(pi j/(n+1)) of the alternating continuant")
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=cmd_roots)

    sp = sub.add_parser("uset", help="certified squared roots with coprime index")
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=cmd_uset)

    sp = sub.add_parser("cos2", help="float enumeration of the classical dense family")
    sp.add_argument("--max-k", type=int, required=True, dest="max_k")
    sp.add_argument("--max-n", type=int, required=True, dest="max_n")
    sp.set_defaults(func=cmd_cos2)

    return p


# built by the first `main` call, not at import, and reused by every later call
# in the process; it holds no input or output
_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[list[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader stopped early (`forbiddenq pell ... | head`); point stdout
        # at devnull so the interpreter's final flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ValueError, ZeroDivisionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (loops.BudgetExceeded, ArithmeticError) as e:
        print(f"fault: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
