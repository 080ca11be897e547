import concurrent.futures
import json
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

from forbiddenq import cli, continuants, families, loops
from forbiddenq.exact import AlgebraicNumber, NoSignChange
from forbiddenq.loops import verify_witness


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_rational():
    assert cli.parse_rational("5/2") == Fraction(5, 2)
    assert cli.parse_rational("2.5") == Fraction(5, 2)
    assert cli.parse_rational(" 4 ") == 4
    with pytest.raises(ValueError):
        cli.parse_rational("0.333...")
    # an exponent int() refuses for its length, not its form
    with pytest.raises(ValueError, match="beyond 4300 in magnitude"):
        cli.parse_rational("1e" + "9" * 5000)


def test_parse_rational_reads_exponents_up_to_the_digit_limit():
    # 10**4299 has 4300 digits, CPython's default int-to-str limit
    assert cli.parse_rational("1e4299") == 10**4299
    assert cli.parse_rational("1E-4299") == Fraction(1, 10**4299)
    for text in ("1e4300", "1E-4300", "10e4299", "1" * 4301, "1/" + "3" * 4301):
        with pytest.raises(ValueError, match="more than 4300 digits is refused"):
            cli.parse_rational(text)


@pytest.mark.parametrize("limit", [0, None])
def test_parse_rational_without_a_digit_limit(monkeypatch, limit):
    # a limit of 0, or an interpreter without one, prints integers of any size
    if limit is None:
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    else:
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: limit)
    assert cli.parse_rational("1e4300") == 10**4300


@pytest.mark.parametrize("argv", [
    ("eval", "--q", "1e4300", "--m", "1,-1,1"),
    ("chain", "--q", "1e4300"),
])
def test_q_beyond_the_digit_limit_is_invalid_input(capsys, argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == (
        "error: a numerator or denominator of more than 4300 digits is refused\n")


@pytest.mark.parametrize("argv,message", [
    (("eval", "--q", "1", "--m", "1," + "1" * 4301),
     "an entry of more than 4300 digits is refused"),
    (("eval", "--q", "1", "--m", "1,-1,x"), "entry 'x' is not an integer"),
    (("scan", "--range", "1", "--max-den", "3"), "--range needs lo,hi, got '1'"),
    (("eval", "--q", "1/0", "--m", "1"), "the denominator of '1/0' is zero"),
    (("eval", "--q", "1ex", "--m", "1"), "the decimal exponent of '1ex' is not an integer"),
    (("eval", "--q", "1e", "--m", "1"), "the decimal exponent of '1e' is not an integer"),
    (("eval", "--q", "1e1.5", "--m", "1"),
     "the decimal exponent of '1e1.5' is not an integer"),
    (("search", "--q", "1e-"), "the decimal exponent of '1e-' is not an integer"),
    (("eval", "--q", "abc", "--m", "1"), "'abc' is not a rational (a/b or a finite decimal)"),
    (("eval", "--q", "1/x", "--m", "1"), "'1/x' is not a rational (a/b or a finite decimal)"),
    (("scan", "--range", "a,2", "--max-den", "3"),
     "'a' is not a rational (a/b or a finite decimal)"),
])
def test_bad_input_is_named_plainly(capsys, argv, message):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("rng,max_den", [("1,1e9", "1"), ("1,2", "1000000000")])
def test_scan_beyond_the_candidate_guard_is_refused_before_listing(capsys, monkeypatch,
                                                                   rng, max_den):
    def refuse(*args):
        raise AssertionError("the candidates were listed")

    monkeypatch.setattr(cli, "reduced_fractions", refuse)
    code = cli.main(["scan", "--range", rng, "--max-den", max_den])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == (f"error: --range {rng} with --max-den {max_den} could give "
                            f"more candidates than the guard {cli.MAX_SCAN_CANDIDATES}\n")


def test_scan_candidate_guard_bounds_the_count(capsys, monkeypatch):
    # (hi - lo) * D(D+1)/2 + D: 3 * 1 + 1 = 4 for [1, 4] at D = 1, and 5 for [1, 5]
    monkeypatch.setattr(cli, "MAX_SCAN_CANDIDATES", 4)
    argv = ["scan", "--max-den", "1", "--depth", "1", "--budget", "1", "--range"]
    assert cli.main(argv + ["1,4"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 4
    assert cli.main(argv + ["1,5"]) == 1
    assert capsys.readouterr().out == ""
    # at D = 2, [1, 3/2] bounds at 1/2 * 3 + 2 = 7/2 and holds 1 and 3/2
    assert cli.main(["scan", "--max-den", "2", "--depth", "1", "--budget", "1",
                     "--range", "1,3/2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 2


@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_scan_streams_its_candidates(capsys, monkeypatch, fmt):
    # 10**5 one-node searches: the scan keeps the rendered report, not every
    # candidate, task and result (about 42 MiB traced when it listed them)
    monkeypatch.setattr(loops, "search_nonunit_loop",
                        lambda q, cfg: loops.SearchResult(None, 1, True))
    tracemalloc.start()
    try:
        code = cli.main(["scan", "--range", "1,100000", "--max-den", "1",
                         "--depth", "1", "--budget", "1", *fmt])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0 and len(out.splitlines()) > 10**5
    assert peak < 24 * 2**20


def test_scan_jobs_keeps_a_bounded_number_of_tasks_in_flight(capsys):
    # 10**4 one-node searches in the pool: the parent holds two chunks per
    # worker, not every task, future and result (about 4 MiB more traced than
    # the serial scan when every chunk was submitted up front)
    argv = ["scan", "--max-den", "1", "--depth", "1", "--budget", "1", "--range"]
    # a first pool imports the modules it needs, which would count in the peak
    assert cli.main([*argv, "1,2", "--jobs", "2"]) == 0
    capsys.readouterr()
    peaks, outs = [], []
    for jobs in ("1", "2"):
        tracemalloc.start()
        try:
            code = cli.main([*argv, "1,10000", "--jobs", jobs])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        outs.append(capsys.readouterr().out)
        assert code == 0
    assert outs[0] == outs[1] and len(outs[0].splitlines()) == 1 + 10**4
    assert peaks[1] < peaks[0] + 2**20


@pytest.mark.parametrize("argv,message", [
    (["pell", "--count", str(families.MAX_PELL_COUNT + 1)],
     f"count={families.MAX_PELL_COUNT + 1} exceeds the guard {families.MAX_PELL_COUNT}"),
    (["darboux", "--n", "4", "--u-index", "1", "--count", str(families.MAX_DARBOUX_COUNT + 1)],
     f"count={families.MAX_DARBOUX_COUNT + 1} exceeds the guard {families.MAX_DARBOUX_COUNT}"),
    # 1 * 2 * (max_n - 1) terms, the least count beyond the guard
    (["cos2", "--max-k", "1", "--max-n", str(families.MAX_COS2_TERMS // 2 + 2)],
     f"max_k=1 with max_n={families.MAX_COS2_TERMS // 2 + 2} could give more terms "
     f"than the guard {families.MAX_COS2_TERMS}"),
    # a level's memory grows with n, so the guard falls beyond n = 40
    (["darboux", "--n", "200", "--u-index", "1", "--count", "1149"],
     "count=1149 exceeds the guard 1148 at n=200"),
])
def test_family_beyond_its_guard_is_refused_before_any_work(capsys, monkeypatch, argv, message):
    def refuse(*args):
        raise AssertionError("the family was built")

    for name in ("verify_witness", "ratio_in_q"):
        monkeypatch.setattr(families, name, refuse)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_sequence_entries_are_read_as_int_reads_them():
    assert cli.parse_sequence(" 1,,-2, +3 ,4_0,") == (1, -2, 3, 40)
    assert cli.parse_sequence("1" * 4300) == (int("1" * 4300),)


def test_result_beyond_the_digit_limit_is_a_budget_fault(capsys):
    # q = 10**2000 prints, but w2 = (q + 1)**2 (2q + 1)**2 / q**5 does not
    code = cli.main(["eval", "--q", "1e2000", "--m", "1,1,1,1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "fault: a result has more than 4300 digits\n"


@pytest.mark.parametrize("argv", [
    ("eval", "--q", "1e999999999", "--m", "1"),
    ("eval", "--q", "1e-999999999", "--m", "1"),
    ("search", "--q", "1e4301"),
    ("chain", "--q", "1E+999999999"),
    ("scan", "--range", "1,1e999999999"),
])
def test_huge_decimal_exponent_is_invalid_input(capsys, argv):
    # Fraction would build 10**999999999 before any check could run
    code, out = run(capsys, *argv)
    assert code == 1 and out == ""


def test_eval_loop(capsys):
    code, out = run(capsys, "eval", "--q", "5/2", "--m", "1,-1,1,-1,-2")
    assert code == 0
    assert "prefix_c=1,-3/5,1/3,1/5,0" in out
    assert "status=loop" in out
    assert "w2=1/16" in out


def test_eval_zero_loop(capsys):
    code, out = run(capsys, "eval", "--q", "7/3", "--m", "0")
    assert code == 0
    assert "status=loop" in out and "w2=1" in out


def test_eval_walks_the_sequence_once(capsys, monkeypatch):
    calls = []
    walk = loops.prefix_pairs

    def counting(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(loops, "prefix_pairs", counting)
    code, out = run(capsys, "eval", "--q", "5/2", "--m", "1,-1,1,-1,-2")
    assert code == 0 and out.endswith("status=loop\nw2=1/16\n")
    assert len(calls) == 1


def test_eval_broken(capsys):
    code, out = run(capsys, "eval", "--q", "1", "--m", "1,-1,9")
    assert code == 0
    assert "status=broken_at:2" in out


def test_eval_invalid_q(capsys):
    code, _ = run(capsys, "eval", "--q", "-1", "--m", "1")
    assert code == 1
    code, _ = run(capsys, "eval", "--q", "x/y", "--m", "1")
    assert code == 1


def test_search_found_json(capsys):
    code, out = run(capsys, "search", "--q", "5/4", "--depth", "4", "--window", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is True
    assert doc["witness"]["loop"] == [1, -1, 4]
    assert doc["witness"]["weight_squared"] == {"num": "1", "den": "16"}
    assert doc["witness"]["verified"] is True


def test_search_not_found(capsys):
    code, out = run(capsys, "search", "--q", "4", "--depth", "6", "--window", "4",
                    "--budget", "500000")
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is False
    assert doc["budget_exhausted"] is False


def test_search_invalid(capsys):
    code, _ = run(capsys, "search", "--q", "0")
    assert code == 1


def test_witness_json_round_trip_rational(capsys):
    code, out = run(capsys, "search", "--q", "5/2")
    doc = json.loads(out)
    w = cli.witness_from_dict(doc["witness"])
    assert w.q == Fraction(5, 2)
    assert verify_witness(w)


def test_witness_json_round_trip_algebraic(capsys):
    code, out = run(capsys, "darboux", "--n", "4", "--u-index", "1", "--count", "2")
    assert code == 0
    docs = json.loads(out)
    alg = [d for d in docs if d["q"]["type"] == "algebraic"]
    assert alg
    w = cli.witness_from_dict(alg[0]["witness"])
    assert isinstance(w.q, AlgebraicNumber)
    assert verify_witness(w)


def test_witness_json_round_trip_duplicate_c(capsys):
    code, out = run(capsys, "search", "--q", "7/5", "--depth", "6", "--window", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is True
    wd = doc["witness"]
    assert wd["provenance"] == "duplicate-c"
    assert "other_loop" in wd and "c_value" in wd
    w = cli.witness_from_dict(wd)
    assert verify_witness(w)


def test_search_and_scan_default_bounds():
    parser = cli.build_parser()
    for argv in (["search", "--q", "1"], ["scan", "--range", "1,2", "--max-den", "3"]):
        args = parser.parse_args(argv)
        assert (args.depth, args.window, args.budget) == (5, 4, 200_000)


def test_witness_from_dict_refuses_non_integer_entries(capsys):
    code, out = run(capsys, "search", "--q", "7/5", "--depth", "6", "--window", "4")
    wd = json.loads(out)["witness"]
    for key in ("loop", "other_loop"):
        for bad in (4.5, 4.0, "4", True, None):
            d = json.loads(json.dumps(wd))
            d[key][-1] = bad
            with pytest.raises(ValueError):
                cli.witness_from_dict(d)


def test_witness_from_dict_refuses_a_non_boolean_verified(capsys):
    code, out = run(capsys, "search", "--q", "5/4")
    wd = json.loads(out)["witness"]
    for bad in ("false", "true", "", 0, 1, None):
        d = json.loads(json.dumps(wd))
        d["verified"] = bad
        with pytest.raises(ValueError):
            cli.witness_from_dict(d)
    wd["verified"] = False
    assert cli.witness_from_dict(wd).verified is False


def test_certificate_numbers_must_be_json_integers(capsys):
    code, out = run(capsys, "search", "--q", "5/4")
    wd = json.loads(out)["witness"]
    assert verify_witness(cli.witness_from_dict(wd))
    edited = json.loads(json.dumps(wd))
    edited["q"]["num"], edited["weight_squared"]["num"] = 5.7, 1.9
    with pytest.raises(ValueError):
        cli.witness_from_dict(edited)
    for bad in (5.0, "5.0", " 5", "5_0", "+5", "1e3", True, None, [5]):
        for path in (("q", "num"), ("q", "den"), ("weight_squared", "num")):
            d = json.loads(json.dumps(wd))
            d[path[0]][path[1]] = bad
            with pytest.raises(ValueError):
                cli.witness_from_dict(d)
    as_ints = json.loads(json.dumps(wd))
    as_ints["q"]["num"], as_ints["weight_squared"]["den"] = 5, 16
    assert cli.witness_from_dict(as_ints) == cli.witness_from_dict(wd)

    alg = families.darboux_witnesses(6, 0, 2)[1].witness
    ad = cli.witness_to_dict(alg)
    assert ad["q"]["type"] == "algebraic"
    assert verify_witness(cli.witness_from_dict(ad))
    for bad in (8.5, "8.5", 8.0):
        d = json.loads(json.dumps(ad))
        d["q"]["poly"][0] = bad
        with pytest.raises(ValueError):
            cli.witness_from_dict(d)
    d = json.loads(json.dumps(ad))
    d["q"]["poly"] = "".join(d["q"]["poly"])
    with pytest.raises(ValueError):
        cli.witness_from_dict(d)


def test_rational_from_json_reads_what_frac_str_writes():
    for x in (Fraction(0), Fraction(5), Fraction(-7, 3), Fraction(10**30 + 1, 10**29)):
        assert cli._rational_from_json(cli.frac_str(x)) == x
    assert cli._rational_from_json(-4) == -4
    with pytest.raises(ZeroDivisionError):
        cli._rational_from_json("1/0")


@pytest.mark.parametrize("bad", ["1e400", "0.5", '"0.5"', '"1e400"', '" 1/2"',
                                 '"1/2.0"', '"+1/2"', "true", "null", "[1, 2]"])
def test_certificate_rationals_are_not_read_as_floats(bad):
    # a JSON float end or c-value is refused as input: 1e400 is not an
    # OverflowError (exit 2), and 0.5 is not read as 1/2
    value = json.loads(bad)
    ad = _algebraic_darboux_dict()
    for i in (0, 1):
        d = json.loads(json.dumps(ad))
        d["q"]["interval"][i] = value
        with pytest.raises(ValueError):
            cli.witness_from_dict(d)
    w = loops.search_nonunit_loop(Fraction(10, 3), loops.SearchConfig(10, 3)).witness
    wd = cli.witness_to_dict(w)
    assert verify_witness(cli.witness_from_dict(wd))
    wd["c_value"] = value
    with pytest.raises(ValueError):
        cli.witness_from_dict(wd)


def test_duplicate_c_other_weight_must_be_json_integers():
    w = loops.search_nonunit_loop(Fraction(10, 3), loops.SearchConfig(10, 3)).witness
    wd = cli.witness_to_dict(w)
    assert wd["provenance"] == "duplicate-c"
    assert verify_witness(cli.witness_from_dict(wd))
    wd["other_weight_squared"]["num"] = float(wd["other_weight_squared"]["num"]) + 0.5
    with pytest.raises(ValueError):
        cli.witness_from_dict(wd)


def test_witness_from_dict_refuses_empty_algebraic_loop(capsys):
    code, out = run(capsys, "darboux", "--n", "4", "--u-index", "1", "--count", "2")
    wd = [d for d in json.loads(out) if d["q"]["type"] == "algebraic"][0]["witness"]
    wd["loop"] = []
    with pytest.raises(ValueError):
        cli.witness_from_dict(wd)


def _algebraic_darboux_dict():
    w = families.darboux_witnesses(6, 0, 2)[1].witness
    assert isinstance(w.q, AlgebraicNumber)
    return cli.witness_to_dict(w)


@pytest.mark.parametrize("loop", [[0], [1], [-2]])
def test_algebraic_loop_shorter_than_two_is_refused_not_raised(loop):
    wd = _algebraic_darboux_dict()
    wd["loop"] = loop
    assert verify_witness(cli.witness_from_dict(wd)) is False


@pytest.mark.parametrize("approx", ['"nan"', '"inf"', '"-inf"', "1e400"])
def test_non_finite_weight_approx_is_refused_not_raised(approx):
    wd = _algebraic_darboux_dict()
    wd["weight_squared"]["approx"] = json.loads(approx)
    assert verify_witness(cli.witness_from_dict(wd)) is False


@pytest.mark.parametrize("field,value", [
    ("interval", lambda iv: iv[:1]),
    ("interval", lambda iv: iv + iv[:1]),
    ("interval", lambda iv: iv[0]),
    ("approx", lambda _: "inf"),
    ("approx", lambda _: "-inf"),
    ("approx", lambda _: "nan"),
])
def test_q_from_dict_refuses_malformed_algebraic_q(field, value):
    qd = _algebraic_darboux_dict()["q"]
    qd[field] = value(qd[field])
    with pytest.raises(ValueError):
        cli.q_from_dict(qd)


def test_pell_command(capsys):
    code, out = run(capsys, "pell", "--count", "3")
    assert code == 0
    docs = json.loads(out)
    assert [d["q"]["num"] + "/" + d["q"]["den"] for d in docs] == ["5/2", "8/3", "13/5"]
    assert docs[2]["witness"]["loop"] == [1, -1, 1, -1, -15]
    assert docs[2]["witness"]["weight_squared"] == {"num": "1", "den": "625"}
    for d in docs:
        assert verify_witness(cli.witness_from_dict(d["witness"]))


def test_chain_command(capsys):
    code, out = run(capsys, "chain", "--q", "3")
    assert code == 0 and out.strip() == "4"
    code, _ = run(capsys, "chain", "--q", "9/2")
    assert code == 1


def test_chain_at_the_guard(capsys, monkeypatch):
    # C(3) = 4: answered at a guard of 4, a budget fault at a guard of 3
    monkeypatch.setattr(loops, "MAX_CHAIN_LENGTH", 4)
    code, out = run(capsys, "chain", "--q", "3")
    assert code == 0 and out.strip() == "4"
    monkeypatch.setattr(loops, "MAX_CHAIN_LENGTH", 3)
    code, out = run(capsys, "chain", "--q", "3")
    assert code == 2 and out == ""


def test_chain_beyond_the_guard_is_a_budget_fault():
    # C(3.9999999) = 19867; the walk to it grows without bound as q nears 4
    proc = subprocess.run(
        [sys.executable, "-m", "forbiddenq.cli", "chain", "--q", "3.9999999"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"fault: chain length exceeds the guard {loops.MAX_CHAIN_LENGTH}\n"


def test_gpoly_roots_uset_cos2(capsys):
    code, out = run(capsys, "gpoly", "--n", "4")
    assert code == 0 and json.loads(out) == [1, 0, -3, 0, 1]

    code, out = run(capsys, "roots", "--n", "2")
    assert code == 0
    assert json.loads(out) == pytest.approx([1.0, -1.0])

    code, out = run(capsys, "uset", "--n", "4")
    assert code == 0
    docs = json.loads(out)
    assert [d["type"] for d in docs] == ["algebraic", "algebraic"]
    assert docs[1]["approx"] == pytest.approx(2.618033988749895, abs=1e-9)

    code, out = run(capsys, "cos2", "--max-k", "1", "--max-n", "2")
    assert code == 0 and json.loads(out) == pytest.approx([0.5])


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the interpreter has no int-to-str digit limit")
def test_gpoly_beyond_the_digit_limit_is_a_budget_fault(capsys):
    # g_3200 has coefficients of 667 digits; 640 is the lowest limit allowed
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code = cli.main(["gpoly", "--n", "3200"])
    finally:
        sys.set_int_max_str_digits(old)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "fault: a result has more than 640 digits\n"


G = continuants.MAX_G_DEGREE


@pytest.mark.parametrize("command,message", [
    (["roots", "--n", str(G + 1)], f"n={G + 1} exceeds the guard {G}"),
    (["roots", "--n", "100000000"], f"n=100000000 exceeds the guard {G}"),
    (["gpoly", "--n", str(G + 1)], f"n={G + 1} exceeds the guard {G}"),
    # both build g_poly(n + 1)
    (["uset", "--n", str(G)], f"n={G} exceeds the guard {G - 1}: the ratio builds g_poly(n + 1)"),
    (["darboux", "--n", str(G), "--count", "1"],
     f"n={G} exceeds the guard {G - 1}: the ratio builds g_poly(n + 1)"),
])
def test_order_above_the_g_poly_guard_is_invalid_input(command, message):
    proc = subprocess.run(
        [sys.executable, "-m", "forbiddenq.cli", *command],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"


def test_scan_csv(capsys):
    code, out = run(capsys, "scan", "--range", "2,3", "--max-den", "5",
                    "--depth", "5", "--window", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("a,b,q_float,found,loop,w2_num,w2_den,nodes,budget_exhausted,"
                        "provenance,other_loop")
    rows = {tuple(l.split(",")[:2]): l for l in lines[1:]}
    assert rows[("5", "2")].split(",")[3] == "true"
    assert rows[("8", "3")].split(",")[3] == "true"
    # sorted by (denominator, numerator)
    keys = [tuple(int(x) for x in l.split(",")[:2]) for l in lines[1:]]
    assert keys == sorted(keys, key=lambda ab: (ab[1], ab[0]))


def test_scan_csv_writes_inf_for_a_q_beyond_the_float_range(capsys):
    code, out = run(capsys, "scan", "--range", f"1e400,{10**400 + 1}", "--max-den", "1",
                    "--depth", "2", "--budget", "1")
    assert code == 0
    header, *rows = out.strip().splitlines()
    assert len(rows) == 2
    q_col = header.split(",").index("q_float")
    assert [row.split(",")[q_col] for row in rows] == ["inf", "inf"]


def test_scan_csv_shows_duplicate_c_pair(capsys):
    code, out = run(capsys, "scan", "--range", "3.33,3.34", "--max-den", "3",
                    "--depth", "10", "--window", "3")
    assert code == 0
    header, row = out.strip().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert (cols["a"], cols["b"], cols["found"]) == ("10", "3", "true")
    assert cols["provenance"] == "duplicate-c"
    assert cols["loop"] == "1;-1"
    assert cols["other_loop"] == "1;-2;1;-1;1;-1;1;-1;17;-4"
    # two paths to one value with different weights: the pair certifies
    q, other = Fraction(10, 3), (1, -2, 1, -1, 1, -1, 1, -1, 17, -4)
    ends = {loops.evaluate_path(q, m).prefix_c[-1] for m in [(1, -1), other]}
    assert len(ends) == 1
    w2 = Fraction(int(cols["w2_num"]), int(cols["w2_den"]))
    assert w2 == loops.weight_squared(q, (1, -1)) != loops.weight_squared(q, other)


@pytest.mark.parametrize("command", [
    ["search", "--q", "9/2", "--depth", "3000", "--window", "1"],
    ["scan", "--range", "4,5", "--max-den", "3", "--depth", "3000", "--window", "1"],
])
def test_search_depth_above_guard_is_invalid_input(command):
    proc = subprocess.run(
        [sys.executable, "-m", "forbiddenq.cli", *command],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: max_depth=3000 exceeds the guard")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", [
    ["search", "--q", "9/7", "--budget", str(loops.MAX_NODE_BUDGET + 1)],
    ["scan", "--range", "1,2", "--max-den", "3", "--budget", str(loops.MAX_NODE_BUDGET + 1)],
])
def test_search_budget_above_guard_is_invalid_input(command):
    proc = subprocess.run(
        [sys.executable, "-m", "forbiddenq.cli", *command],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith(
        f"error: node_budget={loops.MAX_NODE_BUDGET + 1} exceeds the guard")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", [
    ["search", "--q", "9/7", "--window", str(loops.MAX_SEARCH_WINDOW + 1)],
    ["scan", "--range", "1,2", "--max-den", "3", "--window", str(loops.MAX_SEARCH_WINDOW + 1)],
])
def test_search_window_above_guard_is_invalid_input(command):
    proc = subprocess.run(
        [sys.executable, "-m", "forbiddenq.cli", *command],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith(
        f"error: window={loops.MAX_SEARCH_WINDOW + 1} exceeds the guard")
    assert "Traceback" not in proc.stderr


def test_scan_low_range_finds_darboux_and_reciprocal(capsys):
    code, out = run(capsys, "scan", "--range", "0.2,0.5", "--max-den", "5",
                    "--depth", "4", "--window", "5", "--json")
    assert code == 0
    doc = json.loads(out)
    found_qs = {w["q"]["num"] + "/" + w["q"]["den"] for w in doc["found"]}
    assert "1/4" in found_qs and "2/5" in found_qs


def test_scan_above_four_finds_nothing(capsys):
    code, out = run(capsys, "scan", "--range", "4,5", "--max-den", "3",
                    "--depth", "5", "--window", "4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] == []
    assert doc["examined"] == 5  # 4, 5, 9/2, 13/3, 14/3


def test_scan_bad_range(capsys):
    code, _ = run(capsys, "scan", "--range", "3,2", "--max-den", "4")
    assert code == 1


def test_scan_deterministic_across_jobs(capsys):
    args = ["scan", "--range", "2,3", "--max-den", "6", "--depth", "4",
            "--window", "3", "--budget", "3000"]
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args, "--jobs", "2")
    assert out1 == out2


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_scan_jobs_below_one_is_invalid_input(capsys, jobs):
    code = cli.main(["scan", "--range", "2,3", "--max-den", "3", "--jobs", jobs])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: --jobs must be >= 1")


@pytest.mark.parametrize("max_den", ["0", "-5"])
def test_scan_max_den_below_one_is_invalid_input(capsys, max_den):
    code = cli.main(["scan", "--range", "2,3", "--max-den", max_den])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: --max-den must be >= 1")


def test_scan_jobs_capped_at_cpu_count(capsys, monkeypatch):
    # a stand-in executor records its size and maps serially: no process starts
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    args = ["scan", "--range", "2,3", "--max-den", "5", "--depth", "4", "--window", "2"]
    _, serial = run(capsys, *args)
    # cmd_scan imports the pool at call time, so it reads the patched attribute
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    for jobs, size in (("2", 2), ("3", 3), ("64", 3)):
        code, out = run(capsys, *args, "--jobs", jobs)
        assert code == 0 and out == serial
        assert sizes.pop() == size
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    run(capsys, *args, "--jobs", "8")
    assert sizes == [1]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "forbiddenq.cli", "chain", "--q", "5/2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "2"


def test_cli_import_leaves_the_process_pool_out():
    # only scan --jobs > 1 imports it; test_scan_deterministic_across_jobs runs it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, forbiddenq.cli; print(sorted(m for m in sys.modules"
         " if m.split('.')[0] in ('concurrent', 'multiprocessing')))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "[]"


def test_cli_import_leaves_dataclasses_and_inspect_out():
    # the records are NamedTuples, so dataclasses and the inspect it loads
    # stay out of every command's start
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, forbiddenq.cli; print(sorted(m for m in sys.modules"
         " if m.split('.')[0] in ('dataclasses', 'inspect')))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "[]"


def test_unknown_flag_is_invalid_input(capsys):
    assert cli.main(["chain", "--bogus", "1"]) == 1


def test_main_called_again_in_one_process_answers_as_a_fresh_process(capsys, monkeypatch):
    # `main` reuses its parser: no call may leave state that a later one sees.
    # COLUMNS fixes the help's line width on both sides
    monkeypatch.setenv("COLUMNS", "80")
    scan = ["scan", "--range", "1,2", "--max-den", "6", "--depth", "5",
            "--window", "3", "--budget", "2000"]
    calls = [
        [*scan, "--json"],
        scan,
        ["scan", "--range", "2,1", "--max-den", "3"],
        ["search", "--q", "7/5", "--depth", "6", "--window", "4", "--budget", "5000"],
        ["--help"],
    ]
    got = []
    for argv in calls:
        code = cli.main(argv)
        captured = capsys.readouterr()
        got.append((code, captured.out, captured.err))
    fresh = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "forbiddenq.cli", *argv],
                              capture_output=True, text=True)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert [code for code, _, _ in got] == [0, 0, 1, 0, 0]
    assert got == fresh


def test_cli_import_builds_no_parser():
    # the first `main` call builds it, so an import and its start-up pay nothing
    proc = subprocess.run(
        [sys.executable, "-c", "import forbiddenq.cli as cli; print(cli._parser)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "None"


def test_isolation_fault_exits_2(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise NoSignChange("forced isolation fault")

    monkeypatch.setattr(continuants, "isolate_root", fail)
    assert cli.main(["uset", "--n", "4"]) == 2
    assert capsys.readouterr().err.startswith("fault: forced isolation fault")


def test_internal_arithmetic_error_exits_2(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise ArithmeticError("witness verification failed")

    monkeypatch.setattr(families, "pell_witnesses", fail)
    assert cli.main(["pell", "--count", "3"]) == 2
    assert capsys.readouterr().err.startswith("fault: witness verification failed")
    # division by zero stays in the invalid-input class
    monkeypatch.setattr(families, "pell_witnesses", lambda *a, **k: 1 // 0)
    assert cli.main(["pell", "--count", "3"]) == 1


def test_closed_pipe_exits_quietly():
    # the JSON (about 140 kB) overfills the pipe, so the write must fail
    proc = subprocess.Popen(
        [sys.executable, "-m", "forbiddenq.cli", "pell", "--count", "200"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"[\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE
    assert err == ""


def test_reader_closing_after_one_byte_exits_141():
    proc = subprocess.Popen(
        [sys.executable, "-m", "forbiddenq.cli", "pell", "--count", "300"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(1) == b"["
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141 == cli.EXIT_BROKEN_PIPE
    assert err == ""


def test_cli_import_leaves_numpy_out():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, forbiddenq.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "False"
