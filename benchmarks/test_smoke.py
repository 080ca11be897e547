"""Smoke test of the benchmark at tiny sizes (``--smoke``)."""

import gc
import json
from pathlib import Path

import pytest

import reference
import run
import spans
import workloads
from forbiddenq import cli, continuants, exact, families, loops

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _run(capsys, workload, trace=0, seed=3):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.1",
                     "--trace", str(trace), "--smoke"])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload,trace", [
    ("scan-lo", 0), ("scan-hi", 0), ("certs", 0),
    ("scan-lo", 1), ("certs", 1),
])
def test_every_metric_printed_with_its_unit(capsys, workload, trace):
    code, result = _run(capsys, workload, trace)
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_parallel_scan_output_equals_serial_scan_output(capsys):
    assert _run(capsys, "scan-lo")[0] == 0
    record = json.loads((run.RUNS / "BENCH_scan-lo_seed3_trace0.json").read_text())
    assert record["inputs"]["check_jobs"] == 2
    assert record["jobs_output_sha256"] == record["output_sha256"]


def test_parallel_output_mismatch_fails_the_run(capsys, monkeypatch):
    original = workloads.ScanWorkload.run_pass

    def run_pass(self, jobs=1, calibrate=None):
        res = original(self, jobs, calibrate)
        if jobs > 1:
            res.output += "\n"
        return res

    monkeypatch.setattr(workloads.ScanWorkload, "run_pass", run_pass)
    code, result = _run(capsys, "scan-lo")
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1


def test_calibrate_is_fixed_work_and_keeps_gc_on():
    assert reference.arithmetic() == reference.arithmetic()
    assert reference.walk() == reference.walk() == 20_000
    assert gc.isenabled()
    assert reference.calibrate() > 0
    assert gc.isenabled()
    assert reference.scale(2.0, [reference.REFERENCE_S / 2, 1.0, 0.0]) == pytest.approx(4.0)


def _pell_certificate() -> dict:
    return cli.witness_to_dict(families.pell_witnesses(2)[1].witness)


@pytest.mark.parametrize("tamper", [
    lambda d: d["weight_squared"].update(num=str(int(d["weight_squared"]["num"]) + 1)),
    lambda d: d["loop"].__setitem__(-1, d["loop"][-1] + 1),
])
def test_audit_rejects_a_tampered_certificate(tamper):
    d = _pell_certificate()
    assert workloads.audit([json.dumps(d)]) == 0
    tamper(d)
    assert workloads.audit([json.dumps(d)]) == 1


def test_tampered_certificate_fails_the_run(capsys, monkeypatch):
    original = cli.witness_to_dict

    def tampered(w):
        d = original(w)
        d["weight_squared"] = {"num": "7", "den": "3"}
        return d

    monkeypatch.setattr(cli, "witness_to_dict", tampered)
    code, result = _run(capsys, "scan-lo")
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0


def test_tracer_wraps_every_namespace_and_restores():
    original = exact.isolate_root
    with spans.Tracer() as tracer:
        assert families.isolate_root is continuants.isolate_root is exact.isolate_root
        assert exact.isolate_root.__wrapped__ is original
        assert families.verify_witness is loops.verify_witness
        families.darboux_witnesses(5, 0, 1)
    assert families.isolate_root is continuants.isolate_root is exact.isolate_root is original
    summary = tracer.summary()
    assert summary["families.darboux_witnesses"]["calls"] == 1
    assert summary["exact.isolate_root"]["calls"] >= 1
    assert summary["exact.IntPoly.eval"]["calls"] > 0
    total = summary["families.darboux_witnesses"]["durations"][0]
    assert sum(row["self_s"] for row in summary.values()) == pytest.approx(total)


@pytest.mark.parametrize("n", range(1, 16))
def test_u_points_matches_u_set(n):
    assert workloads.u_points(n) == len(continuants.u_set(n))
