"""The forbiddenq benchmark.

    python3 benchmarks/run.py --workload scan-lo --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads (see ``BENCHMARK.json`` for why each exists):

* ``scan-lo``  -- ``scan --json`` over seeded windows tiling (1,2), serial;
  one more, untimed pass runs them with ``--jobs 2``;
* ``scan-hi``  -- ``scan --json`` over seeded windows tiling (2,4), serial;
* ``certs``    -- Darboux and Pell certificates, serialised and re-verified.

A run repeats one pass over the seeded inputs until ``--seconds`` is spent,
times set-up before the first pass and after each one, and reports medians.  Times are
reported in reference seconds (see ``reference``): each is scaled by how
fast a fixed reference computation, run beside it, went at the time.  Every
certificate is parsed back and re-verified (outside the timed passes for the
scans, inside them for ``certs``), passes must produce byte-identical output,
and the ``--jobs 2`` pass of ``scan-lo`` must reproduce the serial output.
Any failure makes the run exit 1.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` alternates plain
and traced passes and prints the per-layer metrics.  The last line of stdout
is one JSON object; a readable summary goes to stderr, and a run record
(``BENCH_<workload>_seed<n>_trace<t>.json``, plus the spans of a traced run)
to ``benchmarks/runs/``.  ``--smoke`` shrinks every input for the self-test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
WORKLOADS = ("scan-lo", "scan-hi", "certs")
SETUP_PER_PASS = 3


def _load_program() -> None:
    """Import forbiddenq from this checkout's ``src/``, or exit with an error."""
    if not (SRC / "forbiddenq" / "__init__.py").is_file():
        sys.exit(f"error: no forbiddenq sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import forbiddenq
    if Path(forbiddenq.__file__).resolve().parent != SRC / "forbiddenq":
        sys.exit(f"error: imported forbiddenq from {forbiddenq.__file__}, not {SRC}")


def setup_samples(name: str, seed: int, smoke: bool, repeats: int) -> list[tuple[float, float]]:
    """Time set-up ``repeats`` times: a fresh-interpreter import of
    ``forbiddenq.cli`` plus input generation.  Returns (seconds, calibration)
    pairs, the calibration taken right before each sample."""
    import reference
    import workloads
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(repeats):
        c = reference.calibrate()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import forbiddenq.cli"],
                       cwd=ROOT, env=env, check=True)
        workloads.make(name, seed, smoke)
        samples.append((time.perf_counter() - t0, c))
    return samples


def timed_pass(wl, calibrate=None):
    from forbiddenq import continuants
    continuants.g_poly.cache_clear()  # every pass starts as cold as a fresh process
    t0 = time.perf_counter()
    res = wl.run_pass(calibrate=calibrate)
    res.counts["pass_s"] = time.perf_counter() - t0
    res.counts["g_poly"] = continuants.g_poly.cache_info()._asdict()
    return res


def _ref_s(r) -> float:
    """A plain pass's measured time in reference seconds."""
    import reference
    return reference.scale(r.wall_s, r.calib_s)


def _times(r) -> dict:
    t = {"wall_s": r.wall_s, "audit_s": r.audit_s, "pass_s": r.counts["pass_s"]}
    if r.calib_s:
        t["calib_median_s"] = statistics.median(r.calib_s)
        t["wall_ref_s"] = _ref_s(r)
    return t


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _git_sha() -> str | None:
    try:
        # the ceiling keeps git from reading repositories above the checkout
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10,
                           env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.SubprocessError):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def _source_sha() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "forbiddenq").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def run_passes(wl, seconds: float, traced: bool, measure_setup):
    """Plain passes (alternating with traced ones when ``traced``) for ``seconds``.

    ``measure_setup()`` runs after each plain pass, so that set-up is sampled
    over the same stretch of time as the passes.  A further pass (or
    plain/traced pair) starts only while it is expected to end within half its
    own length of the deadline.
    """
    import reference
    import spans
    plain, trace_runs, tracers = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(timed_pass(wl, reference.calibrate))
        measure_setup()
        if traced:
            tracer = spans.Tracer()
            with tracer:
                trace_runs.append(timed_pass(wl))
            tracers.append(tracer)
        step = time.perf_counter() - t0
        if time.perf_counter() - start + step / 2 >= seconds:
            return plain, trace_runs, tracers


def end_to_end(plain, setup_ref_s: float) -> dict:
    """The user-facing metrics; times in reference seconds."""
    pass_s = statistics.median(_ref_s(r) for r in plain)
    certified = len(plain[0].certificates) - plain[0].rejected
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "setup_s": (setup_ref_s, "s"),
        "pass_s": (pass_s, "s"),
        "certified": (certified, "count"),
        "certified_per_s": (certified / pass_s, "1/s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def per_layer(trace_runs, tracers, plain) -> dict:
    """Layer metrics from the traced passes; times in measured seconds."""
    import spans
    n = len(tracers)
    rows = [t.summary() for t in tracers]
    m: dict[str, tuple[float, str]] = {}
    for name in tracers[0].names:
        m[f"{name}.calls"] = (sum(r[name]["calls"] for r in rows) / n, "count")
        m[f"{name}.self_s"] = (sum(r[name]["self_s"] for r in rows) / n, "s")
    durations = [d for r in rows for d in r["loops.search_nonunit_loop"]["durations"]]
    m["loops.search_nonunit_loop.p50_ms"] = (spans.percentile_ms(durations, 50), "ms")
    m["loops.search_nonunit_loop.p90_ms"] = (spans.percentile_ms(durations, 90), "ms")
    search = {k: sum(t.search[k] for t in tracers) / n for k in tracers[0].search}
    search_s = sum(durations) / n
    m["loops.nodes"] = (search["nodes"], "count")
    m["loops.nodes_per_s"] = (search["nodes"] / search_s if search_s else 0.0, "1/s")
    for k in ("found", "exhausted", "empty_unexhausted", "found.12", "found.23", "found.34"):
        m[f"loops.{k}"] = (search[k], "count")
    m["loops.useful_node_ratio"] = (
        search["useful_nodes"] / search["nodes"] if search["nodes"] else 0.0, "ratio")
    m["loops.verify_witness.failed"] = (sum(t.verify_failed for t in tracers) / n, "count")
    m["cli.output_bytes"] = (plain[0].counts.get("cli_output_bytes", 0), "B")
    m["audit_s"] = (statistics.median(r.audit_s for r in plain), "s")
    g = trace_runs[0].counts["g_poly"]
    m["continuants.g_poly.cache_hits"] = (g["hits"], "count")
    m["continuants.g_poly.cache_misses"] = (g["misses"], "count")
    c = plain[0].counts
    m["families.algebraic_share"] = (
        c["algebraic"] / c["certificates"] if c.get("certificates") else 0.0, "ratio")
    plain_wall = statistics.median(r.wall_s for r in plain)
    traced_wall = statistics.median(r.wall_s for r in trace_runs)
    traced_pass = statistics.mean(r.counts["pass_s"] for r in trace_runs)  # as the self times
    self_sum = sum(v for k, (v, _) in m.items() if k.endswith(".self_s"))
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.self_sum_s"] = (self_sum, "s")
    m["trace.coverage"] = (self_sum / traced_pass, "ratio")
    m["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    m["trace.spans"] = (sum(len(t.name_id) for t in tracers) / n, "count")
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    args = p.parse_args(argv)

    _load_program()
    import reference
    import workloads

    setup: list[tuple[float, float]] = []

    def measure_setup():
        setup.extend(setup_samples(args.workload, args.seed, args.smoke,
                                   1 if args.smoke else SETUP_PER_PASS))

    measure_setup()
    wl = workloads.make(args.workload, args.seed, args.smoke)
    plain, trace_runs, tracers = run_passes(wl, args.seconds, bool(args.trace), measure_setup)
    setup_s = statistics.median(t for t, _ in setup)
    setup_ref_s = statistics.median(reference.scale(t, [c]) for t, c in setup)

    errors: list[str] = []
    attempted = failed = 0
    first = plain[0]
    for r in plain + trace_runs:
        attempted += r.attempted
        failed += r.failed
        errors += r.errors
        if r.output != first.output:
            failed += 1
            errors.append("passes over the same inputs produced different output")
    jobs_sha = None
    if wl.check_jobs > 1:
        parallel = wl.run_pass(jobs=wl.check_jobs)
        attempted += parallel.attempted
        failed += parallel.failed
        errors += parallel.errors
        jobs_sha = _sha(parallel.output)
        if parallel.output != first.output:
            failed += 1
            errors.append(f"--jobs {wl.check_jobs} output differs from the serial output")

    if args.trace:
        metrics = per_layer(trace_runs, tracers, plain)
    else:
        metrics = end_to_end(plain, setup_ref_s)
    correct = failed == 0
    output_sha = _sha(first.output)

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "smoke": args.smoke,
        "git_sha": _git_sha(), "source_sha256": _source_sha(),
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "platform": platform.platform(),
        "inputs": wl.inputs(), "output_sha256": output_sha,
        "jobs_output_sha256": jobs_sha, "setup_s": setup_s, "setup_samples": setup,
        "passes": [_times(r) for r in plain],
        "traced_passes": [_times(r) for r in trace_runs],
        "per_interval": first.per_interval, "counts": first.counts,
        "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted, "errors": errors[:50],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RUNS.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (RUNS / f"BENCH_{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracers:
        tracers[-1].dump(RUNS / f"spans_{stem}.tsv")

    print(f"{args.workload} seed={args.seed} passes={len(plain)} "
          f"output_sha256={output_sha}", file=sys.stderr)
    print(f"  measured: setup {setup_s:.4f} s, pass median "
          f"{statistics.median(r.wall_s for r in plain):.4f} s", file=sys.stderr)
    for k, (v, u) in metrics.items():
        print(f"  {k:40s} {v:14.6g} {u}", file=sys.stderr)
    print(f"  {'failed_ratio':40s} {failed / attempted:14.6g} ({failed}/{attempted})",
          file=sys.stderr)
    for e in errors[:20]:
        print(f"  FAILED: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
