"""Benchmark of wctops: one workload, one seed, timed or traced.

    python3 perfbench/run.py --workload dense-oracle --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run times set-up in fresh processes, warms up, then
runs whole passes over the workload's operations one after another in one
process (a closed loop with one client) until ``--seconds`` have passed,
and reports the end-to-end metrics of BENCHMARK.json.  Each operation is
followed by the reference kernel of ``reference.py``, and its times are
reported in ``ref`` units, the kernel's time at that moment.  With
``--trace 1`` it alternates two plain and two traced passes, checks that
the traced call counts repeat exactly, and reports the per-layer metrics.
Every operation's report is checked.  A human summary goes to standard
output, then, as its last line, one JSON object; the full record is
written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import bench_env

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
TAIL_PERCENTILES = (99.0, 90.0, 50.0)
# Share of each operation's time spent on the reference kernel around it.
REF_SHARE = 0.15


@dataclass
class Pass:
    wall_s: float
    op_s: list[float]
    op_cpu_s: list[float]
    ref_s: list[float]
    ref_cpu_s: list[float]
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def check_reports(ops, reports) -> tuple[int, list[str]]:
    """Number of failed ops and their problems; an exception is a failure."""
    import workloads

    failed, problems = 0, []
    for op, report in zip(ops, reports):
        if isinstance(report, Exception):
            found = [f"raised {type(report).__name__}: {report}"]
        else:
            found = workloads.check(op, report)
        failed += bool(found)
        problems.extend(f"{op.label}: {p}" for p in found)
    return failed, problems


def run_pass(cli, ops, tracer=None, previous: Pass | None = None) -> Pass:
    """Run every operation once and time it, and time the reference kernel
    just before and just after it, each time for half of REF_SHARE of the
    operation's time (the time in ``previous`` for the kernel before it);
    check the reports afterwards, with any tracer already removed so the
    checks leave no spans."""
    import reference
    import workloads

    gc.collect()
    reports, op_s, op_cpu_s, ref_s, ref_cpu_s = [], [], [], [], []
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            before = reference.measure(REF_SHARE / 2.0 * (previous.op_s[i] if previous else 0.0))
            cpu, start = time.process_time(), time.perf_counter()
            try:
                reports.append(workloads.execute(cli, op))
            except Exception as exc:  # a failing op is counted, not fatal
                reports.append(exc)
            op_s.append(time.perf_counter() - start)
            op_cpu_s.append(time.process_time() - cpu)
            after = reference.measure(REF_SHARE / 2.0 * op_s[-1])
            ref_s.append((before[0] + after[0]) / 2.0)
            ref_cpu_s.append((before[1] + after[1]) / 2.0)
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return Pass(wall, op_s, op_cpu_s, ref_s, ref_cpu_s, *check_reports(ops, reports))


def per_op_median(passes: list[Pass], attr: str, ref_attr: str | None = None) -> list[float]:
    """Each operation's median across the run's passes, of its seconds or,
    with ``ref_attr``, of its seconds divided by the reference kernel's."""
    if ref_attr is None:
        cols = zip(*(getattr(p, attr) for p in passes))
    else:
        cols = zip(*([t / r for t, r in zip(getattr(p, attr), getattr(p, ref_attr))] for p in passes))
    return [statistics.median(col) for col in cols]


def probe_setup(workload: str, seed: int) -> tuple[float, list[str]]:
    """Set-up seconds of one fresh process, and its warm-up problems."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), "--workload", workload, "--seed", str(seed)],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited with {proc.returncode}: {proc.stderr.strip()}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["problems"]


def tail(op_s: list[float]) -> tuple[float, float] | None:
    """The highest of TAIL_PERCENTILES with at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if len(op_s) * (1.0 - p / 100.0) >= 10:
            return p, statistics.quantiles(op_s, n=1000, method="inclusive")[int(p * 10) - 1]
    return None


def timed_run(cli, ops, workload: str, seed: int, seconds: float) -> dict:
    probes = [probe_setup(workload, seed) for _ in range(SETUP_PROBES)]
    warm = run_pass(cli, ops[:1])
    passes: list[Pass] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(cli, ops, previous=passes[-1] if passes else None))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    op_s = [t for p in passes for t in p.op_s]
    rel = per_op_median(passes, "op_s", "ref_s")
    seconds_med = per_op_median(passes, "op_s")
    problems = [q for _, found in probes for q in found]
    failed = sum(bool(found) for _, found in probes)
    for p in (warm, *passes):
        failed += p.failed
        problems += p.problems
    attempted = len(probes) + 1 + len(op_s)
    tail_p = tail(op_s)
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {
            "wall_ref": sum(rel),
            "cpu_ref": sum(per_op_median(passes, "op_cpu_s", "ref_cpu_s")),
            "op_p50_ref": statistics.median(rel),
            "setup_s": statistics.median(s for s, _ in probes),
            "peak_rss_mb": peak_rss_mb,
        },
        "extra": {
            "wall_s": sum(seconds_med),
            "cpu_s": sum(per_op_median(passes, "op_cpu_s")),
            "op_p50_ms": 1000.0 * statistics.median(seconds_med),
            "op_tail_ms": None if tail_p is None else 1000.0 * tail_p[1],
            "op_tail_percentile": None if tail_p is None else tail_p[0],
            "op_samples": len(op_s),
            "ref_kernel_ms": 1000.0 * statistics.median(r for p in passes for r in p.ref_s),
            "failed_frac": failed / attempted,
            "passes": len(passes),
            "pass_wall_s": [p.wall_s for p in passes],
            "setup_probe_s": [s for s, _ in probes],
        },
    }


def traced_run(cli, ops, workload: str, seed: int) -> dict:
    """Two plain and two traced passes, alternated so that a slow stretch of
    the machine does not land on one side only."""
    import tracer as tracing

    tracer = tracing.Tracer(sys.modules["wctops"])
    passes = [run_pass(cli, ops[:1])]
    plain, traced, counts, self_s = [], [], [], []
    for _ in range(2):
        plain.append(run_pass(cli, ops))
        traced.append(run_pass(cli, ops, tracer))
        counts.append(tracer.counts())
        self_s.append(tracer.self_times())
        if len(traced) == 1:
            RESULTS.mkdir(exist_ok=True)
            tracer.write_spans(RESULTS / f"spans-{workload}-seed{seed}.csv.gz")
    passes += plain + traced
    problems = [q for p in passes for q in p.problems]
    if counts[0] != counts[1]:
        differ = sorted(k for k in counts[0].keys() | counts[1].keys() if counts[0].get(k) != counts[1].get(k))
        problems.append(f"traced call counts differ between two passes of one seed: {differ}")
    metrics: dict[str, float] = dict(counts[0])
    metrics.update({k: (v + self_s[1][k]) / 2.0 for k, v in self_s[0].items()})
    metrics["trace_overhead_s"] = sum(per_op_median(traced, "op_s")) - sum(per_op_median(plain, "op_s"))
    return {
        "attempted": sum(len(p.op_s) for p in passes),
        "failed": sum(p.failed for p in passes),
        "problems": problems,
        "metrics": metrics,
        "extra": {
            "plain_wall_s": [p.wall_s for p in plain],
            "traced_wall_s": [p.wall_s for p in traced],
            "spans_per_pass": len(tracer.spans),
            "counts_repeat": counts[0] == counts[1],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="wctops benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench_env.prepare()
    cli = bench_env.import_cli()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    with open(bench_env.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        config = json.load(handle)
    wanted = config["per_layer" if args.trace else "end_to_end"]

    ops = workloads.make_ops(args.workload, args.seed)
    if args.trace:
        result = traced_run(cli, ops, args.workload, args.seed)
    else:
        result = timed_run(cli, ops, args.workload, args.seed, args.seconds)
    environment = bench_env.describe()
    # a layer whose function no longer exists did no work
    metrics = {m["name"]: {"value": result["metrics"].get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    correct = result["failed"] == 0 and not result["problems"]

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(ops)} ops per pass, closed loop with one client")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in environment.items()))
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    for name, value in result["extra"].items():
        print(f"  {name:<40} {value}")
    for problem in result["problems"][:20]:
        print(f"  FAILED {problem}", file=sys.stderr)

    RESULTS.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": environment, "correct": correct, "metrics": metrics,
              "all_metrics": result["metrics"], "extra": result["extra"], "problems": result["problems"]}
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
