"""Benchmark of the mkdvsurf CLI on the export, verify and frame workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload export --seed 1 --seconds 27 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one process each

Each workload runs in one process with one thread (BLAS and OpenMP pools
set to 1), as a closed loop with one client: every operation is a
``mkdvsurf.cli.main(argv)`` call that starts when the previous one ends.
A run is a fixed number of whole passes over the workload's operations,
sized to last about ``--seconds`` (see ``workloads.PASS_SECONDS``); the seed
fixes only the order of operations inside each pass.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` from
untraced passes, each time scaled to the host speed measured when the
benchmark was defined (see ``calibrate.py``).  ``--trace 1`` runs half as
many passes, each untraced and then traced in the same order, and reports
the per-layer metrics; the spans go to ``.perfbench_out/``.  Every
operation's output is checked against ``reference.json``; a mismatch counts
the operation as failed.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"   # must precede the first numpy import

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import calibrate  # noqa: E402
import metrics  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = wl.HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 9


@dataclass
class OpRecord:
    key: str
    latency: float
    points: int
    checks_run: int
    checks_failed: int
    failures: list = field(default_factory=list)
    scale: float = 1.0   # to reference host speed; see calibrate.py
    cpu: float = 0.0


def run_pass(cli, order, reference, tracer=None, speed=None) -> list[OpRecord]:
    records = []
    for i, op in enumerate(order):
        if tracer is not None:
            tracer.op = i
        outcome = wl.execute(cli, op)
        scale = speed.scale(outcome.latency) if speed is not None else 1.0
        obs = wl.observe(op, outcome)
        failures = [outcome.error] if outcome.error else []
        failures += wl.mismatches(obs, reference[op.key])
        statuses = [c["status"] for c in obs.get("checks", {}).values()]
        run = sum(s != "skip" for s in statuses)
        records.append(OpRecord(op.key, outcome.latency, op.grid * max(run, 1), run,
                                statuses.count("FAIL"), failures, scale, outcome.cpu))
    return records


def traced_pass(cli, order, reference):
    import mkdvsurf
    from mkdvsurf import verify

    extra = [(verify._RUNNERS, name, f"verify.check.{name}", "verify")
             for name in getattr(verify, "_RUNNERS", {})]
    if hasattr(verify, "_check_weingarten"):
        extra.append((verify, "_check_weingarten", "verify.check.weingarten", "verify"))
    else:
        print("warning: no per-check hook in mkdvsurf.verify", file=sys.stderr)
    tracer = Tracer(bytes_layers=metrics.BYTES_LAYERS + ("mesh",))
    tracer.install(mkdvsurf, extra)
    try:
        records = run_pass(cli, order, reference, tracer)
    finally:
        tracer.uninstall()
    return records, tracer.spans


def measure_setup(workload: str) -> tuple[list[float], list[list[float]]]:
    """Set-up times of fresh interpreters, from launch to inputs built, and
    the host-speed chunks each interpreter ran afterwards."""
    samples, chunks = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(wl.HERE / "probe.py"), workload, str(ROOT)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise wl.SetupError(f"set-up probe failed: {proc.stderr.strip()}")
        ready, *probe_chunks = map(float, proc.stdout.split())
        samples.append(ready - t0)
        chunks.append(probe_chunks)
    return samples, chunks


def machine() -> dict:
    import numpy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    caches = {}
    for name in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            caches[name.lower()] = os.sysconf("SC_" + name)
        except (ValueError, OSError):
            caches[name.lower()] = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cache_bytes": caches,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "platform": platform.platform(),
    }


def per_layer_metrics(traced, untraced_totals):
    """Median over traced passes; counts must repeat exactly between passes."""
    per_pass = []
    for order, records, spans in traced:
        op_format = {i: op.argv[op.argv.index("--format") + 1] for i, op in enumerate(order)}
        m = metrics.per_layer(spans, op_format)
        m["verify.checks_run"] = sum(r.checks_run for r in records)
        m["verify.checks_failed"] = sum(r.checks_failed for r in records)
        per_pass.append(m)
    out = {}
    for name, first in per_pass[0].items():
        values = [m[name] for m in per_pass]
        if not isinstance(first, int):
            out[name] = statistics.median(values)
            continue
        if len(set(values)) > 1:
            print(f"warning: {name} differs between traced passes: {values}", file=sys.stderr)
        out[name] = first
    traced_totals = [sum(r.latency for r in records) for _, records, _ in traced]
    out["trace.overhead_s"] = statistics.median(traced_totals) - statistics.median(untraced_totals)
    return out


def write_spans(path, traced):
    with open(path, "w") as fh:
        fh.write("pass\top\tname\tlayer\tstart\tend\tparent\tpoints\tbytes_in\tbytes_out\n")
        for p, (order, _, spans) in enumerate(traced):
            for s in spans:
                fh.write(f"{p}\t{order[s.op].key if s.op >= 0 else ''}\t{s.name}\t{s.layer}\t"
                         f"{s.start:.9f}\t{s.end:.9f}\t{s.parent}\t{s.points}\t"
                         f"{s.bytes_in}\t{s.bytes_out}\n")


def run_workload(args, spec) -> int:
    try:
        cli, ops, reference = wl.setup(ROOT, args.workload)
        setup_samples, setup_chunks = measure_setup(args.workload)
    except (wl.SetupError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    n = wl.passes(args.workload, args.seconds)
    if args.trace:
        n = max(1, round(n / 2))   # each pass runs untraced, then traced
    untraced, untraced_totals, traced = [], [], []
    op_speed = None if args.trace else calibrate.Speed()
    start = time.perf_counter()
    for order in wl.schedule(ops, args.seed, n):
        records = run_pass(cli, order, reference, speed=op_speed)
        untraced += records
        untraced_totals.append(sum(r.latency for r in records))
        if args.trace:
            traced.append((order, *traced_pass(cli, order, reference)))
    elapsed = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_scales = [calibrate.scale_of(c) for c in setup_chunks]

    records = untraced + [r for _, recs, _ in traced for r in recs]
    failed = [r for r in records if r.failures]
    if args.trace:
        values = per_layer_metrics(traced, untraced_totals)
        wanted = spec["per_layer"]
    else:
        raw = metrics.end_to_end([(r.latency, r.points, bool(r.failures)) for r in untraced],
                                 setup_samples, peak_rss_mb)
        values = metrics.end_to_end(
            [(r.latency * r.scale, r.points, bool(r.failures)) for r in untraced],
            [t * f for t, f in zip(setup_samples, setup_scales)], peak_rss_mb)
        wanted = spec["end_to_end"]
    _, tail_pct, n_lat = metrics.tail([r.latency for r in untraced])

    print(f"workload {args.workload}: seed {args.seed}, {len(untraced_totals)} passes of "
          f"{len(ops)} operations in {elapsed:.1f} s, trace {args.trace}")
    if not args.trace:
        print(f"  times at reference host speed; measured values in brackets; median scale "
              f"{statistics.median(r.scale for r in untraced):.3f} over "
              f"{sum(map(len, op_speed.samples))} chunks, "
              f"{statistics.median(setup_scales):.3f} in set-up; process CPU time / wall time "
              f"{sum(r.cpu for r in untraced) / sum(r.latency for r in untraced):.3f}")
    for r in failed:
        print(f"FAILED {r.key}: {'; '.join(r.failures)}")
    for m in wanted:
        note = ""
        if m["name"] == "op_tail_s":
            note = f"  (p{tail_pct:.1f} of {n_lat} operations)"
        elif m["name"] == "setup_s":
            note = f"  (median of {len(setup_samples)} fresh interpreters)"
        measured = "" if args.trace else f" [{raw[m['name']]:.6g}]"
        print(f"  {m['name']:<28} {values[m['name']]:.6g} {m['unit']}{measured}{note}")
    print(f"  {'failed_ratio':<28} {len(failed) / len(records):.6g} "
          f"({len(failed)}/{len(records)} operations)")
    if args.trace:
        total = sum(values[f"{layer}.self_s"] for layer in metrics.LAYERS)
        shares = ", ".join(f"{layer} {values[f'{layer}.self_s'] / total:.1%}"
                           for layer in metrics.LAYERS)
        print(f"  self-time share per layer: {shares}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(untraced_totals), "elapsed_s": elapsed,
        "machine": machine(), "metrics": values,
        "measured_metrics": None if args.trace else raw,
        "host_speed": None if args.trace else {
            "reference_chunk_s": calibrate.REFERENCE_S,
            "op_chunks_s": op_speed.samples, "setup_chunks_s": setup_chunks,
            "setup_scales": setup_scales, "op_scales": [r.scale for r in untraced]},
        "op_tail": {"percentile": tail_pct, "samples": n_lat},
        "setup_samples_s": setup_samples,
        "attempted": len(records), "failed": len(failed),
        "failures": {r.key: r.failures for r in failed},
        "latencies_s": [[r.key, r.latency] for r in untraced],
        "cpu_s": [r.cpu for r in untraced],
    }
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1) + "\n")
    if args.trace:
        write_spans(stem.with_suffix(".spans.tsv"), traced)

    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


def main(argv=None) -> int:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run_workload(args, spec)
    code = 0
    for name in wl.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        code = code or proc.returncode
    return code


if __name__ == "__main__":
    sys.exit(main())
