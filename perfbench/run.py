#!/usr/bin/env python3
"""The eicat benchmark.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 20 --trace 0

Generates the workload's category JSON files from the seed, then drives the
real CLI entry point `eicat.cli.main` in this process, closed loop: each
call starts when the previous one has returned and its verdict is checked.
Whole passes over the workload repeat while another one fits in --seconds.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics of the traced ones, plus the
tracing overhead.  The last line of stdout is one JSON object with keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import catalog  # noqa: E402
import check  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MIN_SETUPS = 5  # setup_s is the median of at least this many set-ups
WORKDIR = ROOT / ".perfbench"


def fresh_import():
    """Import eicat from src/ anew, dropping any copy loaded before."""
    for name in [n for n in sys.modules if n == "eicat" or n.startswith("eicat.")]:
        del sys.modules[name]
    importlib.import_module("eicat")
    return importlib.import_module("eicat.cli")


def setup(workload, seed, tiny=False):
    """Import eicat and write the inputs; returns (cli module, items)."""
    cli = fresh_import()
    items = workloads.build(workload, seed, WORKDIR / workload, tiny)
    return cli, items


def run_pass(cli, items, tracer=None):
    """One closed-loop pass.  Returns a dict with the wall time, per-command
    latencies, the stdout of every call and the problems per item."""
    latencies = {"classify": [], "oracle": []}
    outputs = {}
    problems = {}
    start = time.perf_counter()
    for item in items:
        if tracer is not None:
            tracer.begin_item(item.key)
        results = []
        for command in item.commands:
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(item.argv(command))
            except Exception as e:  # a crash is a failed item, not a failed run
                code = f"raised {type(e).__name__}: {e}"
                err.write(traceback.format_exc())
            latencies[command].append(time.perf_counter() - t0)
            results.append((command, code, out.getvalue()))
            if code != 0:
                print(f"{item.key} {command}: {err.getvalue().strip()}", file=sys.stderr)
        found = check.check_item(item, results)
        if found:
            problems[item.key] = found
        outputs[item.key] = [out for _, _, out in results]
    end = time.perf_counter()
    return {"span": (start, end), "wall": end - start, "latencies": latencies,
            "outputs": outputs, "problems": problems}


def measure(workload, seed, seconds, tracer=None, tiny=False, clock=None):
    """Set up, then run one pass; repeat while another pass still fits in
    `seconds`.  Set-ups are spread over the run, one per pass and at least
    MIN_SETUPS, so that setup_s samples the same machine states as the
    passes.  With a tracer, passes alternate untraced / traced (at least one
    of each).  Each pass's outputs must equal the first pass's.  With a
    started `calibrate.Calibrator` as clock, set-up times and each pass's
    "cal_wall" are in calibrated seconds.

    Returns (items, passes, setup times, spans of the last traced pass)."""
    def timed_setup():
        t0 = time.perf_counter()
        result = setup(workload, seed, tiny)
        t1 = time.perf_counter()
        setup_times.append(clock.seconds(t0, t1) if clock else t1 - t0)
        return result

    passes, setup_times, last_spans = [], [], None
    start = time.perf_counter()
    while True:
        cli, items = timed_setup()
        traced = tracer is not None and len(passes) % 2 == 1
        gc.collect()
        if traced:
            tracer.install()
        try:
            p = run_pass(cli, items, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        p["traced"] = traced
        if traced:
            spans, hook_time, counts = tracer.take()
            classify_items = sum("classify" in item.commands for item in items)
            p["layer"] = tracing.pass_metrics(spans, hook_time, counts, len(items),
                                              classify_items)
            last_spans = spans
        if passes:
            for key, out in p["outputs"].items():
                if out != passes[0]["outputs"][key]:
                    p["problems"].setdefault(key, []).append("output differs from pass 1")
        passes.append(p)
        enough = len(passes) >= (2 if tracer is not None else 1)
        if enough and time.perf_counter() - start + p["wall"] > seconds:
            break
    while len(setup_times) < MIN_SETUPS:
        timed_setup()
    if clock:
        for p in passes:
            p["cal_wall"] = clock.seconds(*p["span"])
    return items, passes, setup_times, last_spans


def percentile_lines(passes):
    """Per-command latency figures over all passes, with their sample count.
    p90 is given only when at least ten samples lie beyond it."""
    lines = []
    for command in ("oracle", "classify"):
        values = [v for p in passes for v in p["latencies"][command]]
        if not values:
            continue
        lines.append(f"{command}_s_p50 = {statistics.median(values):.6f} s (n={len(values)})")
        if len(values) >= 100:
            p90 = statistics.quantiles(values, n=10, method="inclusive")[8]
            lines.append(f"{command}_s_p90 = {p90:.6f} s (n={len(values)})")
        else:
            lines.append(f"{command}_s_p90 = n/a (n={len(values)} < 100)")
    return lines


def verdict_digest(items, first_pass):
    """sha256 over every call's stdout of one pass, in item order."""
    h = hashlib.sha256()
    for item in items:
        for out in first_pass["outputs"][item.key]:
            h.update(out.encode())
    return h.hexdigest()


def layer_metrics(passes):
    """Per-layer metrics: median over the traced passes, plus the overhead."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    out = {m.name: statistics.median(p["layer"][m.name] for p in traced)
           for m in catalog.PER_LAYER if m.name != "trace.overhead_s"}
    out["trace.overhead_s"] = (statistics.median(p["wall"] for p in traced)
                               - statistics.median(p["wall"] for p in untraced))
    return out


def write_spans(path, spans):
    """Spans of one traced pass; names and items interned, times in
    microseconds from the pass's first span."""
    names, items = {}, {}
    base = spans[0][1] if spans else 0.0
    rows = [[names.setdefault(n, len(names)), round((t0 - base) * 1e6),
             round((t1 - base) * 1e6), parent, items.setdefault(it, len(items))]
            for n, t0, t1, parent, it in spans]
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start_us", "end_us", "parent", "item"],
                   "names": list(names), "items": list(items), "spans": rows}, fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "eicat" / "__init__.py").is_file():
        print(f"error: no eicat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    tracer = tracing.Tracer() if args.trace else None
    clock = None if tracer else calibrate.Calibrator()
    if clock:
        clock.start()
    try:
        items, passes, setup_times, spans = measure(args.workload, args.seed, args.seconds,
                                                    tracer, clock=clock)
    finally:
        if clock:
            clock.stop()

    attempted = len(items) * len(passes)
    failed = sum(len(p["problems"]) for p in passes)
    for i, p in enumerate(passes):
        for key, found in p["problems"].items():
            print(f"FAIL pass {i + 1} {key}: {'; '.join(found)}")

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} nproc={os.cpu_count()} python={platform.python_version()} "
          f"items={len(items)} passes={len(passes)}")
    if tracer is None:
        print(f"raw wall_s = {statistics.median(p['wall'] for p in passes):.6f} s "
              f"(median pass, uncalibrated); reference chunk median "
              f"{clock.chunk_s() * 1e3:.4f} ms, nominal {calibrate.NOMINAL_S * 1e3:.4f} ms")
        metrics = {
            "cal_wall_s": statistics.median(p["cal_wall"] for p in passes),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {m.name: m.unit for m in catalog.END_TO_END}
        for line in percentile_lines(passes):
            print(line)
    else:
        metrics = layer_metrics(passes)
        units = {m.name: m.unit for m in catalog.PER_LAYER}
        spans_path = WORKDIR / f"spans-{args.workload}-{args.seed}.json"
        write_spans(spans_path, spans)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    moves = {m.name: m.moves for m in catalog.PER_LAYER if m.moves and tracer is not None}
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}"
              + (f"  (should move {moves[name]})" if name in moves else ""))
    print(f"failed_ratio = {failed / attempted:.6g} ratio (failed {failed} / attempted {attempted})")
    print(f"verdict_digest = {verdict_digest(items, passes[0])}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
