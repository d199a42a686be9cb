"""gencluster benchmark: time to an exact verdict, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A workload is one or more parts (workloads.PARTS); one pass of it runs
each part in its own fresh process, one after the other. With --trace 0
the run repeats untraced passes until the next one would end after S
seconds (at least one pass), between two batches of set-up-only
processes, and reports the medians of `setup_s`, `wall_s` and
`peak_rss_mb`. With --trace 1 it runs one untraced and one traced pass
and reports the per-layer metrics of the traced one, each part's wall
time and peak memory, and `trace.overhead_ratio`. Every part is checked
against reference.json; the last stdout line is the JSON result. See
README.md for the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYER_METRICS, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
# Each workload's parts. The three case parts are the paper's fixed
# examples and ignore --seed; they share one workload so that a run's
# window of machine speed is long enough to be steady (see README.md).
WORKLOADS = {
    "case2": ("verify-case2", "relations-case2", "separation-case2"),
    "mutate-random": ("mutate-random",),
}
# Set-up samples per untraced run: half are taken before the passes and the
# rest after, so that the median spans the run's window of machine speed.
SETUP_SAMPLES = 11
# Every run must end within 180 s; children get what is left of this.
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child(mode, part, seed, deadline):
    """Run perfbench/worker.py in a fresh interpreter and parse its JSON line."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run budget exhausted")
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), mode, part, str(seed)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=left,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} run of {part} exceeded the run budget") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def digest(result):
    """Fingerprint of one pass: its records and extras."""
    blob = json.dumps([result["records"], result["extra"]], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def guard(part, seed, passes, reference):
    """(attempted, failed) over one part's results, checked against the reference.

    A record counts its own failures; a record that differs from the
    reference counts all of its attempts as failed, and so does a pass
    that raised. Each extra observation is one more attempt. mutate-random
    has reference digests for a fixed set of seeds; on other seeds every
    pass must agree with the first.
    """
    ref = reference.get(part, {})
    ref_records = ref.get("records")
    ref_digest = ref.get("digests", {}).get(str(seed))
    expected = sum(r[3] for r in ref_records) if ref_records else 1
    attempted = failed = 0
    first = None
    for p in passes:
        if "error" in p:
            print(p["error"], file=sys.stderr)
            attempted += expected
            failed += expected
            continue
        records, extra = p["records"], p["extra"]
        attempted += sum(r[3] for r in records) + len(extra)
        first = first or digest(p)
        if ref_records is not None:
            for i, r in enumerate(records):
                want = ref_records[i] if i < len(ref_records) else None
                failed += r[3] if r != want else r[4]
            missing = ref_records[len(records):]
            attempted += sum(r[3] for r in missing)
            failed += sum(r[3] for r in missing)
            for key, value in extra.items():
                failed += value != ref["extra"].get(key)
        elif digest(p) != (ref_digest or first):
            failed += sum(r[3] for r in records) + len(extra)
        else:
            failed += sum(r[4] for r in records)
    return attempted, failed


def one_pass(mode, workload, seed, deadline):
    """One result per part; `wall_s` and `peak_rss_mb` of the whole pass, or None."""
    parts = [child(mode, part, seed, deadline) for part in WORKLOADS[workload]]
    if any("error" in p for p in parts):
        return parts, None
    return parts, {"wall_s": sum(p["wall_s"] for p in parts),
                   "peak_rss_mb": max(p["peak_rss_mb"] for p in parts)}


def run(workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_BUDGET_S
    reference = json.loads(REFERENCE.read_text())
    parts = WORKLOADS[workload]
    first = parts[0]
    # warm-up, discarded: file cache, and bytecode where it is written
    child("setup", first, seed, deadline)
    results = []
    if trace:
        base, base_total = one_pass("pass", workload, seed, deadline)
        traced, traced_total = one_pass("traced", workload, seed, deadline)
        results = [base, traced]
        metrics = {}
        if base_total and traced_total:
            metrics = layer_metrics([p["layers"] for p in traced])
            for name, unit in LAYER_METRICS:
                layer, _, counter = name.rpartition(".")
                if layer.startswith("part."):
                    part = layer[len("part."):]
                    value = base[parts.index(part)][counter] if part in parts else 0
                    metrics[name] = {"value": value, "unit": unit}
            metrics["trace.overhead_ratio"] = {
                "value": traced_total["wall_s"] / base_total["wall_s"], "unit": "ratio"}
    else:
        setups = [child("setup", first, seed, deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES // 2)]
        totals = []
        start = time.monotonic()
        while True:
            begin = time.monotonic()
            result, total = one_pass("pass", workload, seed, deadline)
            results.append(result)
            if total:
                totals.append(total)
                print(f"pass wall_s={total['wall_s']:.3f} "
                      f"peak_rss_mb={total['peak_rss_mb']:.1f}", file=sys.stderr)
            now = time.monotonic()
            if now - start + (now - begin) > seconds:
                break
        setups += [p["setup_s"] for result in results for p in result]
        while len(setups) < SETUP_SAMPLES:
            setups.append(child("setup", first, seed, deadline)["setup_s"])
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
        if totals:
            for name, unit in (("wall_s", "s"), ("peak_rss_mb", "MB")):
                metrics[name] = {
                    "value": statistics.median(t[name] for t in totals), "unit": unit}
    attempted = failed = 0
    for i, part in enumerate(parts):
        a, f = guard(part, seed, [result[i] for result in results], reference)
        attempted += a
        failed += f
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "gencluster" / "__init__.py").is_file():
        print(f"error: no gencluster source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
