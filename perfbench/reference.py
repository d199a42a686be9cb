"""Regenerate reference.json, the output guard's expected fingerprints.

Usage: python3 perfbench/reference.py

Runs each part of the case2 workload once, untraced, and mutate-random
once for every seed in MUTATE_SEEDS. It refuses to write a reference in
which any check, trial or reconstruction failed. Regenerate only when a change
is meant to alter what the parts compute, and say so in the change.
"""

from __future__ import annotations

import json
import sys
import time

from run import REFERENCE, WORKLOADS, child, digest

MUTATE_SEEDS = range(32)


def main():
    deadline = time.monotonic() + 3600
    out = {}
    for part in WORKLOADS["case2"]:
        p = child("pass", part, 0, deadline)
        if "error" in p or any(r[4] for r in p["records"]):
            raise SystemExit(f"{part}: pass failed; reference not written")
        out[part] = {"records": p["records"], "extra": p["extra"]}
        print(f"{part}: {len(p['records'])} records", file=sys.stderr)
    digests = {}
    for seed in MUTATE_SEEDS:
        p = child("pass", "mutate-random", seed, deadline)
        if "error" in p or any(r[4] for r in p["records"]):
            raise SystemExit(f"mutate-random seed {seed}: pass failed; reference not written")
        digests[str(seed)] = digest(p)
    out["mutate-random"] = {"digests": digests}
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
