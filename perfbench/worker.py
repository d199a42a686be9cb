"""One fresh process: set up, optionally run one part, print one JSON line.

Usage: python3 perfbench/worker.py MODE PART SEED
MODE is `setup` (set up only), `pass` (run the part untraced) or `traced`
(run it with every layer wrapped in spans). The program is imported
from the `src` directory next to this one, never from site-packages.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv):
    mode, part, seed = argv[0], argv[1], int(argv[2])
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import gencluster

    if not Path(gencluster.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"gencluster imported from {gencluster.__file__}, not {SRC}")
    import workloads

    ctx = workloads.setup()
    out = {"setup_s": time.perf_counter() - started}
    if mode == "setup":
        return out

    ctx["seed"] = seed
    ctx["engine_sizes"] = workloads.EngineSizes()
    ctx["engine_sizes"].install()
    tracer = None
    if mode == "traced":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer, extra_modules=[workloads])
    run = workloads.PARTS[part]
    begin = time.perf_counter()
    try:
        records, extra = run(ctx)
    except Exception:  # a raising check is a failed pass, reported to the parent
        out["error"] = traceback.format_exc(limit=5)
        return out
    out["wall_s"] = time.perf_counter() - begin
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["records"] = records
    out["extra"] = extra
    if tracer is not None:
        out["layers"] = tracer.totals()
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
