"""Self-test of the benchmark's tracing: every span is live and changes nothing.

Run with: python3 -m pytest perfbench/test_layers.py
It runs every part once untraced and once traced (a few minutes on a
2-core machine).
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import pytest

from run import HERE, REFERENCE, ROOT, WORKLOADS, child, digest, guard
from spans import layer_metrics

# Which layer must do work in which part: the table in README.md.
# Per-layer metrics not listed here are reported but may read 0.
LIVE = {
    "verify-case2": [
        "polyring.mul", "polyring.pow", "polyring.exact_div", "polyring.psi_hat",
        "composite.psi_hat_image", "semifield.psi", "verify.check", "cli.main",
    ],
    "relations-case2": [
        "polyring.mul", "polyring.pow", "polyring.exact_div", "invariants.g_step",
        "invariants.c_step", "verify.check",
    ],
    "mutate-random": [
        "pattern.mutate_seed", "pattern.mutate_y_seed", "pattern.mutate_B",
        "composite.mutate", "semifield.specialize_Z", "verify.check",
    ],
    "separation-case2": [
        "polyring.ratfn_eq", "polyring.ff_eq", "polyring.ff_mul", "polyring.ff_add",
        "polyring.cross_evaluate", "semifield.evaluate_poly", "semifield.sf_eq",
        "invariants.separation",
    ],
}

# Counters that must be positive wherever their layer is live; fail_frac
# is a waste ratio that reads 0 on valid inputs and is left out.
COUNTERS = {
    "polyring.mul": ["term_pairs", "out_terms", "max_out_terms"],
    "polyring.exact_div": ["dividend_terms", "quotient_terms"],
    "polyring.psi_hat": ["in_terms"],
    "invariants.g_step": ["max_f_terms"],
    "invariants.c_step": ["max_f_terms"],
    "verify.check": ["tested"],
}


def test_every_alias_is_rebound():
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "import workloads, spans;"
        "spans.install(spans.Tracer(), extra_modules=[workloads]);"
        "print(spans.unwrapped_aliases(extra_modules=[workloads]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "src")],
        cwd=HERE, capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("part", [p for parts in WORKLOADS.values() for p in parts])
def test_traced_pass(part):
    deadline = time.monotonic() + 170
    base = child("pass", part, 1, deadline)
    traced = child("traced", part, 1, deadline)
    assert "error" not in base and "error" not in traced
    assert digest(traced) == digest(base)
    reference = json.loads(REFERENCE.read_text())
    attempted, failed = guard(part, 1, [base, traced], reference)
    assert attempted > 0 and failed == 0
    layers = layer_metrics([traced["layers"]])
    for layer in LIVE[part]:
        names = ["self_s"] + COUNTERS.get(layer, [])
        if layer != "cli.main":
            names.append("calls")
        for counter in names:
            assert layers[f"{layer}.{counter}"]["value"] > 0, f"{layer}.{counter}"
