"""Per-layer spans, recorded from outside the program.

`install` wraps each public function of a layer in a span and rebinds
every module-level name that refers to it, including aliases made by
`from .polyring import ff_eq` and function tables such as
`verify.CHECKS`. A span's self time is its duration minus the time its
child spans cover; counters are taken at the same boundary.
"""

from __future__ import annotations

import functools
import sys
import time


def _count_mul(stats, args, result):
    self, other = args
    stats.add("term_pairs", len(self.terms) * len(other.terms))
    stats.add("out_terms", len(result.terms))
    stats.peak("max_out_terms", len(result.terms))


def _count_exact_div(stats, args, result):
    stats.add("dividend_terms", len(args[0].terms))
    if result is None:
        stats.add("failures", 1)
    else:
        stats.add("quotient_terms", len(result.terms))


def _count_psi_hat(stats, args, result):
    stats.add("in_terms", len(args[0].num.terms) + len(args[0].den.terms))


def _count_psi_hat_factored(stats, args, result):
    stats.add("in_terms", sum(len(p.terms) for p, _ in args[0].factors.values()))


def _count_f_terms(stats, args, result):
    stats.peak("max_f_terms", max(len(f.terms) for f in args[0].F))


def _count_tested(stats, args, result):
    stats.add("tested", result.tested)


# (layer, module, attribute path, counter). Several entries may share a
# layer: psi_hat and psi_hat_factored are one elimination layer, and every
# checker in verify.CHECKS is one `verify.check` layer. RationalFunction
# equality is wrapped at __eq__, which ratfn_eq itself calls.
TARGETS = [
    ("polyring.mul", "gencluster.polyring", "LaurentPolynomial.__mul__", _count_mul),
    ("polyring.pow", "gencluster.polyring", "LaurentPolynomial.__pow__", None),
    ("polyring.exact_div", "gencluster.polyring", "LaurentPolynomial.exact_div",
     _count_exact_div),
    ("polyring.psi_hat", "gencluster.polyring", "psi_hat", _count_psi_hat),
    ("polyring.psi_hat", "gencluster.polyring", "psi_hat_factored",
     _count_psi_hat_factored),
    ("polyring.ratfn_eq", "gencluster.polyring", "RationalFunction.__eq__", None),
    ("polyring.ff_eq", "gencluster.polyring", "ff_eq", None),
    ("polyring.ff_mul", "gencluster.polyring", "FactoredFraction.__mul__", None),
    ("polyring.ff_add", "gencluster.polyring", "ff_add", None),
    ("polyring.cross_evaluate", "gencluster.polyring", "cross_evaluate", None),
    ("semifield.psi", "gencluster.semifield", "psi", None),
    ("semifield.evaluate_poly", "gencluster.semifield", "evaluate_poly_semifield", None),
    ("semifield.sf_eq", "gencluster.semifield", "sf_eq", None),
    ("semifield.specialize_Z", "gencluster.semifield", "specialize_Z", None),
    ("pattern.mutate_seed", "gencluster.pattern", "mutate_seed", None),
    ("pattern.mutate_y_seed", "gencluster.pattern", "mutate_y_seed", None),
    ("pattern.mutate_B", "gencluster.pattern", "mutate_B", None),
    ("composite.mutate", "gencluster.composite", "composite_mutate", None),
    ("composite.mutate", "gencluster.composite", "composite_mutate_closed", None),
    ("composite.mutate", "gencluster.composite", "composite_mutate_y", None),
    ("composite.psi_hat_image", "gencluster.composite", "Realization.psi_hat_image",
     None),
    ("invariants.g_step", "gencluster.invariants", "GeneralizedInvariants.step",
     _count_f_terms),
    ("invariants.c_step", "gencluster.invariants", "CompositeInvariants.step",
     _count_f_terms),
    ("invariants.separation", "gencluster.invariants",
     "separation_reconstruct_generalized", None),
    ("invariants.separation", "gencluster.invariants",
     "separation_reconstruct_composite", None),
] + [
    ("verify.check", "gencluster.verify", name, _count_tested)
    for name in (
        "check_enlargement_commutes",
        "check_y_realization",
        "check_x_realization",
        "check_cg_relations",
        "check_f_relation",
        "check_f_symmetry",
        "check_laurent_positive",
    )
] + [
    ("cli.main", "gencluster.cli", "main", None),
]

# The per-layer metrics the traced run reports, in BENCHMARK.json order.
LAYER_COUNTERS = [
    ("polyring.mul", ("calls", "self_s", "term_pairs", "out_terms", "max_out_terms")),
    ("polyring.pow", ("calls", "self_s")),
    ("polyring.exact_div",
     ("calls", "self_s", "dividend_terms", "quotient_terms", "fail_frac")),
    ("polyring.psi_hat", ("calls", "self_s", "in_terms")),
] + [
    (layer, ("calls", "self_s"))
    for layer in (
        "composite.psi_hat_image", "semifield.psi", "polyring.ratfn_eq",
        "polyring.ff_eq", "polyring.ff_mul", "polyring.ff_add",
        "polyring.cross_evaluate", "semifield.evaluate_poly", "semifield.sf_eq",
        "pattern.mutate_seed", "pattern.mutate_y_seed", "pattern.mutate_B",
        "composite.mutate", "semifield.specialize_Z",
    )
] + [
    ("invariants.g_step", ("calls", "self_s", "max_f_terms")),
    ("invariants.c_step", ("calls", "self_s", "max_f_terms")),
    ("invariants.separation", ("calls", "self_s")),
    ("verify.check", ("calls", "self_s", "tested")),
    ("cli.main", ("self_s",)),
] + [
    # filled by run.py from the untraced pass, one entry per part
    (f"part.{part}", ("wall_s", "peak_rss_mb"))
    for part in ("verify-case2", "relations-case2", "mutate-random", "separation-case2")
] + [
    ("trace", ("overhead_ratio",)),
]
UNITS = {"self_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "fail_frac": "ratio",
         "overhead_ratio": "ratio"}
LAYER_METRICS = [
    (f"{layer}.{counter}", UNITS.get(counter, "count"))
    for layer, counters in LAYER_COUNTERS
    for counter in counters
]


class LayerStats:
    __slots__ = ("calls", "self_s", "counters")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.counters = {}

    def add(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name, value):
        if value > self.counters.get(name, 0):
            self.counters[name] = value


class Tracer:
    """Span stack and per-layer totals, kept in memory for one process."""

    def __init__(self):
        self.layers = {}
        self._stack = []

    def wrap(self, layer, fn, count=None):
        stats = self.layers.setdefault(layer, LayerStats())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                stats.calls += 1
                stats.self_s += duration - child[0]
            if count is not None:
                count(stats, args, result)
            return result

        return span

    def totals(self):
        """Per-layer totals as plain data, for one process."""
        return {
            layer: {"calls": stats.calls, "self_s": stats.self_s, **stats.counters}
            for layer, stats in self.layers.items()
        }


def layer_metrics(totals):
    """The span metrics of LAYER_METRICS, summed over the totals of several processes.

    Counters named `max_*` take the maximum instead. Metrics of layers no
    process entered read 0; `part.*` and `trace.*` are left to the caller.
    """
    merged = {}
    for one in totals:
        for layer, values in one.items():
            into = merged.setdefault(layer, {})
            for key, value in values.items():
                if key.startswith("max_"):
                    into[key] = max(into.get(key, 0), value)
                else:
                    into[key] = into.get(key, 0) + value
    out = {}
    for name, unit in LAYER_METRICS:
        layer, _, counter = name.rpartition(".")
        if layer == "trace" or layer.startswith("part."):
            continue
        values = merged.get(layer, {})
        if counter == "fail_frac":
            calls = values.get("calls", 0)
            value = values.get("failures", 0) / calls if calls else 0.0
        else:
            value = values.get(counter, 0)
        out[name] = {"value": value, "unit": unit}
    return out


def _resolve(module_name, path):
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _searched_modules(extra_modules):
    return [
        mod for name, mod in sorted(sys.modules.items())
        if name == "gencluster" or name.startswith("gencluster.")
    ] + list(extra_modules)


def install(tracer, extra_modules=()):
    """Wrap every target in a span and rebind each alias of it.

    Aliases are searched in every loaded `gencluster` module and in
    `extra_modules`, as module attributes and as values of module-level
    dicts. A target that cannot be found raises instead of going
    unmeasured.
    """
    # keyed by id: each span holds its original, so no id is reused
    spans = {}
    for layer, module_name, path, count in TARGETS:
        owner, attr = _resolve(module_name, path)
        original = owner.__dict__[attr]
        span = tracer.wrap(layer, original, count)
        setattr(owner, attr, span)
        spans[id(original)] = span
    for mod in _searched_modules(extra_modules):
        for name, value in list(vars(mod).items()):
            if id(value) in spans:
                setattr(mod, name, spans[id(value)])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in spans:
                        value[key] = spans[id(item)]


def unwrapped_aliases(extra_modules=()):
    """After `install`: names in the searched modules still bound to an original."""
    originals = set()
    for _, module_name, path, _ in TARGETS:
        owner, attr = _resolve(module_name, path)
        originals.add(id(owner.__dict__[attr].__wrapped__))
    left = []
    for mod in _searched_modules(extra_modules):
        for name, value in vars(mod).items():
            values = value.values() if isinstance(value, dict) else [value]
            if any(id(v) in originals for v in values):
                left.append(f"{mod.__name__}.{name}")
    return left
