"""Spans around the public functions of each kudla_green layer.

The tracer lives in the benchmark, not in the program: `Tracer.install`
replaces every public function of the eight layer modules, in every
kudla_green namespace that holds it, with a wrapper that records a span
(name, parent span, start, end, work count) in memory.  The nine verify
checks get one span each, `cli.verify.<check>`.  `uninstall` restores the
originals.  Spans are reduced to the per-layer metrics once the run ends.
"""

from __future__ import annotations

import sys
from time import perf_counter

from workloads import VERIFY_CHECKS

LAYERS = ("arith", "eisenstein", "specfun", "geometry", "lattice",
          "integrals", "volumes", "cli")

# Called once per character value, quadrature node or lattice point: a span
# there would cost more than the work it times.
UNTRACED = frozenset({
    "arith.kronecker_chi", "arith.factorize", "arith.divisors",
    "arith.moebius", "arith.sigma3", "specfun.exp_e1", "specfun.e1_series",
    "lattice.majorant_value", "lattice.psi_hat", "lattice.majorant_R_lattice",
})


# metric name -> (kind, span names it reduces[, enclosing span]).  busy: time
# inside the outermost of those spans; self: span time minus its child spans;
# calls: span count; work: the work count each span's result carries.  With
# an enclosing span name, only spans nested in such a span count.
METRICS = {
    "arith.bernoulli_L_minus1.busy_s": ("busy", ("arith.bernoulli_L_minus1",)),
    "arith.bernoulli_L_minus1.calls": ("calls", ("arith.bernoulli_L_minus1",)),
    "arith.xi_twisted.busy_s": ("busy", ("arith.xi_twisted",)),
    "arith.L_chi_2.busy_s": ("busy", ("arith.L_chi_2",)),
    "arith.L_chi_2.calls": ("calls", ("arith.L_chi_2",)),
    "arith.L_chi_2_series.busy_s": ("busy", ("arith.L_chi_2_series",)),
    "eisenstein.cohen_H.busy_s": ("busy", ("eisenstein.cohen_H",)),
    "eisenstein.coefficient_C.busy_s": ("busy", ("eisenstein.coefficient_C",)),
    "cli.cmd_coeff.self_s": ("self", ("cli.cmd_coeff",)),
    "specfun.I3.busy_s": ("busy", ("specfun.I3_plus", "specfun.I3_minus")),
    "specfun.I3.evaluations": ("work", ("specfun.I3_plus", "specfun.I3_minus")),
    "specfun.J.busy_s": ("busy", ("specfun.J_plus", "specfun.J_minus")),
    "specfun.J.evaluations": ("work", ("specfun.J_plus", "specfun.J_minus")),
    "volumes.vol_sie.busy_s": ("busy", ("volumes.vol_sie",)),
    "integrals.kudla_integral.busy_s": ("busy", ("integrals.kudla_integral",)),
    "integrals.theorem2_check.self_s": ("self", ("integrals.theorem2_check",)),
    # inside green_function only, not in the benchmark's enumerate_bounded proxy
    "geometry.majorant_gram.busy_s": ("busy", ("geometry.majorant_gram",),
                                      "lattice.green_function"),
    "lattice.green_function.busy_s": ("busy", ("lattice.green_function",)),
    "lattice.green_function.terms_used": ("work", ("lattice.green_function",)),
    "lattice.enumerate_bounded.busy_s": ("busy", ("lattice.enumerate_bounded",)),
    "lattice.enumerate_bounded.points": ("work", ("lattice.enumerate_bounded",)),
}
METRICS.update({f"cli.verify.{name}.busy_s": ("busy", (f"cli.verify.{name}",))
                for name in VERIFY_CHECKS})
METRICS.update({f"{layer}.failed": ("failed", (layer,)) for layer in LAYERS})

UNITS = {"busy": "s", "self": "s", "calls": "count", "work": "count",
         "failed": "count"}


def _work_count(result) -> int:
    """Quadrature evaluations, Green-function terms or enumerated points."""
    for attr in ("evaluations", "terms_used"):
        count = getattr(result, attr, None)
        if isinstance(count, int):
            return count
    return len(result) if isinstance(result, list) else 0


class Tracer:
    def __init__(self):
        # one span per call: [name, parent index or -1, start, end, work]
        self.spans: list[list] = []
        self.failed = dict.fromkeys(LAYERS, 0)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, layer: str, fn):
        spans, stack, failed = self.spans, self._stack, self.failed

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # count each exception once per layer it passes through
                seen = exc.__dict__.setdefault("_perfbench_layers", set())
                if layer not in seen:
                    seen.add(layer)
                    failed[layer] += 1
                raise
            finally:
                span[3] = perf_counter()
                stack.pop()
            span[4] = _work_count(result)
            return result

        return traced

    def install(self) -> None:
        import kudla_green.cli as cli
        namespaces = [mod for key, mod in sys.modules.items()
                      if key == "kudla_green" or key.startswith("kudla_green.")]
        for layer in LAYERS:
            module = sys.modules[f"kudla_green.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                name = f"{layer}.{attr}"
                if not callable(fn) or isinstance(fn, type) or name in UNTRACED:
                    continue
                traced = self._wrap(name, layer, fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patches.append((ns, key, fn))
                            setattr(ns, key, traced)
        checks = cli._VERIFY_CHECKS
        for check, fn in list(checks.items()):
            self._patches.append((checks, check, fn))
            checks[check] = self._wrap(f"cli.verify.{check}", "cli", fn)

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = orig
            else:
                setattr(target, key, orig)
        self._patches.clear()

    def metrics(self) -> dict[str, float]:
        """Reduce the recorded spans to the METRICS table."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[1] >= 0:
                child_time[span[1]] += span[3] - span[2]
        out = {}
        for metric, (kind, names, *within) in METRICS.items():
            if kind == "failed":
                out[metric] = self.failed[names[0]]
                continue
            chosen = [i for i, span in enumerate(spans) if span[0] in names
                      and (not within or self._nested_in(i, within))]
            if kind == "calls":
                out[metric] = len(chosen)
            elif kind == "work":
                out[metric] = sum(spans[i][4] for i in chosen)
            elif kind == "self":
                out[metric] = sum((spans[i][3] - spans[i][2] - child_time[i]
                                   for i in chosen), 0.0)
            else:
                out[metric] = sum((spans[i][3] - spans[i][2] for i in chosen
                                   if not self._nested_in(i, names)), 0.0)
        return out

    def _nested_in(self, index: int, names) -> bool:
        parent = self.spans[index][1]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][1]
        return False
