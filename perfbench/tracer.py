"""In-memory span recorder that wraps rhokit's layer entry points from outside.

Nothing under ``src/`` is edited.  Each wrapped function records a span
``[name, start, end, parent, op]``; ``parent`` is the index of the span that
was open when it was called and ``op`` is the workload unit being run.
Wrappers are installed in every ``rhokit`` module namespace that holds the
original function object, because names such as ``_contract``, ``density``
and ``hom_count`` are imported into ``search``, ``verify`` and ``catalog``.

Work the tracer does itself (plan-key hashing, FLOP accounting) is recorded
as ``trace.bookkeeping`` spans, so it is subtracted from the self time of the
layer it ran inside.
"""

import functools
import json
import math
import sys
import time
from collections import Counter

BOOKKEEPING = "trace.bookkeeping"
SUITE_PREFIX = "verify.suite."

# (module, attribute, span name): plain functions wrapped wherever imported
ENTRY_POINTS = (
    ("rhokit.graphs", "parse_graph_spec", "graphs.parse"),
    ("rhokit.density", "_contract", "density.contract"),
    ("rhokit.density", "log_density", "density.log_density"),
    ("rhokit.density", "_logspace_bruteforce", "density.logspace_fallback"),
    ("rhokit.density", "hom_count", "density.hom_count"),
    ("rhokit.density", "generalized_star_density", "density.star"),
    ("rhokit.search", "search_lower_bound", "search.search"),
    ("rhokit.search", "ratio_objective", "search.ratio_objective"),
    ("rhokit.search", "density_gradient", "search.gradient"),
    ("rhokit.verify", "run_suite", "verify.run_suite"),
    ("rhokit.verify", "sample_weighted_graph", "verify.sample"),
    ("rhokit.catalog", "rho_exact", "catalog.rho"),
    ("rhokit.catalog", "blowup_upper_bound", "catalog.blowup"),
    ("rhokit.catalog", "_isomorphic", "catalog.isomorphism"),
    ("rhokit.catalog", "general_lower_bounds", "catalog.lower_bound"),
    ("rhokit.constructions", "certify_lower_bound", "constructions.certify"),
)

# counters reported as "<span name>_calls"
CALL_METRICS = {
    "graphs.parse_calls": "graphs.parse",
    "graphs.graphon_build_calls": "graphs.graphon_build",
    "density.contract_calls": "density.contract",
    "density.plan_calls": "density.plan",
    "density.log_density_calls": "density.log_density",
    "density.logspace_fallbacks": "density.logspace_fallback",
    "density.hom_count_calls": "density.hom_count",
    "density.star_calls": "density.star",
    "search.ratio_objective_calls": "search.ratio_objective",
    "search.gradient_calls": "search.gradient",
    "search.density_calls": "search.density",
    "catalog.rho_calls": "catalog.rho",
    "catalog.blowup_calls": "catalog.blowup",
    "catalog.isomorphism_calls": "catalog.isomorphism",
    "catalog.lower_bound_calls": "catalog.lower_bound",
    "constructions.certify_calls": "constructions.certify",
}

# self times: span duration minus the time covered by its child spans
SELF_TIME_METRICS = {
    "graphs.parse_s": "graphs.parse",
    "graphs.graphon_build_s": "graphs.graphon_build",
    "density.plan_s": "density.plan",
    "density.eval_s": "density.contract",
    "density.logspace_fallback_s": "density.logspace_fallback",
    "density.hom_count_s": "density.hom_count",
    "density.star_s": "density.star",
    "search.ratio_objective_s": "search.ratio_objective",
    "search.gradient_s": "search.gradient",
    "verify.sample_s": "verify.sample",
    "catalog.rho_s": "catalog.rho",
    "catalog.blowup_s": "catalog.blowup",
    "catalog.isomorphism_s": "catalog.isomorphism",
    "catalog.lower_bound_s": "catalog.lower_bound",
    "constructions.certify_s": "constructions.certify",
}

# counters that must repeat exactly for the same seed and the same code
EXACT_COUNTERS = (
    *CALL_METRICS,
    "density.distinct_plans",
    "density.flops",
    "density.peak_intermediate",
    "density.cap_rejections",
    "density.neg_inf_results",
    "catalog.blowup_exhausted",
    "constructions.skipped_scales",
    "verify.trials",
    "verify.skipped",
    "search.ratio_gap",
)


class Tracer:
    """Records spans and counters for one fresh-interpreter round."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.counts = Counter()
        self.plan_keys = set()
        self.plan_costs = {}
        self.missing = []

    # -- recording ----------------------------------------------------------

    def _book(self, start):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([BOOKKEEPING, start, time.thread_time(), parent, self.op])

    def wrap(self, name, fn, before=None, after=None, on_error=None):
        """Wrap fn so each call records a span; hooks run as bookkeeping."""
        tracer = self
        spans = self.spans
        stack = self.stack
        clock = time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                t = clock()
                before(args, kwargs)
                tracer._book(t)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end = clock()
                stack.pop()
                spans[idx][1], spans[idx][2] = start, end
                if on_error is not None:
                    on_error(exc)
                raise
            end = clock()
            stack.pop()
            spans[idx][1], spans[idx][2] = start, end
            if after is not None:
                t = clock()
                after(args, kwargs, result)
                tracer._book(t)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every layer entry point; call after ``import rhokit``."""
        hooks = {
            "density.contract": dict(before=self._plan_key, on_error=self._cap_error),
            "density.log_density": dict(after=self._log_density_result),
            "density.star": dict(on_error=self._cap_error),
            "catalog.blowup": dict(after=self._blowup_result),
            "constructions.certify": dict(after=self._certify_result),
        }
        for module_name, attr, name in ENTRY_POINTS:
            module = sys.modules[module_name]
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._replace_everywhere(fn, self.wrap(name, fn, **hooks.get(name, {})))

        # density() as called by the search layer only
        self._patch(sys.modules["rhokit.search"], "density", "search.density")
        # WeightedGraph validation: one class attribute covers every caller
        graphs = sys.modules["rhokit.graphs"]
        self._patch(graphs.WeightedGraph, "__init__", "graphs.graphon_build")

        suites = getattr(sys.modules["rhokit.verify"], "SUITES", {})
        for suite, fn in list(suites.items()):
            suites[suite] = self.wrap(SUITE_PREFIX + suite, fn)

        self._install_plan_wrapper()

    def _patch(self, owner, attr, name):
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{owner.__name__}.{attr}")
        else:
            setattr(owner, attr, self.wrap(name, fn))

    def _replace_everywhere(self, original, wrapper):
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "rhokit" or mod_name.startswith("rhokit.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

    def _install_plan_wrapper(self):
        """Wrap numpy's einsum_path: rhokit.density calls it directly for the
        enumeration cap, and np.einsum(optimize="greedy") calls it again
        through its own module global."""
        import numpy as np

        einsumfunc = sys.modules.get("numpy._core.einsumfunc") or sys.modules.get(
            "numpy.core.einsumfunc"
        )
        original = np.einsum_path
        wrapper = self.wrap("density.plan", original, after=self._plan_result)
        np.einsum_path = wrapper
        if einsumfunc is not None and einsumfunc.einsum_path is original:
            einsumfunc.einsum_path = wrapper
        else:
            self.missing.append("numpy einsum_path inside np.einsum")

    # -- hooks (run as bookkeeping) -------------------------------------------

    def _plan_key(self, args, kwargs):
        g, factors, weights = args[0], args[1], args[2]
        out = kwargs.get("out_vertices", args[3] if len(args) > 3 else ())
        dtype = weights.dtype.str + (factors[0].dtype.str if len(factors) else "")
        self.plan_keys.add((g, weights.shape[0], tuple(out), dtype))

    def _cap_error(self, exc):
        from rhokit.errors import EnumerationCapError

        if isinstance(exc, EnumerationCapError):
            self.counts["density.cap_rejections"] += 1

    def _log_density_result(self, args, kwargs, result):
        if result == -math.inf:
            self.counts["density.neg_inf_results"] += 1

    def _blowup_result(self, args, kwargs, result):
        if result is None:
            self.counts["catalog.blowup_exhausted"] += 1

    def _certify_result(self, args, kwargs, result):
        self.counts["constructions.skipped_scales"] += len(result.skipped)

    def _plan_result(self, args, kwargs, result):
        """FLOPs and largest intermediate of each plan np.einsum executes,
        computed with numpy's cost formula from the returned contraction list."""
        if not kwargs.get("einsum_call"):
            return
        subscripts, operands = args[0], args[1:]
        key = (subscripts, tuple(getattr(op, "shape", ()) for op in operands))
        cost = self.plan_costs.get(key)
        if cost is None:
            cost = self.plan_costs[key] = self._plan_cost(subscripts, operands, result[1])
        self.counts["density.flops"] += cost[0]
        self.counts["density.peak_intermediate"] = max(
            self.counts["density.peak_intermediate"], cost[1]
        )

    @staticmethod
    def _plan_cost(subscripts, operands, contraction_list):
        """numpy's "Optimized FLOP count" and "Largest intermediate" formulas."""
        dims = {}
        for term, op in zip(subscripts.split("->")[0].split(","), operands):
            for ch, n in zip(term, getattr(op, "shape", ())):
                dims[ch] = n
        flops = 0
        peak = 0
        for step in contraction_list:
            einsum_str = step[1]
            inputs, output = einsum_str.split("->")
            terms = inputs.split(",")
            idx = set(inputs.replace(",", ""))
            size = math.prod(dims.get(ch, 1) for ch in idx)
            factor = max(1, len(terms) - 1) + (1 if idx - set(output) else 0)
            flops += size * factor
            peak = max(peak, math.prod(dims.get(ch, 1) for ch in output))
        return flops + 1, peak

    # -- reporting ----------------------------------------------------------

    def self_times(self):
        """Total self time and inclusive time per span name."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_t = Counter()
        incl = Counter()
        for i, (name, start, end, _, _) in enumerate(spans):
            self_t[name] += (end - start) - child[i]
            incl[name] += end - start
        return self_t, incl

    def layer_metrics(self, phase_s):
        """Per-layer counters and times of this round, by metric name;
        phase_s is the CPU time of the round's timed phase."""
        calls = Counter(s[0] for s in self.spans)
        self_t, incl = self.self_times()
        m = {name: calls[span] for name, span in CALL_METRICS.items()}
        m.update({name: self_t[span] for name, span in SELF_TIME_METRICS.items()})
        # contract_s = eval_s + plan_s: the tracer's own bookkeeping is left out
        m["density.contract_s"] = self_t["density.contract"] + self_t["density.plan"]
        n = m["density.contract_calls"]
        m["density.distinct_plans"] = len(self.plan_keys)
        m["density.plan_reuse_ratio"] = 1.0 - len(self.plan_keys) / n if n else 0.0
        m["density.plan_share"] = self_t["density.plan"] / phase_s if phase_s else 0.0
        for key in (
            "density.flops",
            "density.peak_intermediate",
            "density.cap_rejections",
            "density.neg_inf_results",
            "catalog.blowup_exhausted",
            "constructions.skipped_scales",
        ):
            m[key] = self.counts[key]
        for name in sorted(incl):
            if name.startswith(SUITE_PREFIX):
                m[name + "_s"] = incl[name]
        return m

    def dump(self, path):
        """Write every span as one JSON line: name, start, end, parent, op."""
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )
