"""Span tracing of sablab's layers, installed from outside the package.

Each hook replaces a public function at every ``sablab`` module attribute
that refers to it, so callers that imported the function by name (as
``protocols`` does with ``qsim.run``) and callers that go through a module
(as ``qsim`` does with ``_kernels.apply_block``) both reach the wrapper.
Methods and classmethods are replaced on their class.  The package source
is not modified; :meth:`Tracer.uninstall` puts every original back.

Spans are kept in memory as flat lists (name, parent, start, end) and
turned into per-layer totals, self times and counts by :meth:`Tracer.collect`.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

_perf = time.perf_counter


def _array_bytes(value) -> int:
    return int(getattr(value, "nbytes", 0))


def _count_solve_float(counters, args, kwargs, result):
    counters["simplex.float_pivots"] += result.pivots
    a = args[1] if len(args) > 1 else kwargs["A"]
    counters["simplex.float_columns"] += len(a[0]) if len(a) else 0


def _count_solve_exact(counters, args, kwargs, result):
    counters["simplex.exact_pivots"] += result.pivots


def _count_apply_block(counters, args, kwargs, result):
    # Computed, not measured: one read of the input state, one write of the output.
    counters["qsim.apply_block_bytes"] += _array_bytes(args[0]) + _array_bytes(result)


def _count_permute_rows(counters, args, kwargs, result):
    counters["qsim.permute_rows_bytes"] += _array_bytes(args[0]) + _array_bytes(result)


def _count_run(counters, args, kwargs, result):
    alg = args[0]
    # Computed: every pre-query state is a copy of a complex128 state vector.
    counters["qsim.prequery_bytes"] += alg.query_count * alg.layout.total_dim * 16


def _count_run_checks(counters, args, kwargs, result):
    for check in result:
        counters[f"verify.check_s.{check.name}"] += check.seconds


def _count_enumerate(counters, args, kwargs, result):
    # Every call the benchmark makes is a cache miss (fresh functions, cleared cache).
    f = args[0]
    counters["sabotage.pairs"] += len(f.d0) * len(f.d1)


# (span name, (module, attribute path) locations, counter).  A counter is
# called with the arguments and result of each completed call.  The kernels
# may also live in qsim itself, so both places are tried.
HOOKS = (
    ("boolfn.make_named", (("boolfn", "make_named"),), None),
    ("boolfn.make_indexing", (("boolfn", "make_indexing"),), None),
    ("boolfn.PartialFunction", (("boolfn", "PartialFunction.__init__"),), None),
    ("sabotage.enumerate_sabotaged", (("sabotage", "enumerate_sabotaged"),), _count_enumerate),
    ("simplex.solve_float", (("simplex", "solve_float"),), _count_solve_float),
    ("simplex.solve_exact", (("simplex", "solve_exact"),), _count_solve_exact),
    ("measures.fbs", (("measures", "fbs"),), None),
    ("measures.fbs_global", (("measures", "fbs_global"),), None),
    ("measures.block_sensitivity", (("measures", "block_sensitivity"),), None),
    ("measures.check_certificate", (("measures", "FbsSolution.check_certificate"),), None),
    ("adversary.spectral_norm", (("adversary", "spectral_norm"),), None),
    ("adversary.evaluate_certificate", (("adversary", "evaluate_certificate"),), None),
    ("adversary.build_fbs_adversary", (("adversary", "build_fbs_adversary"),), None),
    ("adversary.build_sabotage_adversary", (("adversary", "build_sabotage_adversary"),), None),
    ("adversary.relation_bound", (("adversary", "relation_bound"),), None),
    ("qsim.apply_block", (("_kernels", "apply_block"), ("qsim", "apply_block")), _count_apply_block),
    ("qsim.permute_rows", (("_kernels", "permute_rows"), ("qsim", "permute_rows")), _count_permute_rows),
    ("qsim.run", (("qsim", "run"),), _count_run),
    ("qsim.gate_build", (("qsim", "Gate.named"), ("qsim", "Gate.block")), None),
    ("qsim.hybrid_sum", (("qsim", "hybrid_sum"),), None),
    ("qsim.amplitude_amplify", (("qsim", "amplitude_amplify"),), None),
    ("qsim.grover_find_mark", (("qsim", "grover_find_mark"),), None),
    ("protocols.convert_strong", (("protocols", "convert_strong"),), None),
    ("protocols.run_converted", (("protocols", "run_converted"),), None),
    ("protocols.sample_interrupt", (("protocols", "sample_interrupt"),), None),
    ("protocols.find_index_repeat", (("protocols", "find_index_repeat"),), None),
    ("protocols.find_index_amplified", (("protocols", "find_index_amplified"),), None),
    ("protocols.grover_baseline", (("protocols", "grover_baseline"),), None),
    ("verify.run_checks", (("verify", "run_checks"),), _count_run_checks),
    ("cli.main", (("cli", "main"),), None),
)

VERIFY_CHECKS = (
    "01-fbs-indexing",
    "02-measures-catalog",
    "03-fbs-certificate",
    "04-sabotage-certificate",
    "05-indexing-relation",
    "06-hybrid-argument",
    "07-strong-conversion",
    "08-grover-closed-form",
    "09-index-finder",
    "10-determinism",
)

# Per-layer metric -> (unit, how it is derived from one traced round).
#   ("total", names): wall time inside the outermost span of any listed name
#   ("self", names):  span time minus the time of traced child spans
#   ("calls", names): number of spans
#   ("counter", key): a counter filled by the hooks
LAYER_METRICS = {
    "boolfn.construct_s": ("s", ("total", ("boolfn.make_named", "boolfn.make_indexing", "boolfn.PartialFunction"))),
    "sabotage.enumerate_s": ("s", ("total", ("sabotage.enumerate_sabotaged",))),
    "sabotage.pairs": ("count", ("counter", "sabotage.pairs")),
    "simplex.float_s": ("s", ("total", ("simplex.solve_float",))),
    "simplex.float_calls": ("count", ("calls", ("simplex.solve_float",))),
    "simplex.float_pivots": ("count", ("counter", "simplex.float_pivots")),
    "simplex.float_columns": ("count", ("counter", "simplex.float_columns")),
    "simplex.exact_s": ("s", ("total", ("simplex.solve_exact",))),
    "simplex.exact_calls": ("count", ("calls", ("simplex.solve_exact",))),
    "simplex.exact_pivots": ("count", ("counter", "simplex.exact_pivots")),
    "measures.fbs_self_s": ("s", ("self", ("measures.fbs", "measures.fbs_global"))),
    "measures.check_certificate_s": ("s", ("total", ("measures.check_certificate",))),
    "measures.bs_s": ("s", ("total", ("measures.block_sensitivity",))),
    "measures.bs_calls": ("count", ("calls", ("measures.block_sensitivity",))),
    "adversary.spectral_norm_s": ("s", ("total", ("adversary.spectral_norm",))),
    "adversary.spectral_norm_calls": ("count", ("calls", ("adversary.spectral_norm",))),
    "adversary.evaluate_self_s": ("s", ("self", ("adversary.evaluate_certificate",))),
    "adversary.relation_bound_s": ("s", ("total", ("adversary.relation_bound",))),
    "qsim.apply_block_s": ("s", ("total", ("qsim.apply_block",))),
    "qsim.apply_block_calls": ("count", ("calls", ("qsim.apply_block",))),
    "qsim.apply_block_bytes": ("B_computed", ("counter", "qsim.apply_block_bytes")),
    "qsim.permute_rows_s": ("s", ("total", ("qsim.permute_rows",))),
    "qsim.permute_rows_calls": ("count", ("calls", ("qsim.permute_rows",))),
    "qsim.permute_rows_bytes": ("B_computed", ("counter", "qsim.permute_rows_bytes")),
    "qsim.prequery_bytes": ("B_computed", ("counter", "qsim.prequery_bytes")),
    "qsim.run_s": ("s", ("total", ("qsim.run",))),
    "qsim.run_calls": ("count", ("calls", ("qsim.run",))),
    "qsim.run_self_s": ("s", ("self", ("qsim.run",))),
    "qsim.gate_build_s": ("s", ("total", ("qsim.gate_build",))),
    "qsim.gate_builds": ("count", ("calls", ("qsim.gate_build",))),
    "qsim.hybrid_sum_self_s": ("s", ("self", ("qsim.hybrid_sum",))),
    "qsim.amplitude_amplify_s": ("s", ("total", ("qsim.amplitude_amplify",))),
    "protocols.find_index_amplified_self_s": ("s", ("self", ("protocols.find_index_amplified",))),
    "protocols.convert_strong_s": ("s", ("total", ("protocols.convert_strong",))),
    "protocols.grover_baseline_self_s": ("s", ("self", ("protocols.grover_baseline",))),
    **{f"verify.check_s.{name}": ("s", ("counter", f"verify.check_s.{name}")) for name in VERIFY_CHECKS},
    "cli.self_s": ("s", ("self", ("cli.main",))),
}


def _sablab_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if m is not None and (name == "sablab" or name.startswith("sablab."))]


class Tracer:
    """In-memory span recorder with hooks into the sablab modules."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []
        self.unhooked: list[str] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, span: str, fn, counter):
        nid = self._ids.setdefault(span, len(self._ids))
        if nid == len(self.names):
            self.names.append(span)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack, counters = self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(_perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = _perf()
                stack.pop()
            if counter is not None:
                counter(counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every hooked function.

        A hook none of whose locations exists any more is listed in
        ``unhooked``, and its metrics read 0.
        """
        for span, locations, counter in HOOKS:
            hooked = False
            for module_name, path in locations:
                try:
                    module = importlib.import_module(f"sablab.{module_name}")
                except ImportError:
                    continue
                if "." in path:
                    hooked |= self._hook_method(span, module, path, counter)
                else:
                    hooked |= self._hook_function(span, module, path, counter)
            if not hooked:
                self.unhooked.append(span)

    def _hook_function(self, span, module, attr, counter) -> bool:
        original = getattr(module, attr, None)
        if original is None:
            return False
        wrapper = self._wrap(span, original, counter)
        for mod in _sablab_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, name, value))
                    setattr(mod, name, wrapper)
        return True

    def _hook_method(self, span, module, path, counter) -> bool:
        cls_name, attr = path.split(".")
        cls = getattr(module, cls_name, None)
        raw = vars(cls).get(attr) if isinstance(cls, type) else None
        if raw is None:
            return False
        self._restore.append((cls, attr, raw))
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self._wrap(span, raw.__func__, counter)))
        else:
            setattr(cls, attr, self._wrap(span, raw, counter))
        return True

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    def reset(self) -> None:
        """Drop the recorded spans and counters (between traced rounds)."""
        for store in (self.span_name, self.span_parent, self.span_start, self.span_end):
            store.clear()
        self.counters.clear()

    # -- derivation ----------------------------------------------------------

    def span_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive time of outermost spans, self time."""
        count = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(count)]
        child = [0.0] * count
        for i in range(count):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        table: dict[str, dict[str, float]] = {}
        for i in range(count):
            row = table.setdefault(self.names[self.span_name[i]], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += dur[i] - child[i]
        for name in table:
            table[name]["total_s"] = self._total((name,), dur)
        return table

    def _total(self, span_names: tuple[str, ...], dur: list[float]) -> float:
        ids = {self._ids[n] for n in span_names if n in self._ids}
        inside = [False] * len(dur)  # has an ancestor among ``ids``
        total = 0.0
        for i in range(len(dur)):
            p = self.span_parent[i]
            inside[i] = p >= 0 and (inside[p] or self.span_name[p] in ids)
            if self.span_name[i] in ids and not inside[i]:
                total += dur[i]
        return total

    def collect(self, table: dict[str, dict[str, float]]) -> dict[str, float]:
        """Per-layer metrics for the spans recorded since the last reset; ``table`` is their span_table()."""
        count = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(count)]
        out: dict[str, float] = {}
        for metric, (_unit, (kind, arg)) in LAYER_METRICS.items():
            if kind == "total":
                out[metric] = self._total(arg, dur)
            elif kind == "self":
                out[metric] = sum(table.get(n, {}).get("self_s", 0.0) for n in arg)
            elif kind == "calls":
                out[metric] = sum(table.get(n, {}).get("calls", 0) for n in arg)
            else:
                out[metric] = self.counters.get(arg, 0)
        return out
