"""Span tracer for the benchmark's traced runs.

The tracer wraps the public functions of each oscilab layer from outside the
package: every ``oscilab.*`` module namespace that holds the original object
gets the wrapper, because ``cli``, ``acceptance``, ``proba``, ``picard`` and
``lens`` import these functions by name.  Spans stay in memory as
``[name, start, end, parent, attrs]`` lists and are written out by the caller
when the operation ends.  The operations run with ``--workers 1``, so one
span stack per process is enough.

Per-call cheap functions (``sample_gains``, ``sample``) stay unwrapped: their
cost is close to the wrapper's own.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path

NAME, START, END, PARENT, ATTRS = range(5)


def _nbytes(args, kwargs, result):
    return {"bytes": int(result.nbytes)}


def _file_bytes(path) -> int:
    return Path(path).stat().st_size


# layer function -> span name and the counts read off its call
TARGETS = (
    ("oscilab.hermite", "build_basis", "hermite.build_basis", lambda a, k, r: {"bytes": int(r.eval_table.nbytes)}),
    ("oscilab.hermite", "cached_basis", "hermite.cached_basis", None),
    ("oscilab.hermite", "BasisGrid.eval_at", "hermite.eval_at", _nbytes),
    ("oscilab.hermite", "BasisGrid.audit_table", "hermite.audit_table", _nbytes),
    ("oscilab.fields", "product_quadrature", "fields.product_quadrature", lambda a, k, r: {"bytes": int(r[2].nbytes)}),
    ("oscilab.fields", "smoothing_functional", "fields.smoothing_functional", None),
    ("oscilab.fields", "evaluate_norm", "fields.evaluate_norm", None),
    ("oscilab.fields", "spacetime_norm", "fields.spacetime_norm", None),
    ("oscilab.fields", "synthesize", "fields.synthesize", None),
    ("oscilab.fields", "analyze", "fields.analyze", None),
    ("oscilab.lens", "free_propagate", "lens.free_propagate", None),
    ("oscilab.lens", "lens_forward", "lens.lens_forward", None),
    ("oscilab.picard", "picard_solve", "picard.picard_solve", lambda a, k, r: {"iterations": int(r.iterations)}),
    ("oscilab.picard", "residual", "picard.residual", None),
    ("oscilab.picard", "mass_curve", "picard.mass_curve", None),
    ("oscilab.picard", "scattering_extract", "picard.scattering_extract", None),
    ("oscilab.picard", "global_nls_solution", "picard.global_nls_solution", None),
    ("oscilab.picard", "save_trajectory", "picard.save_trajectory", lambda a, k, r: {"bytes": _file_bytes(a[1])}),
    ("oscilab.picard", "load_trajectory", "picard.load_trajectory", None),
    ("oscilab.ensembles", "sample_gain_matrix", "ensembles.sample_gain_matrix", lambda a, k, r: {"variates": int(r.size)}),
    ("oscilab.ensembles", "sample_block", "ensembles.sample_block", None),
    ("oscilab.proba", "chernoff_tail", "proba.chernoff_tail", None),
    ("oscilab.proba", "good_set_probability", "proba.good_set_probability", None),
    ("oscilab.proba", "flow_sup_norm_samples", "proba.flow_sup_norm_samples", None),
    ("oscilab.proba", "paley_zygmund_check", "proba.paley_zygmund_check", None),
    ("oscilab.proba", "odd_moment_witness", "proba.odd_moment_witness", None),
    ("oscilab.mc", "run_chunked", "mc.run_chunked", lambda a, k, r: {"chunks": len(r)}),
    ("oscilab.reports", "write_report", "reports.write", lambda a, k, r: {"bytes": _file_bytes(r)}),
    ("oscilab.reports", "write_csv", "reports.write", lambda a, k, r: {"bytes": _file_bytes(r)}),
    ("oscilab.reports", "write_manifest", "reports.write", lambda a, k, r: {"bytes": _file_bytes(r)}),
    ("oscilab.cli", "main", "cli.main", None),
)


class Tracer:
    """Records nested spans around wrapped calls; one instance per process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, attrs=None) -> None:
        self.spans[idx][END] = time.perf_counter()
        self.spans[idx][ATTRS] = attrs
        self._stack.pop()

    @staticmethod
    def span_cost() -> float:
        """Seconds one wrapped call adds to a bare call, measured on a no-op."""

        def noop():
            return None

        calls = 20000
        wrapped = Tracer().wrap("noop", noop)
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        return max(time.perf_counter() - start - bare, 0.0) / calls

    def wrap(self, name: str, fn, attrs=None):
        """Wrap fn so each call is one span; attrs(args, kwargs, result) adds counts."""

        def traced(*args, **kwargs):
            idx = self._open(name)
            extra = None
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    extra = attrs(args, kwargs, result)
                return result
            finally:
                self._close(idx, extra)

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn):
        """Wrap a generator function so each next() is one span counting its variates."""

        def timed(gen):
            while True:
                idx = self._open(name)
                item = None
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(idx, None if item is None else {"variates": int(item.size)})
                yield item

        def traced(*args, **kwargs):
            return timed(fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    def install(self, targets=TARGETS, modules=None) -> None:
        """Replace every reference to each target in the oscilab module namespaces.

        A dotted name ``Class.method`` is replaced on the class only.
        """
        if modules is None:
            modules = {n: m for n, m in sys.modules.items() if n == "oscilab" or n.startswith("oscilab.")}
        for module_name, qualname, span_name, attrs in targets:
            home = modules[module_name]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[attr]
                self._replace(owner, attr, self.wrap(span_name, original, attrs))
                continue
            original = getattr(home, qualname)
            if inspect.isgeneratorfunction(original):
                wrapper = self.wrap_generator(span_name, original)
            else:
                wrapper = self.wrap(span_name, original, attrs)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, attr, wrapper)

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its child spans cover."""
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(idx)
    out = []
    for idx, span in enumerate(spans):
        lo, hi = span[START], span[END]
        intervals = sorted(
            (max(spans[c][START], lo), min(spans[c][END], hi)) for c in children.get(idx, ())
        )
        covered = 0.0
        cur_lo = cur_hi = None
        for a, b in intervals:
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out


def cache_hits(spans, name: str) -> tuple[int, int]:
    """(hits, calls) of a memoized function: a call without a child build_basis is a hit."""
    built = {span[PARENT] for span in spans if span[NAME] == "hermite.build_basis"}
    calls = [idx for idx, span in enumerate(spans) if span[NAME] == name]
    return sum(idx not in built for idx in calls), len(calls)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(processes) -> dict[str, float]:
    """Per-layer metrics summed over the span lists of one pass (one list per process)."""
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    table_bytes = 0
    hits = defaultdict(lambda: [0, 0])
    for spans in processes:
        for span, own in zip(spans, self_times(spans)):
            name, attrs = span[NAME], span[ATTRS] or {}
            self_s[name] += own
            calls[name] += 1
            for key, value in attrs.items():
                counts[f"{name}.{key}"] += value
            if name in ("hermite.build_basis", "hermite.eval_at", "hermite.audit_table", "fields.product_quadrature"):
                table_bytes = max(table_bytes, attrs.get("bytes", 0))
        for name in ("hermite.cached_basis", "fields.product_quadrature"):
            h, c = cache_hits(spans, name)
            hits[name][0] += h
            hits[name][1] += c

    out = {
        "hermite.build_basis.calls": calls["hermite.build_basis"],
        "hermite.build_basis.self_s": self_s["hermite.build_basis"],
        "hermite.cached_basis.hit_ratio": _ratio(*hits["hermite.cached_basis"]),
        "hermite.eval_at.self_s": self_s["hermite.eval_at"],
        "hermite.table_bytes": table_bytes,
        "fields.product_quadrature.hit_ratio": _ratio(*hits["fields.product_quadrature"]),
        "fields.smoothing_functional.calls": calls["fields.smoothing_functional"],
    }
    for name in (
        "fields.smoothing_functional", "fields.evaluate_norm", "fields.spacetime_norm",
        "fields.synthesize", "fields.analyze", "lens.free_propagate", "lens.lens_forward",
    ):
        out[f"{name}.self_s"] = self_s[name]
    out["picard.picard_solve.calls"] = calls["picard.picard_solve"]
    out["picard.picard_solve.self_s"] = self_s["picard.picard_solve"]
    out["picard.iterations"] = counts["picard.picard_solve.iterations"]
    out["picard.s_per_iteration"] = _ratio(self_s["picard.picard_solve"], counts["picard.picard_solve.iterations"])
    for name in (
        "picard.residual", "picard.mass_curve", "picard.scattering_extract",
        "picard.global_nls_solution", "picard.save_trajectory", "picard.load_trajectory",
    ):
        out[f"{name}.self_s"] = self_s[name]
    out["picard.checkpoint_bytes"] = counts["picard.save_trajectory.bytes"]
    for name in ("ensembles.sample_gain_matrix", "ensembles.sample_block"):
        variates = counts[f"{name}.variates"]
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.variates"] = variates
        out[f"{name}.ns_per_variate"] = _ratio(1e9 * self_s[name], variates)
    for name in (
        "proba.chernoff_tail", "proba.good_set_probability",
        "proba.flow_sup_norm_samples", "proba.paley_zygmund_check", "proba.odd_moment_witness",
    ):
        out[f"{name}.self_s"] = self_s[name]
    out["mc.run_chunked.chunks"] = counts["mc.run_chunked.chunks"]
    out["mc.run_chunked.self_s"] = self_s["mc.run_chunked"]
    out["reports.write.self_s"] = self_s["reports.write"]
    out["reports.write.bytes"] = counts["reports.write.bytes"]
    out["cli.main.self_s"] = self_s["cli.main"]
    return out


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_s") or name.endswith("s_per_iteration"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("hit_ratio"):
        return "ratio"
    if name.endswith("ns_per_variate"):
        return "ns"
    if name.endswith("_pct"):
        return "%"
    return "count"
