"""Per-layer tracing of the almostabelian package, from outside the package.

`Tracer.install` replaces each traced callable by a wrapper wherever a
module of the package binds it (``cohomology`` imports ``sparse_rank``
by name, ``records`` imports ``closed_table``, and so on), so calls made
inside the package are seen too.  Every wrapped call records a span:
name, start, end, parent span and the id of the benchmark op it ran
under.  Spans stay in memory until the run writes them out.
`Tracer.uninstall` puts every original object back.
"""

import json
import sys
import time
from functools import wraps

PACKAGE = "almostabelian"

# span name -> (module, attribute path inside the module)
TRACED = {
    "exactla.sparse_rank": ("exactla", "sparse_rank"),
    "exactla.RationalMatrix.rank": ("exactla", "RationalMatrix.rank"),
    "exactla.RationalMatrix.nullspace": ("exactla", "RationalMatrix.nullspace"),
    "exactla.Subspace": ("exactla", "Subspace.__init__"),
    "model.stable_series": ("model", "stable_series"),
    "model.nijenhuis_vanishes": ("model", "nijenhuis_vanishes"),
    "model.admits_complex_structure": ("model", "admits_complex_structure"),
    "model.structure_equations": ("model", "structure_equations"),
    "model.build_algebra": ("model", "build_algebra"),
    "partitions.partitions_of": ("partitions", "partitions_of"),
    "sl2.wedge": ("sl2", "wedge"),
    "sl2.tensor": ("sl2", "tensor"),
    "cohomology.betti_oracle": ("cohomology", "betti_oracle"),
    "cohomology.hodge_oracle": ("cohomology", "hodge_oracle"),
    "cohomology.betti_via_ideal_action": ("cohomology", "betti_via_ideal_action"),
    "cohomology.d_squared_vanishes": ("cohomology", "d_squared_vanishes"),
    "cohomology.dbar_squared_vanishes": ("cohomology", "dbar_squared_vanishes"),
    "cohomology.closed_table": ("cohomology", "closed_table"),
    "records.ExportRecord.for_model": ("records", "ExportRecord.for_model"),
    "cli.run_verify": ("cli", "run_verify"),
}

# Per-layer metrics in report order: "<span>.<figure>" with unit.  Calls
# and work counts are exact counts; seconds are summed over a pass.
LAYER_METRICS = (
    ("exactla.sparse_rank.calls", "count"),
    ("exactla.sparse_rank.self_s", "s"),
    ("exactla.sparse_rank.rows", "count"),
    ("exactla.sparse_rank.nnz", "count"),
    ("exactla.sparse_rank.rank", "count"),
    ("exactla.RationalMatrix.rank.calls", "count"),
    ("exactla.RationalMatrix.rank.self_s", "s"),
    ("exactla.RationalMatrix.nullspace.calls", "count"),
    ("exactla.RationalMatrix.nullspace.self_s", "s"),
    ("exactla.Subspace.calls", "count"),
    ("exactla.Subspace.self_s", "s"),
    ("model.stable_series.calls", "count"),
    ("model.stable_series.total_s", "s"),
    ("model.stable_series.self_s", "s"),
    ("model.nijenhuis_vanishes.total_s", "s"),
    ("model.admits_complex_structure.calls", "count"),
    ("model.admits_complex_structure.total_s", "s"),
    ("model.structure_equations.total_s", "s"),
    ("model.build_algebra.total_s", "s"),
    ("partitions.partitions_of.calls", "count"),
    ("partitions.partitions_of.total_s", "s"),
    ("partitions.partitions_of.partitions", "count"),
    ("partitions.restricted_count.hit_ratio", "ratio"),
    ("sl2.wedge.calls", "count"),
    ("sl2.wedge.total_s", "s"),
    ("sl2.wedge.memo_hit_ratio", "ratio"),
    ("sl2.tensor.calls", "count"),
    ("sl2.tensor.total_s", "s"),
    ("sl2.tensor.cg_terms", "count"),
    ("cohomology.betti_oracle.calls", "count"),
    ("cohomology.betti_oracle.total_s", "s"),
    ("cohomology.betti_oracle.self_s", "s"),
    ("cohomology.hodge_oracle.calls", "count"),
    ("cohomology.hodge_oracle.total_s", "s"),
    ("cohomology.hodge_oracle.self_s", "s"),
    ("cohomology.betti_via_ideal_action.calls", "count"),
    ("cohomology.betti_via_ideal_action.total_s", "s"),
    ("cohomology.betti_via_ideal_action.self_s", "s"),
    ("cohomology.d_squared_vanishes.total_s", "s"),
    ("cohomology.dbar_squared_vanishes.total_s", "s"),
    ("cohomology.closed_table.total_s", "s"),
    ("records.ExportRecord.for_model.total_s", "s"),
    ("records.ExportRecord.for_model.self_s", "s"),
    ("cli.run_verify.total_s", "s"),
    ("trace_overhead", "ratio"),
)

# lru_cache hit ratios, read from cache_info() around a traced pass:
# metric name -> (module, cached function)
CACHES = {
    "partitions.restricted_count.hit_ratio": ("partitions", "restricted_count"),
    "sl2.wedge.memo_hit_ratio": ("sl2", "_wedge_sum"),
}


def package_modules():
    return [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]


def _count_sparse_rank(args, kwargs, result):
    rows = args[0] if args else kwargs["row_dicts"]
    return {
        "rows": len(rows),
        "nnz": sum(1 for row in rows for x in row.values() if x),
        "rank": result,
    }


def _count_tensor(args, kwargs, result):
    v, w = args
    return {"cg_terms": sum(min(i, k) for i, _ in v.items() for k, _ in w.items())}


def _count_partitions(args, kwargs, result):
    return {"partitions": len(result)}


COUNTERS = {
    "exactla.sparse_rank": _count_sparse_rank,
    "sl2.tensor": _count_tensor,
    "partitions.partitions_of": _count_partitions,
}


class Tracer:
    """Span recorder for one traced run.

    A span is (id, name, start, end, parent id, op id, counts, outer
    start, outer end).  The bookkeeping of a wrapper (stack handling,
    counting the work) happens outside [start, end] but inside the outer
    interval, which is what the parent sees as covered by the child, so
    it lands in no layer's time.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []
        self.op_id = None

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        count = COUNTERS.get(name)
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            outer_start = clock()
            sid = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, name, start, end, parent, self.op_id, None, outer_start, end)
            if count:
                counts = count(args, kwargs, result)
                spans[sid] = (sid, name, start, end, parent, self.op_id, counts,
                              outer_start, clock())
            return result

        return traced

    def install(self):
        """Wrap every traced callable wherever a package module binds it."""
        modules = {m.__name__.rpartition(".")[2]: m for m in package_modules()}
        for name, (module, path) in TRACED.items():
            owner = modules[module]
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            if owners:
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def mark(self):
        """Position in the span list, to summarise the spans recorded after it."""
        return len(self.spans)

    def summarise(self, begin):
        """Totals per span name over the spans recorded since `begin`.

        self time is a span's duration minus the time its direct
        children cover (their full intervals, wrapper bookkeeping
        included).
        """
        spans = self.spans[begin:]
        child_cover = {}
        for span in spans:
            parent = span[4]
            if parent is not None:
                child_cover[parent] = child_cover.get(parent, 0.0) + (span[8] - span[7])
        out = {}
        for sid, name, start, end, _parent, _op, counts, _o0, _o1 in spans:
            acc = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            acc["calls"] += 1
            acc["total_s"] += end - start
            acc["self_s"] += end - start - child_cover.get(sid, 0.0)
            for key, value in (counts or {}).items():
                acc[key] = acc.get(key, 0) + value
        return out

    def write(self, path):
        """Write the spans as JSON lines: id, name, start, end, parent, op."""
        with open(path, "w") as handle:
            for sid, name, start, end, parent, op, counts, _o0, _o1 in self.spans:
                record = {"id": sid, "name": name, "start": start, "end": end,
                          "parent": parent, "op": op}
                if counts:
                    record["counts"] = counts
                handle.write(json.dumps(record) + "\n")


def cache_snapshot():
    """cache_info() of every cache behind a hit-ratio metric."""
    modules = {m.__name__.rpartition(".")[2]: m for m in package_modules()}
    return {name: getattr(modules[mod], fn).cache_info() for name, (mod, fn) in CACHES.items()}


def hit_ratios(before, after):
    out = {}
    for name in CACHES:
        hits = after[name].hits - before[name].hits
        misses = after[name].misses - before[name].misses
        out[name] = hits / (hits + misses) if hits + misses else 0.0
    return out


