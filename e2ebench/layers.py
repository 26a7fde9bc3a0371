"""Traced-run instrumentation: spans around the program's layers, from outside.

The program already emits spans through :mod:`repro.obs.trace` (operators,
``answer_probabilities``, ``solve_slice``, ``ladder``, ...), but only into a
tracer active on the thread doing the work, and several layers run outside
any span. :class:`LayerTrace` fixes both from the benchmark's side:

* it wraps public functions at run time, at every module attribute a
  workload resolves them through, so each call opens a span named after its
  layer (``perf.probe``, ``db.commit``, ...);
* it wraps :meth:`repro.serve.Scheduler.submit` so every request's work runs
  under its own :class:`~repro.obs.Tracer` on the scheduler's worker thread,
  which collects the program's spans and the wrappers' spans in one tree.

Nothing is changed inside ``src/``: :meth:`LayerTrace.uninstall` restores
every patched attribute. :data:`WRAPPERS` also says on which workloads each
wrapper must fire; :meth:`LayerTrace.unfired` reports the ones that did not,
because a patched name nobody calls would otherwise report zero silently.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
import weakref
from collections import defaultdict

from repro.obs.trace import Tracer, span

ALL = ("adhoc-large", "hard-deadline", "serve-mixed")
PREPARED = ("hard-deadline", "serve-mixed")
INFERENCE = ("hard-deadline", "serve-mixed")

#: (span name, owner path, [attribute sites], workloads that must fire it).
#: An owner path ``module:Class`` patches a method on the class; ``module``
#: alone patches a module-level function. Every site of one entry gets the
#: same wrapper, so a call is counted once whichever name it went through.
WRAPPERS = (
    ("serve.handle", "repro.serve.server:Server", ["handle"], ALL),
    ("serve.prepare", "repro.serve.server:Server", ["prepare"], PREPARED),
    ("query.parse", "repro.serve.prepared", ["parse_query"], ALL),
    ("core.plan", "repro.serve.prepared", ["left_deep_plan"], ALL),
    ("core.pipeline", "repro.serve.prepared:PreparedQuery", ["evaluate"], ALL),
    ("infer.exact", "repro.core.executor:EvaluationResult",
     ["answer_probabilities"], ALL),
    ("infer.resilient", "repro.core.executor:EvaluationResult",
     ["resilient_answer_probabilities"], ("hard-deadline",)),
    ("treeprop.check", "repro.core.treeprop", ["is_tree_factorable"], ALL),
    ("treeprop.check", "repro.perf.parallel", ["is_tree_factorable"], ALL),
    ("perf.group", "repro.perf.parallel", ["group_by_component"], INFERENCE),
    ("perf.group", "repro.resilience.execute", ["group_by_component"],
     ("hard-deadline",)),
    ("perf.probe", "repro.perf.parallel", ["estimate_component"], INFERENCE),
    ("perf.solve", "repro.perf.parallel", ["solve_slice"], INFERENCE),
    # Every hard-deadline component is too wide for variable elimination,
    # so min-fill ordering runs only on serve-mixed.
    ("inference.min_fill", "repro.core.inference", ["min_fill_order"],
     ("serve-mixed",)),
    ("lineage.dpll", "repro.lineage.exact", ["dnf_probability"],
     ("hard-deadline",)),
    ("resilience.ladder", "repro.resilience.execute",
     ["resilient_component_marginals"], ("hard-deadline",)),
    ("dissociation.bounds", "repro.resilience.ladder",
     ["network_dissociation_bounds"], ("hard-deadline",)),
    # Reached only when admission sheds a request to the bounds rung or the
    # operator pipeline itself blows its budget; no workload does either,
    # and the wrapper is here so a change that routes to it shows.
    ("dissociation.evaluate", "repro.dissociation.engine:DissociationEvaluator",
     ["evaluate"], ()),
    ("db.snapshot", "repro.db.database:ProbabilisticDatabase", ["snapshot"],
     ALL),
    ("db.commit", "repro.db.txn:Transaction", ["commit"], ALL),
)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class LayerTrace:
    """Installs the wrappers and collects one span tree per request."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.calls: dict[str, int] = defaultdict(int)
        #: Wall seconds per wrapper, also outside any request's tracer.
        self.seconds: dict[str, float] = defaultdict(float)
        #: ``db.commit`` end times and durations, for per-quartile medians.
        self.commits: list[tuple[float, float]] = []
        self.conflicts = 0
        #: request seq -> (worker span roots, execute seconds).
        self.executions: dict[int, tuple[list, float]] = {}
        self.probes: list[bool] = []
        self.components: list[int] = []
        self.pipelines: list[tuple[int, int]] = []
        self.invalidations = 0
        # Keyed by the statement itself: ad-hoc statements die after one
        # request, and an id() could be reused by the next one.
        self._last_version = weakref.WeakKeyDictionary()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- install
    def install(self) -> None:
        wrapped: dict[int, object] = {}
        for name, owner, attrs, _ in WRAPPERS:
            target = _resolve(owner)
            for attr in attrs:
                original = target.__dict__[attr] if isinstance(target, type) \
                    else getattr(target, attr)
                wrapper = wrapped.get(id(original))
                if wrapper is None:
                    wrapper = wrapped[id(original)] = self._wrap(name, original)
                self._saved.append((target, attr, original))
                setattr(target, attr, wrapper)
        from repro.serve.scheduler import Scheduler

        original_submit = Scheduler.submit
        self._saved.append((Scheduler, "submit", original_submit))
        trace = self

        @functools.wraps(original_submit)
        def submit(scheduler, fn, **kwargs):
            def run(request):
                tracer = Tracer()
                t0 = time.perf_counter()
                try:
                    with tracer, tracer.span("serve.execute"):
                        return fn(request)
                finally:
                    with trace._lock:
                        trace.executions[request.seq] = (
                            tracer.roots, time.perf_counter() - t0
                        )

            request = original_submit(scheduler, run, **kwargs)
            trace._local.request = request
            return request

        Scheduler.submit = submit

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()

    def take_request(self):
        """The scheduled request the calling client thread submitted last."""
        request = getattr(self._local, "request", None)
        self._local.request = None
        return request

    def _wrap(self, name: str, fn):
        trace = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with trace._lock:
                trace.calls[name] += 1
            t0 = time.perf_counter()
            with span(name) as sp:
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    sp.annotate(error=type(exc).__name__)
                    if name == "db.commit":
                        trace._commit_error(exc)
                    raise
            trace._observe(name, args, result, time.perf_counter() - t0)
            return result

        return wrapper

    def _commit_error(self, exc) -> None:
        from repro.errors import TransactionConflictError

        if isinstance(exc, TransactionConflictError):
            with self._lock:
                self.conflicts += 1

    def _observe(self, name, args, result, seconds) -> None:
        with self._lock:
            self.seconds[name] += seconds
            if name == "db.commit":
                self.commits.append((time.perf_counter(), seconds))
            elif name == "perf.probe":
                self.probes.append(bool(result[0]))
            elif name == "perf.group":
                self.components.append(len(result))
            elif name == "core.pipeline":
                statement, version = args[0], args[2]
                last = self._last_version.get(statement)
                if last is not None and last != version:
                    self.invalidations += 1
                self._last_version[statement] = version
                self.pipelines.append(
                    (result.offending_count, len(result.network))
                )

    def unfired(self) -> list[str]:
        """Wrappers this workload must exercise that were never called."""
        expected = {
            name for name, _, _, workloads in WRAPPERS
            if self.workload in workloads
        }
        return sorted(n for n in expected if not self.calls.get(n))


# ------------------------------------------------------------- accounting
def span_accounting(trees) -> dict[str, dict]:
    """Per span name: call count, busy and self seconds.

    *Self* time is a span's wall time minus its children's, i.e. the time
    no deeper span accounts for. ``program_self`` counts only children the
    program emitted itself (not the benchmark's wrappers), so the
    gap the program leaves unattributed shows next to the traced one.
    """
    table: dict[str, dict] = defaultdict(
        lambda: {"count": 0, "busy": 0.0, "self": 0.0, "program_self": 0.0}
    )

    def program_children(s):
        out = []
        for child in s.children:
            if child.name in _BENCHMARK_SPANS:
                out.extend(program_children(child))
            else:
                out.append(child)
        return out

    for s in _spans(trees):
        row = table[s.name]
        row["count"] += 1
        row["busy"] += s.wall
        row["self"] += s.wall - sum(c.wall for c in s.children)
        row["program_self"] += s.wall - sum(
            c.wall for c in program_children(s)
        )
    return dict(table)


_BENCHMARK_SPANS = frozenset(
    {w[0] for w in WRAPPERS} | {"serve.execute", "client.request"}
)


def _spans(trees):
    for roots in trees:
        for root in roots:
            yield from root.walk()


def solve_paths(trees) -> dict[str, float]:
    """Seconds in the program's ``solve_slice`` spans, by chosen path."""
    out = {"tree": 0.0, "ve": 0.0, "dpll": 0.0}
    for s in _spans(trees):
        if s.name == "solve_slice":
            path = s.attrs.get("path", "dpll")
            key = "ve" if path in ("ve", "junction") else path
            out[key] = out.get(key, 0.0) + s.wall
    return out



def wasted_exact_seconds(trees) -> float:
    """Seconds in exact attempts that failed: a raising
    ``answer_probabilities`` call, or a raising ``solve_slice`` outside one
    (the ladder's exact rung)."""
    total = 0.0

    def visit(s) -> None:
        nonlocal total
        if s.name in ("infer.exact", "perf.solve") and "error" in s.attrs:
            total += s.wall
            return
        for child in s.children:
            visit(child)

    for roots in trees:
        for root in roots:
            visit(root)
    return total


RUNGS = ("exact", "obdd", "dissociation", "bounds", "sampling")


def _median(values):
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


def layer_metrics(trace: LayerTrace, clients, out: dict, setup: dict, workload):
    """Per-layer metrics of one traced run, plus the span accounting table.

    Times are milliseconds per query request unless the name says
    otherwise; shares are fractions of the named whole.
    """
    log = out["log"]
    queries = [r for r in log if r["kind"] == "query"]
    nq = max(1, len(queries))
    ok = [r for r in queries if r["ok"]]
    answers = [a for r in ok for a in r["answers"]]
    traced = [t for c in clients for t in c.traced]
    executions = trace.executions
    # The worker thread's tree of a request goes under the client's
    # ``serve.handle`` span, so handle's self time is what the protocol and
    # the queue add; warm-up requests have no client tree and stay out.
    for seq, roots, _, _, _ in traced:
        if seq in executions:
            handle = roots[0].find("serve.handle")
            (handle or roots)[0].children.extend(executions[seq][0])
    trees = [t[1] for t in traced]
    acct = span_accounting(trees)

    def busy(name):
        return acct.get(name, {}).get("busy", 0.0)

    def per_query_ms(*names):
        return sum(busy(n) for n in names) * 1000.0 / nq

    def share(part, whole):
        return part / whole if whole else 0.0

    paths = solve_paths(trees)
    solve_total = busy("perf.solve")
    infer_cache = [p["infer_cache"] for p in out["stats"]["prepared"].values()]
    hits = sum(c["hits"] for c in infer_cache)
    lookups = hits + sum(c["misses"] for c in infer_cache)
    by_rung = {r: 0 for r in RUNGS}
    for a in answers:
        by_rung[a[4]] = by_rung.get(a[4], 0) + 1
    dissoc_widths = [a[2] - a[1] for a in answers if a[4] == "dissociation"]
    overruns = [
        max(0.0, r["exec"] - workload.deadline) for r in ok
        if workload.deadline is not None and r["exec"] is not None
    ]
    query_traces = [t for t in traced if t[4] == "query" and t[0] in executions]
    waits = [t[3] for t in query_traces if t[3] is not None]
    protocol = [
        t[2] - executions[t[0]][1] - (t[3] or 0.0) for t in query_traces
    ]
    quarters = [[] for _ in range(4)]
    if trace.commits:
        start = min(t for t, _ in trace.commits)
        span_s = max(t for t, _ in trace.commits) - start or 1.0
        for t, seconds in trace.commits:
            quarters[min(3, int(4 * (t - start) / span_s))].append(seconds)
    execute = busy("serve.execute")
    roundtrips = sum(t[2] for t in query_traces)
    ap = acct.get("answer_probabilities", {})
    ex = acct.get("serve.execute", {})
    snapshots = trace.calls.get("db.snapshot", 0)
    prepares = trace.calls.get("serve.prepare", 0)
    attempted = max(1, len(log))

    metrics = {
        "import_s": (setup["import_s"], "s"),
        "io.load_s": (setup["io.load_s"], "s"),
        "warmup_s": (setup["warmup_s"], "s"),
        "query.parse_ms": (per_query_ms("query.parse"), "ms"),
        "core.plan_ms": (per_query_ms("core.plan"), "ms"),
        "core.scan_ms": (per_query_ms("scan"), "ms"),
        "core.join_ms": (per_query_ms("join"), "ms"),
        "core.project_ms": (per_query_ms("project"), "ms"),
        "core.pipeline_ms": (per_query_ms("core.pipeline"), "ms"),
        "core.offending": (
            sum(p[0] for p in trace.pipelines) / max(1, len(trace.pipelines)),
            "count"),
        "core.network_nodes": (
            sum(p[1] for p in trace.pipelines) / max(1, len(trace.pipelines)),
            "count"),
        "treeprop.check_ms": (per_query_ms("treeprop.check"), "ms"),
        "perf.group_ms": (per_query_ms("perf.group"), "ms"),
        "perf.probe_ms": (per_query_ms("perf.probe"), "ms"),
        "perf.solve_ms.tree": (paths["tree"] * 1000.0 / nq, "ms"),
        "perf.solve_ms.ve": (paths["ve"] * 1000.0 / nq, "ms"),
        "perf.solve_ms.dpll": (paths["dpll"] * 1000.0 / nq, "ms"),
        "perf.components": (
            sum(trace.components) / max(1, len(trace.components)), "count"),
        "perf.wide_share": (
            share(sum(1 for n in trace.probes if not n), len(trace.probes)),
            "share"),
        "perf.probe_over_solve": (share(busy("perf.probe"), solve_total),
                                  "ratio"),
        "inference.min_fill_ms": (per_query_ms("inference.min_fill"), "ms"),
        # Invocations, not recursive calls: the program counts the latter
        # only when a solve finishes, and on hard-deadline none does.
        "lineage.dpll_calls": (
            acct.get("lineage.dpll", {}).get("count", 0) / nq, "count"),
        "cache.hit_rate": (share(hits, lookups), "share"),
        "resilience.fallback_share": (
            share(sum(1 for r in ok if r["mode"] != "exact"), len(ok)),
            "share"),
        "resilience.exact_wasted_ms": (
            wasted_exact_seconds(trees) * 1000.0 / nq, "ms"),
        "resilience.ladder_ms": (per_query_ms("resilience.ladder"), "ms"),
        "resilience.overrun_ms": (
            1000.0 * sum(overruns) / max(1, len(overruns)), "ms"),
        "dissociation.bounds_ms": (
            per_query_ms("dissociation.bounds", "dissociation.evaluate"), "ms"),
        "dissociation.width_mean": (
            sum(dissoc_widths) / max(1, len(dissoc_widths)), "prob"),
        "serve.queue_wait_ms": (1000.0 * sum(waits) / max(1, len(waits)), "ms"),
        "serve.rejected": (
            sum(1 for r in log if (r["code"] or "").startswith("rejected")),
            "count"),
        "serve.shed": (sum(1 for r in queries if r.get("shed")), "count"),
        "serve.protocol_ms": (
            1000.0 * sum(protocol) / max(1, len(protocol)), "ms"),
        "serve.prepared.invalidations": (trace.invalidations, "count"),
        "serve.prepare_ms": (
            1000.0 * trace.seconds.get("serve.prepare", 0.0) / max(1, prepares),
            "ms"),
        "db.commit_ms": (1000.0 * _median([s for _, s in trace.commits]), "ms"),
        "db.snapshot_ms": (
            1000.0 * trace.seconds.get("db.snapshot", 0.0) / max(1, snapshots),
            "ms"),
        "db.txn.conflicts": (trace.conflicts, "count"),
        "obs.records_per_request": (out["flight_records"] / attempted, "count"),
        "obs.spans_per_request": (
            sum(v["count"] for v in acct.values()) / nq, "count"),
        "unattributed.answer_probabilities.program_share": (
            share(ap.get("program_self", 0.0), ap.get("busy", 0.0)), "share"),
        "unattributed.answer_probabilities.traced_share": (
            share(ap.get("self", 0.0), ap.get("busy", 0.0)), "share"),
        "unattributed.execute_share": (
            share(ex.get("self", 0.0), ex.get("busy", 0.0)), "share"),
        "share.pipeline": (share(busy("core.pipeline"), execute), "share"),
        "share.inference": (
            share(busy("infer.exact") + busy("infer.resilient"), execute),
            "share"),
        "share.serve": (
            share(sum(protocol) + sum(waits), roundtrips), "share"),
    }
    for q, values in enumerate(quarters, start=1):
        metrics[f"db.commit_ms.q{q}"] = (1000.0 * _median(values), "ms")
    total_answers = max(1, len(answers))
    for rung in RUNGS:
        metrics[f"resilience.rung.{rung}"] = (
            by_rung.get(rung, 0) / total_answers, "share")
    accounting = {
        name: {"count": row["count"], "busy_ms": 1000.0 * row["busy"],
               "self_ms": 1000.0 * row["self"],
               "program_self_ms": 1000.0 * row["program_self"]}
        for name, row in sorted(acct.items())
    }
    return {
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()},
        "accounting": accounting,
        "unfired": trace.unfired(),
        "calls": dict(trace.calls),
    }
