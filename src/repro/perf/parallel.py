"""The component driver: every final-inference path, sliced by component.

The marginals of a multi-answer query are independent solves, and the
And-Or network of a Fig. 5-style workload splits into one connected
component per head value once ε — a constant that correlates nothing — is
set aside. Thm. 5.17's inference pass therefore runs per component, and
this module owns it once, for the exact path, the degradation ladder and
``repro explain`` alike:

* :func:`group_by_component` extracts each needed component once
  (:meth:`~repro.core.network.AndOrNetwork.extract_component`) and probes
  it with one *early-exit* min-degree pass (:func:`estimate_component`).
* :func:`solve_slice` is the one routing decision — batched tree
  propagation, a single evidence-reduced elimination, one shared
  clique-tree calibration, or cache-backed DPLL — and reports the route it
  took, so callers read routing as data.
* :func:`drive_components` is the one driver: grouping, the serial loop,
  the cost-balanced fan-out over the fault-tolerant
  :func:`repro.resilience.pool.run_chunks`, result validation, id mapping,
  cache merge-back, worker-span grafting and per-component records. The
  exact path (:class:`ExactSolve`, :func:`parallel_marginals`) and the
  ladder (:class:`~repro.resilience.execute.LadderSolve`) differ only in
  the per-component solve they pass it.

Exactness is unaffected throughout: every path computes the same marginals
as :func:`repro.core.inference.compute_marginal` on the full network
(``tests/perf/test_parallel.py`` cross-checks against the serial oracle and
brute force).
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from typing import Callable

from repro.core.inference import (
    VE_WIDTH_LIMIT,
    _dpll_marginal,
    compute_marginal,
    eliminate,
    network_factors,
    network_scopes,
    reduce_evidence,
)
from repro.core.junction import _elimination_cliques, calibrate_clique_tree
from repro.core.network import EPSILON, AndOrNetwork, ComponentSlice
from repro.core.treeprop import is_tree_factorable, tree_marginals_array
from repro.errors import CapacityError, ReproError
from repro.obs.trace import Tracer, current_tracer
from repro.obs.trace import span as _span
from repro.perf.cache import SubformulaCache
from repro.resilience.faults import apply_fault
from repro.resilience.pool import run_chunks

__all__ = [
    "ComponentWork",
    "estimate_component",
    "group_by_component",
    "SliceResult",
    "solve_slice",
    "ComponentSolve",
    "ExactSolve",
    "drive_components",
    "parallel_marginals",
    "DEFAULT_MIN_PARALLEL_COST",
    "CHUNKS_PER_WORKER",
]

#: Estimated total cost (factor-table entries touched) below which
#: :func:`parallel_marginals` stays serial: pool startup plus pickling costs
#: on the order of tens of milliseconds, so fanning out cheaper workloads
#: than this loses wall-clock.
DEFAULT_MIN_PARALLEL_COST = 250_000

#: Cost-balanced chunks per pool worker: enough to even out skewed
#: component costs, few enough that per-chunk pickling stays small.
CHUNKS_PER_WORKER = 4

#: The engines :func:`solve_slice` accepts.
SLICE_ENGINES = ("auto", "ve", "dpll")

#: Cost charged per factor when a component blows the width budget and will
#: go to the DPLL engine (whose true cost is structure-, not width-, bound):
#: the table size of a width-budget clique.
_WIDE_FACTOR_COST = 2 ** (VE_WIDTH_LIMIT + 2)


@dataclass
class ComponentWork:
    """One component's share of a marginals request."""

    slice: ComponentSlice
    #: Requested nodes, in slice-local ids.
    targets: list[int]
    #: Estimated solve cost in factor-table entries (scheduling only).
    cost: float
    #: Width-probe verdict, forwarded to :func:`solve_slice` so the probe
    #: runs once per component, not once per grouping *and* once per solve.
    narrow: bool = True


def estimate_component(net: AndOrNetwork, limit: int = VE_WIDTH_LIMIT):
    """Early-exit width probe: is the network's elimination width ≤ *limit*?

    Runs a min-degree greedy elimination over the ternary-decomposed factor
    graph, abandoning the pass the moment every remaining variable's degree
    exceeds *limit* — on wide components this exits within a few
    eliminations instead of paying the full quadratic pass that dominated
    the serial per-answer profile. Returns ``(narrow, cost)`` where *cost*
    estimates the solve in factor-table entries: the sum of elimination
    clique sizes ``2^(degree+1)`` when narrow, a per-factor DPLL proxy when
    wide.
    """
    scopes = network_scopes(net)
    adj: dict[int, set[int]] = {}
    for scope in scopes:
        for v in scope:
            adj.setdefault(v, set()).update(scope)
    for v, nbrs in adj.items():
        nbrs.discard(v)
    heap = [(len(nbrs), v) for v, nbrs in adj.items()]
    heapq.heapify(heap)
    cost = 0.0
    while heap:
        degree, v = heapq.heappop(heap)
        nbrs = adj.get(v)
        if nbrs is None:
            continue  # already eliminated
        if len(nbrs) != degree:
            heapq.heappush(heap, (len(nbrs), v))  # stale entry; re-rank
            continue
        if degree > limit:
            # the *minimum* degree exceeds the budget: this greedy order
            # (our width estimator, as in ``induced_width``) is over budget
            return False, len(scopes) * _WIDE_FACTOR_COST
        cost += float(2 ** (degree + 1))
        # Eliminating v makes its neighbours a clique: each one gains all
        # the others (set unions run in C) and loses v.
        for w in nbrs:
            wn = adj[w]
            wn |= nbrs
            wn.discard(w)
            wn.discard(v)
            heapq.heappush(heap, (len(wn), w))
        del adj[v]
    return True, cost


def group_by_component(
    net: AndOrNetwork, nodes, limit: int = VE_WIDTH_LIMIT
) -> list[ComponentWork]:
    """Group requested node ids by connected component, one slice each.

    ε is skipped (its marginal is 1 by definition); every other node lands
    in exactly one :class:`ComponentWork` with the component extracted once
    and the node translated to its slice-local id.
    """
    components = net.components()
    by_label: dict[int, list[int]] = {}
    for v in dict.fromkeys(nodes):
        if v == EPSILON:
            continue
        by_label.setdefault(components.of(v), []).append(v)
    works: list[ComponentWork] = []
    for targets in by_label.values():
        part = net.extract_component(targets[0])
        narrow, cost = estimate_component(part.network, limit)
        works.append(
            ComponentWork(
                part, [part.to_sub(v) for v in targets], cost, narrow
            )
        )
    return works


class SliceResult(dict):
    """A component's results by slice-local id, plus the ``path``
    (``"tree"``, ``"ve"``, ``"junction"``, ``"dpll"``) :func:`solve_slice`
    took — ``""`` when none ran (a skipped ladder exact rung)."""

    path: str = ""


def solve_slice(
    subnet: AndOrNetwork,
    targets,
    engine: str = "auto",
    dpll_max_calls: int = 5_000_000,
    cache: SubformulaCache | None = None,
    narrow: bool | None = None,
    budget=None,
) -> SliceResult:
    """Marginals of *targets* (slice-local ids) within one component.

    *engine* mirrors :func:`repro.core.inference.compute_marginal`:
    ``"auto"`` picks batched tree propagation for tree-factorable
    components, variable elimination when the width probe stays within
    :data:`~repro.core.inference.VE_WIDTH_LIMIT` (one shared clique-tree
    calibration — ``junction`` — when the component carries several
    targets, a single evidence-reduced elimination — ``ve`` — when it
    carries one), and the cache-backed DPLL beyond (falling back to
    variable elimination if DNF compilation blows up); ``"ve"`` forces the
    elimination paths, ``"dpll"`` the DPLL path. *narrow* optionally
    forwards an already-computed :func:`estimate_component` verdict so the
    probe is not repeated. *budget* is an optional
    :class:`~repro.resilience.QueryBudget` threaded into every backend's
    cooperative checkpoints (its ``max_width`` also overrides the
    width-probe limit when the probe runs here).

    This is the only place the route is decided. The result's ``path``
    (also the span's) is the route that produced the answers — ``"ve"``
    when every DPLL target fell back to elimination; an escaping
    :class:`~repro.errors.ReproError` carries it as ``slice_path``.
    """
    if engine not in SLICE_ENGINES:
        raise ValueError(f"unknown inference engine {engine!r}")
    targets = list(targets)
    if budget is not None:
        budget.checkpoint("solve_slice")
    with _span(
        "solve_slice", nodes=len(subnet), targets=len(targets)
    ) as sp:
        real = [t for t in targets if t != EPSILON]
        if engine == "auto" and is_tree_factorable(subnet):
            path = "tree"
        elif engine == "dpll":
            path = "dpll"
        else:
            if engine == "auto" and narrow is None:
                limit = (
                    VE_WIDTH_LIMIT
                    if budget is None
                    else budget.width_limit(VE_WIDTH_LIMIT)
                )
                narrow, _ = estimate_component(subnet, limit)
            if engine == "ve" or narrow:
                # one answer per component is the common sliced shape: a
                # single evidence-reduced elimination beats calibrating a
                # whole clique tree (two full message passes) for one read
                path = "ve" if len(real) == 1 else "junction"
            else:
                path = "dpll"
        sp.annotate(path=path)
        out = SliceResult.fromkeys(targets, 1.0)
        out.path = path
        try:
            if path == "tree":
                arr = tree_marginals_array(subnet, check=False, budget=budget)
                for t in targets:
                    out[t] = float(arr[t])
            elif path == "ve":
                reduced = [
                    reduce_evidence(f, {real[0]: 1})
                    for f in network_factors(subnet)
                ]
                out[real[0]] = float(eliminate(reduced, budget=budget).table)
            elif path == "junction":
                factors = network_factors(subnet)
                tree = calibrate_clique_tree(
                    factors, _elimination_cliques(factors), budget=budget
                )
                for t in real:
                    out[t] = tree.marginal(t)
            else:
                fallbacks = 0
                for t in real:
                    try:
                        out[t] = _dpll_marginal(
                            subnet, t, dpll_max_calls, cache, budget
                        )
                    except CapacityError:
                        # DNF blow-up: retry with plain variable elimination,
                        # exactly the serial path's fallback.
                        fallbacks += 1
                        out[t] = compute_marginal(
                            subnet, t, "ve", dpll_max_calls, budget=budget
                        )
                if fallbacks:
                    sp.add("ve_fallbacks", fallbacks)
                    if fallbacks == len(real):
                        out.path = "ve"
                        sp.annotate(path="ve")
        except ReproError as exc:
            exc.slice_path = path
            raise
    return out


class ComponentSolve:
    """A picklable per-component solve for :func:`drive_components`.

    ``__call__(work, index, cache, budget, registry)`` returns ``(values,
    info)``: values by slice-local id, and a dict merged into the
    component's record that names the route as ``engine``.
    """

    #: The value ε (the constant-true node) maps to in the driver's result.
    epsilon = 1.0

    def prepare(self, works: list[ComponentWork]) -> "ComponentSolve":
        """The solve bound to this request's grouping (default: itself)."""
        return self

    def sound(self, value) -> bool:
        """Whether a worker-delivered value may merge (else: retry)."""
        return math.isfinite(value)

    def poison(self, value):
        """The corrupted form of *value* (the chaos suite's NaN fault)."""
        return math.nan


@dataclass(frozen=True)
class ExactSolve(ComponentSolve):
    """The exact per-component solve: :func:`solve_slice` with *engine*."""

    engine: str = "auto"
    dpll_max_calls: int = 5_000_000

    def __post_init__(self) -> None:
        if self.engine not in SLICE_ENGINES:
            raise ValueError(f"unknown inference engine {self.engine!r}")

    def __call__(self, work, index, cache, budget, registry):
        solved = solve_slice(
            work.slice.network,
            work.targets,
            self.engine,
            self.dpll_max_calls,
            cache,
            narrow=work.narrow,
            budget=budget,
        )
        return solved, {"engine": solved.path}


def _chunk_by_cost(
    works: list[ComponentWork], chunks: int
) -> list[list[int]]:
    """LPT bin packing: indices of *works* split into ≤ *chunks* bins."""
    bins: list[tuple[float, list[int]]] = [(0.0, []) for _ in range(chunks)]
    heap = [(0.0, i) for i in range(chunks)]
    heapq.heapify(heap)
    order = sorted(
        range(len(works)), key=lambda i: works[i].cost, reverse=True
    )
    for i in order:
        load, b = heapq.heappop(heap)
        bins[b][1].append(i)
        heapq.heappush(heap, (load + works[i].cost, b))
    return [members for _, members in bins if members]


def _solve_tasks(solve, tasks, cache, budget, registry, slice_span=None):
    """Solve ``(index, work)`` tasks in order: ``[(values, record), ...]``."""
    solved = []
    for index, work in tasks:
        t0 = time.perf_counter()
        if slice_span is None:
            values, info = solve(work, index, cache, budget, registry)
        else:
            with _span(slice_span, targets=len(work.targets)) as s:
                values, info = solve(work, index, cache, budget, registry)
                s.annotate(engine=info["engine"])
        solved.append((values, {
            "size": len(work.slice.network) - 1,  # slice minus ε
            "targets": len(work.targets),
            "estimated_cost": work.cost,
            **info,
            "seconds": time.perf_counter() - t0,
        }))
    return solved


def _solve_chunk(payload):
    """Worker entry point: solve one chunk of ``(index, work)`` tasks.

    Returns the ``(values, record)`` pairs, the worker's subformula-cache
    entries (canonical keys are rename-invariant, so they merge back
    across the id-remaps), and — when the caller traced — the worker's
    span forest. The chunk's injected fault, if any, fires first.
    """
    solve, tasks, traced, budget, chunk, attempt, fault_plan = payload
    fault = None if fault_plan is None else fault_plan.for_chunk(chunk, attempt)
    poison = apply_fault(fault)
    if budget is not None:
        budget = budget.start()
    cache = SubformulaCache()
    if traced:
        with Tracer() as tracer:
            with tracer.span("worker_chunk", tasks=len(tasks)):
                solved = _solve_tasks(solve, tasks, cache, budget, None)
        spans = tracer.roots
    else:
        solved = _solve_tasks(solve, tasks, cache, budget, None)
        spans = []
    if poison:
        solved = [
            ({t: solve.poison(v) for t, v in values.items()}, record)
            for values, record in solved
        ]
    return solved, cache.entries(), spans


def drive_components(
    name: str,
    group: Callable[[], list[ComponentWork]],
    solve: ComponentSolve,
    *,
    workers: int | None = None,
    cache: SubformulaCache | None = None,
    budget=None,
    registry=None,
    min_parallel_cost: float = 0.0,
    timeout: float | None = None,
    max_retries: int = 2,
    fault_plan=None,
    slice_span: str | None = None,
    **attrs,
) -> tuple[dict[int, object], list[dict]]:
    """Run *solve* on every component *group* returns; the one driver.

    Under the span *name* (with *attrs*) it groups (in a
    ``group_components`` child span), binds *solve* to the grouping, and
    solves every component in process — or, given ``workers >= 2``, two or
    more components and a total estimated cost of at least
    *min_parallel_cost*, in ``workers * CHUNKS_PER_WORKER`` cost-balanced
    chunks on :func:`~repro.resilience.pool.run_chunks`: a worker crash, a
    chunk past *timeout* or a result *solve* deems unsound retries up to
    *max_retries* pool rounds, then requeues in process, so a dead worker
    costs throughput, never correctness. *fault_plan* injects failures
    (chaos suite); *budget* reaches the workers as a remaining-deadline
    copy; worker cache entries merge back into *cache*.

    Returns ``(values, records)``: every requested node (and ε) mapped to
    its value, and per component, in grouping order, ``size``,
    ``targets``, ``estimated_cost``, the solve's info (``engine``: the
    route taken) and ``seconds``. With *slice_span* each in-process solve
    runs under a span of that name, annotated with its route. *registry*
    records ``pool.components``/``pool.total_cost``, one
    ``pool.serial_fallback.<reason>`` (``no_workers``,
    ``single_component``, ``below_cost_threshold``) per serial run, and the
    pool's worker/chunk counts, ``pool.chunk_tasks``/``pool.chunk_cost``
    histograms and retry accounting. Under an active tracer the workers
    trace too, and their spans are grafted under the driver span.
    """
    if budget is not None:
        budget = budget.start()
    if cache is None:
        cache = SubformulaCache()
    with _span(name, **attrs) as sp:
        with _span("group_components"):
            works = group()
        total_cost = sum(w.cost for w in works)
        sp.annotate(components=len(works), total_cost=total_cost)
        if registry is not None:
            registry.gauge("pool.components", len(works))
            registry.gauge("pool.total_cost", total_cost)
        solve = solve.prepare(works)
        if workers is None or workers < 2:
            fallback_reason = "no_workers"
        elif len(works) < 2:
            fallback_reason = "single_component"
        elif total_cost < min_parallel_cost:
            fallback_reason = "below_cost_threshold"
        else:
            fallback_reason = None
        tracer = current_tracer()
        if fallback_reason is not None:
            sp.annotate(mode="serial", fallback_reason=fallback_reason)
            if registry is not None:
                registry.inc(f"pool.serial_fallback.{fallback_reason}")
            chunks = [list(range(len(works)))]
            results = [(
                _solve_tasks(
                    solve, list(enumerate(works)), cache, budget, registry,
                    slice_span,
                ),
                [],
                [],
            )]
        else:
            chunks = _chunk_by_cost(works, workers * CHUNKS_PER_WORKER)
            sp.annotate(mode="parallel", workers=workers, chunks=len(chunks))
            if registry is not None:
                registry.gauge("pool.workers", workers)
                registry.inc("pool.dispatches")
                registry.inc("pool.chunks", len(chunks))
                for members in chunks:
                    registry.observe("pool.chunk_tasks", len(members))
                    registry.observe(
                        "pool.chunk_cost", sum(works[i].cost for i in members)
                    )

            def tasks(index):
                return [(i, works[i]) for i in chunks[index]]

            def payload_fn(index, attempt):
                return (
                    solve,
                    tasks(index),
                    tracer is not None,
                    None if budget is None else budget.for_worker(),
                    index,
                    attempt,
                    fault_plan,
                )

            def serial_fn(index):
                return (
                    _solve_tasks(
                        solve, tasks(index), cache, budget, registry,
                        slice_span,
                    ),
                    [],
                    [],
                )

            def validate(result):
                for values, _record in result[0]:
                    if not all(solve.sound(v) for v in values.values()):
                        return "poisoned_result"
                return None

            results = [
                outcome.result
                for outcome in run_chunks(
                    _solve_chunk,
                    payload_fn,
                    len(chunks),
                    workers=workers,
                    serial_fn=serial_fn,
                    timeout=timeout,
                    max_retries=max_retries,
                    validate=validate,
                    registry=registry,
                )
            ]
        out = {EPSILON: solve.epsilon}
        records: list[dict] = [{} for _ in works]
        for members, (solved, entries, worker_spans) in zip(chunks, results):
            for i, (values, record) in zip(members, solved):
                to_orig = works[i].slice.to_orig
                for sub, value in values.items():
                    out[to_orig(sub)] = value
                records[i] = record
            if entries:
                cache.merge(entries)
            if worker_spans and tracer is not None:
                tracer.attach(worker_spans, under=sp.span)
    return out, records


def parallel_marginals(
    net: AndOrNetwork,
    nodes,
    *,
    workers: int | None = None,
    engine: str = "auto",
    dpll_max_calls: int = 5_000_000,
    cache: SubformulaCache | None = None,
    min_parallel_cost: float = DEFAULT_MIN_PARALLEL_COST,
    registry=None,
    budget=None,
    timeout: float | None = None,
    max_retries: int = 2,
    fault_plan=None,
) -> dict[int, float]:
    """Exact marginals of *nodes*, one solve per connected component.

    :func:`drive_components` with :class:`ExactSolve` under a
    ``parallel_marginals`` span; with ``workers`` unset it is the serial,
    in-process path. Small workloads (under *min_parallel_cost*) never pay
    pool startup. An :class:`~repro.errors.InferenceError` raised in a
    worker (e.g. the DPLL call budget) is retried, requeued, and finally
    re-raised by the serial path — matching the serial oracle exactly.
    """
    marginals, _records = drive_components(
        "parallel_marginals",
        lambda: group_by_component(net, nodes),
        ExactSolve(engine, dpll_max_calls),
        workers=workers,
        cache=cache,
        budget=budget,
        registry=registry,
        min_parallel_cost=min_parallel_cost,
        timeout=timeout,
        max_retries=max_retries,
        fault_plan=fault_plan,
        engine=engine,
    )
    return marginals
