"""Cross-process span merging: traced parallel runs yield ONE timeline.

Satellite of the observability PR: a ``workers=2`` traced
``parallel_marginals`` call must produce a single trace in the caller's
tracer — worker spans shipped back through the task results and grafted
under the dispatch span, no orphan forests, and a Chrome export that
passes the schema validator. The serial fallback must record why it
stayed serial.
"""

import os
import random

from repro.core.network import EPSILON
from repro.obs.export import chrome_events, validate_chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.perf.parallel import parallel_marginals

from tests.perf.test_parallel import (
    assert_matches_oracle,
    multi_component_network,
)


def traced_run(workers, *, components=8, seed=33, **kwargs):
    rng = random.Random(seed)
    net, roots = multi_component_network(rng, components)
    targets = roots + [EPSILON]
    with Tracer() as tracer:
        marginals = parallel_marginals(
            net, targets, workers=workers, min_parallel_cost=0.0, **kwargs
        )
    assert_matches_oracle(net, targets, marginals)
    return tracer


class TestParallelTraceMerging:
    def test_workers2_produces_one_merged_trace(self):
        tracer = traced_run(workers=2)
        # one root: the dispatch span — worker spans were merged, not lost
        assert [r.name for r in tracer.roots] == ["parallel_marginals"]
        dispatch = tracer.roots[0]
        assert dispatch.attrs["mode"] == "parallel"
        assert dispatch.attrs["workers"] == 2
        chunks = dispatch.attrs["chunks"]

        worker_spans = dispatch.find("worker_chunk")
        assert len(worker_spans) == chunks
        # every worker span is a direct child of the dispatch span (nested,
        # not orphaned at the root), and came from a different process
        assert all(s in dispatch.children for s in worker_spans)
        worker_pids = {s.pid for s in worker_spans}
        assert os.getpid() not in worker_pids
        assert all(pid > 0 for pid in worker_pids)
        # the per-slice solves happened inside the workers
        for s in worker_spans:
            assert s.find("solve_slice")

    def test_merged_trace_exports_valid_chrome_json(self):
        tracer = traced_run(workers=2)
        events = chrome_events(tracer.roots)
        assert validate_chrome_trace(events) == []
        pids = {e["pid"] for e in events}
        assert len(pids) >= 2  # caller lane + at least one worker lane

    def test_serial_fallback_records_reason(self):
        registry = MetricsRegistry()
        tracer = traced_run(workers=1, registry=registry)
        dispatch = tracer.roots[0]
        assert dispatch.attrs["mode"] == "serial"
        assert dispatch.attrs["fallback_reason"] == "no_workers"
        assert registry.counter("pool.serial_fallback.no_workers") == 1
        assert not dispatch.find("worker_chunk")

    def test_single_component_fallback_reason(self):
        registry = MetricsRegistry()
        tracer = traced_run(workers=2, components=1, registry=registry)
        assert tracer.roots[0].attrs["fallback_reason"] == "single_component"
        assert registry.counter("pool.serial_fallback.single_component") == 1

    def test_cost_threshold_fallback_reason(self):
        rng = random.Random(34)
        net, roots = multi_component_network(rng, 4)
        targets = roots + [EPSILON]
        with Tracer() as tracer:
            parallel_marginals(
                net, targets, workers=2, min_parallel_cost=1e12
            )
        reason = tracer.roots[0].attrs["fallback_reason"]
        assert reason == "below_cost_threshold"

    def test_pool_metrics_recorded_on_parallel_path(self):
        registry = MetricsRegistry()
        traced_run(workers=2, registry=registry)
        snap = registry.snapshot()
        assert snap["gauges"]["pool.workers"] == 2
        assert snap["counters"]["pool.dispatches"] == 1
        assert snap["counters"]["pool.chunks"] >= 2
        assert snap["histograms"]["pool.chunk_tasks"]["count"] >= 2

    def test_untraced_parallel_run_ships_no_spans(self):
        rng = random.Random(35)
        net, roots = multi_component_network(rng, 8)
        targets = roots + [EPSILON]
        marginals = parallel_marginals(
            net, targets, workers=2, min_parallel_cost=0.0
        )
        assert_matches_oracle(net, targets, marginals)


def test_grouping_runs_under_a_named_span_below_answer_probabilities():
    """Grouping and the width probe are attributed, not parent self-time."""
    from tests.obs.test_telemetry import _shared_t_result

    result = _shared_t_result()
    with Tracer() as tracer:
        result.answer_probabilities()
    (root,) = tracer.roots
    assert root.name == "answer_probabilities"
    (driver,) = root.find("parallel_marginals")
    assert driver in root.children
    (group,) = driver.find("group_components")
    assert group in driver.children
    assert root.find("tree_check")
