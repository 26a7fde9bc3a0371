"""Resilient final inference: the ladder as the component driver's solve.

:func:`resilient_marginals` is :func:`repro.perf.parallel.parallel_marginals`
with one difference: every component solves through the
:mod:`~repro.resilience.ladder` (:class:`LadderSolve`), so hard components
return sound intervals instead of raising. Grouping, the serial loop, the
fault-tolerant fan-out (worker crashes, stuck workers and poisoned results
retry and finally requeue to the serial path), id mapping and cache
merge-back are the one driver's,
:func:`~repro.perf.parallel.drive_components`. One hard component never
blanks the other answers; one dead worker never blanks its chunk. Unlike
the exact path there is no cost threshold: the caller asked for resilience
explicitly, and tiny workloads are exactly the ones whose pool startup cost
does not matter.

Determinism: each component's sampling rung seeds its own
``random.Random`` from ``(seed, original first target id)``, so the pool
and serial paths — and any retry — produce identical results.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from repro.core.network import AndOrNetwork
from repro.perf.cache import SubformulaCache
from repro.perf.parallel import ComponentSolve, drive_components, group_by_component
from repro.resilience.budget import QueryBudget
from repro.resilience.faults import FaultPlan
from repro.resilience.ladder import MarginalOutcome, resilient_component_marginals

__all__ = ["LadderSolve", "exact_fractions", "resilient_marginals"]


def _component_rng(seed: int, rng_key: int) -> random.Random:
    return random.Random(f"{seed}/{rng_key}")


def exact_fractions(works) -> list[float]:
    """Per-component deadline slices for the ladder's exact rung.

    A uniform ``sub(0.5)`` gives the query's one expensive component the
    same slice as its trivial siblings — it starves while they waste.
    Instead each component's slice shrinks with its share of the total
    estimated cost: cheap components (tiny share) keep up to 90% of the
    remaining deadline, the dominant component leaves most of the deadline
    to its own fallback rungs. Deterministic, and 0.5 whenever there is
    nothing to compare against (single component, zero estimates).
    """
    total = sum(w.cost for w in works)
    if len(works) <= 1 or total <= 0.0:
        return [0.5] * len(works)
    fractions = []
    for w in works:
        share = w.cost / total
        fractions.append(min(0.9, max(0.1, 0.9 * (1.0 - share))))
    return fractions


@dataclass(frozen=True)
class LadderSolve(ComponentSolve):
    """The ladder as a per-component solve for the component driver.

    Runs :func:`~repro.resilience.ladder.resilient_component_marginals`
    with the component's own sampling seed (from *seed*) and its
    :func:`exact_fractions` deadline slice (bound by :meth:`prepare`).
    Values are :class:`~repro.resilience.ladder.MarginalOutcome`
    enclosures; the record names the route the exact rung took plus the
    winning ``rung`` and the ``degraded`` target count.
    """

    seed: int = 0
    #: Exact-rung deadline slice per component, in grouping order.
    fractions: tuple[float, ...] = ()

    @property
    def epsilon(self) -> MarginalOutcome:
        return MarginalOutcome(1.0, 1.0, "exact", True)

    def prepare(self, works) -> "LadderSolve":
        return replace(self, fractions=tuple(exact_fractions(works)))

    def __call__(self, work, index, cache, budget, registry):
        outcomes = resilient_component_marginals(
            work.slice.network,
            work.targets,
            budget=budget,
            cache=cache,
            rng=_component_rng(self.seed, work.slice.to_orig(work.targets[0])),
            registry=registry,
            narrow=work.narrow,
            exact_fraction=self.fractions[index],
            est_cost=work.cost,
        )
        degraded = [o.method for o in outcomes.values() if o.degraded]
        return outcomes, {
            "engine": outcomes.path,
            "rung": degraded[0] if degraded else "exact",
            "degraded": len(degraded),
        }

    def sound(self, outcome) -> bool:
        """Finite, ordered enclosures only (NaN poisoning must retry)."""
        return (
            math.isfinite(outcome.lower)
            and math.isfinite(outcome.upper)
            and outcome.lower <= outcome.upper
        )

    def poison(self, outcome) -> MarginalOutcome:
        return replace(outcome, lower=math.nan, upper=math.nan)


def resilient_marginals(
    net: AndOrNetwork,
    nodes,
    *,
    budget: QueryBudget | None = None,
    workers: int | None = None,
    cache: SubformulaCache | None = None,
    timeout: float | None = None,
    max_retries: int = 2,
    fault_plan: FaultPlan | None = None,
    registry=None,
    seed: int = 0,
) -> dict[int, MarginalOutcome]:
    """Sound marginal enclosures of *nodes*, degradation- and fault-tolerant.

    :func:`~repro.perf.parallel.drive_components` with :class:`LadderSolve`
    under a ``resilient_marginals`` span. Serial (``workers`` unset or
    < 2, or a single component): every component ladder-solves in-process.
    Parallel: components are packed into cost-balanced chunks and
    dispatched through :func:`~repro.resilience.pool.run_chunks` with
    per-dispatch *timeout*, *max_retries* pool rounds, and serial requeue —
    so the call returns an outcome for **every** node no matter which
    workers die. *fault_plan* deterministically injects failures (chaos
    tests).
    """
    outcomes, _records = drive_components(
        "resilient_marginals",
        lambda: group_by_component(net, nodes),
        LadderSolve(seed),
        workers=workers,
        cache=cache,
        budget=budget,
        registry=registry,
        timeout=timeout,
        max_retries=max_retries,
        fault_plan=fault_plan,
    )
    return outcomes
