"""Fault-tolerant process-pool dispatch.

:func:`run_chunks` is the retry/timeout engine under the one component
driver, :func:`repro.perf.parallel.drive_components` — the exact path and
the degradation ladder alike: it fans chunk payloads out over a
``ProcessPoolExecutor`` and survives the failure modes a plain
``future.result()`` loop does not —

* **worker crashes** (``BrokenProcessPool``): every future of the broken
  pool fails, but completed chunks keep their results; the survivors are
  re-dispatched in a *fresh* pool (a broken executor is unusable);
* **stuck workers**: a per-dispatch timeout bounds each round; unfinished
  chunks are treated as failed and the hung pool is abandoned
  (``shutdown(wait=False, cancel_futures=True)``);
* **in-worker errors**: any :class:`~repro.errors.ReproError` raised by a
  chunk is retryable — transient (an injected fault, a poisoned cache)
  errors heal on retry, genuine ones re-raise identically from the serial
  fallback, so nothing is swallowed;
* **poisoned results**: an optional *validate* hook inspects each result at
  merge-back (e.g. NaN detection) and turns silent corruption into a retry.

After ``max_retries`` pool rounds, surviving chunks are *requeued to
serial*: solved in-process by the caller's ``serial_fn``, where no fault
injection applies and a genuine error finally propagates. Every retry,
timeout, and requeue emits :mod:`repro.obs` metrics and span events.

Fault injection itself happens in the worker (see
:mod:`repro.resilience.faults`); this module only ships the plan inside
each payload via the caller's ``payload_fn(index, attempt)``.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ReproError
from repro.obs import telemetry
from repro.obs.trace import span as _span

__all__ = ["ChunkOutcome", "run_chunks"]


@dataclass
class ChunkOutcome:
    """How one chunk eventually got solved."""

    result: Any = None
    #: Pool dispatch attempts consumed (0 = solved serially without a pool).
    attempts: int = 0
    #: True when the chunk fell back to the in-process serial path.
    requeued_serial: bool = False
    #: Failure history, one ``"attempt<N>:<reason>"`` entry per failed try.
    events: list[str] = field(default_factory=list)


def run_chunks(
    worker_fn: Callable,
    payload_fn: Callable[[int, int], Any],
    count: int,
    *,
    workers: int,
    serial_fn: Callable[[int], Any],
    timeout: float | None = None,
    max_retries: int = 2,
    validate: Callable[[Any], str | None] | None = None,
    registry=None,
) -> list[ChunkOutcome]:
    """Solve *count* chunks on a fault-tolerant pool of *workers* processes.

    ``worker_fn`` must be a picklable module-level callable;
    ``payload_fn(index, attempt)`` builds its argument per dispatch (the
    attempt number lets deterministic fault plans fire on chosen retries).
    ``serial_fn(index)`` is the in-process fallback of last resort — its
    exceptions propagate to the caller. ``validate(result)`` may return a
    failure reason to reject a structurally delivered but corrupt result.

    *timeout* bounds each dispatch round (all of a round's chunks run
    concurrently, so the bound is per-chunk up to queueing); ``None``
    disables it. *max_retries* is the number of pool rounds before a chunk
    is requeued to serial.
    """
    outcomes = [ChunkOutcome() for _ in range(count)]
    pending = list(range(count))
    for attempt in range(max(0, max_retries)):
        if not pending or workers < 1:
            break
        with _span(
            "pool_dispatch", attempt=attempt, chunks=len(pending)
        ) as sp:
            failures = _dispatch_round(
                worker_fn, payload_fn, pending, outcomes,
                workers=workers, attempt=attempt, timeout=timeout,
                validate=validate, registry=registry,
            )
            sp.add("failures", len(failures))
            for index, reason in failures:
                outcomes[index].events.append(f"attempt{attempt}:{reason}")
                if registry is not None:
                    registry.inc(f"pool.chunk_failure.{reason}")
            if failures and registry is not None:
                registry.inc("pool.chunk_retries", len(failures))
        pending = [index for index, _ in failures]
    for index in pending:
        with _span("chunk_serial_requeue", chunk=index):
            if registry is not None:
                registry.inc("pool.requeued_serial")
            outcomes[index].result = serial_fn(index)
            outcomes[index].requeued_serial = True
    for index, outcome in enumerate(outcomes):
        telemetry.record(
            "pool_chunk", chunk=index, attempts=outcome.attempts,
            requeued_serial=outcome.requeued_serial,
            events=list(outcome.events), workers=workers,
        )
    return outcomes


def _dispatch_round(
    worker_fn, payload_fn, pending, outcomes, *,
    workers, attempt, timeout, validate, registry,
) -> list[tuple[int, str]]:
    """One pool round over *pending*; returns ``(index, reason)`` failures."""
    failures: list[tuple[int, str]] = []
    pool = ProcessPoolExecutor(max_workers=workers)
    clean = True
    try:
        futures = {}
        for index in pending:
            outcomes[index].attempts += 1
            try:
                future = pool.submit(worker_fn, payload_fn(index, attempt))
            except BrokenProcessPool:
                # An earlier chunk of this round already killed the pool.
                clean = False
                failures.append((index, "worker_crash"))
                if registry is not None:
                    registry.inc("pool.worker_crashes")
                continue
            futures[future] = index
        deadline = None if timeout is None else time.monotonic() + timeout
        not_done = set(futures)
        while not_done:
            remaining = (
                None if deadline is None else deadline - time.monotonic()
            )
            if remaining is not None and remaining <= 0:
                break
            done, not_done = wait(
                not_done, timeout=remaining, return_when=FIRST_COMPLETED
            )
            if not done:
                break  # timed out with nothing new finished
            for future in done:
                index = futures[future]
                try:
                    result = future.result()
                except BrokenProcessPool:
                    clean = False
                    failures.append((index, "worker_crash"))
                    if registry is not None:
                        registry.inc("pool.worker_crashes")
                    continue
                except ReproError as exc:
                    failures.append((index, type(exc).__name__))
                    continue
                reason = None if validate is None else validate(result)
                if reason is not None:
                    failures.append((index, reason))
                else:
                    outcomes[index].result = result
        for future in not_done:  # still running past the deadline
            clean = False
            failures.append((futures[future], "timeout"))
            if registry is not None:
                registry.inc("pool.timeouts")
    finally:
        # A broken or hung pool must not be joined: abandon it and let the
        # interpreter reap the processes. A clean pool shuts down normally.
        pool.shutdown(wait=clean, cancel_futures=True)
    return failures
