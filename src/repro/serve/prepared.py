"""Prepared statements: parse once, keep every warm cache, serve many.

A :class:`PreparedQuery` is the unit the daemon amortises work over. At
prepare time it parses the query text, (optionally) costs join orders, and
fixes the left-deep plan; at request time it evaluates that plan against a
database *snapshot* and reuses, across every request:

* the parsed plan (no re-parsing, no re-optimising);
* a rename-invariant :class:`~repro.perf.SubformulaCache` for final
  inference (structurally repeated per-answer DNFs across requests hit);
* a :class:`~repro.circuit.CircuitCache` for what-if re-scoring over the
  prepared plan's results.

Base-relation encodings are not per statement: every statement of a
:class:`~repro.serve.Server` scans through the server's one
:class:`~repro.core.columnar.BaseEncoding`, whose entries are valid only for
the relation objects they encoded. A commit installs new objects for the
relations it touched, so exactly those re-encode on their next scan, once
for all statements; a rolled-back transaction costs nothing.

Only the operator-pipeline phase is serialised (one lock per prepared
query: the evaluator is pointed at each request's snapshot); the expensive
final-inference phase runs outside the lock, so concurrent requests overlap
where it matters. A statement subscribes no database hook of its own: the
server's single mutation hook flushes the circuit caches of its registered
statements.
"""

from __future__ import annotations

import threading
import time

from repro.core.columnar import BaseEncoding
from repro.core.executor import EvaluationResult, PartialLineageEvaluator
from repro.core.optimizer import choose_join_order
from repro.core.plan import left_deep_plan
from repro.circuit import CircuitCache
from repro.perf import SubformulaCache
from repro.query.parser import parse_query

__all__ = ["PreparedQuery"]


class PreparedQuery:
    """One registered query with warm per-statement state.

    Parameters
    ----------
    name:
        The handle clients reference in ``query`` requests.
    text:
        Conjunctive-query text (``q(h) :- R(h,x), S(h,x,y)``).
    db:
        The server's root database (used to cost join orders; requests run
        against snapshots of it).
    join_order:
        Explicit join order, or ``None``.
    optimize:
        When true (and no explicit order given), cost join orders once at
        prepare time with :func:`~repro.core.optimizer.choose_join_order`.
    encoding:
        The :class:`~repro.core.columnar.BaseEncoding` to scan through —
        the server's shared one; by default the statement owns one.
    """

    def __init__(
        self,
        name: str,
        text: str,
        db,
        *,
        join_order: list[str] | None = None,
        optimize: bool = False,
        encoding: BaseEncoding | None = None,
    ) -> None:
        self.name = name
        self.text = text
        self.query = parse_query(text)
        if join_order is None and optimize:
            join_order = list(choose_join_order(self.query, db).order)
        self.join_order = list(join_order) if join_order else None
        self.plan = left_deep_plan(self.query, self.join_order)
        #: Shared final-inference cache; thread-safe, survives across requests.
        self.infer_cache = SubformulaCache()
        #: Compiled-circuit cache for what-if analyses over this statement;
        #: the owning server's mutation hook flushes it.
        self.circuit_cache = CircuitCache()
        self._evaluator = PartialLineageEvaluator(db, encoding=encoding)
        # Set after construction: the constructor would subscribe the cache
        # to the database's hooks, one subscription per statement.
        self._evaluator.circuit_cache = self.circuit_cache
        self._lock = threading.Lock()
        self.prepared_at = time.time()
        self.requests = 0

    def evaluate(self, snapshot, version: int, budget=None) -> EvaluationResult:
        """Run the operator pipeline against *snapshot* (at db *version*).

        Serialised per prepared query; the returned result's final
        inference (``answer_probabilities`` etc.) is thread-safe and runs
        outside the lock. *version* identifies the snapshot to callers and
        tracing only: nothing is flushed when it moves, because the base
        encoding recognises the relations a commit replaced.
        """
        with self._lock:
            self._evaluator.db = snapshot
            result = self._evaluator.evaluate(self.plan, budget=budget)
            self.requests += 1
            return result

    def describe(self) -> dict:
        """JSON-shaped summary for ``prepare`` responses and ``stats``."""
        return {
            "name": self.name,
            "query": self.text,
            "join_order": self.join_order,
            "requests": self.requests,
            "infer_cache": self.infer_cache.stats.as_dict(),
            "circuit_cache": self.circuit_cache.as_dict(),
        }
