"""Buffered transactions over a :class:`~repro.db.ProbabilisticDatabase`.

The serving layer (:mod:`repro.serve`) needs two properties the raw
mutation API cannot give it:

1. **Snapshot isolation for in-flight queries.** A query admitted while a
   transaction is open must see the committed instance, unperturbed, for
   its whole evaluation — even if the transaction commits midway.
2. **Transactional cache invalidation.** Mutation hooks (which flush the
   :class:`~repro.circuit.CircuitCache` and drop base encodings, see
   :class:`~repro.core.columnar.BaseEncoding`) must fire only when changes
   actually become visible. A rolled back transaction must leave every warm
   cache intact.

:class:`Transaction` gets both from one mechanism: copy-on-write relation
replacement. Writes are buffered in private working copies (created from
the committed relation at first touch, with *no* hooks wired, so nothing
observes them). ``commit()`` installs fresh relation objects into the
database — the old objects are never mutated, so snapshots that captured
them keep reading the old state — and only then fires each touched
relation's mutation hooks, exactly once per touched relation.
``rollback()`` simply discards the working copies: no hook ever fires, no
cache is flushed.

Commits are *optimistic*: the database version observed at ``begin`` is
re-checked at commit, and a concurrent commit raises
:class:`~repro.errors.TransactionConflictError` (retry the whole
transaction). The server serialises writers, so conflicts there are
impossible by construction; the check protects direct API users.

Examples
--------
>>> from repro.db import ProbabilisticDatabase
>>> db = ProbabilisticDatabase()
>>> _ = db.add_relation("R", ("A",), {(1,): 0.5})
>>> with db.transaction() as txn:
...     txn.insert("R", (2,), 0.25)
...     txn.set_probability("R", (1,), 0.75)
>>> sorted(db["R"].items())
[((1,), 0.75), ((2,), 0.25)]
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.db.database import ProbabilisticDatabase
from repro.db.relation import ProbabilisticRelation
from repro.db.schema import Row
from repro.errors import TransactionConflictError, TransactionError

__all__ = ["Transaction"]


class Transaction:
    """A buffered read-write transaction with commit/rollback semantics.

    Obtain one via :meth:`ProbabilisticDatabase.begin` or use
    :meth:`ProbabilisticDatabase.transaction` as a context manager (commit
    on clean exit, rollback on exception). All validation — arity, the
    ``(0, 1]`` probability range, duplicate or missing tuples — happens
    eagerly at the buffered operation, against the transaction's own view,
    so a commit can only fail on an optimistic conflict.
    """

    def __init__(self, db: ProbabilisticDatabase) -> None:
        self._db = db
        self._start_version = db.version
        self._working: Dict[str, ProbabilisticRelation] = {}
        self._ops = 0
        self._state = "active"

    # ------------------------------------------------------------- status
    @property
    def active(self) -> bool:
        """True until :meth:`commit` or :meth:`rollback` finishes."""
        return self._state == "active"

    @property
    def state(self) -> str:
        """One of ``active``, ``committed``, ``rolled_back``."""
        return self._state

    @property
    def operations(self) -> int:
        """Number of buffered mutations so far."""
        return self._ops

    def touched(self) -> list[str]:
        """Names of relations with buffered changes, in first-touch order."""
        return list(self._working)

    # -------------------------------------------------------------- reads
    def relation(self, name: str) -> ProbabilisticRelation:
        """The transaction's view of *name*: the working copy if this
        transaction wrote to it, otherwise the committed relation
        (read-your-writes inside the transaction)."""
        self._check_active()
        return self._working.get(name) or self._db[name]

    def probability(self, name: str, row: Row) -> float:
        """Marginal probability of ``row`` under this transaction's view."""
        return self.relation(name).probability(row)

    # ------------------------------------------------------------- writes
    def _copy_for_write(self, name: str) -> ProbabilisticRelation:
        rel = self._working.get(name)
        if rel is None:
            # The working copy carries no hooks: buffered writes must be
            # invisible to cache invalidation until commit.
            rel = self._db[name].copy()
            self._working[name] = rel
        return rel

    def insert(self, name: str, row: Iterable, probability: float) -> None:
        """Buffer an insert of *row* into relation *name*."""
        self._check_active()
        self._copy_for_write(name).add(row, probability)
        self._ops += 1

    def set_probability(self, name: str, row: Iterable, probability: float) -> None:
        """Buffer a probability update for an existing *row*."""
        self._check_active()
        self._copy_for_write(name).set_probability(row, probability)
        self._ops += 1

    def delete(self, name: str, row: Iterable) -> None:
        """Buffer a delete of an existing *row*."""
        self._check_active()
        self._copy_for_write(name).remove(row)
        self._ops += 1

    # ------------------------------------------------------------ outcome
    def commit(self) -> list[str]:
        """Install all buffered changes atomically; return touched names.

        New relation objects (carrying the old objects' hooks so future
        direct mutations keep notifying subscribers) replace the committed
        ones, then each touched relation's hooks fire exactly once. Hook
        order is: all installs first, then all notifications — a hook that
        re-reads the database sees the fully committed state.

        Raises
        ------
        TransactionError
            If the transaction already finished.
        TransactionConflictError
            If the database was mutated (by another transaction or a direct
            ``add``) since this transaction began. Nothing is installed.
        """
        self._check_active()
        with self._db._txn_lock:
            if self._db.version != self._start_version:
                self._state = "rolled_back"
                raise TransactionConflictError(
                    f"database changed under transaction (version "
                    f"{self._start_version} -> {self._db.version}); retry"
                )
            notify: list[tuple[ProbabilisticRelation, str]] = []
            for name, working in self._working.items():
                old = self._db[name]
                fresh = ProbabilisticRelation(old.schema)
                fresh._rows = dict(working._rows)
                fresh._hooks = list(old._hooks)
                self._db._relations[name] = fresh
                notify.append((fresh, name))
            # Hooks fire inside the lock: a snapshot captured concurrently
            # must never pair the new relations with the old version number
            # (hooks must not re-enter snapshot()/commit()).
            for fresh, name in notify:
                for hook in fresh._hooks:
                    hook(name)
        self._state = "committed"
        return [name for _, name in notify]

    def rollback(self) -> None:
        """Discard all buffered changes. No hook fires, no cache flushes.
        Idempotent on an already-finished transaction is an error."""
        self._check_active()
        self._working.clear()
        self._state = "rolled_back"

    def _check_active(self) -> None:
        if self._state != "active":
            raise TransactionError(f"transaction already {self._state}")

    # ---------------------------------------------------- context manager
    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self.active:
            return
        if exc_type is None:
            self.commit()
        else:
            self.rollback()

    def __repr__(self) -> str:
        return (
            f"<Transaction {self._state} ops={self._ops} "
            f"touched={self.touched()!r}>"
        )
