"""Correctness gate: every answer sound, a seeded sample checked exactly.

Runs after the timed region, in the benchmark's own process, on the
responses the workload process logged. Three checks:

1. **Every enclosure.** ``0 <= lower <= probability <= upper <= 1``.
2. **Agreement.** Two replies of one statement at one database version
   must agree: equal exact answers, overlapping enclosures (both are sound,
   so both contain the true value).
3. **Oracle sample.** A seeded sample of answers is re-derived from the
   committed state at the reply's ``version``. The benchmark knows its own
   writes, so it rebuilds that state from the generated database by
   applying, in commit order, every write committed at or before it. An
   exact answer (``lower == upper``) must equal the probability of the
   answer's lineage, grounded from the query (``repro.lineage``) and solved
   by DPLL: an intensional path that shares nothing with the pL operator
   pipeline. Where DPLL exceeds its call budget (the hard regime), and for
   every enclosure, the answer is checked against dissociation bounds
   computed by the row engine (``DissociationEvaluator(engine="rows")``):
   a point must lie inside them, an interval must overlap them.
"""

from __future__ import annotations

import random
import time

TOLERANCE = 1e-9
#: DPLL call budget of one oracle solve; beyond it the bounds check applies.
DPLL_CALLS = 20_000
#: Wall-clock budget of the whole oracle sample.
ORACLE_SECONDS = 30.0


def boolean_text(text: str, head) -> str:
    """The Table 1 query text with its head variable bound to *head*."""
    body = text.split(":-", 1)[1]
    return "q() :- " + body.replace("(h,", f"({head},")


class _State:
    """The generated database, moved forward through committed writes."""

    def __init__(self, db, writes) -> None:
        self.db = db
        self.pending = sorted(
            (w for w in writes if w["ok"]), key=lambda w: w["version"]
        )

    def at(self, version: int):
        while self.pending and self.pending[0]["version"] <= version:
            for step in self.pending.pop(0)["steps"]:
                rel = self.db[step["relation"]]
                row = tuple(step["row"])
                if step["op"] == "set_prob":
                    rel.set_probability(row, step["p"])
                elif step["op"] == "insert":
                    rel.add(row, step["p"])
                else:
                    rel.remove(row)
        return self.db


def check(db, log, queries, samples: int, seed: int) -> dict:
    """Run the gate over one run's *log*; returns counts and failures.

    *db* is the run's generated database (mutated in place), *queries*
    maps statement names to ``(text, join_order)``.
    """
    from repro.core.plan import left_deep_plan
    from repro.dissociation import DissociationEvaluator
    from repro.errors import DPLLBudgetError
    from repro.lineage.dnf import lineage_of_query
    from repro.lineage.exact import dnf_probability
    from repro.query.parser import parse_query

    failures: list[str] = []
    reads = [r for r in log if r["kind"] == "query" and r["ok"]]
    checked = 0
    for r in reads:
        for row, lo, up, p, method in r["answers"]:
            checked += 1
            if not (-TOLERANCE <= lo <= p + TOLERANCE
                    and p <= up + TOLERANCE and up <= 1 + TOLERANCE):
                failures.append(
                    f"{r['name']}@{r['version']} {row}: unsound enclosure "
                    f"[{lo}, {up}] around {p} ({method})"
                )

    seen: dict = {}
    for r in reads:
        for row, lo, up, _, _ in r["answers"]:
            key = (r["name"], r["version"], tuple(row))
            if key in seen:
                plo, pup = seen[key]
                both_exact = plo == pup and lo == up
                if (both_exact and abs(lo - plo) > TOLERANCE) or (
                    lo > pup + TOLERANCE or plo > up + TOLERANCE
                ):
                    failures.append(
                        f"{key}: replies disagree [{plo}, {pup}] vs [{lo}, {up}]"
                    )
            else:
                seen[key] = (lo, up)

    rng = random.Random(f"oracle:{seed}")
    candidates = [(r, a) for r in reads for a in r["answers"]]
    picks = rng.sample(candidates, min(samples, len(candidates)))
    picks.sort(key=lambda ra: ra[0]["version"])
    state = _State(db, [r for r in log if r["kind"] == "write"])
    oracle = {"dpll": 0, "bounds": 0, "skipped": 0}
    bounds_cache: dict = {}
    started = time.perf_counter()
    for r, (row, lo, up, _, method) in picks:
        if time.perf_counter() - started > ORACLE_SECONDS:
            oracle["skipped"] += 1
            continue
        current = state.at(r["version"])
        text, order = queries[r["name"]]
        where = f"{r['name']}@{r['version']} {row} ({method})"
        if lo == up:
            query = parse_query(boolean_text(text, row[0]))
            dnf, probs = lineage_of_query(query, current)
            try:
                truth = dnf_probability(dnf, probs, max_calls=DPLL_CALLS)
            except DPLLBudgetError:
                pass
            else:
                oracle["dpll"] += 1
                if abs(truth - lo) > TOLERANCE:
                    failures.append(f"{where}: served {lo}, oracle {truth}")
                continue
        key = (r["name"], r["version"])
        if key not in bounds_cache:
            plan = left_deep_plan(parse_query(text), list(order))
            bounds_cache[key] = DissociationEvaluator(
                current, engine="rows"
            ).evaluate(plan).bounds
        b = bounds_cache[key].get(tuple(row))
        oracle["bounds"] += 1
        if b is None:
            failures.append(f"{where}: answer missing from the oracle")
        elif lo == up and not (b.lower - TOLERANCE <= lo <= b.upper + TOLERANCE):
            failures.append(
                f"{where}: served {lo} outside bounds [{b.lower}, {b.upper}]"
            )
        elif lo > b.upper + TOLERANCE or up < b.lower - TOLERANCE:
            failures.append(
                f"{where}: served [{lo}, {up}] misses bounds "
                f"[{b.lower}, {b.upper}]"
            )
    return {
        "answers_checked": checked,
        "oracle": oracle,
        "failures": failures,
        "seconds": time.perf_counter() - started,
    }
