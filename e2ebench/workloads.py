"""Workload definitions and seeded input generation.

A workload fixes the database shape (the Section 6.1 generator knobs), the
statements clients send, how they are sent (prepared or ad-hoc text, mode,
deadline), the client count, and the write mix. :func:`generate` and
:func:`op_streams` turn a workload and a seed into everything a run
consumes: the generated database and one op stream per client. The same
seed always gives the same inputs, and :func:`fingerprint` hashes them so
two runs can be shown to agree.

Op streams are lists of rounds. A round is a seeded permutation of the
workload's statements, with the workload's write transactions spliced in.
Clients stop only at a round boundary, so every run serves the same statement
mix whatever its length; that is what keeps medians and throughput steady
from run to run.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
from dataclasses import dataclass

#: Table 1 queries with their left-deep join orders. Kept here rather than
#: imported so the request stream is fixed by the benchmark, not the program.
QUERIES = {
    "P1": ("q(h) :- R1(h,x), S1(h,x,y), R2(h,y)", ("R1", "S1", "R2")),
    "P2": ("q(h) :- R1(h,x), S1(h,x,y), S2(h,y,z), R2(h,z)",
           ("R1", "S1", "S2", "R2")),
    "P3": ("q(h) :- R1(h,x), S1(h,x,y), S2(h,y,z), S3(h,z,u), R2(h,u)",
           ("R1", "S1", "S2", "S3", "R2")),
    "S1": ("q(h) :- R1(h,x), S1(h,x,y), R2(h,y)", ("R1", "S1", "R2")),
    "S2": ("q(h) :- R1(h,x), T1(h,x,y,z), R2(h,y), R3(h,z)",
           ("R1", "T1", "R2", "R3")),
    "S3": ("q(h) :- R1(h,x), T2(h,x,y,z,u), R2(h,y), R3(h,z), R4(h,u)",
           ("R1", "T2", "R2", "R3", "R4")),
}


@dataclass(frozen=True)
class Workload:
    """One traffic mix over one generated database."""

    name: str
    #: ``repro.workload.WorkloadParams`` fields other than ``seed``.
    params: dict
    statements: tuple[str, ...]
    #: Prepared statements (``prepare`` at set-up) or ad-hoc query text.
    prepared: bool
    clients: int
    deadline: float | None = None
    #: Write transactions client 0 splices into each round; other clients
    #: only read, so commits never conflict.
    writes: int = 0
    #: Permutations of the statements per round (serve-mixed packs three
    #: reads per statement around each write).
    passes: int = 1
    #: Relations ``set_prob`` writes may touch.
    write_relations: tuple[str, ...] = ()
    #: Share of writes that insert a fresh conflicting tuple, and of writes
    #: that delete one inserted earlier (the rest are ``set_prob``).
    insert_share: float = 0.0
    delete_share: float = 0.0
    #: Relations inserts and deletes touch (arity-3 S tables).
    structural_relations: tuple[str, ...] = ()
    #: Fixed percentiles reported as ``latency_tail_ms`` and
    #: ``commit_tail_ms``: the highest with ten samples beyond it at this
    #: workload's sample counts (see NOTES.md). Fixed, not chosen per run,
    #: so a faster program is compared at the same percentile.
    query_tail: float = 90.0
    commit_tail: float = 90.0
    #: Answers per run the correctness gate checks against an oracle.
    oracle_samples: int = 4
    #: Upper bound on ops one client could complete per second; streams are
    #: generated with this much headroom so a faster program never runs dry.
    max_ops_per_second: int = 60


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="adhoc-large",
            params=dict(N=10, m=3200, fanout=3, r_f=0.001, r_d=1.0),
            statements=("P1", "P2", "P3", "S1", "S2", "S3"),
            prepared=False,
            clients=1,
            writes=1,
            write_relations=("R1", "R2", "R3", "R4", "S1", "S2", "S3",
                             "T1", "T2"),
            query_tail=90.0,
            commit_tail=75.0,
            oracle_samples=3,
            max_ops_per_second=60,
        ),
        Workload(
            name="hard-deadline",
            params=dict(N=6, m=800, fanout=4, r_f=0.1, r_d=1.0),
            statements=("P1", "S1", "P3", "S2", "S3"),
            prepared=True,
            clients=1,
            deadline=1.0,
            writes=2,
            write_relations=("R1", "R2", "R3", "R4"),
            query_tail=75.0,
            commit_tail=50.0,
            oracle_samples=6,
            max_ops_per_second=60,
        ),
        Workload(
            name="serve-mixed",
            params=dict(N=40, m=40, fanout=3, r_f=0.01, r_d=1.0),
            statements=("P1", "P2", "S2"),
            prepared=True,
            clients=2,
            writes=1,
            passes=3,
            write_relations=("R1", "R2", "R3", "S1", "S2", "T1"),
            insert_share=0.15,
            delete_share=0.15,
            structural_relations=("S1", "S2"),
            query_tail=95.0,
            commit_tail=75.0,
            oracle_samples=12,
            max_ops_per_second=1000,
        ),
    )
}

#: Tiny sizes for the benchmark's own tests (``--smoke``).
SMOKE_PARAMS = {
    "adhoc-large": dict(N=3, m=30, fanout=3, r_f=0.01, r_d=1.0),
    "hard-deadline": dict(N=2, m=40, fanout=4, r_f=0.1, r_d=1.0),
    "serve-mixed": dict(N=3, m=12, fanout=3, r_f=0.05, r_d=1.0),
}


def query_message(workload: Workload, name: str) -> dict:
    """The protocol request for one read of statement *name*."""
    msg = {"op": "query", "mode": "auto"}
    if workload.prepared:
        msg["prepared"] = name
    else:
        msg["query"] = QUERIES[name][0]
    if workload.deadline is not None:
        msg["deadline"] = workload.deadline
    return msg


def prepare_messages(workload: Workload) -> list[dict]:
    """``prepare`` requests a prepared workload sends at set-up."""
    if not workload.prepared:
        return []
    return [
        {"op": "prepare", "name": name, "query": QUERIES[name][0],
         "join_order": list(QUERIES[name][1])}
        for name in dict.fromkeys(workload.statements)
    ]


class _WriteState:
    """What the single writer has inserted and not yet deleted."""

    def __init__(self, db, workload: Workload, rng: random.Random) -> None:
        self.rng = rng
        self.workload = workload
        # Base rows are never deleted, so set_prob may pick any of them.
        self.rows = {
            name: sorted(db[name].rows()) for name in workload.write_relations
        }
        self.structural = {
            name: sorted(db[name].rows())
            for name in workload.structural_relations
        }
        self.fresh = 0
        self.pending: list[tuple[str, list]] = []

    def next_write(self) -> dict:
        w = self.workload
        roll = self.rng.random()
        if w.structural_relations and roll < w.delete_share and self.pending:
            relation, row = self.pending.pop(0)
            return {"kind": "delete", "steps": [
                {"op": "delete", "relation": relation, "row": row}]}
        if w.structural_relations and roll < w.delete_share + w.insert_share:
            relation = self.rng.choice(w.structural_relations)
            h, a, _ = self.rng.choice(self.structural[relation])
            # A value outside the generated domain never collides with an
            # existing tuple and gives (h, a) a second target: a fresh FD
            # violation, so the commit changes the network's structure.
            self.fresh += 1
            row = [h, a, 1_000_000 + self.fresh]
            self.pending.append((relation, row))
            return {"kind": "insert", "steps": [
                {"op": "insert", "relation": relation, "row": row,
                 "p": round(self.rng.uniform(0.05, 0.95), 6)}]}
        relation = self.rng.choice(w.write_relations)
        row = list(self.rng.choice(self.rows[relation]))
        return {"kind": "set_prob", "steps": [
            {"op": "set_prob", "relation": relation, "row": row,
             "p": round(self.rng.uniform(0.05, 0.95), 6)}]}


def op_streams(workload: Workload, db, seed: int, seconds: float) -> list[list[dict]]:
    """One op list per client; each op is a query or a write transaction.

    Every op carries ``round_end`` so clients can stop on a round boundary.
    """
    streams = []
    per_round = len(workload.statements) * workload.passes
    rounds = max(4, int(seconds * workload.max_ops_per_second / per_round) + 4)
    for client in range(workload.clients):
        rng = random.Random(f"{workload.name}:{seed}:{client}")
        writer = _WriteState(db, workload, rng) if client == 0 else None
        ops: list[dict] = []
        for _ in range(rounds):
            names: list[str] = []
            for _ in range(workload.passes):
                names += rng.sample(workload.statements, len(workload.statements))
            round_ops = [
                {"kind": "query", "name": n, "msg": query_message(workload, n)}
                for n in names
            ]
            for _ in range(workload.writes if writer is not None else 0):
                round_ops.insert(
                    rng.randrange(len(round_ops) + 1), writer.next_write()
                )
            round_ops[-1]["round_end"] = True
            ops += round_ops
        streams.append(ops)
    return streams


def generate(workload: Workload, seed: int, smoke: bool = False):
    """The seeded database of a run (``repro.workload.generate_database``)."""
    from repro.workload import WorkloadParams, generate_database

    params = SMOKE_PARAMS[workload.name] if smoke else workload.params
    return generate_database(WorkloadParams(seed=seed, **params))


def fingerprint(db_dir: pathlib.Path, streams: list[list[dict]]) -> str:
    """SHA-256 over the database CSV files and the op streams."""
    digest = hashlib.sha256()
    for path in sorted(db_dir.glob("*.csv")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    digest.update(json.dumps(streams, sort_keys=True).encode())
    return digest.hexdigest()[:16]
