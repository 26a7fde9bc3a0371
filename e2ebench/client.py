"""The workload process: set up a server, drive it in a closed loop, log.

Run by ``run.py`` in a fresh interpreter, so set-up time and peak memory
are this process's own::

    python3 e2ebench/client.py --workload serve-mixed --db DIR --ops FILE \\
        --seconds 20 --seed 1 --out results.json [--trace] [--setup-only]

Set-up covers importing ``repro``, loading the CSV directory with
``repro.io.load_database``, building the :class:`repro.serve.Server`,
preparing the workload's statements and one warm-up read of each. Every
request is a protocol message: encoded and decoded with
``repro.serve.protocol`` on both sides of an in-process
:meth:`~repro.serve.Server.handle`, which is the daemon's path minus the
socket. Each client thread sends its next op only after the previous reply
(a closed loop) and stops at the first round boundary after ``--seconds``.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

#: Seconds past its deadline before the scheduler reaps a request.
REAP_GRACE_SECONDS = 2.0

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def roundtrip(server, protocol, msg: dict) -> dict:
    """One request through the wire format and the protocol dispatcher."""
    reply = server.handle(protocol.decode(protocol.encode(msg)))
    return protocol.decode(protocol.encode(reply))


def _answers(reply: dict) -> list:
    return [
        [a["row"], a["lower"], a["upper"], a["probability"], a["method"]]
        for a in reply.get("answers", ())
    ]


class Client:
    """One closed-loop client thread's state and log."""

    def __init__(self, index, server, protocol, ops, trace, stop_at):
        self.index = index
        self.server = server
        self.protocol = protocol
        self.ops = ops
        self.trace = trace
        self.stop_at = stop_at
        self.log: list[dict] = []
        #: (request seq, client span roots, round trip s, queue wait s, op).
        self.traced: list[tuple] = []
        self.session = None
        self.error: str | None = None

    def call(self, msg: dict) -> dict:
        if self.trace is None:
            return roundtrip(self.server, self.protocol, msg)
        from repro.obs.trace import Tracer

        tracer = Tracer()
        t0 = time.perf_counter()
        with tracer, tracer.span("client.request", op=msg["op"]):
            reply = roundtrip(self.server, self.protocol, msg)
        seconds = time.perf_counter() - t0
        request = self.trace.take_request()
        wait = None
        if request is not None and request.started_at is not None:
            wait = request.started_at - request.submitted_at
        self.traced.append((
            request.seq if request is not None else None,
            tracer.roots, seconds, wait, msg["op"],
        ))
        return reply

    def run(self, epoch: float) -> None:
        try:
            self.session = self.call({"op": "open_session"})["session"]
            for i, op in enumerate(self.ops):
                if op["kind"] == "query":
                    self.query(i, op, epoch)
                else:
                    self.write(i, op, epoch)
                if op.get("round_end") and time.perf_counter() >= self.stop_at:
                    break
            self.call({"op": "close_session", "session": self.session})
        except Exception as exc:  # reported, never swallowed
            self.error = f"{type(exc).__name__}: {exc}"

    def query(self, i: int, op: dict, epoch: float) -> None:
        t0 = time.perf_counter()
        reply = self.call(dict(op["msg"], id=i))
        t1 = time.perf_counter()
        self.log.append({
            "c": self.index, "i": i, "kind": "query", "name": op["name"],
            "t0": t0 - epoch, "lat": t1 - t0, "ok": reply["ok"],
            "code": None if reply["ok"] else reply["error"]["code"],
            "version": reply.get("version"), "mode": reply.get("mode"),
            "shed": reply.get("shed", 0), "exec": reply.get("seconds"),
            "answers": _answers(reply),
        })

    def write(self, i: int, op: dict, epoch: float) -> None:
        """begin, the buffered writes, commit: one write transaction."""
        t0 = time.perf_counter()
        reply = self.call({"op": "begin", "session": self.session, "id": i})
        for step in op["steps"]:
            if not reply["ok"]:
                break
            reply = self.call(dict(step, session=self.session, id=i))
        if reply["ok"]:
            reply = self.call({"op": "commit", "session": self.session, "id": i})
        else:
            self.call({"op": "rollback", "session": self.session, "id": i})
        t1 = time.perf_counter()
        self.log.append({
            "c": self.index, "i": i, "kind": "write", "name": op["kind"],
            "t0": t0 - epoch, "lat": t1 - t0, "ok": reply["ok"],
            "code": None if reply["ok"] else reply["error"]["code"],
            "version": reply.get("version"), "steps": op["steps"],
        })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--db", required=True)
    parser.add_argument("--ops", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from workloads import WORKLOADS, prepare_messages

    workload = WORKLOADS[args.workload]
    streams = json.loads(pathlib.Path(args.ops).read_text())

    t0 = time.perf_counter()
    import repro.io
    from repro.obs import telemetry
    from repro.serve import AdmissionPolicy, Server, protocol
    setup = {"import_s": time.perf_counter() - t0}

    trace = None
    if args.trace:
        from layers import LayerTrace

        trace = LayerTrace(workload.name)
        trace.install()

    t0 = time.perf_counter()
    db = repro.io.load_database(args.db)
    setup["io.load_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    # The reaper answers for a request 0.25 s past its deadline by default;
    # the ladder's fallback after a failed exact attempt can take longer
    # than that on hard-deadline (an open defect, see NOTES.md), so the
    # grace is widened to keep those requests answered. Their overrun still
    # shows in latency_tail_ms and resilience.overrun_ms.
    server = Server(
        db, seed=args.seed,
        policy=AdmissionPolicy(reap_grace_seconds=REAP_GRACE_SECONDS),
    )
    for msg in prepare_messages(workload):
        reply = roundtrip(server, protocol, msg)
        if not reply["ok"]:
            raise SystemExit(f"prepare failed: {reply['error']}")
    setup["prepare_s"] = time.perf_counter() - t0

    # Warm-up: one read of every statement, the way the workload sends it.
    t0 = time.perf_counter()
    warm = Client(-1, server, protocol, [], None, 0.0)
    for name in dict.fromkeys(workload.statements):
        op = next(o for o in streams[0] if o.get("name") == name
                  and o["kind"] == "query")
        warm.query(-1, op, t0)
    setup["warmup_s"] = time.perf_counter() - t0
    setup["setup_s"] = time.perf_counter() - _T_START
    warm_failed = [r["code"] for r in warm.log if not r["ok"]]

    out: dict = {"setup": setup, "warmup_failed": warm_failed}
    if not args.setup_only:
        recorded0 = telemetry.current_recorder().recorded
        epoch = time.perf_counter()
        clients = [
            Client(i, server, protocol, ops, trace, epoch + args.seconds)
            for i, ops in enumerate(streams)
        ]
        threads = [
            threading.Thread(target=c.run, args=(epoch,), name=f"client-{i}")
            for i, c in enumerate(clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        window = time.perf_counter() - epoch
        out.update(
            window_s=window,
            log=[r for c in clients for r in c.log],
            client_errors=[c.error for c in clients if c.error],
            flight_records=telemetry.current_recorder().recorded - recorded0,
            stats=server.stats(),
        )
    server.drain()
    if trace is not None and not args.setup_only:
        from layers import layer_metrics

        trace.uninstall()
        out["layers"] = layer_metrics(
            trace, clients, out, setup, workload
        )
    out["rss_peak_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    pathlib.Path(args.out).write_text(json.dumps(out, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
