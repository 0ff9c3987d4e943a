"""``serve_rmat13``: a fresh ``repro serve`` daemon per round, driven
over HTTP.

The program under test is ``python -m repro serve --port 0`` in its own
process, spawned by the workload's setup pass; the closed-loop load
generator (at most two threads, one ``ServeClient`` each) is the runner
process and stays one process for the whole run.  Round 0 checks every
response, after the timed region, against the library: closeness
element-exact against ``closeness_centrality``, every ingest summary
against a ``Session.ingest`` replay of the same events.  Later rounds
send the same requests and must reproduce round 0's answers (CRC).
"""

from __future__ import annotations

import json
import re
import signal
import subprocess
import sys
import threading
import zlib
from statistics import median
from types import SimpleNamespace

from base import Workload, digest, timed, vm_hwm_kb

STARTUP_TIMEOUT_S = 60.0
POLL_S = 0.005
INGEST_POSTS = 2     # consecutive POST /v1/ingest per ingest2x256 op
INGEST_BATCH = 256   # add-events per post
PROBE_TRIPS = 50     # single round trips timed per traced round (p90 needs 100)


class Daemon:
    """A ``repro serve`` child process with a guaranteed teardown."""

    def __init__(self, env: dict) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=env,
            # a runner started in the background inherits SIGINT ignored,
            # and the daemon would then never see the stop signal
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
        watchdog = threading.Timer(STARTUP_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            for line in self.proc.stdout:
                found = re.search(r"listening on http://[^:]+:(\d+)", line)
                if found:
                    self.port = int(found.group(1))
                    break
            else:
                raise RuntimeError("daemon exited before listening")
        except BaseException:
            self.stop()
            raise
        finally:
            watchdog.cancel()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def answers(docs: list) -> list:
    """The answers only (envelopes carry per-run timings), sorted
    because two connections complete in no fixed order."""
    import numpy as np

    def answer(doc):
        if "value" in doc:  # 8192 floats: their bytes, not their JSON
            return zlib.crc32(np.asarray(doc["value"], dtype=np.float64))
        return json.dumps(doc["batches"], sort_keys=True)

    return sorted(map(answer, docs), key=str)


def coalescer_delta(before: dict, after: dict, n_bursts: int) -> dict:
    """``GET /v1/stats`` deltas over one block of bursts."""
    requests = after["requests"] - before["requests"]
    waited = (
        after["mean_queue_wait_s"] * after["requests"]
        - before["mean_queue_wait_s"] * before["requests"]
    )
    return {
        "serve.batches_per_burst":
            (after["batches"] - before["batches"]) / n_bursts,
        "serve.coalescing_hit_rate":
            (after["merged_requests"] - before["merged_requests"]) / requests,
        "serve.mean_queue_wait_ms": 1000.0 * waited / requests,
    }


class Serve(Workload):
    name = "serve_rmat13"
    why = (
        "R-MAT scale 13 resident in a real `repro serve` daemon over HTTP: "
        "kernel time is small, so serve/{server,protocol,coalescer,"
        "registry}, JSON and dynamic.StreamEngine dominate; reps/round 3/3/3"
    )
    classes = {"solo16": 3, "burst2x32": 3, "ingest2x256": 3}
    requests = {"solo16": 16, "burst2x32": 64, "ingest2x256": INGEST_POSTS}
    stateful = frozenset({"ingest2x256"})
    load_threads = 2
    in_runner = True
    scale = 13
    hot_set = 8
    per_request = 4

    def generate(self, seed, tmp):
        import numpy as np
        from inputs import pick_sources, rmat_edges, write_edgelist

        n, u, v = rmat_edges(self.scale, seed)
        full = tmp / "graph.edgelist"
        write_edgelist(full, u, v)
        # the ingest target starts with 60 % of the edges; the edge that
        # carries vertex n-1 goes first so both files infer the same n
        first = int(np.flatnonzero((u == n - 1) | (v == n - 1))[0])
        order = np.r_[first, np.delete(np.arange(u.shape[0]), first)]
        u, v = u[order], v[order]
        cut = int(0.6 * u.shape[0])
        seeded = tmp / "stream.edgelist"
        write_edgelist(seeded, u[:cut], v[:cut])
        hot = pick_sources(self.scale, self.hot_set, seed)
        rng = np.random.default_rng([int(seed), 13])

        def request():
            picked = rng.choice(hot, size=self.per_request, replace=False)
            return sorted(int(s) for s in picked)

        return {
            "graph": str(full), "stream": str(seeded), "n": n, "hot": hot,
            "solo": [request() for _ in range(16)],
            "burst": [[request() for _ in range(32)] for _ in range(2)],
            "events": [[int(a), int(b)] for a, b in zip(u[cut:], v[cut:])],
        }

    def setup(self, spec, tr):
        from repro.serve.client import ServeClient

        st = SimpleNamespace(spec=spec, daemon=None, posts=0, pending=[])
        with tr.span("serve.daemon_start"):
            st.daemon = Daemon(spec["env"])
        try:
            st.client = ServeClient(port=st.daemon.port)
            with tr.span("serve.load"):
                st.client.load(spec["graph"], name="g")
                st.client.load(spec["stream"], name="s")
        except BaseException:
            st.daemon.stop()
            raise
        return st

    def ops(self, st):
        """Each op returns its responses, which also wait in
        ``st.pending`` as (class, request, response) for ``verify``."""
        from repro.serve.client import ServeClient

        spec, port = st.spec, st.daemon.port

        def solo16():
            docs = []
            for sources in spec["solo"]:
                doc = st.client.submit("g", "closeness", sources=sources)
                st.pending.append(("solo16", sources, doc))
                docs.append(doc)
            return docs

        def connection(plan, docs, failures):
            try:
                conn = ServeClient(port=port)
                tickets = [
                    conn.submit("g", "closeness", sources=s, wait=False)
                    for s in plan
                ]
                for sources, t in zip(plan, tickets):
                    doc = conn.wait(t["ticket"], poll_s=POLL_S, timeout=60)
                    st.pending.append(("burst2x32", sources, doc))
                    docs.append(doc)
            except Exception as exc:  # noqa: BLE001 - re-raised by the op
                failures.append(exc)

        def burst2x32():
            docs, failures = [], []
            threads = [
                threading.Thread(target=connection, args=(plan, docs, failures))
                for plan in spec["burst"]
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            if failures:
                raise failures[0]
            return docs

        def ingest2x256():
            docs = []
            for _ in range(INGEST_POSTS):
                k, st.posts = st.posts, st.posts + 1
                doc = st.client.ingest("s", self.ingest_rows(spec, k))
                st.pending.append(("ingest2x256", k, doc))
                docs.append(doc)
            return docs

        return {"solo16": solo16, "burst2x32": burst2x32,
                "ingest2x256": ingest2x256}

    @staticmethod
    def ingest_rows(spec: dict, k: int) -> list:
        """Wire rows of the ``k``-th ingest post of a round."""
        chunk = spec["events"][k * INGEST_BATCH:(k + 1) * INGEST_BATCH]
        if len(chunk) != INGEST_BATCH:
            raise RuntimeError("event stream exhausted; lower the reps")
        return [[k + 1, "add", u, v] for u, v in chunk]

    def digest(self, result):
        return digest(answers(result))

    def rss_kb(self, st):
        return vm_hwm_kb(st.daemon.proc.pid)

    def verify(self, st, results):
        import numpy as np
        import repro.api as api
        from repro.centrality import closeness_centrality
        from repro.graph.io import read_auto

        spec, errors = st.spec, []
        g = read_auto(spec["graph"])
        scores = closeness_centrality(g, sources=spec["hot"])
        summaries = []
        with api.Session() as session:
            session.load(spec["stream"], name="s")
            for k in range(st.posts):
                doc = session.ingest("s", [
                    (op, u, v, t) for t, op, u, v in self.ingest_rows(spec, k)
                ])
                summaries.append(json.loads(json.dumps(doc)))
        for cls, request, doc in st.pending:
            if cls == "ingest2x256":
                good = doc == summaries[request]
            else:
                # element-exact: the library's score on each requested
                # source, zero everywhere else
                value = np.asarray(doc["value"], dtype=np.float64)
                expect = np.zeros(g.n_vertices)
                expect[request] = scores[request]
                good = value.shape == expect.shape and bool((value == expect).all())
            if not good:
                errors.append(f"{cls}: wrong answer for {request}")
        return errors

    def probes(self, st, tr, results):
        """Enter the stack at three depths with the same query (HTTP
        round trip, in-process ``Session.submit``, direct kernel call),
        time the streaming layers the ingest class crosses, and read the
        coalescer's counters around a block of bursts."""
        import repro.api as api
        from repro.centrality import closeness_centrality
        from repro.dynamic import EdgeEvent, StreamEngine
        from repro.graph.io import read_auto

        spec, client, out = st.spec, st.client, {}

        def interpreter(code):
            return median(timed(lambda: subprocess.run(
                [sys.executable, "-c", code], env=spec["env"], check=True
            ), 3))

        # what the daemon pays before it can listen, seen from outside
        with tr.span("cold.import"):
            out["cold.import"] = (
                interpreter("import repro.cli") - interpreter("pass")
            )
        burst, n_bursts = self.ops(st)["burst2x32"], spec["reps"]["burst2x32"]
        with tr.span("serve.burst_counters"):
            before = client.stats()["coalescer"]
            timed(burst, n_bursts)
            out.update(coalescer_delta(
                before, client.stats()["coalescer"], n_bursts
            ))
        plan = [spec["solo"][i % len(spec["solo"])] for i in range(PROBE_TRIPS)]
        it = iter(plan)
        docs = []
        with tr.span("serve.roundtrip"):
            out["serve.roundtrip_samples"] = timed(
                lambda: docs.append(
                    client.submit("g", "closeness", sources=next(it))
                ),
                PROBE_TRIPS,
            )
        # same coalescer settings as the daemon's defaults
        with api.Session(max_batch_delay=0.005, max_batch=64, batch_runners=2) as s:
            s.load(spec["graph"], name="g")
            s.submit("g", "closeness", sources=plan[0]).result()
            it = iter(plan)
            with tr.span("serve.session_submit"):
                out["serve.session_submit"] = median(timed(
                    lambda: s.submit("g", "closeness", sources=next(it)).result(),
                    PROBE_TRIPS,
                ))
        g = read_auto(spec["graph"])
        closeness_centrality(g, sources=plan[0])
        it = iter(plan)
        with tr.span("centrality.closeness4_direct"):
            out["centrality.closeness4_direct"] = median(timed(
                lambda: closeness_centrality(g, sources=next(it)), PROBE_TRIPS
            ))
        body = json.dumps(docs[0])
        out["serve.response_bytes"] = len(body)
        with tr.span("serve.json_codec"):
            out["serve.json_codec"] = median(timed(
                lambda: json.dumps(json.loads(body)), PROBE_TRIPS
            ))
        engine = StreamEngine.from_graph(
            read_auto(spec["stream"]),
            analytics=("components", "stats", "degree"), k=10,
        )
        applied, snapped = [], []
        with tr.span("dynamic.library_ingest"):
            for k in range(5):
                batch = [
                    EdgeEvent(op, u, v, t=t)
                    for t, op, u, v in self.ingest_rows(spec, k)
                ]
                with tr.span("dynamic.apply_batch256"):
                    applied += timed(lambda: engine.apply_batch(batch), 1)
                with tr.span("dynamic.snapshot"):
                    snapped += timed(engine.snapshot, 1)
        out["dynamic.apply_batch256"] = median(applied[1:])
        out["dynamic.snapshot"] = median(snapped[1:])
        return out

    def teardown(self, st):
        st.daemon.stop()
