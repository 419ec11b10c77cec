"""The process that runs one workload against the files it is handed.

Usage: ``python3 workloads.py JOB.json OUT.json`` (written by run.py).

It sets the program up from the edge lists (five times, for a median
set-up time), runs whole rounds of the workload while the next one still
fits in the requested seconds, timing a reference computation before
every operation, and writes every operation's timing, answer digest and
SearchStats to OUT.json; the first answer of each key is written in
full for run.py to check. With ``trace`` it instead runs one untraced
round and one traced round and adds the per-layer split.
"""

from __future__ import annotations

import asyncio
import gc
import http.client
import json
import os
import platform
import resource
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List

SETUP_REPEATS = 5

#: Serial work runs on one CPU: moving between virtual CPUs of a shared
#: host only adds noise to a single-threaded search.
ALL_CPUS = os.sched_getaffinity(0)
ONE_CPU = {max(ALL_CPUS)}


def perf() -> float:
    return time.perf_counter()


class Recorder:
    """Operation records plus the first full answer of every key.

    Each record names, as ``ref``, the reference sample taken last before
    it (-1 when none was), so run.py can divide its time by the machine
    speed measured around it.
    """

    def __init__(self, reference: "Reference"):
        self.ops: List[dict] = []
        self.answers: Dict[str, str] = {}
        self.reference = reference

    def call(self, key: str, kind: str, round_index: int, fn: Callable) -> dict:
        from checks import answer_digest

        op = {"key": key, "kind": kind, "round": round_index, "ref": self.reference.last()}
        started = perf()
        try:
            result = fn()
        except Exception as error:  # an operation failure, not a benchmark fault
            op["seconds"] = perf() - started
            op["failed"] = f"{type(error).__name__}: {error}"
            self.ops.append(op)
            return op
        op["seconds"] = perf() - started
        text = json.dumps([sorted(clique.nodes) for clique in result.cliques])
        op["digest"] = answer_digest(text)
        op["stats"] = result.stats.as_dict()
        op["failed"] = partial_reason(result)
        op["parallel"] = {
            name: value
            for name, value in (result.parallel or {}).items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }
        seeded = (result.parallel or {}).get("seeded")
        if seeded is not None:
            op["seeded"] = seeded
        if not op["failed"]:
            self.answers.setdefault(key, text)
        self.ops.append(op)
        return op


def partial_reason(result) -> str:
    if result.timed_out or result.truncated or result.interrupted:
        return f"partial result ({result.interrupted_reason or 'truncated'})"
    return ""


class Reference:
    """A fixed computation of the benchmark's own, timed between operations.

    On a shared host the same work can run twice as slow from one second
    to the next; the reference slows in step, so an operation's time
    divided by the reference time measured around it stays steady while
    absolute seconds drift. The graph comes from the benchmark's seeded
    generator, never from the program, so no change to the program moves
    the reference.
    """

    def __init__(self):
        import itertools
        import random

        from checks import Adjacency

        rng = random.Random(2018)
        self.graph = Adjacency(
            (u, v, -1 if rng.random() < 0.3 else 1)
            for u, v in itertools.combinations(range(600), 2)
            if rng.random() < 0.05
        )
        self.samples: List[float] = []

    def sample(self) -> None:
        from checks import cliques_at_least

        # The reference builds no reference cycles. With the collector
        # on, its time would also count collections that scan the whole
        # heap, whose size differs by workload and grows by round.
        gc.disable()
        try:
            started = perf()
            cliques_at_least(self.graph, 2, 1, 3)
            self.samples.append(perf() - started)
        finally:
            gc.enable()

    def last(self) -> int:
        """Index of the latest sample (-1 before the first)."""
        return len(self.samples) - 1


class SetUps:
    """Timed set-ups spread over the run: the one the run uses, two more
    after every round, topped up to SETUP_REPEATS at the end. The median
    then samples the host across the run, not during one second of it.
    """

    def __init__(self, setup: Callable[[], object], discard: Callable[[object], None] = lambda state: None):
        self.setup = setup
        self.discard = discard
        self.seconds: List[float] = []

    def timed(self):
        started = perf()
        state = self.setup()
        self.seconds.append(perf() - started)
        return state

    def extra(self, count: int = 2) -> None:
        for _ in range(count):
            self.discard(self.timed())

    def finish(self) -> List[float]:
        self.extra(max(SETUP_REPEATS - len(self.seconds), 0))
        return self.seconds


def timed_rounds(
    seconds: float, one_round: Callable[[int], dict], setups: SetUps, limit: int = 1000
) -> List[dict]:
    """Whole rounds while the next one, at the mean pace so far, still
    ends within *seconds* (at least one round).

    The high-water RSS is read after the first round, before the
    benchmark's own records of later rounds and the extra set-ups add
    to it.
    """
    rounds = []
    started = perf()
    while len(rounds) < limit:
        rounds.append(one_round(len(rounds)))
        if len(rounds) == 1:
            rounds[0]["peak_rss_mb"] = peak_rss_mb()
        setups.extra()
        elapsed = perf() - started
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    return rounds


def result(setup_s: List[float], rounds: List[dict], rec: Recorder, layers=None) -> dict:
    """What OUT.json holds; a last reference sample closes the series."""
    rec.reference.sample()
    out = {
        "setup_s": setup_s,
        "rounds": rounds,
        "reference_s": rec.reference.samples,
        "ops": rec.ops,
        "answers": rec.answers,
    }
    if layers is not None:
        out["layers"] = layers
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# enum-sweep
# ---------------------------------------------------------------------------
def enum_sweep(job: dict) -> dict:
    from inputs import ENUM_POINTS
    from layers import MaxtestTimer, SpanTotals, take_spans, timed_maxtests

    from repro import MSCE, AlphaK
    from repro.core.parallel import enumerate_parallel
    from repro.core.reduction import reduce_graph
    from repro.fastpath.backend import available_backends
    from repro.fastpath.compiled import compile_graph
    from repro.io import read_signed_edgelist
    from repro.obs.runtime import observing

    os.sched_setaffinity(0, ONE_CPU)
    paths = job["paths"]
    setups = SetUps(lambda: {name: read_signed_edgelist(path) for name, path in paths.items()})
    graphs = setups.timed()
    reference = Reference()
    rec = Recorder(reference)

    def one_round(index: int) -> dict:
        serial = par = 0.0
        for name, alpha, k in ENUM_POINTS:
            graph, key = graphs[name], f"{name}:{alpha}:{k}"
            os.sched_setaffinity(0, ONE_CPU)
            reference.sample()
            serial += rec.call(
                key, "serial", index, lambda: MSCE(graph, AlphaK(alpha, k)).enumerate_all()
            )["seconds"]
            # The pool's workers inherit this process's CPUs.
            os.sched_setaffinity(0, ALL_CPUS)
            reference.sample()
            par += rec.call(
                key, "workers2", index, lambda: enumerate_parallel(graph, alpha, k, workers=2)
            )["seconds"]
        return {"run_s": serial, "alt_s": par}

    if not job["trace"]:
        rounds = timed_rounds(job["seconds"], one_round, setups)
        return result(setups.finish(), rounds, rec)

    untraced = one_round(0)
    os.sched_setaffinity(0, ONE_CPU)
    par_ops = [op for op in rec.ops if op["kind"] == "workers2"]
    layers = {
        "io.read_s": setups.seconds[0],
        "obs.untraced_s": untraced["run_s"],
        "parallel.serial_s": untraced["run_s"],
        "parallel.par_s": untraced["alt_s"],
        "parallel.tasks_completed": sum(op["parallel"].get("tasks_completed", 0) for op in par_ops),
        "parallel.frames_resplit": sum(op["parallel"].get("frames_resplit", 0) for op in par_ops),
        "parallel.shared_graph_bytes": sum(
            op["parallel"].get("shared_graph_bytes", 0) for op in par_ops
        ),
    }
    timer, totals = MaxtestTimer(), SpanTotals()
    traced = []
    with observing() as observer:
        for name, alpha, k in ENUM_POINTS:
            with timed_maxtests(timer):
                search = MSCE(graphs[name], AlphaK(alpha, k))
            calls = timer.calls
            op = rec.call(f"{name}:{alpha}:{k}", "traced", 1, search.enumerate_all)
            op["maxtest_calls"] = timer.calls - calls
            totals.add(take_spans(observer))
            traced.append(op)
    layers.update(search_layers(traced, timer.seconds, timer, totals))
    layers["obs.traced_s"] = sum(op["seconds"] for op in traced)

    compile_s = 0.0
    for tier in ("python", "vectorized"):
        if tier not in available_backends():
            layers[f"fastpath.{tier}_s"] = 0.0
            continue
        tier_s = 0.0
        for name, alpha, k in ENUM_POINTS:
            started = perf()
            compiled = compile_graph(graphs[name])
            compile_s += perf() - started
            tier_s += rec.call(
                f"{name}:{alpha}:{k}",
                f"tier-{tier}",
                1,
                lambda: MSCE(compiled, AlphaK(alpha, k), backend=tier).enumerate_all(),
            )["seconds"]
        layers[f"fastpath.{tier}_s"] = tier_s
    layers["fastpath.compile_s"] = compile_s
    layers.update(
        reduction_counts([(graphs[name], alpha, k) for name, alpha, k in ENUM_POINTS], reduce_graph)
    )
    return result(setups.seconds, [untraced], rec, layers)


def search_layers(ops: List[dict], inside: float, timer, totals) -> dict:
    """Search/maxtest/merge split of traced searches; *inside* is the
    maxtest time spent within the program's ``enumerate`` spans."""
    counts = {name: 0 for name in ("recursions", "core_prunes", "topr_prunes", "early_terminations")}
    for op in ops:
        for name in counts:
            counts[name] += op.get("stats", {}).get(name, 0)
    search_s = totals.seconds["enumerate"] - inside
    return {
        "reduction.s": totals.seconds["reduce"],
        "search.s": search_s,
        "search.recursions": counts["recursions"],
        "search.core_prunes": counts["core_prunes"],
        "search.topr_prunes": counts["topr_prunes"],
        "search.early_terminations": counts["early_terminations"],
        "search.us_per_recursion": search_s * 1e6 / max(counts["recursions"], 1),
        "maxtest.s": timer.seconds,
        "maxtest.calls": timer.calls,
        "maxtest.accepted": timer.accepted,
        "merge.s": totals.seconds["merge"],
    }


def reduction_counts(points, reduce_graph) -> dict:
    from repro import AlphaK

    survivors = nodes = 0
    for graph, alpha, k in points:
        survivors += len(reduce_graph(graph, AlphaK(alpha, k), method="mcnew"))
        nodes += graph.number_of_nodes()
    return {"reduction.survivors": survivors, "reduction.nodes": nodes}


# ---------------------------------------------------------------------------
# topr-artifact
# ---------------------------------------------------------------------------
def topr_artifact(job: dict) -> dict:
    from inputs import TOPR_POINTS
    from layers import MaxtestTimer, SpanTotals, take_spans, timed_maxtests

    from repro import MSCE, AlphaK
    from repro.core.reduction import reduce_graph
    from repro.fastpath.compiled import CompiledGraph, compile_graph
    from repro.io import read_signed_edgelist
    from repro.io.cache import graph_fingerprint
    from repro.obs.runtime import observing

    os.sched_setaffinity(0, ONE_CPU)
    paths, artifact_dir = job["paths"], Path(job["artifact_dir"])
    split = {"io.read_s": 0.0, "fastpath.compile_s": 0.0, "fastpath.save_s": 0.0, "fastpath.attach_s": 0.0}

    def setup():
        sources, artifacts = {}, {}
        for name, path in paths.items():
            t0 = perf()
            graph = read_signed_edgelist(path)
            t1 = perf()
            compiled = compile_graph(graph)
            t2 = perf()
            artifact = artifact_dir / f"{name}.graph"
            compiled.save(artifact, fingerprint=graph_fingerprint(graph))
            t3 = perf()
            artifacts[name] = CompiledGraph.mmap(artifact)
            t4 = perf()
            sources[name] = graph
            for metric, seconds in zip(split, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
                split[metric] += seconds
        return sources, artifacts

    setups = SetUps(setup)
    sources, artifacts = setups.timed()
    reference = Reference()
    rec = Recorder(reference)

    def one_round(index: int, timer=None, report=None) -> dict:
        cold = warm = 0.0
        for name, alpha, k, r in TOPR_POINTS:
            key = f"{name}:{alpha}:{k}:{r}"
            for kind in ("cold", "warm"):
                reference.sample()
                if timer is None:
                    search = MSCE(artifacts[name], AlphaK(alpha, k))
                else:
                    with timed_maxtests(timer):
                        search = MSCE(artifacts[name], AlphaK(alpha, k))
                calls = timer.calls if timer else 0
                warm_start = "portfolio" if kind == "warm" else None
                op = rec.call(key, kind, index, lambda: search.top_r(r, warm_start=warm_start))
                if timer is not None:
                    op["maxtest_calls"] = timer.calls - calls
                    report(op)
                if kind == "cold":
                    cold += op["seconds"]
                else:
                    warm += op["seconds"]
        return {"run_s": cold, "alt_s": warm}

    if not job["trace"]:
        rounds = timed_rounds(job["seconds"], one_round, setups)
        return result(setups.finish(), rounds, rec)

    untraced = one_round(0)
    timer, totals = MaxtestTimer(), SpanTotals()
    traced = []
    with observing() as observer:
        def report(op):
            totals.add(take_spans(observer))
            traced.append(op)

        one_round(1, timer, report)
    layers = dict(split)
    layers.update(search_layers(traced, timer.seconds, timer, totals))
    cold_ops = [op for op in traced if op["kind"] == "cold"]
    warm_ops = [op for op in traced if op["kind"] == "warm"]
    spectral = incumbents = 0
    for op in warm_ops:
        seeded = op.get("seeded", {})
        incumbents += seeded.get("incumbents", 0)
        spectral += sum(arm["seconds"] for arm in seeded.get("arms", []) if arm["arm"] == "spectral")
    layers.update(
        {
            "obs.untraced_s": untraced["run_s"],
            "obs.traced_s": sum(op["seconds"] for op in cold_ops),
            "heuristics.portfolio_s": totals.seconds["portfolio"],
            "heuristics.spectral_s": spectral,
            "heuristics.incumbents": incumbents,
            "heuristics.recursions_saved": sum(op["stats"]["recursions"] for op in cold_ops)
            - sum(op["stats"]["recursions"] for op in warm_ops),
        }
    )
    layers.update(
        reduction_counts(
            [(sources[name], alpha, k) for name, alpha, k, _ in TOPR_POINTS], reduce_graph
        )
    )
    return result(setups.seconds, [untraced], rec, layers)


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------
class LoopServer:
    """A CliqueServer on its own event-loop thread."""

    def __init__(self, registry):
        from repro.net import CliqueServer, ServerConfig

        self.server = CliqueServer(registry, ServerConfig(port=0))
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)

    def start(self) -> int:
        self.thread.start()
        _host, port = asyncio.run_coroutine_threadsafe(self.server.start(), self.loop).result(30)
        return port

    def stop(self) -> None:
        asyncio.run_coroutine_threadsafe(self.server.stop(), self.loop).result(30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(30)
        self.loop.close()


class Client:
    """One keep-alive HTTP connection, closed loop."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def send(self, method: str, path: str, body=None):
        payload = None if body is None else json.dumps(body)
        headers = {"Content-Type": "application/json"} if body is not None else {}
        started = perf()
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        raw = response.read()
        return response.status, raw, perf() - started

    def close(self) -> None:
        self.conn.close()


def serve_mixed(job: dict) -> dict:
    from checks import answer_digest
    from inputs import SERVE_DATASET, SERVE_POINTS, SERVE_QUERY_POINT, SERVE_TOP_R, read_kinds
    from layers import MaxtestTimer, SpanTotals, p50, p90, take_spans, timed_maxtests

    from repro.core.reduction import reduce_graph
    from repro.io import read_signed_edgelist
    from repro.net import TenantRegistry
    from repro.obs.runtime import observing

    # One CPU for client, loop and search threads: the engine lock and the
    # interpreter lock serialise them anyway, and a wakeup across virtual
    # CPUs adds host-dependent delay to every memory-tier read.
    os.sched_setaffinity(0, ONE_CPU)
    path = job["paths"][SERVE_DATASET]

    def setup():
        started = perf()
        graph = read_signed_edgelist(path)
        read_s = perf() - started
        registry = TenantRegistry()
        tenant = registry.create(SERVE_DATASET, graph)
        host = LoopServer(registry)
        return tenant, host, host.start(), read_s

    setups = SetUps(setup, discard=lambda state: state[1].stop())
    tenant, host, port, read_s = setups.timed()
    engine = tenant.engine
    client = Client(port)
    base = f"/v1/graphs/{SERVE_DATASET}"
    reference = Reference()
    rec = Recorder(reference)
    version = 0
    qa, qk = SERVE_QUERY_POINT

    def run_op(spec: dict, round_index: int, timer=None, observer=None, totals=None) -> dict:
        nonlocal version
        if spec["op"] == "edit":
            method, url, body = "POST", f"{base}/edits", {"edits": [spec["edit"]]}
            key = None
        elif spec["op"] == "query":
            method, url = "POST", f"{base}/query"
            body = {"nodes": [spec["node"]], "alpha": qa, "k": qk}
            key = f"v{version}:query:{spec['node']}"
        else:
            method, body = "GET", None
            url = f"{base}/cliques?alpha={spec['alpha']}&k={spec['k']}&mode={spec['mode']}"
            if spec["mode"] == "top":
                url += f"&r={SERVE_TOP_R}"
            key = f"v{version}:{spec['mode']}:{spec['alpha']}:{spec['k']}"
        computes = engine.counters["computes"]
        calls, maxtest_s = timer.snapshot() if timer else (0, 0.0)
        op = {"kind": spec["op"], "round": round_index, "version": version, "key": key}
        op.update(failed="", ref=reference.last(), repeat=spec.get("repeat", False))
        started = perf()
        try:
            status, raw, seconds = client.send(method, url, body)
        except (OSError, http.client.HTTPException) as error:
            op.update(seconds=perf() - started, failed=f"{type(error).__name__}: {error}")
            rec.ops.append(op)
            return op
        op["seconds"] = seconds
        op["bytes"] = len(raw)
        op["computed"] = engine.counters["computes"] > computes
        payload = json.loads(raw)
        if status != 200:
            op["failed"] = f"HTTP {status}: {payload.get('error', {}).get('code')}"
        elif spec["op"] == "edit":
            version += 1
            op["edit"] = spec["edit"]
        else:
            if payload["partial"] or payload["payload_truncated"] or payload["version_changed"]:
                op["failed"] = "partial or mislabelled response"
            text = json.dumps([item["nodes"] for item in payload["cliques"]])
            op["digest"] = answer_digest(text)
            op["stats"] = payload["stats"]
            op["server_ms"] = payload["elapsed_ms"]
            if not op["failed"]:
                rec.answers.setdefault(key, text)
        if timer is not None:
            op["maxtest_calls"] = timer.calls - calls
            op["maxtest_s"] = timer.seconds - maxtest_s
            op.update(totals.add(take_spans(observer)))
        rec.ops.append(op)
        return op

    # Warm-up on the base graph: compiles, fills the caches, and is checked.
    for mode, alpha, k in read_kinds():
        run_op({"op": "read", "mode": mode, "alpha": alpha, "k": k}, -1)
    run_op(next(spec for spec in job["stream"][0] if spec["op"] == "query"), -1)

    def one_round(index: int, timer=None, observer=None, totals=None) -> dict:
        total = repeats = 0.0
        for spec in job["stream"][index]:
            if spec["op"] == "edit":
                reference.sample()
            op = run_op(spec, index, timer, observer, totals)
            total += op["seconds"]
            if op["repeat"]:
                repeats += op["seconds"]
        return {"run_s": total, "alt_s": repeats}

    try:
        if not job["trace"]:
            rounds = timed_rounds(job["seconds"], one_round, setups, limit=len(job["stream"]))
            return result(setups.finish(), rounds, rec)

        untraced = one_round(0)
        first = [op for op in rec.ops if op["round"] == 0 and not op["failed"]]
        hits = [op for op in first if op["kind"] == "read" and not op["computed"]]
        misses = [op for op in first if op["kind"] == "read" and op["computed"]]
        layers = {
            "io.read_s": read_s,
            "obs.untraced_s": untraced["run_s"],
            "serve.hit_p50_ms": p50([op["seconds"] * 1e3 for op in hits]),
            "serve.hit_p90_ms": p90([op["seconds"] * 1e3 for op in hits]),
            "serve.miss_p50_ms": p50([op["seconds"] * 1e3 for op in misses]),
            "serve.query_p50_ms": p50([op["seconds"] * 1e3 for op in first if op["kind"] == "query"]),
            "serve.edit_p50_ms": p50([op["seconds"] * 1e3 for op in first if op["kind"] == "edit"]),
            "net.server_ms": p50([op["server_ms"] for op in hits]),
            "net.overhead_ms": p50([op["seconds"] * 1e3 - op["server_ms"] for op in hits]),
            "net.response_bytes": p50([op["bytes"] for op in first if op["kind"] == "read"]),
        }
        counters_before = dict(engine.counters)
        timer, totals = MaxtestTimer(), SpanTotals()
        with observing() as observer, timed_maxtests(timer):
            take_spans(observer)
            traced = one_round(1, timer, observer, totals)
        counters = {name: engine.counters[name] - counters_before[name] for name in engine.counters}
        second = [op for op in rec.ops if op["round"] == 1 and not op["failed"]]
        searched = [op for op in second if op["kind"] == "read" and op["computed"]]
        queries = [op for op in second if op["kind"] == "query"]
        # Reads that computed ran their maxtests inside the enumerate span;
        # queries and edit repairs search without one.
        inside = sum(op["maxtest_s"] for op in searched)
        layers.update(search_layers(searched, inside, timer, totals))
        layers.update(
            {
                "fastpath.compile_s": totals.seconds["compile"],
                "obs.traced_s": traced["run_s"],
                "serve.memory_hits": counters.get("memory_hits", 0),
                "serve.computes": counters.get("computes", 0),
                "serve.reduce_shared": counters.get("reduce_shared", 0),
                "serve.reduce_computed": counters.get("reduce_computed", 0),
                "serve.cliques_invalidated": counters.get("cliques_invalidated", 0),
                "serve.entries_invalidated": counters.get("entries_invalidated", 0),
                "serve.request_hit_ms": p50(
                    [op["request"] * 1e3 for op in second if op["kind"] == "read" and not op["computed"]]
                ),
                "serve.request_miss_ms": p50([op["request"] * 1e3 for op in searched]),
                "serve.update_ms": p50([op["update"] * 1e3 for op in second if op["kind"] == "edit"]),
                "query.recursions": sum(op["stats"]["recursions"] for op in queries),
                "query.ms": p50([op["request"] * 1e3 for op in queries]),
            }
        )
        layers.update(
            reduction_counts([(engine.snapshot(), alpha, k) for alpha, k in SERVE_POINTS], reduce_graph)
        )
        return result(setups.seconds, [untraced], rec, layers)
    finally:
        client.close()
        host.stop()


RUNNERS = {
    "enum-sweep": enum_sweep,
    "topr-artifact": topr_artifact,
    "serve-mixed": serve_mixed,
}


def environment() -> dict:
    """What the run measured on: kernel tier, versions and CPU count."""
    from repro.fastpath.backend import resolve_backend

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "kernel_tier": resolve_backend(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(ALL_CPUS),
    }


def main(argv: List[str]) -> int:
    job = json.loads(Path(argv[1]).read_text())
    sys.path.insert(0, job["src"])
    out = RUNNERS[job["workload"]](job)
    out["peak_rss_mb"] = out["rounds"][0].get("peak_rss_mb", peak_rss_mb())
    out["env"] = environment()
    Path(argv[2]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
