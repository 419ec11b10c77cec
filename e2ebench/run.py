"""End-to-end benchmark of the signed-clique search system.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload enum-sweep --seed 1 --seconds 15 --trace 0

Workloads (see README.md for why each exists):

* ``enum-sweep``    -- ``repro enumerate`` on four edge lists, serial and
  ``--workers 2``;
* ``topr-artifact`` -- ``repro top`` on compiled artifacts, cold and with
  ``--warm-start portfolio``;
* ``serve-mixed``   -- one closed-loop HTTP client against an in-process
  ``CliqueServer``, sign flips mixed into reads and community searches.

The seed makes the inputs; the program only receives the files. A child
process (workloads.py) runs the program; this process checks every
answer with its own code (checks.py) and prints, as the last line of
standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer split with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".e2ebench-work"

#: Workload names and every metric's name and unit come from here.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}

#: Each of these silently changes the path measured (kernel tier, model,
#: worker transport, spill budget, in-program tracing).
GUARDED_ENV = (
    "REPRO_BACKEND",
    "REPRO_MODEL",
    "REPRO_TRANSPORT",
    "REPRO_MEMORY_BUDGET",
    "REPRO_OBS",
    "REPRO_OBS_JOURNAL",
)

#: A run's wall time is bounded well under the three minutes a run may take.
CHILD_TIMEOUT = 140


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fail(message: str) -> int:
    print(f"e2ebench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = parse_args(argv)
    guarded = [name for name in GUARDED_ENV if name in os.environ]
    if guarded:
        return fail(f"refusing to run with {', '.join(guarded)} set: it changes the path measured")
    if not (SRC / "repro" / "__init__.py").is_file():
        return fail(f"no program source at {SRC}")
    sys.path.insert(0, str(SRC))

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def measure(args, work: Path) -> int:
    from checks import Adjacency, CheckFailure, answer_digest
    from inputs import SERVE_DATASET, serve_stream, write_edge_lists

    paths = write_edge_lists(args.workload, args.seed, work / "inputs")
    graphs = {name: Adjacency.read(path) for name, path in paths.items()}
    job = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "src": str(SRC),
        "paths": {name: str(path) for name, path in paths.items()},
        "artifact_dir": str(work),
    }
    if args.workload == "serve-mixed":
        job["stream"] = serve_stream(graphs[SERVE_DATASET], args.seed)
    (work / "job.json").write_text(json.dumps(job))
    env = dict(os.environ, TMPDIR=str(work))
    try:
        subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), str(work / "job.json"), str(work / "out.json")],
            check=True,
            timeout=CHILD_TIMEOUT,
            stdout=sys.stderr,
            env=env,
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
        return fail(f"workload process failed: {error}")
    out = json.loads((work / "out.json").read_text())
    out["digests"] = {key: answer_digest(text) for key, text in out["answers"].items()}
    out["answers"] = {key: json.loads(text) for key, text in out["answers"].items()}

    ops = out["ops"]
    failed = [op for op in ops if op["failed"]]
    for op in failed[:5]:
        print(f"e2ebench: failed operation {op['kind']} {op.get('key')}: {op['failed']}", file=sys.stderr)
    try:
        CHECKERS[args.workload](graphs, out)
        correct = True
    except CheckFailure as error:
        print(f"e2ebench: check failed: {error}", file=sys.stderr)
        correct = False

    if args.trace:
        layers = out["layers"]
        metrics = {
            name: {"value": layers.get(name, 0), "unit": unit} for name, unit in PER_LAYER.items()
        }
    else:
        run_path, alt_path = PATHS[args.workload]
        values = {
            "setup_s": statistics.median(out["setup_s"]),
            "run_ref": in_reference_units(out, run_path),
            "alt_ref": in_reference_units(out, alt_path),
            "peak_rss_mb": out["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    rounds = [{name: round(r[name], 4) for name in ("run_s", "alt_s")} for r in out["rounds"]]
    print("env: " + json.dumps(
        {**out["env"], "rounds": rounds, "reference_s": [round(x, 4) for x in out.get("reference_s", [])]}
    ))
    print(
        json.dumps(
            {"correct": correct, "attempted": len(ops), "failed": len(failed), "metrics": metrics}
        )
    )
    return 0 if correct else 1


#: Which operations make up each workload's two timed paths.
PATHS = {
    "enum-sweep": (lambda op: op["kind"] == "serial", lambda op: op["kind"] == "workers2"),
    "topr-artifact": (lambda op: op["kind"] == "cold", lambda op: op["kind"] == "warm"),
    # The second and third read of each kind after a flip: a set fixed by
    # the stream, not by which reads the engine's cache happens to answer.
    "serve-mixed": (lambda op: True, lambda op: op["kind"] == "read" and op["repeat"]),
}


def in_reference_units(out: dict, on_path) -> float:
    """Median over rounds of the path's time, each operation divided by
    the mean of the reference samples taken just before and after it.

    A failed operation's time counts too, so failing fast cannot make a
    path look faster.
    """
    samples = out["reference_s"]
    rounds: dict = {}
    for op in out["ops"]:
        if op["round"] < 0 or not on_path(op):
            continue
        speed = (samples[op["ref"]] + samples[op["ref"] + 1]) / 2
        rounds[op["round"]] = rounds.get(op["round"], 0.0) + op["seconds"] / speed
    return statistics.median(rounds.values())


# ---------------------------------------------------------------------------
# Answer checks per workload
# ---------------------------------------------------------------------------
def _same_everywhere(out: dict, key: str, compare_stats: bool) -> None:
    """Every operation on *key* returned the first answer (and stats)."""
    from checks import CheckFailure

    digest = out["digests"][key]
    stats = None
    for op in out["ops"]:
        if op["key"] != key or op["failed"]:
            continue
        if op["digest"] != digest:
            raise CheckFailure(f"{key}: {op['kind']} round {op['round']} returned another answer")
        if "maxtest_calls" in op and op["maxtest_calls"] != op["stats"]["maxtests"]:
            raise CheckFailure(
                f"{key}: {op['maxtest_calls']} timed maxtest calls, "
                f"SearchStats.maxtests = {op['stats']['maxtests']}"
            )
        if compare_stats:
            if stats is None:
                stats = op["stats"]
            elif op["stats"] != stats:
                raise CheckFailure(f"{key}: {op['kind']} round {op['round']} has other SearchStats")


def _answered(out: dict, key: str) -> str:
    """*key*, once at least one operation on it returned a whole answer."""
    from checks import CheckFailure

    if key not in out["answers"]:
        raise CheckFailure(f"{key}: no operation returned an answer")
    return key


def check_enum(graphs, out) -> None:
    from checks import check_full
    from inputs import ENUM_POINTS

    for name, alpha, k in ENUM_POINTS:
        key = _answered(out, f"{name}:{alpha}:{k}")
        # Serial, --workers 2, the compiled tiers and every round agree
        # in cliques and SearchStats.
        _same_everywhere(out, key, compare_stats=True)
        check_full(graphs[name], [frozenset(c) for c in out["answers"][key]], alpha, k, key)


def check_topr(graphs, out) -> None:
    from checks import CheckFailure, check_top
    from inputs import TOPR_POINTS

    for name, alpha, k, r in TOPR_POINTS:
        key = _answered(out, f"{name}:{alpha}:{k}:{r}")
        # Warm equals cold, run after run; only cold SearchStats repeat
        # (the portfolio's incumbents depend on its wall-clock budget).
        _same_everywhere(out, key, compare_stats=False)
        cold = [op["stats"] for op in out["ops"] if op["key"] == key and op["kind"] == "cold" and not op["failed"]]
        if any(stats != cold[0] for stats in cold):
            raise CheckFailure(f"{key}: cold SearchStats differ between rounds")
        check_top(graphs[name], [frozenset(c) for c in out["answers"][key]], alpha, k, r, key)


def check_serve(graphs, out) -> None:
    from checks import Adjacency, CheckFailure, check_full, check_top, cliques_at_least, threshold
    from inputs import SERVE_DATASET, SERVE_QUERY_POINT, SERVE_TOP_R

    replica = Adjacency(graphs[SERVE_DATASET].edges())
    digests = out["digests"]
    truth = {}
    checked = set()
    version = 0

    def reference(alpha, k):
        if (alpha, k) not in truth:
            t = threshold(alpha, k)
            truth[(alpha, k)] = cliques_at_least(replica, t, k, t + 1)
        return truth[(alpha, k)]

    for op in out["ops"]:
        if op["failed"]:
            if op["kind"] == "edit":
                raise CheckFailure("an edit failed; the replica can no longer follow the graph")
            continue
        if op["kind"] == "edit":
            _flip, u, v, sign = op["edit"]
            replica.set_edge(u, v, sign)
            truth.clear()
            version += 1
            continue
        key = op["key"]
        if op["version"] != version:
            raise CheckFailure(f"{key}: answered on version {op['version']}, expected {version}")
        if op["digest"] != digests[key]:
            raise CheckFailure(f"{key}: a repeated read returned another answer")
        if "maxtest_calls" in op:
            expected = op["stats"]["maxtests"] if op["computed"] else 0
            if op["maxtest_calls"] != expected:
                raise CheckFailure(
                    f"{key}: {op['maxtest_calls']} timed maxtest calls, expected {expected}"
                )
        if key in checked:
            continue
        checked.add(key)
        answer = [frozenset(c) for c in out["answers"][key]]
        if op["kind"] == "query":
            alpha, k = SERVE_QUERY_POINT
            node = int(key.rsplit(":", 1)[1])
            expected = {c for c in reference(alpha, k) if node in c}
            if len(set(answer)) != len(answer) or set(answer) != expected:
                raise CheckFailure(f"{key}: community search answer differs from the maximal cliques through {node}")
            continue
        _version, mode, alpha, k = key.split(":")
        alpha, k = float(alpha), int(k)
        if mode == "all":
            check_full(replica, answer, alpha, k, key, truth=reference(alpha, k))
        else:
            check_top(replica, answer, alpha, k, SERVE_TOP_R, key, truth=reference(alpha, k))


CHECKERS = {
    "enum-sweep": check_enum,
    "topr-artifact": check_topr,
    "serve-mixed": check_serve,
}


if __name__ == "__main__":
    raise SystemExit(main())
