"""Seeded benchmark inputs: edge-list files, artifacts' sources and the
serve-mixed operation stream.

The graphs are the paper's dataset stand-ins at their fixed builder
seeds (``load_dataset(name, DATASET_SEEDS[name])``). The benchmark seed
shuffles the order and orientation of the edge-list lines, picks the
serve-mixed edits, queries and read order, and nothing else: drawing
the graphs themselves from the seed makes the work per run differ by
up to 2.7x between seeds (the enum-sweep points take 3.0-8.0 s serially
over seeds 1-5), which would measure the generator instead of the
program. Line order and orientation leave the search tree unchanged
(identical SearchStats), so every seed does the same work.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Dict, List, Tuple

#: Builder seeds of the stand-ins (the defaults of repro.generators.datasets).
DATASET_SEEDS = {"slashdot": 1, "dblp": 3, "youtube": 4, "pokec": 5}

#: enum-sweep: Fig. 5 points where the full search finishes.
ENUM_POINTS: List[Tuple[str, float, int]] = [
    ("slashdot", 2, 3),
    ("dblp", 6, 1),
    ("youtube", 2, 1),
    ("pokec", 2, 3),
]

#: topr-artifact: (dataset, alpha, k, r).
TOPR_POINTS: List[Tuple[str, float, int, int]] = [
    ("dblp", 3, 2, 1),
    ("dblp", 2, 1, 50),
    ("slashdot", 2, 3, 10),
    ("slashdot", 4, 3, 1),
]

#: serve-mixed: the hosted stand-in, its read points and the query point.
SERVE_DATASET = "slashdot"
SERVE_POINTS: List[Tuple[float, int]] = [(4, 3), (3, 4), (6, 2)]
SERVE_QUERY_POINT: Tuple[float, int] = (4, 3)
SERVE_TOP_R = 10
#: One round: SEGMENTS x (one sign flip, then READS_PER_KIND reads of
#: each of the six read kinds and one query, shuffled), so every round
#: holds 10 edits, 60 first reads of a kind after a flip, 120 repeat
#: reads and 10 queries. Today the first reads recompute and the repeats
#: are memory hits.
SEGMENTS = 10
READS_PER_KIND = 3
#: Rounds drawn ahead; a run uses the prefix its time allows.
MAX_ROUNDS = 12

WORKLOAD_DATASETS = {
    "enum-sweep": sorted({name for name, _, _ in ENUM_POINTS}),
    "topr-artifact": sorted({name for name, _, _, _ in TOPR_POINTS}),
    "serve-mixed": [SERVE_DATASET],
}


def read_kinds() -> List[Tuple[str, float, int]]:
    """The six serve-mixed read kinds: (mode, alpha, k)."""
    return [(mode, alpha, k) for alpha, k in SERVE_POINTS for mode in ("all", "top")]


def write_edge_lists(workload: str, seed: int, directory: Path) -> Dict[str, Path]:
    """Write each dataset the workload needs as ``<name>.txt``.

    Returns the paths; the sign-split edges are what the checks read.
    """
    from repro.generators.datasets import load_dataset

    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    paths = {}
    for name in WORKLOAD_DATASETS[workload]:
        graph = load_dataset(name, DATASET_SEEDS[name]).graph
        lines = []
        for u, v, sign in graph.edges():
            if rng.random() < 0.5:
                u, v = v, u
            lines.append(f"{u} {v} {sign}\n")
        lines.sort()
        rng.shuffle(lines)
        path = directory / f"{name}.txt"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"# {name} stand-in, builder seed {DATASET_SEEDS[name]}\n")
            handle.writelines(lines)
        paths[name] = path
    return paths


def serve_stream(graph, seed: int) -> List[List[dict]]:
    """MAX_ROUNDS rounds of serve-mixed operations drawn from *seed*.

    *graph* is the benchmark's own adjacency of the hosted stand-in
    (:class:`checks.Adjacency`); it is copied, so flips can name the
    sign each edge has at that point of the stream.
    """
    from checks import Adjacency, cliques_at_least, threshold

    rng = random.Random(seed * 7919 + 17)
    replica = Adjacency(graph.edges())
    edges = sorted((u, v) for u, v, _ in replica.edges())
    alpha, k = SERVE_QUERY_POINT
    t = threshold(alpha, k)
    # Members of the base graph's maximal cliques at the query point, so
    # a query searches instead of failing its first core test.
    query_nodes = sorted(set().union(*cliques_at_least(replica, t, k, t + 1)))
    rounds = []
    for _ in range(MAX_ROUNDS):
        ops: List[dict] = []
        for _ in range(SEGMENTS):
            u, v = rng.choice(edges)
            sign = -replica.sign(u, v)
            replica.set_edge(u, v, sign)
            ops.append({"op": "edit", "edit": ["flip", u, v, sign]})
            segment = [
                {"op": "read", "mode": mode, "alpha": a, "k": kk}
                for mode, a, kk in read_kinds()
                for _ in range(READS_PER_KIND)
            ]
            segment.append({"op": "query", "node": rng.choice(query_nodes)})
            rng.shuffle(segment)
            seen = set()
            for spec in segment:
                if spec["op"] == "read":
                    kind = (spec["mode"], spec["alpha"], spec["k"])
                    spec["repeat"] = kind in seen
                    seen.add(kind)
            ops.extend(segment)
        rounds.append(ops)
    return rounds
