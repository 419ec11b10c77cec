"""Tests of the benchmark's own answer checks.

Run from the repository root: ``python3 -m pytest e2ebench/test_checks.py``.
The checks must reject a wrong answer, and must agree with a brute force
over every subset on small graphs.
"""

from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import (  # noqa: E402
    Adjacency,
    CheckFailure,
    check_answer,
    check_full,
    check_top,
    cliques_at_least,
    is_signed_clique,
    threshold,
)

#: The paper's Fig. 1 example; at (alpha, k) = (3, 1) its only maximal
#: clique is {1, 2, 3, 4, 5}.
PAPER_EDGES = [
    (1, 2, 1), (1, 3, 1), (1, 4, 1), (1, 5, 1),
    (2, 3, -1), (2, 4, 1), (2, 5, 1),
    (3, 4, 1), (3, 5, 1),
    (4, 5, 1),
    (2, 7, 1), (5, 7, 1), (6, 7, 1), (5, 6, 1), (3, 6, 1),
    (6, 8, 1), (7, 8, -1),
]
FIVE = frozenset({1, 2, 3, 4, 5})


@pytest.fixture
def paper():
    return Adjacency(PAPER_EDGES)


def brute_force(graph: Adjacency, alpha: float, k: int):
    t = threshold(alpha, k)
    nodes = sorted(graph.adj)
    valid = [
        frozenset(subset)
        for size in range(1, len(nodes) + 1)
        for subset in itertools.combinations(nodes, size)
        if is_signed_clique(graph, frozenset(subset), t, k)
    ]
    return {c for c in valid if not any(c < other for other in valid)}


def test_paper_example(paper):
    assert cliques_at_least(paper, 3, 1, 4) == {FIVE}
    check_full(paper, [FIVE], 3, 1, "paper")
    check_answer(paper, [FIVE], 3, 1, "paper")


def test_rejects_non_maximal_clique(paper):
    # {1, 2, 4, 5} is a valid (3, 1)-clique, but {1, 2, 3, 4, 5} holds it.
    smaller = frozenset({1, 2, 4, 5})
    with pytest.raises(CheckFailure, match="not maximal"):
        check_answer(paper, [smaller], 3, 1, "paper")
    with pytest.raises(CheckFailure):
        check_full(paper, [smaller], 3, 1, "paper")


def test_rejects_clique_over_its_k_budget():
    # A 5-clique where node 0 has two negative neighbours: fine at k=2,
    # over budget at k=1.
    edges = [(u, v, -1 if u == 0 and v in (1, 2) else 1) for u, v in itertools.combinations(range(5), 2)]
    graph = Adjacency(edges)
    members = frozenset(range(5))
    check_answer(graph, [members], 1, 2, "k=2")
    with pytest.raises(CheckFailure, match="bounds"):
        check_answer(graph, [members], 2, 1, "k=1")


def test_rejects_missing_clique():
    rng = random.Random(7)
    graph = Adjacency(
        (u, v, -1 if rng.random() < 0.3 else 1)
        for u, v in itertools.combinations(range(9), 2)
        if rng.random() < 0.8
    )
    truth = sorted(cliques_at_least(graph, 2, 1, 3), key=sorted)
    assert len(truth) >= 2
    check_full(graph, truth, 2, 1, "all")
    with pytest.raises(CheckFailure, match="missing"):
        check_full(graph, truth[1:], 2, 1, "one missing")


def test_rejects_duplicates_and_contained(paper):
    with pytest.raises(CheckFailure, match="duplicate"):
        check_answer(paper, [FIVE, FIVE], 3, 1, "paper")
    graph = Adjacency((u, v, 1) for u, v in itertools.combinations(range(4), 2))
    with pytest.raises(CheckFailure, match="inside"):
        check_answer(graph, [frozenset(range(4)), frozenset(range(3))], 1, 1, "nested")


def test_top_r_must_hold_the_largest():
    # Two disjoint positive cliques of sizes 6 and 4.
    edges = [(u, v, 1) for u, v in itertools.combinations(range(6), 2)]
    edges += [(u, v, 1) for u, v in itertools.combinations(range(10, 14), 2)]
    graph = Adjacency(edges)
    check_top(graph, [frozenset(range(6))], 1, 2, 1, "top-1")
    with pytest.raises(CheckFailure):
        check_top(graph, [frozenset(range(10, 14))], 1, 2, 1, "top-1")


@pytest.mark.parametrize("seed", range(60))
def test_matches_brute_force(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 11)
    p, q = rng.uniform(0.3, 0.95), rng.uniform(0.0, 0.5)
    graph = Adjacency(
        (u, v, -1 if rng.random() < q else 1)
        for u, v in itertools.combinations(range(n), 2)
        if rng.random() < p
    )
    if not graph.adj:
        return
    alpha, k = rng.choice([(1, 1), (2, 1), (1.5, 2), (1, 2), (3, 1)])
    t = threshold(alpha, k)
    expected = {c for c in brute_force(graph, alpha, k) if len(c) >= t + 1}
    assert cliques_at_least(graph, t, k, t + 1) == expected

