"""Answer checks that share no code with the program under test.

Everything here works on a plain dict-of-sets built from the edge list
the benchmark itself wrote, so a fault in the program's graph, kernel or
search layers cannot hide itself by also breaking its own verifier.

A maximal (alpha, k)-clique C satisfies:

* C is a clique of the sign-blind graph;
* every member has at most ``k`` negative neighbours inside C;
* every member has at least ``t = ceil(alpha * k)`` positive neighbours
  inside C;
* no strict superset of C satisfies the three conditions above.

The constraint is not hereditary (a subset can lose positive degree),
so maximality is decided by an exhaustive search for a valid extension
inside the common neighbourhood of C. The reference answer is built
node by node: every maximal clique whose smallest member is v lies in
N[v], so an exhaustive search there, filtered by that maximality test,
finds it.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple


class CheckFailure(AssertionError):
    """An answer broke a property every correct answer has."""


class Adjacency:
    """Sign-split adjacency sets of one signed graph."""

    def __init__(self, edges: Iterable[Tuple[int, int, int]] = ()):
        self.pos: Dict[int, Set[int]] = {}
        self.neg: Dict[int, Set[int]] = {}
        self.adj: Dict[int, Set[int]] = {}
        for u, v, sign in edges:
            self.set_edge(u, v, sign)

    @classmethod
    def read(cls, path) -> "Adjacency":
        """Parse a ``u v sign`` edge list (``#`` comment lines allowed)."""
        graph = cls()
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if not parts or parts[0].startswith("#"):
                    continue
                graph.set_edge(int(parts[0]), int(parts[1]), int(parts[2]))
        return graph

    def _node(self, u: int) -> None:
        if u not in self.adj:
            self.pos[u] = set()
            self.neg[u] = set()
            self.adj[u] = set()

    def set_edge(self, u: int, v: int, sign: int) -> None:
        """Add the edge, or overwrite its sign when it exists."""
        self._node(u)
        self._node(v)
        keep, drop = (self.pos, self.neg) if sign > 0 else (self.neg, self.pos)
        keep[u].add(v)
        keep[v].add(u)
        drop[u].discard(v)
        drop[v].discard(u)
        self.adj[u].add(v)
        self.adj[v].add(u)

    def sign(self, u: int, v: int) -> int:
        if v in self.pos[u]:
            return 1
        if v in self.neg[u]:
            return -1
        raise KeyError((u, v))

    def edges(self) -> List[Tuple[int, int, int]]:
        return [
            (u, v, 1 if v in self.pos[u] else -1)
            for u in self.adj
            for v in self.adj[u]
            if u < v
        ]


def threshold(alpha: float, k: int) -> int:
    return math.ceil(alpha * k)


def is_signed_clique(graph: Adjacency, members: FrozenSet[int], t: int, k: int) -> bool:
    """Sign-blind clique with every member inside both degree bounds."""
    for u in members:
        if u not in graph.adj:
            return False
        others = members - {u}
        if not others <= graph.adj[u]:
            return False
        if len(graph.neg[u] & others) > k:
            return False
        if len(graph.pos[u] & others) < t:
            return False
    return True


def _addable(graph: Adjacency, current: Set[int], negs: Dict[int, int], x: int, k: int) -> bool:
    """Whether adding x to *current* keeps every negative degree within k."""
    inside = graph.neg[x] & current
    if len(inside) > k:
        return False
    return all(negs[w] < k for w in inside)


def _peel(graph: Adjacency, fixed: Set[int], candidates: Set[int], t: int) -> Optional[Set[int]]:
    """Drop candidates that cannot reach t positive neighbours in any
    solution inside ``fixed | candidates``; ``None`` when a fixed node
    cannot reach it either."""
    if t <= 0:
        return candidates
    candidates = set(candidates)
    while True:
        universe = fixed | candidates
        for u in fixed:
            if len(graph.pos[u] & universe) < t:
                return None
        weak = {x for x in candidates if len(graph.pos[x] & universe) < t}
        if not weak:
            return candidates
        candidates -= weak


def _search(
    graph: Adjacency,
    current: Set[int],
    negs: Dict[int, int],
    candidates: Set[int],
    t: int,
    k: int,
    visit,
    min_size: int = 0,
) -> bool:
    """Exhaustive include/exclude search over *candidates*.

    ``visit(members)`` is called on every set that is the only possible
    maximal solution of its subtree (a leaf, or a whole subtree whose
    union is itself valid); a ``True`` return stops the search. Subtrees
    whose union is smaller than *min_size* are skipped.
    """
    peeled = _peel(graph, current, candidates, t)
    if peeled is None:
        return False
    candidates = peeled
    union = current | candidates
    if len(union) < min_size:
        return False
    if is_signed_clique(graph, frozenset(union), t, k):
        return bool(visit(frozenset(union)))
    if not candidates:
        return False
    pivot = _most_conflicted(graph, union, candidates, k)
    rest = candidates - {pivot}
    grown = current | {pivot}
    grown_negs = dict(negs)
    grown_negs[pivot] = len(graph.neg[pivot] & current)
    for w in graph.neg[pivot] & current:
        grown_negs[w] += 1
    kept = {
        x
        for x in rest & graph.adj[pivot]
        if _addable(graph, grown, grown_negs, x, k)
    }
    if _search(graph, grown, grown_negs, kept, t, k, visit, min_size):
        return True
    return _search(graph, current, negs, rest, t, k, visit, min_size)


def _most_conflicted(graph: Adjacency, union: Set[int], candidates: Set[int], k: int) -> int:
    """The candidate involved in the most violations inside *union*:
    missing edges, plus negative degrees over k at itself or at its
    negative neighbours. Branching on it settles the most conflicts."""
    excess = {u: len(graph.neg[u] & union) - k for u in union}
    size = len(union) - 1

    def conflict(x: int):
        missing = size - len(graph.adj[x] & union)
        over = sum(excess[y] for y in graph.neg[x] & union if excess[y] > 0)
        return (missing + over + max(excess[x], 0), -x)

    return max(candidates, key=conflict)


def _common_neighbours(graph: Adjacency, members: FrozenSet[int]) -> Set[int]:
    ordered = sorted(members, key=lambda u: len(graph.adj[u]))
    common = set(graph.adj[ordered[0]])
    for u in ordered[1:]:
        common &= graph.adj[u]
    return common - members


def is_maximal(graph: Adjacency, members: FrozenSet[int], t: int, k: int) -> bool:
    """True iff no strict superset of the valid clique *members* is valid."""
    current = set(members)
    negs = {u: len(graph.neg[u] & current) for u in current}
    viable = {
        x for x in _common_neighbours(graph, members) if _addable(graph, current, negs, x, k)
    }
    if not viable:
        return True

    def found(union: FrozenSet[int]) -> bool:
        return len(union) > len(members)

    # Search extensions only: every candidate set already contains C, so
    # any valid set the search reports with a new node is a superset.
    return not _search(graph, current, negs, viable, t, k, found)


def cliques_through(
    graph: Adjacency,
    node: int,
    t: int,
    k: int,
    min_size: int = 0,
    within: Optional[Set[int]] = None,
) -> Set[FrozenSet[int]]:
    """Every maximal (alpha, k)-clique of the graph that contains *node*
    and has at least *min_size* members, searching only its neighbours
    in *within* (which must hold every other member of those cliques)."""
    found: Set[FrozenSet[int]] = set()
    memo: Dict[FrozenSet[int], bool] = {}

    def visit(union: FrozenSet[int]) -> bool:
        if len(union) >= min_size:
            if union not in memo:
                memo[union] = is_maximal(graph, union, t, k)
            if memo[union]:
                found.add(union)
        return False

    if node not in graph.adj:
        return found
    current = {node}
    negs = {node: 0}
    neighbours = graph.adj[node] if within is None else graph.adj[node] & within
    candidates = {x for x in neighbours if _addable(graph, current, negs, x, k)}
    if min_size:
        candidates = _size_filter(graph, current, candidates, min_size)
    _search(graph, current, negs, candidates, t, k, visit, min_size)
    return found


def positive_core(graph: Adjacency, t: int) -> Set[int]:
    """Nodes of the positive-edge t-core: every member of a valid clique
    has t positive neighbours inside it, so all members lie here."""
    core = set(graph.adj)
    degree = {u: len(graph.pos[u]) for u in core}
    queue = [u for u in core if degree[u] < t]
    while queue:
        u = queue.pop()
        if u not in core:
            continue
        core.discard(u)
        for w in graph.pos[u]:
            if w in core:
                degree[w] -= 1
                if degree[w] < t:
                    queue.append(w)
    return core


def _size_filter(graph: Adjacency, fixed: Set[int], candidates: Set[int], min_size: int) -> Set[int]:
    """Keep candidates with enough neighbours to sit in a min_size clique."""
    need = min_size - 1
    candidates = set(candidates)
    while True:
        weak = {
            x for x in candidates if len(graph.adj[x] & (fixed | candidates)) < need
        }
        if not weak:
            return candidates
        candidates -= weak


def cliques_at_least(graph: Adjacency, t: int, k: int, min_size: int) -> Set[FrozenSet[int]]:
    """Every maximal (alpha, k)-clique with at least *min_size* members."""
    found: Set[FrozenSet[int]] = set()
    remaining = positive_core(graph, t)
    for node in sorted(remaining):
        # Each clique is found once, from its smallest member.
        remaining.discard(node)
        if len(graph.adj[node]) >= min_size - 1:
            found |= cliques_through(graph, node, t, k, min_size, within=remaining)
    return found


def check_answer(
    graph: Adjacency, cliques: List[FrozenSet[int]], alpha: float, k: int, label: str
) -> None:
    """Validity, no duplicates, no containment, and maximality."""
    t = threshold(alpha, k)
    if len(set(cliques)) != len(cliques):
        raise CheckFailure(f"{label}: duplicate cliques")
    by_node: Dict[int, List[FrozenSet[int]]] = {}
    for clique in cliques:
        if not is_signed_clique(graph, clique, t, k):
            raise CheckFailure(f"{label}: {sorted(clique)} breaks the (alpha, k) bounds")
        for u in clique:
            by_node.setdefault(u, []).append(clique)
    for clique in cliques:
        anchor = min(clique, key=lambda u: len(by_node[u]))
        for other in by_node[anchor]:
            if clique < other:
                raise CheckFailure(f"{label}: {sorted(clique)} lies inside {sorted(other)}")
        if not is_maximal(graph, clique, t, k):
            raise CheckFailure(f"{label}: {sorted(clique)} is not maximal")


def check_full(
    graph: Adjacency,
    cliques: List[FrozenSet[int]],
    alpha: float,
    k: int,
    label: str,
    truth: Optional[Set[FrozenSet[int]]] = None,
) -> None:
    """The answer is exactly the independently enumerated maximal cliques.

    *truth*, when given, is that enumeration made beforehand.
    """
    if truth is None:
        t = threshold(alpha, k)
        truth = cliques_at_least(graph, t, k, t + 1)
    if len(set(cliques)) != len(cliques):
        raise CheckFailure(f"{label}: duplicate cliques")
    if set(cliques) != truth:
        missing, wrong = truth - set(cliques), set(cliques) - truth
        raise CheckFailure(
            f"{label}: {len(missing)} maximal clique(s) missing, {len(wrong)} wrong "
            f"(of {len(truth)} found independently)"
        )


def check_top(
    graph: Adjacency,
    cliques: List[FrozenSet[int]],
    alpha: float,
    k: int,
    r: int,
    label: str,
    truth: Optional[Set[FrozenSet[int]]] = None,
) -> None:
    """Top-r sizes equal the r largest sizes of the full answer.

    *truth*, when given, is the full answer enumerated beforehand.
    """
    check_answer(graph, cliques, alpha, k, label)
    if not cliques:
        raise CheckFailure(f"{label}: no cliques returned")
    floor = min(len(clique) for clique in cliques)
    if truth is None:
        reference = cliques_at_least(graph, threshold(alpha, k), k, floor)
    else:
        reference = {clique for clique in truth if len(clique) >= floor}
    if not set(cliques) <= reference:
        raise CheckFailure(f"{label}: returned a clique outside the full answer")
    expected = sorted((len(c) for c in reference), reverse=True)[:r]
    got = sorted((len(c) for c in cliques), reverse=True)
    if got != expected:
        raise CheckFailure(f"{label}: sizes {got} differ from the r largest {expected}")


def answer_digest(text: str) -> str:
    """Digest of an answer encoded as JSON text of sorted node lists.

    Answers travel as text, not lists: the workload process keeps them
    out of the garbage collector's way while it is being timed.
    """
    import hashlib

    return hashlib.sha256(text.encode()).hexdigest()[:32]
