"""Exhaustive generation of simple 3-regular graphs on up to 10 vertices.

Growth operation: pick two distinct edge instances, subdivide each, and join
the two new midpoints.  Over *multigraphs* (loops and parallel edges
allowed) the reverse operation — contracting the two endpoints of any edge
whose endpoints are distinct, loop-free, and not doubly joined — always
lands back in the class, so growing from the two cubic multigraphs on 2
vertices (triple edge; two loops joined by an edge) reaches every cubic
multigraph.  Multigraphs are deduplicated up to isomorphism only up to 8
vertices, where they are the parents; on 10 vertices only the simple
children are kept and deduplicated.  Exhaustiveness is certified by the
known isomorphism counts: 1, 2, 5, 19 connected cubic graphs on 4, 6, 8, 10
vertices.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

import networkx as nx

from stardecomp.graph import SimpleGraph

_CONNECTED_COUNTS = {4: 1, 6: 2, 8: 5, 10: 19}

# A multigraph here is a sorted tuple of (u, v) pairs with u <= v; a loop
# (v, v) contributes 2 to the degree of v.
Edges = tuple


def _canon(n: int, edges) -> Edges:
    return tuple(sorted(tuple(sorted(e)) for e in edges))


_PARENT_MAX = 8


def _to_nx_multi(n: int, edges: Edges) -> nx.MultiGraph:
    g = nx.MultiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def _to_nx_simple(n: int, edges: Edges) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def _simple_key(n: int, edges: Edges):
    # Isomorphism invariant: each vertex's BFS layer sizes and triangle
    # count, as a multiset.  Collisions fall through to exact iso.
    g = _to_nx_simple(n, edges)
    triangles = nx.triangles(g)
    sig = []
    for v in range(n):
        layers = Counter(nx.single_source_shortest_path_length(g, v).values())
        sig.append((tuple(layers[i] for i in range(len(layers))), triangles[v]))
    return tuple(sorted(sig))


def _multi_key(n: int, edges: Edges):
    # WL hash of a simple-graph encoding: edge labels carry multiplicity,
    # node labels carry loop counts.  Collisions fall through to exact iso.
    mult = Counter(e for e in edges if e[0] != e[1])
    loops = Counter(u for u, v in edges if u == v)
    g = nx.Graph()
    for v in range(n):
        g.add_node(v, loops=str(loops.get(v, 0)))
    for (u, v), m in mult.items():
        g.add_edge(u, v, w=str(m))
    return (
        n,
        nx.weisfeiler_lehman_graph_hash(g, edge_attr="w", node_attr="loops", iterations=3),
    )


def _insertions(n: int, edges: Edges):
    """All cubic multigraphs from subdividing two edge instances and joining."""
    a, b = n, n + 1
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            keep = [e for idx, e in enumerate(edges) if idx not in (i, j)]
            u1, v1 = edges[i]
            u2, v2 = edges[j]
            new = keep + [(u1, a), (v1, a), (u2, b), (v2, b), (a, b)]
            yield n + 2, _canon(n + 2, new)


def _dedup(items, key, build):
    buckets: dict = {}
    out = []
    for n, edges in items:
        reps = buckets.setdefault(key(n, edges), [])
        g = build(n, edges)
        if any(nx.is_isomorphic(g, h) for h in reps):
            continue
        reps.append(g)
        out.append((n, edges))
    return out


def _grown(n: int) -> list:
    """Cubic multigraphs on n vertices, with repeats, from the smaller ones."""
    grown = []
    for m, edges in _cubic_multigraphs(n - 2):
        grown.extend(_insertions(m, edges))
    # disjoint unions of smaller pieces
    for n1 in range(2, n // 2 + 1, 2):
        n2 = n - n1
        for _, e1 in _cubic_multigraphs(n1):
            for _, e2 in _cubic_multigraphs(n2):
                shifted = [(u + n1, v + n1) for u, v in e2]
                grown.append((n, _canon(n, list(e1) + shifted)))
    return grown


@lru_cache(maxsize=None)
def _cubic_multigraphs(n: int) -> tuple:
    """Every cubic multigraph on n <= 8 vertices (connected or not), up to iso."""
    assert n <= _PARENT_MAX
    if n == 2:
        return ((2, _canon(2, [(0, 1)] * 3)), (2, _canon(2, [(0, 0), (1, 1), (0, 1)])))
    return tuple(_dedup(_grown(n), _multi_key, _to_nx_multi))


def _is_simple(edges: Edges) -> bool:
    return all(u != v for u, v in edges) and len(set(edges)) == len(edges)


@lru_cache(maxsize=None)
def _simple_cubic(n: int) -> tuple:
    """Every simple cubic graph on n vertices (connected or not), up to iso."""
    if n <= _PARENT_MAX:
        return tuple((m, e) for m, e in _cubic_multigraphs(n) if _is_simple(e))
    # A simple graph's parent need not be simple, so grow from all parents
    # and keep only the simple children.
    simple = dict.fromkeys((m, e) for m, e in _grown(n) if _is_simple(e))
    return tuple(_dedup(simple, _simple_key, _to_nx_simple))


def _as_simple(n: int, edges: Edges) -> SimpleGraph:
    return SimpleGraph(N=n, d=3, edges=tuple(sorted(edges)))


@lru_cache(maxsize=None)
def all_cubic_graphs(n: int) -> tuple[SimpleGraph, ...]:
    """Every simple cubic graph on n vertices, connected or not, up to iso."""
    connected_cubic_graphs(n)  # trigger the count certification
    return tuple(_as_simple(m, e) for m, e in _simple_cubic(n))


@lru_cache(maxsize=None)
def connected_cubic_graphs(n: int) -> tuple[SimpleGraph, ...]:
    out = []
    for m, edges in _simple_cubic(n):
        if nx.is_connected(_to_nx_simple(m, edges)):
            out.append(_as_simple(m, edges))
    assert len(out) == _CONNECTED_COUNTS[n], (
        f"expected {_CONNECTED_COUNTS[n]} connected cubic graphs on {n} "
        f"vertices, generated {len(out)}"
    )
    return tuple(out)
