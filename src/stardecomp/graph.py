"""Regular-graph representations, half-edge pairing model, edge counting.

A ``MultiGraph`` is a perfect matching of N*d labeled half-edges; half-edge
``i`` belongs to vertex ``i // d``.  Loops and parallel edges are allowed;
a loop is a single edge contributing 2 to its vertex's degree.  A
``SimpleGraph`` is the loop/multi-edge-free case with an explicit edge list
whose index order defines the edge ids used everywhere downstream.

Randomness is reproducible: generators take a 64-bit seed, and per-trial
sub-seeds are derived as (seed, trial) seed sequences so that serial and
parallel runs agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "GraphError",
    "ParityError",
    "ExhaustionError",
    "FormatError",
    "MultiGraph",
    "SimpleGraph",
    "gen_configuration",
    "is_simple",
    "multigraph_to_simple",
    "reject_to_simple",
    "sample_simple",
    "edges_within",
    "edges_between",
    "enumerate_pairings",
    "read_graph",
    "write_graph",
    "complete_graph",
    "cycle_graph",
]


class GraphError(ValueError):
    pass


class ParityError(GraphError):
    """N*d is odd: no perfect pairing of half-edges exists."""


class ExhaustionError(GraphError):
    """Rejection sampling did not produce a simple graph in time."""

    def __init__(self, attempts: int):
        super().__init__(f"no simple graph after {attempts} attempts")
        self.attempts = attempts


class FormatError(GraphError):
    """A graph file does not conform to the text format."""


@dataclass(frozen=True)
class MultiGraph:
    """d-regular multigraph as a pairing of N*d half-edges."""

    N: int
    d: int
    pairing: tuple[tuple[int, int], ...]  # unordered half-edge pairs

    def __post_init__(self):
        seen = [False] * (self.N * self.d)
        for a, b in self.pairing:
            for he in (a, b):
                if not 0 <= he < self.N * self.d or seen[he]:
                    raise GraphError("pairing is not a perfect matching of half-edges")
                seen[he] = True
        if not all(seen):
            raise GraphError("pairing leaves half-edges unmatched")

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Vertex pairs (u, v) with u <= v, one per half-edge pair."""
        d = self.d
        out = []
        for a, b in self.pairing:
            u, v = a // d, b // d
            out.append((u, v) if u <= v else (v, u))
        return out

    def degrees(self) -> list[int]:
        deg = [0] * self.N
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1  # a loop adds 2 to its vertex
        return deg


@dataclass(frozen=True)
class SimpleGraph:
    """Simple d-regular graph; edge ids are list positions."""

    N: int
    d: int
    edges: tuple[tuple[int, int], ...]  # (u, v) with u < v

    def __post_init__(self):
        deg = [0] * self.N
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < v < self.N):
                raise GraphError(f"bad edge ({u}, {v}): need 0 <= u < v < N")
            if (u, v) in seen:
                raise GraphError(f"parallel edge ({u}, {v})")
            seen.add((u, v))
            deg[u] += 1
            deg[v] += 1
        for v, dv in enumerate(deg):
            if dv != self.d:
                raise GraphError(f"vertex {v} has degree {dv}, expected {self.d}")

    def incident_edges(self) -> list[list[int]]:
        inc = [[] for _ in range(self.N)]
        for eid, (u, v) in enumerate(self.edges):
            inc[u].append(eid)
            inc[v].append(eid)
        return inc


def _check_vertex_set(N: int, U) -> frozenset:
    U = frozenset(U)
    if U and (min(U) < 0 or max(U) >= N):
        raise GraphError("vertex id out of range")
    return U


def _draw_pairs(N: int, d: int, seed) -> np.ndarray:
    """Half-edge pairs of a uniform random pairing, one (N*d/2, 2) row each.

    The single place the pairing stream is drawn, so ``gen_configuration``
    and ``reject_to_simple`` see the same pairing for the same seed.
    """
    return np.random.default_rng(seed).permutation(N * d).reshape(-1, 2)


def gen_configuration(N: int, d: int, seed) -> MultiGraph:
    """Uniform random pairing of N*d half-edges, deterministic given seed.

    ``seed`` is anything ``numpy.random.default_rng`` accepts; callers that
    need per-trial sub-seeds pass ``[seed, trial]``.
    """
    if d < 1 or N < 1:
        raise GraphError("need N >= 1 and d >= 1")
    if (N * d) % 2 != 0:
        raise ParityError("N*d must be even")
    pairs = _draw_pairs(N, d, seed)
    pairs.sort(axis=1)
    return MultiGraph(N=N, d=d, pairing=tuple(map(tuple, pairs.tolist())))


def is_simple(G: MultiGraph) -> bool:
    seen = set()
    for u, v in G.edges:
        if u == v or (u, v) in seen:
            return False
        seen.add((u, v))
    return True


def multigraph_to_simple(G: MultiGraph) -> SimpleGraph:
    if not is_simple(G):
        raise GraphError("multigraph has loops or parallel edges")
    return SimpleGraph(N=G.N, d=G.d, edges=tuple(sorted(G.edges)))


def reject_to_simple(N: int, d: int, seed: int, max_tries: int = 10_000) -> SimpleGraph:
    """Uniform simple d-regular graph via rejection from the pairing model.

    Try t draws the same pairing as ``gen_configuration(N, d, [seed, t])``
    and the first simple one is returned, so the result is exactly uniform
    over labelled simple d-regular graphs.  Draws are tested as arrays; no
    ``MultiGraph`` is built.  The acceptance probability decays like
    exp(-(d^2-1)/4), so the Monte Carlo trials use ``sample_simple`` for
    d above 5.
    """
    if d < 1 or N <= d:
        raise GraphError("need N > d >= 1 for a simple d-regular graph")
    if (N * d) % 2 != 0:
        raise ParityError("N*d must be even")
    for trial in range(max_tries):
        ends = _draw_pairs(N, d, [seed, trial]) // d
        ends.sort(axis=1)
        u, v = ends[:, 0], ends[:, 1]
        if (u == v).any():
            continue  # loop
        key = u * N + v
        key.sort()
        if (key[1:] == key[:-1]).any():
            continue  # parallel edge
        return SimpleGraph(N=N, d=d, edges=tuple(zip((key // N).tolist(), (key % N).tolist())))
    raise ExhaustionError(max_tries)


def sample_simple(N: int, d: int, seed: int, max_restarts: int = 1_000) -> SimpleGraph:
    """Simple d-regular graph via stub matching with restart on collisions.

    Pairs random stubs, skipping pairs that would create a loop or parallel
    edge, and restarts when stuck.  Unlike ``reject_to_simple`` it stays
    practical when the rejection route would essentially never accept, but
    its law is not uniform: at N=6, d=3, seeds 0..19 999 gave K_{3,3} with
    frequency 0.1535 against the uniform 1/7 = 0.1429 (about 4.3 sigma).
    """
    if N <= d:
        raise GraphError("need N > d for a simple d-regular graph")
    if (N * d) % 2 != 0:
        raise ParityError("N*d must be even")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    for _ in range(max_restarts):
        stubs = np.repeat(np.arange(N), d)
        edges: set[tuple[int, int]] = set()
        ok = True
        while len(stubs) and ok:
            rng.shuffle(stubs)
            leftover = []
            progressed = False
            it = iter(range(0, len(stubs) - 1, 2))
            for i in it:
                u, v = int(stubs[i]), int(stubs[i + 1])
                if u > v:
                    u, v = v, u
                if u == v or (u, v) in edges:
                    leftover.extend((u, v))
                else:
                    edges.add((u, v))
                    progressed = True
            if len(stubs) % 2:
                leftover.append(int(stubs[-1]))
            if not progressed and leftover:
                ok = False
            stubs = np.array(leftover, dtype=int)
        if ok and not len(stubs):
            return SimpleGraph(N=N, d=d, edges=tuple(sorted(edges)))
    raise ExhaustionError(max_restarts)


def edges_within(G: MultiGraph | SimpleGraph, U) -> int:
    """Number of edges with both endpoints in U (a loop at u in U counts once)."""
    U = _check_vertex_set(G.N, U)
    return sum(1 for u, v in G.edges if u in U and v in U)


def edges_between(G: MultiGraph | SimpleGraph, U) -> int:
    """Number of edges with exactly one endpoint in U."""
    U = _check_vertex_set(G.N, U)
    return sum(1 for u, v in G.edges if (u in U) != (v in U))


_ENUM_CAP = 12


def enumerate_pairings(N: int, d: int):
    """Yield every perfect matching of the N*d half-edges exactly once.

    There are (N*d - 1)!! of them, so the instance size is capped at
    N*d <= 12.
    """
    n = N * d
    if n % 2 != 0:
        raise ParityError("N*d must be even")
    if n > _ENUM_CAP:
        raise GraphError(f"N*d = {n} exceeds the enumeration cap {_ENUM_CAP}")

    def rec(remaining: list[int], acc: list[tuple[int, int]]):
        if not remaining:
            yield MultiGraph(N=N, d=d, pairing=tuple(acc))
            return
        first = remaining[0]
        for j in range(1, len(remaining)):
            partner = remaining[j]
            rest = remaining[1:j] + remaining[j + 1 :]
            acc.append((first, partner))
            yield from rec(rest, acc)
            acc.pop()

    yield from rec(list(range(n)), [])


def write_graph(path: str | Path, G: SimpleGraph) -> None:
    """Text format: header "N d", then one "u v" line per edge, 1-based,
    u < v, sorted lexicographically.  '#' starts a comment."""
    lines = [f"{G.N} {G.d}"]
    for u, v in sorted(G.edges):
        lines.append(f"{u + 1} {v + 1}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_graph(path: str | Path) -> SimpleGraph:
    """Parse the text format; rejects malformed lines and non-regular bodies."""
    header = None
    edges = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or not all(p.lstrip("-").isdigit() for p in parts):
            raise FormatError(f"line {lineno}: expected two integers, got {raw!r}")
        a, b = int(parts[0]), int(parts[1])
        if header is None:
            header = (a, b)
            continue
        if not (1 <= a < b <= header[0]):
            raise FormatError(f"line {lineno}: edge must satisfy 1 <= u < v <= N")
        edges.append((a - 1, b - 1))
    if header is None:
        raise FormatError("empty graph file")
    N, d = header
    try:
        return SimpleGraph(N=N, d=d, edges=tuple(sorted(edges)))
    except GraphError as exc:
        raise FormatError(f"body does not match header {N} {d}: {exc}") from exc


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph(
        N=n, d=n - 1, edges=tuple((u, v) for u in range(n) for v in range(u + 1, n))
    )


def cycle_graph(n: int) -> SimpleGraph:
    edges = sorted(tuple(sorted((i, (i + 1) % n))) for i in range(n))
    return SimpleGraph(N=n, d=2, edges=tuple(edges))
