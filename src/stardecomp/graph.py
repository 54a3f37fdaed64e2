"""Regular-graph representations, half-edge pairing model, edge counting.

A ``MultiGraph`` is a perfect matching of N*d labeled half-edges; half-edge
``i`` belongs to vertex ``i // d``.  Loops and parallel edges are allowed;
a loop is a single edge contributing 2 to its vertex's degree.  A
``SimpleGraph`` is the loop/multi-edge-free case with an explicit edge list
whose index order defines the edge ids used everywhere downstream; it also
holds that list as a read-only (m, 2) int64 array, ``ends``, for array code.

Randomness is reproducible: every sampler builds one numpy generator from
its seed, so a seed always gives the same graph.  The samplers work on
arrays: ``reject_to_simple`` tests whole batches of pairings at once, and
``sample_simple`` handles each shuffle round of its stubs in one pass.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from itertools import chain
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
    "reject_to_simple",
    "sample_simple",
    "edges_within",
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


def _repeats(key: np.ndarray) -> np.ndarray:
    """Mask of the entries of ``key`` equal to an earlier entry."""
    order = np.argsort(key, kind="stable")  # list order within each run of equal keys
    repeat = np.zeros(key.size, dtype=bool)
    repeat[order[1:]] = key[order[1:]] == key[order[:-1]]
    return repeat


def _edge_array(edges) -> np.ndarray:
    """The (m, 2) int64 array of a sequence of integer pairs."""
    try:
        if set(map(len, edges)) - {2} or not all(
            issubclass(t, (int, np.integer)) for t in set(map(type, chain.from_iterable(edges)))
        ):  # floats, strings: never cast
            raise TypeError
        return np.fromiter(chain.from_iterable(edges), np.int64, 2 * len(edges)).reshape(-1, 2)
    except (TypeError, ValueError, OverflowError) as exc:
        raise GraphError("edges must be pairs of 64-bit integers") from exc


@dataclass(frozen=True)
class SimpleGraph:
    """Simple d-regular graph; edge ids are list positions.

    ``edges`` is the tuple of pairs (u, v), u < v, that callers build and
    that ``write_graph`` writes.  ``ends`` holds the same edges as a
    read-only (m, 2) int64 array, built and validated once at construction;
    array code reads it instead of converting ``edges`` again.  ``_ends``
    is for the samplers, which hand over that array ready-made (it must
    equal ``edges``); it is validated in place of ``edges``.
    """

    N: int
    d: int
    edges: tuple[tuple[int, int], ...]  # (u, v) with u < v
    ends: np.ndarray = field(init=False, repr=False, compare=False)
    _ends: InitVar[np.ndarray | None] = None

    def __post_init__(self, _ends):
        ends = _edge_array(self.edges) if _ends is None else _ends
        u, v = ends[:, 0], ends[:, 1]
        bad = (u < 0) | (u >= v) | (v >= self.N)
        bad |= _repeats(u * self.N + v)
        if bad.any():
            u, v = ends[int(bad.argmax())].tolist()
            if not (0 <= u < v < self.N):
                raise GraphError(f"bad edge ({u}, {v}): need 0 <= u < v < N")
            raise GraphError(f"parallel edge ({u}, {v})")
        deg = np.bincount(ends.ravel(), minlength=max(self.N, 0))
        wrong = np.flatnonzero(deg != self.d)
        if wrong.size:
            v = int(wrong[0])
            raise GraphError(f"vertex {v} has degree {deg[v]}, expected {self.d}")
        ends.setflags(write=False)
        object.__setattr__(self, "ends", ends)

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


def _draw_pairs(N: int, d: int, rng: np.random.Generator, tries: int = 1) -> np.ndarray:
    """Half-edge ids of ``tries`` uniform random pairings, one row per try.

    Row t is the t-th successive ``rng.permutation(N*d)``; consecutive
    entries are paired.  The single place the pairing stream is drawn: from
    a fresh ``default_rng(seed)``, ``gen_configuration`` takes try 0 and
    ``reject_to_simple`` takes successive tries in batches of rows.
    """
    return rng.permuted(np.tile(np.arange(N * d), (tries, 1)), axis=1)


def gen_configuration(N: int, d: int, seed) -> MultiGraph:
    """Uniform random pairing of N*d half-edges, deterministic given seed.

    ``seed`` is anything ``numpy.random.default_rng`` accepts; callers that
    need per-trial sub-seeds pass ``[seed, trial]``.  The pairing is try 0
    of ``reject_to_simple(N, d, seed)``.
    """
    if d < 1 or N < 1:
        raise GraphError("need N >= 1 and d >= 1")
    if (N * d) % 2 != 0:
        raise ParityError("N*d must be even")
    pairs = _draw_pairs(N, d, np.random.default_rng(seed)).reshape(-1, 2)
    pairs.sort(axis=1)
    return MultiGraph(N=N, d=d, pairing=tuple(map(tuple, pairs.tolist())))


def _check_simple_params(N: int, d: int) -> None:
    if d < 1 or N <= d:
        raise GraphError("need N > d >= 1 for a simple d-regular graph")
    if (N * d) % 2 != 0:
        raise ParityError("N*d must be even")


def _from_keys(N: int, d: int, key: np.ndarray) -> SimpleGraph:
    """The graph whose edges (u, v), u < v, are the sorted keys u*N + v."""
    u, v = np.divmod(key, N)
    return SimpleGraph(N, d, tuple(zip(u.tolist(), v.tolist())), np.stack((u, v), axis=1))


_BATCH_ELEMENTS = 1 << 12  # half-edges per batch of tries: 32 kB per array


def reject_to_simple(N: int, d: int, seed: int, max_tries: int = 10_000) -> SimpleGraph:
    """Uniform simple d-regular graph via rejection from the pairing model.

    One generator ``default_rng(seed)`` is built per call.  Try t is its
    t-th successive ``permutation(N*d)``, paired as consecutive half-edges,
    so try 0 is ``gen_configuration(N, d, seed)``; the first simple try is
    returned.  Tries are drawn in batches of rows that hold the same
    permutations, so the batch size never changes the graph a seed gives.
    Each try is an independent uniform pairing, so the result is exactly
    uniform over labelled simple d-regular graphs.  The acceptance
    probability decays like exp(-(d^2-1)/4), so the Monte Carlo trials use
    ``sample_simple`` for d above 5.
    """
    _check_simple_params(N, d)
    rng = np.random.default_rng(seed)
    batch, done = 8, 0
    while done < max_tries:
        b = min(batch, max_tries - done, max(1, _BATCH_ELEMENTS // (N * d)))
        ends = _draw_pairs(N, d, rng, b) // d  # vertex ends, one try per row
        u, v = ends[:, 0::2], ends[:, 1::2]
        key = np.minimum(u, v) * N + np.maximum(u, v)
        key.sort(axis=1)
        loop_or_parallel = (u == v).any(axis=1) | (key[:, 1:] == key[:, :-1]).any(axis=1)
        simple = np.flatnonzero(~loop_or_parallel)
        if simple.size:
            return _from_keys(N, d, key[simple[0]])
        done += b
        batch *= 2
    raise ExhaustionError(max_tries)


def sample_simple(N: int, d: int, seed: int, max_restarts: int = 1_000) -> SimpleGraph:
    """Simple d-regular graph via stub matching with restart on collisions.

    Each round shuffles the unmatched stubs and pairs them in order.  A pair
    is kept unless it is a loop, an edge already kept, or a repeat of an
    earlier pair of the round; the rest go to the next round.  A round that
    keeps nothing restarts from all stubs.  Unlike ``reject_to_simple`` it
    stays practical when the rejection route would essentially never
    accept, but its law is not uniform: at N=6, d=3, seeds 0..19 999 gave
    K_{3,3} with frequency 0.1535 against the uniform 1/7 = 0.1429 (about
    4.3 sigma).
    """
    _check_simple_params(N, d)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    for _ in range(max_restarts):
        stubs = np.repeat(np.arange(N), d)
        kept = np.empty(0, dtype=np.int64)  # sorted keys u*N + v of kept edges
        while stubs.size:
            rng.shuffle(stubs)
            pairs = stubs.reshape(-1, 2)
            pairs.sort(axis=1)
            key = pairs[:, 0] * N + pairs[:, 1]
            pos = np.searchsorted(kept, key)
            known = pos < kept.size
            known[known] = kept[pos[known]] == key[known]
            ok = (pairs[:, 0] != pairs[:, 1]) & ~known & ~_repeats(key)
            if not ok.any():
                break
            kept = np.sort(np.concatenate((kept, key[ok])))
            stubs = pairs[~ok].ravel()
        else:
            return _from_keys(N, d, kept)
    raise ExhaustionError(max_restarts)


def edges_within(G: MultiGraph | SimpleGraph, U) -> int:
    """Number of edges with both endpoints in U (a loop at u in U counts once)."""
    U = _check_vertex_set(G.N, U)
    return sum(1 for u, v in G.edges if u in U and v in U)


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
