"""Regular-graph representations, half-edge pairing model, edge counting.

A ``MultiGraph`` is a perfect matching of N*d labeled half-edges; half-edge
``i`` belongs to vertex ``i // d``.  Loops and parallel edges are allowed;
a loop is a single edge contributing 2 to its vertex's degree.  A
``SimpleGraph`` is the loop/multi-edge-free case, stored as N, d and one
read-only (m, 2) int64 array ``ends`` whose row order defines the edge ids
used everywhere downstream.  Every reader in the package works on ``ends``;
the tuple of Python pairs, ``edges``, is built only when a caller reads it.
Both graph types expose ``ends``, so ``edges_within`` counts on either.

Randomness is reproducible: every sampler builds one numpy generator from
its seed, so a seed always gives the same graph.  The samplers work on
arrays: ``reject_to_simple`` tests whole batches of pairings at once, and
``sample_simple`` handles each shuffle round of its stubs in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
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

    @cached_property
    def ends(self) -> np.ndarray:
        """(m, 2) int64 array of the vertices of each half-edge pair, in pairing order."""
        return np.array(self.pairing, dtype=np.int64).reshape(-1, 2) // self.d

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
    """A fresh (m, 2) int64 array of an integer array or a sequence of integer pairs.

    Floats, strings and integers beyond int64 are refused, never cast.
    """
    try:
        ends = np.array(edges)
    except ValueError as exc:  # ragged
        raise GraphError("edges must be pairs of 64-bit integers") from exc
    if ends.shape == (0,):  # no edges: numpy gives a float array of shape (0,)
        return np.empty((0, 2), dtype=np.int64)
    if ends.ndim != 2 or ends.shape[1] != 2 or not np.can_cast(ends.dtype, np.int64):
        raise GraphError("edges must be pairs of 64-bit integers")
    return ends.astype(np.int64, copy=False)


@dataclass(frozen=True, init=False, eq=False)
class SimpleGraph:
    """Simple d-regular graph stored as N, d and its edge array ``ends``.

    ``ends`` is a read-only (m, 2) int64 array; row e is edge e = (u, v)
    with u < v, and edge ids are these row positions.  ``edges`` may be a
    sequence of integer pairs or an (m, 2) integer array; either is copied
    and checked by the same validation.  The ``edges`` attribute, a tuple of
    (u, v) pairs of Python ints, is built from ``ends`` on first read.  Two
    graphs are equal when N, d and ``ends`` are.
    """

    N: int
    d: int
    ends: np.ndarray = field(repr=False)

    def __init__(self, N: int, d: int, edges):
        ends = _edge_array(edges)
        u, v = ends[:, 0], ends[:, 1]
        bad = (u < 0) | (u >= v) | (v >= N)
        bad |= _repeats(u * N + v)
        if bad.any():
            u, v = ends[int(bad.argmax())].tolist()
            if not (0 <= u < v < N):
                raise GraphError(f"bad edge ({u}, {v}): need 0 <= u < v < N")
            raise GraphError(f"parallel edge ({u}, {v})")
        deg = np.bincount(ends.ravel(), minlength=max(N, 0))
        wrong = np.flatnonzero(deg != d)
        if wrong.size:
            v = int(wrong[0])
            raise GraphError(f"vertex {v} has degree {deg[v]}, expected {d}")
        ends.setflags(write=False)
        for name, value in (("N", N), ("d", d), ("ends", ends)):
            object.__setattr__(self, name, value)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(*self.ends.T.tolist()))

    def _key(self) -> tuple:
        return self.N, self.d, self.ends.tobytes()

    def __eq__(self, other):
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def incident_edges(self) -> list[list[int]]:
        """inc[v] lists the ids of the d edges at v in ascending order."""
        order = np.argsort(self.ends.ravel(), kind="stable") >> 1
        return order.reshape(self.N, self.d).tolist()


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
    return SimpleGraph(N, d, np.stack(np.divmod(key, N), axis=1))


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
    U = list(U)
    if U and (min(U) < 0 or max(U) >= G.N):
        raise GraphError("vertex id out of range")
    inside = np.zeros(G.N, dtype=bool)
    inside[U] = True
    return int(np.count_nonzero(inside[G.ends[:, 0]] & inside[G.ends[:, 1]]))


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


def _graph_text(G: SimpleGraph) -> str:
    """``G`` in the text format of ``write_graph``, which ``gen`` also prints."""
    rows = G.ends[np.lexsort((G.ends[:, 1], G.ends[:, 0]))] + 1
    return f"{G.N} {G.d}\n" + "".join(f"{u} {v}\n" for u, v in rows.tolist())


def write_graph(path: str | Path, G: SimpleGraph) -> None:
    """Text format: header "N d", then one "u v" line per edge, 1-based,
    u < v, sorted lexicographically.  '#' starts a comment."""
    Path(path).write_text(_graph_text(G))


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
