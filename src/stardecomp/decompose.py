"""Star decompositions via orientations with prescribed out-degrees.

A k-star decomposition with j(v) stars centered at each vertex v exists
exactly when the graph has an orientation with out-degree j(v)*k at every v,
and such an orientation exists iff e[U] <= sum over U of j(v)*k for every
vertex set U (Hakimi 1965; Frank & Gyarfas 1976).  The orientation is found
on the graph itself, by one of two routines picked by the edge count:

- below ``_ARRAY_MIN_EDGES`` edges, a Python loop starts from a greedy
  orientation and repeatedly reverses shortest directed paths from vertices
  above quota to vertices below it;
- from that count on, numpy push-relabel with global relabelling reverses
  downhill arcs at every vertex above quota at once.

Either way, a vertex set U closed under out-arcs that holds a vertex above
quota and none below it has e[U] = sum of out-degrees over U > sum of quotas
over U: a witness that no such decomposition exists.  The loop returns the
set reached from the vertices above quota; push-relabel returns the set of
vertices that reach no vertex below quota.  The brute-force subset check
over all 2^N sets provides the independent oracle for small graphs.

From the orientation on, the result stays in arrays: ``stars_from_orientation``
cuts the edges, sorted by tail, into k-blocks of a ``StarDecomposition``
(center, edge-id and offset arrays), and ``verify_decomposition`` checks
those against the graph's ``ends`` array in one vectorised pass.  ``Star``
objects are built only when a caller reads ``StarDecomposition.stars``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

from .graph import GraphError, SimpleGraph, _repeats, edges_within

__all__ = [
    "ProfileError",
    "StarProfile",
    "Orientation",
    "Star",
    "StarDecomposition",
    "Witness",
    "balanced_profile",
    "orient_with_outdegrees",
    "stars_from_orientation",
    "decompose",
    "verify_decomposition",
    "check_condition_U",
    "brute_force_condition",
    "write_decomposition",
    "read_decomposition",
]


class ProfileError(ValueError):
    pass


@dataclass(frozen=True)
class StarProfile:
    """Prescribed number of stars j(v) per vertex, for stars of k edges."""

    k: int
    j_of: tuple[int, ...]

    def __post_init__(self):
        if self.k < 1:
            raise ProfileError("star size k must be >= 1")
        if any(j < 0 for j in self.j_of):
            raise ProfileError("star counts must be nonnegative")

    @property
    def N(self) -> int:
        return len(self.j_of)

    def quota(self, v: int) -> int:
        return self.j_of[v] * self.k

    def total_quota(self) -> int:
        return self.k * sum(self.j_of)


def _star_counts(N: int, d: int, k: int) -> tuple[int, int]:
    """(s, |A|) of the balanced profile: d = 2sk + r and |A| = N*r/(2k).

    N*d and N*r agree modulo 2k, so Nd/(2k) integral makes |A| integral too.
    """
    if (N * d) % (2 * k) != 0:
        raise ProfileError(f"Nd/(2k) = {N * d}/{2 * k} is not an integer")
    s, r = divmod(d, 2 * k)
    return s, N * r // (2 * k)


def balanced_profile(N: int, d: int, k: int, A=None) -> StarProfile:
    """Profile with s+1 stars on A and s elsewhere, s = floor(d/2k).

    Requires Nd/(2k) integral and |A| = N*r/(2k) exactly (r = d - 2sk).
    ``A=None`` takes the first N*r/(2k) vertices.
    """
    s, a_size = _star_counts(N, d, k)
    A = frozenset(range(a_size)) if A is None else frozenset(A)
    if A and (min(A) < 0 or max(A) >= N):
        raise ProfileError("A contains out-of-range vertex ids")
    if len(A) != a_size:
        raise ProfileError(f"|A| must equal N*r/(2k) = {a_size}, got {len(A)}")
    return StarProfile(k=k, j_of=tuple(s + 1 if v in A else s for v in range(N)))


@dataclass(frozen=True, eq=False)
class Orientation:
    """tails[e] is the endpoint of edge e chosen as its star center side.

    ``tails`` is stored as a read-only int64 array.
    """

    tails: np.ndarray

    def __post_init__(self):
        tails = np.array(self.tails, dtype=np.int64)
        tails.setflags(write=False)
        object.__setattr__(self, "tails", tails)


@dataclass(frozen=True, slots=True)
class Star:
    center: int
    edge_ids: tuple[int, ...]


class StarDecomposition:
    """Stars stored as arrays: star i is centered at ``centers[i]`` and holds
    the edges ``edge_ids[offsets[i]:offsets[i + 1]]``.

    All three are read-only int64 arrays.  The offsets let a star have any
    number of edges, so a malformed decomposition stays representable for
    ``verify_decomposition`` to reject.  ``StarDecomposition(stars)`` builds
    the arrays from a sequence of ``Star``; ``stars_from_orientation`` fills
    them directly.  ``stars`` is the tuple of ``Star``, built on first use.
    Two decompositions are equal when they list the same stars in the same
    order.
    """

    def __init__(self, stars):
        stars = tuple(stars)
        sizes = [len(star.edge_ids) for star in stars]
        ids = chain.from_iterable(star.edge_ids for star in stars)
        self._set_arrays(
            np.fromiter((star.center for star in stars), np.int64, len(stars)),
            np.fromiter(ids, np.int64, sum(sizes)),
            np.cumsum([0, *sizes], dtype=np.int64),
        )
        self.__dict__["stars"] = stars  # the cached value of the property

    @classmethod
    def _from_arrays(cls, centers, edge_ids, offsets) -> StarDecomposition:
        D = cls.__new__(cls)
        D._set_arrays(centers, edge_ids, offsets)
        return D

    def _set_arrays(self, centers, edge_ids, offsets) -> None:
        for a in (centers, edge_ids, offsets):
            a.setflags(write=False)
        self.centers, self.edge_ids, self.offsets = centers, edge_ids, offsets

    @cached_property
    def stars(self) -> tuple[Star, ...]:
        ids, bounds = self.edge_ids.tolist(), self.offsets.tolist()
        return tuple(
            Star(c, tuple(ids[a:b])) for c, a, b in zip(self.centers.tolist(), bounds, bounds[1:])
        )

    def _key(self) -> tuple[bytes, ...]:
        return self.centers.tobytes(), self.offsets.tobytes(), self.edge_ids.tobytes()

    def __eq__(self, other):
        if not isinstance(other, StarDecomposition):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"StarDecomposition(stars={self.stars!r})"


@dataclass(frozen=True)
class Witness:
    """A subset violating e[U] <= sum over U of j(v)*k."""

    U: frozenset
    lhs: int  # e[U]
    rhs: int  # sum of quotas over U

    def to_dict(self) -> dict:
        return {"U": sorted(self.U), "lhs": self.lhs, "rhs": self.rhs}


# Edge count from which orient_with_outdegrees runs the array routine.  On
# random 10-regular graphs with k = 3 and a random A (2-CPU container, median
# over 7 seeds of the best of 5 to 20 calls), path reversal against push-relabel:
#   m = 300: 0.19 vs 0.69 ms     m = 1 500: 1.17 vs 1.53 ms
#   m = 2 100: 1.80 vs 1.84 ms   m = 3 000: 3.29 vs 2.55 ms
#   m = 15 000: 28.4 vs 10.2 ms  m = 150 000 (one call): 785 vs 171 ms
# The Monte Carlo settings (m = 300 at d = 10, m = 60 at d = 4) stay far below
# the cutoff and N = 30 000 at d = 10 (m = 150 000) far above it.
_ARRAY_MIN_EDGES = 2_500


def orient_with_outdegrees(G: SimpleGraph, profile: StarProfile) -> Orientation | Witness:
    """Orientation with out-degree exactly j(v)*k at every v, or a Witness.

    Graphs with fewer than ``_ARRAY_MIN_EDGES`` (2 500) edges are oriented
    by the Python path-reversal loop, whose Witness is the set reached from
    the vertices above quota.  Larger graphs go to the numpy push-relabel
    routine, whose Witness is the set of vertices that reach no vertex below
    quota.  Below the cutoff the fixed cost of each numpy call outweighs the
    loop's per-arc Python work; above it the loop's per-arc work dominates.
    """
    m = len(G.edges)
    if profile.N != G.N:
        raise ProfileError("profile size does not match graph")
    total = profile.total_quota()
    if total != m:
        raise ProfileError(f"sum of j(v)*k = {total} must equal the edge count {m}")
    if m >= _ARRAY_MIN_EDGES:
        return _orient_push_relabel(G, profile)
    return _orient_by_paths(G, profile)


def _orient_by_paths(G: SimpleGraph, profile: StarProfile) -> Orientation | Witness:
    """Greedy start, then reversal of shortest paths, one phase at a time."""
    N, edges = G.N, G.edges
    m = len(edges)
    # Out-degree at most the quota everywhere is the goal: with total quota m
    # it forces equality.  Excess moves along reversed paths.
    k = profile.k
    quota = [j * k for j in profile.j_of]
    other = [u ^ v for u, v in edges]  # other[e] ^ w is the endpoint of e that is not w
    tails = [0] * m
    out = [0] * N
    # Greedy start: the tail goes to the endpoint with the larger share of its
    # remaining quota per still-unoriented incident edge.
    left = [G.d] * N
    for e, (u, v) in enumerate(edges):
        t = u if (quota[u] - out[u]) * left[v] >= (quota[v] - out[v]) * left[u] else v
        tails[e] = t
        out[t] += 1
        left[u] -= 1
        left[v] -= 1
    # arcs[v] lists the edges with tail v.  A reversed edge is appended to its
    # new tail's list and left in the old one, where the tails check skips it.
    arcs: list[list[int]] = [[] for _ in range(N)]
    for e, t in enumerate(tails):
        arcs[t].append(e)

    while True:
        sources = [v for v in range(N) if out[v] > quota[v]]
        if not sources:
            return Orientation(tails=tails)

        # Multi-source BFS along out-arcs, one level at a time.  Vertices below
        # quota are targets and are not expanded; the level that holds the
        # first target is still expanded, then the search stops.
        dist = [-1] * N
        for s in sources:
            dist[s] = 0
        reached, frontier, level, found = list(sources), sources, 0, False
        while frontier and not found:
            level += 1
            nxt = []
            for u in frontier:
                if out[u] < quota[u]:
                    found = True
                    continue
                for e in arcs[u]:
                    if tails[e] == u:
                        w = other[e] ^ u
                        if dist[w] < 0:
                            dist[w] = level
                            nxt.append(w)
            reached += nxt
            frontier = nxt
        if not found:
            # Every out-arc of the reached set stays inside it, so e[U] is the
            # sum of its out-degrees, none below quota and the sources above.
            U = frozenset(reached)
            lhs = edges_within(G, U)
            rhs = sum(quota[v] for v in U)
            if lhs <= rhs:
                raise AssertionError("reached set failed to violate the subset condition")
            return Witness(U=U, lhs=lhs, rhs=rhs)

        # Reverse vertex-disjoint shortest paths from the sources to targets.
        # A vertex taken onto a path gets dist -1, so no later path uses it;
        # the top of the stack sits at level len(path).
        ptr = [0] * N
        for s in sources:
            while out[s] > quota[s]:
                stack, path = [s], []
                while stack:
                    u = stack[-1]
                    if out[u] < quota[u]:
                        for e in path:
                            t = tails[e] ^ other[e]
                            tails[e] = t
                            arcs[t].append(e)
                        out[s] -= 1
                        out[u] += 1
                        break
                    mine, i, want = arcs[u], ptr[u], len(path) + 1
                    while i < len(mine):
                        e = mine[i]
                        i += 1
                        if tails[e] == u:
                            w = other[e] ^ u
                            if dist[w] == want:
                                dist[w] = -1
                                stack.append(w)
                                path.append(e)
                                break
                    else:
                        stack.pop()
                        if path:
                            path.pop()
                    ptr[u] = i
                else:
                    break  # no path left from s in this phase


def _orient_push_relabel(G: SimpleGraph, profile: StarProfile) -> Orientation | Witness:
    """Push-relabel with global relabelling, on arrays.

    After Goldberg & Tarjan (1988) and Cherkassky & Goldberg (1997).  Each
    tail starts at the endpoint of larger quota (ties go to u).  Then, until
    no vertex is above quota:

    - Global relabel: a backward BFS from the vertices below quota gives
      label[v], the number of arcs from v to the nearest of them.
    - Push rounds: every vertex above quota reverses up to its excess of
      out-arcs u->w with label[w] = label[u] - 1, all in one vectorised step.

    A reversed arc w->u runs uphill, so the labels stay valid lower bounds on
    the distance and every push still runs downhill until the next relabel.
    A vertex above quota that the relabel leaves unlabelled reaches no vertex
    below quota.  The set U of all vertices that reach none is closed under
    out-arcs, so e[U] = sum of out-degrees over U > sum of quotas over U.

    Each BFS level and each push round gathers only the arcs of its frontier
    or of its pushing vertices, so a long path costs per level, not per
    level times m.
    """
    N, d, ends = G.N, G.d, G.ends
    u, v = ends[:, 0], ends[:, 1]
    other = u ^ v  # other[e] ^ w is the endpoint of e that is not w
    quota = np.asarray(profile.j_of, dtype=np.int64) * profile.k
    tails = np.where(quota[u] >= quota[v], u, v)
    out = np.bincount(tails, minlength=N)
    # Every vertex has degree d, so the incidence lists of the 2m edge ends
    # form an N x d array: inc[w] holds the ids of the d edges at w.
    inc = (np.argsort(ends.ravel(), kind="stable") >> 1).reshape(N, d)
    unlabelled = N  # above every distance, so never label[u] - 1 of a labelled u
    slot = np.empty(N, dtype=np.int64)

    def distinct(x):
        # Keep one entry per vertex: the one whose position the scatter kept.
        pos = np.arange(x.size)
        slot[x] = pos
        return x[slot[x] == pos]

    while True:
        active = np.flatnonzero(out > quota)
        if not active.size:
            return Orientation(tails=tails)

        # Backward BFS: x joins level L + 1 through an arc x->w with w at
        # level L.  It stops once every vertex above quota has a label.
        label = np.full(N, unlabelled)
        frontier = np.flatnonzero(out < quota)
        label[frontier] = 0
        waiting, level = active.size, 0
        while waiting and frontier.size:
            level += 1
            e = inc[frontier]
            x = other[e] ^ frontier[:, None]
            x = distinct(x[(tails[e] == x) & (label[x] == unlabelled)])
            label[x] = level
            waiting -= np.count_nonzero(out[x] > quota[x])
            frontier = x
        if waiting:
            inside = label == unlabelled
            lhs = int(np.count_nonzero(inside[u] & inside[v]))
            rhs = int(quota[inside].sum())
            if lhs <= rhs:
                raise AssertionError("unlabelled set failed to violate the subset condition")
            return Witness(U=frozenset(np.flatnonzero(inside).tolist()), lhs=lhs, rhs=rhs)

        # A vertex that pushes less than its excess has used up its downhill
        # arcs, and arcs it gains run uphill, so it drops out until the next
        # relabel.  Receivers sit one level lower, so the rounds end.
        pushers = active
        while pushers.size:
            e = inc[pushers]
            w = other[e] ^ pushers[:, None]
            ok = (tails[e] == pushers[:, None]) & (label[w] == label[pushers, None] - 1)
            ok &= np.cumsum(ok, axis=1) <= (out[pushers] - quota[pushers])[:, None]
            out[pushers] -= np.count_nonzero(ok, axis=1)
            e, w = e[ok], w[ok]
            tails[e] = w
            np.add.at(out, w, 1)
            w = distinct(w)
            pushers = w[out[w] > quota[w]]


def stars_from_orientation(
    G: SimpleGraph, orientation: Orientation, profile: StarProfile
) -> StarDecomposition:
    """Group each vertex's outgoing edges (ascending edge id) into k-stars.

    Stars come in ascending center order.
    """
    k = profile.k
    tails = np.asarray(orientation.tails, dtype=np.int64)
    quota = np.asarray(profile.j_of, dtype=np.int64) * k
    out = np.bincount(tails, minlength=G.N)
    bad = np.flatnonzero(out != quota)
    if bad.size:
        v = int(bad[0])
        raise ProfileError(f"vertex {v} has out-degree {out[v]}, profile demands {quota[v]}")
    # A stable sort lists each vertex's edges in ascending id, and every
    # out-degree is a multiple of k, so the k-blocks never straddle vertices.
    edge_ids = np.argsort(tails, kind="stable")
    offsets = np.arange(0, edge_ids.size + 1, k)
    return StarDecomposition._from_arrays(tails[edge_ids[::k]], edge_ids, offsets)


def decompose(G: SimpleGraph, k: int, profile: StarProfile) -> StarDecomposition | Witness:
    """Full pipeline: orient, then extract stars; or return the Witness."""
    if profile.k != k:
        raise ProfileError("profile star size does not match k")
    result = orient_with_outdegrees(G, profile)
    if isinstance(result, Witness):
        return result
    deco = stars_from_orientation(G, result, profile)
    ok, why = verify_decomposition(G, k, profile, deco)
    if not ok:
        raise AssertionError(f"constructed decomposition failed verification: {why}")
    return deco


def verify_decomposition(
    G: SimpleGraph, k: int, profile: StarProfile, D: StarDecomposition
) -> tuple[bool, str | None]:
    """Check edge partition, incidence, star sizes and per-vertex counts.

    Returns (True, None) or (False, the first violation in star order).
    Within that order a star's size is checked before its edges, and each
    edge id for its range, then for an earlier use, then for incidence to
    the star's center.  Uncovered edges come after all stars, and the
    per-vertex star counts last.
    """
    if k < 1:
        raise ProfileError("star size k must be >= 1")
    m, centers, ids, offsets = len(G.edges), D.centers, D.edge_ids, D.offsets
    if ids.size == m and (offsets[1:] - offsets[:-1] == k).all() and (not m or ids.min() >= 0):
        cover = np.bincount(ids, minlength=m)  # longer than m if an id is too large
        if cover.size == m:
            at, center = G.ends[ids], centers.repeat(k)
            ok = (at[:, 0] == center) | (at[:, 1] == center)
            ok &= cover == 1
            # Each center has k >= 1 incident edges, so it is a vertex.
            if ok.all() and (np.bincount(centers, minlength=G.N) == profile.j_of).all():
                return True, None
    return False, _first_violation(G, k, profile, D)


def _first_violation(G: SimpleGraph, k: int, profile: StarProfile, D: StarDecomposition) -> str:
    """The message for the first violation of ``verify_decomposition``."""
    m, centers, ids = len(G.edges), D.centers, D.edge_ids
    sizes = np.diff(D.offsets)
    center = np.repeat(centers, sizes)
    known = (ids >= 0) & (ids < m)
    at = np.full((ids.size, 2), -1)
    at[known] = G.ends[ids[known]]
    repeat = _repeats(ids)
    bad_edge = np.flatnonzero(~known | repeat | ((at[:, 0] != center) & (at[:, 1] != center)))
    bad_size = np.flatnonzero(sizes != k)
    if bad_size.size:
        i = int(bad_size[0])
        if not bad_edge.size or D.offsets[i] <= bad_edge[0]:
            return f"star at {centers[i]} has {sizes[i]} edges, expected {k}"
    if bad_edge.size:
        p = int(bad_edge[0])
        if not known[p]:
            return f"unknown edge id {ids[p]}"
        if repeat[p]:
            return f"edge {ids[p]} covered twice"
        return f"edge {ids[p]} not incident to center {center[p]}"
    covered = np.zeros(m, dtype=bool)
    covered[ids] = True
    if not covered.all():
        return f"edge {int(covered.argmin())} not covered"
    counts = np.bincount(centers, minlength=G.N)
    v = int(np.flatnonzero(counts != profile.j_of)[0])
    return f"vertex {v} centers {counts[v]} stars, profile demands {profile.j_of[v]}"


def check_condition_U(G: SimpleGraph, profile: StarProfile, U) -> tuple[bool, bool]:
    """Evaluate the subset inequality for U and its complement form.

    holds_U:  e[U]  <= sum_{v in U}  j(v)*k
    holds_Uc: e[Uc] <= d*|Uc| - sum_{v in Uc} j(v)*k
    Under the equality profile sum the two are equivalent for every U.
    """
    U = frozenset(U)
    Uc = frozenset(range(G.N)) - U
    holds_U = edges_within(G, U) <= sum(profile.quota(v) for v in U)
    holds_Uc = edges_within(G, Uc) <= G.d * len(Uc) - sum(profile.quota(v) for v in Uc)
    return holds_U, holds_Uc


_BRUTE_CAP = 24


def brute_force_condition(G: SimpleGraph, profile: StarProfile):
    """Check e[U] <= sum_U j(v)*k for all 2^N subsets.

    Returns True, or the Witness for the lexicographically first violating U
    (ordering by the sorted vertex tuple).  Capped at N <= 24.
    """
    if G.N > _BRUTE_CAP:
        raise GraphError(f"N = {G.N} exceeds the brute-force cap {_BRUTE_CAP}")
    if profile.N != G.N:
        raise ProfileError("profile size does not match graph")
    inc = G.incident_edges()

    def rec(members: list[int], start: int, lhs: int, rhs: int):
        # lhs counts edges inside `members`; extend in lexicographic order.
        if lhs > rhs:
            return Witness(U=frozenset(members), lhs=lhs, rhs=rhs)
        for v in range(start, G.N):
            inside = sum(
                1 for eid in inc[v] if (G.edges[eid][0] in members or G.edges[eid][1] in members)
            )
            members.append(v)
            got = rec(members, v + 1, lhs + inside, rhs + profile.quota(v))
            members.pop()
            if got is not None:
                return got
        return None

    found = rec([], 0, 0, 0)
    return True if found is None else found


def write_decomposition(path: str | Path, D: StarDecomposition) -> None:
    """One line per star: "center: e1 e2 ... ek" (1-based ids)."""
    lines = [
        f"{star.center + 1}: " + " ".join(str(e + 1) for e in star.edge_ids)
        for star in D.stars
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def read_decomposition(path: str | Path) -> StarDecomposition:
    stars = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            center_s, rest = line.split(":", 1)
            center = int(center_s) - 1
            ids = tuple(int(tok) - 1 for tok in rest.split())
        except ValueError as exc:
            raise GraphError(f"line {lineno}: malformed star line {raw!r}") from exc
        stars.append(Star(center=center, edge_ids=ids))
    try:
        return StarDecomposition(stars=tuple(stars))
    except OverflowError as exc:
        raise GraphError("star centers and edge ids must fit in 64 bits") from exc
