"""Star decompositions via orientations with prescribed out-degrees.

A k-star decomposition with j(v) stars centered at each vertex v exists
exactly when the graph has an orientation with out-degree j(v)*k at every v,
and such an orientation exists iff e[U] <= sum over U of j(v)*k for every
vertex set U (Hakimi 1965; Frank & Gyarfas 1976).  The orientation is found
on the graph itself: start from a greedy orientation, then repeatedly reverse
shortest directed paths from vertices above quota to vertices below it.
When the vertices above quota reach no vertex below it, the reached set U is
closed under out-arcs, so e[U] = sum of out-degrees over U > sum of quotas
over U: a witness that no such decomposition exists.  The brute-force subset
check over all 2^N sets provides the independent oracle for small graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .graph import GraphError, SimpleGraph, edges_within

__all__ = [
    "ProfileError",
    "StarProfile",
    "Orientation",
    "Star",
    "StarDecomposition",
    "Witness",
    "balanced_profile",
    "orient_with_outdegrees",
    "orient_with_outdegree_bounds",
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


def balanced_profile(N: int, d: int, k: int, A) -> StarProfile:
    """Profile with s+1 stars on A and s elsewhere, s = floor(d/2k).

    Requires Nd/(2k) integral and |A| = N*r/(2k) exactly (r = d - 2sk).
    """
    if (N * d) % (2 * k) != 0:
        raise ProfileError(f"Nd/(2k) = {N * d}/{2 * k} is not an integer")
    s = d // (2 * k)
    r = d - 2 * s * k
    A = frozenset(A)
    if A and (min(A) < 0 or max(A) >= N):
        raise ProfileError("A contains out-of-range vertex ids")
    want = N * r // (2 * k)
    if N * r % (2 * k) != 0 or len(A) != want:
        raise ProfileError(f"|A| must equal N*r/(2k) = {N * r / (2 * k)}, got {len(A)}")
    return StarProfile(k=k, j_of=tuple(s + 1 if v in A else s for v in range(N)))


@dataclass(frozen=True)
class Orientation:
    """tail[e] is the endpoint of edge e chosen as its star center side."""

    tails: tuple[int, ...]


@dataclass(frozen=True)
class Star:
    center: int
    edge_ids: tuple[int, ...]


@dataclass(frozen=True)
class StarDecomposition:
    stars: tuple[Star, ...]


@dataclass(frozen=True)
class Witness:
    """A subset violating e[U] <= sum over U of j(v)*k."""

    U: frozenset
    lhs: int  # e[U]
    rhs: int  # sum of quotas over U

    def to_dict(self) -> dict:
        return {"U": sorted(self.U), "lhs": self.lhs, "rhs": self.rhs}


def _orient(G: SimpleGraph, profile: StarProfile, exact: bool) -> Orientation | Witness:
    N, edges = G.N, G.edges
    m = len(edges)
    if profile.N != N:
        raise ProfileError("profile size does not match graph")
    total = profile.total_quota()
    if exact and total != m:
        raise ProfileError(f"sum of j(v)*k = {total} must equal the edge count {m}")
    if not exact and total < m:
        raise ProfileError(f"sum of j(v)*k = {total} must be >= the edge count {m}")

    # Out-degree at most the quota everywhere is the goal in both modes: with
    # total quota m it forces equality.  Excess moves along reversed paths.
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
            return Orientation(tails=tuple(tails))

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


def orient_with_outdegrees(G: SimpleGraph, profile: StarProfile) -> Orientation | Witness:
    """Orientation with out-degree exactly j(v)*k at every v, or a Witness."""
    return _orient(G, profile, exact=True)


def orient_with_outdegree_bounds(G: SimpleGraph, profile: StarProfile) -> Orientation | Witness:
    """Orientation with out-degree at most j(v)*k; needs total quota >= Nd/2."""
    return _orient(G, profile, exact=False)


def stars_from_orientation(
    G: SimpleGraph, orientation: Orientation, profile: StarProfile
) -> StarDecomposition:
    """Group each vertex's outgoing edges (ascending edge id) into k-stars."""
    k, j_of = profile.k, profile.j_of
    out: list[list[int]] = [[] for _ in range(G.N)]
    for eid, tail in enumerate(orientation.tails):
        out[tail].append(eid)  # eid increases, so each list is ascending
    stars = []
    for v, ids in enumerate(out):
        if len(ids) != j_of[v] * k:
            raise ProfileError(
                f"vertex {v} has out-degree {len(ids)}, profile demands {j_of[v] * k}"
            )
        for i in range(0, len(ids), k):
            stars.append(Star(center=v, edge_ids=tuple(ids[i : i + k])))
    return StarDecomposition(stars=tuple(stars))


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

    Returns (True, None) or (False, first violation found).
    """
    used = [False] * len(G.edges)
    counts = [0] * G.N
    for star in D.stars:
        if len(star.edge_ids) != k:
            return False, f"star at {star.center} has {len(star.edge_ids)} edges, expected {k}"
        counts[star.center] += 1
        for eid in star.edge_ids:
            if not 0 <= eid < len(G.edges):
                return False, f"unknown edge id {eid}"
            if used[eid]:
                return False, f"edge {eid} covered twice"
            used[eid] = True
            if star.center not in G.edges[eid]:
                return False, f"edge {eid} not incident to center {star.center}"
    if not all(used):
        return False, f"edge {used.index(False)} not covered"
    for v in range(G.N):
        if counts[v] != profile.j_of[v]:
            return False, f"vertex {v} centers {counts[v]} stars, profile demands {profile.j_of[v]}"
    return True, None


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
    return StarDecomposition(stars=tuple(stars))
