"""Orientation pipeline, verification, and the brute-force subset oracle."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _cubic import all_cubic_graphs
from stardecomp.decompose import (
    _ARRAY_MIN_EDGES,
    Orientation,
    ProfileError,
    Star,
    StarDecomposition,
    StarProfile,
    Witness,
    balanced_profile,
    brute_force_condition,
    check_condition_U,
    decompose,
    orient_with_outdegrees,
    read_decomposition,
    stars_from_orientation,
    verify_decomposition,
    write_decomposition,
    _orient_by_paths,
    _orient_push_relabel,
)
from stardecomp.graph import (
    GraphError,
    SimpleGraph,
    complete_graph,
    cycle_graph,
    edges_within,
    reject_to_simple,
    sample_simple,
)


def _random_profile(rng, N, m, k):
    """Random nonnegative j with k * sum(j) = m, or None if k does not divide m."""
    if m % k:
        return None
    total = m // k
    j = np.zeros(N, dtype=int)
    for v in rng.integers(0, N, size=total):
        j[v] += 1
    return StarProfile(k=k, j_of=tuple(int(x) for x in j))


def _assert_answer(G, prof, result, feasible):
    """A feasible profile gets an orientation meeting every quota, an
    infeasible one a witness U whose counts are right and violate e[U] <= quota."""
    assert isinstance(result, Witness) != feasible
    if isinstance(result, Witness):
        assert edges_within(G, result.U) == result.lhs
        assert sum(prof.quota(v) for v in result.U) == result.rhs
        assert result.lhs > result.rhs
        return
    assert result.tails.dtype == np.int64 and not result.tails.flags.writeable
    out = [0] * G.N
    for (u, v), tail in zip(G.edges, result.tails):
        assert tail in (u, v)
        out[tail] += 1
    assert out == [prof.quota(v) for v in range(G.N)]


def _far_pair_cycle(n):
    """An n-cycle with permuted labels, k = 1 and one surplus/deficit pair
    half the cycle apart: the excess must travel ~n/2 arcs."""
    perm = np.random.default_rng(0).permutation(n)
    edges = sorted(
        tuple(sorted((int(perm[i]), int(perm[(i + 1) % n])))) for i in range(n)
    )
    G = SimpleGraph(N=n, d=2, edges=tuple(edges))
    j = [1] * n
    j[perm[0]], j[perm[n // 2]] = 2, 0
    return G, StarProfile(k=1, j_of=tuple(j))


def _random_cubic_case(seed):
    rng = np.random.default_rng(seed)
    N = int(rng.choice([4, 6, 8]))
    G = reject_to_simple(N, 3, seed=seed)
    k = int(rng.choice([2, 3]))
    return G, k, _random_profile(rng, N, len(G.edges), k)


# Hypothesis cases of test_orientation_matches_subset_condition and its
# push-relabel twin.
_SUBSET_CASES = dict(
    N=st.integers(3, 14),
    d=st.integers(2, 5),
    k=st.integers(1, 3),
    moves=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)


def _check_subset_case(orient, N, d, k, moves, seed):
    # A profile with total quota m (the m/k stars dealt out evenly, then
    # `moves` of them moved at random) is feasible iff no subset U has
    # e[U] above its quota, and an infeasible answer carries such a U.
    assume(d < N and N * d % 2 == 0)
    G = sample_simple(N, d, seed=seed)
    m = len(G.edges)
    assume(m % k == 0)
    rng = np.random.default_rng(seed)
    j = np.bincount(rng.permutation(N)[np.arange(m // k) % N], minlength=N)
    for _ in range(moves):
        a, b = rng.integers(0, N, size=2)
        if j[a]:
            j[a] -= 1
            j[b] += 1
    prof = StarProfile(k=k, j_of=tuple(int(x) for x in j))
    _assert_answer(G, prof, orient(G, prof), brute_force_condition(G, prof) is True)


class TestProfiles:
    def test_balanced_profile(self):
        p = balanced_profile(8, 3, 2, A=frozenset(range(6)))
        # d = 3, k = 2: s = 0, r = 3, so A carries one star each
        assert p.j_of == (1, 1, 1, 1, 1, 1, 0, 0)
        assert p.total_quota() == 12  # = Nd/2

    def test_balanced_profile_default_A(self):
        # A=None takes the first N*r/(2k) vertices
        for N, d, k in [(8, 3, 2), (60, 10, 3), (10, 4, 2), (12, 3, 1), (20, 5, 1)]:
            r = d % (2 * k)
            want = balanced_profile(N, d, k, A=range(N * r // (2 * k)))
            assert balanced_profile(N, d, k) == want

    def test_balanced_profile_r0(self):
        p = balanced_profile(10, 4, 2, A=frozenset())
        assert p.j_of == (1,) * 10

    def test_divisibility_errors(self):
        with pytest.raises(ProfileError):
            balanced_profile(7, 3, 2, A=frozenset())
        with pytest.raises(ProfileError):
            balanced_profile(8, 3, 2, A=frozenset(range(5)))  # wrong |A|
        with pytest.raises(ProfileError):
            balanced_profile(8, 3, 2, A=frozenset({9}))

    def test_invalid_profiles(self):
        with pytest.raises(ProfileError):
            StarProfile(k=0, j_of=(1,))
        with pytest.raises(ProfileError):
            StarProfile(k=2, j_of=(-1, 1))


class TestDecompose:
    def test_eulerian_case_always_succeeds(self):
        # 2k | d: an Eulerian orientation realizes the quota at every vertex.
        for seed in range(5):
            G = sample_simple(10, 4, seed=seed)
            prof = balanced_profile(10, 4, 2, A=frozenset())
            result = decompose(G, 2, prof)
            assert isinstance(result, StarDecomposition)
            ok, why = verify_decomposition(G, 2, prof, result)
            assert ok, why

    def test_k4(self):
        G = complete_graph(4)
        prof = balanced_profile(4, 3, 2, A=frozenset(range(3)))
        result = decompose(G, 2, prof)
        assert isinstance(result, StarDecomposition)
        assert len(result.stars) == 3

    def test_cycle_k1(self):
        G = cycle_graph(6)
        prof = balanced_profile(6, 2, 1, A=frozenset())
        result = decompose(G, 1, prof)
        assert isinstance(result, StarDecomposition)
        assert len(result.stars) == 6

    def test_witness_on_overloaded_vertex(self):
        # all quota on vertex 0 of a 6-cycle: subsets avoiding 0 have no quota
        G = cycle_graph(6)
        prof = StarProfile(k=2, j_of=(3, 0, 0, 0, 0, 0))
        result = decompose(G, 2, prof)
        assert isinstance(result, Witness)
        assert result.lhs > result.rhs
        assert edges_within(G, result.U) == result.lhs
        holds_u, _ = check_condition_U(G, prof, result.U)
        assert not holds_u

    def test_profile_mismatch_errors(self):
        G = cycle_graph(4)
        with pytest.raises(ProfileError):
            decompose(G, 2, StarProfile(k=2, j_of=(1, 1, 1, 1)))  # quota != m
        with pytest.raises(ProfileError):
            decompose(G, 3, StarProfile(k=2, j_of=(1, 1)))

    def test_deep_reversal_path(self):
        G, prof = _far_pair_cycle(6000)
        result = decompose(G, 1, prof)
        assert isinstance(result, StarDecomposition)
        ok, why = verify_decomposition(G, 1, prof, result)
        assert ok, why

    def test_deep_reversal_path_by_paths(self):
        # The 6 000-cycle is above the array cutoff, so decompose no longer
        # takes the path-reversal loop there; call the loop directly.
        G, prof = _far_pair_cycle(6000)
        _assert_answer(G, prof, _orient_by_paths(G, prof), True)

    def test_long_cycle_push_relabel(self):
        # 12 000 BFS levels and push rounds: cheap only if each level and
        # round touches its own few arcs, not all m of them.
        G, prof = _far_pair_cycle(24_000)
        _assert_answer(G, prof, _orient_push_relabel(G, prof), True)


class TestAgreementWithBruteForce:
    @given(st.integers(0, 60))
    @settings(max_examples=40, deadline=None)
    def test_random_cubic_instances(self, seed):
        G, k, prof = _random_cubic_case(seed)
        if prof is None:
            return
        flow = decompose(G, k, prof)
        brute = brute_force_condition(G, prof)
        assert isinstance(flow, StarDecomposition) == (brute is True)
        if brute is not True:
            assert brute.lhs > brute.rhs

    @given(st.integers(0, 60))
    @settings(max_examples=40, deadline=None)
    def test_random_cubic_instances_push_relabel(self, seed):
        G, k, prof = _random_cubic_case(seed)
        if prof is None:
            return
        result = _orient_push_relabel(G, prof)
        _assert_answer(G, prof, result, brute_force_condition(G, prof) is True)

    @given(**_SUBSET_CASES)
    @settings(max_examples=100, deadline=None)
    def test_orientation_matches_subset_condition(self, N, d, k, moves, seed):
        _check_subset_case(orient_with_outdegrees, N, d, k, moves, seed)

    @given(**_SUBSET_CASES)
    @settings(max_examples=100, deadline=None)
    def test_orientation_matches_subset_condition_push_relabel(self, N, d, k, moves, seed):
        _check_subset_case(_orient_push_relabel, N, d, k, moves, seed)

    def test_push_relabel_on_all_cubic_graphs(self):
        # Criterion 7's exhaustive graph set, against the array routine.
        rng = np.random.default_rng(7)
        cases = 0
        for n in (4, 6, 8, 10):
            for G in all_cubic_graphs(n):
                m = len(G.edges)
                for k in (1, 2, 3):
                    for _ in range(3):
                        prof = _random_profile(rng, n, m, k)
                        if prof is None:
                            continue
                        cases += 1
                        result = _orient_push_relabel(G, prof)
                        _assert_answer(G, prof, result, brute_force_condition(G, prof) is True)
        assert cases > 100

    def test_witness_is_lexicographically_first(self):
        G = cycle_graph(5)
        prof = StarProfile(k=1, j_of=(0, 0, 5, 0, 0))
        brute = brute_force_condition(G, prof)
        assert brute is not True
        # {0, 1} is the first subset (in lex order) with an uncovered edge
        assert sorted(brute.U) == [0, 1]

    def test_brute_cap(self):
        G = sample_simple(26, 3, seed=0)
        with pytest.raises(GraphError):
            brute_force_condition(G, StarProfile(k=3, j_of=(1,) * 26))


def _two_blocks(N, seed):
    """flow-large's infeasible instance at size N (a multiple of 6): two
    disjoint 10-regular blocks, A = the first block plus N/6 vertices of the
    second, so e[block 2] = 5N/2 exceeds its quota 2N."""
    half = N // 2
    B1 = sample_simple(half, 10, seed)
    B2 = sample_simple(half, 10, seed + 1)
    edges = B1.edges + tuple((u + half, v + half) for u, v in B2.edges)
    G = SimpleGraph(N=N, d=10, edges=tuple(sorted(edges)))
    extra = np.random.default_rng(seed).choice(half, size=N // 6, replace=False)
    A = list(range(half)) + (half + extra).tolist()
    return G, balanced_profile(N, 10, 3, A)


def _same_answer(a, b):
    if isinstance(a, Orientation) and isinstance(b, Orientation):
        return np.array_equal(a.tails, b.tails)
    return a == b


class TestCrossover:
    # 10-regular graphs with k = 3 have m = 5N edges; the two-block instance
    # needs N divisible by 6.  Below: the largest such N under the cutoff;
    # above: the next one, and a scaled-down flow-large.
    N_BELOW = 6 * ((_ARRAY_MIN_EDGES - 1) // 30)

    @staticmethod
    def _agree(G, prof):
        """Both routines give the same verdict and valid answers, and
        orient_with_outdegrees gives exactly the answer of the routine it picks."""
        by_paths = _orient_by_paths(G, prof)
        push_relabel = _orient_push_relabel(G, prof)
        feasible = not isinstance(by_paths, Witness)
        _assert_answer(G, prof, by_paths, feasible)
        _assert_answer(G, prof, push_relabel, feasible)
        picked = push_relabel if len(G.edges) >= _ARRAY_MIN_EDGES else by_paths
        assert _same_answer(orient_with_outdegrees(G, prof), picked)
        return feasible

    @pytest.mark.parametrize("N", [N_BELOW, N_BELOW + 6, 2004])
    def test_routines_agree(self, N):
        assert 5 * self.N_BELOW < _ARRAY_MIN_EDGES <= 5 * (self.N_BELOW + 6)
        rng = np.random.default_rng(N)
        for seed in range(3):
            A = rng.choice(N, size=2 * N // 3, replace=False).tolist()
            self._agree(sample_simple(N, 10, seed), balanced_profile(N, 10, 3, A))
        assert not self._agree(*_two_blocks(N, 0))


def _verify_by_loop(G, k, profile, D):
    """The per-star loop that verify_decomposition replaced: the oracle for
    its (ok, why).  Counts sit in a Counter, where the old list raised
    IndexError for a center >= N; an out-of-range center never reaches the
    count check, as its first edge is not incident to it."""
    used = [False] * len(G.edges)
    counts = Counter()
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


def _replace(D, i, center=None, edge_ids=None):
    """D with star i's center and/or edge ids replaced."""
    s = D.stars[i]
    star = Star(s.center if center is None else center,
                s.edge_ids if edge_ids is None else tuple(edge_ids))
    return StarDecomposition(D.stars[:i] + (star,) + D.stars[i + 1:])


class TestVerification:
    def _setup(self):
        G = sample_simple(10, 4, seed=2)
        prof = balanced_profile(10, 4, 2, A=frozenset())
        D = decompose(G, 2, prof)
        return G, prof, D

    def test_detects_duplicate_edge(self):
        G, prof, D = self._setup()
        bad = StarDecomposition(stars=D.stars[:-1] + (D.stars[0],))
        ok, why = verify_decomposition(G, 2, prof, bad)
        assert not ok and why is not None

    def test_detects_wrong_star_size(self):
        G, prof, D = self._setup()
        s0 = D.stars[0]
        bad = StarDecomposition(stars=(Star(s0.center, s0.edge_ids[:1]),) + D.stars[1:])
        ok, why = verify_decomposition(G, 2, prof, bad)
        assert not ok and "expected 2" in why

    def test_detects_non_incident_edge(self):
        G, prof, D = self._setup()
        s0 = D.stars[0]
        for eid, (u, v) in enumerate(G.edges):
            if s0.center not in (u, v):
                bad_star = Star(s0.center, (s0.edge_ids[0], eid))
                break
        bad = StarDecomposition(stars=(bad_star,) + D.stars[1:])
        ok, why = verify_decomposition(G, 2, prof, bad)
        assert not ok

    def test_detects_wrong_center_count(self):
        G, prof, D = self._setup()
        wrong = StarProfile(k=2, j_of=(2, 0) + prof.j_of[2:])
        ok, why = verify_decomposition(G, 2, wrong, D)
        assert not ok

    def test_messages(self):
        G, prof, D = self._setup()
        m = len(G.edges)
        s0, s1 = D.stars[0], D.stars[1]
        far = next(e for e, (u, v) in enumerate(G.edges) if s0.center not in (u, v))
        cases = {
            # ragged star: the size is reported before the star's bad edge id
            "star at {c} has 1 edges, expected 2".format(c=s0.center):
                _replace(D, 0, edge_ids=(-1,)),
            "star at {c} has 3 edges, expected 2".format(c=s1.center):
                _replace(D, 1, edge_ids=s1.edge_ids + (s0.edge_ids[0],)),
            "unknown edge id -1": _replace(D, 1, edge_ids=(s1.edge_ids[0], -1)),
            f"unknown edge id {m}": _replace(D, 0, edge_ids=(m, s0.edge_ids[1])),
            # an out-of-range center fails at its first edge, which is not incident
            f"edge {s0.edge_ids[0]} not incident to center {G.N}": _replace(D, 0, center=G.N),
            f"edge {s0.edge_ids[0]} not incident to center -1": _replace(D, 0, center=-1),
            f"edge {s0.edge_ids[0]} covered twice":
                _replace(D, 1, edge_ids=(s0.edge_ids[0], s1.edge_ids[1])),
            f"edge {far} not incident to center {s0.center}":
                _replace(D, 0, edge_ids=(s0.edge_ids[0], far)),
            f"edge {s0.edge_ids[0]} not covered": StarDecomposition(D.stars[1:]),
        }
        for why, bad in cases.items():
            assert verify_decomposition(G, 2, prof, bad) == (False, why)
            assert _verify_by_loop(G, 2, prof, bad) == (False, why)
        j = (prof.j_of[0] + 1, prof.j_of[1] - 1) + prof.j_of[2:]
        want = f"vertex 0 centers {prof.j_of[0]} stars, profile demands {j[0]}"
        assert verify_decomposition(G, 2, StarProfile(k=2, j_of=j), D) == (False, want)
        assert verify_decomposition(G, 2, prof, D) == (True, None)

    def test_star_size_must_be_positive(self):
        G, prof, D = self._setup()
        with pytest.raises(ProfileError):
            verify_decomposition(G, 0, prof, StarDecomposition(()))

    @given(
        seed=st.integers(0, 2**32 - 1),
        edits=st.lists(
            st.tuples(st.sampled_from(["center", "edge", "drop", "add", "star", "swap"]),
                      st.integers(0, 10**6), st.integers(0, 10**6)),
            max_size=3,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_loop_on_corrupted_decompositions(self, seed, edits):
        rng = np.random.default_rng(seed)
        N, d, k = [(10, 4, 2), (12, 3, 1), (18, 6, 3)][seed % 3]
        G = sample_simple(N, d, seed)
        m = len(G.edges)
        prof = balanced_profile(N, d, k, rng.permutation(N)[: N * (d % (2 * k)) // (2 * k)])
        D = decompose(G, k, prof)
        assume(isinstance(D, StarDecomposition))
        stars = [[s.center, list(s.edge_ids)] for s in D.stars]
        for kind, a, b in edits:
            star = stars[a % len(stars)] if stars else None
            if kind == "center" and star:
                star[0] = b % (N + 4) - 2  # -2 .. N + 1
            elif kind == "edge" and star and star[1]:
                star[1][a % len(star[1])] = b % (m + 4) - 2
            elif kind == "drop" and star and star[1]:
                star[1].pop(b % len(star[1]))
            elif kind == "add" and star:
                star[1].insert(b % (len(star[1]) + 1), b % m)
            elif kind == "star" and star:
                del stars[a % len(stars)]
            elif kind == "swap" and stars:
                i, j = a % len(stars), b % len(stars)
                stars[i], stars[j] = stars[j], stars[i]
        D = StarDecomposition(Star(c, tuple(ids)) for c, ids in stars)
        assert verify_decomposition(G, k, prof, D) == _verify_by_loop(G, k, prof, D)

    def test_extraction_builds_no_star(self, monkeypatch):
        made = []
        init = Star.__init__

        def counting(self, *args, **kwargs):
            made.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Star, "__init__", counting)
        for N in (60, 600):  # path reversal, then push-relabel
            G = sample_simple(N, 10, seed=1)
            prof = balanced_profile(N, 10, 3)
            orientation = orient_with_outdegrees(G, prof)
            D = stars_from_orientation(G, orientation, prof)
            assert verify_decomposition(G, 3, prof, D) == (True, None)
            assert decompose(G, 3, prof) == D
            assert made == []
            assert len(D.stars) == len(made) == N * 10 // 6  # built on first use
            made.clear()

    def test_arrays(self):
        G, prof, D = self._setup()
        assert D.centers.tolist() == [s.center for s in D.stars]
        assert D.offsets.tolist() == list(range(0, len(G.edges) + 1, 2))
        assert D.edge_ids.tolist() == [e for s in D.stars for e in s.edge_ids]
        for a in (D.centers, D.edge_ids, D.offsets):
            assert a.dtype == np.int64 and not a.flags.writeable
        ragged = StarDecomposition([Star(0, (1, 2, 3)), Star(1, ())])
        assert ragged.offsets.tolist() == [0, 3, 3]
        assert ragged.stars == (Star(0, (1, 2, 3)), Star(1, ()))
        assert len({ragged, StarDecomposition(ragged.stars)}) == 1


class TestConditionU:
    def test_complement_equivalence_under_equality_profile(self):
        G = sample_simple(12, 4, seed=9)
        prof = balanced_profile(12, 4, 2, A=frozenset())
        rng = np.random.default_rng(0)
        for _ in range(50):
            U = frozenset(int(v) for v in rng.choice(12, size=rng.integers(0, 13), replace=False))
            holds_u, holds_uc = check_condition_U(G, prof, U)
            # with total quota = m the two inequalities are equivalent
            assert holds_u == check_condition_U(G, prof, frozenset(range(12)) - U)[1]


class TestSerialization:
    def test_round_trip(self, tmp_path):
        G = sample_simple(10, 4, seed=2)
        prof = balanced_profile(10, 4, 2, A=frozenset())
        D = decompose(G, 2, prof)
        path = tmp_path / "dec.txt"
        write_decomposition(path, D)
        D2 = read_decomposition(path)
        assert D2 == D
        ok, why = verify_decomposition(G, 2, prof, D2)
        assert ok, why

    def test_malformed(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1: 1 2\nnot a star\n")
        with pytest.raises(GraphError, match="line 2"):
            read_decomposition(path)
