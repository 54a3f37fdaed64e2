"""Graph representations, configuration-model samplers, and file formats."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stardecomp import graph
from stardecomp.graph import (
    ExhaustionError,
    FormatError,
    GraphError,
    MultiGraph,
    ParityError,
    SimpleGraph,
    complete_graph,
    cycle_graph,
    edges_within,
    enumerate_pairings,
    gen_configuration,
    read_graph,
    reject_to_simple,
    sample_simple,
    write_graph,
)

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


small_nd = st.tuples(st.integers(1, 6), st.integers(1, 4)).filter(
    lambda p: (p[0] * p[1]) % 2 == 0
)


class TestConfigurationModel:
    @given(small_nd, st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_valid_pairing_and_degrees(self, nd, seed):
        N, d = nd
        G = gen_configuration(N, d, seed)
        assert len(G.pairing) == N * d // 2
        assert G.degrees() == [d] * N

    def test_deterministic(self):
        a = gen_configuration(10, 3, 42)
        b = gen_configuration(10, 3, 42)
        c = gen_configuration(10, 3, 43)
        assert a.pairing == b.pairing
        assert a.pairing != c.pairing

    def test_parity(self):
        with pytest.raises(ParityError):
            gen_configuration(3, 3, 0)

    def test_bad_pairing_rejected(self):
        with pytest.raises(GraphError):
            MultiGraph(N=2, d=2, pairing=((0, 1), (1, 2)))
        with pytest.raises(GraphError):
            MultiGraph(N=2, d=2, pairing=((0, 1),))

    def test_uniform_over_pairings(self):
        """N=2, d=2 has 3 pairings; frequencies should be near 1/3 each."""
        counts = {}
        trials = 3000
        for seed in range(trials):
            G = gen_configuration(2, 2, seed)
            key = frozenset(G.pairing)
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 3
        for c in counts.values():
            assert abs(c / trials - 1 / 3) < 0.05


class TestSimpleGraphs:
    def test_is_simple(self):
        loopy = MultiGraph(N=2, d=2, pairing=((0, 1), (2, 3)))
        assert not is_simple(loopy)
        with pytest.raises(GraphError):
            multigraph_to_simple(loopy)

    def test_reject_to_simple(self):
        G = reject_to_simple(10, 3, seed=0)
        assert isinstance(G, SimpleGraph)
        assert len(G.edges) == 15

    def test_sample_simple(self):
        for d in (3, 6, 10):
            G = sample_simple(24, d, seed=1)
            assert len(G.edges) == 24 * d // 2

    def test_samplers_deterministic(self):
        assert reject_to_simple(10, 3, 5).edges == reject_to_simple(10, 3, 5).edges
        assert sample_simple(20, 6, 5).edges == sample_simple(20, 6, 5).edges

    def test_need_room_for_simplicity(self):
        with pytest.raises(GraphError):
            reject_to_simple(3, 3, 0)
        with pytest.raises(GraphError):
            sample_simple(4, 5, 0)

    @pytest.mark.parametrize("d", [-2, -1, 0])
    def test_need_positive_degree(self, d):
        for sampler in (reject_to_simple, sample_simple):
            with pytest.raises(GraphError, match=r"need N > d >= 1"):
                sampler(6, d, 0)

    def test_validation(self):
        with pytest.raises(GraphError):
            SimpleGraph(N=3, d=2, edges=((0, 1), (0, 1), (1, 2)))
        with pytest.raises(GraphError):
            SimpleGraph(N=3, d=2, edges=((0, 1), (1, 2)))  # vertex 0 degree 1

    def test_validation_reports_first_offence(self):
        with pytest.raises(GraphError, match=r"^bad edge \(2, 1\)"):
            SimpleGraph(N=3, d=2, edges=((0, 1), (2, 1), (0, 1)))
        with pytest.raises(GraphError, match=r"^parallel edge \(0, 1\)"):
            SimpleGraph(N=3, d=2, edges=((0, 1), (1, 2), (0, 1), (0, 3)))
        with pytest.raises(GraphError, match=r"^bad edge \(0, 3\)"):
            SimpleGraph(N=3, d=2, edges=((0, 1), (0, 3), (0, 1)))
        with pytest.raises(GraphError, match=r"^vertex 1 has degree 1, expected 2"):
            SimpleGraph(N=4, d=2, edges=((0, 2), (0, 3), (1, 2)))

    def test_validation_rejects_non_integers(self):
        for edges in (((0, 1.0), (1, 2), (0, 2)), ((0, 1.5), (1, 2), (0, 2)),
                      (("0", "1"), (1, 2), (0, 2)), ((0, 1, 2),)):
            with pytest.raises(GraphError, match="pairs of 64-bit integers"):
                SimpleGraph(N=3, d=2, edges=edges)
        assert SimpleGraph(N=3, d=2, edges=((0, 1), (np.int64(1), 2), (0, 2))).N == 3

    def test_incident_edges(self):
        G = cycle_graph(4)
        inc = G.incident_edges()
        assert all(len(lst) == 2 for lst in inc)


def _pairings(N, d, seed):
    """Successive pairings of one generator: the stream of reject_to_simple."""
    rng = np.random.default_rng(seed)
    while True:
        pairs = np.sort(rng.permutation(N * d).reshape(-1, 2), axis=1)
        yield MultiGraph(N=N, d=d, pairing=tuple(map(tuple, pairs.tolist())))


def _first_simple_pairing(N, d, seed):
    """(index, graph) of the first simple pairing in the stream."""
    for t, G in enumerate(_pairings(N, d, seed)):
        if is_simple(G):
            return t, multigraph_to_simple(G)


def _stub_loop(N, d, seed, max_restarts=1_000):
    """sample_simple as a loop over stub pairs; returns (graph, restarts)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    for restart in range(max_restarts):
        stubs = np.repeat(np.arange(N), d)
        edges = set()
        ok = True
        while len(stubs) and ok:
            rng.shuffle(stubs)
            leftover = []
            progressed = False
            for i in range(0, len(stubs) - 1, 2):
                u, v = int(stubs[i]), int(stubs[i + 1])
                if u > v:
                    u, v = v, u
                if u == v or (u, v) in edges:
                    leftover.extend((u, v))
                else:
                    edges.add((u, v))
                    progressed = True
            if not progressed and leftover:
                ok = False
            stubs = np.array(leftover, dtype=int)
        if ok:
            return SimpleGraph(N=N, d=d, edges=tuple(sorted(edges))), restart
    raise ExhaustionError(max_restarts)


def _labelled_cubic_graphs_on_6():
    pairs = list(itertools.combinations(range(6), 2))
    return {
        es
        for es in itertools.combinations(pairs, 9)
        if all(sum(v in e for e in es) == 3 for v in range(6))
    }


class TestRejectionSampler:
    @pytest.mark.parametrize("N, d", [(30, 4), (10, 3), (12, 5), (8, 2)])
    def test_same_stream_as_gen_configuration(self, N, d):
        for seed in range(10):
            assert next(_pairings(N, d, seed)) == gen_configuration(N, d, seed)  # try 0
            assert reject_to_simple(N, d, seed) == _first_simple_pairing(N, d, seed)[1]

    def test_batching_does_not_change_the_graph(self, monkeypatch):
        for seed in range(10):
            t, G = _first_simple_pairing(30, 4, seed)
            assert t >= 1
            for max_tries in (t + 1, t + 2, t + 9, 2 * t + 17, 10_000):
                assert reject_to_simple(30, 4, seed, max_tries=max_tries) == G
            with pytest.raises(ExhaustionError):
                reject_to_simple(30, 4, seed, max_tries=t)
            for cap in (1, 200, 10**7):  # one try per batch, a few, no cap
                monkeypatch.setattr(graph, "_BATCH_ELEMENTS", cap)
                assert reject_to_simple(30, 4, seed) == G
            monkeypatch.undo()

    def test_parity(self):
        with pytest.raises(ParityError):
            reject_to_simple(7, 3, 0)

    def test_degree_zero(self):
        with pytest.raises(GraphError):
            reject_to_simple(5, 0, 0)

    def test_exhaustion(self):
        # K6 is the only simple 5-regular graph on 6 vertices: rarely drawn.
        assert not any(is_simple(G) for G in itertools.islice(_pairings(6, 5, 0), 3))
        with pytest.raises(ExhaustionError) as info:
            reject_to_simple(6, 5, 0, max_tries=3)
        assert info.value.attempts == 3

    def test_exact_law_on_labelled_cubic_graphs(self):
        """7000 seeds at N=6, d=3: uniform over the 70 labelled cubic graphs.

        111.06 is the upper 0.1 % point of chi-square with 69 degrees of
        freedom.  ``sample_simple`` is not held to this: its law is biased.
        """
        graphs = _labelled_cubic_graphs_on_6()
        assert len(graphs) == 70
        draws = 7000
        counts = dict.fromkeys(graphs, 0)
        for seed in range(draws):
            counts[reject_to_simple(6, 3, seed).edges] += 1
        expected = draws / len(graphs)
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert min(counts.values()) > 0
        assert chi2 < 111.06, chi2


class TestStubMatching:
    def test_same_graphs_as_the_stub_loop(self):
        cases = restarted = 0
        for d in (3, 4, 10, 13):
            for N in range(d + 1, d + 26):
                if (N * d) % 2:
                    continue
                for seed in range(14):
                    G, restarts = _stub_loop(N, d, seed)
                    assert sample_simple(N, d, seed) == G, (N, d, seed)
                    cases += 1
                    restarted += restarts > 0
        assert cases >= 1_000
        assert restarted >= 100

    def test_exhaustion(self):
        # K6 is the only simple 5-regular graph on 6 vertices.
        with pytest.raises(ExhaustionError) as info:
            sample_simple(6, 5, 0, max_restarts=1)
        assert info.value.attempts == 1


def _cut_edges(G, U) -> int:
    return sum(1 for u, v in G.edges if (u in U) != (v in U))


class TestEdgeCounts:
    def test_partition_identity(self):
        G = reject_to_simple(12, 3, seed=3)
        U = frozenset(range(5))
        Uc = frozenset(range(5, 12))
        m = len(G.edges)
        assert edges_within(G, U) + edges_within(G, Uc) + _cut_edges(G, U) == m

    def test_degree_sum_identity(self):
        G = reject_to_simple(12, 3, seed=3)
        U = frozenset(range(4))
        assert 2 * edges_within(G, U) + _cut_edges(G, U) == 3 * len(U)

    def test_loop_counts_once(self):
        loopy = MultiGraph(N=2, d=2, pairing=((0, 1), (2, 3)))
        assert edges_within(loopy, {0}) == 1
        assert edges_within(loopy, {0, 1}) == 2

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            edges_within(cycle_graph(4), {7})


class TestEnumeration:
    def test_counts_double_factorial(self):
        for N, d in [(2, 2), (4, 2), (2, 4), (3, 4), (4, 3), (6, 2)]:
            n = N * d
            if n > 12 or n % 2:
                continue
            expected = math.prod(range(n - 1, 0, -2))
            assert sum(1 for _ in enumerate_pairings(N, d)) == expected

    def test_cap(self):
        with pytest.raises(GraphError):
            next(enumerate_pairings(7, 2))


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        G = reject_to_simple(10, 3, seed=0)
        path = tmp_path / "g.txt"
        write_graph(path, G)
        assert read_graph(path).edges == G.edges

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# a triangle... no, a 4-cycle\n4 2\n\n1 2\n2 3  # mid\n3 4\n1 4\n")
        assert read_graph(path).edges == cycle_graph(4).edges

    def test_malformed(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("4 2\n1 two\n")
        with pytest.raises(FormatError, match="line 2"):
            read_graph(path)
        path.write_text("4 2\n2 1\n")
        with pytest.raises(FormatError):
            read_graph(path)
        path.write_text("")
        with pytest.raises(FormatError):
            read_graph(path)

    def test_non_regular_body(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("4 3\n1 2\n2 3\n3 4\n1 4\n")
        with pytest.raises(FormatError, match="header"):
            read_graph(path)


class TestConstructions:
    def test_complete(self):
        G = complete_graph(5)
        assert (G.N, G.d, len(G.edges)) == (5, 4, 10)

    def test_cycle(self):
        G = cycle_graph(6)
        assert (G.N, G.d, len(G.edges)) == (6, 2, 6)
