"""Graph representations, configuration-model samplers, and file formats."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    is_simple,
    multigraph_to_simple,
    read_graph,
    reject_to_simple,
    sample_simple,
    write_graph,
)

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

    def test_validation(self):
        with pytest.raises(GraphError):
            SimpleGraph(N=3, d=2, edges=((0, 1), (0, 1), (1, 2)))
        with pytest.raises(GraphError):
            SimpleGraph(N=3, d=2, edges=((0, 1), (1, 2)))  # vertex 0 degree 1

    def test_incident_edges(self):
        G = cycle_graph(4)
        inc = G.incident_edges()
        assert all(len(lst) == 2 for lst in inc)


def _first_simple_configuration(N, d, seed):
    for t in itertools.count():
        G = gen_configuration(N, d, [seed, t])
        if is_simple(G):
            return multigraph_to_simple(G)


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
            assert reject_to_simple(N, d, seed) == _first_simple_configuration(N, d, seed)

    def test_parity(self):
        with pytest.raises(ParityError):
            reject_to_simple(7, 3, 0)

    def test_degree_zero(self):
        with pytest.raises(GraphError):
            reject_to_simple(5, 0, 0)

    def test_exhaustion(self):
        # K6 is the only simple 5-regular graph on 6 vertices: rarely drawn.
        assert not any(is_simple(gen_configuration(6, 5, [0, t])) for t in range(3))
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
