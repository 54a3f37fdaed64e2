"""Pinned outputs and the benchmark's view of the API.

The hashes were taken from the code before graphs and decompositions were
stored as arrays; a change of representation must leave every one of them,
the graph each seed gives, the stars and their order, witness sets and both
file formats, exactly as it was.
"""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from stardecomp.decompose import (
    StarDecomposition,
    balanced_profile,
    decompose,
    read_decomposition,
    write_decomposition,
)
from stardecomp.graph import SimpleGraph, reject_to_simple, sample_simple, write_graph

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _sha(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def _gate():
    spec = importlib.util.spec_from_file_location("bench_gate", BENCH / "gate.py")
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate


def test_bench_gate_selftest():
    # The gate builds Star and StarDecomposition(stars=...) itself and
    # checks decompose's outputs with verify_decomposition.
    assert _gate().selftest() == []


# (sampler, N, d, k, seed): graph file hash, decomposition file hash.  N = 3000
# (m = 15 000) takes the push-relabel route, the others path reversal.
FILES = [
    ("reject", 30, 4, 2, 0, "e4554bff1f53ef62", "eafaa80b4b30ba63"),
    ("sample", 60, 10, 3, 0, "e90a7d458756f2d0", "23f24a56d1033681"),
    ("sample", 3000, 10, 3, 1, "30fdcfbdcd20024c", "2b78fe393e23be3b"),
]


@pytest.mark.parametrize("sampler, N, d, k, seed, graph_sha, deco_sha", FILES)
def test_file_bytes(tmp_path, sampler, N, d, k, seed, graph_sha, deco_sha):
    G = (reject_to_simple if sampler == "reject" else sample_simple)(N, d, seed)
    size = N * (d % (2 * k)) // (2 * k)
    A = np.random.default_rng(seed).choice(N, size=size, replace=False).tolist()
    D = decompose(G, k, balanced_profile(N, d, k, A))
    write_graph(tmp_path / "g.txt", G)
    write_decomposition(tmp_path / "d.txt", D)
    assert (_sha(tmp_path / "g.txt"), _sha(tmp_path / "d.txt")) == (graph_sha, deco_sha)
    assert read_decomposition(tmp_path / "d.txt") == D
    assert StarDecomposition(D.stars) == D


@pytest.mark.parametrize("N, U_sha", [(600, "e6981456ef9eded2"), (3000, "6e2441c86abea56d")])
def test_witness_sets(N, U_sha):
    # flow-large's infeasible instance, scaled down: two 10-regular blocks.
    half = N // 2
    B1, B2 = sample_simple(half, 10, 0), sample_simple(half, 10, 1)
    edges = B1.edges + tuple((u + half, v + half) for u, v in B2.edges)
    G = SimpleGraph(N=N, d=10, edges=tuple(sorted(edges)))
    extra = np.random.default_rng(0).choice(half, size=N // 6, replace=False)
    W = decompose(G, 3, balanced_profile(N, 10, 3, list(range(half)) + (half + extra).tolist()))
    assert (W.lhs, W.rhs) == (5 * N // 2, 2 * N)
    assert hashlib.sha256(str(sorted(W.U)).encode()).hexdigest()[:16] == U_sha


@pytest.mark.parametrize("G", [reject_to_simple(30, 4, 0), sample_simple(60, 10, 0)])
def test_sampled_and_tuple_built_ends_agree(G):
    H = SimpleGraph(G.N, G.d, G.edges)
    assert H == G == SimpleGraph(G.N, G.d, G.ends)
    assert hash(H) == hash(G) and len({G, H}) == 1
    for ends in (G.ends, H.ends):
        assert ends.dtype == np.int64 and ends.shape == (len(G.edges), 2)
        assert not ends.flags.writeable
        with pytest.raises(ValueError):
            ends[0, 0] = 0
    assert np.array_equal(G.ends, H.ends)
    assert G.ends.tolist() == [list(e) for e in G.edges]
