"""Correctness gate: every output the benchmark times is checked here.

Functions are bound at import, before any tracing patches module attributes,
so the gate always runs the library's own checkers untraced and its time
never lands in a layer's span.  Each check returns None when the output is
correct, else a one-line reason.
"""

from __future__ import annotations

from stardecomp.decompose import (
    Star,
    StarDecomposition,
    StarProfile,
    Witness,
    balanced_profile,
    decompose,
    verify_decomposition,
)
from stardecomp.graph import edges_within, sample_simple

# k_sc(d) as tabulated by acceptance criterion 1 (tests/test_acceptance.py).
THRESHOLD_TABLE = dict(
    zip(
        list(range(13, 30))
        + [30, 40, 50, 60, 70, 80, 90, 100, 110, 120, 130, 140, 150, 160, 500],
        [3, 4, 4, 4, 5, 5, 5, 6, 6, 7, 7, 7, 8, 8, 9, 9, 10]
        + [10, 14, 19, 24, 28, 33, 38, 42, 47, 52, 57, 62, 67, 71, 239],
    )
)


def check_witness(G, profile: StarProfile, w: Witness) -> str | None:
    """Recount e[U] and the quota sum; any U with lhs > rhs is accepted."""
    lhs = edges_within(G, w.U)
    rhs = sum(profile.quota(v) for v in w.U)
    if (lhs, rhs) != (w.lhs, w.rhs):
        return f"witness reports e[U]={w.lhs}, quota={w.rhs}; recount gives {lhs}, {rhs}"
    if lhs <= rhs:
        return f"witness does not violate the condition: e[U]={lhs} <= quota={rhs}"
    return None


def check_result(G, k: int, profile: StarProfile, result) -> str | None:
    """Check a ``decompose`` output, whichever of the two kinds it is."""
    if isinstance(result, Witness):
        return check_witness(G, profile, result)
    if not isinstance(result, StarDecomposition):
        return f"decompose returned {type(result).__name__}"
    ok, why = verify_decomposition(G, k, profile, result)
    return None if ok else f"decomposition invalid: {why}"


def check_ksc_rows(rows: list[dict], library: dict[int, int]) -> str | None:
    """CLI ``ksc`` JSON rows against a serial library table and criterion 1."""
    got = {row["d"]: row["k_sc"] for row in rows}
    if len(got) != len(rows) or sorted(got) != sorted(library):
        return f"ksc rows cover d={sorted(got)[:3]}..., library covers {sorted(library)[:3]}..."
    for d, want in library.items():
        if got[d] != want:
            return f"ksc row d={d}: CLI gives {got[d]}, library k_sc gives {want}"
    for d, want in THRESHOLD_TABLE.items():
        if d in got and got[d] != want:
            return f"ksc row d={d}: {got[d]}, criterion 1 tabulates {want}"
    return None


def selftest() -> list[str]:
    """Feed the gate known-bad outputs; return the ones it failed to reject.

    A dropped edge, a witness with lhs <= rhs and a ksc row off by one must
    each count as failed, and the intact outputs must pass.
    """
    missed = []
    G = sample_simple(12, 4, seed=0)
    profile = balanced_profile(12, 4, 2, ())
    deco = decompose(G, 2, profile)
    if check_result(G, 2, profile, deco) is not None:
        missed.append("intact decomposition rejected")
    first = deco.stars[0]
    dropped = StarDecomposition(
        stars=(Star(center=first.center, edge_ids=first.edge_ids[:-1]),) + deco.stars[1:]
    )
    if check_result(G, 2, profile, dropped) is None:
        missed.append("decomposition with one edge dropped accepted")

    # Zero quota at both ends of edge 0, the two spare stars elsewhere.
    u, v = G.edges[0]
    others = [w for w in range(G.N) if w not in (u, v)]
    j_of = [0 if w in (u, v) else 1 for w in range(G.N)]
    j_of[others[0]] += 1
    j_of[others[1]] += 1
    tight = StarProfile(k=2, j_of=tuple(j_of))
    w = decompose(G, 2, tight)
    if not isinstance(w, Witness) or check_result(G, 2, tight, w) is not None:
        missed.append("valid witness rejected")
    everything = frozenset(range(G.N))
    flat = Witness(U=everything, lhs=edges_within(G, everything), rhs=tight.total_quota())
    if check_result(G, 2, tight, flat) is None:
        missed.append("witness with lhs <= rhs accepted")

    library = {d: k for d, k in THRESHOLD_TABLE.items() if d <= 20}
    rows = [{"d": d, "k_sc": k} for d, k in library.items()]
    if check_ksc_rows(rows, library) is not None:
        missed.append("intact ksc rows rejected")
    rows[0] = {"d": rows[0]["d"], "k_sc": rows[0]["k_sc"] + 1}
    if check_ksc_rows(rows, library) is None:
        missed.append("ksc row off by one accepted")
    return missed
