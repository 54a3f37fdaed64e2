"""Monte Carlo harness tying the random model to the decomposition engine.

Trials are reproducible: each trial uses a sub-seed derived from (seed,
trial index), so replaying a single record or running trials in any order
gives identical outcomes.  Reports serialize to JSON (schema version 1).
``curve_points`` tabulates the certificate curves as (x, value) pairs; the
CLI's ``bounds-curve`` prints them.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import conditions
from .conditions import star_params, weak_certificate
from .decompose import Witness, _star_counts, balanced_profile, decompose
from .graph import (
    SimpleGraph,
    edges_within,
    gen_configuration,
    reject_to_simple,
    sample_simple,
)
from .numerics import SubgraphCount, exact_P_Mr

__all__ = [
    "TrialRecord",
    "ExperimentReport",
    "wilson_interval",
    "run_decomposition_trials",
    "empirical_P_Mr",
    "curve_points",
]

REPORT_SCHEMA = 1

# Rejection sampling accepts with probability ~ exp(-(d^2-1)/4); beyond this
# degree we switch to the restart-based sampler.
_REJECTION_MAX_D = 5


def wilson_interval(successes: int, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """Wilson 95% score interval; degenerates to sharp endpoints at 0 and 1."""
    if n == 0:
        return (0.0, 1.0)
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    seed: int
    N: int
    d: int
    k: int
    a_mode: str
    success: bool
    witness: dict | None
    wall_time: float


@dataclass(frozen=True)
class ExperimentReport:
    config: dict
    trials: int
    successes: int
    wilson95: tuple[float, float]
    records: tuple[TrialRecord, ...] = field(repr=False)

    @property
    def success_rate(self) -> float | None:
        return self.successes / self.trials if self.trials else None

    def to_dict(self, include_records: bool = False) -> dict:
        out = {
            "schema": REPORT_SCHEMA,
            "config": self.config,
            "trials": self.trials,
            "successes": self.successes,
            "rate": self.success_rate,
            "wilson95": list(self.wilson95),
        }
        if include_records:
            out["records"] = [
                {
                    "trial": rec.trial,
                    "seed": rec.seed,
                    "success": rec.success,
                    "witness": rec.witness,
                    "wall_time": rec.wall_time,
                }
                for rec in self.records
            ]
        return out

    def save(self, path: str | Path, include_records: bool = False) -> None:
        Path(path).write_text(json.dumps(self.to_dict(include_records), indent=2) + "\n")


def _sample_graph(N: int, d: int, seed, sampler: str) -> SimpleGraph:
    if sampler == "reject" or (sampler == "auto" and d <= _REJECTION_MAX_D):
        return reject_to_simple(N, d, seed)
    return sample_simple(N, d, seed)


def run_decomposition_trials(
    d: int,
    k: int,
    N: int,
    trials: int,
    a_mode: str = "random",
    seed: int = 0,
    sampler: str = "auto",
    keep_records: bool = True,
) -> ExperimentReport:
    """Sample simple d-regular graphs and attempt balanced decompositions.

    ``a_mode``: "random" draws a fresh (s+1)-star vertex set A each trial;
    "fixed" uses A = {0, ..., |A|-1} throughout.
    """
    if a_mode not in ("random", "fixed"):
        raise ValueError("a_mode must be 'random' or 'fixed'")
    _, a_size = _star_counts(N, d, k)

    records = []
    successes = 0
    for trial in range(trials):
        t_start = time.perf_counter()
        sub = int(np.random.SeedSequence([seed, trial]).generate_state(1)[0])
        G = _sample_graph(N, d, sub, sampler)
        if a_mode == "fixed":
            A = None
        else:
            rng = np.random.default_rng([seed, trial, 1])
            A = frozenset(int(v) for v in rng.choice(N, size=a_size, replace=False))
        profile = balanced_profile(N, d, k, A)
        result = decompose(G, k, profile)
        ok = not isinstance(result, Witness)
        successes += ok
        records.append(
            TrialRecord(
                trial=trial,
                seed=sub,
                N=N,
                d=d,
                k=k,
                a_mode=a_mode,
                success=ok,
                witness=result.to_dict() if isinstance(result, Witness) else None,
                wall_time=time.perf_counter() - t_start,
            )
        )
    config = {
        "d": d, "k": k, "N": N, "trials": trials,
        "a_mode": a_mode, "seed": seed, "sampler": sampler,
    }
    return ExperimentReport(
        config=config,
        trials=trials,
        successes=successes,
        wilson95=wilson_interval(successes, trials),
        records=tuple(records) if keep_records else (),
    )


def empirical_P_Mr(
    N: int, d: int, M: int, inside: int, trials: int, seed: int = 0
) -> tuple[float, float]:
    """Monte Carlo frequency of e[U] = inside for U = {0..M-1} in the pairing model.

    Returns (estimate, standard error).  Exchangeability makes the fixed
    choice of U irrelevant.
    """
    SubgraphCount(N, d, M, inside)  # feasibility check
    U = frozenset(range(M))
    hits = 0
    for trial in range(trials):
        G = gen_configuration(N, d, [seed, trial])
        hits += edges_within(G, U) == inside
    p = hits / trials
    return p, math.sqrt(max(p * (1 - p), 1.0 / trials) / trials)


def curve_points(kind: str, params: dict) -> list[tuple[float, float]]:
    """One of the certificate curves as a list of (x, value) pairs.

    kinds: "gamma" (threshold ratio over beta), "quarter-case" (the s >= 2
    reduction curve), "weak-bound" (both bound curves of the certificate for
    a given d, k).
    """
    n = int(params.get("grid", 2000))
    if kind == "gamma":
        bs = np.linspace(1e-6, 1.0, n)
        return list(zip(bs.tolist(), np.atleast_1d(conditions.gamma_beta(bs)).tolist()))
    if kind == "quarter-case":
        bs = np.linspace(1e-9, 1.0 - 1e-9, n)
        return list(zip(bs.tolist(), conditions.quarter_case_ratio(bs).tolist()))
    if kind == "weak-bound":
        p = star_params(int(params["d"]), int(params["k"]))
        cert = weak_certificate(
            p,
            grid_step=float(params.get("grid_step", 1e-4)),
            x_minus=params.get("x_minus"),
            x_plus=params.get("x_plus"),
        )
        return list(cert.case1_curve) + list(cert.case2_curve)
    raise ValueError(f"unknown curve kind {kind!r}")
