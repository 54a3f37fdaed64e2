"""Monte Carlo harness: reproducibility, statistics, reports, curves."""

import json

import pytest

from stardecomp import experiments
from stardecomp.experiments import curve_points, run_decomposition_trials, wilson_interval


class TestWilson:
    def test_degenerate(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_endpoints(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 and 0 < hi < 0.2
        lo, hi = wilson_interval(50, 50)
        assert 0.8 < lo < 1 and hi == 1.0

    def test_contains_estimate(self):
        lo, hi = wilson_interval(30, 50)
        assert lo < 30 / 50 < hi

    def test_shrinks_with_n(self):
        w1 = wilson_interval(5, 10)
        w2 = wilson_interval(50, 100)
        assert (w2[1] - w2[0]) < (w1[1] - w1[0])


class TestTrials:
    def test_reproducible(self):
        a = run_decomposition_trials(d=4, k=2, N=10, trials=10, seed=5)
        b = run_decomposition_trials(d=4, k=2, N=10, trials=10, seed=5)
        strip = lambda r: (r.trial, r.seed, r.success, r.witness)
        assert [strip(r) for r in a.records] == [strip(r) for r in b.records]
        assert a.successes == b.successes

    def test_eulerian_always_succeeds(self):
        rep = run_decomposition_trials(d=4, k=2, N=12, trials=25, seed=1)
        assert rep.successes == 25

    def test_fixed_and_random_modes(self):
        for mode in ("fixed", "random"):
            rep = run_decomposition_trials(
                d=3, k=2, N=8, trials=10, a_mode=mode, seed=2
            )
            assert rep.trials == 10
            assert all(r.a_mode == mode for r in rep.records)

    def test_witnesses_recorded_on_failure(self):
        rep = run_decomposition_trials(d=3, k=2, N=8, trials=40, a_mode="random", seed=3)
        for rec in rep.records:
            assert rec.success == (rec.witness is None)

    def test_no_edge_tuple_built(self, monkeypatch):
        # Sampling, orientation, witnesses and verification all read ``ends``.
        sample, sampled = experiments._sample_graph, []
        monkeypatch.setattr(
            experiments, "_sample_graph", lambda *a: sampled.append(sample(*a)) or sampled[-1]
        )
        failed = 0
        for d, k, N in ((3, 2, 8), (10, 3, 60)):  # rejection sampler, stub matching
            rep = run_decomposition_trials(d=d, k=k, N=N, trials=10, seed=3)
            failed += rep.trials - rep.successes
        assert failed and len(sampled) == 20
        assert not any("edges" in G.__dict__ for G in sampled)

    def test_divisibility_rejected(self):
        with pytest.raises(ValueError):
            run_decomposition_trials(d=3, k=2, N=7, trials=1)

    def test_report_schema(self, tmp_path):
        rep = run_decomposition_trials(d=4, k=2, N=10, trials=5, seed=0)
        path = tmp_path / "report.json"
        rep.save(path, include_records=True)
        data = json.loads(path.read_text())
        assert data["schema"] == 1
        assert set(data) >= {"config", "trials", "successes", "wilson95", "records"}
        assert len(data["records"]) == 5
        assert data["wilson95"][0] <= data["rate"] <= data["wilson95"][1]


class TestCurves:
    def test_gamma_curve(self):
        data = curve_points("gamma", {"grid": 200})
        assert len(data) == 200
        assert all(v < 0 for _, v in data)

    def test_quarter_curve(self):
        data = curve_points("quarter-case", {"grid": 150})
        assert max(v for _, v in data) < -1 / 9

    def test_weak_bound_curve(self):
        data = curve_points("weak-bound", {"d": 23, "k": 8, "grid_step": 1e-3})
        assert max(v for _, v in data) < 0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            curve_points("nope", {})
