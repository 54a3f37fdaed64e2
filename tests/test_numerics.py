"""Rate functions, analytic bounds, and exact pairing-model probabilities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stardecomp.graph import edges_within, enumerate_pairings
from stardecomp.numerics import (
    DomainError,
    F_main_term_bound,
    F_upper_estimate,
    InfeasibleError,
    SubgraphCount,
    Z_upper,
    entropy_H,
    entropy_h,
    exact_P_Mr,
    g_alpha,
    log_double_factorial,
    log_factorial,
    rate_F,
    rate_F_dt,
    rate_Fd,
    _h,
)


def feasible_xt():
    return (
        st.tuples(
            st.floats(0.01, 0.99), st.floats(0.0, 1.0)
        ).filter(lambda p: (2 - p[1]) * p[0] <= 1.0)
    )


class TestEntropy:
    def test_endpoints_exact(self):
        assert entropy_h(0.0) == 0.0
        assert entropy_h(1.0) == 0.0
        assert entropy_H(0.0) == 0.0
        assert entropy_H(1.0) == 0.0

    def test_known_values(self):
        assert entropy_h(1 / math.e) == pytest.approx(1 / math.e, abs=1e-15)
        assert entropy_H(0.5) == pytest.approx(math.log(2), abs=1e-15)

    @given(st.floats(0.0, 1.0))
    def test_H_symmetric(self, x):
        assert entropy_H(x) == pytest.approx(entropy_H(1.0 - x), abs=1e-12)

    @given(st.floats(0.0, 1.0))
    def test_H_bounded_by_log2(self, x):
        assert -1e-15 <= entropy_H(x) <= math.log(2) + 1e-15

    def test_h_kernel_zeros_are_positive_and_interior_is_exact(self):
        # _scan_curve branches on np.signbit, so h(0) and h(1) must be +0.0.
        for x in (np.asarray(0.0), np.asarray(1.0), np.array([0.0, 1.0])):
            out = _h(x)
            assert np.all(out == 0.0) and not np.any(np.signbit(out))
        x = np.random.default_rng(0).random(4000)
        x = x[x > 0]
        assert np.array_equal(_h(x).view(np.int64), (-x * np.log(x)).view(np.int64))

    def test_array_shape(self):
        xs = np.linspace(0, 1, 7)
        assert entropy_h(xs).shape == (7,)

    def test_domain(self):
        with pytest.raises(DomainError, match="x must lie in"):
            entropy_h(1.5)
        with pytest.raises(DomainError, match="x must lie in"):
            entropy_H(np.array([0.5, -0.1]))
        # NaN is passed through, not rejected
        assert math.isnan(entropy_h(float("nan")))
        assert np.isnan(entropy_H(np.array([0.5, np.nan]))).tolist() == [False, True]


class TestRateF:
    @given(feasible_xt())
    def test_nonpositive(self, p):
        x, t = p
        assert rate_F(x, t) <= 1e-12

    @given(st.floats(0.0, 1.0))
    def test_zero_on_diagonal(self, x):
        assert rate_F(x, x) == pytest.approx(0.0, abs=1e-12)

    def test_zero_at_x0(self):
        for t in (0.0, 0.3, 1.0):
            assert rate_F(0.0, t) == 0.0

    @given(feasible_xt())
    def test_complement_symmetry(self, p):
        """F is invariant under passing to the complement subset."""
        x, t = p
        tp = (1.0 - (2.0 - t) * x) / (1.0 - x)
        if not 0.0 <= tp <= 1.0:
            return
        assert rate_F(x, t) == pytest.approx(rate_F(1.0 - x, tp), abs=1e-12)

    def test_infeasible_rejected(self):
        with pytest.raises(InfeasibleError):
            rate_F(0.9, 0.1)

    def test_density_point_feasibility(self):
        # (x, t) is feasible iff (2-t)x <= 1; the boundary itself is allowed
        assert rate_F(0.4, 0.5) <= 0
        assert rate_F(0.5, 0.0) <= 0
        with pytest.raises(InfeasibleError):
            rate_F(0.5 + 1e-9, 0.0)

    def test_derivative_matches_finite_difference(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            x = rng.uniform(0.02, 0.6)
            t = rng.uniform(x + 0.05, 0.95)
            if (2 - t) * x > 0.98:
                continue
            eps = 1e-6
            fd = (rate_F(x, t + eps) - rate_F(x, t - eps)) / (2 * eps)
            assert rate_F_dt(x, t) == pytest.approx(fd, abs=1e-6)

    def test_derivative_negative_above_diagonal(self):
        for x in (0.05, 0.2, 0.4):
            for t in np.linspace(x + 0.01, 0.99, 20):
                if (2 - t) * x <= 1:
                    assert rate_F_dt(x, float(t)) < 0

    def test_rate_Fd_value(self):
        # F_d = d*F + H; at x = t the H term survives alone.
        assert rate_Fd(0.3, 0.3, 7) == pytest.approx(entropy_H(0.3), abs=1e-12)

    def test_rate_Fd_array_d_matches_scalar_calls(self):
        # The strong-condition points of every pair with 5 <= d <= 120, plus
        # random feasible points, each with its own d.
        d, k = np.array([(d, k) for d in range(5, 121) for k in range(2, d // 2 + 1)
                         if d % (2 * k)]).T
        r = d % (2 * k)
        rng = np.random.default_rng(0)
        x = np.concatenate([r / (2 * k), rng.uniform(0.0, 0.5, 500)])
        t = np.concatenate([(d - 2 * k + r) / d, rng.uniform(0.0, 1.0, 500)])
        d = np.concatenate([d, rng.integers(3, 1000, 500)])
        got = rate_Fd(x, t, d)
        want = np.array([rate_Fd(float(a), float(b), int(c)) for a, b, c in zip(x, t, d)])
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        # d broadcasts against scalar x and t
        ds = np.arange(3, 40)
        assert np.array_equal(
            rate_Fd(0.2, 0.5, ds).view(np.int64),
            np.array([rate_Fd(0.2, 0.5, int(c)) for c in ds]).view(np.int64),
        )

    def test_rate_Fd_rejects_any_small_d(self):
        with pytest.raises(DomainError):
            rate_Fd(0.2, 0.5, 2)
        for bad in ([2, 7, 9], [7, 9, 2], [7, -1, 9], [0]):
            with pytest.raises(DomainError):
                rate_Fd(np.full(3, 0.2), 0.5, np.array(bad))


class TestAnalyticBounds:
    def test_upper_estimate_dominates_on_grid(self):
        xs = np.linspace(0.001, 0.6, 100)
        for x in xs:
            ts = np.linspace(x, 1.0, 100)
            ok = (2 - ts) * x <= 1.0
            est = F_upper_estimate(np.full(ok.sum(), x), ts[ok])
            exact = rate_F(np.full(ok.sum(), x), ts[ok])
            assert np.all(est >= exact - 1e-12)

    def test_main_term_dominates_on_grid(self):
        xs = np.linspace(0.001, 0.2, 100)
        for x in xs:
            t_lo = 2 * x / (1 + x)
            ts = np.linspace(t_lo, 1.0, 100)
            est = F_main_term_bound(np.full(100, x), ts)
            exact = rate_F(np.full(100, x), ts)
            assert np.all(est >= exact - 1e-12)

    def test_domains(self):
        with pytest.raises(DomainError):
            F_upper_estimate(0.7, 0.8)
        with pytest.raises(DomainError):
            F_main_term_bound(0.3, 0.9)

    def test_g_alpha(self):
        # binomial rate: g(1, x) = H(x); endpoints vanish.
        assert g_alpha(1.0, 0.3) == pytest.approx(entropy_H(0.3), abs=1e-12)
        assert g_alpha(0.4, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert g_alpha(0.4, 0.4) == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(DomainError):
            g_alpha(0.3, 0.5)


class TestLogFactorials:
    @given(st.integers(0, 300))
    def test_factorial(self, n):
        if n <= 20:
            assert log_factorial(n) == pytest.approx(math.log(math.factorial(n)), rel=1e-12)

    def test_double_factorial_small(self):
        vals = {(-1): 1, 0: 1, 1: 1, 2: 2, 3: 3, 4: 8, 5: 15, 6: 48, 7: 105}
        for n, v in vals.items():
            assert log_double_factorial(n) == pytest.approx(math.log(v), abs=1e-12)

    @given(st.integers(2, 200))
    def test_double_factorial_recurrence(self, n):
        assert log_double_factorial(n) == pytest.approx(
            math.log(n) + log_double_factorial(n - 2), rel=1e-12
        )


def _feasible_cells(N, d, M):
    out = []
    for c in range(0, M * d // 2 + 1):
        try:
            out.append(SubgraphCount(N, d, M, c))
        except (DomainError, InfeasibleError):
            pass
    return out


class TestExactProbability:
    def test_sums_to_one(self):
        for N, d in [(8, 3), (6, 4), (12, 2), (4, 5), (24, 1)]:
            for M in range(1, N + 1):
                total = sum(math.exp(exact_P_Mr(c)) for c in _feasible_cells(N, d, M))
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_matches_enumeration(self):
        for N, d in [(2, 2), (4, 2), (6, 2), (2, 4), (3, 4), (4, 3), (6, 1), (12, 1)]:
            if (N * d) % 2 or N * d > 12:
                continue
            pairings = list(enumerate_pairings(N, d))
            for M in range(1, N + 1):
                U = frozenset(range(M))
                counts = {}
                for G in pairings:
                    c = edges_within(G, U)
                    counts[c] = counts.get(c, 0) + 1
                for cell in _feasible_cells(N, d, M):
                    c = cell.half_edge_pairs_inside
                    expected = counts.get(c, 0) / len(pairings)
                    got = math.exp(exact_P_Mr(cell))
                    assert got == pytest.approx(expected, rel=1e-9, abs=1e-15), (
                        f"N={N} d={d} M={M} inside={c}"
                    )

    def test_from_average_degree(self):
        cell = SubgraphCount.from_average_degree(8, 3, 4, 2)
        assert cell.half_edge_pairs_inside == 4
        assert cell.inside_average_degree == 2.0
        with pytest.raises(InfeasibleError):
            SubgraphCount.from_average_degree(8, 3, 3, 1)  # rM odd

    def test_infeasible_cells(self):
        with pytest.raises(InfeasibleError):
            SubgraphCount(4, 3, 1, 2)  # more inside pairs than half-edges
        with pytest.raises(InfeasibleError):
            SubgraphCount(4, 3, 4, 1)  # crossing half-edges have no partners
        for inside in (-1, 99):  # a negative count, and more than the M-set holds
            with pytest.raises(InfeasibleError):
                SubgraphCount(6, 3, 3, inside)

    def test_Z_upper_dominates(self):
        for N, d in [(4, 3), (2, 4), (3, 4), (6, 2), (4, 2)]:
            if N * d > 12:
                continue
            for M in range(1, N + 1):
                for cell in _feasible_cells(N, d, M):
                    if cell.inside_average_degree < 2:
                        continue
                    lhs = math.comb(N, M) * math.exp(exact_P_Mr(cell))
                    assert lhs <= Z_upper(cell) * (1 + 1e-9), (
                        f"N={N} d={d} M={M} inside={cell.half_edge_pairs_inside}"
                    )
