"""Strong/weak condition decisions, thresholds, and bound-curve oracles."""

import json
import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stardecomp.conditions import (
    C0,
    DegenerateError,
    NoGapError,
    RegimeError,
    bound_case1,
    bound_case2,
    c0_case1,
    c0_case2,
    check_x_bounds,
    eta,
    find_x_bounds,
    gamma_beta,
    k_sc,
    k_sc_max_k,
    k_sc_table,
    scan_quarter_case,
    star_params,
    strong_condition,
    t_value,
    weak_certificate,
    ytilde_case1,
    ytilde_case2,
    _smallest_positive_root,
)
from stardecomp.numerics import DomainError, entropy_H, rate_F, rate_Fd


class TestStarParams:
    def test_exact_rationals(self):
        p = star_params(13, 3)
        assert (p.s, p.r) == (2, 1)
        assert p.beta == Fraction(1, 6)
        assert p.alpha1 + p.alpha2 == 1
        assert p.sigma == Fraction(13, 6)

    def test_identity_d(self):
        for d in range(5, 40):
            for k in range(2, d // 2 + 1):
                p = star_params(d, k)
                assert 2 * p.s * p.k + p.r == d
                assert 0 <= p.r < 2 * k

    def test_regime_errors(self):
        with pytest.raises(RegimeError):
            star_params(4, 2)
        with pytest.raises(RegimeError):
            star_params(10, 1)
        with pytest.raises(RegimeError):
            star_params(10, 6)


def _oracle_Fd(d, k):
    """F_d(r/2k, (d-2k+r)/d) at 60 digits in mpmath, apart from the package's code."""
    p = star_params(d, k)
    with mpmath.workdps(60):
        x0 = mpmath.mpf(p.r) / (2 * k)
        t0 = mpmath.mpf(d - 2 * k + p.r) / d

        def h(z):
            return -z * mpmath.log(z) if 0 < z < 1 else mpmath.mpf(0)

        H = lambda z: h(z) + h(1 - z)
        F = 0.5 * h(t0 * x0) + h((1 - t0) * x0) + 0.5 * h(1 - (2 - t0) * x0) - H(x0)
        return d * F + H(x0)


class TestStrongCondition:
    def test_against_high_precision_oracle(self):
        """Independent 60-digit evaluation of the defining inequality."""
        for d, k in [(13, 3), (13, 4), (20, 6), (23, 7), (23, 8), (100, 42), (100, 43)]:
            res = strong_condition(star_params(d, k))
            val = _oracle_Fd(d, k)
            assert res.holds == (val < 0)
            assert res.margin == pytest.approx(float(val), abs=1e-9)

    def test_band_is_decided_in_high_precision(self, monkeypatch):
        # No pair with d <= 500 has a float margin in [-1e-9, 0), so force one:
        # the margin must then be the high-precision value, and its sign decides.
        monkeypatch.setattr("stardecomp.conditions.rate_Fd", lambda x, t, d: -5e-10)
        for (d, k), holds in [((20, 6), True), ((13, 4), False)]:
            res = strong_condition(star_params(d, k))
            assert res.margin == float(_oracle_Fd(d, k))
            assert res.holds is holds is (res.margin < 0)

    def test_degenerate(self):
        with pytest.raises(DegenerateError):
            strong_condition(star_params(12, 3))


class TestThresholdTable:
    def test_scan_range(self):
        assert k_sc_max_k(13) == 5
        assert k_sc_max_k(16) == 6
        assert k_sc_max_k(500) == 248

    def test_small_values(self):
        assert k_sc(13).k_sc == 3
        assert k_sc(16).k_sc == 4
        assert k_sc(20).k_sc == 6
        assert k_sc(30).k_sc == 10

    def test_table_equals_downward_scan(self):
        def scan(d):
            for k in range(k_sc_max_k(d), 1, -1):
                p = star_params(d, k)
                if p.r == 0 or strong_condition(p).holds:
                    return k

        ds = range(13, 501)
        assert [(row.d, row.k_sc) for row in k_sc_table(ds)] == [(d, scan(d)) for d in ds]
        assert k_sc_table([]) == []
        for d, top in [(3, 0), (4, 0), (5, 1), (6, 1)]:
            message = f"no k in [2, {top}] satisfies the condition for d={d}"
            for call in (k_sc, lambda d: k_sc_table([20, d, 30])):
                with pytest.raises(RegimeError, match=re.escape(message)):
                    call(d)

    def test_blocking_does_not_change_the_table(self, monkeypatch):
        import stardecomp.conditions as conditions

        ds = range(13, 201)
        want = k_sc_table(ds)
        widest = max(k_sc_max_k(d) - 1 for d in ds)
        calls = []

        def spy(x, t, d):
            calls.append(np.size(x))
            return rate_Fd(x, t, d)

        monkeypatch.setattr(conditions, "rate_Fd", spy)
        assert k_sc_table(range(13, 161)) == want[:148]
        assert len(calls) == 1  # the CLI's default table is one call
        for cap in (1, 7, 100):  # one d per call, a few, many
            monkeypatch.setattr(conditions, "_PAIRS_PER_CALL", cap)
            calls.clear()
            assert k_sc_table(ds) == want
            assert max(calls) <= max(cap, widest)
            assert len(calls) > 1

    def test_table_band_is_decided_in_high_precision(self, monkeypatch):
        # Every float margin in the band [-1e-9, 0): only the high-precision
        # decision of strong_condition can rebuild the table.
        want = k_sc_table(range(13, 40))
        monkeypatch.setattr("stardecomp.conditions.rate_Fd",
                            lambda x, t, d: np.full(np.shape(x), -5e-10))
        assert k_sc_table(range(13, 40)) == want

    def test_full_scan_agrees(self):
        # k_sc stops at the first hit scanning down; no larger k may hold
        for d in range(13, 40):
            for k in range(k_sc(d).k_sc + 1, k_sc_max_k(d) + 1):
                assert d % (2 * k) != 0
                assert not strong_condition(star_params(d, k)).holds


class TestGamma:
    def test_named_constants(self):
        assert gamma_beta(0.5) == pytest.approx(-0.040852, abs=1e-5)
        assert gamma_beta(0.1) == pytest.approx(-0.005378, abs=1e-5)

    def test_matches_direct_ratio(self):
        for b in np.linspace(0.05, 0.95, 19):
            t = 2 * b / (1 + b)
            assert gamma_beta(float(b)) == pytest.approx(
                rate_F(float(b), float(t)) / entropy_H(float(b)), abs=1e-12
            )

    def test_negative_on_unit_interval(self):
        bs = np.linspace(1e-4, 1.0, 500)
        assert np.all(gamma_beta(bs) < 0)

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_beta(0.0)

    def test_C0(self):
        assert C0() == pytest.approx(5.1774, abs=1e-4)
        assert C0() * (0.5 - math.log(2)) + 1 == pytest.approx(0.0, abs=1e-12)


class TestQuarterCase:
    def test_verdict(self):
        max_value, verdict = scan_quarter_case()
        assert verdict
        assert max_value < -1.0 / 9.0
        assert max_value == pytest.approx(-0.1255, abs=1e-3)

    def test_grid_floor(self):
        with pytest.raises(DomainError):
            scan_quarter_case(grid=10)


class TestEta:
    def test_t_value_endpoints(self):
        p = star_params(99, 48)
        # all mass on the s-star class: t = 2r/d + 2k/d = 2(k+r)/d
        assert t_value(0.01, 0.0, p) == pytest.approx(2 * (p.k + p.r) / p.d, abs=1e-12)
        # all mass on the (s+1)-star class: t = 2r/d
        assert t_value(0.0, 0.01, p) == pytest.approx(2 * p.r / p.d, abs=1e-12)

    def test_eta_zero_profile_limit(self):
        p = star_params(99, 48)
        assert eta(0.0, 1e-9, p) == pytest.approx(0.0, abs=1e-6)

    def test_eta_negative_inside_window(self):
        p = star_params(99, 48)
        for x1, x2 in [(0.0, 0.01), (0.005, 0.005), (0.0, 0.03)]:
            assert eta(x1, x2, p) < 0


@st.composite
def case1_points(draw):
    # s = 1 pairs with r >= 2 and a nonempty case-1 domain
    d, k = draw(st.sampled_from([(99, 48), (23, 8), (50, 23), (98, 48), (37, 15)]))
    p = star_params(d, k)
    t0 = 2.0 * p.r / p.d
    x = draw(st.floats(1e-4, min(float(p.alpha2), t0) * 0.999))
    return p, x


class TestBoundCurves:
    @given(case1_points())
    @settings(max_examples=60, deadline=None)
    def test_ytilde_case1_solves_quadratic(self, px):
        p, x = px
        a1, a2 = float(p.alpha1), float(p.alpha2)
        c0 = c0_case1(x, p)
        ck = c0**p.k
        y = ytilde_case1(x, p)
        res = (1 - ck) * y * y + ((a2 - x) + ck * (a1 + x)) * y - ck * a1 * x
        assert abs(res) < 1e-14
        assert 0 <= y < x

    @given(case1_points())
    @settings(max_examples=60, deadline=None)
    def test_c0_in_unit_interval(self, px):
        p, x = px
        assert 0 < c0_case1(x, p) < 1

    def test_ytilde_case2_solves_quadratic(self):
        p = star_params(99, 48)
        a2 = float(p.alpha2)
        for x in np.linspace(a2 * 1.01, 0.05, 20):
            c0 = c0_case2(float(x), p)
            ck = c0**p.k
            y = ytilde_case2(float(x), p)
            res = y * (x - a2 + y) - ck * (1 - x - y) * (a2 - y)
            assert abs(res) < 1e-13
            assert 0 <= y <= a2

    def test_case1_dominates_eta_over_splits(self):
        """The one-variable bound majorizes eta over every profile split."""
        p = star_params(99, 48)
        a1, a2 = float(p.alpha1), float(p.alpha2)
        for x in np.linspace(0.003, a2 * 0.999, 15):
            b = bound_case1(float(x), p)
            for y in np.linspace(0.0, min(x, a2), 40):
                x1 = x - y
                if x1 > a1:
                    continue
                try:
                    e = eta(float(x1), float(y), p)
                except (DomainError, ZeroDivisionError):
                    continue
                assert e <= b + 1e-9, f"x={x} split={y}"

    def test_case2_dominates_eta_over_splits(self):
        p = star_params(99, 48)
        a1, a2 = float(p.alpha1), float(p.alpha2)
        for x in np.linspace(a2 * 1.001, 0.06, 15):
            b = bound_case2(float(x), p)
            for y in np.linspace(0.0, min(x, a2), 40):
                x1 = x - y
                if x1 > a1:
                    continue
                try:
                    e = eta(float(x1), float(y), p)
                except (DomainError, ZeroDivisionError):
                    continue
                assert e <= b + 1e-9, f"x={x} split={y}"

    def test_domains(self):
        p = star_params(99, 48)
        with pytest.raises(DomainError):
            c0_case1(0.9, p)
        with pytest.raises(DomainError):
            c0_case2(0.001, p)
        with pytest.raises(DomainError):
            bound_case1(0.5, star_params(30, 7))  # s = 2: wrong regime


def window_sides(p):
    """The two functions whose first roots set the window, with their ranges."""
    d, a2 = p.d, float(p.alpha2)
    return [
        (lambda x: rate_Fd(x, 2.0 * p.r / d, d), a2),
        (lambda u: rate_Fd(u, 2.0 * p.k / d, d), 1.0 - a2),
    ]


class TestWindow:
    @pytest.mark.parametrize("d,k", [(99, 48), (98, 48), (40, 18), (60, 27), (23, 8)])
    def test_root_is_first_sign_change(self, d, k):
        for f, upper in window_sides(star_params(d, k)):
            calls = []

            def counted(x):
                calls.append(np.size(x))
                return f(x)

            root = _smallest_positive_root(counted, upper)
            assert root is not None
            # the grid plus one vectorised call per level, never a scalar loop
            assert len(calls) <= 5, calls
            assert f(root - 1e-12) < 0 <= f(root + 1e-12)
            xs = np.linspace(upper / 4000, upper, 4000)
            assert np.all(f(xs[xs < root]) < 0)

    def test_root_search_stops_at_float_granularity(self):
        # Floats near 1e4 are 1.8e-12 apart, so the bracket can never get
        # narrower than the tolerance; the search must still end next to
        # the root.
        root = _smallest_positive_root(lambda x: np.asarray(x) - 10000.3, 16000.0)
        assert abs(root - 10000.3) <= 2 * np.spacing(10000.3)

    def test_reproduction_window(self):
        p = star_params(99, 48)
        xm, xp = find_x_bounds(p)
        assert 0 < xm <= float(p.alpha2) <= xp < 1
        assert xm == pytest.approx(0.00231, abs=2e-4)
        # explicit smaller x_minus remains valid (monotone property)
        check_x_bounds(p, 0.002, xp)

    def test_bad_windows_rejected(self):
        p = star_params(99, 48)
        with pytest.raises(NoGapError):
            check_x_bounds(p, 0.2, 0.9)  # misses alpha2 from below
        with pytest.raises(NoGapError):
            check_x_bounds(p, 0.009, 0.5)  # F_d(x_minus, 2r/d) >= 0


class TestWeakCertificate:
    def test_verdict_true_pairs(self):
        for d, k in [(99, 48), (23, 8), (13, 4)]:
            cert = weak_certificate(star_params(d, k))
            assert cert.verdict, (d, k)
            assert cert.max_bound < 0

    def test_verdict_false_r2(self):
        cert = weak_certificate(star_params(98, 48))
        assert not cert.verdict
        assert cert.max_bound > 0

    def test_serialization(self):
        cert = weak_certificate(star_params(23, 8))
        d = cert.to_dict()
        assert d["verdict"] and d["d"] == 23 and d["k"] == 8

    def test_collapsed_window(self):
        # Both window roots are absent at (22, 7), so the window is {alpha2}
        # and neither bound curve has anything to scan.
        p = star_params(22, 7)
        a2 = float(p.alpha2)
        assert find_x_bounds(p) == (a2, a2)
        cert = weak_certificate(p)
        assert cert.verdict
        assert cert.case1_curve == [] and cert.case2_curve == []
        assert cert.max_bound == max(check_x_bounds(p, a2, a2)) < 0
        json.dumps(cert.to_dict(), allow_nan=False)

    def test_explicit_window_skips_root_search(self, monkeypatch):
        import stardecomp.conditions as conditions

        p = star_params(99, 48)
        xm, xp = find_x_bounds(p)
        default = weak_certificate(p)

        def fail(params):
            raise NoGapError("root search must not run for an explicit window")

        monkeypatch.setattr(conditions, "find_x_bounds", fail)
        cert = weak_certificate(p, x_minus=xm, x_plus=xp)
        assert cert.verdict
        assert (cert.x_minus, cert.x_plus) == (xm, xp)
        assert cert.max_bound == default.max_bound
        # One given side still searches for the other one alone.
        half = weak_certificate(p, x_minus=xm)
        assert (half.x_minus, half.x_plus) == (xm, xp)

    def test_rejects_wrong_regime(self):
        with pytest.raises(DomainError):
            weak_certificate(star_params(30, 7))  # s = 2
        with pytest.raises(DomainError):
            weak_certificate(star_params(13, 6))  # r = 1

    def test_grid_step_cap(self):
        with pytest.raises(DomainError):
            weak_certificate(star_params(23, 8), grid_step=0.01)
