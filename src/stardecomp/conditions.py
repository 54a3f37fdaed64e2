"""Decision procedures for the strong and weak decomposition conditions.

The *strong condition* for a pair (d, k) with d = 2sk + r, r >= 1, asks that
the first-moment exponent F_d(x0, t0) be negative at x0 = r/(2k) and
t0 = (d-2k+r)/d.  When it holds, star decompositions with an arbitrary
prescribed (s+1)-star vertex set exist a.a.s.  ``k_sc_table(ds)`` gives, for
each d, the largest k in the admissible range for which it holds; it decides
all pairs of a block of d values in one vectorised ``rate_Fd`` call, and
``k_sc(d)`` is its one-row case.

When the strong condition fails (necessarily s = 1, d = 2k + r), the *weak
certificate* establishes negativity of the profile exponent eta over the
critical density window [x_minus, x_plus] by maximizing explicit one-variable
upper-bound curves (one per case of the window split at alpha_2 = r/(2k)).

Strict inequalities are decided with a margin: a value must be below -1e-9 to
count as negative; values inside the band are re-evaluated in 50-digit
decimal arithmetic before deciding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import numpy as np

from .numerics import (
    DomainError,
    _F,
    _as_array,
    _h,
    _h_decimal,
    _H,
    _maybe_scalar,
    entropy_H,
    g_alpha,
    rate_F,
    rate_Fd,
)

__all__ = [
    "RegimeError",
    "DegenerateError",
    "NoGapError",
    "InconclusiveError",
    "StarParams",
    "StrongResult",
    "ThresholdRow",
    "WeakCertificate",
    "star_params",
    "strong_condition",
    "k_sc",
    "k_sc_table",
    "k_sc_max_k",
    "gamma_beta",
    "quarter_case_ratio",
    "scan_quarter_case",
    "C0",
    "t_value",
    "eta",
    "c0_case1",
    "ytilde_case1",
    "bound_case1",
    "c0_case2",
    "ytilde_case2",
    "bound_case2",
    "find_x_bounds",
    "check_x_bounds",
    "weak_certificate",
]

#: Strict-inequality decision margin: F_d < 0 is declared only below -MARGIN.
DECISION_MARGIN = 1e-9


class RegimeError(ValueError):
    """The (d, k) pair lies outside the k <= d/2 regime."""


class DegenerateError(ValueError):
    """2k | d: the condition is vacuous (Eulerian orientation decomposes)."""


class NoGapError(ValueError):
    """The certificate window [x_minus, x_plus] does not contain alpha_2."""


class InconclusiveError(ValueError):
    """A curve maximum sits inside the decision band around zero."""


@dataclass(frozen=True)
class StarParams:
    """Derived parameters of a k-star decomposition instance.

    d = 2sk + r with s = floor(d/2k); beta = r/(2k) is the density of
    vertices carrying s+1 stars, alpha1/alpha2 the densities of the s- and
    (s+1)-star classes.  All rationals are exact.
    """

    d: int
    k: int
    s: int
    r: int
    sigma: Fraction
    beta: Fraction
    alpha1: Fraction
    alpha2: Fraction


def star_params(d: int, k: int) -> StarParams:
    if d < 5:
        raise RegimeError("need d >= 5")
    if k < 2:
        raise RegimeError("need k >= 2")
    if 2 * k > d:
        raise RegimeError(f"k = {k} > d/2 = {d / 2}: outside the k <= d/2 regime")
    s = d // (2 * k)
    r = d - 2 * s * k
    sigma = Fraction(d, 2 * k)
    beta = Fraction(r, 2 * k)
    return StarParams(
        d=d,
        k=k,
        s=s,
        r=r,
        sigma=sigma,
        beta=beta,
        alpha1=Fraction(2 * k - r, 2 * k),
        alpha2=Fraction(r, 2 * k),
    )


@dataclass(frozen=True)
class StrongResult:
    holds: bool
    margin: float  # value of F_d(x0, t0); negative means the condition holds


def _rate_Fd_decimal(x: Fraction, t: Fraction, d: int) -> float:
    """F_d(x, t) in 50-digit decimal arithmetic from exact rational inputs."""
    with localcontext(Context(prec=50)):
        x_, t_ = (Decimal(q.numerator) / q.denominator for q in (x, t))
        return float(d * _F(x_, t_, _h_decimal) + _h_decimal(x_) + _h_decimal(1 - x_))


def strong_condition(params: StarParams) -> StrongResult:
    """Decide F_d(r/2k, (d-2k+r)/d) < 0 with the decision margin."""
    if params.r == 0:
        raise DegenerateError(
            "2k divides d: every d-regular graph decomposes via an Eulerian orientation"
        )
    x0 = Fraction(params.r, 2 * params.k)
    t0 = Fraction(params.d - 2 * params.k + params.r, params.d)
    margin = rate_Fd(float(x0), float(t0), params.d)
    if -DECISION_MARGIN <= margin < 0:
        margin = _rate_Fd_decimal(x0, t0, params.d)
        return StrongResult(holds=margin < 0, margin=margin)
    return StrongResult(holds=margin < -DECISION_MARGIN, margin=margin)


@dataclass(frozen=True)
class ThresholdRow:
    d: int
    k_sc: int


def k_sc_max_k(d: int) -> int:
    """Largest k in the scan range: k < d/2 - 1 (and k >= 2)."""
    return (d - 3) // 2


#: Most (d, k) pairs one ``rate_Fd`` call of ``k_sc_table`` evaluates; it
#: bounds the table's memory.  A d with more pairs is a call of its own.
_PAIRS_PER_CALL = 8192


def k_sc(d: int) -> ThresholdRow:
    """Largest k < d/2 - 1 for which the decomposition condition holds at (d, k).

    2k | d counts as holding (trivial Eulerian case); otherwise the strong
    condition decides.  One row of ``k_sc_table``.
    """
    return k_sc_table([d])[0]


def k_sc_table(ds) -> list[ThresholdRow]:
    """``k_sc(d)`` for every d of ``ds``, in order.

    All pairs 2 <= k <= ``k_sc_max_k(d)`` of a block of whole d values (at
    most ``_PAIRS_PER_CALL`` pairs, unless one d has more) go to ``rate_Fd``
    in one call; Eulerian pairs (2k | d) hold without it.  A float margin in
    the decision band is decided by ``strong_condition``, as for one pair.
    Raises ``RegimeError`` for the first d where no k qualifies.
    """
    ds = [int(d) for d in ds]
    rows, block, size = [], [], 0
    for d in ds:
        pairs = max(k_sc_max_k(d) - 1, 0)
        if block and size + pairs > _PAIRS_PER_CALL:
            rows += _k_sc_block(block)
            block, size = [], 0
        block.append(d)
        size += pairs
    if block:
        rows += _k_sc_block(block)
    return rows


def _k_sc_block(ds: list[int]) -> list[ThresholdRow]:
    """The rows of ``k_sc_table`` for one block, from one ``rate_Fd`` call."""
    top = np.array([k_sc_max_k(d) for d in ds], dtype=np.int64)
    counts = np.maximum(top - 1, 0)
    starts = np.cumsum(counts) - counts
    seg = np.repeat(np.arange(len(ds)), counts)
    d = np.array(ds, dtype=np.int64)[seg]
    k = 2 + np.arange(seg.size) - starts[seg]  # 2, 3, ..., k_sc_max_k(d) per d
    r = d % (2 * k)
    holds = r == 0
    live = np.flatnonzero(r)  # x0 = r/(2k) is 0 on the Eulerian pairs
    dl, kl, rl = d[live], k[live], r[live]
    margin = rate_Fd(rl / (2 * kl), (dl - 2 * kl + rl) / dl, dl)
    holds[live] = margin < -DECISION_MARGIN
    for i in np.flatnonzero((margin >= -DECISION_MARGIN) & (margin < 0)):
        holds[live[i]] = strong_condition(star_params(int(dl[i]), int(kl[i]))).holds
    # k grows within each d, so the segment maximum of the k that hold is k_sc
    best = np.zeros(len(ds), dtype=np.int64)
    full = counts > 0
    if full.any():
        best[full] = np.maximum.reduceat(np.where(holds, k, 0), starts[full])
    rows = []
    for dv, kv in zip(ds, best.tolist()):
        if kv == 0:
            raise RegimeError(f"no k in [2, {k_sc_max_k(dv)}] satisfies the condition for d={dv}")
        rows.append(ThresholdRow(d=dv, k_sc=kv))
    return rows


def gamma_beta(beta):
    """F(beta, 2*beta/(1+beta)) / H(beta): the s = 1 threshold ratio."""
    ba = _as_array(beta)
    if np.any(ba <= 0) or np.any(ba > 1):
        raise DomainError("gamma_beta requires beta in (0, 1]")
    # beta = 1 gives t = 1, x = 1 where F/H is 0/0; evaluate just inside.
    ba = np.where(ba >= 1.0, 1.0 - 1e-9, ba)
    t = 2.0 * ba / (1.0 + ba)
    val = _as_array(rate_F(ba, t)) / _H(ba)
    return _maybe_scalar(val, beta)


def quarter_case_ratio(b: np.ndarray) -> np.ndarray:
    """F(b, (1+2b)/(2+b))/H(b) on an array of b in (0, 1): the s >= 2 curve."""
    t = (1.0 + 2.0 * b) / (2.0 + b)
    return _as_array(rate_F(b, t)) / _H(b)


def scan_quarter_case(grid: int = 10_000) -> tuple[float, bool]:
    """Max of ``quarter_case_ratio`` over b in (0, 1]; verdict: < -1/9.

    Endpoints are handled by one-sided limits (the ratio tends to a finite
    value at both ends); refinement doubles the grid around the argmax.
    """
    if grid < 1000:
        raise DomainError("grid must be >= 1000")
    lo, hi = 1e-9, 1.0 - 1e-9
    bs = np.linspace(lo, hi, grid)
    vals = quarter_case_ratio(bs)
    i = int(np.argmax(vals))
    # local refinement around the coarse argmax
    a = bs[max(i - 1, 0)]
    b = bs[min(i + 1, grid - 1)]
    fine = np.linspace(a, b, 2 * grid)
    max_value = float(max(vals.max(), quarter_case_ratio(fine).max()))
    return max_value, max_value < -1.0 / 9.0


def C0() -> float:
    """The constant 1/(log 2 - 1/2); satisfies C0*(1/2 - log 2) + 1 = 0."""
    return 1.0 / (math.log(2.0) - 0.5)


def t_value(x1, x2, params: StarParams):
    """Degree threshold t for a profile (x1, x2): 2r/d + 2k*x1/(d(x1+x2))."""
    if params.s != 1:
        raise DomainError("t_value applies to the s = 1 regime (d = 2k + r)")
    x1a, x2a = _as_array(x1), _as_array(x2)
    tot = x1a + x2a
    if np.any(tot <= 0):
        raise ZeroDivisionError("t_value undefined at x1 + x2 = 0")
    d, k, r = params.d, params.k, params.r
    val = 2.0 * r / d + 2.0 * k * x1a / (d * tot)
    return _maybe_scalar(val, x1, x2)


def eta(x1, x2, params: StarParams):
    """Profile exponent: d*F(x1+x2, t(x1,x2)) + g(a1, x1) + g(a2, x2).

    Negative values mean sets with this intersection profile violating the
    per-vertex edge-count condition are exponentially unlikely.
    """
    t = t_value(x1, x2, params)
    if np.any(_as_array(t) > 1.0 + 1e-12):
        raise DomainError("profile outside region: t-value exceeds 1 (x1/x2 > a1/a2)")
    t = np.minimum(_as_array(t), 1.0)
    a1, a2 = float(params.alpha1), float(params.alpha2)
    val = (
        params.d * _as_array(rate_F(np.asarray(x1, dtype=float) + np.asarray(x2, dtype=float), t))
        + _as_array(g_alpha(a1, x1))
        + _as_array(g_alpha(a2, x2))
    )
    return _maybe_scalar(val, x1, x2)


# ---------------------------------------------------------------------------
# Weak-certificate bound curves (s = 1, d = 2k + r)
# ---------------------------------------------------------------------------


def _require_s1(params: StarParams) -> None:
    if params.s != 1:
        raise DomainError("bound curves apply to the s = 1 regime only")


def _c0(x: np.ndarray, t0: np.ndarray) -> np.ndarray:
    """Slope factor c0 = 1 - (t0-x)/(t0(1-(2-t0)x)); in (0, 1) for x < t0 < 1."""
    return 1.0 - (t0 - x) / (t0 * (1.0 - (2.0 - t0) * x))


def c0_case1(x, params: StarParams):
    _require_s1(params)
    xa = _as_array(x)
    t0 = 2.0 * params.r / params.d
    if np.any(xa >= t0) or np.any(xa < 0):
        raise DomainError("c0_case1 requires 0 <= x < t0 = 2r/d")
    return _maybe_scalar(_c0(xa, np.asarray(t0)), x)


def _positive_root(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Unique positive root of Ay^2 + By + C with A > 0, B > 0, C <= 0.

    Cancellation-free branch: q = -(B + sqrt(B^2 - 4AC))/2, root = C/q.
    C can be astronomically small (it carries a c0^k factor), so the naive
    formula would cancel.
    """
    disc = B * B - 4.0 * A * C
    q = -0.5 * (B + np.sqrt(disc))
    return np.where(C == 0.0, 0.0, C / np.where(q == 0.0, 1.0, q))


def ytilde_case1(x, params: StarParams):
    """Maximizer shift for the case x <= alpha2: positive root of
    (1 - c0^k) y^2 + [(a2 - x) + c0^k (a1 + x)] y - c0^k a1 x = 0."""
    _require_s1(params)
    xa = _as_array(x)
    a1, a2 = float(params.alpha1), float(params.alpha2)
    c0 = _as_array(c0_case1(x, params))
    ck = c0**params.k
    A = 1.0 - ck
    B = (a2 - xa) + ck * (a1 + xa)
    C = -ck * a1 * xa
    yt = _positive_root(A, B, C)
    if np.any((yt >= xa) & (xa > 0)):
        raise DomainError("ytilde >= x: bound curve undefined at this x")
    return _maybe_scalar(yt, x)


def bound_case1(x, params: StarParams):
    """Upper bound for max eta over profiles summing to x, for x <= alpha2:

        d*F(x, 2r/d) + (k log c0) ytilde + g(a1, ytilde) + g(a2, x - ytilde).
    """
    _require_s1(params)
    xa = _as_array(x)
    a1, a2 = float(params.alpha1), float(params.alpha2)
    t0 = 2.0 * params.r / params.d
    c0 = _as_array(c0_case1(x, params))
    yt = _as_array(ytilde_case1(x, params))
    val = (
        params.d * _as_array(rate_F(xa, t0))
        + params.k * np.log(c0) * yt
        + _as_array(g_alpha(a1, yt))
        + _as_array(g_alpha(a2, xa - yt))
    )
    return _maybe_scalar(val, x)


def c0_case2(x, params: StarParams):
    """Slope factor for x > alpha2, where t0 shifts to 2r/d + 2k(x-a2)/(dx)."""
    _require_s1(params)
    xa = _as_array(x)
    a2 = float(params.alpha2)
    if np.any(xa <= a2):
        raise DomainError("c0_case2 requires x > alpha2")
    t0 = 2.0 * params.r / params.d + 2.0 * params.k * (xa - a2) / (params.d * xa)
    if np.any(t0 <= xa):
        raise DomainError("c0_case2 requires t0 > x")
    return _maybe_scalar(_c0(xa, t0), x)


def ytilde_case2(x, params: StarParams):
    """Maximizer shift for x > alpha2: positive root of
    y(x - a2 + y) = c0^k (1 - x - y)(a2 - y), expanded to
    (1-c0^k) y^2 + [(x-a2) + c0^k (1 - x + a2)] y - c0^k (1-x) a2 = 0."""
    _require_s1(params)
    xa = _as_array(x)
    a2 = float(params.alpha2)
    c0 = _as_array(c0_case2(x, params))
    ck = c0**params.k
    A = 1.0 - ck
    B = (xa - a2) + ck * (1.0 - xa + a2)
    C = -ck * (1.0 - xa) * a2
    yt = _positive_root(A, B, C)
    if np.any(yt > a2):
        raise DomainError("ytilde > alpha2: bound curve undefined at this x")
    return _maybe_scalar(yt, x)


def bound_case2(x, params: StarParams):
    """Upper bound for max eta over profiles summing to x, for x > alpha2:

        d*F(x, t0) + (k log c0) ytilde + g(a1, 1 - x - ytilde) + g(a2, ytilde).
    """
    _require_s1(params)
    xa = _as_array(x)
    a1, a2 = float(params.alpha1), float(params.alpha2)
    t0 = 2.0 * params.r / params.d + 2.0 * params.k * (xa - a2) / (params.d * xa)
    c0 = _as_array(c0_case2(x, params))
    yt = _as_array(ytilde_case2(x, params))
    rem = 1.0 - xa - yt
    if np.any(rem < -1e-12) or np.any(rem > a1 + 1e-12):
        raise DomainError("1 - x - ytilde outside [0, alpha1]")
    val = (
        params.d * _as_array(rate_F(xa, np.minimum(t0, 1.0)))
        + params.k * np.log(c0) * yt
        + _as_array(g_alpha(a1, np.clip(rem, 0.0, a1)))
        + _as_array(g_alpha(a2, yt))
    )
    return _maybe_scalar(val, x)


# ---------------------------------------------------------------------------
# Window selection and the certificate
# ---------------------------------------------------------------------------

_BISECT_TOL = 1e-12
_SECTIONS = 1024


def _smallest_positive_root(f, upper: float, grid: int = 4000) -> float | None:
    """First sign change of f on (0, upper], located by vectorised k-section.

    f is evaluated once on a ``grid``-point grid over (0, upper].  The first
    cell where f goes from negative to >= 0 is then cut into ``_SECTIONS``
    parts by one call of f on the interior points, keeping the first part
    where f goes from negative to >= 0.  This repeats until the bracket is
    narrower than ``_BISECT_TOL`` (three levels for any cell of a grid of at
    least 1 000 points on a unit interval), or stops shrinking because its
    ends are adjacent floats; the midpoint is returned.  Returns ``xs[0]``
    when f is already >= 0 there and None when f stays negative.
    """
    xs = np.linspace(upper / grid, upper, grid)
    vals = _as_array(f(xs))
    if vals[0] >= 0:
        return float(xs[0])
    nonneg = np.nonzero(vals >= 0)[0]
    if nonneg.size == 0:
        return None
    i = int(nonneg[0])
    lo, hi = float(xs[i - 1]), float(xs[i])
    while hi - lo >= _BISECT_TOL:
        pts = np.linspace(lo, hi, _SECTIONS + 1)  # pts[0] == lo, pts[-1] == hi
        nonneg = np.nonzero(_as_array(f(pts[1:-1])) >= 0)[0]
        j = int(nonneg[0]) + 1 if nonneg.size else _SECTIONS
        if (pts[j - 1], pts[j]) == (lo, hi):
            break
        lo, hi = float(pts[j - 1]), float(pts[j])
    return 0.5 * (lo + hi)


def check_x_bounds(params: StarParams, x_minus: float, x_plus: float) -> tuple[float, float]:
    """Validate a window: F_d(x_minus, 2r/d) < 0 and F_d(1-x_plus, 2k/d) < 0.

    Returns the two margins; raises if either inequality fails or the window
    misses alpha2.
    """
    d, k, r = params.d, params.k, params.r
    a2 = float(params.alpha2)
    if not (0.0 < x_minus <= a2 <= x_plus < 1.0):
        raise NoGapError(
            f"window [{x_minus}, {x_plus}] must straddle alpha2 = {a2} inside (0, 1)"
        )
    m_lo = rate_Fd(x_minus, 2.0 * r / d, d)
    m_hi = rate_Fd(1.0 - x_plus, 2.0 * k / d, d)
    if m_lo >= 0:
        raise NoGapError(f"F_d(x_minus, 2r/d) = {m_lo} is not negative")
    if m_hi >= 0:
        raise NoGapError(f"F_d(1 - x_plus, 2k/d) = {m_hi} is not negative")
    return m_lo, m_hi


def find_x_bounds(params: StarParams) -> tuple[float, float]:
    """Select the density window [x_minus, x_plus] for the weak certificate.

    x_minus is 0.99 times the smallest positive root of F_d(., 2r/d), and
    x_plus is 1 minus 0.99 times the corresponding root of F_d(., 2k/d);
    below/above these densities the edge-count condition holds regardless of
    the intersection profile.  Both inequalities are re-checked post hoc.
    """
    _require_s1(params)
    if params.r < 2:
        raise DomainError("window selection requires r >= 2")
    x_minus, x_plus = _auto_x_minus(params), _auto_x_plus(params)
    check_x_bounds(params, x_minus, x_plus)
    return x_minus, x_plus


def _auto_x_minus(params: StarParams) -> float:
    """x_minus of ``find_x_bounds``: 0.99 times the first root of F_d(., 2r/d)."""
    d, a2 = params.d, float(params.alpha2)
    root = _smallest_positive_root(lambda x: rate_Fd(x, 2.0 * params.r / d, d), a2)
    return 0.99 * root if root is not None else a2


def _auto_x_plus(params: StarParams) -> float:
    """x_plus of ``find_x_bounds``: 1 - 0.99 times the first root of F_d(., 2k/d)."""
    d, a2 = params.d, float(params.alpha2)
    root = _smallest_positive_root(lambda u: rate_Fd(u, 2.0 * params.k / d, d), 1.0 - a2)
    return 1.0 - 0.99 * root if root is not None else a2


@dataclass(frozen=True)
class WeakCertificate:
    """Numerical certificate that the profile exponent is negative.

    ``verdict`` is true iff the maximum of both bound curves over the window
    is below zero (with margin) and the window inequalities hold.
    """

    params: StarParams
    x_minus: float
    x_plus: float
    case1_curve: list[tuple[float, float]] = field(repr=False)
    case2_curve: list[tuple[float, float]] = field(repr=False)
    max_bound: float
    verdict: bool

    def to_dict(self) -> dict:
        p = self.params
        return {
            "d": p.d,
            "k": p.k,
            "r": p.r,
            "x_minus": self.x_minus,
            "x_plus": self.x_plus,
            "max_bound": self.max_bound,
            "verdict": self.verdict,
        }


def _scan_curve(fn, lo: float, hi: float, grid_step: float) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate fn on [lo, hi], refining x10 near zero-band or sign changes."""
    n = max(int(math.ceil((hi - lo) / grid_step)) + 1, 32)
    xs = np.linspace(lo, hi, n)
    vals = _as_array(fn(xs))
    band = 10.0 * DECISION_MARGIN
    hot = (np.abs(vals) < band) | (vals >= 0)
    hot[:-1] |= np.signbit(vals[:-1]) != np.signbit(vals[1:])
    hot[1:] |= np.signbit(vals[:-1]) != np.signbit(vals[1:])
    idx = np.nonzero(hot)[0]
    if idx.size:
        extra = []
        for i in idx:
            a = xs[max(i - 1, 0)]
            b = xs[min(i + 1, n - 1)]
            extra.append(np.linspace(a, b, 21))
        fine = np.unique(np.concatenate(extra))
        xs = np.concatenate([xs, fine])
        vals = np.concatenate([vals, _as_array(fn(fine))])
        order = np.argsort(xs)
        xs, vals = xs[order], vals[order]
    return xs, vals


def weak_certificate(
    params: StarParams,
    grid_step: float = 1e-4,
    x_minus: float | None = None,
    x_plus: float | None = None,
) -> WeakCertificate:
    """Build the certificate for a pair (d, k) in the s = 1, r >= 2 regime.

    Scans ``bound_case1`` on [x_minus, alpha2] and ``bound_case2`` on
    (alpha2, x_plus].  The window defaults to ``find_x_bounds``; explicit
    values are accepted after validation (any smaller x_minus or larger
    x_plus than a valid pair remains valid), and the root search runs only
    for a side that is not given.

    A side of the window that is empty (x_minus = alpha2, or x_plus =
    alpha2) is not scanned and leaves its curve empty: the window inequality
    on that side already covers every density up to (or from) alpha2.  When
    both sides are empty the window is {alpha2}, no curve is scanned, and
    ``max_bound`` reports the larger of the two window margins of
    ``check_x_bounds`` (both negative), so the verdict follows from the
    window inequalities alone.
    """
    _require_s1(params)
    if params.r < 2:
        raise DomainError("the certificate machinery requires r >= 2")
    if grid_step > 1e-3:
        raise DomainError("grid_step must be <= 1e-3")
    if x_minus is None and x_plus is None:
        xm, xp = find_x_bounds(params)  # validates the window it returns
    else:  # search only for the side that is not given
        xm = _auto_x_minus(params) if x_minus is None else x_minus
        xp = _auto_x_plus(params) if x_plus is None else x_plus
        check_x_bounds(params, xm, xp)

    a2 = float(params.alpha2)
    xs1 = v1 = xs2 = v2 = np.empty(0)
    if xm < a2:
        xs1, v1 = _scan_curve(
            lambda x: bound_case1(x, params), xm, a2 * (1.0 - 1e-12), grid_step
        )
    if xp > a2:
        xs2, v2 = _scan_curve(
            lambda x: bound_case2(x, params), a2 * (1.0 + 1e-12), xp, grid_step
        )
    scanned = np.concatenate([v1, v2])
    max_bound = float(
        scanned.max() if scanned.size else max(check_x_bounds(params, xm, xp))
    )
    if abs(max_bound) <= DECISION_MARGIN:
        raise InconclusiveError(
            f"curve maximum {max_bound} within the decision band; refine the scan"
        )
    return WeakCertificate(
        params=params,
        x_minus=xm,
        x_plus=xp,
        case1_curve=list(zip(xs1.tolist(), v1.tolist())),
        case2_curve=list(zip(xs2.tolist(), v2.tolist())),
        max_bound=max_bound,
        verdict=max_bound < 0,
    )
