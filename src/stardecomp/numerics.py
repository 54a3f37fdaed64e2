"""Entropy rate functions and exact pairing-model probabilities.

Everything here is a pure function of its arguments.  The central object is
the rate function

    F(x, t) = h(tx)/2 + h((1-t)x) + h(1-(2-t)x)/2 - H(x),

the exponential decay rate (per ``d*N``) of the probability that a fixed
vertex subset of density ``x`` spans average degree ``t*d`` in the random
``d``-regular multigraph obtained by pairing half-edges.  Alongside it live
the analytic upper estimates used by the certificate machinery and the exact
log-space probability ``P_{M,r}`` for small instances.

All probability computations are done in log space via ``lgamma``; only the
final value is a float.  Functions accept scalars or numpy arrays in their
continuous arguments and return matching shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

__all__ = [
    "DomainError",
    "InfeasibleError",
    "SubgraphCount",
    "entropy_h",
    "entropy_H",
    "rate_F",
    "rate_F_dt",
    "rate_Fd",
    "F_upper_estimate",
    "F_main_term_bound",
    "g_alpha",
    "exact_P_Mr",
    "Z_upper",
    "log_factorial",
    "log_double_factorial",
]

# Slack for floating-point boundary comparisons (e.g. (2-t)x <= 1).
_EPS = 1e-12


class DomainError(ValueError):
    """An argument lies outside the stated domain of a function."""


class InfeasibleError(ValueError):
    """A (density, degree) or (subset, edge-count) combination is impossible."""


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


def _maybe_scalar(out: np.ndarray, *inputs):
    if all(np.ndim(v) == 0 for v in inputs):
        return float(out)
    return out


def _check_unit(x: np.ndarray, name: str) -> None:
    if ((x < -_EPS) | (x > 1 + _EPS)).any():  # NaN passes, as it compares False
        raise DomainError(f"{name} must lie in [0, 1]")


def _h(x: np.ndarray) -> np.ndarray:
    """-x log x with the limit value 0 at x = 0; no domain checks."""
    x = np.clip(x, 0.0, 1.0)
    # log(1) = +0.0 makes the product -0.0 at x = 0 and x = 1; adding +0.0
    # turns that into +0.0 (callers test signs with np.signbit) and leaves
    # every other value unchanged.
    return -x * np.log(np.where(x > 0.0, x, 1.0)) + 0.0


def _h_decimal(z):
    """-z ln z for a ``decimal.Decimal`` in the current context; 0 off (0, 1)."""
    return -z * z.ln() if 0 < z < 1 else Decimal(0)


def _F(x, t, h):
    """F(x, t) over the entropy kernel h: ``_h`` for float arrays, ``_h_decimal`` for decimals."""
    return h(t * x) / 2 + h((1 - t) * x) + h(1 - (2 - t) * x) / 2 - (h(x) + h(1 - x))


def _H(x: np.ndarray) -> np.ndarray:
    return _h(x) + _h(1.0 - x)


def entropy_h(x):
    """-x log x on [0, 1], with h(0) = h(1) = 0 exactly."""
    xa = _as_array(x)
    _check_unit(xa, "x")
    return _maybe_scalar(_h(xa), x)


def entropy_H(x):
    """h(x) + h(1-x); symmetric around 1/2, maximum log 2."""
    xa = _as_array(x)
    _check_unit(xa, "x")
    return _maybe_scalar(_H(xa), x)


def _check_feasible(x: np.ndarray, t: np.ndarray) -> None:
    if np.any((2.0 - t) * x > 1.0 + _EPS):
        raise InfeasibleError("(2-t)x > 1: subset cannot realize this degree")


def rate_F(x, t):
    """Rate function F(x, t); <= 0 everywhere, = 0 exactly at x=0 or x=t.

    Extended by continuity to the boundary (x in {0,1}, t in {0,1}) via the
    limit values of h.
    """
    xa, ta = _as_array(x), _as_array(t)
    _check_unit(xa, "x")
    _check_unit(ta, "t")
    _check_feasible(xa, ta)
    return _maybe_scalar(_F(xa, ta, _h), x, t)


def rate_F_dt(x, t):
    """Partial derivative of F in t: x/2 * log(1 - (t-x)/(t(1-(2-t)x))).

    Defined for 0 < x <= t < 1; strictly negative on t in (x, 1).
    """
    xa, ta = _as_array(x), _as_array(t)
    if np.any(xa <= 0) or np.any(ta >= 1) or np.any(ta < xa - _EPS):
        raise DomainError("rate_F_dt requires 0 < x <= t < 1")
    _check_feasible(xa, ta)
    denom = ta * (1.0 - (2.0 - ta) * xa)
    arg = 1.0 - (ta - xa) / denom
    if np.any(arg <= 0):
        raise DomainError("derivative argument left the feasible region")
    val = 0.5 * xa * np.log(arg)
    return _maybe_scalar(val, x, t)


def rate_Fd(x, t, d):
    """First-moment exponent F_d(x, t) = d*F(x, t) + H(x).

    Negative values certify that subsets of density <= x with average degree
    >= t*d are exponentially unlikely.  ``d`` may be an integer array that
    broadcasts with x and t; every entry must then be >= 3.
    """
    # np.any on a plain int costs microseconds, and the window search makes
    # thousands of scalar-d calls.
    if (d < 3).any() if isinstance(d, np.ndarray) else d < 3:
        raise DomainError("degree d must be >= 3")
    xa = _as_array(x)
    val = d * _as_array(rate_F(x, t)) + _H(xa)
    return _maybe_scalar(val, x, t, d)


def _main_term(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """x*t*phi(x/t)/2 with phi(z) = 1 - z + log z, and 0 at x = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(t > 0, x / np.where(t > 0, t, 1.0), 1.0)
        return np.where(
            x > 0, 0.5 * x * t * (1.0 - ratio + np.log(np.where(ratio > 0, ratio, 1.0))), 0.0
        )


def F_upper_estimate(x, t):
    """Polynomial-plus-main-term upper bound for F, valid on x<=0.6, x<=t<=1."""
    xa, ta = _as_array(x), _as_array(t)
    if np.any(xa < -_EPS) or np.any(xa > 0.6 + _EPS):
        raise DomainError("F_upper_estimate requires 0 <= x <= 0.6")
    if np.any(ta > 1 + _EPS) or np.any(ta < xa - _EPS):
        raise DomainError("F_upper_estimate requires x <= t <= 1")
    xa = np.clip(xa, 0.0, 0.6)
    rest = (
        xa**2 * ta
        - 0.5 * xa * ta**2
        - (1.0 / 6.0) * xa * ta**3
        + 0.25 * (1.0 - (2.0 - ta) ** 3 / 3.0) * xa**3
    )
    return _maybe_scalar(_main_term(xa, ta) + rest, x, t)


def F_main_term_bound(x, t):
    """Main-term bound x*t*(1 - x/t + log(x/t))/2 for F.

    Valid on x <= 0.2, t >= 2x/(1+x).
    """
    xa, ta = _as_array(x), _as_array(t)
    if np.any(xa < -_EPS) or np.any(xa > 0.2 + _EPS):
        raise DomainError("F_main_term_bound requires 0 <= x <= 0.2")
    if np.any(ta < 2.0 * xa / (1.0 + xa) - _EPS):
        raise DomainError("F_main_term_bound requires t >= 2x/(1+x)")
    return _maybe_scalar(_main_term(np.clip(xa, 0.0, 0.2), ta), x, t)


def g_alpha(alpha, x):
    """Profile-count rate g(alpha, x) = h(x) + h(alpha - x) - h(alpha).

    Exponential rate of binom(alpha*N, x*N); requires 0 <= x <= alpha <= 1.
    """
    aa, xa = _as_array(alpha), _as_array(x)
    _check_unit(aa, "alpha")
    if np.any(xa < -_EPS) or np.any(xa > aa + _EPS):
        raise DomainError("g_alpha requires 0 <= x <= alpha")
    xa = np.clip(xa, 0.0, None)
    val = _h(xa) + _h(np.clip(aa - xa, 0.0, None)) - _h(aa)
    return _maybe_scalar(val, alpha, x)


# ---------------------------------------------------------------------------
# Exact pairing-model probabilities
# ---------------------------------------------------------------------------


def log_factorial(n: int) -> float:
    if n < 0:
        raise DomainError("factorial of a negative number")
    return math.lgamma(n + 1)


def log_double_factorial(n: int) -> float:
    """log n!! for n >= 0 (with (-1)!! = 0!! = 1)."""
    if n < -1:
        raise DomainError("double factorial of n < -1")
    if n <= 0:
        return 0.0
    if n % 2 == 0:
        m = n // 2
        return m * math.log(2.0) + math.lgamma(m + 1)
    m = (n + 1) // 2  # n = 2m - 1, n!! = (2m)! / (2^m m!)
    return math.lgamma(2 * m + 1) - m * math.log(2.0) - math.lgamma(m + 1)


@dataclass(frozen=True)
class SubgraphCount:
    """A subset/edge-count cell for the half-edge pairing model.

    ``half_edge_pairs_inside`` is the number of edges with both endpoints in
    the M-set (a loop counts once).  The implied inside-average degree is
    r = 2*inside/M, which may be fractional.
    """

    N: int
    d: int
    M: int
    half_edge_pairs_inside: int

    def __post_init__(self):
        if self.N < 1 or self.d < 1:
            raise DomainError("need N >= 1 and d >= 1")
        if not (1 <= self.M <= self.N):
            raise DomainError("need 1 <= M <= N")
        if (self.N * self.d) % 2 != 0:
            raise InfeasibleError("N*d must be even for a perfect pairing")
        c = self.half_edge_pairs_inside
        if c < 0 or 2 * c > self.M * self.d:
            raise InfeasibleError("inside edge count exceeds available half-edges")
        # M(2d - r) <= Nd with Mr = 2c, i.e. the crossing half-edges must
        # find partners outside.
        if 2 * self.M * self.d - 2 * c > self.N * self.d:
            raise InfeasibleError("too few half-edges outside the M-set")

    @classmethod
    def from_average_degree(cls, N: int, d: int, M: int, r) -> "SubgraphCount":
        """Build from the inside-average degree r; rejects rM odd."""
        num = r * M
        if num != int(num) or int(num) % 2 != 0:
            raise InfeasibleError("r*M must be an even integer")
        return cls(N, d, M, int(num) // 2)

    @property
    def inside_average_degree(self) -> float:
        return 2.0 * self.half_edge_pairs_inside / self.M


def exact_P_Mr(c: SubgraphCount) -> float:
    """Log-probability that a fixed M-set spans exactly `inside` edges.

    Exact under the uniform pairing of N*d half-edges:

        P = C(Md, 2c) C((N-M)d, Md-2c) (2c-1)!! (Md-2c)! (Q-1)!! / (Nd-1)!!

    with Q = Nd - 2Md + 2c the half-edges left entirely outside.
    """
    N, d, M = c.N, c.d, c.M
    two_c = 2 * c.half_edge_pairs_inside
    cross = M * d - two_c
    Q = N * d - 2 * M * d + two_c

    def log_binom(n, k):
        return log_factorial(n) - log_factorial(k) - log_factorial(n - k)

    return (
        log_binom(M * d, two_c)
        + log_binom((N - M) * d, cross)
        + log_double_factorial(two_c - 1)
        + log_factorial(cross)
        + log_double_factorial(Q - 1)
        - log_double_factorial(N * d - 1)
    )


def Z_upper(c: SubgraphCount) -> float:
    """Closed-form upper bound (e^{2d} d^d (M/(Ne))^{r/2-1})^M for C(N,M)*P.

    Meaningful for inside-average degree r >= 2; computed in log space and
    exponentiated at the end.
    """
    N, d, M = c.N, c.d, c.M
    r = c.inside_average_degree
    log_b = M * (2.0 * d + d * math.log(d) + (r / 2.0 - 1.0) * (math.log(M / N) - 1.0))
    return math.exp(log_b)
