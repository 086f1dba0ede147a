"""Steady-state calibration of the frequency alignment parameter.

On a class-balanced, temporally uniform stream with C classes, the
tracker's normalized steady state x* = Q*/q_max solves

    g(x) = (1 - 1/C) * x**r + x - 1/C = 0,

which has exactly one root in (0, 1) because g is strictly increasing
with g(0) < 0 < g(1).  The alignment parameter alpha = 1 / x***r then
makes the loss's negative weights equal 1 at balance, i.e. the adjusted
loss collapses to plain cross-entropy.

Closed forms exist for r = 1 (x* = 1/(2C-1), alpha = 2C-1) and r = 2
(quadratic), and ``solve_calibration`` uses them there; every other
exponent is solved by Newton iterations guarded by a bisection bracket,
which converges unconditionally on a monotone g.  ``_solve_x_star``
solves r in {1, 2} too, so the two paths can be cross-checked.
For small exploratory r the root can lie far below what linear bisection
reaches in ``MAX_ITER`` halvings (x* ~ (p/(1-p))**(1/r), 4e-96 at C = 10,
r = 0.01), so a solve that stalls there continues in u = log x.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import DomainError, SolverError
from .kernel import check_domain

__all__ = ["CalibrationResult", "solve_calibration"]

#: residual target for the guarded Newton iteration
RESIDUAL_TOL = 1e-14
MAX_ITER = 200


@dataclass(frozen=True)
class CalibrationResult:
    """One solved calibration: x* in (0,1), alpha = 1/x*^r, and its inputs.

    Construction re-checks the defining identities, so a result in hand
    is always a valid calibration regardless of which path produced it.
    """

    x_star: float
    alpha: float
    class_count: int
    r: float
    residual: float

    def __post_init__(self):
        if not (0.0 < self.x_star < 1.0):
            raise SolverError(
                f"steady state x*={self.x_star} escaped (0, 1)", residual=self.residual
            )
        if not self.residual < 1e-12:
            raise SolverError(
                f"calibration residual {self.residual:.3e} above 1e-12",
                residual=self.residual,
            )
        if not abs(self.alpha * self.x_star**self.r - 1.0) < 1e-12:
            raise SolverError(
                "alpha and x* are inconsistent", residual=self.residual
            )


def _g(x: float, p: float, r: float) -> float:
    return (1.0 - p) * x**r + x - p


def _g_prime(x: float, p: float, r: float) -> float:
    return (1.0 - p) * r * x ** (r - 1.0) + 1.0


def _solve_x_star(p: float, r: float) -> tuple[float, float]:
    """Root of g on (0,1) for class prior p, by bracketed Newton.

    The bracket [lo, hi] always straddles the sign change; a Newton
    iterate that leaves it is replaced by the midpoint.  Iterates until
    x stops moving at machine precision so downstream alpha = 1/x**r is
    accurate even when x* is tiny (large C).
    """
    lo, hi = 0.0, 1.0
    x = p  # g(p) > 0 slightly, still a good start
    for _ in range(MAX_ITER):
        gx = _g(x, p, r)
        if gx == 0.0:
            return x, 0.0
        if gx > 0.0:
            hi = x
        else:
            lo = x
        step = gx / _g_prime(x, p, r)
        x_new = x - step
        if not (lo < x_new < hi):
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 4e-16 * abs(x):
            x = x_new
            break
        x = x_new
    residual = abs(_g(x, p, r))
    if residual > RESIDUAL_TOL:
        x = _solve_log_x_star(p, r, lo, hi)
        residual = abs(_g(x, p, r))
    if residual > RESIDUAL_TOL:
        raise SolverError(
            f"calibration solve stalled at residual {residual:.3e}", residual=residual
        )
    return x, residual


#: log of the smallest positive double, the lowest root a double can hold
_LOG_TINY = math.log(math.ulp(0.0))


def _solve_log_x_star(p: float, r: float, lo: float, hi: float) -> float:
    """Continue a stalled solve on its bracket [lo, hi] in u = log x.

    h(u) = g(exp(u)) = (1 - p) e^(ru) + e^u - p is increasing and convex,
    so Newton from the bracket's right end, h(u_hi) > 0, walks down onto
    the root without overshooting; the bracket guard stays for rounding.
    """
    u_lo = math.log(lo) if lo > 0.0 else _LOG_TINY
    u = u_hi = math.log(hi)
    for _ in range(MAX_ITER):
        x = math.exp(u)
        gx = _g(x, p, r)
        if gx == 0.0:
            return x
        if gx > 0.0:
            u_hi = u
        else:
            u_lo = u
        u_new = u - gx / ((1.0 - p) * r * x**r + x)  # dh/du = x g'(x)
        if not (u_lo < u_new < u_hi):
            u_new = 0.5 * (u_lo + u_hi)
        if abs(u_new - u) <= 4e-16 * abs(u):
            return math.exp(u_new)
        u = u_new
    return math.exp(u)


def _closed_form_r1(c: int) -> float:
    return 1.0 / (2.0 * c - 1.0)


def _closed_form_r2(c: int) -> float:
    # positive root of (1 - 1/C) x^2 + x - 1/C
    return (-c + math.sqrt(c * c + 4.0 * c - 4.0)) / (2.0 * (c - 1.0))


def solve_calibration(class_count: int, r: float, *, strict: bool = True) -> CalibrationResult:
    """Solve for (x*, alpha) given the class count and steepness exponent.

    The closed form is used for r in {1, 2} and bracketed Newton for
    every other r.  ``strict=False`` additionally admits 0 < r < 1, which
    sits outside the calibrated training domain and is meant for
    exploratory sweeps.
    """
    if class_count < 2:
        raise DomainError(f"need at least 2 classes, got {class_count}")
    check_domain(None, r, not strict)
    if r < 1.0:
        warnings.warn(
            f"solving calibration for exploratory r={r} < 1",
            RuntimeWarning,
            stacklevel=2,
        )

    p = 1.0 / class_count
    if r == 1.0:
        x = _closed_form_r1(class_count)
        residual = abs(_g(x, p, r))
        alpha = float(2 * class_count - 1)
    elif r == 2.0:
        x = _closed_form_r2(class_count)
        residual = abs(_g(x, p, r))
        c = class_count
        alpha = ((c + math.sqrt(c * c + 4.0 * c - 4.0)) / 2.0) ** 2
    else:
        x, residual = _solve_x_star(p, r)
        x_r = x**r
        if x_r == 0.0:
            raise SolverError(
                f"alpha = 1/x*^r overflows for C={class_count}, r={r}", residual=residual
            )
        alpha = 1.0 / x_r
    return CalibrationResult(
        x_star=x, alpha=alpha, class_count=class_count, r=r, residual=residual
    )
