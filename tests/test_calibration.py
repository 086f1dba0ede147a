import hashlib
import math
import warnings
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from talcil import DomainError, SolverError, solve_calibration
from talcil.calibration import _closed_form_r1, _closed_form_r2, _g, _solve_x_star
from oracle import degeneracy_check


def bisect_root(c, r, iters=200):
    """Independent bracketing oracle for the calibration equation."""
    p = 1.0 / c
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if _g(mid, p, r) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_r1_closed_form():
    res = solve_calibration(10, 1.0)
    assert res.x_star == pytest.approx(1.0 / 19.0, abs=1e-15)
    assert res.alpha == 19.0


def test_r2_closed_form_two_classes():
    res = solve_calibration(2, 2.0)
    assert res.x_star == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-14)
    assert res.alpha == pytest.approx(3.0 + 2.0 * math.sqrt(2.0), rel=1e-13)


def test_general_r_residual_and_bisection_agreement():
    res = solve_calibration(100, 5.0)
    assert 0.0 < res.x_star < 1.0
    assert res.residual < 1e-12
    assert res.x_star == pytest.approx(bisect_root(100, 5.0), abs=1e-12)


@pytest.mark.parametrize("c,r", [(10, 1.0), (7, 2.0), (3, 3.5)])
def test_degeneracy_identity(c, r):
    assert degeneracy_check(c, r) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("field", ["alpha", "residual"])
def test_a_nan_result_is_not_a_calibration(field):
    with pytest.raises(SolverError):
        replace(solve_calibration(10, 1.0), **{field: math.nan})


def test_closed_and_newton_paths_agree():
    for c in (2, 3, 10, 50, 250, 1000):
        for r, closed_form in ((1.0, _closed_form_r1), (2.0, _closed_form_r2)):
            closed = solve_calibration(c, r)
            assert closed.x_star == closed_form(c)
            newton, _ = _solve_x_star(1.0 / c, r)
            assert abs(closed.x_star - newton) < 1e-12


def test_alpha_is_two_c_minus_one_for_linear_weighting():
    for c in (2, 17, 333, 1000):
        assert abs(solve_calibration(c, 1.0).alpha - (2 * c - 1)) < 1e-10
        assert abs(1.0 / _solve_x_star(1.0 / c, 1.0)[0] - (2 * c - 1)) < 1e-10


def test_x_star_decreases_with_class_count():
    for r in (1.0, 2.0, 4.5):
        xs = [solve_calibration(c, r).x_star for c in (2, 3, 5, 10, 30, 100, 500)]
        assert all(a > b for a, b in zip(xs, xs[1:]))


@given(
    c=st.integers(min_value=2, max_value=1000),
    r=st.floats(min_value=1.0, max_value=8.0),
)
def test_solution_properties_hold_generally(c, r):
    res = solve_calibration(c, r)
    assert 0.0 < res.x_star < 1.0
    assert res.residual < 1e-12
    assert abs(res.alpha * res.x_star**r - 1.0) < 1e-12
    assert res.alpha > 1.0


def test_domain_errors():
    with pytest.raises(DomainError):
        solve_calibration(1, 1.0)
    with pytest.raises(DomainError):
        solve_calibration(10, 0.5)
    with pytest.raises(DomainError):
        solve_calibration(10, -1.0, strict=False)


def test_exploratory_small_r_warns_but_solves():
    with pytest.warns(RuntimeWarning):
        res = solve_calibration(10, 0.2, strict=False)
    assert res.residual < 1e-12
    assert 0.0 < res.x_star < 1.0
    assert res.x_star == pytest.approx(bisect_root(10, 0.2), abs=1e-12)


def test_small_exploratory_r_continues_in_log_space():
    # the roots sit far below what 200 linear halvings of (0, 1) reach
    with pytest.warns(RuntimeWarning):
        res = solve_calibration(10, 0.01, strict=False)
    assert res.alpha == pytest.approx(9.0, rel=1e-12)
    assert res.x_star == pytest.approx(9.0**-100, rel=1e-12)
    with pytest.warns(RuntimeWarning):
        res = solve_calibration(3, 0.00390625, strict=False)
    assert res.alpha == pytest.approx(2.0, rel=1e-12)
    assert res.x_star == pytest.approx(2.0**-256, rel=1e-12)
    assert res.residual < 1e-12
    # x* = 9**-1000 underflows a double, so that solve still fails
    with pytest.warns(RuntimeWarning), pytest.raises(SolverError):
        solve_calibration(10, 0.001, strict=False)


def test_newton_solves_keep_their_bits():
    # x* and alpha, as float.hex, for C = 2..50 and r in {0.2, 0.5, 0.9,
    # 1.5, 3, 5}, recorded before the log-space continuation was added:
    # it runs only where the bracketed Newton solve stalls
    rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for r in (0.2, 0.5, 0.9, 1.5, 3.0, 5.0):
            for c in range(2, 51):
                res = solve_calibration(c, r, strict=r >= 1.0)
                rows.append(f"{c},{r!r},{res.x_star.hex()},{res.alpha.hex()}")
    assert rows[0] == "2,0.2,0x1.3e52398d38962p-3,0x1.737a500616924p+0"
    assert rows[-1] == "50,5.0,0x1.47ae111cdd124p-6,0x1.2a06014fffaf6p+28"
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == "a6abc23d58739da4ff47f863f1b3d8183f5e714246fa962c12ce39909b707922"
