"""The in-house root solvers against SciPy's, bit for bit.

dispersion._chandrupatla ports scipy.optimize.elementwise.find_root and
phasematch._brentq ports scipy.optimize.brentq, so that the package runs
without importing scipy.optimize; SciPy's routines are the oracle here.
"""

import math
import random

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.optimize.elementwise import find_root

from sfwm import FiberSegment, PumpSpec, agvm_roots, gvm_curve, solve_phase_match
from sfwm import dispersion as disp
from sfwm import phasematch as pm


def _same_bits(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    return got.dtype == ref.dtype and got.shape == ref.shape and got.tobytes() == ref.tobytes()


def _assert_matches_find_root(fun, a, b, args, maxiter=2046):  # find_root's default
    got = disp._chandrupatla(fun, a, b, args, maxiter)
    ref = find_root(fun, (a, b), args=args, maxiter=maxiter)
    for name, g, r in zip(("x", "success", "status", "f_x"), got,
                          (ref.x, ref.success, ref.status, ref.f_x)):
        assert _same_bits(g, r), name
    return got


def _solver_brackets(monkeypatch, mode_model, second_pass, seed):
    """Every bracket _solve_neff polishes for a seeded random fiber: its
    series nodes and a random batch; second_pass marches the same columns
    again, on 2049 rows from 1e-6, for finer brackets nearer u = 0."""
    recorded = []
    port = disp._chandrupatla

    def record(fun, a, b, args):
        recorded.append((fun, a.copy(), b.copy(), tuple(x.copy() for x in args)))
        return port(fun, a, b, args)

    monkeypatch.setattr(disp, "_chandrupatla", record)
    rng = np.random.default_rng(seed)
    r_nm, fill = rng.uniform(300.0, 1300.0), rng.uniform(0.1, 0.6)
    seg = FiberSegment("rand", r_nm, fill, 1.0)
    try:
        disp._KSeries(seg, mode_model)
    except disp.ModeSolverError:
        pass  # an unresolved series still polished its nodes
    disp._solve_neff(r_nm, fill, rng.uniform(400.0, 1900.0, 97), mode_model)
    monkeypatch.undo()
    if second_pass:
        # The scan top of _solve_neff: below V and the first Bessel zero.
        zero = disp._J1_FIRST_ZERO if mode_model == "he11" else disp._J0_FIRST_ZERO
        recorded = [(fun, *disp._first_brackets(fun, args, 1e-6,
                                                np.minimum(args[0], zero) * (1.0 - 1e-12), 2049),
                     args) for fun, _, _, args in recorded]
    return recorded


@pytest.mark.parametrize("mode_model", ["he11", "lp01"])
@pytest.mark.parametrize("second_pass", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chandrupatla_matches_find_root_on_solver_brackets(monkeypatch, mode_model,
                                                          second_pass, seed):
    brackets = _solver_brackets(monkeypatch, mode_model, second_pass, seed)
    assert len(brackets) >= 2
    for fun, a, b, args in brackets:
        _, success, _, _ = _assert_matches_find_root(fun, a, b, args)
        assert success.all()
    # Capped early, the same brackets stop part-way: unconverged (-2)
    # elements report the best end so far, converged ones their root.
    fun, a, b, args = brackets[-1]
    statuses = set()
    for maxiter in (0, 1, 3, 5):
        _, _, status, _ = _assert_matches_find_root(fun, a, b, args, maxiter)
        statuses |= set(status.tolist())
    assert statuses == {0, -2}


def test_chandrupatla_matches_find_root_on_invalid_brackets():
    # A bracket without a sign change (-1), a NaN residual at both ends (-3)
    # and at one end only (not an error by itself), an endpoint that is
    # exactly a root and two whose residual sits exactly on the absolute
    # tolerance (tiny), next to an ordinary bracket.
    def fun(x, c):
        return np.where((c == 3.0) | ((c == 4.0) & (x < 0.25)), np.nan, x * x - c)

    tiny = np.finfo(float).tiny
    a = np.array([0.0, 2.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    b = np.array([2.0, 3.0, 1.0, 1.0, 1.0, 5.0, 1.0, 3.0])
    c = np.array([2.0, 1.0, 3.0, 0.0, tiny, 7.0, -tiny, 4.0])
    x, success, status, _ = _assert_matches_find_root(fun, a, b, (c,))
    assert status.tolist()[:7] == [0, -1, -3, 0, 0, 0, 0] and status[7] != -3
    assert success.tolist()[:7] == [True, False, False, True, True, True, True]
    assert x[4] == x[6] == 0.0  # the residual test comes before the sign test


def _random_smooth(rng, center, scale):
    """A smooth function with a root within scale/2 of center and a random
    magnitude: moderate, or from subnormal, whose products underflow and
    whose differences divide by zero, up to near overflow."""
    c = [rng.uniform(-1.0, 1.0) for _ in range(3)]
    root = center + scale * rng.uniform(-0.5, 0.5)
    mag = 10.0 ** rng.uniform(*rng.choice(((-12.0, 12.0), (-320.0, 300.0))))

    def f(x):
        y = (x - root) / scale
        return mag * (y + c[0] * y * y + 0.3 * c[1] * math.sin(5.0 * y) * y + c[2] * y ** 3)

    a = root - scale * rng.uniform(0.01, 1.0)
    b = root + scale * rng.uniform(0.01, 1.0)
    return (f, b, a) if rng.random() < 0.5 else (f, a, b)


def _brent_outcome(solver, f, a, b, **tol):
    try:
        return solver(f, a, b, **tol)
    except ValueError as exc:
        return type(exc)


# The (xtol, rtol) pairs the package passes, at the x-scale of their calls:
# phase matching in omega (rad/s) and the AGVM polish in pump wavelength (nm).
# The coarse pair makes the tolerance a fair share of the bracket, where the
# step rule's delta terms decide.
@pytest.mark.parametrize("center, scale, xtol, rtol", [
    (1.3e15, 1e13, 1e-3, pm._BRENT_RTOL),
    (1000.0, 10.0, 1e-2, pm._BRENT_RTOL),
    (0.0, 1.0, 0.2, 1e-3),
])
def test_brent_matches_brentq_on_random_smooth_functions(center, scale, xtol, rtol):
    rng = random.Random(17)
    roots = 0
    for _ in range(2000):
        f, a, b = _random_smooth(rng, center, scale)
        ref = _brent_outcome(brentq, f, a, b, xtol=xtol, rtol=rtol)
        got = _brent_outcome(pm._brentq, f, a, b, xtol=xtol, rtol=rtol)
        assert type(got) is type(ref)
        if isinstance(ref, float):
            roots += 1
            assert _same_bits(got, ref), (a, b)
    assert roots > 1500  # most random brackets are valid


def test_brent_endpoint_root_and_same_sign_bracket():
    def f(x):
        return x - 2.0

    # A root at either end is returned as given, the sign of a zero included.
    for g, a, b in ((f, 2.0, 5.0), (f, 0.0, 2.0), (math.sin, -0.0, 1.0)):
        assert _same_bits(pm._brentq(g, a, b, xtol=1e-3), brentq(g, a, b, xtol=1e-3))
    assert math.copysign(1.0, pm._brentq(math.sin, -0.0, 1.0, xtol=1e-3)) == -1.0
    with pytest.raises(ValueError, match="different signs"):
        brentq(f, 3.0, 4.0)
    with pytest.raises(ValueError, match="different signs"):
        pm._brentq(f, 3.0, 4.0, xtol=1e-3)


def test_brent_matches_brentq_on_the_package_calls(monkeypatch):
    # Each phase-match and AGVM polish of a short gvm-curve step, replayed.
    port, calls = pm._brentq, []

    def checked(f, a, b, xtol, rtol=pm._BRENT_RTOL):
        got = port(f, a, b, xtol, rtol)
        assert _same_bits(got, brentq(f, a, b, xtol=xtol, rtol=rtol))
        calls.append(xtol)
        return got

    monkeypatch.setattr(pm, "_brentq", checked)
    seg = FiberSegment("R948", 948.0, 0.296, 1.9)
    solve_phase_match(seg, PumpSpec(1070.0, 2.0))
    roots = agvm_roots(seg, gvm_curve(seg, (955.0, 1095.0), 8))
    assert roots.pump_for_tau_i_zero is not None and roots.pump_for_tau_s_zero is not None
    assert {1e-3, 1e-2} <= set(calls)
