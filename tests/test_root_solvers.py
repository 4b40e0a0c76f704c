"""The in-house array Brent against SciPy's brentq, bit for bit.

dispersion._brentq ports scipy.optimize.brentq, so that the package runs
without importing scipy.optimize.  It polishes the mode solver's brackets,
the phase-matching roots and the AGVM roots; brentq is the oracle here.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from sfwm import FiberSegment, PumpSpec, agvm_roots, gvm_curve, solve_phase_match
from sfwm import dispersion as disp
from sfwm import phasematch as pm

# The mode solver's polish tolerances in u.
_MODE_XTOL, _MODE_RTOL = 4 * np.finfo(float).tiny, 4 * np.finfo(float).eps


def _same_bits(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    return got.dtype == ref.dtype and got.shape == ref.shape and got.tobytes() == ref.tobytes()


def _assert_each_matches_brentq(f, a, b, xtol, rtol, args, got):
    """Every element of an array Brent call, replayed alone through brentq."""
    for k in range(len(got)):
        def one(x, k=k):
            return f(np.array([x]), *(np.asarray(v)[k:k + 1] for v in args))[0]
        assert _same_bits(got[k], brentq(one, a[k], b[k], xtol=xtol, rtol=rtol)), k


def _solver_brackets(monkeypatch, second_pass, seed):
    """Every array Brent call _solve_neff makes for a seeded random fiber (its
    series nodes and a random batch), as (f, a, b, xtol, rtol, args); args are
    the bracket indices, then the residual's (v, ...).  second_pass marches
    the same columns again, on 2049 rows from 1e-6, for finer brackets nearer
    u = 0."""
    recorded = []
    brent = disp._brentq

    def record(f, a, b, xtol, rtol=disp._BRENT_RTOL, args=()):
        recorded.append((f, a.copy(), b.copy(), xtol, rtol, tuple(x.copy() for x in args)))
        return brent(f, a, b, xtol, rtol, args)

    monkeypatch.setattr(disp, "_brentq", record)
    rng = np.random.default_rng(seed)
    r_nm, fill = rng.uniform(300.0, 1300.0), rng.uniform(0.1, 0.6)
    seg = FiberSegment("rand", r_nm, fill)
    try:
        disp._KSeries(seg)
    except disp.ModeSolverError:
        pass  # an unresolved series still polished its nodes
    disp._solve_neff(r_nm, fill, rng.uniform(400.0, 1900.0, 97))
    monkeypatch.undo()
    if second_pass:
        # The scan top of _solve_neff: below V and the first zero of J1.
        recorded = [(f, *disp._first_brackets(
            disp._he11_residual, args[1:], 1e-6,
            np.minimum(args[1], disp._J1_FIRST_ZERO) * (1.0 - 1e-12), 2049), xtol, rtol, args)
            for f, _, _, xtol, rtol, args in recorded]
    return recorded


@pytest.mark.parametrize("second_pass", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_brent_matches_brentq_on_solver_brackets(monkeypatch, second_pass, seed):
    calls = _solver_brackets(monkeypatch, second_pass, seed)
    assert len(calls) >= 2
    for f, a, b, xtol, rtol, args in calls:
        assert (xtol, rtol) == (_MODE_XTOL, _MODE_RTOL)
        assert np.isfinite(a).all() and np.isfinite(b).all()
        got = disp._brentq(f, a, b, xtol, rtol, args)
        assert np.isfinite(got).all()
        _assert_each_matches_brentq(f, a, b, xtol, rtol, args, got)


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


def _brent_outcome(f, a, b, **tol):
    """brentq's root, or the type of the exception it raises."""
    try:
        return brentq(f, a, b, **tol)
    except ValueError as exc:
        return type(exc)


def _array_brent_outcome(f, a, b, **tol):
    """The array port on the one bracket of a scalar f: NaN stands for
    brentq's ValueError."""
    (x,) = disp._brentq(lambda x: np.array([f(float(v)) for v in x]), [a], [b], **tol)
    return ValueError if math.isnan(x) else float(x)


# The (xtol, rtol) pairs the package passes, at the x-scale of their calls:
# phase matching in omega (rad/s) and the AGVM polish in pump wavelength (nm).
# The coarse pair makes the tolerance a fair share of the bracket, where the
# step rule's delta terms decide.
_TOLERANCES = [
    (1.3e15, 1e13, 1e-3, disp._BRENT_RTOL),
    (1000.0, 10.0, 1e-2, disp._BRENT_RTOL),
    (0.0, 1.0, 0.2, 1e-3),
]


@pytest.mark.parametrize("center, scale, xtol, rtol", _TOLERANCES)
def test_brent_matches_brentq_on_random_smooth_functions(center, scale, xtol, rtol):
    # 2000 random brackets in one array call, each element against brentq.
    rng = random.Random(17)
    funcs, a, b = zip(*(_random_smooth(rng, center, scale) for _ in range(2000)))

    def each(x, which):
        return np.array([funcs[i](v) for v, i in zip(x.tolist(), which.tolist())])

    got = disp._brentq(each, a, b, xtol=xtol, rtol=rtol, args=(np.arange(len(funcs)),))
    roots = 0
    for k, f in enumerate(funcs):
        ref = _brent_outcome(f, a[k], b[k], xtol=xtol, rtol=rtol)
        if isinstance(ref, float):
            roots += 1
            assert _same_bits(float(got[k]), ref), (a[k], b[k])
        else:
            assert ref is ValueError and math.isnan(got[k])
    assert roots > 1500  # most random brackets are valid


def _cubic(x, root, scale, c1, c2, mag, nan_above):
    """A cubic through root, NaN above nan_above; only +, -, *, /, so a
    Python float and an ndarray element get the same bits."""
    y = (x - root) / scale
    return np.where(x > nan_above, np.nan, mag * (y + c1 * y * y + c2 * y * y * y))


_BRACKET = st.tuples(
    st.floats(-0.5, 0.5), st.floats(-1.2, 1.2), st.floats(-1.2, 1.2),  # root, c1, c2
    st.floats(-300.0, 300.0), st.sampled_from([1.0, -1.0]),  # log10 |mag|, sign
    st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0])),  # a's offset below root
    st.floats(-0.3, 1.0), st.booleans(),  # b's offset above root; swap a and b
    st.one_of(st.just(math.inf), st.floats(-0.5, 1.5)),  # NaN above
)


@settings(max_examples=150, deadline=None)
@given(brackets=st.lists(_BRACKET, min_size=1, max_size=12),
       tol=st.sampled_from(_TOLERANCES))
def test_array_brent_matches_brentq_on_every_element(brackets, tol):
    # A batch of cubics in one array call against brentq on each: roots at an
    # end (a zero offset), same-sign brackets (an offset below the root or a
    # root of the cubic's other branch), NaN values and magnitudes near
    # underflow and overflow; NaN marks where brentq raises ValueError.
    center, scale, xtol, rtol = tol
    rows = []
    for root, c1, c2, log_mag, sign, da, db, swap, nan_above in brackets:
        root = center + scale * root
        a, b = root - scale * da, root + scale * db
        rows.append((*((b, a) if swap else (a, b)), root, scale, c1, c2,
                     sign * 10.0 ** log_mag, center + scale * nan_above))
    a, b, *args = (np.array(col) for col in zip(*rows))
    got = disp._brentq(_cubic, a, b, xtol=xtol, rtol=rtol, args=tuple(args))
    for k, row in enumerate(rows):
        ref = _brent_outcome(lambda x, p=row[2:]: float(_cubic(x, *p)), row[0], row[1],
                             xtol=xtol, rtol=rtol)
        if ref is ValueError:
            assert math.isnan(got[k])
        else:
            assert _same_bits(float(got[k]), ref)


def test_brent_endpoint_root_and_same_sign_bracket():
    def f(x):
        return x - 2.0

    # A root at either end is returned as given, the sign of a zero included.
    for g, a, b in ((f, 2.0, 5.0), (f, 0.0, 2.0), (math.sin, -0.0, 1.0),
                    (lambda x: x * (x - 1.0), 1.0, 0.0)):  # both ends: a wins
        assert _same_bits(_array_brent_outcome(g, a, b, xtol=1e-3), brentq(g, a, b, xtol=1e-3))
    assert math.copysign(1.0, _array_brent_outcome(math.sin, -0.0, 1.0, xtol=1e-3)) == -1.0
    with pytest.raises(ValueError, match="different signs"):
        brentq(f, 3.0, 4.0)
    assert _array_brent_outcome(f, 3.0, 4.0, xtol=1e-3) is ValueError
    # In one batch: a root at a, at b, a same-sign bracket and a plain one.
    x = disp._brentq(lambda x: x - 2.0, [2.0, 0.0, 3.0, 1.0], [5.0, 2.0, 4.0, 3.0], xtol=1e-3)
    assert x[:2].tolist() == [2.0, 2.0] and math.isnan(x[2]) and abs(x[3] - 2.0) < 1e-3


def test_brent_matches_brentq_on_the_package_calls(monkeypatch):
    # Each array Brent of a phase-match solve, a short gvm-curve sweep and
    # its AGVM polish, and the mode solver's polish of their series nodes,
    # replayed element by element through brentq.
    port, calls = disp._brentq, []

    def checked(f, a, b, xtol, rtol=disp._BRENT_RTOL, args=()):
        got = port(f, a, b, xtol, rtol, args)
        _assert_each_matches_brentq(f, a, b, xtol, rtol, args, got)
        calls.append((xtol, len(got)))
        return got

    for module in (disp, pm):
        monkeypatch.setattr(module, "_brentq", checked)
    seg = FiberSegment("R948", 948.0, 0.296)
    solve_phase_match(seg, PumpSpec(1070.0, 2.0))
    roots = agvm_roots(seg, gvm_curve(seg, (955.0, 1095.0), 8))
    assert roots.pump_for_tau_i_zero is not None and roots.pump_for_tau_s_zero is not None
    assert (1e-3, 8) in calls and (1e-2, 2) in calls
    assert (_MODE_XTOL, disp.SERIES_DEGREE + 1) in calls
