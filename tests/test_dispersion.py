"""Material model, mode solver, derivatives, ZDW search, and structure fit."""

import dataclasses

import mpmath
import numpy as np
import pytest
import scipy.constants
from numpy.polynomial import Chebyshev

from sfwm import dispersion as disp
from sfwm.dispersion import (
    DispersionDomainError,
    FiberSegment,
    GvdSample,
    ModeCutoffError,
    ModeSolverError,
    cladding_index,
    effective_index,
    find_zdw,
    fit_structure,
    group_slowness,
    gvd,
    propagation_constant,
    read_gvd_csv,
    silica_refractive_index,
)

from conftest import catalog_fiber

R948 = FiberSegment("R948", 948.0, 0.296, 1.9)


def test_silica_index_reference_points():
    # Frozen from direct evaluation of the three-term Sellmeier sum.
    assert silica_refractive_index(1070.0) == pytest.approx(1.4497, abs=5e-4)
    assert silica_refractive_index(587.6) == pytest.approx(1.4585, abs=5e-4)


def test_speed_of_light_is_the_si_value():
    assert disp.C_LIGHT == scipy.constants.c


def test_silica_index_window_error():
    with pytest.raises(DispersionDomainError, match=r"\[300, 2000\]"):
        silica_refractive_index(200.0)
    with pytest.raises(DispersionDomainError):
        silica_refractive_index(2500.0)


def test_silica_index_smooth_above_one():
    wl = np.linspace(300.0, 2000.0, 350)
    n = silica_refractive_index(wl)
    assert np.all(n > 1.0)
    assert np.max(np.abs(np.diff(n))) < 5e-3


def test_cladding_limits():
    n_si = silica_refractive_index(1070.0)
    assert cladding_index(1070.0, 1e-9) == pytest.approx(n_si, abs=1e-8)
    assert cladding_index(1070.0, 1.0 - 1e-9) == pytest.approx(1.0, abs=1e-8)
    fs = np.linspace(0.05, 0.95, 10)
    vals = [cladding_index(1070.0, f) for f in fs]
    assert np.all(np.diff(vals) < 0)


def test_cladding_value_at_catalog_fill():
    # Linear index average (the calibrated mixing rule): (1-f)*n_si + f.
    n_si = silica_refractive_index(1070.0)
    expected = (1.0 - 0.296) * n_si + 0.296
    assert cladding_index(1070.0, 0.296) == pytest.approx(expected, rel=1e-12)
    assert cladding_index(1070.0, 0.296) == pytest.approx(1.3165, abs=1e-3)


def test_cladding_rejects_bad_fill():
    with pytest.raises(ValueError):
        cladding_index(1070.0, 1.2)


def test_guided_mode_bound():
    seg = catalog_fiber("S2")
    for lam in (900.0, 1070.0, 1410.0):
        n_eff = effective_index(seg, lam)
        assert cladding_index(lam, seg.air_fill) < n_eff < silica_refractive_index(lam)


def test_propagation_constant_monotone_in_frequency():
    wl = np.arange(850.0, 1451.0, 2.0)
    for label in ("S1", "S4"):
        seg = catalog_fiber(label)
        k = np.array([propagation_constant(seg, x) for x in wl])
        assert np.all(np.diff(k) < 0)  # k decreasing in lambda = increasing in omega


def test_continuity_on_fine_grid():
    # Midpoint linear-interpolation residual catches solver branch jumps.
    for label in ("S1", "S4"):
        seg = catalog_fiber(label)
        for center in (860.0, 1070.0, 1400.0):
            wl = center + 0.1 * np.arange(21)
            k = np.array([propagation_constant(seg, x) for x in wl])
            kp = np.array([group_slowness(seg, x) for x in wl])
            for arr in (k, kp):
                resid = np.abs(arr[1:-1] - 0.5 * (arr[:-2] + arr[2:]))
                assert np.max(resid / np.abs(arr[1:-1])) < 1e-6


def _direct_k_of_omega(seg, omega):
    """k(omega) in rad/m from direct HE11 solves, independent of the series."""
    return propagation_constant(seg, disp.TWO_PI_C / np.asarray(omega) * 1e9)


def test_group_slowness_richardson_consistency():
    # Series derivative against a Richardson-extrapolated central difference
    # (h and h/2) of the direct solver.
    seg = catalog_fiber("S1")
    for lam in (1000.0, 1070.0, 1409.9):
        omega = disp.TWO_PI_C / (lam * 1e-9)
        h = 1e-4 * omega
        kp, km, kp2, km2 = _direct_k_of_omega(
            seg, [omega + h, omega - h, omega + h / 2, omega - h / 2])
        oracle = (4 * (kp2 - km2) / h - (kp - km) / (2 * h)) / 3
        assert group_slowness(seg, lam) == pytest.approx(oracle, rel=1e-6)


def test_gvd_halfstep_consistency():
    # Second differences of the direct solver at steps h and h/2, combined
    # so that their O(h^2) truncation cancels. At h = 1e-4 omega the solver's
    # rounding, amplified by 1/h^2, reaches 2e-4 of beta2 near 1000 nm;
    # h = 1e-3 omega keeps both error terms near 1e-6 relative.
    seg = catalog_fiber("S1")
    for lam in (1000.0, 1300.0):
        omega = disp.TWO_PI_C / (lam * 1e-9)
        h = 1e-3 * omega
        kc, kp, km, kp2, km2 = _direct_k_of_omega(
            seg, [omega, omega + h, omega - h, omega + h / 2, omega - h / 2])
        d1 = (kp - 2 * kc + km) / h**2
        d2 = (kp2 - 2 * kc + km2) / (h / 2) ** 2
        oracle = (4 * d2 - d1) / 3 * 1e24
        assert gvd(seg, lam) == pytest.approx(oracle, rel=1e-4)


def test_walkoff_at_catalog_point():
    seg = catalog_fiber("S1")
    tau_s = (group_slowness(seg, 1070.0) - group_slowness(seg, 1409.9)) * 1e12
    assert tau_s == pytest.approx(3.2, abs=0.5)


def test_zdw_pair_reference():
    roots = find_zdw(R948, (900.0, 1250.0))
    assert len(roots) == 2
    assert roots[0] == pytest.approx(942.0, abs=10.0)
    assert roots[1] == pytest.approx(1175.0, abs=10.0)


def test_zdw_empty_range():
    assert find_zdw(R948, (1000.0, 1100.0)) == []


def test_gvd_vanishes_at_zdw():
    for root in find_zdw(R948, (900.0, 1250.0)):
        assert abs(gvd(R948, root)) < 1e-5


def test_gvd_sign_pattern():
    z1, z2 = find_zdw(R948, (900.0, 1250.0))
    wl = np.arange(905.0, 1246.0, 5.0)
    vals = np.array([gvd(R948, x) for x in wl])
    signs = np.sign(vals)
    assert np.count_nonzero(np.diff(signs)) == 2
    assert np.all(vals[wl < z1 - 2] > 0)
    assert np.all(vals[(wl > z1 + 2) & (wl < z2 - 2)] < 0)
    assert np.all(vals[wl > z2 + 2] > 0)


def test_zdw_radius_perturbation():
    base = find_zdw(R948, (900.0, 1250.0))
    nudged = find_zdw(FiberSegment("R949", 948.0 * 1.001, 0.296, 1.9), (900.0, 1250.0))
    assert len(nudged) == 2
    assert abs(nudged[0] - base[0]) < 5.0
    assert abs(nudged[1] - base[1]) < 5.0


def test_slowness_extremum_at_zdw():
    z1, _ = find_zdw(R948, (900.0, 1250.0))
    s = [group_slowness(R948, z1 - 1.0), group_slowness(R948, z1),
         group_slowness(R948, z1 + 1.0)]
    # dk'/domega = 0 at the root: k' has a symmetric local extremum there.
    assert s[1] < s[0] and s[1] < s[2]
    assert abs(s[2] - s[0]) < 0.05 * (s[0] - s[1])


def test_out_of_window_requests_raise_domain_error():
    # The series spans the whole window, so its edges are legal requests.
    assert np.isfinite(gvd(R948, [300.0, 1999.95, 2000.0])).all()
    for fn in (group_slowness, gvd):
        for wl in (299.9, 2000.1, [1000.0, 2000.1], np.array([299.9, 1000.0])):
            with pytest.raises(DispersionDomainError):
                fn(R948, wl)


def _he11_neff_mpmath(r_nm, fill, lam_nm):
    """HE11 effective index at 40 digits, independent of the double solver:
    textbook form of the characteristic equation (Snyder & Love, Optical
    Waveguide Theory, 1983), Sellmeier sum in mpmath, first sign change on a
    coarse u scan, Illinois polish."""
    mp = mpmath.mp
    with mpmath.workdps(40):
        x2 = (mp.mpf(lam_nm) / 1000) ** 2
        sellmeier = (("0.6961663", "0.0684043"), ("0.4079426", "0.1162414"),
                     ("0.8974794", "9.896161"))
        n_co = mp.sqrt(1 + sum(mp.mpf(b) * x2 / (x2 - mp.mpf(c) ** 2) for b, c in sellmeier))
        n_cl = (1 - mp.mpf(fill)) * n_co + mp.mpf(fill)
        k = 2 * mp.pi / (mp.mpf(lam_nm) * mp.mpf("1e-9"))
        a = mp.mpf(r_nm) * mp.mpf("1e-9")
        v = k * a * mp.sqrt(n_co**2 - n_cl**2)

        def resid(u):
            w = mp.sqrt(v**2 - u**2)
            jj = (mp.besselj(0, u) - mp.besselj(1, u) / u) / (u * mp.besselj(1, u))
            kk = -(mp.besselk(0, w) + mp.besselk(1, w) / w) / (w * mp.besselk(1, w))
            beta_rel2 = 1 - (u / (k * n_co * a)) ** 2
            return ((jj + kk) * (jj + (n_cl / n_co) ** 2 * kk)
                    - beta_rel2 * (1 / u**2 + 1 / w**2) ** 2)

        top = min(v, mp.besseljzero(1, 1)) * (1 - mp.mpf("1e-9"))
        us = [top * (i + 1) / 24 for i in range(24)]
        vals = [resid(u) for u in us]
        i = next(i for i in range(23) if vals[i] * vals[i + 1] < 0)
        u = mp.findroot(resid, (us[i], us[i + 1]), solver="illinois")
        return mp.sqrt(n_co**2 - (u / (k * a)) ** 2)


def _k_mpmath(omega):
    """k(omega) in rad/m from the 40-digit HE11 solve on R948."""
    with mpmath.workdps(40):
        c = mpmath.mpf(disp.C_LIGHT)
        return _he11_neff_mpmath(948.0, 0.296, 2 * mpmath.pi * c / omega * 10**9) * omega / c


def test_effective_index_matches_mpmath_oracle():
    for lam in (900.0, 1070.0, 1409.9):
        ref = _he11_neff_mpmath(948.0, 0.296, lam)
        assert abs(float(effective_index(R948, lam)) - ref) / ref < 1e-13
        # Central differences of the 40-digit k(omega), step 1e-12 relative:
        # truncation ~1e-24 relative, rounding ~1e-13 ps^2/m in beta2.
        with mpmath.workdps(40):
            omega = 2 * mpmath.pi * mpmath.mpf(disp.C_LIGHT) / (mpmath.mpf(lam) * 10**-9)
            h = omega * mpmath.mpf("1e-12")
            k1 = mpmath.diff(_k_mpmath, omega, 1, h=h)
            beta2 = mpmath.diff(_k_mpmath, omega, 2, h=h) * 10**24
        assert abs(group_slowness(R948, lam) - k1) / k1 < 1e-12
        assert abs(gvd(R948, lam) - beta2) < 1e-9  # ps^2/m


def test_array_calls_match_scalar_calls_bit_for_bit():
    wl = np.array([860.0, 942.4, 1070.0, 1173.8, 1409.9, 1450.0])
    extra = np.linspace(900.0, 1300.0, 37)
    for fn in (effective_index, group_slowness, gvd):
        batch = fn(R948, wl)
        assert batch.shape == wl.shape
        assert np.array_equal(batch, [fn(R948, float(x)) for x in wl])
        # Nothing depends on which other wavelengths share the batch.
        assert np.array_equal(fn(R948, wl[::-1])[::-1], batch)
        assert np.array_equal(fn(R948, np.concatenate([extra, wl]))[extra.size:], batch)
        assert np.array_equal(fn(R948, wl.reshape(2, 3)), batch.reshape(2, 3))
    assert np.ndim(effective_index(R948, 1070.0)) == 0


def _row_march_oracle(fun, args, start, stop, num):
    """The bracket march one row of u at a time over the open columns."""
    lo, hi = np.full((2, stop.size), np.nan)
    cols = np.arange(stop.size)
    step = (stop - start) / (num - 1)
    u_prev = np.full(stop.shape, start)
    f_prev = fun(u_prev, *args)
    for j in range(1, num):
        u = stop if j == num - 1 else j * step + start
        f = fun(u, *args)
        found = np.sign(f_prev) * np.sign(f) < 0
        lo[cols[found]], hi[cols[found]] = u_prev[found], u[found]
        keep = ~found
        if not keep.any():
            break
        cols, stop, step, u_prev, f_prev = cols[keep], stop[keep], step[keep], u[keep], f[keep]
        args = tuple(x[keep] for x in args)
    return lo, hi


def _cos_residual(u, a):
    return np.cos(a * u)


def _residual_columns(kind, n):
    """Residual, args and scan top for n columns, the last of them (when
    n > 1) without a bracket: HE11 at n wavelengths on R948 with the
    last on a 50 nm core that has no guided mode, or cos(a u) on [0, 3],
    whose many sign changes pin the first-sign-change rule."""
    if kind == "cos":
        a = np.linspace(1.0, 40.0, n)
        if n > 1:
            a[-1] = 0.1
        return _cos_residual, (a,), np.full(n, 3.0)
    wl = np.linspace(850.0, 1450.0, n)
    r_nm = np.full(n, 948.0)
    if n > 1:
        r_nm[-1] = 50.0
    n_co = silica_refractive_index(wl)
    n_cl = (1.0 - 0.296) * n_co + 0.296
    k0a = 2.0 * np.pi * r_nm / wl
    v = k0a * np.sqrt(n_co * n_co - n_cl * n_cl)
    top = np.minimum(v, disp._J1_FIRST_ZERO) * (1.0 - 1e-12)
    return disp._he11_residual, (v, (n_cl / n_co) ** 2, 1.0 / (k0a * n_co) ** 2), top


def _assert_march_matches_oracle(kind, n, start, num):
    fun, args, top = _residual_columns(kind, n)
    lo, hi = disp._first_brackets(fun, args, start, top, num)
    ref_lo, ref_hi = _row_march_oracle(fun, args, start, top, num)
    # array_equal with equal_nan compares NaN positions and every other bit.
    assert np.array_equal(lo, ref_lo, equal_nan=True)
    assert np.array_equal(hi, ref_hi, equal_nan=True)
    assert np.isfinite(lo[0])
    if n > 1:
        assert np.isnan(lo[-1]) and np.isnan(hi[-1])


@pytest.mark.parametrize("kind", ["he11", "cos"])
@pytest.mark.parametrize("start, num", [(1e-3, 129), (1e-6, 2049)])
@pytest.mark.parametrize("n", [1, 2, 37])
def test_block_march_matches_row_march(kind, n, start, num):
    _assert_march_matches_oracle(kind, n, start, num)


@pytest.mark.parametrize("kind", ["he11", "cos"])
def test_block_march_matches_row_march_beyond_cell_budget(kind, monkeypatch):
    # More columns than the cell budget: one row per step on the 129-row pass.
    _assert_march_matches_oracle(kind, disp._MARCH_CELLS + 1, 1e-3, 129)
    # The 2049-row pass over that many columns costs seconds; a budget
    # shrunk below 37 columns takes the same one-row-per-step path there,
    # and gives partial last blocks to the smaller batches.
    monkeypatch.setattr(disp, "_MARCH_CELLS", 30)
    for n in (1, 2, 37):
        _assert_march_matches_oracle(kind, n, 1e-6, 2049)
        _assert_march_matches_oracle(kind, n, 1e-3, 129)


def test_mode_cutoff_is_explicit():
    thin = FiberSegment("thin", 50.0, 0.296, 1.0)
    with pytest.raises(ModeCutoffError) as info:
        effective_index(thin, 1070.0)
    assert str(info.value) == ("no guided fundamental mode for r=50.0 nm, f=0.296, "
                               "lambda=1070.0 nm (V=0.178)")
    # An array call names its first failing wavelength.
    with pytest.raises(ModeCutoffError, match=r"lambda=800\.0 nm \(V=0\.240\)"):
        effective_index(thin, [400.0, 800.0, 1070.0])
    # The dispersion table reads the series, whose cut-off names its limit.
    with pytest.raises(ModeCutoffError) as info:
        disp.dispersion_table(thin, np.linspace(850.0, 1450.0, 61))
    assert str(info.value) == ("no guided fundamental mode for r=50.0 nm, f=0.296, "
                               "lambda=850.0 nm (guided up to 501.53 nm)")


def test_small_core_series_stops_at_the_guided_limit():
    # No mode beyond about 1945 nm at r = 200 nm: requests below that work,
    # and do not depend on which other wavelengths share the batch.
    small = FiberSegment("small", 200.0, 0.296, 1.0)
    wl = np.array([850.0, 1070.0, 1310.0, 1450.0])
    for fn in (group_slowness, gvd):
        batch = fn(small, wl)
        assert np.isfinite(batch).all()
        assert np.array_equal(batch, [fn(small, float(x)) for x in wl])
        with pytest.raises(ModeCutoffError, match=r"lambda=1990\.0 nm"):
            fn(small, 1990.0)
        with pytest.raises(ModeCutoffError, match=r"lambda=1990\.0 nm"):
            fn(small, [1070.0, 1990.0])
    (zdw,) = find_zdw(small, (850.0, 1450.0))
    assert abs(gvd(small, zdw)) < 1e-9


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _one_solve_per_step_limit(r_nm, fill):
    """The guided-mode limit by a bisection that solves one wavelength a step."""
    lo, hi = disp.WAVELENGTH_WINDOW_NM
    if np.isnan(disp._solve_neff(r_nm, fill, lo)):
        return None
    while hi - lo > disp._CUTOFF_TOL_NM:
        mid = 0.5 * (lo + hi)
        if np.isnan(disp._solve_neff(r_nm, fill, mid)):
            hi = mid
        else:
            lo = mid
    return lo


# Case ids name the mode solved, HE11, so they stay those the cases had
# when a second mode model was parametrized alongside.
@pytest.mark.parametrize("r_nm, limited", [
    pytest.param(200.0, True, id="200.0-he11-True"),
    pytest.param(230.0, True, id="230.0-he11-True"),
    pytest.param(10.0, False, id="10.0-he11-False")])
def test_guided_limit_matches_one_solve_per_step(r_nm, limited, monkeypatch):
    # Four bisection levels per solver call follow the same midpoints as one
    # solve per step: the same limit, bit for bit, in 5 calls instead of 19.
    expected = _one_solve_per_step_limit(r_nm, 0.296)
    solve, calls = disp._solve_neff, []
    monkeypatch.setattr(disp, "_solve_neff", lambda *a: calls.append(a) or solve(*a))
    got = disp._guided_limit_nm(r_nm, 0.296)
    assert (got is None) == (not limited)
    assert got is None or _bits(got) == _bits(expected) and type(got) is float
    assert expected is None or len(calls) == 5


def test_mixed_fiber_batch_matches_one_call_per_fiber():
    # Per-element radii and fills, a fiber without a mode at most wavelengths
    # among them: each element gives the bits of its own fiber's call, NaN
    # where that fiber has no guided mode.
    rng = np.random.default_rng(7)
    fibers = [(948.0, 0.296), (200.0, 0.296), (50.0, 0.296), (1210.0, 0.52)]
    wl = rng.uniform(300.0, 2000.0, (len(fibers), 23))
    r, f = (np.array(x)[:, None] for x in zip(*fibers))
    batch = disp._solve_neff(r, f, wl)
    alone = [disp._solve_neff(rk, fk, wk) for (rk, fk), wk in zip(fibers, wl)]
    assert _bits(batch) == _bits(alone)
    assert np.isnan(batch[2]).any() and not np.isnan(batch[0]).any()
    # The row of a fiber broadcast against its wavelengths, one at a time.
    assert _bits([disp._solve_neff(948.0, 0.296, x) for x in wl[0]]) == _bits(batch[0])


@pytest.mark.parametrize("fiber", [
    pytest.param(FiberSegment("R948", 948.0, 0.296, 1.9), id="R948"),
    pytest.param(FiberSegment("small", 200.0, 0.296, 1.0), id="r200")])
def test_dispersion_table_reads_the_fiber_series_against_the_direct_solves(fiber, monkeypatch):
    # Every column comes from the fiber's k(omega) series, so once the series
    # is built the table solves nothing.  n_eff and k against the direct
    # solves (measured <= 5.8e-15 relative), k1 and beta2 against the series'
    # derivatives; the r = 200 nm series stops at its guided limit.
    wl = np.linspace(850.0, 1450.0, 61)
    n_eff, k = effective_index(fiber, wl), propagation_constant(fiber, wl)
    gvd(fiber, wl)  # builds the series
    solve, solved = disp._solve_neff, []
    monkeypatch.setattr(disp, "_solve_neff", lambda *a: solved.append(a) or solve(*a))
    table = disp.dispersion_table(fiber, wl)
    assert solved == []
    assert list(table) == ["wavelength_nm", "n_eff", "k_rad_per_m", "k1_ps_per_m",
                           "beta2_ps2_per_m"]
    assert _bits(table["wavelength_nm"]) == _bits(wl)
    np.testing.assert_allclose(table["n_eff"], n_eff, rtol=1e-13, atol=0)
    np.testing.assert_allclose(table["k_rad_per_m"], k, rtol=1e-13, atol=0)
    np.testing.assert_allclose(table["k1_ps_per_m"], group_slowness(fiber, wl) * 1e12,
                               rtol=1e-13, atol=0)
    np.testing.assert_allclose(table["beta2_ps2_per_m"], gvd(fiber, wl), rtol=1e-13, atol=0)


@pytest.mark.parametrize("fiber", [
    pytest.param(R948, id="fiber0-he11"),
    pytest.param(FiberSegment("small", 200.0, 0.296, 1.0), id="fiber2-he11")])
def test_series_evaluator_matches_numpy_chebyshev_bit_for_bit(fiber, monkeypatch):
    # The in-house Clenshaw recurrence against numpy's Chebyshev.__call__ of
    # the same coefficients and domain; the r = 200 nm series stops at the
    # guided limit.  Both domain ends are among the points.  Arrays up to
    # _FLOAT_SUM_MAX long are summed one Python float at a time, longer ones
    # as ndarrays, in blocks beyond _SUM_BLOCK.
    series = disp._KSeries(fiber)
    omega = np.linspace(*series._domain, 24)
    assert (omega[0], omega[-1]) == series._domain and omega.size <= disp._FLOAT_SUM_MAX
    long, huge = np.tile(omega, 3), np.tile(omega, 400).reshape(96, 100)
    assert disp._FLOAT_SUM_MAX < long.size and huge.size > disp._SUM_BLOCK
    requests = [omega, omega.reshape(4, 6), long, long.reshape(8, 9), huge] + [
        x(w) for w in omega for x in (float, np.float64)]
    oracle = [Chebyshev(series._terms[order][2], series._domain) for order in range(3)]
    expected = [[_bits(cheb(r)) for r in requests] for cheb in oracle]
    # No evaluation goes through numpy's polynomial class.
    monkeypatch.setattr(Chebyshev, "__call__", lambda *a: pytest.fail("Chebyshev.__call__"))
    for order in range(3):
        assert [_bits(series(r, order)) for r in requests] == expected[order]
        # Each scalar gives the bits of its element of the batch.
        batch = series(omega, order)
        assert [_bits(series(r, order)) for r in requests[5:]] == [
            _bits(x) for x in np.repeat(batch, 2)]
        assert _bits(series(long, order)) == _bits(np.tile(batch, 3))


def test_each_fiber_object_owns_its_series(monkeypatch):
    # The series is built at first use and kept by that fiber object only:
    # equal but distinct fibers compare and hash equal, keep one repr and
    # build one series each; dataclasses.replace starts without one.
    build, builds = disp._KSeries.__init__, []
    monkeypatch.setattr(disp._KSeries, "__init__",
                        lambda self, *args: builds.append(args) or build(self, *args))
    a, b = (FiberSegment("S1", 947.0, 0.296, 0.3) for _ in range(2))
    series = a.series
    assert a.series is series and len(builds) == 1 and "series" not in vars(b)
    assert b.series is not series and len(builds) == 2
    assert repr(b.series._terms) == repr(series._terms)
    assert (a, hash(a), repr(a)) == (b, hash(b), repr(b))
    assert repr(a) == "FiberSegment(label='S1', core_radius_nm=947.0, air_fill=0.296, length_m=0.3)"
    for copy in (dataclasses.replace(a), dataclasses.replace(a, length_m=0.6)):
        assert "series" not in vars(copy)
        assert copy.series is not series
    assert len(builds) == 4
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.series = b.series
    with pytest.raises(dataclasses.FrozenInstanceError):
        del a.series


def test_unresolved_series_is_explicit(monkeypatch):
    # A fresh fiber: R948 may keep the series an earlier test built.
    monkeypatch.setattr(disp, "SERIES_DEGREE", 16)
    with pytest.raises(ModeSolverError, match="unresolved") as info:
        gvd(FiberSegment("R948", 948.0, 0.296, 1.9), 1070.0)
    assert info.value.residual > disp.SERIES_TAIL_TOL


def test_unconverged_root_is_explicit(monkeypatch):
    # The mode solver's Brent polish, capped at one iteration.
    brent = disp._brentq
    monkeypatch.setattr(disp, "_brentq", lambda *a, **kw: brent(*a, **kw, maxiter=1))
    with pytest.raises(ModeSolverError, match=r"lambda=1000\.0 nm") as info:
        effective_index(R948, [1000.0, 1070.0])
    assert np.isfinite(info.value.residual)


def test_nan_residual_in_the_polish_is_explicit(monkeypatch):
    # Residuals that turn NaN inside the brackets stop the mode solver's
    # polish: it raises instead of returning a NaN n_eff.
    brent = disp._brentq

    def nan_inside(f, a, b, **kw):
        calls = []

        def g(x, *args):  # the bracket ends as they are, NaN after
            calls.append(x)
            return f(x, *args) if len(calls) == 1 else np.full_like(x, np.nan)

        return brent(g, a, b, **kw)

    monkeypatch.setattr(disp, "_brentq", nan_inside)
    with pytest.raises(ModeSolverError, match=r"lambda=1000\.0 nm"):
        effective_index(R948, [1000.0, 1070.0])


def _model_samples(r_nm, fill, wavelengths):
    seg = FiberSegment("gen", r_nm, fill, 1.0)
    return [GvdSample(float(w), gvd(seg, float(w))) for w in wavelengths]


def test_fit_round_trip_noiseless():
    samples = _model_samples(948.0, 0.296, np.linspace(900.0, 1200.0, 16))
    fit = fit_structure(samples, (940.0, 0.28))
    assert fit.core_radius_nm == pytest.approx(948.0, abs=1.0)
    assert fit.air_fill == pytest.approx(0.296, abs=0.002)
    assert fit.residual < 1e-8


def test_fit_round_trip_noisy():
    rng = np.random.default_rng(12345)
    clean = _model_samples(948.0, 0.296, np.linspace(900.0, 1200.0, 21))
    noisy = [GvdSample(s.wavelength_nm, s.beta2_ps2_per_m * (1 + 0.02 * rng.standard_normal()))
             for s in clean]
    fit = fit_structure(noisy, (940.0, 0.28))
    assert fit.core_radius_nm == pytest.approx(948.0, abs=2.0)


def test_fit_input_validation():
    good = _model_samples(948.0, 0.296, np.linspace(900.0, 1200.0, 16))
    with pytest.raises(ValueError, match="at least 6"):
        fit_structure(good[:5], (940.0, 0.28))
    one_sided = [s for s in good if s.beta2_ps2_per_m > 0]
    with pytest.raises(ValueError, match="zero-dispersion"):
        fit_structure(one_sided * 2, (940.0, 0.28))
    with pytest.raises(ValueError, match="bounds"):
        fit_structure(good, (200.0, 0.28))


def test_gvd_csv_round_trip(tmp_path):
    path = tmp_path / "gvd.csv"
    path.write_text("wavelength_nm,beta2_ps2_per_m\n900,0.002\n950,-0.001\n")
    samples = read_gvd_csv(path)
    assert len(samples) == 2
    assert samples[1].beta2_ps2_per_m == -0.001
    bad = tmp_path / "bad.csv"
    bad.write_text("lambda,beta2\n900,0.002\n")
    with pytest.raises(ValueError, match="header"):
        read_gvd_csv(bad)


def test_segment_validation():
    with pytest.raises(ValueError):
        FiberSegment("x", -1.0, 0.3, 1.0)
    with pytest.raises(ValueError):
        FiberSegment("x", 900.0, 1.2, 1.0)
    with pytest.raises(ValueError):
        FiberSegment("x", 900.0, 0.3, 0.0)
