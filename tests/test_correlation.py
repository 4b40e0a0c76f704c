"""Intensity correlation g2, Schmidt spectrum, purity, and their invariants."""

import numpy as np
import pytest

from sfwm import (
    FrequencyGrid,
    JsaGrid,
    PumpSpec,
    build_jsa,
    g2_quadrature,
    g2_streamed,
    g2_table,
    marginal,
    schmidt_decompose,
    streamed_marginals,
)
from sfwm.spectra import ZeroJsaError

from conftest import (
    G2_REFERENCE,
    PUMP_NM,
    TEN_CONFIGURATIONS,
    catalog_assembly,
)


def gaussian_jsa(ns=96, ni=80, sigma_plus=1.0, sigma_minus=1.0, pump=None, half_width=4.0):
    """Synthetic double-Gaussian amplitude on a unit-scale grid over
    [-half_width, half_width] on both axes."""
    pump = pump or PumpSpec(PUMP_NM, 2.0)
    s = np.linspace(-half_width, half_width, ns)
    i = np.linspace(-half_width, half_width, ni)
    grid = FrequencyGrid(s * 1e12 + 2e15, i * 1e12 + 2e15)
    S, I = np.meshgrid(s, i, indexing="ij")
    amp = np.exp(-((S + I) ** 2) / (4 * sigma_plus**2)
                 - ((S - I) ** 2) / (4 * sigma_minus**2)).astype(complex)
    from sfwm.spectra import AssemblySegment, AssemblySpec
    from sfwm.phasematch import PhaseMatchPoint
    asm = AssemblySpec(
        (AssemblySegment(0.3, PhaseMatchPoint.from_signal_and_angle(PUMP_NM, 1413.6, 3.2, 0.002)),),
        "linearized",
    )
    return JsaGrid(grid, amp, pump, asm)


def outer_product_jsa():
    jsa = gaussian_jsa()
    s = np.exp(-np.linspace(-3, 3, jsa.grid.signal.size) ** 2)
    i = np.exp(-0.5 * np.linspace(-2, 2, jsa.grid.idler.size) ** 2)
    return JsaGrid(jsa.grid, np.outer(s, i).astype(complex), jsa.pump, jsa.assembly)


def svd_purity(jsa):
    """P = sum sigma^4 / (sum sigma^2)^2 of the SVD's Schmidt spectrum: an
    oracle that shares no step with the Gram."""
    s2 = schmidt_decompose(jsa) ** 2
    return float((s2**2).sum()) / float(s2.sum()) ** 2


def test_factorable_amplitude_reaches_two():
    jsa = outer_product_jsa()
    assert g2_quadrature(jsa) == pytest.approx(2.0, abs=1e-6)
    spectrum = schmidt_decompose(jsa)
    assert spectrum[1] < 1e-10 * spectrum[0]
    assert 1.0 / svd_purity(jsa) == pytest.approx(1.0, abs=1e-9)


def test_schmidt_spectrum_is_a_descending_non_negative_vector(tall_and_square, rng):
    base = gaussian_jsa(ns=48, ni=40)
    noise = JsaGrid(base.grid, rng.standard_normal((48, 40)) + 1j * rng.standard_normal((48, 40)),
                    base.pump, base.assembly)
    for jsa in (*tall_and_square, outer_product_jsa(), noise):
        spectrum = schmidt_decompose(jsa)
        assert spectrum.shape == (min(jsa.amplitude.shape),) and spectrum.dtype == float
        assert np.all(spectrum >= 0) and np.all(np.diff(spectrum) <= 0)


def test_strongly_correlated_amplitude_approaches_one():
    jsa = gaussian_jsa(ns=256, ni=256, sigma_plus=0.02, sigma_minus=2.0)
    g2 = g2_quadrature(jsa)
    assert 1.0 < g2 < 1.1


@pytest.mark.parametrize("a, b", [(1.0, 1.0), (1.0, 3.0), (2.0, 0.5), (1.0, 10.0)])
def test_double_gaussian_matches_closed_form(a, b):
    # For exp(-(s+i)^2/(4 a^2) - (s-i)^2/(4 b^2)) the purity is 2ab/(a^2+b^2).
    # On this 257 x 401 grid over +-8 max(a, b) the Gram quadrature met it to
    # <= 4.5e-16 and the SVD to <= 1.2e-16 (square grids of 257-801 points:
    # <= 2.3e-16); 1e-14 leaves room for BLAS builds that sum in another order.
    jsa = gaussian_jsa(ns=257, ni=401, sigma_plus=a, sigma_minus=b, half_width=8 * max(a, b))
    purity = 2 * a * b / (a**2 + b**2)
    assert g2_quadrature(jsa) - 1.0 == pytest.approx(purity, abs=1e-14)
    assert svd_purity(jsa) == pytest.approx(purity, abs=1e-14)


def test_paths_agree_and_bounds_hold_on_random_amplitudes(rng):
    base = gaussian_jsa(ns=48, ni=40)
    for _ in range(200):
        amp = (rng.standard_normal((48, 40)) + 1j * rng.standard_normal((48, 40)))
        smooth = rng.uniform(0.5, 3.0)
        amp *= np.exp(-np.linspace(-1, 1, 48)[:, None] ** 2 * smooth)
        jsa = JsaGrid(base.grid, amp, base.pump, base.assembly)
        quad = g2_quadrature(jsa)
        assert 1.0 < quad <= 2.0 + 1e-12
        assert abs(quad - (1.0 + svd_purity(jsa))) < 1e-8


def test_scale_invariance():
    jsa = gaussian_jsa(sigma_plus=0.4)
    g2 = g2_quadrature(jsa)
    spectrum, purity = schmidt_decompose(jsa), svd_purity(jsa)
    # A power of two leaves every bit unchanged; any other factor, however
    # large or small, agrees to 1e-12.
    for factor in (2.0**400, 2.0**-400, 2.5 - 1.3j, 1e-100, 1e80, 1e150):
        scaled = JsaGrid(jsa.grid, jsa.amplitude * factor, jsa.pump, jsa.assembly)
        if factor in (2.0**400, 2.0**-400):
            assert g2_quadrature(scaled) == g2
            assert np.array_equal(schmidt_decompose(scaled), spectrum)
        else:
            assert g2_quadrature(scaled) == pytest.approx(g2, rel=1e-12), factor
            assert svd_purity(scaled) == pytest.approx(purity, rel=1e-12), factor


def _transposed(jsa):
    """The same amplitude with the roles of the two axes swapped."""
    grid = FrequencyGrid(jsa.grid.idler, jsa.grid.signal)
    return JsaGrid(grid, jsa.amplitude.T, jsa.pump, jsa.assembly)


@pytest.fixture(scope="module")
def tall_and_square(pump_2nm):
    tall = build_jsa(catalog_assembly([("S1", 0.3), ("S2", 0.3), ("S3", 0.3), ("S4", 0.3)]),
                     pump_2nm)
    square = build_jsa(catalog_assembly([("S2", 0.3)]), pump_2nm)
    assert tall.amplitude.shape == (1378, 512)
    assert square.amplitude.shape == (512, 512)
    return tall, square


def test_gram_matches_svd_on_tall_wide_and_square_grids(tall_and_square):
    tall, square = tall_and_square
    for jsa in (tall, _transposed(tall), square):
        assert g2_quadrature(jsa) == pytest.approx(1.0 + svd_purity(jsa), rel=1e-12)


def full_side_uncut(jsa):
    """The quadrature formula with the trapezoid weights in a weighted copy and
    the Gram on the signal side, whatever its size."""
    w_s, w_i = jsa.grid.trapezoid_weights()
    a = jsa.amplitude * np.sqrt(w_s)[:, None] * np.sqrt(w_i)[None, :]
    gram = a @ a.conj().T
    num = float(np.sum(np.abs(gram) ** 2))
    den = float(np.sum(np.abs(a) ** 2)) ** 2
    return 1.0 + num / den


def test_gram_matches_weighted_copy_formula(tall_and_square):
    # The end correction, the edge factors and the smaller side reorder the
    # rounding only: a few ulp of g2 at most (1.6e-16 seen on the tall grid).
    tall, square = tall_and_square
    for jsa in (tall, _transposed(tall), square):
        assert g2_quadrature(jsa) == pytest.approx(full_side_uncut(jsa), rel=1e-15, abs=0)


def _counted_zherk(monkeypatch):
    """The shapes of the operands that the Gram passes to _scipy.zherk, in call order."""
    from sfwm import _scipy, correlation

    shapes = []

    def counted(alpha, a, *args):
        shapes.append(a.shape)
        return _scipy.zherk(alpha, a, *args)

    monkeypatch.setattr(correlation, "zherk", counted)
    return shapes


def test_gram_is_one_zherk_and_a_rank_2_update(tall_and_square, monkeypatch):
    shapes = _counted_zherk(monkeypatch)
    tall, square = tall_and_square
    for jsa in (tall, _transposed(tall), square):
        shapes.clear()
        g2_quadrature(jsa)
        # The whole amplitude once, then the two end rows (columns) of the
        # larger axis: a rank-2 update of the 512x512 Gram.
        assert len(shapes) == 2 and shapes[0] == jsa.amplitude.T.shape
        assert sorted(shapes[1]) == [2, 512]


def test_gram_rescales_amplitudes_outside_its_range():
    jsa = gaussian_jsa(sigma_plus=0.4)
    g2 = g2_quadrature(jsa)
    # The Gram of these would overflow or underflow where it stands.
    for factor in (2.0**600, 2.0**-600, 1e300, 1e-300):
        scaled = JsaGrid(jsa.grid, jsa.amplitude * factor, jsa.pump, jsa.assembly)
        peak = float(np.max(np.abs(scaled.amplitude)))
        assert not 2.0**-400 < peak < 2.0**480, factor
        assert g2_quadrature(scaled) == pytest.approx(g2, rel=1e-15, abs=0), factor


def test_zero_amplitude_rejected():
    jsa = gaussian_jsa()
    dead = JsaGrid(jsa.grid, np.zeros_like(jsa.amplitude), jsa.pump, jsa.assembly)
    with pytest.raises(ZeroJsaError):
        g2_quadrature(dead)


@pytest.fixture(scope="module")
def reference_rows():
    configurations = [(name, catalog_assembly(parts)) for name, parts in TEN_CONFIGURATIONS]
    pumps = [PumpSpec(PUMP_NM, 2.0), PumpSpec(PUMP_NM, 5.0)]
    return g2_table(configurations, pumps)


def test_reference_table_reproduced(reference_rows):
    assert len(reference_rows) == 20
    parts = dict(TEN_CONFIGURATIONS)
    for row in reference_rows:
        ref = G2_REFERENCE[(row.configuration, row.pump_fwhm_nm)]
        assert row.g2 == pytest.approx(ref, abs=0.05), row.configuration
        assert row.g2 == pytest.approx(1.0 + row.purity, rel=1e-8)
        assert row.schmidt_number == pytest.approx(1.0 / row.purity, rel=1e-12)
        # The rows come from the Gram path alone; the SVD is the oracle.
        if row.configuration in ("S1+S2", "S1+S4+S2+S3", "hom_1.5"):
            jsa = build_jsa(catalog_assembly(parts[row.configuration]),
                            PumpSpec(PUMP_NM, row.pump_fwhm_nm))
            oracle = svd_purity(jsa)
            assert row.purity == pytest.approx(oracle, rel=1e-12), row.configuration


def test_g2_grows_with_pump_bandwidth(reference_rows):
    by_config = {}
    for row in reference_rows:
        by_config.setdefault(row.configuration, {})[row.pump_fwhm_nm] = row.g2
    for name, vals in by_config.items():
        assert vals[5.0] > vals[2.0], name


def test_g2_grows_with_uniform_length(reference_rows):
    homo = {row.total_length_m: row.g2 for row in reference_rows
            if row.configuration.startswith("hom_") and row.pump_fwhm_nm == 2.0}
    lengths = sorted(homo)
    assert lengths == [0.3, 0.6, 0.9, 1.5]
    values = [homo[L] for L in lengths]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_walkoff_sign_flip_barely_moves_g2():
    pump = PumpSpec(PUMP_NM, 2.0)
    for name, parts in TEN_CONFIGURATIONS:
        plus = catalog_assembly(parts, tau_i_sign=+1.0)
        minus = catalog_assembly(parts, tau_i_sign=-1.0)
        g_plus = g2_quadrature(build_jsa(plus, pump, ns=320, ni=320))
        g_minus = g2_quadrature(build_jsa(minus, pump, ns=320, ni=320))
        assert abs(g_plus - g_minus) < 0.02, name


# ---------------------------------------------------------------------------
# the streamed evaluator: the amplitude in row blocks, never stored




def test_streamed_g2_matches_stored_amplitude_on_the_catalog(reference_rows):
    # g2_table streams every row; the oracle stores the amplitude and runs
    # one zherk.  The block sums reorder the rounding only.
    parts = dict(TEN_CONFIGURATIONS)
    for row in reference_rows:
        jsa = build_jsa(catalog_assembly(parts[row.configuration]),
                        PumpSpec(PUMP_NM, row.pump_fwhm_nm))
        assert row.g2 == pytest.approx(g2_quadrature(jsa), rel=1e-15, abs=0), row.configuration


def test_streamed_g2_adds_256_row_blocks_into_one_gram(tall_and_square, monkeypatch):
    from sfwm import correlation

    tall, square = tall_and_square
    expected = [g2_quadrature(jsa) for jsa in (tall, square)]
    shapes = _counted_zherk(monkeypatch)
    park = correlation.park_openblas
    monkeypatch.setattr(correlation, "park_openblas", lambda: (shapes.append("park"), park()))
    for jsa, g2, blocks in ((tall, expected[0], [256] * 5 + [98]),
                            (square, expected[1], [256, 256])):
        shapes.clear()
        streamed = g2_streamed(jsa.assembly, jsa.pump, jsa.grid)
        # numpy's pool is parked before each next block's fill, and at the end.
        calls = [call for rows in blocks[:-1] for call in ((512, rows), "park")]
        assert shapes == calls + [(512, blocks[-1]), (512, 2), "park"]
        assert isinstance(streamed, float)
        assert streamed == pytest.approx(g2, rel=1e-15, abs=0)


def test_streamed_g2_on_a_wide_grid_sums_the_idler_axis(pump_2nm, monkeypatch):
    # Fewer signal rows than idler columns: the Gram is on the signal side,
    # so the amplitude comes as one block.
    asm = catalog_assembly([("S1", 0.3), ("S2", 0.3)])
    grid = FrequencyGrid(np.linspace(1.330e15, 1.347e15, 300), np.linspace(2.170e15, 2.205e15, 700))
    jsa = build_jsa(asm, pump_2nm, grid=grid)
    shapes = _counted_zherk(monkeypatch)
    g2 = g2_streamed(asm, pump_2nm, grid)
    assert shapes == [(700, 300), (2, 300)]
    assert 1.0 < g2 < 2.0
    assert g2 == pytest.approx(g2_quadrature(jsa), rel=1e-15, abs=0)
    # The planner's spectrum pass sums the same grid in row blocks, to the same bits.
    spectrum = streamed_marginals(asm, pump_2nm, grid)["signal"]
    assert np.array_equal(spectrum.values, marginal(jsa, "signal").values)


def test_streamed_g2_on_a_tall_grid_with_ragged_blocks(pump_2nm, monkeypatch):
    # 300 columns: fill steps of 54 rows, Gram blocks of 8 steps (432 rows),
    # and a last block of 272 rows that ends in a 2-row step.
    asm = catalog_assembly([("S1", 0.3), ("S2", 0.3)])
    auto = build_jsa(asm, pump_2nm).grid
    grid = FrequencyGrid(np.linspace(auto.signal[0], auto.signal[-1], 2000),
                         np.linspace(auto.idler[0], auto.idler[-1], 300))
    jsa = build_jsa(asm, pump_2nm, grid=grid)
    shapes = _counted_zherk(monkeypatch)
    g2 = g2_streamed(asm, pump_2nm, grid)
    assert shapes == [(300, 432)] * 4 + [(300, 272), (300, 2)]
    assert g2 == pytest.approx(g2_quadrature(jsa), rel=1e-15, abs=0)
    spectrum = streamed_marginals(asm, pump_2nm, grid)["signal"]
    expected = marginal(jsa, "signal").values
    assert np.max(np.abs(spectrum.values - expected)) <= 1e-15 * expected.max()


def test_streamed_g2_rescales_outside_gram_range(tall_and_square, monkeypatch):
    # A range that holds no Gram forces the fallback on both paths: a pass
    # for the largest part, then the Gram of the blocks at a unit peak.
    from sfwm import correlation

    tall, square = tall_and_square
    expected = [g2_quadrature(jsa) for jsa in (tall, square)]
    monkeypatch.setattr(correlation, "GRAM_RANGE", (2.0 ** 1020, 2.0 ** 1021))
    shapes = _counted_zherk(monkeypatch)
    for jsa, g2, blocks in ((tall, expected[0], 6), (square, expected[1], 2)):
        shapes.clear()
        streamed = g2_streamed(jsa.assembly, jsa.pump, jsa.grid)
        assert len(shapes) == 2 * (blocks + 1)
        assert streamed == pytest.approx(g2, rel=1e-15, abs=0)
        assert g2_quadrature(jsa) == pytest.approx(g2, rel=1e-15, abs=0)


def test_streamed_g2_refuses_zero_and_non_finite_amplitudes(pump_2nm, monkeypatch):
    from sfwm import spectra

    asm = catalog_assembly([("S2", 0.3)])
    grid = build_jsa(asm, pump_2nm).grid
    # The pump envelope flushes to 0 this far from energy conservation.
    far = FrequencyGrid(grid.signal, grid.idler + 5e14)
    with pytest.raises(ZeroJsaError, match="identically zero"):
        g2_streamed(asm, pump_2nm, far)
    real = spectra.pump_envelope

    def poisoned(pump, omega_s, omega_i):
        env = real(pump, omega_s, omega_i)
        return np.where(omega_s >= grid.signal[300], np.nan, env)

    monkeypatch.setattr(spectra, "pump_envelope", poisoned)
    with pytest.raises(ValueError, match="amplitude must be finite everywhere"):
        g2_streamed(asm, pump_2nm, grid)


def test_streamed_marginal_matches_marginal(tall_and_square):
    # The spectrum pass of the marginal subcommand and of a plan's result.
    tall, square = tall_and_square
    for jsa in (tall, square):
        streamed = streamed_marginals(jsa.assembly, jsa.pump, jsa.grid)
        for axis in ("signal", "idler"):
            expected = marginal(jsa, axis)
            assert np.array_equal(streamed[axis].axis, expected.axis)
            values = streamed[axis].values
            if axis == "signal" and jsa.amplitude.size <= 5e5:
                # Below ~5e5 cells numpy's product of the stored intensity is
                # one thread, and each row's sum has the same bits in a block.
                assert np.array_equal(values, expected.values)
            else:
                # Above it the stored product may run threaded; the idler sum
                # adds the blocks in a different order.
                diff = np.max(np.abs(values - expected.values))
                assert diff <= 1e-15 * expected.values.max(), (axis, jsa.amplitude.shape)


_MARGINAL_BITS = """
import hashlib, sfwm
from sfwm.spectra import streamed_marginals
assembly = sfwm.AssemblySpec(tuple(
    sfwm.AssemblySegment(0.3, sfwm.PhaseMatchPoint.from_signal_and_angle(1070.0, *seg))
    for seg in ((1409.9, 3.2, 0.004), (1413.6, 3.2, 0.002),
                (1417.3, 3.3, 0.001), (1421.0, 3.4, 0.004))))
pump = sfwm.PumpSpec(1070.0, 2.0)
sums = streamed_marginals(assembly, pump, sfwm.jsa_grid(assembly, pump))
print(hashlib.sha256(sums["signal"].values.tobytes() + sums["idler"].values.tobytes()).hexdigest())
"""


def test_streamed_marginals_keep_their_bits_at_any_blas_thread_count():
    # A 1378x512 amplitude, where numpy runs the stored product threaded;
    # each 256-row block stays below that size.
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run([sys.executable, "-c", _MARGINAL_BITS], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert digests[0] == digests[1]


def test_marginal_subcommand_never_holds_an_amplitude(tall_and_square, tmp_path):
    import tracemalloc
    from pathlib import Path

    from sfwm import cli

    config = Path(__file__).resolve().parents[1] / "configs" / "reordered_segments.json"
    assert cli.run("marginal", config, tmp_path / "warm") == 0
    tracemalloc.start()
    try:
        assert cli.run("marginal", config, tmp_path / "out") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Two 1378x512 JSAs: 3.9 MiB seen, against 22.8 MiB when each was stored.
    assert peak < tall_and_square[0].amplitude.nbytes


def test_streamed_marginals_refuse_a_non_finite_amplitude(pump_2nm, monkeypatch):
    from sfwm import spectra

    asm = catalog_assembly([("S2", 0.3)])
    grid = build_jsa(asm, pump_2nm).grid
    real = spectra.pump_envelope

    def poisoned(pump, omega_s, omega_i):
        return np.where(omega_s >= grid.signal[300], np.nan, real(pump, omega_s, omega_i))

    monkeypatch.setattr(spectra, "pump_envelope", poisoned)
    with pytest.raises(ValueError, match="amplitude must be finite everywhere"):
        spectra.streamed_marginals(asm, pump_2nm, grid)


def test_streamed_g2_never_holds_the_amplitude(tall_and_square):
    import tracemalloc

    tall, _ = tall_and_square
    g2_streamed(tall.assembly, tall.pump, tall.grid)  # one-time set-up stays out of the peak
    tracemalloc.start()
    try:
        g2_streamed(tall.assembly, tall.pump, tall.grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < tall.amplitude.nbytes  # 10.8 MiB at 1378x512 (7.2 MiB seen)


def test_streamed_full_model_g2_matches_the_stored_amplitude_without_holding_it(
        tall_and_square):
    # The full model streams through the same row blocks: every cell is the
    # stored one, and the block sums reorder the Gram's rounding only.
    import dataclasses
    import tracemalloc

    tall, _ = tall_and_square
    full = dataclasses.replace(tall.assembly, model_mode="full")
    stored = build_jsa(full, tall.pump, tall.grid)
    g2 = g2_streamed(full, tall.pump, tall.grid)
    assert g2 == pytest.approx(g2_quadrature(stored), rel=1e-15, abs=0)
    del stored
    tracemalloc.start()
    try:
        g2_streamed(full, tall.pump, tall.grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < tall.amplitude.nbytes  # 10.8 MiB at 1378x512 (7.3 MiB seen; 53.9 in one block)


# ---------------------------------------------------------------------------
# an independent oracle: the asymmetric group-velocity-matched (AGVM) limit


def _agvm_assembly(parts):
    """Catalog segments at contour angle 0, so tau_i = 0 on every one."""
    from sfwm import AssemblySegment, AssemblySpec, PhaseMatchPoint
    from conftest import CATALOG

    return AssemblySpec(tuple(
        AssemblySegment(length, PhaseMatchPoint.from_signal_and_angle(
            PUMP_NM, CATALOG[label][1], CATALOG[label][2], 0.0))
        for label, length in parts))


def _agvm_purity(assembly, pump, grid):
    """Purity of exp(-(ds + di)^2 / 4 sigma_p^2) g(w_s), g = phi_signal, with the
    idler integral done in closed form: a 1-D quadrature on the signal nodes,
    sum q_s q_s' exp(-(s - s')^2 / 4 sigma_p^2) / (sum q)^2, q = |g|^2 w_s."""
    from sfwm import phi_signal

    q = np.abs(phi_signal(assembly, grid.signal)) ** 2 * grid.trapezoid_weights()[0]
    d = grid.signal[:, None] - grid.signal[None, :]
    return float(q @ np.exp(-d**2 / (4.0 * pump.sigma_omega**2)) @ q) / float(q.sum()) ** 2


@pytest.mark.parametrize("parts", [
    [("S1", 0.3)],
    [("S1", 0.3), ("S2", 0.3)],
    [("S1", 0.3), ("S2", 0.3), ("S3", 0.3)],
    [("S1", 0.5), ("S2", 1.0)],
], ids=["S1", "S1+S2", "S1+S2+S3", "S1_0.5+S2_1.0"])
def test_g2_matches_the_agvm_closed_form(parts):
    # The idler pad truncates the pump envelope: up to 5.8e-9 at the default
    # 4 sigma_p, and down to rounding at 8 sigma_p (1.0e-14 seen).
    from sfwm import jsa_grid

    assembly = _agvm_assembly(parts)
    for fwhm in (0.5, 2.0, 5.0):
        pump = PumpSpec(PUMP_NM, fwhm)
        for pad, tol in ((4.0, 1e-8), (8.0, 1e-13)):
            grid = jsa_grid(assembly, pump, pad_sigmas=pad)
            expected = 1.0 + _agvm_purity(assembly, pump, grid)
            assert g2_streamed(assembly, pump, grid) == pytest.approx(expected, rel=0, abs=tol)
            assert g2_quadrature(build_jsa(assembly, pump, grid)) == pytest.approx(
                expected, rel=0, abs=tol)
