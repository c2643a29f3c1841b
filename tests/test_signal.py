import tracemalloc

import numpy as np
import pytest

from bilop.signal import (
    bump_bandwidth,
    make_band_limited_bump,
    CoronaMask,
    EmptyRegionWarning,
    Interval,
    SampledFunction,
    Spectrum,
    corona,
    corona_count,
    corona_masks,
    dft_forward,
    dft_inverse,
    hardy_littlewood_max,
    lp_norm,
    make_bump,
    spectral_derivative,
)


def grid(n=64, period=16.0, origin=None):
    if origin is None:
        origin = -period / 2
    return SampledFunction.zeros(origin, period / n, n)


def random_function(rng, n=64, period=16.0):
    g = grid(n, period)
    vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return g.with_values(vals)


def naive_dft(f):
    """O(n^2) exponential-sum oracle for the forward transform."""
    n = f.n
    dxi = 1.0 / (n * f.spacing)
    xi = (np.arange(n) - n // 2) * dxi
    x = f.x
    kernel = np.exp(-2j * np.pi * np.outer(xi, x))
    return Spectrum(xi[0], dxi, f.spacing * kernel @ f.values)


class TestInterval:
    def test_dilation_keeps_center(self):
        I = Interval(1.5, 2.0)
        J = I.dilate(3.0)
        assert J.center == 1.5 and J.length == 6.0

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValueError):
            Interval(0.0, 0.0)

    def test_endpoint_roundtrip(self):
        I = Interval.from_endpoints(-1.0, 3.0)
        assert I.left == -1.0 and I.right == 3.0


class TestDft:
    def test_zero_maps_to_zero(self):
        f = grid()
        assert np.all(dft_forward(f).values == 0)

    def test_constant_concentrates_at_zero_bin(self):
        f = grid().with_values(np.full(64, 2.5 + 0j))
        spec = dft_forward(f)
        k0 = np.argmin(np.abs(spec.xi))
        mass = np.abs(spec.values)
        assert mass[k0] > 0
        others = np.delete(mass, k0)
        assert np.all(others < 1e-12 * mass[k0])

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        f = random_function(rng, n=32)
        spec = dft_forward(f)
        oracle = naive_dft(f)
        err = np.max(np.abs(spec.values - oracle.values)) / np.max(np.abs(oracle.values))
        assert err <= 1e-12

    def test_roundtrip(self):
        rng = np.random.default_rng(8)
        f = random_function(rng)
        back = dft_inverse(dft_forward(f), f.origin)
        err = np.max(np.abs(back.values - f.values)) / np.max(np.abs(f.values))
        assert err <= 1e-12

    def test_parseval(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            f = random_function(rng)
            a = lp_norm(f, 2)
            b = lp_norm(dft_forward(f), 2)
            assert abs(a - b) <= 1e-10 * a

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            SampledFunction(0.0, 0.1, np.zeros(100, dtype=complex))


class TestLpNorm:
    def test_unit_constant(self):
        n = 64
        g = SampledFunction.zeros(0.0, 1.0 / n, n).with_values(np.ones(n, dtype=complex))
        assert abs(lp_norm(g, 2) - 1.0) < 1e-12
        assert abs(lp_norm(g, np.inf) - 1.0) < 1e-15

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(10)
        f = random_function(rng)
        p = 3.0
        direct = (np.sum(np.abs(f.values) ** p) * f.spacing) ** (1 / p)
        assert abs(lp_norm(f, p) - direct) <= 1e-12 * direct

    def test_empty_region_flags(self):
        f = grid()
        with pytest.warns(EmptyRegionWarning):
            out = lp_norm(f, 2, np.zeros(f.n, dtype=bool))
        assert out == 0.0

    def test_bad_p(self):
        with pytest.raises(ValueError):
            lp_norm(grid(), 0.0)


class TestCorona:
    def test_k0_equals_2I_mask(self):
        g = grid(128, 32.0)
        I = Interval.from_endpoints(0.0, 1.0)
        c0 = corona(I, 0, g)
        assert np.array_equal(c0.mask, I.dilate(2.0).mask(g))

    def test_k1_direct_inequality(self):
        g = grid(128, 32.0)
        I = Interval.from_endpoints(0.0, 1.0)
        c1 = corona(I, 1, g)
        d = np.abs(g.x - 0.5)
        assert np.array_equal(c1.mask, (d >= 1.0) & (d < 3.0))

    def test_partition_disjoint_and_covering(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(2 ** rng.integers(5, 8))
            period = float(rng.uniform(4, 64))
            g = grid(n, period, origin=float(rng.uniform(-10, 10)))
            I = Interval(float(rng.uniform(-3, 3)), float(rng.uniform(0.1, 4.0)))
            masks = corona_masks(I, g)
            total = np.zeros(n, dtype=int)
            for m in masks:
                total += m.mask.astype(int)
            assert np.all(total == 1)

    def test_cover_radius(self):
        g = grid(256, 64.0)
        I = Interval(0.0, 1.0)
        K = corona_count(I, g)
        union = np.zeros(g.n, dtype=bool)
        for k in range(K):
            union |= corona(I, k, g).mask
        within = np.abs(g.x - I.center) < (2.0**K - 1) * I.length
        assert np.all(union[within])

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            corona(Interval(0, 1), -1, grid())


def brute_force_hl(f):
    """Triple-loop all-subintervals oracle (prefix-sum averages)."""
    a = np.abs(f.values)
    n = a.size
    prefix = np.concatenate([[0.0], np.cumsum(a)])
    out = np.zeros(n)
    for i in range(n):
        best = 0.0
        for lo in range(i + 1):
            for hi in range(i, n):
                best = max(best, (prefix[hi + 1] - prefix[lo]) / (hi - lo + 1))
        out[i] = best
    return out


class TestHardyLittlewood:
    def test_constant(self):
        f = grid(32).with_values(np.full(32, -3.0 + 0j))
        m = hardy_littlewood_max(f)
        assert np.allclose(m.values.real, 3.0) and np.allclose(m.values.imag, 0.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(12)
        f = random_function(rng, n=64)
        edges = np.zeros(64, dtype=complex)
        edges[0], edges[-1] = 5.0, -2.0j  # spikes at both ends, zeros between
        runs = f.values.copy()
        runs[3:30] = 0.0
        runs[40:63] = 0.0
        for g in (f, f.with_values(edges), f.with_values(runs)):
            m = hardy_littlewood_max(g)
            oracle = brute_force_hl(g)
            assert np.max(np.abs(m.values.real - oracle)) == 0.0

    def test_linear_memory(self):
        f = random_function(np.random.default_rng(15), n=2048)
        tracemalloc.start()
        try:
            hardy_littlewood_max(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6  # three n x n tables would take about 100 MB

    def test_single_cell_decay(self):
        n = 128
        g = grid(n, 16.0)
        vals = np.zeros(n, dtype=complex)
        vals[n // 2] = 1.0
        m = hardy_littlewood_max(g.with_values(vals)).values.real
        # window [j, n/2] has average 1/(n/2 - j + 1): inverse-distance decay
        j = n // 2 - 20
        expected = 1.0 / 21
        assert abs(m[j] - expected) < 1e-14

    def test_dominates_function(self):
        rng = np.random.default_rng(13)
        f = random_function(rng)
        m = hardy_littlewood_max(f)
        assert np.all(m.values.real >= np.abs(f.values) - 1e-14)

    def test_sublinear(self):
        rng = np.random.default_rng(14)
        f = random_function(rng)
        h = random_function(rng)
        lhs = hardy_littlewood_max(f.with_values(f.values + h.values)).values.real
        rhs = hardy_littlewood_max(f).values.real + hardy_littlewood_max(h).values.real
        assert np.all(lhs <= rhs + 1e-12)


class TestSpectralDerivative:
    def test_constant_derivative_zero(self):
        f = grid().with_values(np.ones(64, dtype=complex))
        d = spectral_derivative(f, 1)
        assert np.max(np.abs(d.values)) < 1e-12

    def test_sine_eigenfunction(self):
        g = grid(128, 8.0)
        f = g.with_values(np.sin(2 * np.pi * g.x / g.period).astype(complex))
        d2 = spectral_derivative(f, 2)
        expected = -((2 * np.pi / g.period) ** 2) * f.values
        assert np.max(np.abs(d2.values - expected)) < 1e-10

    def test_bump_matches_finite_difference(self):
        g = grid(512, 16.0)
        f = make_bump(0.0, 3.0, g)
        d = spectral_derivative(f, 1)
        fd = (np.roll(f.values, -1) - np.roll(f.values, 1)) / (2 * g.spacing)
        err = np.max(np.abs(d.values - fd))
        assert err < 10 * g.spacing**2 * np.max(np.abs(f.values)) / g.spacing  # O(h^2) scale
        # tighten: compare against 4th-order difference to confirm convergence order
        fd4 = (
            -np.roll(f.values, -2)
            + 8 * np.roll(f.values, -1)
            - 8 * np.roll(f.values, 1)
            + np.roll(f.values, 2)
        ) / (12 * g.spacing)
        assert np.max(np.abs(d.values - fd4)) < np.max(np.abs(d.values - fd))


class TestMakeBump:
    def test_unit_norm(self):
        g = grid(256, 16.0)
        b = make_bump(0.5, 2.0, g)
        assert abs(lp_norm(b, 2) - 1.0) <= 1e-10

    def test_translation_covariance(self):
        g = grid(256, 16.0)
        shift_cells = 5
        a = make_bump(0.0, 2.0, g)
        b = make_bump(shift_cells * g.spacing, 2.0, g)
        assert np.allclose(np.roll(a.values, shift_cells), b.values, atol=1e-12)

    def test_spectral_tail_past_declared_bandwidth(self):
        g = grid(8192, 64.0)
        width = 4.0
        b = make_bump(0.0, width, g)
        spec = dft_forward(b)
        band = np.abs(spec.xi) > bump_bandwidth(width)
        tail = np.sqrt(np.sum(np.abs(spec.values[band]) ** 2) * spec.spacing)
        assert tail < 1e-8

    def test_under_resolved_rejected(self):
        g = grid(64, 64.0)
        with pytest.raises(ValueError):
            make_bump(0.0, 2.0 * g.spacing, g)


class TestBandLimitedBump:
    def test_exactly_band_limited(self):
        g = grid(256, 32.0)
        b = make_band_limited_bump(1.0, 2.0, g)
        spec = dft_forward(b)
        outside = np.abs(spec.xi) > 1.0 + spec.spacing
        assert np.max(np.abs(spec.values[outside])) < 1e-13
        assert abs(lp_norm(b, 2) - 1.0) < 1e-10

    def test_centered(self):
        g = grid(256, 32.0)
        b = make_band_limited_bump(3.0, 2.0, g)
        peak = g.x[np.argmax(np.abs(b.values))]
        assert abs(peak - 3.0) <= g.spacing

    def test_band_exceeding_nyquist_rejected(self):
        g = grid(64, 64.0)
        with pytest.raises(ValueError):
            make_band_limited_bump(0.0, 4.0 / g.spacing, g)
