import json
import tracemalloc

import numpy as np
import pytest

from bilop import operators
from bilop.bumps import smooth_cutoff
from bilop.operators import (
    TruncationLadder,
    bht_truncated,
    derivation_identity_check,
    eval_direct,
    eval_direct_reference,
    local_estimate_check,
    maximal_avg,
    maximal_freq,
    maximal_kernel,
)
from bilop.signal import (
    Interval,
    SampledFunction,
    Spectrum,
    dft_inverse,
    hardy_littlewood_max,
    lp_norm,
    make_band_limited_bump,
    make_bump,
)
from bilop.symbols import (
    SingularLine,
    Symbol,
    SymbolClass,
    bht_sign_symbol,
    modulate_symbol,
    product_symbol,
    split_low_high,
    truncate_near_line,
)

LINE = SingularLine(1.0, -1.0)


def grid(n=64, period=16.0):
    return SampledFunction.zeros(-period / 2, period / n, n)


def random_pair(rng, n=64, period=16.0):
    g = grid(n, period)
    f1 = g.with_values(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    f2 = g.with_values(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return f1, f2


def table_symbol(rng, f: SampledFunction):
    """Random x-independent symbol defined on the exact frequency lattice."""
    n = f.n
    dxi = 1.0 / (n * f.spacing)
    xi0 = -(n // 2) * dxi
    table = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    def _eval(x, a, b):
        ia = np.clip(np.rint((np.asarray(a) - xi0) / dxi).astype(int), 0, n - 1)
        ib = np.clip(np.rint((np.asarray(b) - xi0) / dxi).astype(int), 0, n - 1)
        out = table[ia, ib]
        return np.broadcast_to(out, np.broadcast(x, a, b).shape)

    return Symbol(eval=_eval, x_dependent=False, name="table")


def line_symbols(line):
    """The sign symbol and its split, truncated and modulated compositions."""
    sign = bht_sign_symbol(line)
    low, high = split_low_high(sign)
    trunc = truncate_near_line(sign, line, 2.0)
    return {"sign": sign, "low": low, "high": high, "trunc": trunc, "mod": modulate_symbol(trunc, 0.37)}


def spectrum_of(f):
    return operators._spectra(f, f)[0]


def close(out, ref, tol=1e-10):
    return np.max(np.abs(out - ref)) <= tol * np.max(np.abs(ref))


class TestEvalDirect:
    @pytest.mark.parametrize("n", [64, 128])
    def test_product_identity(self, n):
        rng = np.random.default_rng(20)
        f, g = random_pair(rng, n)
        out = eval_direct(product_symbol(), f, g)
        assert np.max(np.abs(out.values - f.values * g.values)) <= 1e-10

    def test_zero_input(self):
        rng = np.random.default_rng(21)
        f, _ = random_pair(rng)
        zero = f.with_values(np.zeros(f.n, dtype=complex))
        out = eval_direct(bht_sign_symbol(LINE), f, zero)
        assert np.max(np.abs(out.values)) == 0.0

    def test_fast_matches_reference(self):
        # off-lattice origins too: the fold's phases depend on the origin
        rng = np.random.default_rng(22)
        for n in (32, 64, 128):
            h = 16.0 / n
            for shift in (0.0, h / 2, 0.3):
                f, g = random_pair(rng, n=n)
                f = SampledFunction(f.origin + shift, h, f.values)
                g = SampledFunction(g.origin + shift, h, g.values)
                for _ in range(5 if n == 32 else 2):
                    sym = table_symbol(rng, f)
                    fast = eval_direct(sym, f, g)
                    ref = eval_direct_reference(sym, f, g)
                    scale = np.max(np.abs(ref.values))
                    assert np.max(np.abs(fast.values - ref.values)) <= 1e-10 * scale

    def test_bilinearity(self):
        rng = np.random.default_rng(23)
        f1, g1 = random_pair(rng)
        f2, _ = random_pair(rng)
        sym = bht_sign_symbol(LINE)
        a, b = 2.0 - 1.0j, -0.5 + 0.25j
        combo = f1.with_values(a * f1.values + b * f2.values)
        lhs = eval_direct(sym, combo, g1).values
        rhs = a * eval_direct(sym, f1, g1).values + b * eval_direct(sym, f2, g1).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(rhs))

    def test_grid_mismatch_rejected(self):
        f = grid(64).with_values(np.ones(64, dtype=complex))
        g = grid(128).with_values(np.ones(128, dtype=complex))
        with pytest.raises(ValueError):
            eval_direct(product_symbol(), f, g)

    def test_x_dependent_phase_factor(self):
        # sigma(x, a, b) = e^{2 pi i mu x}: output is e^{2 pi i mu x} f g
        g0 = grid(64)
        mu = 0.375  # one frequency bin of the period-16 grid is 1/16
        sym = Symbol(
            eval=lambda x, a, b: np.exp(2j * np.pi * mu * np.asarray(x))
            * np.ones(np.broadcast(x, a, b).shape),
            x_dependent=True,
        )
        rng = np.random.default_rng(24)
        f, g = random_pair(rng)
        out = eval_direct(sym, f, g)
        expected = np.exp(2j * np.pi * mu * g0.x) * f.values * g.values
        assert np.max(np.abs(out.values - expected)) <= 1e-10 * np.max(np.abs(expected))

    @pytest.mark.parametrize("l1,l2", [(1.0, -2.0), (1.0, 2.0), (0.7, 2.3)])
    @pytest.mark.parametrize("shift", [0.0, 0.3])
    def test_profile_view_matches_reference(self, l1, l2, shift):
        line = SingularLine(l1, l2)
        rng = np.random.default_rng(25)
        f, g = random_pair(rng, n=128)
        f = SampledFunction(f.origin + shift, f.spacing, f.values)
        g = SampledFunction(g.origin + shift, g.spacing, g.values)
        for sym in line_symbols(line).values():
            assert operators._profile_view(sym, spectrum_of(f)) is not None
            assert close(eval_direct(sym, f, g).values, eval_direct_reference(sym, f, g).values)
        # maximal_freq's truncation, against the reference of its explicit symbol
        trunc = line_symbols(line)["trunc"]
        r = 0.7
        explicit = Symbol(
            eval=lambda x, a, b: trunc(x, a, b) * (1.0 - smooth_cutoff(r * line.form(a, b))),
            line=line, x_dependent=False,
        )
        ref = np.abs(eval_direct_reference(explicit, f, g).values)
        assert close(maximal_freq(trunc, f, g, TruncationLadder((r,))).values.real, ref)

    def test_profile_view_bitwise_equals_evaluated_table(self):
        line = SingularLine(1.0, -2.0)
        n = 2048
        F = spectrum_of(grid(n, n / 8))
        for sym in (line_symbols(line)["trunc"], line_symbols(line)["high"]):
            view = operators._profile_view(sym, F)
            for a0 in range(0, n, 256):
                A, B = np.meshgrid(F.x[a0 : a0 + 256], F.x, indexing="ij")
                assert np.array_equal(view[a0 : a0 + 256], sym(0.0, A, B))

    def test_profile_view_zeros_on_line_are_exact(self):
        # on the lattice xi_a = (a - 1024) / 256 the line 0.7 a + 2.3 b = 0
        # holds exactly where 7 a + 23 b = 30 * 1024
        n = 2048
        F = spectrum_of(grid(n, n / 8))
        view = operators._profile_view(bht_sign_symbol(SingularLine(0.7, 2.3)), F)
        a = np.arange(n)
        rest = 30 * 1024 - 7 * a
        on_line = np.sum((rest % 23 == 0) & (rest >= 0) & (rest // 23 < n))
        assert on_line == 89
        assert np.sum(view == 0) == on_line

    def test_fallback_matches_reference(self):
        rng = np.random.default_rng(26)
        f, g = random_pair(rng, n=128)
        F = spectrum_of(f)
        near = SingularLine(1.0, 0.99)  # |p| + |q| = 199 over den = 100
        other = SingularLine(1.0, 2.0)
        cases = [
            truncate_near_line(bht_sign_symbol(near), near, 2.0),
            split_low_high(bht_sign_symbol(LINE), other)[1],
            truncate_near_line(bht_sign_symbol(LINE), other, 2.0),
        ]
        for sym in cases:
            assert operators._profile_view(sym, F) is None
            assert close(eval_direct(sym, f, g).values, eval_direct_reference(sym, f, g).values)

    def test_compositions_carry_profile_exactly_when_input_does(self):
        line = SingularLine(0.7, 2.3)
        A, B = np.meshgrid(np.linspace(-3, 3, 41), np.linspace(-2, 2, 37), indexing="ij")
        for name, sym in line_symbols(line).items():
            assert sym.profile is not None, name
            # the shear's form rounds differently from the modulated eval's
            tol = 1e-12 if name == "mod" else 0.0
            assert np.max(np.abs(sym.profile(line.form(A, B)) - sym(0.0, A, B))) <= tol, name
        bare = Symbol(eval=bht_sign_symbol(line).eval, line=line, x_dependent=False)
        for sym in (*split_low_high(bare), truncate_near_line(bare, line, 2.0), modulate_symbol(bare, 0.3)):
            assert sym.profile is None
        assert split_low_high(bht_sign_symbol(line), LINE)[0].profile is None

    @pytest.mark.parametrize("l2", [-2.0, 0.99])
    def test_memory_is_linear_in_n(self, l2):
        # the view (1, -2) and the evaluated fallback (1, 0.99) both stay far
        # below the 1 GB of an n x n table with a padded copy at n = 4096
        line = SingularLine(1.0, l2)
        sym = truncate_near_line(bht_sign_symbol(line), line, 2.0)
        n = 4096
        rng = np.random.default_rng(27)
        f, g = random_pair(rng, n=n, period=n / 8)
        tracemalloc.start()
        try:
            eval_direct(sym, f, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    @pytest.mark.parametrize("n", [64, 128])
    def test_row_blocks_that_do_not_divide_n(self, n, monkeypatch):
        monkeypatch.setattr(operators, "_FOLD_ROWS", 48)
        rng = np.random.default_rng(28)
        f, g = random_pair(rng, n=n)
        f = SampledFunction(f.origin + 0.3, f.spacing, f.values)
        g = SampledFunction(g.origin + 0.3, g.spacing, g.values)
        for sym in (line_symbols(SingularLine(1.0, -2.0))["trunc"], table_symbol(rng, f)):
            assert close(eval_direct(sym, f, g).values, eval_direct_reference(sym, f, g).values)


def band_limited_pair(n):
    """Two random inputs on the h = 1/8 grid centred at 0, with spectra on |xi| <= 1.5."""
    rng = np.random.default_rng(0)
    g = grid(n, n / 8)
    dxi = 1.0 / g.period
    xi = (np.arange(n) - n // 2) * dxi
    pair = []
    for _ in range(2):
        spec = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * (np.abs(xi) <= 1.5)
        pair.append(dft_inverse(Spectrum(xi[0], dxi, spec), g.origin))
    return pair


class TestLocalEstimate:
    I = Interval(0.0, 2.0)

    def test_product_is_local_to_roundoff(self):
        f, g = band_limited_pair(512)
        rep = local_estimate_check(product_symbol(), f, g, self.I)
        assert rep["radii"] == [2.0, 4.0, 8.0]
        assert max(rep["errors"]) <= 1e-12
        assert (rep["n"], rep["h"], rep["W"], rep["x_dependent"]) == (512, 0.125, 64.0, False)
        json.dumps(rep)

    def test_smooth_symbol_is_local(self):
        f, g = band_limited_pair(512)
        gauss = Symbol(
            eval=lambda x, a, b: np.exp(-(np.asarray(a) ** 2 + np.asarray(b) ** 2))
            * np.ones(np.broadcast(x, a, b).shape),
            x_dependent=False,
            declared_class=SymbolClass.HORMANDER,
        )
        assert max(local_estimate_check(gauss, f, g, self.I)["errors"]) <= 1e-9

    def test_truncation_makes_the_output_local(self):
        # the paper's local estimate: with the symbol truncated at L = |I|
        # the output on I forgets inputs at distance 8|I|; the untruncated
        # sign symbol's output still depends on them
        line = SingularLine(1.0, -2.0)
        f, g = band_limited_pair(1024)
        trunc = local_estimate_check(truncate_near_line(bht_sign_symbol(line), line, 2.0), f, g, self.I)
        sign = local_estimate_check(bht_sign_symbol(line), f, g, self.I)
        assert trunc["radii"] == sign["radii"] == [2.0, 4.0, 8.0, 16.0]
        assert trunc["errors"][-1] < 1e-3
        assert sign["errors"][-1] > 1e-2
        assert len(trunc["decay"]) == 3

    @pytest.mark.parametrize(
        "I, g_scale",
        [(Interval(1 / 16, 1 / 16), 1.0), (Interval(0.0, 16.0), 1.0), (Interval(0.0, 2.0), 0.0)],
        ids=["no_grid_point", "too_long", "vanishing_output"],
    )
    def test_unusable_interval_rejected(self, I, g_scale):
        f, g = band_limited_pair(512)
        with pytest.raises(ValueError, match="I = "):
            local_estimate_check(product_symbol(), f, g.with_values(g.values * g_scale), I)


class TestBhtTruncated:
    def test_even_pair_cancels_at_center(self):
        g = grid(128, 32.0)
        f = make_bump(0.0, 3.0, g)
        h = make_bump(0.0, 5.0, g)
        out = bht_truncated(f, h, LINE, eps=0.05, R=4.0)
        j0 = np.argmin(np.abs(g.x))
        assert abs(out.values[j0]) <= 1e-12

    def test_constant_second_slot_reduces_to_hilbert(self):
        g = grid(128, 32.0)
        f = make_band_limited_bump(0.0, 1.5, g)
        one = g.with_values(np.ones(g.n, dtype=complex))
        h = g.spacing
        eps, R = h / 2, 6.0 + h / 2  # align limits with the oracle's grid cells
        out = bht_truncated(f, one, LINE, eps, R)
        # independent route: grid-cell p.v. quadrature of int f(x-y) dy/y
        acc = np.zeros(g.n, dtype=complex)
        for m in range(1, g.n):
            y = m * h
            if not eps <= y <= R:
                continue
            acc += (np.roll(f.values, m) - np.roll(f.values, -m)) * h / y
        rel = np.max(np.abs(out.values - acc)) / np.max(np.abs(acc))
        assert rel < 0.01

    def test_matches_frequency_route(self):
        # quadrature realizes the conjugate-sign symbol in this library's
        # transform convention: compare against -T_{i pi sign}; same-sign
        # comparison must fail by ~2, confirming the orientation
        g = grid(128, 32.0)
        f = make_band_limited_bump(-0.5, 0.8, g, freq_center=1.2)
        h = make_band_limited_bump(0.5, 0.8, g, freq_center=-1.2)
        sym = truncate_near_line(bht_sign_symbol(LINE), LINE, L=4.0)
        freq_route = eval_direct(sym, f, h)
        quad_route = bht_truncated(f, h, LINE, eps=1e-3, R=14.0)
        scale = np.max(np.abs(freq_route.values))
        rel = np.max(np.abs(quad_route.values + freq_route.values)) / scale
        assert rel < 0.05
        rel_same = np.max(np.abs(quad_route.values - freq_route.values)) / scale
        assert rel_same > 1.0

    def test_matches_node_by_node_definition(self):
        # the node-by-node algorithm: shift each input spectrally with
        # dft_inverse at every node, then sum the paired +-y products
        import tracemalloc

        from bilop.signal import Spectrum, dft_forward, dft_inverse

        npo = 16
        eps, R = 0.01, 8.0
        for shift in (0.0, 0.125):
            g = SampledFunction.zeros(-32.0 + shift, 0.25, 256)
            f = make_band_limited_bump(-3.0, 1.0, g, freq_center=0.4)
            k = make_band_limited_bump(2.0, 1.0, g, freq_center=-0.3)
            specs = []
            for fn in (f, k):
                spec = dft_forward(fn)
                v = spec.values.copy()
                v[0] = 0.0  # the Nyquist bin bht_truncated drops
                specs.append(Spectrum(spec.origin, spec.spacing, v))

            def shifted(spec, amount):
                phase = np.exp(-2j * np.pi * spec.x * amount)
                return dft_inverse(Spectrum(spec.origin, spec.spacing, spec.values * phase), g.origin).values

            m = int(np.ceil(np.log2(R / eps) * npo))
            u = np.linspace(np.log(eps), np.log(R), m + 1)
            w = np.full(m + 1, u[1] - u[0])
            w[0] *= 0.5
            w[-1] *= 0.5
            for l1, l2 in [(1.0, -1.0), (1.0, -2.0), (0.7, 2.3)]:
                ref = np.zeros(g.n, dtype=complex)
                for yk, wk in zip(np.exp(u), w):
                    plus = shifted(specs[0], l1 * yk) * shifted(specs[1], l2 * yk)
                    minus = shifted(specs[0], -l1 * yk) * shifted(specs[1], -l2 * yk)
                    ref += wk * (plus - minus)
                out = bht_truncated(f, k, SingularLine(l1, l2), eps, R, nodes_per_octave=npo)
                assert np.max(np.abs(out.values - ref)) <= 1e-12 * np.max(np.abs(ref))

        # batches bound the memory: stacking all 2.5k nodes at n = 2048
        # peaks near 0.5 GB
        g = grid(2048, 256.0)
        f = make_band_limited_bump(0.0, 1.0, g)
        tracemalloc.start()
        try:
            bht_truncated(f, f, LINE, 0.01, 8.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"eps": 2.0, "R": 1.0}, "eps"),
            ({"eps": 0.1, "R": np.inf}, "R must be finite"),
            ({"eps": 0.1, "R": 1.0, "nodes_per_octave": 0}, "nodes_per_octave"),
            ({"eps": 0.1, "R": 1.0, "nodes_per_octave": -4}, "nodes_per_octave"),
        ],
        ids=["eps_above_R", "R_infinite", "nodes_zero", "nodes_negative"],
    )
    def test_bad_radii_rejected(self, kwargs, match):
        g = grid(64)
        f = g.with_values(np.ones(64, dtype=complex))
        with pytest.raises(ValueError, match=match):
            bht_truncated(f, f, LINE, **kwargs)


class TestMaximalFreq:
    def setup_method(self):
        self.g = grid(64, 16.0)
        rng = np.random.default_rng(30)
        self.f = make_band_limited_bump(0.0, 1.5, self.g, freq_center=1.0)
        self.h = make_band_limited_bump(0.5, 1.5, self.g, freq_center=-1.0)
        self.sym = truncate_near_line(bht_sign_symbol(LINE), LINE, L=2.0)

    def test_single_radius_equals_direct(self):
        from bilop.bumps import smooth_cutoff

        r = 0.5
        ladder = TruncationLadder((r,))
        out = maximal_freq(self.sym, self.f, self.h, ladder)

        def _eval(x, a, b):
            return self.sym(x, a, b) * (1.0 - smooth_cutoff(r * LINE.form(a, b)))

        single = Symbol(eval=_eval, line=LINE, x_dependent=False)
        direct = eval_direct(single, self.f, self.h)
        assert np.max(np.abs(out.values.real - np.abs(direct.values))) <= 1e-12

    def test_monotone_under_refinement(self):
        coarse = maximal_freq(self.sym, self.f, self.h, TruncationLadder.dyadic(0.25, 4.0, 1))
        fine = maximal_freq(self.sym, self.f, self.h, TruncationLadder.dyadic(0.25, 4.0, 4))
        assert np.all(fine.values.real >= coarse.values.real - 1e-14)

    def test_ladder_refinement_converges(self):
        # inputs with separated spectra so the truncated symbol acts at
        # full strength on the product band
        g = grid(128, 16.0)
        f = make_band_limited_bump(0.0, 1.2, g, freq_center=1.0)
        h = make_band_limited_bump(0.0, 1.2, g, freq_center=-1.0)
        ladder8 = TruncationLadder.dyadic(0.125, 16.0, 1)
        assert len(ladder8.radii) == 8
        ladder64 = TruncationLadder.dyadic(0.125, 16.0, 9)
        a = maximal_freq(self.sym, f, h, ladder8)
        b = maximal_freq(self.sym, f, h, ladder64)
        diff = lp_norm(a.with_values(a.values - b.values), 2)
        assert lp_norm(b, 2) > 1e-3  # the measurement is not vacuous
        assert diff < 0.05 * lp_norm(b, 2)

    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError):
            TruncationLadder(())

    @pytest.mark.parametrize("radii", [(0.5, 1.0, 1.0, 2.0), (0.5, 2.0, 1.0)])
    def test_non_increasing_ladder_rejected(self, radii):
        with pytest.raises(ValueError, match="strictly increasing"):
            TruncationLadder(radii)

    @pytest.mark.parametrize(
        "radii",
        [((0.1, 0.2), (0.3, 0.4)), (0.5, np.inf), (0.5, np.nan), (-0.5, 1.0)],
        ids=["pairs", "inf", "nan", "negative"],
    )
    def test_unusable_radii_rejected(self, radii):
        with pytest.raises(ValueError, match="radii"):
            TruncationLadder(radii)

    @pytest.mark.parametrize(
        "args, match",
        [
            ((0.0, 4.0), "r_min"),
            ((-1.0, 4.0), "r_min"),
            ((np.nan, 4.0), "r_min"),
            ((0.25, np.inf), "r_max"),
            ((0.25, 0.25), "r_max"),
            ((0.25, 4.0, 0), "per_octave"),
            ((0.25, 4.0, -1), "per_octave"),
        ],
        ids=[
            "r_min_zero", "r_min_negative", "r_min_nan", "r_max_infinite", "r_max_equal",
            "per_octave_zero", "per_octave_negative",
        ],
    )
    def test_unusable_dyadic_ladder_rejected(self, args, match):
        with pytest.raises(ValueError, match=match):
            TruncationLadder.dyadic(*args)


class TestMaximalAvg:
    def test_constant_pair_gives_two(self):
        g = grid(64, 16.0)
        one = g.with_values(np.ones(64, dtype=complex))
        out = maximal_avg(one, one, L=2.0, ladder=TruncationLadder((0.5, 1.0, 2.0)))
        assert np.max(np.abs(out.values.real - 2.0)) < 1e-12

    def test_monotone_in_ladder(self):
        rng = np.random.default_rng(31)
        f, h = random_pair(rng)
        small = maximal_avg(f, h, 1.0, TruncationLadder((0.5, 1.0)))
        big = maximal_avg(f, h, 4.0, TruncationLadder((0.5, 1.0, 2.0, 4.0)))
        assert np.all(big.values.real >= small.values.real - 1e-14)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(32)
        f, h = random_pair(rng, n=64)
        hh = f.spacing
        af, ag = np.abs(f.values), np.abs(h.values)
        # on the h = 0.25 grid the second ladder snaps to M = 0, 0, 1, 1, 3, 8
        for radii in [(0.4, 1.1, 2.3), (0.05, 0.1, 0.4, 0.45, 1.1, 2.3)]:
            ladder = TruncationLadder(radii)
            out = maximal_avg(f, h, 3.0, ladder)
            # direct triple loop with the same snapped windows
            expected = np.zeros(f.n)
            for r in ladder.radii:
                M = max(int(np.floor(r / hh - 0.5 + 1e-12)), 0)
                r_hat = (2 * M + 1) * hh / 2
                for j in range(f.n):
                    s = 0.0
                    for m in range(-M, M + 1):
                        s += af[(j - m) % f.n] * ag[(j + m) % f.n]
                    expected[j] = max(expected[j], s * hh / r_hat)
            assert np.max(np.abs(out.values.real - expected)) < 1e-12

    def test_cauchy_schwarz_domination(self):
        rng = np.random.default_rng(33)
        f, h = random_pair(rng, n=64)
        ladder = TruncationLadder.dyadic(0.3, 3.0, 2)
        out = maximal_avg(f, h, 3.0, ladder).values.real
        mf = hardy_littlewood_max(f.with_values(np.abs(f.values) ** 2)).values.real
        mg = hardy_littlewood_max(h.with_values(np.abs(h.values) ** 2)).values.real
        bound = 2.0 * np.sqrt(mf * mg)
        assert np.all(out <= bound + 1e-10)

    def test_ladder_beyond_L_rejected(self):
        g = grid(64)
        one = g.with_values(np.ones(64, dtype=complex))
        with pytest.raises(ValueError):
            maximal_avg(one, one, 1.0, TruncationLadder((0.5, 2.0)))


class TestMaximalKernel:
    def test_even_inputs_cancel_at_center(self):
        g = grid(128, 32.0)
        f = make_bump(0.0, 3.0, g)
        h = make_bump(0.0, 5.0, g)
        out = maximal_kernel(f, h, lambda y: 1.0 / y, L=4.0, pairs=[(0.2, 3.0)])
        j0 = np.argmin(np.abs(g.x))
        assert abs(out.values[j0]) <= 1e-13

    def test_single_pair_is_truncated_quadrature(self):
        rng = np.random.default_rng(34)
        f, h = random_pair(rng, n=64)
        eps, r = 0.3, 2.0
        out = maximal_kernel(f, h, lambda y: 1.0 / y, L=4.0, pairs=[(eps, r)])
        hh = f.spacing
        acc = np.zeros(f.n, dtype=complex)
        for m in range(1, f.n // 2):
            y = m * hh
            if not eps <= y <= r:
                continue
            acc += (np.roll(f.values, m) * np.roll(h.values, -m)
                    - np.roll(f.values, -m) * np.roll(h.values, m)) * hh / y
        assert np.max(np.abs(out.values.real - np.abs(acc))) < 1e-12

    def test_shell_domination_by_maximal_avg(self):
        rng = np.random.default_rng(35)
        f, h = random_pair(rng, n=64)
        eps, r = f.spacing, 2.0
        out = maximal_kernel(f, h, lambda y: 1.0 / y, L=4.0, pairs=[(eps, r)]).values.real
        # dyadic shells [2^j eps, 2^{j+1} eps): sup |y K(y)| = 1 per shell,
        # each shell sum <= 2 * r_shell-average <= 2 * maximal_avg
        n_shells = int(np.ceil(np.log2(r / eps)))
        radii = [min(eps * 2.0 ** (j + 1), 2.5) for j in range(n_shells)]
        ladder = TruncationLadder(tuple(sorted(set(radii))))
        mavg = maximal_avg(f, h, L=4.0, ladder=ladder).values.real
        bound = 2.0 * n_shells * mavg
        assert np.all(out <= bound + 1e-10)

    def test_malformed_pair_rejected(self):
        g = grid(64)
        one = g.with_values(np.ones(64, dtype=complex))
        with pytest.raises(ValueError):
            maximal_kernel(one, one, lambda y: 1.0 / y, L=1.0, pairs=[(0.5, 0.2)])


class TestDerivationIdentity:
    def setup_method(self):
        self.g = grid(128, 16.0)
        self.f = make_band_limited_bump(-0.5, 1.6, self.g, freq_center=0.4)
        self.h = make_band_limited_bump(0.5, 1.6, self.g, freq_center=-0.4)

    def test_zero_inputs(self):
        zero = self.g.with_values(np.zeros(self.g.n, dtype=complex))
        rep = derivation_identity_check(product_symbol(), zero, zero, 1)
        assert rep.max_abs_discrepancy == 0.0

    def test_x_independent_leibniz(self):
        sym = truncate_near_line(bht_sign_symbol(LINE), LINE, L=2.0)
        rep = derivation_identity_check(sym, self.f, self.h, 1)
        assert rep.max_abs_discrepancy <= 1e-8

    def test_phase_symbol_order_one(self):
        # sigma = e^{2 pi i mu x} tau(a, b): d_x sigma = 2 pi i mu sigma
        mu = 0.25
        sym = Symbol(
            eval=lambda x, a, b: np.exp(2j * np.pi * mu * np.asarray(x))
            * np.exp(-0.25 * (np.asarray(a) - np.asarray(b)) ** 2)
            * np.ones(np.broadcast(x, a, b).shape),
            x_dependent=True,
        )
        rep = derivation_identity_check(sym, self.f, self.h, 1)
        assert rep.max_abs_discrepancy <= 1e-8 * max(rep.lhs_scale, 1.0)

    def test_order_two(self):
        sym = truncate_near_line(bht_sign_symbol(LINE), LINE, L=2.0)
        rep = derivation_identity_check(sym, self.f, self.h, 2)
        assert rep.max_abs_discrepancy <= 1e-8 * max(rep.lhs_scale, 1.0)
