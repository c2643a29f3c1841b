import numpy as np
import pytest

from bilop.signal import SampledFunction, make_band_limited_bump
from bilop.symbols import (
    SingularLine,
    Symbol,
    SymbolClass,
    bht_sign_symbol,
    class_verify,
    dist_to_line,
    modulate_symbol,
    modulation_pair,
    product_symbol,
    split_low_high,
    truncate_near_line,
)

LINE = SingularLine(1.0, -1.0)


class TestSingularLine:
    @pytest.mark.parametrize("l1,l2", [(0.0, 1.0), (1.0, 0.0), (2.0, 2.0)])
    def test_degenerate_rejected(self, l1, l2):
        with pytest.raises(ValueError):
            SingularLine(l1, l2)

    def test_on_line_distance_zero(self):
        assert dist_to_line(2.0, 2.0, LINE) == 0.0

    def test_point_distance(self):
        assert abs(dist_to_line(1.0, 0.0, LINE) - 1 / np.sqrt(2)) < 1e-15

    def test_reflection_symmetry(self):
        rng = np.random.default_rng(0)
        line = SingularLine(0.7, 2.3)
        nhat = np.array([line.l1, line.l2]) / line.norm
        pts = rng.uniform(-5, 5, size=(50, 2))
        mirrored = pts - 2 * (pts @ nhat)[:, None] * nhat[None, :]
        d1 = dist_to_line(pts[:, 0], pts[:, 1], line)
        d2 = dist_to_line(mirrored[:, 0], mirrored[:, 1], line)
        assert np.allclose(d1, d2, atol=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-5, 5, size=(20, 2))
        for t in (0.5, -3.0, 7.25):
            scaled = SingularLine(1.0 * t, -1.0 * t)
            assert np.allclose(
                dist_to_line(pts[:, 0], pts[:, 1], LINE),
                dist_to_line(pts[:, 0], pts[:, 1], scaled),
                atol=1e-12,
            )


class TestClassVerify:
    def test_constant_symbol(self):
        rep = class_verify(product_symbol(), max_order=2, box=((-4, 4), (-4, 4)), step=0.05)
        assert rep.constant(0, 0, 0) == pytest.approx(1.0, abs=1e-9)
        for (a, b, c), v in rep.constants.items():
            if b + c >= 1:
                assert v < 1e-8
        assert rep.passed

    def test_inverse_sqrt_passes(self):
        sym = Symbol(
            eval=lambda x, a, b: (1.0 + np.abs(np.asarray(a) - np.asarray(b)) ** 2) ** -0.5
            * np.ones(np.broadcast(x, a, b).shape),
            line=LINE,
            x_dependent=False,
            declared_class=SymbolClass.LINE,
        )
        rep = class_verify(sym, max_order=2, box=((-50, 50), (-50, 50)), step=0.05)
        assert rep.passed
        assert all(np.isfinite(v) for v in rep.constants.values())

    def test_linear_symbol_fails_on_nested_boxes(self):
        sym = Symbol(
            eval=lambda x, a, b: np.asarray(a, dtype=complex)
            * np.ones(np.broadcast(x, a, b).shape),
            line=LINE,
            x_dependent=False,
            declared_class=SymbolClass.LINE,
        )
        c_small = class_verify(sym, 1, ((-10, 10), (-10, 10)), 0.05).constant(0, 1, 0)
        c_big = class_verify(sym, 1, ((-20, 20), (-20, 20)), 0.05).constant(0, 1, 0)
        assert c_big / c_small > 1.6  # roughly doubles as the box doubles

    def test_nonfinite_symbol_reported(self):
        sym = Symbol(
            eval=lambda x, a, b: np.where(np.asarray(a) > 1.0, np.inf, 1.0)
            * np.ones(np.broadcast(x, a, b).shape),
            line=None,
            x_dependent=False,
            declared_class=SymbolClass.HORMANDER,
        )
        with pytest.raises(FloatingPointError):
            class_verify(sym, 1, ((-4, 4), (-4, 4)), 0.05)


class TestSplit:
    def test_on_line_all_low(self):
        low, high = split_low_high(product_symbol(), LINE)
        assert low(0.0, 1.0, 1.0) == pytest.approx(1.0)
        assert high(0.0, 1.0, 1.0) == pytest.approx(0.0)

    def test_far_from_line_all_high(self):
        low, high = split_low_high(product_symbol(), LINE)
        # l1*a + l2*b = 3 here: outside the cutoff's support
        assert low(0.0, 3.0, 0.0) == pytest.approx(0.0)
        assert high(0.0, 3.0, 0.0) == pytest.approx(1.0)

    def test_reconstruction_on_box(self):
        sym = bht_sign_symbol(LINE)
        low, high = split_low_high(sym, LINE)
        a = np.linspace(-5, 5, 101)
        A, B = np.meshgrid(a, a, indexing="ij")
        total = low(0.0, A, B) + high(0.0, A, B)
        assert np.max(np.abs(total - sym(0.0, A, B))) < 1e-14


class TestModulation:
    def test_zero_shift_identity(self):
        sym = bht_sign_symbol(LINE)
        tau = modulate_symbol(sym, 0.0)
        a = np.linspace(-3, 3, 11)
        A, B = np.meshgrid(a, a, indexing="ij")
        assert np.array_equal(tau(0.0, A, B), sym(0.0, A, B))

    def test_round_trip_smooth_symbol(self):
        sym = Symbol(
            eval=lambda x, a, b: np.exp(1j * np.asarray(a) - 0.1 * np.asarray(b) ** 2)
            * np.ones(np.broadcast(x, a, b).shape),
            x_dependent=False,
        )
        back = modulate_symbol(modulate_symbol(sym, 1.7), -1.7)
        a = np.linspace(-3, 3, 17)
        A, B = np.meshgrid(a, a, indexing="ij")
        assert np.allclose(back(0.0, A, B), sym(0.0, A, B), atol=1e-12)

    def test_round_trip_sign_symbol_off_line(self):
        # the sign jump sits on the line itself; compare off it, where
        # float roundoff in the sheared arguments cannot flip the sign
        sym = bht_sign_symbol(LINE)
        back = modulate_symbol(modulate_symbol(sym, 1.7), -1.7)
        a = np.linspace(-3, 3, 17)
        A, B = np.meshgrid(a, a, indexing="ij")
        off = np.abs(A - B) > 1e-9
        assert np.array_equal(back(0.0, A, B)[off], sym(0.0, A, B)[off])

    def test_support_moves_off_line(self):
        # symbol supported in {|a - b| <= 2}; shearing by 3 lands in {1 <= |a-b| <= 8}
        sym = Symbol(
            eval=lambda x, a, b: np.where(np.abs(np.asarray(a) - np.asarray(b)) <= 2.0, 1.0, 0.0)
            * np.ones(np.broadcast(x, a, b).shape),
            line=LINE,
            x_dependent=False,
        )
        tau = modulate_symbol(sym, 3.0)
        a = np.linspace(-12, 12, 241)
        A, B = np.meshgrid(a, a, indexing="ij")
        vals = np.abs(tau(0.0, A, B))
        gap = np.abs(A - B)
        support = vals > 0
        assert np.all(gap[support] >= 1.0 - 1e-12)
        assert np.all(gap[support] <= 8.0 + 1e-12)


class TestBhtSignSymbol:
    def test_positive_side(self):
        sym = bht_sign_symbol(LINE)
        assert sym(0.0, 2.0, 0.0) == 1j * np.pi

    def test_zero_on_line(self):
        sym = bht_sign_symbol(LINE)
        assert sym(0.0, 1.5, 1.5) == 0.0

    def test_antisymmetry(self):
        sym = bht_sign_symbol(LINE)
        rng = np.random.default_rng(2)
        pts = rng.uniform(-4, 4, size=(30, 2))
        assert np.allclose(
            sym(0.0, pts[:, 0], pts[:, 1]),
            -sym(0.0, -pts[:, 0], -pts[:, 1]),
            atol=1e-15,
        )


class TestTruncateNearLine:
    def test_far_points_unchanged(self):
        sym = bht_sign_symbol(LINE)
        trunc = truncate_near_line(sym, LINE, L=2.0)
        # d((3,0), line) = 3/sqrt(2) >= 1/L
        assert trunc(0.0, 3.0, 0.0) == sym(0.0, 3.0, 0.0)

    def test_zero_on_line_neighborhood(self):
        trunc = truncate_near_line(bht_sign_symbol(LINE), LINE, L=2.0)
        assert trunc(0.0, 1.0, 1.0) == 0.0
        # d = |a-b|/sqrt(2) = 0.2 < 1/(2L) = 0.25: inside the killed zone
        assert trunc(0.0, 0.1414, -0.1414) == 0.0

    def test_scale_metadata(self):
        trunc = truncate_near_line(bht_sign_symbol(LINE), LINE, L=4.0)
        assert trunc.scale == pytest.approx(0.25)
        assert trunc.declared_class is SymbolClass.LINE_SCALED

    def test_class_verify_passes_and_is_box_stable(self):
        # ceiling calibrated to the cutoff family: 4th mixed derivatives of
        # the transition reach ~4e4 with the inhomogeneous weight
        trunc = truncate_near_line(bht_sign_symbol(LINE), LINE, L=1.0)
        rep = class_verify(
            trunc, max_order=2, box=((-6, 6), (-6, 6)), step=0.01,
            samples_per_axis=49, ceiling=1e6,
        )
        assert rep.passed
        assert rep.constants_homogeneous is not None
        assert all(np.isfinite(v) for v in rep.constants_homogeneous.values())
        assert max(rep.constants_homogeneous.values()) < 1e5
        # same sample spacing on a doubled box: constants must not grow
        rep2 = class_verify(
            trunc, max_order=2, box=((-12, 12), (-12, 12)), step=0.01,
            samples_per_axis=97, ceiling=1e6,
        )
        assert max(rep2.constants.values()) <= 2.0 * max(rep.constants.values())
