import numpy as np
import pytest

from bilop.model import ModelSum, ModelTerm, model_sum_decompose, model_sum_eval, trilinear_form
from bilop.signal import Interval, SampledFunction
from bilop.tiles import (
    Collection,
    Tile,
    default_profile,
    lattice_collection,
    packet_coefficient,
    tri_tile_from_quarters,
    wave_packet,
)


def noise(grid, rng):
    return grid.with_values(rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))


def rel_err(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def definition(model, f, g):
    """The model sum term by term from `wave_packet` and `packet_coefficient`."""
    p = default_profile()
    out = np.zeros(f.n, dtype=complex)
    for term in model.terms:
        s = model.collection.tiles[term.tile_index]
        L = s.time.length
        pkts = [
            wave_packet(Tile(Interval(s.time.center + v * L, L), w), p, f)
            for v, w in zip(term.translations, s.subs)
        ]
        mu1, mu2, mu3 = term.modulations
        c1 = packet_coefficient(pkts[0], f.with_values(f.values * np.exp(2j * np.pi * mu1 * f.x)))
        c2 = packet_coefficient(pkts[1], g.with_values(g.values * np.exp(2j * np.pi * mu2 * g.x)))
        out += term.coeff / np.sqrt(L) * c1 * c2 * pkts[2].values * np.exp(-2j * np.pi * mu3 * f.x)
    return out


def lattice_model(rng):
    collection = lattice_collection(scales=(0, 1), time_slots=16, freq_slots=1)
    coeffs = rng.standard_normal(len(collection)) + 1j * rng.standard_normal(len(collection))
    return ModelSum.from_coefficients(collection, coeffs)


def moved_model(rng):
    """Lattice tiles with random translations and modulations."""
    collection = lattice_collection(scales=(0, 1), time_slots=4, freq_slots=1)
    terms = tuple(
        ModelTerm(
            i,
            complex(rng.standard_normal(), rng.standard_normal()),
            tuple(int(v) for v in rng.integers(-2, 3, size=3)),
            tuple(float(m) for m in rng.uniform(-1.0, 1.0, size=3)),
        )
        for i in range(len(collection))
    )
    return ModelSum(collection, terms)


# h = 0.125 on both grids; the second has its origin off the dyadic lattice.
ALIGNED = SampledFunction.zeros(-128.0, 0.125, 2048)
OFF_LATTICE = SampledFunction.zeros(-128.0 + 0.3 * 0.125, 0.125, 2048)


class TestModelSumEval:
    def test_aligned_lattice_matches_definition(self):
        rng = np.random.default_rng(0)
        model = lattice_model(rng)
        f, g = noise(ALIGNED, rng), noise(ALIGNED, rng)
        out = model_sum_eval(model, f, g)
        assert rel_err(out.values, definition(model, f, g)) < 1e-12

    def test_translated_modulated_terms_off_lattice_match_definition(self):
        rng = np.random.default_rng(1)
        model = moved_model(rng)
        f, g = noise(OFF_LATTICE, rng), noise(OFF_LATTICE, rng)
        out = model_sum_eval(model, f, g)
        assert rel_err(out.values, definition(model, f, g)) < 1e-12

    def test_aligned_tile_past_nyquist_rejected(self):
        g = SampledFunction.zeros(-64.0, 0.125, 1024)  # Nyquist 4
        s = tri_tile_from_quarters(Interval.from_endpoints(0.0, 1.0), 2.0)  # top sub [4, 5]
        model = ModelSum.from_coefficients(Collection((s,)), [1.0])
        with pytest.raises(ValueError, match="Nyquist"):
            model_sum_eval(model, g, g)

    def test_conjugate_computes_conjugate(self):
        rng = np.random.default_rng(2)
        model = moved_model(rng)
        f, g = noise(OFF_LATTICE, rng), noise(OFF_LATTICE, rng)
        out = model_sum_eval(model, f, g).values
        conj = model_sum_eval(
            model.conjugate(), f.with_values(np.conjugate(f.values)), g.with_values(np.conjugate(g.values))
        ).values
        assert rel_err(conj, np.conjugate(out)) < 1e-12


class TestTrilinearForm:
    def test_whole_window_matches_definition(self):
        # sum over terms of coeff |I_s|^{-1/2} <phi1, f1> <phi2, f2> conj(<phi3, f3>)
        rng = np.random.default_rng(5)
        model = lattice_model(rng)
        f1, f2, f3 = (noise(ALIGNED, rng) for _ in range(3))
        p = default_profile()
        expected = 0.0
        for term in model.terms:
            s = model.collection.tiles[term.tile_index]
            c1, c2, c3 = (
                packet_coefficient(wave_packet(Tile(s.time, w), p, fn), fn)
                for w, fn in zip(s.subs, (f1, f2, f3))
            )
            expected += term.coeff / np.sqrt(s.time.length) * c1 * c2 * np.conjugate(c3)
        whole = Interval(0.0, 2 * ALIGNED.period)
        form = trilinear_form(model, f1, f2, f3, whole)
        assert abs(form - expected) <= 1e-12 * abs(expected)


class TestDecomposition:
    def test_reconstruct_equals_model_sum(self):
        rng = np.random.default_rng(3)
        model = lattice_model(rng)
        f, g = noise(ALIGNED, rng), noise(ALIGNED, rng)
        parts = model_sum_decompose(model, Interval(30.0, 16.0))
        assert parts.outside  # both operator piece kinds are exercised
        out = parts.reconstruct(f, g)
        assert rel_err(out.values, model_sum_eval(model, f, g).values) < 1e-12

    def test_tile_past_scale_bound_rejected(self):
        model = lattice_model(np.random.default_rng(4))  # tiles of length 1 and 4
        with pytest.raises(ValueError, match="scale guard"):
            model_sum_decompose(model, Interval(30.0, 1.0), scale_bound=2.0)
