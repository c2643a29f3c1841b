import numpy as np
import pytest

from bilop.signal import Interval, SampledFunction, dft_forward, lp_norm, make_bump
from bilop.tiles import (
    Collection,
    Tile,
    Tree,
    TriTile,
    WavePacketProfile,
    collection_validate,
    default_profile,
    lattice_collection,
    maximal_tree,
    packet_coefficient,
    profile_seminorm,
    random_collection,
    size_bound_check,
    size_star,
    size_tree,
    tri_tile_from_quarters,
    wave_packet,
)


def grid(n=256, period=32.0):
    return SampledFunction.zeros(-period / 2, period / n, n)


class TestTileTypes:
    def test_tile_area_enforced(self):
        with pytest.raises(ValueError):
            Tile(Interval(0, 2.0), Interval(0, 1.0))
        Tile(Interval(0, 2.0), Interval(0, 0.5))

    def test_tri_tile_quarters(self):
        s = tri_tile_from_quarters(Interval.from_endpoints(0, 1), 0.0)
        assert s.freq.length == pytest.approx(4.0)
        assert all(sub.length == pytest.approx(1.0) for sub in s.subs)

    def test_overlapping_subs_rejected(self):
        I = Interval.from_endpoints(0, 1)
        with pytest.raises(ValueError):
            TriTile(I, Interval(0, 4.0), (Interval(0, 1.0), Interval(0.5, 1.0), Interval(2, 1.0)))

    def test_area_bound_enforced(self):
        I = Interval.from_endpoints(0, 1)
        with pytest.raises(ValueError):
            TriTile(
                I,
                Interval(0, 8.0),
                (Interval(-3, 1.0), Interval(0, 1.0), Interval(3, 1.0)),
                area_bound=4.0,
            )


class TestWavePacket:
    def test_profile_contract(self):
        p = default_profile()
        assert abs(lp_norm(p.samples, 2) - 1.0) <= 1e-8
        spec = dft_forward(p.samples)
        outside = np.abs(spec.x) > 0.5
        tail = np.sqrt(np.sum(np.abs(spec.values[outside]) ** 2) * spec.spacing)
        assert tail < 1e-8

    def test_unit_tile_at_origin_is_profile(self):
        g = grid(2048, 256.0)
        p = default_profile()
        pkt = wave_packet(Tile(Interval(0.0, 1.0), Interval(0.0, 1.0)), p, g)
        direct = p.time_eval(g.x)
        assert np.max(np.abs(pkt.values - direct)) < 1e-10
        # Origin off the lattice, centres at fractional cell offsets, one
        # packet wrapping round the window edge.
        g = SampledFunction.zeros(g.origin + 0.37 * g.spacing, g.spacing, g.n)
        P = g.period
        for c, L, w in ((0.0, 1.0, 0.0), (3.3, 2.0, 1.25), (-17.05, 4.0, -0.6), (120.0, 0.5, 3.0)):
            pkt = wave_packet(Tile(Interval(c, L), Interval(w, 1.0 / L)), p, g)
            disp = np.mod(g.x - c + P / 2, P) - P / 2
            direct = p.time_eval(disp / L) / np.sqrt(L) * np.exp(2j * np.pi * g.x * w)
            assert np.max(np.abs(pkt.values - direct)) < 1e-12

    def test_random_tiles_normalized_and_band_confined(self):
        rng = np.random.default_rng(40)
        g = grid(2048, 256.0)
        p = default_profile()
        # Radius beyond which |phi|^2 holds at most 1e-16 of the mass: inside
        # it the truncated tail stays far below the 1e-8 checks below.
        absx = np.abs(p.samples.x)
        order = np.argsort(absx)[::-1]
        tail = np.cumsum(np.abs(p.samples.values[order]) ** 2) * p.samples.spacing
        r16 = absx[order][np.argmax(tail > 1e-16)]
        # The packet is cut where the modulated grid wraps, at the window
        # edge; centres lie in [-8, 8].
        L_max = (g.period / 2 - 8) / r16
        for _ in range(25):
            L = float(rng.uniform(4 * g.spacing, L_max))
            cI = float(rng.uniform(-8, 8))
            nyq = 0.5 / g.spacing
            cw = float(rng.uniform(-(nyq - 1.5 / L), nyq - 1.5 / L))
            tile = Tile(Interval(cI, L), Interval(cw, 1.0 / L))
            pkt = wave_packet(tile, p, g)
            assert abs(lp_norm(pkt, 2) - 1.0) <= 1e-8
            spec = dft_forward(pkt)
            inside = tile.freq.mask(spec.x)
            tail = np.sqrt(np.sum(np.abs(spec.values[~inside]) ** 2) * spec.spacing)
            assert tail < 1e-8

    def test_under_resolved_tile_rejected(self):
        g = grid(64, 16.0)
        with pytest.raises(ValueError):
            wave_packet(Tile(Interval(0, g.spacing), Interval(0, 1 / g.spacing)), default_profile(), g)

    def test_out_of_band_tile_rejected(self):
        g = grid(64, 16.0)
        nyq = 0.5 / g.spacing
        with pytest.raises(ValueError):
            wave_packet(Tile(Interval(0, 1.0), Interval(nyq, 1.0)), default_profile(), g)


class TestCollectionValidate:
    def test_empty_passes_with_zero_overlap(self):
        rep = collection_validate(Collection(()))
        assert rep.passed and rep.overlap_constant == 0

    def test_lattice_passes(self):
        coll = lattice_collection(scales=(0, 1), time_slots=3, freq_slots=2)
        rep = collection_validate(coll)
        assert rep.passed
        assert rep.overlap_constant <= 2

    def test_duplicates_fail_grid_bound(self):
        s = tri_tile_from_quarters(Interval.from_endpoints(0, 1), 0.0)
        rep = collection_validate(Collection((s,) * 10))
        assert not rep.passed
        assert rep.time_grid["achieved"] == 10
        assert rep.time_grid["witness"] is not None

    def test_random_collections_pass(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            coll = random_collection(rng, 20)
            rep = collection_validate(coll)
            assert rep.passed, rep.messages

    def test_random_collections_pass_over_seeds(self):
        for seed in range(200):
            coll = random_collection(np.random.default_rng(seed), 20)
            rep = collection_validate(coll)
            assert rep.passed, (seed, rep.messages)

    def test_nesting_violation_detected(self):
        # a fine sub-frequency strictly inside a coarse one whose siblings
        # poke out: built by hand with off-lattice frequencies
        fine = TriTile(
            Interval.from_endpoints(0, 4),
            Interval.from_endpoints(0.0, 1.0),
            (
                Interval.from_endpoints(0.0, 0.25),
                Interval.from_endpoints(0.25, 0.5),
                Interval.from_endpoints(0.5, 0.75),
            ),
        )
        coarse = TriTile(
            Interval.from_endpoints(0, 1),
            Interval.from_endpoints(-0.9, 3.1),
            (
                Interval.from_endpoints(-0.9, 0.1),
                Interval.from_endpoints(0.1, 1.1),
                Interval.from_endpoints(1.1, 2.1),
            ),
        )
        rep = collection_validate(Collection((fine, coarse)))
        assert rep.nesting_violations


class TestTreesAndSizes:
    # A packet of |I| = 4 needs a window of 2 * 4 * effective_radius = 233.
    # The random collections below reach frequency 12, so they need h < 1/24.
    def setup_method(self):
        self.g = grid(1024, 256.0)
        # nested family: one coarse top over finer tiles in the same band
        top = tri_tile_from_quarters(Interval.from_endpoints(0, 16), 0.0)
        fine = [
            tri_tile_from_quarters(Interval.from_endpoints(4 * m, 4 * (m + 1)), 0.0)
            for m in range(4)
        ]
        self.top = top
        self.coll = Collection((top, *fine))

    def test_tree_invariant_enforced(self):
        bad = tri_tile_from_quarters(Interval.from_endpoints(100, 101), 0.0)
        with pytest.raises(ValueError):
            Tree(0, self.top, (bad,))

    def test_maximal_tree_under_top(self):
        tree = maximal_tree(self.coll, self.top, 0)
        # quarter 0 of each fine tile is [0, 1/4]... the top's quarter 0 is
        # [0, 1/16]: containment requires top_sub inside member_sub
        for s in tree.members:
            assert s.subs[0].contains(self.top.subs[0])

    def test_empty_tree_size_zero(self):
        tree = Tree(0, self.top, ())
        f = make_bump(2.0, 4.0, self.g)
        assert size_tree(tree, f) == 0.0

    def test_single_tile_size(self):
        f = make_bump(2.0, 4.0, self.g)
        s = self.coll.tiles[1]
        tree = Tree(0, s, (s,))
        pkt = wave_packet(s.sub_tile(0), default_profile(), self.g)
        expected = abs(packet_coefficient(pkt, f)) / np.sqrt(s.time.length)
        assert size_tree(tree, f) == pytest.approx(expected, rel=1e-12)

    def test_size_monotone_in_members(self):
        f = make_bump(2.0, 4.0, self.g)
        tree1 = maximal_tree(self.coll, self.coll.tiles[1], 1)
        partial = Tree(1, tree1.top, tree1.members[:1])
        assert size_tree(tree1, f) >= size_tree(partial, f) - 1e-15

    def test_size_star_empty_and_singleton(self):
        f = make_bump(2.0, 4.0, self.g)
        assert size_star(Collection(()), f, 0) == 0.0
        single = Collection((self.coll.tiles[1],))
        s = self.coll.tiles[1]
        expected = max(
            size_tree(Tree(k, s, (s,)), f) for k in (1, 2)
        )
        assert size_star(single, f, 0) == pytest.approx(expected, rel=1e-12)

    def test_size_star_matches_powerset_oracle(self):
        rng = np.random.default_rng(42)
        coll = random_collection(rng, 8, scales=(0, 1), window=8.0)
        g = grid(8192, 256.0)
        f = g.with_values((rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)))
        from itertools import combinations

        j = 0
        best = 0.0
        tiles = coll.tiles
        for top in tiles:
            for k in (1, 2):
                candidates = [
                    s
                    for s in tiles
                    if top.time.contains(s.time) and s.subs[k].contains(top.subs[k])
                ]
                for r in range(1, len(candidates) + 1):
                    for subset in combinations(candidates, r):
                        best = max(best, size_tree(Tree(k, top, subset), f))
        assert size_star(coll, f, j) == pytest.approx(best, rel=1e-12)

    def test_size_star_cap(self):
        rng = np.random.default_rng(43)
        coll = random_collection(rng, 70, scales=(0, 1), window=64.0)
        f = make_bump(2.0, 4.0, grid(8192, 256.0))
        if len(coll) > 64:
            with pytest.raises(ValueError):
                size_star(coll, f, 0)
            out = size_star(coll, f, 0, sample_tops=10)
            assert out >= 0.0


class TestSizeBound:
    # The lattice's sub-frequency [2, 3] needs Nyquist above 3, so h = 1/8.
    def test_zero_function(self):
        g = grid(512, 64.0)
        coll = lattice_collection(scales=(0,), time_slots=4, freq_slots=1)
        zero = g.with_values(np.zeros(g.n, dtype=complex))
        rep = size_bound_check(coll, zero, 1, N=4)
        assert rep["size_star"] == 0.0 and rep["majorant"] == 0.0

    def test_translation_stability(self):
        g = grid(512, 64.0)
        coll = lattice_collection(scales=(0,), time_slots=4, freq_slots=1)
        ratios = []
        for shift in np.linspace(0.0, 0.8, 5):
            f = make_bump(2.0 + shift, 2.0, g)
            rep = size_bound_check(coll, f, 1, N=4)
            assert np.isfinite(rep["ratio"])
            ratios.append(rep["ratio"])
        mid = np.mean(ratios)
        assert all(abs(r - mid) <= 0.2 * mid for r in ratios)

    def test_stable_in_N(self):
        g = grid(512, 64.0)
        coll = lattice_collection(scales=(0,), time_slots=4, freq_slots=1)
        f = make_bump(2.0, 2.0, g)
        ratios = [size_bound_check(coll, f, 1, N=N)["ratio"] for N in (2, 4, 6)]
        assert max(ratios) <= 10 * min(ratios)


class TestProfileSeminorm:
    def test_zero_profile_impossible_but_scaled(self):
        p = default_profile()
        c0 = profile_seminorm(p, 0)
        assert c0 == pytest.approx(np.max(np.abs(p.samples.values)), rel=1e-12)

    def test_monotone_in_M(self):
        p = default_profile()
        values = [profile_seminorm(p, M) for M in (0, 1, 2)]
        assert values[0] <= values[1] <= values[2]
