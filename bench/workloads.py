"""The benchmark's workloads: seeded request generators, the calls each
request makes into `bilop`, and the oracle each request is checked against.

A workload builds its fixed state in the constructor (that work is part of
set-up time) and then yields requests one cycle at a time.  A cycle's
inputs depend only on (seed, cycle index), and its request mix is fixed, so
the same seed always gives the same requests and every run of a workload
does the same kind of work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from bilop.bumps import smooth_bump, smooth_cutoff
from bilop.model import (
    ModelSum,
    model_sum_decompose,
    model_sum_eval,
    tree_proposition_diagnostic,
)
from bilop.operators import (
    TruncationLadder,
    bht_truncated,
    eval_direct,
    eval_direct_reference,
    maximal_avg,
    maximal_freq,
    maximal_kernel,
)
from bilop.signal import (
    Interval,
    SampledFunction,
    hardy_littlewood_max,
    make_band_limited_bump,
    make_bump,
)
from bilop.symbols import (
    SingularLine,
    Symbol,
    SymbolClass,
    bht_sign_symbol,
    modulate_symbol,
    modulation_pair,
    split_low_high,
    truncate_near_line,
)
from bilop.tiles import (
    Collection,
    collection_validate,
    default_profile,
    lattice_collection,
    packet_coefficient,
    size_star,
    tri_tile_from_quarters,
    wave_packet,
)

import oracles

# Tolerances on the relative error against each oracle.
TOL_EXACT = 1e-10  # same sum by another route; eval_direct documents 1e-10
TOL_BHT = 1e-4  # log-trapezoid quadrature against the closed-form multiplier
# The grouped model path cuts packet envelopes at the profile's effective
# radius (mass tail 1e-9) and so misses the definition by about 2.5e-5, a
# known defect that `model.model_sum_eval.rel_err` reports.  This bound only
# flags gross errors.
TOL_MODEL = 1e-3

LINES = ((1.0, -2.0), (1.0, 2.0), (2.0, -1.0), (2.0, 1.0), (-1.0, 2.0))


@dataclass
class Check:
    """Outcome of one oracle check."""

    errors: dict = field(default_factory=dict)  # layer -> relative error
    failures: list = field(default_factory=list)  # reasons the request failed
    counts: dict = field(default_factory=dict)  # extra per-layer counts


@dataclass
class Request:
    kind: str
    n: int
    execute: callable  # execute(tracer) -> output
    check: callable  # check(output) -> Check
    props: dict = field(default_factory=dict)  # input properties
    inputs: tuple = ()  # the generated inputs, kept for fingerprints


def rel_err(out, ref) -> float:
    out = np.asarray(out)
    ref = np.asarray(ref)
    scale = float(np.max(np.abs(ref)))
    if scale == 0.0:
        return float(np.max(np.abs(out)))
    return float(np.max(np.abs(out - ref))) / scale


def finite(*arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(a))) for a in arrays)


def tolerance_check(layer: str, err: float, tol: float, *outputs) -> Check:
    check = Check(errors={layer: err})
    if not finite(*outputs):
        check.failures.append(f"{layer}: non-finite output")
    if not err <= tol:
        check.failures.append(f"{layer}: relative error {err:.3g} exceeds {tol:g}")
    return check


def own_symbol(tracer, symbol: Symbol) -> Symbol:
    """The symbol with its evaluator wrapped in a `symbols.eval` span."""
    if not tracer.enabled:
        return symbol
    return replace(symbol, eval=tracer.wrap("symbols.eval", symbol.eval))


def grid(n: int, spacing: float, origin: float | None = None) -> SampledFunction:
    if origin is None:
        origin = -0.5 * n * spacing
    return SampledFunction.zeros(origin, spacing, n)


# -- op_mix ------------------------------------------------------------------------


class OpMix:
    """Direct evaluation, the truncated BHT and the maximal operators."""

    name = "op_mix"

    def __init__(self, seed: int):
        self.seed = seed
        self.g512 = grid(512, 0.125)
        self.g128 = grid(128, 0.25)
        self.g_bht = grid(256, 0.25)
        self.g_mf = grid(256, 0.125)
        self.g_real = {n: grid(n, 0.125) for n in (1024, 2048)}

    def cycle(self, index: int, tracer) -> list:
        rng = np.random.default_rng([self.seed, 1, index])
        xindep = ("split", "truncated", "modulated")
        reqs = [self._xindep(rng, tracer, v) for v in xindep]
        reqs.append(self._xdep(rng, tracer))
        reqs += [self._xindep(rng, tracer, v) for v in xindep]
        reqs.append(self._bht(rng))
        reqs += [self._xindep(rng, tracer, v) for v in xindep]
        reqs.append(self._xdep(rng, tracer))
        reqs.append(self._maximal_freq(rng, tracer))
        reqs.append(self._real_maximal(rng, tracer, 1024))
        reqs.append(self._real_maximal(rng, tracer, 2048))
        return reqs

    def _line(self, rng) -> SingularLine:
        return SingularLine(*LINES[rng.integers(len(LINES))])

    def _pair(self, rng, g, line, bandwidth, a_max):
        """Inputs that meet in space and whose frequency pairs straddle the
        singular line: f sits near a0, g near -(l1/l2) a0, so every symbol
        variant sees both sides and the output is not small."""
        half = 0.25 * g.period
        a0 = rng.uniform(-a_max, a_max)
        b0 = -line.l1 / line.l2 * a0
        places = rng.uniform(-half, half, size=2)
        f, h = (
            g.with_values(sum(
                (rng.standard_normal() + 1j * rng.standard_normal())
                * make_band_limited_bump(c + rng.uniform(-1.0, 1.0), bandwidth, g,
                                         freq_center=fc + rng.uniform(-0.2, 0.2)).values
                for c in places
            ))
            for fc in (a0, b0)
        )
        return f, h

    def _xindep(self, rng, tracer, variant: str) -> Request:
        line = self._line(rng)
        base = bht_sign_symbol(line)
        f, g = self._pair(rng, self.g512, line, 1.5, 1.0)
        if variant == "split":
            low, high = split_low_high(base)
            sym = high if rng.integers(2) else low
        elif variant == "truncated":
            sym = truncate_near_line(base, line, rng.uniform(2.0, 8.0))
        else:
            shift = rng.uniform(-0.5, 0.5)
            sym = modulate_symbol(truncate_near_line(base, line, rng.uniform(2.0, 8.0)), shift)
            f, g = modulation_pair(f, g, shift)
        traced = own_symbol(tracer, sym)

        def execute(tr):
            return tr.call("operators.eval_direct.xindep", eval_direct, traced, f, g, peak=True)

        def check(out):
            ref = eval_direct_reference(sym, f, g).values
            layer = "operators.eval_direct.xindep"
            return tolerance_check(layer, rel_err(out.values, ref), TOL_EXACT, out.values)

        return Request("eval_direct.xindep", f.n, execute, check, {"xdep": 0}, (sym.name, f, g))

    def _xdep(self, rng, tracer) -> Request:
        """sigma(x, a, b) = e^{2 pi i c x} tau(a, b) with tau x-independent."""
        line = self._line(rng)
        L = rng.uniform(2.0, 8.0)
        tau = truncate_near_line(bht_sign_symbol(line), line, L)
        c = rng.uniform(-1.0, 1.0)

        def _eval(x, a, b):
            return np.exp(2j * np.pi * c * np.asarray(x)) * tau(x, a, b)

        sym = Symbol(
            eval=_eval, line=line, scale=1.0 / L, x_dependent=True,
            declared_class=SymbolClass.LINE_SCALED, name="phase_truncated_sign",
        )
        traced = own_symbol(tracer, sym)
        f, g = self._pair(rng, self.g128, line, 1.0, 0.5)

        def execute(tr):
            return tr.call("operators.eval_direct.xdep", eval_direct, traced, f, g)

        def check(out):
            ref = np.exp(2j * np.pi * c * f.x) * eval_direct(tau, f, g).values
            layer = "operators.eval_direct.xdep"
            return tolerance_check(layer, rel_err(out.values, ref), TOL_EXACT, out.values)

        return Request("eval_direct.xdep", f.n, execute, check, {"xdep": 1}, (c, L, line, f, g))

    def _bht(self, rng) -> Request:
        line = self._line(rng)
        eps, R = 0.01, 8.0
        f, g = self._pair(rng, self.g_bht, line, 1.0, 0.5)

        def execute(tr):
            return tr.call("operators.bht_truncated", bht_truncated, f, g, line, eps, R, peak=True)

        def check(out):
            exact = Symbol(
                eval=lambda x, a, b: oracles.bht_multiplier(
                    np.broadcast_to(line.form(a, b), np.broadcast(x, a, b).shape), eps, R
                ),
                line=line, x_dependent=False, name="bht_exact",
            )
            ref = eval_direct_reference(exact, f, g).values
            layer = "operators.bht_truncated"
            return tolerance_check(layer, rel_err(out.values, ref), TOL_BHT, out.values)

        return Request("bht_truncated", f.n, execute, check, inputs=(line, f, g))

    def _maximal_freq(self, rng, tracer) -> Request:
        line = self._line(rng)
        sym = truncate_near_line(bht_sign_symbol(line), line, 2.0)
        r0 = rng.uniform(0.1, 0.3)
        ladder = TruncationLadder.dyadic(r0, 128 * r0)
        f, g = self._pair(rng, self.g_mf, line, 1.5, 1.0)
        traced = own_symbol(tracer, sym)
        phi = tracer.wrap("bumps.phi", smooth_cutoff)

        def execute(tr):
            return tr.call("operators.maximal_freq", maximal_freq, traced, f, g, ladder, phi)

        def check(out):
            best = np.zeros(f.n)
            for r in ladder.radii:
                trunc = replace(
                    sym,
                    eval=lambda x, a, b, r=r: sym(x, a, b) * (1.0 - smooth_cutoff(r * line.form(a, b))),
                )
                best = np.maximum(best, np.abs(eval_direct_reference(trunc, f, g).values))
            layer = "operators.maximal_freq"
            return tolerance_check(layer, rel_err(out.values.real, best), TOL_EXACT, out.values)

        return Request("maximal_freq", f.n, execute, check, inputs=(line, ladder.radii, f, g))

    def _real_maximal(self, rng, tracer, n: int) -> Request:
        """hardy_littlewood_max of |f|^2 and |g|^2, maximal_avg over dyadic
        radii and maximal_kernel over pairs (h, r)."""
        g0 = self.g_real[n]
        h = g0.spacing
        shells = 7  # ladder radii 2^(j+1) h cover the shells [2^j h, 2^(j+1) h)
        ladder = TruncationLadder(tuple(h * 2.0 ** (j + 1) for j in range(shells)))
        L = ladder.radii[-1]
        pairs = [(h, h * 2.0**t) for t in (2, 4, 6)]
        kappa = rng.uniform(0.5, 1.0)

        def funcs():
            vals = np.zeros(n, dtype=complex)
            for _ in range(3):
                w = rng.standard_normal() + 1j * rng.standard_normal()
                vals += w * make_bump(rng.uniform(-0.25, 0.25) * g0.period, rng.uniform(2.0, 8.0), g0).values
            return g0.with_values(vals)

        f, g = funcs(), funcs()
        f2 = f.with_values(np.abs(f.values) ** 2)
        g2 = g.with_values(np.abs(g.values) ** 2)
        probes = rng.choice(n, size=3, replace=False)

        def kernel(y):
            return kappa / y

        if tracer.enabled:
            def counted(y):
                tracer.counters["operators.maximal_kernel.kernel_calls"] += 1
                return kernel(y)
        else:
            counted = kernel

        def execute(tr):
            mf = tr.call("signal.hardy_littlewood_max", hardy_littlewood_max, f2, peak=True)
            mg = tr.call("signal.hardy_littlewood_max", hardy_littlewood_max, g2, peak=True)
            avg = tr.call("operators.maximal_avg", maximal_avg, f, g, L, ladder)
            ker = tr.call("operators.maximal_kernel", maximal_kernel, f, g, counted, L, pairs)
            return mf, mg, avg, ker

        def check(outputs):
            mf, mg, avg, ker = (o.values.real for o in outputs)
            hl_err = max(
                abs(m[j] - oracles.hl_at(src.values, j)) / float(np.max(m))
                for m, src in ((mf, f2), (mg, g2))
                for j in probes
            )
            check = Check(errors={"signal.hardy_littlewood_max": hl_err})
            if not finite(mf, mg, avg, ker):
                check.failures.append("real-space maximal: non-finite output")
            if not hl_err <= TOL_EXACT:
                check.failures.append(f"hardy_littlewood_max off by {hl_err:.3g} at probes")
            # Cauchy-Schwarz: each window mean of |f(x-t) g(x+t)| is at most
            # the root of the window means of |f|^2 and |g|^2
            bound = 2.0 * np.sqrt(mf * mg)
            slack = 1e-10 * float(np.max(bound))
            if np.any(avg > bound + slack):
                check.failures.append("maximal_avg exceeds 2 sqrt(M|f|^2 M|g|^2)")
            # each dyadic shell of the kernel sum is at most 2 kappa times an average
            bound = 2.0 * kappa * shells * avg
            slack = 1e-10 * float(np.max(bound))
            if np.any(ker > bound + slack):
                check.failures.append("maximal_kernel exceeds the dyadic-shell bound")
            return check

        return Request("maximal_real", n, execute, check, inputs=(f, g, pairs, kappa, probes))


# -- tf_lattice --------------------------------------------------------------------


class TfLattice:
    """Model sums over the 80-tile 4-adic lattice, every term on the grid."""

    name = "tf_lattice"

    def __init__(self, seed: int):
        self.seed = seed
        self.grid = grid(2048, 0.125)
        self.profile = default_profile()
        self.collection = lattice_collection(scales=(0, 1), time_slots=16, freq_slots=1)
        self._packets = None  # oracle packets per (tile, slot), built on first check

    def cycle(self, index: int, tracer) -> list:
        rng = np.random.default_rng([self.seed, 2, index])
        reqs = [self._eval(rng) for _ in range(4)]
        reqs.append(self._reconstruct(rng, 64.0))
        reqs += [self._eval(rng) for _ in range(4)]
        reqs.append(self._reconstruct(rng, 16.0))
        return reqs

    def _inputs(self, rng):
        """Fresh coefficients and inputs; f and g meet at the same three
        places, so the largest terms have both packet coefficients large."""
        m = len(self.collection)
        coeffs = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        model = ModelSum.from_coefficients(self.collection, coeffs)
        places = rng.uniform(4.0, 60.0, size=3)
        f, g = (
            self.grid.with_values(sum(
                (rng.standard_normal() + 1j * rng.standard_normal())
                * make_band_limited_bump(c, 3.0, self.grid, freq_center=rng.uniform(1.2, 1.8)).values
                for c in places
            ))
            for _ in range(2)
        )
        return model, f, g

    def packets(self):
        if self._packets is None:
            self._packets = [
                [wave_packet(s.sub_tile(i), self.profile, self.grid) for i in range(3)]
                for s in self.collection
            ]
        return self._packets

    def definition(self, model, f, g) -> np.ndarray:
        return model_definition(model, self.packets(), f, g)

    def _eval(self, rng) -> Request:
        model, f, g = self._inputs(rng)

        def execute(tr):
            return tr.call("model.model_sum_eval", model_sum_eval, model, f, g, peak=True)

        def check(out):
            ref = self.definition(model, f, g)
            layer = "model.model_sum_eval"
            return tolerance_check(layer, rel_err(out.values, ref), TOL_MODEL, out.values)

        return Request("model_sum_eval", f.n, execute, check, model_props(model, f), (model, f, g))

    def _reconstruct(self, rng, length: float) -> Request:
        model, f, g = self._inputs(rng)
        interval = Interval(rng.uniform(16.0, 48.0), length)

        def execute(tr):
            parts = tr.call("model.model_sum_decompose", model_sum_decompose, model, interval)
            return parts, tr.call("model.reconstruct", parts.reconstruct, f, g)

        def check(outputs):
            parts, out = outputs
            ref = model_sum_eval(model, f, g).values
            check = tolerance_check("model.reconstruct", rel_err(out.values, ref), TOL_EXACT, out.values)
            check.counts["model.reconstruct.pieces"] = sum(1 for _ in parts.piece_keys(f))
            return check

        return Request("reconstruct", f.n, execute, check, inputs=(model, interval, f, g))


def model_definition(model, packets, f, g) -> np.ndarray:
    """The model sum from its definition, term by term, with full packets."""
    out = np.zeros(f.n, dtype=complex)
    for term in model.terms:
        p1, p2, p3 = packets[term.tile_index]
        length = model.collection.tiles[term.tile_index].time.length
        c1 = packet_coefficient(p1, f)
        c2 = packet_coefficient(p2, g)
        out += term.coeff / math.sqrt(length) * c1 * c2 * p3.values
    return out


def model_props(model, f) -> dict:
    """Input properties of a model sum, counted by the benchmark: terms,
    geometry groups and the share of terms whose envelopes sit on the grid."""
    h = f.spacing
    groups = set()
    aligned = 0
    for term in model.terms:
        s = model.collection.tiles[term.tile_index]
        groups.add((s.time.length, tuple((w.center, w.length) for w in s.subs)))
        cells = (s.time.center - f.origin) / h
        if abs(s.time.length / h - round(s.time.length / h)) < 1e-9 and abs(cells - round(cells)) < 1e-6:
            aligned += 1
    terms = len(model.terms)
    return {"terms": terms, "groups": len(groups), "aligned": aligned}


# -- tf_sparse ---------------------------------------------------------------------

# One tile layout serves every cycle and seed, so every cycle does the same
# work; the seed moves it in time, may mirror it in frequency, and draws the
# inputs, coefficients and exponents.
SPARSE_TILES = 10
SPARSE_LAYOUT_SEED = 0


def sparse_collection(rng, count: int, window: float = 32.0) -> Collection:
    """`count` distinct tri-tiles with |I| in {1, 4} on 4-adic lattices in
    [0, window), every frequency interval inside [-4, 4]."""
    tiles = {}
    while len(tiles) < count:
        length = float(rng.choice([1.0, 4.0]))
        m = int(rng.integers(0, int(window / length)))
        if length == 1.0:
            left = float(rng.choice([-4.0, 0.0]))
        else:
            left = float(rng.integers(-4, 4))
        occupied = tuple(sorted(rng.choice(4, size=3, replace=False).tolist()))
        s = tri_tile_from_quarters(Interval.from_endpoints(m * length, (m + 1) * length), left, occupied)
        tiles[s.key()] = s
    return Collection(tuple(tiles.values()))


def moved(collection: Collection, shift: float, mirror: bool) -> Collection:
    """The collection translated by `shift` in time and, with `mirror`,
    reflected in frequency; each sub-frequency keeps its slot, so every
    tree and overlap relation is unchanged."""
    tiles = []
    for s in collection:
        q = 1.0 / s.time.length
        quarters = [round((w.left - s.freq.left) / q) for w in s.subs]
        left = s.freq.left
        if mirror:
            left = -s.freq.right
            quarters = [3 - i for i in quarters]
        time_ = Interval(s.time.center + shift, s.time.length)
        tiles.append(tri_tile_from_quarters(time_, left, tuple(quarters)))
    return Collection(tuple(tiles))


class TfSparse:
    """Few tri-tiles off the grid: per-term packets and the size functionals."""

    name = "tf_sparse"

    def __init__(self, seed: int):
        self.seed = seed
        h = 0.125
        self.grid = grid(2048, h, -0.5 * 2048 * h + 0.5 * h)  # origin shifted by half a cell
        self.profile = default_profile()
        self.layout = sparse_collection(np.random.default_rng(SPARSE_LAYOUT_SEED), SPARSE_TILES)
        self._definition = None  # oracle profile, built on first check

    def profile_definition(self):
        if self._definition is None:
            self._definition = oracles.ProfileDefinition(smooth_bump)
        return self._definition

    def cycle(self, index: int, tracer) -> list:
        rng = np.random.default_rng([self.seed, 3, index])
        tiles = moved(self.layout, 4.0 * rng.integers(0, 8), bool(rng.integers(2)))
        fs = []
        for i in range(3):
            picks = rng.choice(len(tiles), size=3, replace=False)
            total = np.zeros(self.grid.n, dtype=complex)
            for p in picks:
                s = tiles.tiles[p]
                w = rng.standard_normal() + 1j * rng.standard_normal()
                fc = s.subs[i].center
                width = min(1.0, 2.0 * (0.5 / self.grid.spacing - abs(fc)))
                total += w * make_band_limited_bump(s.time.center, width, self.grid, freq_center=fc).values
            fs.append(self.grid.with_values(total))
        coeffs = rng.standard_normal((2, len(tiles))) + 1j * rng.standard_normal((2, len(tiles)))
        thetas = rng.dirichlet((2.0, 2.0, 2.0))
        thetas = tuple(thetas / thetas.sum())
        shared = {"packets": {}, "tiles": tiles, "fs": fs}
        reqs = [self._packets(rng, shared, k) for k in range(len(tiles))]
        reqs.append(self._eval(shared, ModelSum.from_coefficients(tiles, coeffs[0]), 0, 1))
        reqs.append(self._eval(shared, ModelSum.from_coefficients(tiles, coeffs[1]), 1, 2))
        reqs += [self._size_star(shared, j) for j in range(3)]
        reqs.append(self._validate(shared))
        reqs.append(self._tree(shared, thetas))
        return reqs

    def _cycle_packets(self, shared) -> list:
        """Packets of every tile as the cycle's packet requests returned them;
        any a failed request left out are made here."""
        for k, s in enumerate(shared["tiles"]):
            if k not in shared["packets"]:
                shared["packets"][k] = [wave_packet(s.sub_tile(i), self.profile, self.grid) for i in range(3)]
        return [shared["packets"][k] for k in range(len(shared["tiles"]))]

    def _table(self, shared, f):
        """Coefficients of every packet against f."""
        return [[packet_coefficient(p, f) for p in pk] for pk in self._cycle_packets(shared)]

    def _packets(self, rng, shared, k: int) -> Request:
        s = shared["tiles"].tiles[k]
        fs = shared["fs"]
        probes = rng.choice(self.grid.n, size=16, replace=False)

        def execute(tr):
            pk = [tr.call("tiles.wave_packet", wave_packet, s.sub_tile(i), self.profile, self.grid, peak=True)
                  for i in range(3)]
            cs = [[tr.call("tiles.packet_coefficient", packet_coefficient, p, f) for f in fs] for p in pk]
            return pk, cs

        def check(outputs):
            pk, cs = outputs
            shared["packets"][k] = pk
            definition = self.profile_definition()
            h = self.grid.spacing
            pk_err = 0.0
            for i, p in enumerate(pk):
                ref = definition.packet_at(s.sub_tile(i), self.grid, probes)
                amplitude = abs(definition(0.0)) / math.sqrt(s.time.length)
                pk_err = max(pk_err, float(np.max(np.abs(p.values[probes] - ref))) / amplitude)
            coef_err = max(
                abs(cs[i][j] - np.vdot(pk[i].values, f.values) * h) / math.sqrt(np.vdot(f.values, f.values).real * h)
                for i in range(3)
                for j, f in enumerate(fs)
            )
            check = tolerance_check("tiles.wave_packet", pk_err, TOL_EXACT, *(p.values for p in pk))
            check.errors["tiles.packet_coefficient"] = coef_err
            if not coef_err <= TOL_EXACT:
                check.failures.append(f"packet_coefficient off by {coef_err:.3g}")
            return check

        return Request("packets", self.grid.n, execute, check, inputs=(s, fs, probes))

    def _eval(self, shared, model, i: int, j: int) -> Request:
        """The model sum on (f_i, f_j)."""
        f, g = shared["fs"][i], shared["fs"][j]

        def execute(tr):
            return tr.call("model.model_sum_eval", model_sum_eval, model, f, g, peak=True)

        def check(out):
            ref = model_definition(model, self._cycle_packets(shared), f, g)
            layer = "model.model_sum_eval"
            return tolerance_check(layer, rel_err(out.values, ref), TOL_MODEL, out.values)

        return Request("model_sum_eval", f.n, execute, check, model_props(model, f), (model, f, g))

    def _size_star(self, shared, j: int) -> Request:
        tiles, f = shared["tiles"], shared["fs"][j]

        def execute(tr):
            return tr.call("tiles.size_star", size_star, tiles, f, j, self.profile, peak=True)

        def check(out):
            ref = oracles.size_star_from_table(tiles.tiles, self._table(shared, f), j)
            return tolerance_check("tiles.size_star", rel_err(out, ref), TOL_EXACT, out)

        return Request("size_star", f.n, execute, check, inputs=(tiles, j, f))

    def _validate(self, shared) -> Request:
        tiles = shared["tiles"]

        def execute(tr):
            return tr.call("tiles.collection_validate", collection_validate, tiles)

        def check(report):
            # Known defect: collection_validate counts each band over three
            # dyadic scales.  The disagreement is reported as a relative error
            # and a mismatch count, not as a failed request (see README.md).
            errs = []
            for got, family in ((report.time_grid["achieved"], tiles.time_family),
                                (report.freq_grid["achieved"], tiles.freq_family)):
                expected = oracles.overlap_by_scale(family)
                errs.append(abs(got - expected) / expected)
            err = max(errs)
            check = Check(errors={"tiles.collection_validate": err})
            check.counts["tiles.collection_validate.mismatches"] = int(err > 0)
            return check

        return Request("collection_validate", self.grid.n, execute, check, inputs=(tiles,))

    def _tree(self, shared, thetas) -> Request:
        tiles, fs = shared["tiles"], shared["fs"]

        def execute(tr):
            return tr.call("model.tree_proposition_diagnostic", tree_proposition_diagnostic,
                           tiles, fs[0], fs[1], fs[2], thetas, self.profile)

        def check(report):
            tables = [self._table(shared, f) for f in fs]
            left = abs(sum(
                tables[0][k][0] * tables[1][k][1] * tables[2][k][2] / math.sqrt(s.time.length)
                for k, s in enumerate(tiles)
            ))
            right = 1.0
            for i, f in enumerate(fs):
                norm = math.sqrt(np.vdot(f.values, f.values).real * f.spacing)
                size = oracles.size_star_from_table(tiles.tiles, tables[i], i)
                right *= size ** thetas[i] * norm ** (1.0 - thetas[i])
            err = max(abs(report["left"] - left) / right, abs(report["right"] - right) / right)
            return tolerance_check("model.tree_proposition_diagnostic", err, TOL_EXACT,
                                   report["left"], report["right"], report["ratio"])

        return Request("tree_proposition_diagnostic", self.grid.n, execute, check, inputs=(tiles, fs, thetas))


WORKLOADS = {w.name: w for w in (OpMix, TfLattice, TfSparse)}
