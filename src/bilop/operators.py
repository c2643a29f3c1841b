"""Direct numerical evaluation of bilinear operators defined by symbols, a
check of the paper's local estimate on that evaluation, a principal-value
quadrature for the truncated bilinear Hilbert transform, and maximal
(supremum-over-truncations) variants.

The frequency representation realized here is

    T(f, g)(x) = sum_{a,b} e^{2 pi i x (xi_a + xi_b)} sigma(x, xi_a, xi_b)
                 F(xi_a) G(xi_b) dxi^2

with F, G the continuum-calibrated spectra of `signal.dft_forward`.  With
sigma identically 1 this reproduces the pointwise product exactly.  The
reference path, the oracle of record, sums every term: O(n^3) time for
x-dependent symbols, O(n^2 log n) by row FFTs for x-independent ones.
For x-independent symbols the output depends on (a, b) only through a + b,
so `eval_direct` sums sigma F G along anti-diagonals in blocks of lattice
rows, sigma read from the symbol's 1-D profile of its line's form where it
can be, folds them mod n and takes one inverse FFT: O(n^2) time, O(n * rows)
memory, and it must match the reference path.

`local_estimate_check` measures off-diagonal decay through `eval_direct`:
it cuts both inputs off at growing distances 2^k |I| from an interval I and
reports how much the output on I changes.

Note on orientation: with this library's transform pair, the quadrature
p.v. integral f(x - l1 y) g(x - l2 y) dy/y realizes the operator whose
symbol is the complex conjugate, -i pi sign(l1 a + l2 b), of
`symbols.bht_sign_symbol`; the two evaluation routes agree after negation.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np

from .bumps import smooth_cutoff
from .signal import Interval, SampledFunction, Spectrum, dft_forward, spectral_derivative
from .symbols import SingularLine, Symbol, _times_form

__all__ = [
    "eval_direct",
    "eval_direct_reference",
    "TruncationLadder",
    "local_estimate_check",
    "bht_truncated",
    "maximal_freq",
    "maximal_avg",
    "maximal_kernel",
    "derivation_identity_check",
    "DerivationReport",
]


def _spectra(f: SampledFunction, g: SampledFunction):
    if not f.same_grid(g):
        raise ValueError("f and g must share one grid")
    return dft_forward(f), dft_forward(g)


_BATCH_POINTS = 2**16  # values per batch: lattice points of a reference row block, shifted samples in bht_truncated


def eval_direct_reference(symbol: Symbol, f: SampledFunction, g: SampledFunction) -> SampledFunction:
    """The double frequency sum over every (a, b) and output point; the oracle of record.

    x-dependent symbols: sigma per output row, summed by matrix products in
    O(n^3) time and O(n^2) memory.  x-independent ones: sigma on blocks of
    about 2^16 lattice points (rows a); one batched inverse FFT of a block's
    rows gives R[a, j] = sum_b sigma[a, b] G_b e^{2 pi i x_j xi_b}, and the
    block adds sum_a e^{2 pi i x_j xi_a} F_a R[a, j], with
    e^{2 pi i x_j xi_a} = e^{2 pi i origin xi_a} e^{2 pi i j h xi_0} w^{ja},
    w = e^{2 pi i / n} read from a table at (j a) mod n: O(n^2 log n) time,
    O(n * rows) memory, and no code shared with `eval_direct`'s fold.
    """
    F, G = _spectra(f, g)
    xi = F.x
    dxi = F.spacing
    x, n = f.x, f.n
    if symbol.x_dependent:
        A, B = np.meshgrid(xi, xi, indexing="ij")
        out = np.empty(n, dtype=complex)
        phases = np.exp(2j * np.pi * np.outer(x, xi))  # phases[j, a] = e^{2 pi i x_j xi_a}
        for j in range(n):
            M = symbol(x[j], A, B)
            left = phases[j] * F.values
            right = phases[j] * G.values
            out[j] = left @ M @ right
        return f.with_values(out * dxi * dxi)
    # phase arguments are reduced mod 1 before exponentiating
    at_origin = np.exp(2j * np.pi * np.mod(f.origin * xi, 1.0))
    Fo, Go = F.values * at_origin, G.values * at_origin
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    j = np.arange(n)
    out = np.zeros(n, dtype=complex)
    rows = max(1, _BATCH_POINTS // n)
    for a0 in range(0, n, rows):
        a = np.arange(a0, min(a0 + rows, n))
        sigma = symbol(0.0, *np.meshgrid(xi[a], xi, indexing="ij"))
        inner = np.fft.ifft(sigma * Go, axis=1)  # (1/n) sum_b sigma[a, b] G_b e^{2 pi i origin xi_b} w^{j b}
        out += Fo[a] @ (roots[np.outer(a, j) % n] * inner)
    per_j = np.exp(2j * np.pi * np.mod(2.0 * j * f.spacing * xi[0], 1.0))  # e^{2 pi i j h xi_0}, squared
    return f.with_values(out * per_j * n * dxi * dxi)


_FOLD_ROWS = 64  # lattice rows per block of the anti-diagonal fold
_PROFILE_SPAN = 64  # largest |p| + |q| of a line ratio p : q read through a profile


def _line_ratio(line: SingularLine):
    """(p, q, den) with p / den == l1, q / den == l2 and |p| + |q| <= _PROFILE_SPAN, or None."""
    for den in range(1, _PROFILE_SPAN + 1):
        p, q = round(line.l1 * den), round(line.l2 * den)
        if abs(p) + abs(q) <= _PROFILE_SPAN and p / den == line.l1 and q / den == line.l2:
            return p, q, den
    return None


def _profile_view(symbol: Symbol, F: Spectrum):
    """sigma on the n x n lattice as a read-only view of its profile, or None.

    With xi_a = (m0 + a) dxi and l1 : l2 = p : q over den, the form is
    t = dxi ((p + q) m0 + k) / den with k = p a + q b: sigma[a, b] is entry k
    of a profile, read with strides (p, q).  The integer k puts on-line
    lattice points at t = 0 exactly."""
    ratio = None if symbol.profile is None else _line_ratio(symbol.line)
    if ratio is None:
        return None
    p, q, den = ratio
    n = F.n
    lo = (n - 1) * (min(p, 0) + min(q, 0))  # the smallest k
    k = np.arange(lo, lo + (abs(p) + abs(q)) * (n - 1) + 1)
    m0 = round(F.origin / F.spacing)
    prof = np.asarray(symbol.profile(F.spacing * ((p + q) * m0 + k) / den), dtype=complex)
    step = prof.itemsize
    return np.lib.stride_tricks.as_strided(prof[-lo:], (n, n), (p * step, q * step), writeable=False)


def _fold(sigma_rows, F: Spectrum, G: Spectrum, f: SampledFunction) -> SampledFunction:
    """The x-independent double sum of `eval_direct`, by anti-diagonals.

    The phase e^{2 pi i x_j (xi_a + xi_b)} depends on (a, b) only through
    c = a + b: with xi_a = xi0 + a dxi and x_j = origin + j h it is
    e^{4 pi i xi0 origin} p_a p_b e^{2 pi i j c / n}, where
    p_a = e^{2 pi i origin dxi a} (2 xi0 h j = -j is an integer).  Summing
    P = sigma * (F p)(G p)^T along its anti-diagonals, `sigma_rows(a0, a1)`
    giving rows a0 <= a < a1 of sigma _FOLD_ROWS at a time, folding c mod n
    and one inverse FFT give the output in O(n^2) time and O(n * _FOLD_ROWS)
    memory.  Both phases are reduced mod 1 before exponentiating: the
    constant's argument reaches n/2 turns, whose rounding alone would cost
    about 1e-13 relative.
    """
    n = f.n
    dxi = F.spacing
    p = np.exp(2j * np.pi * np.mod(f.origin * dxi * np.arange(n), 1.0))
    Fp, Gp = F.values * p, G.values * p
    H = np.zeros(2 * n - 1, dtype=complex)
    # row i of a zero-padded (rows, 2n) block, read with row stride 2n - 1,
    # holds P[a0 + i, c - i] at column c: the column sums are anti-diagonals
    padded = np.zeros((_FOLD_ROWS, 2 * n), dtype=complex)
    for a0 in range(0, n, _FOLD_ROWS):
        block = padded[: min(_FOLD_ROWS, n - a0)]
        rows = len(block)
        np.multiply(sigma_rows(a0, a0 + rows), Fp[a0 : a0 + rows, None], out=block[:, :n])
        block[:, :n] *= Gp
        diagonals = block.reshape(-1)[: rows * (2 * n - 1)].reshape(rows, 2 * n - 1)
        H[a0 : a0 + rows + n - 1] += diagonals[:, : rows + n - 1].sum(axis=0)
    H[: n - 1] += H[n:]
    scale = np.exp(2j * np.pi * np.mod(2 * F.origin * f.origin, 1.0)) * dxi * dxi * n
    return f.with_values(np.fft.ifft(H[:n]) * scale)


def eval_direct(symbol: Symbol, f: SampledFunction, g: SampledFunction) -> SampledFunction:
    """Evaluate the bilinear operator of `symbol` on (f, g).

    x-independent symbols take the anti-diagonal fold in blocks of 64
    lattice rows: O(n^2) time, O(n * 64) memory, matching the reference path
    to 1e-10 relative.  sigma is a read-only strided view of `symbol.profile`
    if set and l1 : l2 is exactly p : q with |p| + |q| <= 64, else the symbol
    evaluated on each block's (rows, n) lattice points.  x-dependent symbols
    take the O(n^3) reference path.
    """
    if symbol.x_dependent:
        return eval_direct_reference(symbol, f, g)
    F, G = _spectra(f, g)
    view, xi = _profile_view(symbol, F), F.x
    if view is not None:
        return _fold(lambda a0, a1: view[a0:a1], F, G, f)
    return _fold(lambda a0, a1: symbol(0.0, *np.meshgrid(xi[a0:a1], xi, indexing="ij")), F, G, f)


# -- local estimate -----------------------------------------------------------


def local_estimate_check(symbol: Symbol, f: SampledFunction, g: SampledFunction, I: Interval) -> dict:
    """How far the output on I reaches for its inputs, through `eval_direct`.

    For R_k = 2^k |I|, k = 0, 1, ..., while the cut's support 2^(k+1) |I| is
    shorter than half the window, both inputs are multiplied by
    smooth_cutoff(d / R_k), d the distance to c(I) on the periodic window,
    and err_k = max_I |T(f_k, g_k) - T(f, g)| / max_I |T(f, g)| is reported
    with the decay per step log2(err_k / err_{k+1}).  A symbol truncated
    near its line gives errors that fall fast in k (the paper's local
    estimate); the untruncated sign symbol's barely fall.
    """
    on_I = I.mask(f)
    if not on_I.any():
        raise ValueError(f"I = {I} holds no grid point")
    P = f.period
    radii, R = [], I.length
    while 2 * R < P / 2:
        radii.append(R)
        R *= 2
    if not radii:
        raise ValueError(f"I = {I} is too long: a cut at radius |I| needs a window over {4 * I.length}")
    full = eval_direct(symbol, f, g).values[on_I]
    scale = np.max(np.abs(full))
    if scale == 0.0:
        raise ValueError(f"T(f, g) vanishes on I = {I}")
    d = np.abs(np.mod(f.x - I.center + P / 2, P) - P / 2)
    errors = []
    for R in radii:
        cut = smooth_cutoff(d / R)
        out = eval_direct(symbol, f.with_values(f.values * cut), g.with_values(g.values * cut))
        errors.append(float(np.max(np.abs(out.values[on_I] - full)) / scale))
    err = np.array(errors)
    return {
        "n": f.n,
        "h": f.spacing,
        "W": P,
        "symbol": symbol.name,
        "x_dependent": symbol.x_dependent,
        "radii": radii,
        "errors": errors,
        "decay": np.log2(err[:-1] / err[1:]).tolist(),
    }


# -- truncated bilinear Hilbert transform ------------------------------------


_GL_NODES = 12  # Gauss-Legendre nodes per panel of bht_truncated
_PANEL_RADIANS = 12.0  # mean turn of the fastest phase 2 pi Xi y across one panel


def _bht_nodes(eps: float, R: float, line: SingularLine, h: float):
    """Nodes y on [eps, R] and weights of dy / y = du: each octave is cut into
    the fewest equal panels in u = log y whose mean turn of 2 pi Xi y,
    Xi = (|l1| + |l2|) / (2h), is at most _PANEL_RADIANS."""
    k = np.arange(1, _GL_NODES)  # Golub-Welsch: the Jacobi matrix of the Legendre recurrence
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    t, vectors = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    xi_max = (abs(line.l1) + abs(line.l2)) / (2.0 * h)
    edges = np.append(eps * 2.0 ** np.arange(np.ceil(np.log2(R / eps))), R)
    u, w = [], []
    for a, b in zip(edges, edges[1:]):
        panels = max(1, int(np.ceil(2 * np.pi * xi_max * (b - a) / _PANEL_RADIANS)))
        cuts = np.linspace(np.log(a), np.log(b), panels + 1)
        half = 0.5 * np.diff(cuts)[:, None]
        u.append(cuts[:-1, None] + half * (1.0 + t))
        w.append(half * 2.0 * vectors[0] ** 2)
    return np.exp(np.concatenate(u, axis=None)), np.concatenate(w, axis=None)


def bht_truncated(f: SampledFunction, g: SampledFunction, line: SingularLine, eps: float, R: float) -> SampledFunction:
    """Quadrature of p.v. int_{eps <= |y| <= R} f(x - l1 y) g(x - l2 y) dy / y.

    12 Gauss-Legendre nodes on each panel in u = log y; each octave of
    [eps, R] has the fewest equal-u panels across which the fastest phase
    2 pi Xi y turns by at most 12 radians on average, Xi = (|l1| + |l2|) / (2h)
    the largest |l1 a + l2 b| on the frequency lattice.  The nodes depend only
    on (eps, R, line, h) and number about (|l1| + |l2|) R / h (408 at
    h = 1/4, eps = 0.01, R = 8, |l1| + |l2| = 3); the sum matches the
    closed-form multiplier to 1e-12 relative.  The +y and -y nodes are
    paired, so the even part of the integrand cancels exactly.  Shifts are
    spectral (band-limited interpolation), so inputs should be essentially
    band-limited and supported away from the periodic wrap.  Nodes go in
    batches of about 2^16 shifted values: one batched inverse FFT per input
    and sign shifts every node of a batch.
    """
    if not 0 < eps < R:
        raise ValueError(f"need 0 < eps < R, got eps={eps}, R={R}")
    if not np.isfinite(R):
        raise ValueError(f"R must be finite, got R={R}")
    if not f.same_grid(g):
        raise ValueError("f and g must share one grid")
    F, G = dft_forward(f), dft_forward(g)
    xi = F.x
    n = f.n
    # dft_inverse's origin phase and scaling; its (-1)^j factor squares to 1
    # in every product f(x - l1 y) g(x - l2 y) and is left out
    base = np.exp(2j * np.pi * f.origin * xi) * F.spacing * n
    # drop the unpaired Nyquist bin: non-integer shifts of it carry a sign
    # ambiguity that would break the exact +-y cancellation below
    base[0] = 0.0
    Fb, Gb = F.values * base, G.values * base
    y, w = _bht_nodes(eps, R, line, f.spacing)
    out = np.zeros(n, dtype=complex)
    chunk = max(1, _BATCH_POINTS // n)
    for lo in range(0, len(y), chunk):
        yk = y[lo : lo + chunk, None]
        e1 = np.exp(-2j * np.pi * line.l1 * yk * xi)
        e2 = np.exp(-2j * np.pi * line.l2 * yk * xi)
        plus = np.fft.ifft(Fb * e1, axis=1) * np.fft.ifft(Gb * e2, axis=1)
        minus = np.fft.ifft(Fb * e1.conj(), axis=1) * np.fft.ifft(Gb * e2.conj(), axis=1)
        out += w[lo : lo + chunk] @ (plus - minus)
    return f.with_values(out)


# -- maximal operators --------------------------------------------------------


@dataclass(frozen=True)
class TruncationLadder:
    """Strictly increasing, finite, positive truncation radii for maximal sups."""

    radii: tuple

    def __post_init__(self):
        if len(self.radii) == 0:
            raise ValueError("radii: empty truncation ladder")
        r = list(self.radii)
        if not all(isinstance(x, numbers.Real) and np.isfinite(x) and x > 0 for x in r):
            raise ValueError(f"radii must be finite positive scalars, got {self.radii}")
        if any(not lo < hi for lo, hi in zip(r, r[1:])):
            raise ValueError("radii must be strictly increasing")

    @classmethod
    def dyadic(cls, r_min: float, r_max: float, per_octave: int = 1) -> "TruncationLadder":
        if not 0 < r_min < np.inf:
            raise ValueError(f"r_min must be finite and positive, got {r_min}")
        if not r_min < r_max < np.inf:
            raise ValueError(f"r_max must be finite and above r_min = {r_min}, got {r_max}")
        if not per_octave > 0:
            raise ValueError(f"per_octave must be positive, got {per_octave}")
        count = max(int(np.ceil(np.log2(r_max / r_min) * per_octave)) + 1, 2)
        return cls(tuple(np.geomspace(r_min, r_max, count)))


def maximal_freq(
    symbol: Symbol,
    f: SampledFunction,
    g: SampledFunction,
    ladder: TruncationLadder,
    phi=smooth_cutoff,
) -> SampledFunction:
    """Pointwise max over the ladder of |T with symbol sigma * (1 - phi(r * form))|,
    `form` the linear form of `symbol.line`.

    `phi` is smooth and equal to 1 near 0, so each truncation removes the
    part of the symbol within ~1/r of the singular line.
    """
    line = symbol.line
    if line is None:
        raise ValueError("maximal_freq needs a singular line")
    best = np.zeros(f.n)
    for r in ladder.radii:
        trunc = _times_form(symbol, line, lambda t, r=r: 1.0 - phi(r * t), name=symbol.name + "_maxtrunc")
        best = np.maximum(best, np.abs(eval_direct(trunc, f, g).values))
    return f.with_values(best.astype(complex))


def _avg_radius_cells(r: float, h: float) -> int:
    """Half-width in cells of the snapped symmetric average window.

    Snaps down, so the effective radius (2M+1)h/2 never exceeds the
    requested one (radii below h/2 use the single-cell window).
    """
    return max(int(np.floor(r / h - 0.5 + 1e-12)), 0)


def maximal_avg(
    f: SampledFunction,
    g: SampledFunction,
    L: float,
    ladder: TruncationLadder,
) -> SampledFunction:
    """sup over ladder radii r <= L of (1/r) int_{|t| <= r} |f(x-t) g(x+t)| dt.

    Radii snap to half-integer grid multiples r_hat = (2M+1)h/2 so each
    average is the plain mean over a symmetric window of grid shifts; the
    constant pair f = g = 1 then yields exactly 2 at every radius.  One pass
    over the ladder in O(n) memory: a running window sum gains only the
    shifts +-m each radius adds, so the cost is O(n) per grid shift of the
    largest radius.
    """
    if not f.same_grid(g):
        raise ValueError("f and g must share one grid")
    if any(r > L * (1 + 1e-12) for r in ladder.radii):
        raise ValueError("ladder radii must lie in (0, L]")
    h = f.spacing
    af = np.abs(f.values)
    ag = np.abs(g.values)
    best = np.zeros(f.n)
    acc = af * ag  # the running window sum over the shifts |m| <= summed
    summed = 0
    for r in ladder.radii:
        # the ladder increases, so the snapped half-width never decreases
        M = _avg_radius_cells(r, h)
        for m in range(summed + 1, M + 1):
            acc += np.roll(af, m) * np.roll(ag, -m) + np.roll(af, -m) * np.roll(ag, m)
        summed = M
        r_hat = (2 * M + 1) * h / 2.0
        best = np.maximum(best, acc * h / r_hat)
    return f.with_values(best.astype(complex))


def maximal_kernel(
    f: SampledFunction,
    g: SampledFunction,
    kernel,
    L: float,
    pairs,
) -> SampledFunction:
    """sup over (eps, r) pairs of |int_{eps <= |y| <= r} f(x-y) g(x+y) K(y) dy|.

    `kernel` is a callable K(y) declared to satisfy |K(y)| <= C/|y| and
    |K'(y)| <= C/|y|^2; quadrature nodes are the grid shifts y = m h with
    +-y paired exactly.
    """
    if not f.same_grid(g):
        raise ValueError("f and g must share one grid")
    h = f.spacing
    best = np.zeros(f.n)
    for eps, r in pairs:
        if not 0 < eps < r <= L * (1 + 1e-12):
            raise ValueError(f"malformed truncation pair ({eps}, {r}): need 0 < eps < r <= L")
        m_lo = max(int(np.ceil(eps / h)), 1)
        m_hi = int(np.floor(r / h))
        acc = np.zeros(f.n, dtype=complex)
        for m in range(m_lo, m_hi + 1):
            y = m * h
            plus = np.roll(f.values, m) * np.roll(g.values, -m)   # f(x - y) g(x + y)
            minus = np.roll(f.values, -m) * np.roll(g.values, m)  # f(x + y) g(x - y)
            acc += (plus * kernel(y) + minus * kernel(-y)) * h
        best = np.maximum(best, np.abs(acc))
    return f.with_values(best.astype(complex))


# -- derivation identity ------------------------------------------------------


@dataclass(frozen=True)
class DerivationReport:
    order: int
    max_abs_discrepancy: float
    lhs_scale: float


_FD_STEP = 1e-2  # x step of the finite-difference symbol derivatives


def _x_derivative_symbol(symbol: Symbol, order: int) -> Symbol:
    """Fourth-order central finite difference of sigma in x, orders 0..2."""
    if order == 0:
        return symbol
    if order == 1:
        def _eval(x, a, b):
            return (
                -symbol(x + 2 * _FD_STEP, a, b)
                + 8 * symbol(x + _FD_STEP, a, b)
                - 8 * symbol(x - _FD_STEP, a, b)
                + symbol(x - 2 * _FD_STEP, a, b)
            ) / (12 * _FD_STEP)
    elif order == 2:
        def _eval(x, a, b):
            return (
                -symbol(x + 2 * _FD_STEP, a, b)
                + 16 * symbol(x + _FD_STEP, a, b)
                - 30 * symbol(x, a, b)
                + 16 * symbol(x - _FD_STEP, a, b)
                - symbol(x - 2 * _FD_STEP, a, b)
            ) / (12 * _FD_STEP * _FD_STEP)
    else:
        raise ValueError("x-derivative implemented for orders 0..2")
    return replace(symbol, eval=_eval, name=f"{symbol.name}_dx{order}")


def derivation_identity_check(
    symbol: Symbol,
    f: SampledFunction,
    g: SampledFunction,
    order: int,
) -> DerivationReport:
    """Check D^n T(f, g) = sum_{i+j+k=n} n!/(i! j! k!) T_{d_x^k sigma}(D^i f, D^j g).

    The left side differentiates the evaluated output spectrally; the right
    side evaluates the operator on spectrally differentiated inputs with
    finite-difference x-derivatives of the symbol.  An x-independent symbol
    has d_x^k sigma = 0 for k > 0, so only its k = 0 terms are summed.
    Inputs must be band limited with margin (output frequencies live at sums
    of input frequencies), or the two sides see different aliasing.
    """
    from math import factorial

    lhs = spectral_derivative(eval_direct(symbol, f, g), order)
    rhs = np.zeros(f.n, dtype=complex)
    derivs_f = [f] + [spectral_derivative(f, i) for i in range(1, order + 1)]
    derivs_g = [g] + [spectral_derivative(g, j) for j in range(1, order + 1)]
    for k in range(order + 1 if symbol.x_dependent else 1):
        sym_k = _x_derivative_symbol(symbol, k)
        for i in range(order - k + 1):
            j = order - k - i
            coeff = factorial(order) // (factorial(i) * factorial(j) * factorial(k))
            rhs += coeff * eval_direct(sym_k, derivs_f[i], derivs_g[j]).values
    disc = float(np.max(np.abs(lhs.values - rhs)))
    return DerivationReport(
        order=order,
        max_abs_discrepancy=disc,
        lhs_scale=float(np.max(np.abs(lhs.values))),
    )
