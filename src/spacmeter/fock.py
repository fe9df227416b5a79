"""Truncated number-basis engine: the matrix oracle for the pointer readout.

Everything here is basis-exact linear algebra on explicit vectors: the
pointer state is written out in the number basis, displacements come from a
stable scaled-Laguerre recurrence, and all expectation values come from
tridiagonal ladder action.  By design this module imports nothing from the
closed-form engine, so agreement between the two is meaningful evidence
rather than circular bookkeeping.

Truncation is certified, not assumed.  One cutoff ladder per parameter point
(`branch_bundle`) grows the cutoff until the pointer tail, the pointer mass
outside the displacement's safe block, the guard bands of both displaced
branches and, where the selection has a weak value, the guard band of the
kept combination all fall below TAIL_TOL, and raises
TruncationInsufficient if HARD_DIM_CAP is reached first.  The resulting
BranchBundle holds the pointer and both displaced branches at that cutoff;
the kept state, the transition value, the keep-everything moments, the
shifts and the Fisher information in the strength are all reads of it.
`spac_state` alone keeps a pointer-only ladder.

The strength is real, so every displacement is D(+-|mu|) with real
entries.  One recurrence pass (`_tables`) computes them for a batch of |mu|
at one cutoff as real banded tables: each keeps only the lanes (diagonals)
that a Laguerre bound cannot certify below BAND_FLOOR, so a pass costs
O(dim W) for a band W lanes wide, and two banded products over windows of
the pointer state apply a table to it for both signs.
Everything a rung computes before the kept-combination gate (the pointer,
both displaced branches and their gates) does not depend on the selection,
so it is cached per (pointer, strength, cutoff) in a byte-bounded LRU of
read-only vectors; the selections of one sweep point, and the snr, qfi and
transition_moment calls at one point, share it.  `warm` fills that cache
for a slab of (pointer, strength) keys at once, ordered by cutoff and
strength, so each distinct table is built once per slab, batched with the
slab's other strengths at its cutoff, and applied to every pointer that
needs it.  A single cold rung is a slab of one through the same code, so a
warmed rung and a cold one are bit for bit the same.  `displacement_operator`
scatters a band into the dense complex matrix, for verify and the tests.
"""

from __future__ import annotations

import cmath
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .model import (
    Coupling,
    OrthogonalSelection,
    PointerMoments,
    PointerParams,
    SelectionParams,
    postselection_probability,
    weak_value,
)

# Columns that put more than this much mass past the cutoff are outside the
# safe subspace.
SAFE_COLUMN_LOSS = 1e-12

# A displacement table keeps the lanes up to the first whose entries are all
# certified below this magnitude (_band_width); the rest are never computed.
BAND_FLOOR = 1e-40

# Every gate's mass bound, the width of each guard band, and the cutoff
# past which the ladder (doubling from its starting cutoff) gives up.
TAIL_TOL = 1e-14
GUARD_BAND = 8
HARD_DIM_CAP = 4096

# The rung cache (_branches) holds at most this many bytes: each entry's
# vectors plus _ENTRY_OVERHEAD for its key and tuple, so that rejected rungs
# (cached as None) count too.  warm fills at most half of it.
RUNG_CACHE_BYTES = 16 << 20
_ENTRY_OVERHEAD = 1024

# One recurrence pass (_tables) allocates at most this many bytes (_pass_bytes);
# a batch of strengths at one cutoff is split into chunks this size, and a
# single table larger than it is a chunk of its own.
TABLE_CHUNK_BYTES = 1 << 20


class TruncationInsufficient(RuntimeError):
    """The Fock cutoff hit its cap before convergence could be certified."""


@dataclass(frozen=True)
class TruncationPolicy:
    """Where the cutoff ladder starts.

    initial_dim of None lets the starting cutoff be sized from the pointer
    amplitude and the displacement reach; an explicit value overrides that.
    """

    initial_dim: int | None = None

    def __post_init__(self) -> None:
        if self.initial_dim is not None and self.initial_dim < 8:
            raise ValueError("initial_dim must be at least 8")

    def starting_dim(self, pointer: PointerParams, strength: float) -> int:
        if self.initial_dim is not None:
            return min(self.initial_dim, HARD_DIM_CAP)
        return _first_cutoff(pointer, strength)


def _first_cutoff(pointer: PointerParams, strength: float) -> int:
    """The ladder's default starting cutoff, from the pointer amplitude and the displacement reach."""
    # Displaced support concentrates near (r + strength/2)^2 photons;
    # the root is clamped first so that no reach past the cap overflows.
    reach = min(pointer.r + abs(strength) / 2.0 + 6.0, math.sqrt(HARD_DIM_CAP)) ** 2
    dim = max(64, math.ceil(reach))
    dim = ((dim + 31) // 32) * 32
    return min(dim, HARD_DIM_CAP)


@dataclass(frozen=True)
class FockVector:
    """Truncated amplitude vector with its convergence certificate."""

    amplitudes: np.ndarray
    n_max: int
    tail_mass: float


@dataclass(frozen=True)
class FockOperator:
    """Dense operator with the column range its truncation kept trustworthy."""

    matrix: np.ndarray
    safe_dim: int

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])

    def unitarity_defect(self) -> float:
        """Max deviation of adjoint(D) D from identity on the safe subspace."""
        if self.safe_dim == 0:
            return float("inf")
        block = self.matrix[:, : self.safe_dim]
        gram = block.conj().T @ block
        gram -= np.eye(self.safe_dim)
        return float(np.max(np.abs(gram)))


@dataclass(frozen=True)
class AssembledState:
    """Normalized kept-outcome pointer state plus the raw combination norm."""

    state: FockVector
    norm_sq: float                # squared norm of the two-branch combination
    success_probability: float    # exact strength-dependent keep probability


@lru_cache(maxsize=32)
def _log_factorials(size: int) -> np.ndarray:
    """log(k!) for k = 0 .. size - 1, read-only and shared by the builds at one size."""
    table = np.array([math.lgamma(k + 1.0) for k in range(size)])
    table.flags.writeable = False
    return table


def _band_width(half: float, dim: int) -> int:
    """The lanes d < W of the table at |mu| = half that hold every entry above BAND_FLOOR.

    With x = |mu|^2, DLMF 18.14.8 (|L_n^(d)(x)| <= C(n+d, n) e^(x/2)) bounds
    each entry by (x (n+d))^(d/2) / d!.  Every entry the recurrence computes,
    spill lanes included, has n + d < 2 dim, so lane d is bounded by
    (2 x dim)^(d/2) / d!, which falls with d from d = sqrt(2 x dim) on.  W is
    the first lane from there whose bound is below BAND_FLOOR, or dim.
    """
    x = half * half
    if x == 0.0:
        return 1
    reach = 2.0 * x * dim
    lanes = np.arange(math.ceil(math.sqrt(reach)), dim)
    bound = lanes * (0.5 * math.log(reach)) - _log_factorials(dim)[lanes]
    below = bound < math.log(BAND_FLOOR)
    return int(lanes[np.argmax(below)]) if below.any() else dim


def _pass_bytes(count: int, width: int, dim: int) -> int:
    """What one _tables pass allocates at most, for count tables at most width lanes wide.

    The bands, the roots (whose rows later hold the squared spill), the
    step's spare row, the loss rows and the spill mask, plus the iteration
    buffers numpy takes for up to three operands of a ufunc that it cannot
    stride through directly (8192 elements each) and a page for small
    vectors and views.
    """
    arrays = count * (width + dim) * width + dim * width + count * (width + dim)
    return 8 * arrays + width * width + 3 * 8 * 8192 + 4096


def _tables(halves, dim: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Banded displacement tables for a batch of |mu| at one cutoff, and each column's loss.

    One pass of the scaled associated-Laguerre recurrence runs on the entries
        t_n(d) = sqrt(n! / (n+d)!) |mu|^d exp(-|mu|^2/2) L_n^(d)(|mu|^2),
    all bounded by 1, so it stays stable far past the cutoff where the bare
    prefactor-times-polynomial form overflows.  Each lane d is a recurrence
    in n of its own, so a table keeps only its lanes d < W (_band_width);
    every entry it drops is below BAND_FLOOR.  Its band has W rows of zeros
    and then t_n(d) at row W + n, lane d: the dense table T holds it at row n,
    column n + d, and _apply reads D(|mu|) off it.  The roots sqrt(n (n+d))
    and the factors (2n - 1 + d) - |mu|^2 are formed once per pass, the
    factors in the rows they multiply, so each step is four ufunc calls on one
    band row.  The batch runs side by side at its widest W, the lanes past a
    table's own W staying zero, so each band and loss row is bit for bit the
    one a batch of one gives, and every band entry the one the full-width
    recurrence gives.

    At step n the recurrence also holds column n's rows past the cutoff, in
    lanes d >= dim - n; their squared sum is the column's truncation loss,
    and only the last W - 1 rows have any.  Rows from n+dim on are never
    computed.  They carry mass only once |mu|^2 nears dim, and then column 0
    already closes the safe block: its entries are the directly evaluated
    starting values, so its norm deficit is its loss to full precision.
    Later columns' norm deficits are not used, because recurrence roundoff
    makes them drift upward with the column index whatever the cutoff.
    """
    batch = len(halves)
    widths = [_band_width(h, dim) for h in halves]
    width = max(widths)
    bands = np.zeros((width + dim, batch, width))  # band row, table, lane
    steps = np.arange(dim, dtype=np.float64)
    lanes = np.arange(width, dtype=np.float64)
    roots = np.add(steps[:, None], lanes)  # n + d, then sqrt(n (n + d))
    for b, h in enumerate(halves):
        factors = bands[width + 1 :, b]  # (2n - 1 + d) - |mu|^2 for n >= 1
        np.add(roots[1:], steps[1:, None] - 1.0, out=factors)
        factors -= h ** 2
    roots *= steps[:, None]
    np.sqrt(roots, out=roots)
    for first, h, w in zip(bands[width], halves, widths):
        if h == 0.0:
            first[0] = 1.0  # D(0) is the identity, and the recurrence keeps it exact
        else:
            first[:w] = np.exp(-0.5 * h ** 2 + lanes[:w] * math.log(h) - 0.5 * _log_factorials(dim)[:w])
    grid = bands[:, 0] if batch == 1 else bands  # one-dimensional rows step faster
    spare = np.empty(grid.shape[1:])
    rows = zip(grid[width + 1 :], grid[width:], grid[width - 1 :], roots, roots[1:])
    for row, prev, prev2, root_prev, root in rows:
        np.multiply(row, prev, row)
        np.multiply(prev2, root_prev, spare)
        np.subtract(row, spare, row)
        np.divide(row, root, row)
    tables, loss = [], np.zeros((batch, dim))
    for b, (w, loss_row) in enumerate(zip(widths, loss)):
        band = bands[width - w :, b, :w]
        first = band[w]
        loss_row[0] = 1.0 - np.einsum("d,d->", first, first)
        # row dim + 1 + k holds column dim - w + 1 + k, whose spill lanes are
        # d >= w - 1 - k: with the lanes reversed, the lower triangle
        spill = roots[: w - 1, :w]  # the roots are spent: their rows hold the squares
        np.square(band[dim + 1 :, ::-1], out=spill)
        spill[~np.tri(w - 1, w, dtype=bool)] = 0.0
        loss_row[dim - w + 1 :] = np.einsum("kd->k", spill)
        tables.append(band)
    return tables, loss


def _safe_dim(loss: np.ndarray) -> int:
    """Columns before the first whose loss past the cutoff exceeds SAFE_COLUMN_LOSS."""
    over = loss > SAFE_COLUMN_LOSS
    return len(loss) if not over.any() else int(np.argmax(over))


@lru_cache(maxsize=32)
def _parity(size: int) -> np.ndarray:
    """(-1)^m for m = 0 .. size - 1, read-only and shared by the products at one size."""
    signs = np.ones(size)
    signs[1::2] = -1.0
    signs.flags.writeable = False
    return signs


def _apply(band: np.ndarray, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D(|mu|) psi and D(-|mu|) psi = D(|mu|)^T psi from one band of _tables.

    With T the dense table and Z = diag((-1)^m), D(|mu|) = T^T + Z T Z - diag(T):
    T^T is its lower triangle and the upper one carries the (-1)^d of
    (-mu*)^d.  So both vectors come from T x and T^T x, x the real and
    imaginary parts of psi and of Z psi.  Both are banded products over
    windows of x padded with W - 1 zeros on each side: (T x)_n sums
    band[W + n, d] x_{n+d}, whose padding hides the spill lanes, and
    (T^T x)_m sums band[W + m - d, d] x_{m-d}, read through a skewed view of
    the band that starts in its rows of zeros.
    """
    dim, width = len(psi), band.shape[1]
    z = _parity(dim)
    padded = np.zeros((4, dim + 2 * (width - 1)))
    parts = padded[:, width - 1 : width - 1 + dim]
    parts[0], parts[1] = psi.real, psi.imag
    np.multiply(parts[:2], z, out=parts[2:])
    windows = sliding_window_view(padded, width, axis=1)  # windows[p, k, j] = x_p[k + j - (W - 1)]
    rows = band[width:]
    pitch, item = band.strides
    # skew[m, j] = band[m + 1 + j, W - 1 - j], the entry of lane d = W - 1 - j that meets x_{m-d}
    skew = as_strided(band[1:, width - 1 :], (dim, width), (pitch, pitch - item))
    along = np.einsum("pmj,mj->pm", windows[:, :dim], skew)  # T^T x for each part
    against = np.einsum("pnd,nd->pn", windows[:, width - 1 :], rows)  # T x for each part
    on_diag = parts[:2] * rows[:, 0]
    up = along[:2] + z * against[2:] - on_diag
    down = against[:2] + z * along[2:] - on_diag
    return up[0] + 1j * up[1], down[0] + 1j * down[1]


def displacement_operator(mu: complex, n_max: int) -> FockOperator:
    """Dense displacement matrix in the number basis, with safe-subspace size.

    D(mu) = R D(|mu|) R^dagger with R = diag(exp(i m arg mu)), D(|mu|) read off
    the band of a batch of one scattered into the dense table.
    """
    if n_max < 8:
        raise ValueError("n_max must be at least 8")
    mu, dim = complex(mu), int(n_max)
    bands, loss = _tables([abs(mu)], dim)
    band = bands[0]
    width = band.shape[1]
    # wide[n, n + d] = band[W + n, d]; the spill lands in the columns past dim
    wide = np.zeros((dim, dim + width))
    pitch, item = wide.strides
    as_strided(wide, (dim, width), (pitch + item, item))[:] = band[width:]
    table, z = wide[:, :dim], _parity(dim)
    real = table.T + z[:, None] * table * z - np.diag(np.diagonal(table))
    phase = np.exp(1j * cmath.phase(mu) * np.arange(dim))
    matrix = phase[:, None] * real * phase.conj()
    matrix.flags.writeable = False
    return FockOperator(matrix=matrix, safe_dim=_safe_dim(loss[0]))


def _spac_amplitudes(pointer: PointerParams, dim: int) -> tuple[np.ndarray, float]:
    """Normalized pointer amplitudes and the exact mass lost to truncation.

    A cutoff still inside the pointer's bulk (r^2 >= dim + 63) has no honest
    tail bound: its tail is infinite and no amplitude is built.
    """
    if dim < 2:
        raise ValueError("need at least two levels")
    v = np.zeros(dim, dtype=np.complex128)
    if pointer.r == 0.0:
        v[1] = 1.0  # adding a photon to vacuum gives the one-photon state
        return v, 0.0
    if pointer.r * pointer.r / (dim + 63.0) >= 1.0:
        return v, math.inf
    n = np.arange(1.0, dim)
    # amplitude(n) = gamma exp(-r^2/2) r^(n-1) sqrt(n) / sqrt((n-1)!)
    log_mag = (
        0.5 * math.log(pointer.norm_factor_sq)
        - 0.5 * pointer.r * pointer.r
        + (n - 1.0) * math.log(pointer.r)
        + 0.5 * np.log(n)
        - 0.5 * _log_factorials(dim)[:-1]
    )
    v[1:] = np.exp(log_mag) * np.exp(1j * (n - 1.0) * pointer.theta)
    norm_sq = float(np.vdot(v, v).real)
    v /= math.sqrt(norm_sq)
    return v, _spac_tail(pointer, dim)


def _spac_tail(pointer: PointerParams, dim: int) -> float:
    """Ideal-state mass above the cutoff, summed from the omitted terms.

    1 - norm_sq would be swamped by ~1e-14 summation roundoff, which no
    cutoff growth can shrink; the series terms themselves underflow cleanly.
    The cutoff lies past the bulk (r^2 < dim + 63), so the geometric bound
    on the remainder holds.
    """
    r_sq = pointer.r * pointer.r
    base = math.log(pointer.norm_factor_sq) - r_sq
    log_r_sq = math.log(r_sq)
    total = 0.0
    log_w = 0.0
    for k in range(dim, dim + 64):
        log_w = base + (k - 1.0) * log_r_sq + math.log(k) - math.lgamma(k + 1.0)
        total += math.exp(log_w)
    ratio = r_sq / (dim + 63.0)
    return total + math.exp(log_w) * ratio / (1.0 - ratio)


def _cutoffs(pointer: PointerParams, strength: float, policy: TruncationPolicy):
    """The cutoff ladder; asking past the cap raises TruncationInsufficient."""
    dim = policy.starting_dim(pointer, strength)
    while True:
        yield dim
        if dim >= HARD_DIM_CAP:
            raise TruncationInsufficient(
                f"no convergence below n_max={HARD_DIM_CAP} "
                f"(r={pointer.r}, strength={strength}, tail_tol={TAIL_TOL})"
            )
        dim = min(HARD_DIM_CAP, 2 * dim)


def _band_mass(v: np.ndarray) -> float:
    seg = v[-GUARD_BAND:]
    return float(np.vdot(seg, seg).real)


def _kept_combination(weak: complex, up: np.ndarray, down: np.ndarray) -> tuple[np.ndarray, float]:
    """Normalized kept branch combination and its raw squared norm."""
    combo = (1.0 + weak) * up + (1.0 - weak) * down
    norm_sq = float(np.vdot(combo, combo).real)
    return combo / math.sqrt(norm_sq), norm_sq


@lru_cache(maxsize=32)
def _roots(size: int) -> np.ndarray:
    """sqrt(1) .. sqrt(size - 1), read-only and shared by the ladder actions at one size."""
    roots = np.sqrt(np.arange(1.0, size))
    roots.flags.writeable = False
    return roots


def _ladder_action(v: np.ndarray, lower: bool) -> np.ndarray:
    """a v (lower) or adag v on the truncated basis, by tridiagonal action."""
    roots = _roots(len(v))
    out = np.zeros(len(v), dtype=np.complex128)
    if lower:
        out[:-1] = roots * v[1:]
    else:
        out[1:] = roots * v[:-1]
    return out


def _ladder_means(v: np.ndarray) -> tuple[complex, complex, float]:
    """(<a>, <a^2>, <n>) by tridiagonal ladder action, no dense matrices."""
    av = _ladder_action(v, lower=True)
    a2v = _ladder_action(av, lower=True)
    mean_a = complex(np.vdot(v, av))
    mean_a2 = complex(np.vdot(v, a2v))
    mean_n = float(np.vdot(av, av).real)
    return mean_a, mean_a2, mean_n


def _quad_moments(v: np.ndarray, sigma: float) -> tuple[float, float, float, float, float]:
    """(meanX, meanP, meanX2, meanP2, meanN) for a normalized vector."""
    mean_a, mean_a2, mean_n = _ladder_means(v)
    mean_x = 2.0 * sigma * mean_a.real
    mean_p = mean_a.imag / sigma
    mean_x2 = sigma * sigma * (2.0 * mean_a2.real + 2.0 * mean_n + 1.0)
    mean_p2 = (2.0 * mean_n + 1.0 - 2.0 * mean_a2.real) / (4.0 * sigma * sigma)
    return mean_x, mean_p, mean_x2, mean_p2, mean_n


def _pointer_moments(mean_x, mean_p, mean_x2, mean_p2, mean_n) -> PointerMoments:
    return PointerMoments(
        position_mean=mean_x,
        momentum_mean=mean_p,
        position_variance=mean_x2 - mean_x * mean_x,
        momentum_variance=mean_p2 - mean_p * mean_p,
        mean_excitation=mean_n,
    )


def moments(state: FockVector | np.ndarray, pointer: PointerParams) -> PointerMoments:
    """Quadrature statistics of a normalized state for the given pointer width."""
    v = state.amplitudes if isinstance(state, FockVector) else np.asarray(state)
    return _pointer_moments(*_quad_moments(v, pointer.sigma))


@dataclass(frozen=True, eq=False)
class BranchBundle:
    """A point's pointer state and both displaced branches at its certified cutoff.

    Every oracle observable of the point is a read of it.  `kept` is None
    only where the selection has no weak value (phi = pi).
    """

    sel: SelectionParams
    pointer: PointerParams
    coupling: Coupling
    psi: np.ndarray       # pointer state
    up: np.ndarray        # D(+strength/2) psi
    down: np.ndarray      # D(-strength/2) psi
    n_max: int
    tail_mass: float      # pointer tail plus the kept state's guard-band mass
    kept: AssembledState | None

    @cached_property
    def base(self) -> PointerMoments:
        return moments(self.psi, self.pointer)

    @cached_property
    def kept_moments(self) -> PointerMoments:
        return moments(self.kept.state, self.pointer)

    def kept_shift(self) -> tuple[float, float]:
        """Kept minus initial pointer means, (position, momentum)."""
        kept, base = self.kept_moments, self.base
        return kept.position_mean - base.position_mean, kept.momentum_mean - base.momentum_mean

    @cached_property
    def weighted(self) -> np.ndarray:
        """C, the kept combination's observable-weighted twin; sigma_x flips the reverse branch."""
        a = weak_value(self.sel)
        return (1.0 + a) * self.up - (1.0 - a) * self.down

    def transition(self) -> complex:
        """<B|C> / <B|B>, B the kept combination and C its observable-weighted twin."""
        kept = self.kept
        return complex(np.vdot(kept.state.amplitudes, self.weighted)) / math.sqrt(kept.norm_sq)

    def fisher(self) -> float:
        """Fisher information of the normalized kept state in the strength g, exactly.

        d/dg D(+-g/2) = +-(1/2) G D(+-g/2) with G = adag - a, so the kept combination
        B has dB = G C / 2, and F = 4 (<dB|dB> / N - |<B|dB>|^2 / N^2), N = <B|B>.
        """
        kept, c = self.kept, self.weighted
        g_c = _ladder_action(c, lower=False) - _ladder_action(c, lower=True)  # 2 dB
        if _band_mass(g_c) > 4.0 * kept.norm_sq * TAIL_TOL:
            raise TruncationInsufficient(f"strength derivative past the guard band, n_max={self.n_max}")
        overlap = complex(np.vdot(kept.state.amplitudes, g_c))
        return (float(np.vdot(g_c, g_c).real) - abs(overlap) ** 2) / kept.norm_sq

    @cached_property
    def unconditioned(self) -> PointerMoments:
        """Keep-everything statistics, the sigma_x-population mixture of the branches.

        The system branches are orthogonal, so the pointer branches do not interfere.
        """
        sel = self.sel
        phase = cmath.exp(1j * sel.delta) * math.sin(sel.phi / 2.0)
        w_up = abs(math.cos(sel.phi / 2.0) + phase) ** 2 / 2.0
        w_dn = abs(math.cos(sel.phi / 2.0) - phase) ** 2 / 2.0
        m_up = _quad_moments(self.up, self.pointer.sigma)
        m_dn = _quad_moments(self.down, self.pointer.sigma)
        return _pointer_moments(*(w_up * u + w_dn * d for u, d in zip(m_up, m_dn)))

    def unconditioned_shift(self) -> float:
        return self.unconditioned.position_mean - self.base.position_mean


_MISS = object()


class _RungCache:
    """Least-recently-used rungs keyed on (pointer, strength, cutoff), bounded in bytes."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.used = 0
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key):
        """The entry under key, freshened, or _MISS."""
        with self._lock:
            if key not in self._entries:
                return _MISS
            self._entries.move_to_end(key)
            return self._entries[key]

    def put(self, key, entry) -> None:
        with self._lock:
            if key in self._entries:
                return
            self._entries[key] = entry
            self.used += _entry_bytes(entry)
            while self.used > self.limit:
                _, old = self._entries.popitem(last=False)
                self.used -= _entry_bytes(old)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.used = 0


def _entry_bytes(entry) -> int:
    return _ENTRY_OVERHEAD + (0 if entry is None else sum(v.nbytes for v in entry if isinstance(v, np.ndarray)))


_RUNGS = _RungCache(RUNG_CACHE_BYTES)


def _displaced(psi, tail, band, safe_dim):
    """A rung's entry from its pointer and its displacement band, or None at a gate."""
    beyond = psi[safe_dim:]
    if float(np.vdot(beyond, beyond).real) > TAIL_TOL:
        return None
    up, down = _apply(band, psi)
    if _band_mass(up) > TAIL_TOL or _band_mass(down) > TAIL_TOL:
        return None
    for v in (psi, up, down):
        v.flags.writeable = False
    return psi, tail, up, down


def _fill(rungs) -> dict:
    """Entries for (pointer, strength, cutoff) keys, computing the uncached ones as one slab.

    An entry is (psi, tail, up, down) with read-only vectors, or None at the
    first gate that rejects the cutoff: the pointer tail, the
    displacement's reach against the cutoff, the pointer mass outside the
    displacement's safe block and both branches' guard bands.  The
    displacements go by cutoff and then by strength/2 (nonnegative, as
    Coupling guarantees): each distinct table is built once, in passes that
    allocate at most TABLE_CHUNK_BYTES (_pass_bytes), and applied to every
    pointer at its cutoff.  New entries are cached in the order of rungs.
    """
    order = list(dict.fromkeys(rungs))
    found, pointers, pending = {}, {}, {}
    for key in order:
        cached = _RUNGS.get(key)
        if cached is not _MISS:
            found[key] = cached
            continue
        pointer, strength, dim = key
        if (pointer, dim) not in pointers:
            pointers[pointer, dim] = _spac_amplitudes(pointer, dim)
        tail = pointers[pointer, dim][1]
        half = strength / 2.0
        # |strength/2|^2 photons at or past the cutoff would cost column 0 of
        # the displacement about half its mass, so its safe block would be empty.
        if tail > TAIL_TOL or half * half >= dim:
            found[key] = None
        else:
            pending.setdefault(dim, {}).setdefault(half, []).append(key)
    for dim, by_half in sorted(pending.items()):
        halves = sorted(by_half)
        widths = [_band_width(h, dim) for h in halves]  # nondecreasing, as the halves are,
        # so a chunk's last table is its widest
        first = 0
        while first < len(halves):
            stop = first + 1
            while stop < len(halves) and _pass_bytes(stop + 1 - first, widths[stop], dim) <= TABLE_CHUNK_BYTES:
                stop += 1
            chunk = halves[first:stop]
            bands, loss = _tables(chunk, dim)
            for half, band, loss_row in zip(chunk, bands, loss):
                safe_dim = _safe_dim(loss_row)
                for key in by_half[half]:
                    psi, tail = pointers[key[0], dim]
                    found[key] = _displaced(psi, tail, band, safe_dim)
            del bands, band  # free this chunk before the next pass allocates its own
            first = stop
    for key in order:
        _RUNGS.put(key, found[key])
    return found


def _branches(pointer: PointerParams, strength: float, dim: int):
    """The selection-independent half of a rung, cached per (pointer, strength, cutoff).

    A cold call is a slab of one through _fill, so it computes bit for bit
    what a warmed slab holds.
    """
    key = (pointer, strength, dim)
    entry = _RUNGS.get(key)
    return _fill([key])[key] if entry is _MISS else entry


def warm(keys) -> int:
    """Cache the first rungs of a leading slab of (pointer, strength) keys; returns its length.

    The slab is the longest prefix whose entries fit in half of
    RUNG_CACHE_BYTES, and at least one key, so the later rungs its points
    may climb to find room without evicting the rest of it.  A None key (a
    point with no valid pointer) is counted and skipped.
    """
    room = _RUNGS.limit // 2
    rungs, count = [], 0
    for key in keys:
        if key is not None:
            pointer, strength = key
            dim = _first_cutoff(pointer, strength)
            room -= _ENTRY_OVERHEAD + 3 * dim * np.dtype(np.complex128).itemsize
            if room < 0 and rungs:
                break
            rungs.append((pointer, strength, dim))
        count += 1
    _fill(rungs)
    return count


def _rung(sel, pointer, coupling, weak, dim) -> BranchBundle | None:
    """The bundle at one cutoff, or None at the first gate that rejects it.

    The selection-independent gates run in _branches; after them, where the
    selection has a weak value, the normalized kept combination's guard band.
    """
    found = _branches(pointer, coupling.strength, dim)
    if found is None:
        return None
    psi, tail, up, down = found
    kept = None
    if weak is not None:
        combo, norm_sq = _kept_combination(weak, up, down)
        out_band = _band_mass(combo)
        if out_band > TAIL_TOL:
            return None
        tail += out_band
        kept = AssembledState(
            state=FockVector(amplitudes=combo, n_max=dim, tail_mass=tail),
            norm_sq=norm_sq,
            success_probability=postselection_probability(sel) * norm_sq / 4.0,
        )
    return BranchBundle(sel, pointer, coupling, psi, up, down, dim, tail, kept)


def _ladder(sel, pointer, coupling, weak, policy: TruncationPolicy) -> BranchBundle:
    for dim in _cutoffs(pointer, coupling.strength, policy):
        bundle = _rung(sel, pointer, coupling, weak, dim)
        if bundle is not None:
            return bundle


def branch_bundle(
    sel: SelectionParams,
    pointer: PointerParams,
    coupling: Coupling,
    policy: TruncationPolicy | None = None,
) -> BranchBundle:
    """The point's one cutoff ladder: grow the cutoff until every gate passes.

    policy sets only the starting cutoff; every gate reads the module constants.
    """
    return _ladder(sel, pointer, coupling, weak_value(sel), policy or TruncationPolicy())


def spac_state(pointer: PointerParams) -> FockVector:
    """Photon-added coherent state as a certified truncated vector."""
    for dim in _cutoffs(pointer, 0.0, TruncationPolicy()):
        psi, tail = _spac_amplitudes(pointer, dim)
        if tail <= TAIL_TOL:
            return FockVector(amplitudes=psi, n_max=dim, tail_mass=tail)


def assemble_final_state(
    sel: SelectionParams,
    pointer: PointerParams,
    coupling: Coupling,
) -> AssembledState:
    """Kept-outcome pointer state, normalized from the vector norm itself.

    The normalization is recomputed from the assembled vector, never taken
    from a closed form, which is what makes the norm a cross-engine check.
    """
    return branch_bundle(sel, pointer, coupling).kept


def transition_moment(
    sel: SelectionParams,
    pointer: PointerParams,
    coupling: Coupling,
) -> complex:
    """Oracle conditional observable value; independent of every closed form."""
    return branch_bundle(sel, pointer, coupling).transition()


def nonpostselected_moments(
    sel: SelectionParams,
    pointer: PointerParams,
    coupling: Coupling,
) -> PointerMoments:
    """Pointer statistics when every outcome is kept (BranchBundle.unconditioned).

    Defined for every selection; at phi = pi there is no kept state to
    certify, so the branches alone set the cutoff.
    """
    try:
        weak = weak_value(sel)
    except OrthogonalSelection:
        weak = None
    return _ladder(sel, pointer, coupling, weak, TruncationPolicy()).unconditioned


def assemble_at_cutoff(bundle: BranchBundle, strength: float) -> tuple[np.ndarray, float]:
    """Kept branch combination at another strength, on the bundle's cutoff, uncertified.

    Displaces the bundle's pointer state by +-strength/2 and weights the branches with
    its selection's weak value; returns the normalized vector and the raw squared norm.
    """
    half = strength / 2.0
    bands, _ = _tables([abs(half)], bundle.n_max)
    up, down = _apply(bands[0], bundle.psi)
    if half < 0.0:
        up, down = down, up
    return _kept_combination(weak_value(bundle.sel), up, down)


def commutator_residual(state: FockVector | np.ndarray, pointer: PointerParams) -> float:
    """|<[X, P]> - i| for a normalized state; small only when well truncated."""
    v = state.amplitudes if isinstance(state, FockVector) else np.asarray(state)
    av, adv = _ladder_action(v, lower=True), _ladder_action(v, lower=False)
    x_v = pointer.sigma * (av + adv)
    p_v = (0.5j / pointer.sigma) * (adv - av)
    # <XP> - <PX> = 2i Im <Xv|Pv> for Hermitian X, P
    return abs(2.0 * complex(np.vdot(x_v, p_v)).imag - 1.0)
