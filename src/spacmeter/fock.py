"""Truncated number-basis engine: the matrix oracle for the pointer readout.

Everything here is linear algebra on explicit number-basis vectors by
tridiagonal ladder action, and nothing is imported from the closed-form
engine, so agreement between the two is meaningful evidence.

Truncation is certified.  One cutoff ladder per point (`branch_bundle`)
grows the cutoff until the pointer tail, the mass of both displaced branches
past the cutoff, their guard bands and the kept combination's guard band all
fall below TAIL_TOL, or raises TruncationInsufficient at HARD_DIM_CAP.  Every
oracle observable of the point is a read of the BranchBundle it returns.

The selection enters only through the weak value A.  Once a rung's gates
pass, `_forms` computes what no selection changes: with S+- = up +- down,
the 2x2 blocks that the reads use of the Gram matrix of S+-, a S+-, a^2 S+-
and G S+-, two of the same on the guard band, and the ladder means of psi,
up and down.  The rung keeps both as Python numbers and is sigma-free: the
pointer's sigma is applied once, where a moment is read.  The kept
combination is B = S+ + A S- and its twin C = A S+ + S-, so a point's norm,
kept gate, ladder means, transition value and Fisher information are 2x2
contractions of those blocks, made in one pass (`_rung`), not walks of the
vectors.

The strength is real, so D(+-|mu|) = exp(+-|mu| G), G = adag - a.  One
Chebyshev series (`_series`) gives both signs from the same ladder actions,
on a basis padded until a Duhamel bound (`_pad`) puts the truncated
generator's error below float eps: its recurrence fills bounded Krylov
chunks of terms on one window per row group, and each rung takes both signs
from one small product per chunk.  A rung's selection-independent part, its
tail, forms and ladder means, is cached per (pointer, strength, cutoff), at
most RUNG_CACHE_ENTRIES of them; `warmed` yields a grid's points grouped by
rung key, a slab at a time, after caching each slab's first rungs with one
series per block of one cutoff and padding, and a cold rung (a block of one)
is bit for bit a warmed one.  No rung keeps a vector: a bundle rebuilds psi,
up and down as a block of one computes them (`_branch_vectors`) when read.
`displacement_operator` applies the series to the identity's columns.
"""

from __future__ import annotations

import cmath
import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .model import (
    Coupling,
    OrthogonalSelection,
    PointerMoments,
    PointerParams,
    SelectionParams,
    _once,
    postselection_probability,
    weak_value,
)

# Columns of displacement_operator with more mass than this past the cutoff are outside its safe block.
SAFE_COLUMN_LOSS = 1e-12

# Every gate's mass bound, the width of each guard band, and the cutoff
# past which the ladder (doubling from its starting cutoff) gives up.
TAIL_TOL = 1e-14
GUARD_BAND = 8
HARD_DIM_CAP = 4096

# The rung cache (_branches) holds at most this many rungs, rejected ones
# (cached as None) included; warmed fills at most half of it per slab.  An
# entry holds only Python numbers, so it costs the same at every cutoff:
# 2,082 bytes by tracemalloc on CPython 3.11, key and cache slot included,
# so 8.1 MiB when full.
RUNG_CACHE_ENTRIES = 4096

# A rung's forms (_forms) are eight 2x2 blocks of Python complex numbers, four
# per block in row order.  With S = (S+, S-), block [i, j] is <F S_i | F' S_j>
# for these ladder words (F, F'), G = adag - a: (1, 1), (1, a), (1, a^2),
# (a, a), (1, G) and (G, G) of the Gram matrix, then (1, 1) and (G, G) on the
# last GUARD_BAND levels.  Its ladder means are (<a>, <a^2>, <n>) of psi, up
# and down, a tuple of three tuples of two complex numbers and a float; no
# sigma enters either.
_NORM, _LOWER, _LOWER2, _NUMBER, _SLOPE, _SPEED, _EDGE, _EDGE_SPEED = range(8)

_EPS = float(np.finfo(np.float64).eps)

# _series fills Krylov chunks of KRYLOV_TERMS terms per row, of at most KRYLOV_BYTES (or one row).
KRYLOV_TERMS = 16
KRYLOV_BYTES = 1 << 20


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


_DEFAULT_POLICY = TruncationPolicy()


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
        """Max deviation of adjoint(D) D from identity on the safe subspace, 32 rows of it at a time."""
        if self.safe_dim == 0:
            return float("inf")
        n, block = self.safe_dim, self.matrix[:, : self.safe_dim]
        return max(
            float(np.max(np.abs(block[:, j : j + 32].conj().T @ block - np.eye(min(32, n - j), n, j))))
            for j in range(0, n, 32)
        )


@dataclass(frozen=True)
class AssembledState:
    """Normalized kept-outcome pointer state plus the raw combination norm."""

    state: FockVector
    norm_sq: float                # squared norm of the two-branch combination
    success_probability: float    # exact strength-dependent keep probability


@lru_cache(maxsize=32)
def _log_factorials(size: int) -> np.ndarray:
    """log(k!) for k = 0 .. size - 1, read-only and shared by the pointer builds at one size."""
    table = np.array([math.lgamma(k + 1.0) for k in range(size)])
    table.flags.writeable = False
    return table


def _duhamel_bound(half: float, dim: int, pad: int) -> float:
    """Bound on |P D(|mu|) psi - exp(|mu| G_N) psi| for unit psi on dim levels, G_N = G on N = dim + pad levels.

    G_N differs from G only by the step between levels N - 1 and N, so by
    Duhamel the error is at most sqrt(N) int_0^|mu| |<N|D(s) psi>| ds.  DLMF
    18.14.8, |L_n^(d)(x)| <= C(n+d, n) e^(x/2), bounds |<N|D(s)|j>| by
    (s^2 N)^(d/2) / d! for d = N - j >= pad, growing in s; over the dim levels
    of psi the sum is at most sqrt(dim) times the largest term.
    """
    if half == 0.0:
        return 0.0
    log_reach = 2.0 * math.log(half) + math.log(dim + pad)  # of |mu|^2 N
    d = max(pad, math.floor(math.exp(0.5 * log_reach)))  # the terms peak at sqrt(|mu|^2 N)
    log_bound = 0.5 * math.log((dim + pad) * dim) + math.log(half) + 0.5 * d * log_reach - math.lgamma(d + 1.0)
    return math.exp(log_bound) if log_bound < 700.0 else math.inf


@lru_cache(maxsize=1024)
def _pad(half: float, dim: int) -> int:
    """Levels the series adds past the cutoff: the fewest, in steps of 32, putting _duhamel_bound below eps."""
    pad = 0
    while _duhamel_bound(half, dim, pad) >= _EPS:
        pad += 32
    return pad


@lru_cache(maxsize=1024)
def _chebyshev_weights(z: float) -> np.ndarray:
    """c_0 = J_0(z) and c_k = 2 J_k(z) for the terms the series keeps, read-only.

    It stops at the first count past z/2 where DLMF 10.14.4, |J_k(z)| <=
    (z/2)^k / k!, puts the dropped weights below float eps together (a
    geometric tail); the bound falls strictly there, so a galloping search
    (doubling, then bisection) finds that count.  Miller's backward
    recurrence J_{k-1} = (2k/z) J_k - J_{k+1} starts 32 orders further out,
    is scaled by 2^-800 near overflow and is normalized by
    J_0 + 2 (J_2 + J_4 + ...) = 1.  One term means z < eps: J_0(z) is 1.
    """
    def dropped(count: int) -> bool:
        return (count * math.log(0.5 * z) - math.lgamma(count + 1.0)
                - math.log(0.5 - 0.25 * z / (count + 1.0)) <= math.log(_EPS))

    terms = max(1, math.ceil(0.5 * z))
    short, gap = terms - 1, 1  # the largest count known to fall short, or the one before the first
    while z > 0.0 and not dropped(terms):
        short, terms, gap = terms, terms + 2 * gap, 2 * gap
    while terms - short > 1:
        middle = (short + terms) // 2
        short, terms = (short, middle) if dropped(middle) else (middle, terms)
    weights = np.ones(1)
    if terms > 1:
        above, below = 1.0, 0.0
        values = [0.0] * (terms + 32) + [above]
        for k in range(terms + 32, 0, -1):
            above, below = (2.0 * k / z) * above - below, above
            if abs(above) > 2.0 ** 800:
                above, below = above * 2.0 ** -800, below * 2.0 ** -800
                values[k:] = [v * 2.0 ** -800 for v in values[k:]]
            values[k - 1] = above
        weights = np.array(values[:terms]) / math.fsum([values[0]] + [2.0 * v for v in values[2::2]])
        weights[1:] *= 2.0
    weights.flags.writeable = False
    return weights


def _krylov_rows(length: int, channels: int) -> int:
    """Rows of one Krylov chunk on rows of `length` reals: as many as KRYLOV_BYTES holds, at least one."""
    return max(1, KRYLOV_BYTES // ((KRYLOV_TERMS + 2) * (length + 2 * channels) * 8))


def _series(rows: np.ndarray, channels: int, rungs) -> tuple[np.ndarray, np.ndarray]:
    """exp(+|mu| G) x and exp(-|mu| G) x, in rung order, for each rung (row, |mu|) of a block of vectors x.

    A row is x on N levels as N groups of `channels` reals (2: a complex x).
    With rho = 2 sqrt(N) above G's spectral radius and z = |mu| rho
    (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)),
        exp(+-|mu| G) x = sum_k (+-1)^k c_k w_k,  c_k = _chebyshev_weights(z),
        w_0 = x,  w_1 = G x / rho,  w_{k+1} = (2 / rho) G w_k + w_{k-1},
    each |w_k| <= |x|.  Per term, only the recurrence runs, four ufunc calls
    writing w_k into a Krylov chunk (KRYLOV_TERMS slots after two carrying
    w_{k-2}, w_{k-1} in; _krylov_rows rows, each guarded by a zero level each
    side) on one window, the rows' support widened by their term count: past
    the support widened by k, w_k is +0.0 and the ladder steps finite and >= 0,
    so the window only rewrites zeros with zeros.  After each chunk a rung
    adds both signs, one (2, m) x (m, N channels) product of
    (c_k, (-1)^k c_k) with its row's m terms, whose shape is the rung's own:
    a block gives each rung the bits a block of one does.
    """
    count, length = rows.shape
    levels, wide = length // channels, length + 2 * channels
    step = np.repeat(_roots(levels), channels) / math.sqrt(levels)  # (2 / rho) sqrt(n)
    lowering = np.concatenate([np.zeros(channels), step, np.zeros(2 * channels)])  # for w_k one level down
    raising = np.concatenate([np.zeros(2 * channels), step, np.zeros(channels)])  # for w_k one level up
    coeffs = [np.array([c, c * (-1.0) ** np.arange(len(c))])
              for c in (_chebyshev_weights(2.0 * half * math.sqrt(levels)) for _, half in rungs)]
    out = np.zeros((len(rungs), 2, length))
    size = _krylov_rows(length, channels)
    for first in range(0, count, size):
        group = rows[first : first + size]
        members = [r for r, (row, _) in enumerate(rungs) if first <= row < first + size]
        terms = max((coeffs[r].shape[1] for r in members), default=0)
        chunk = np.zeros((len(group), KRYLOV_TERMS + 2, wide))
        chunk[:, 2, channels : length + channels] = group
        slots = list(chunk[0] if len(group) == 1 else chunk.transpose(1, 0, 2))  # one row runs on 1-D views
        held = np.flatnonzero(np.any(group, axis=0)) // channels * channels + channels
        lo, hi = (held[0], held[-1] + channels) if len(held) else (channels, 2 * channels)
        lo, hi = max(lo - terms * channels, channels), min(hi + terms * channels, length + channels)
        at, below, above = ([s[..., lo + d : hi + d] for s in slots[: terms + 2]] for d in (0, -channels, channels))
        rise, fall, spare = raising[lo:hi], lowering[lo:hi], np.empty_like(at[0])
        for start in range(0, terms, KRYLOV_TERMS):
            chunk[:, :2] = chunk[:, KRYLOV_TERMS:]  # w_{k-2}, w_{k-1} carried in: zeros before the first chunk
            for slot in range(3 if start == 0 else 2, min(KRYLOV_TERMS, terms - start) + 2):
                new = at[slot]  # w_k = w_{k-2} + (2 / rho) G w_{k-1}
                np.multiply(rise, below[slot - 1], new)
                np.add(new, at[slot - 2], new)
                np.multiply(fall, above[slot - 1], spare)
                np.subtract(new, spare, new)
                if start + slot == 3:  # w_1 = G x / rho
                    new *= 0.5
            for r in members:
                part = coeffs[r][:, start : start + KRYLOV_TERMS]
                if part.size:
                    out[r] += part @ chunk[rungs[r][0] - first, 2 : 2 + part.shape[1], channels : length + channels]
    return out[:, 0], out[:, 1]


def _reaches(half: float, dim: int) -> bool:
    """Whether |mu|^2 photons reach the cutoff, where column 0 of D(|mu|), the state |mu>, loses half its mass."""
    return half * half >= dim


def displacement_operator(mu: complex, n_max: int) -> FockOperator:
    """Dense displacement matrix in the number basis, with safe-subspace size.

    D(mu) = R D(|mu|) R^dagger, R = diag(exp(i m arg mu)), with D(|mu|) the
    series on the identity's columns, 16 at a time, on the padded basis (at
    32, verify's one call left its 0.75 MiB Krylov chunk resident in the heap).
    Where |mu|^2 reaches the cutoff no column is safe and no padding is added.
    """
    if n_max < 8:
        raise ValueError("n_max must be at least 8")
    mu, dim = complex(mu), int(n_max)
    reaches = _reaches(abs(mu), dim)
    size = dim if reaches else dim + _pad(abs(mu), dim)
    matrix, loss = np.empty((dim, dim), dtype=np.complex128), np.zeros(dim)
    for first in range(0, dim, 16):
        block = np.eye(min(16, dim - first), size, first)
        up, _ = _series(block, 1, [(j, abs(mu)) for j in range(len(block))])
        matrix[:, first : first + len(block)] = up[:, :dim].T
        loss[first : first + len(block)] = np.sum(up[:, dim:] ** 2, axis=1)
    phase = np.exp(1j * cmath.phase(mu) * np.arange(dim))
    matrix *= phase[:, None]
    matrix *= phase.conj()
    matrix.flags.writeable = False
    over = [0] if reaches else np.flatnonzero(loss > SAFE_COLUMN_LOSS)
    return FockOperator(matrix=matrix, safe_dim=int(over[0]) if len(over) else dim)


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
        - 0.5 * _log_factorials(dim + 64)[: dim - 1]
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
    log_r_sq = math.log(r_sq)
    k = np.arange(dim, dim + 64.0)
    terms = np.exp(math.log(pointer.norm_factor_sq) - r_sq + (k - 1.0) * log_r_sq + np.log(k)
                   - _log_factorials(dim + 64)[dim:])
    ratio = r_sq / (dim + 63.0)
    return float(np.sum(terms) + terms[-1] * ratio / (1.0 - ratio))


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
    return float(np.vdot(v[-GUARD_BAND:], v[-GUARD_BAND:]).real)


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


def _words(rows: np.ndarray) -> np.ndarray:
    """(x, a x, a^2 x, adag x) for each row x (the last axis), by tridiagonal action on the truncated basis."""
    roots = _roots(rows.shape[-1])
    words = np.empty((4, *rows.shape), dtype=np.complex128)
    words[0] = rows
    words[1:3, ..., -1] = words[3, ..., 0] = 0.0
    np.multiply(roots, rows[..., 1:], out=words[1, ..., :-1])
    np.multiply(roots, words[1, ..., 1:], out=words[2, ..., :-1])
    np.multiply(roots, rows[..., :-1], out=words[3, ..., 1:])
    return words


def _ladder_means(v: np.ndarray) -> tuple[complex, complex, float]:
    """(<a>, <a^2>, <n>) from a v and a^2 v alone, the products _words forms, no dense matrices."""
    roots = _roots(len(v))
    av, a2v = np.empty(len(v), dtype=np.complex128), np.empty(len(v), dtype=np.complex128)
    av[-1] = a2v[-1] = 0.0
    np.multiply(roots, v[1:], out=av[:-1])
    np.multiply(roots, av[1:], out=a2v[:-1])
    return complex(np.vdot(v, av)), complex(np.vdot(v, a2v)), float(np.vdot(av, av).real)


def _quad_moments(mean_a: complex, mean_a2: complex, mean_n: float, sigma: float):
    """(meanX, meanP, meanX2, meanP2, meanN) from a normalized state's ladder means."""
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
    return _pointer_moments(*_quad_moments(*_ladder_means(v), pointer.sigma))


def _forms(psi: np.ndarray, up: np.ndarray, down: np.ndarray) -> tuple[tuple, tuple]:
    """The forms every selection of a rung reads, from S+- = up +- down, and the ladder means of psi, up and down.

    The words F S, F = (1, a, a^2, G), are _words of S+- with G S = adag S - a S;
    their Gram matrix is one complex matmul, and the means are _ladder_means of
    each vector (one block of all five rows churns the allocator at large cutoffs).
    """
    words = _words(np.array([up + down, up - down]))
    words[3] -= words[1]
    flat = words.reshape(8, -1)
    gram = (flat.conj() @ flat.T).reshape(4, 2, 4, 2)
    edge = flat[[0, 1, 6, 7], -GUARD_BAND:]
    band = (edge.conj() @ edge.T).reshape(2, 2, 2, 2)
    forms = np.concatenate([
        gram[[0, 0, 0, 1, 0, 3], :, [0, 1, 2, 1, 3, 3], :].ravel(),
        band[[0, 1], :, [0, 1], :].ravel(),
    ])
    return tuple(forms.tolist()), tuple([_ladder_means(v) for v in (psi, up, down)])


class _Rung(NamedTuple):
    """A cached rung: the selection-independent half of a point at one cutoff, as Python numbers."""

    tail: float        # the pointer state's mass past the cutoff
    forms: tuple       # _forms' eight 2x2 blocks of complex numbers, sigma-free
    ladder: tuple      # (<a>, <a^2>, <n>) of psi, up and down, sigma-free


@dataclass(frozen=True, eq=False)
class BranchBundle:
    """A point's pointer state and both displaced branches at its certified cutoff.

    Every oracle observable of the point is a read of it: a value of the
    point's one pass (_rung) over its rung's forms, the 2x2 contractions with
    the coefficients of the kept combination B = S+ + A S- and its twin
    C = A S+ + S-, or of its rung's ladder means.  A moment read applies the
    pointer's sigma to ladder means (_quad_moments) when it is read.  The kept
    reads are None only where the selection has no weak value (phi = pi), and
    so is `kept`.  The rung holds no vector: psi, up and down are rebuilt on
    their first read, with the bits the rung's forms were made from.
    """

    sel: SelectionParams
    pointer: PointerParams
    coupling: Coupling
    n_max: int
    tail_mass: float               # pointer tail plus the kept state's guard-band mass
    norm_sq: float | None          # N = <B|B>
    _rung: _Rung
    _reads: tuple | None           # the kept state's ladder means, <B|C> / N, and F (None past the guard band)

    @_once
    def _vectors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _branch_vectors(self.pointer, self.coupling.strength, self.n_max)

    psi = property(lambda self: self._vectors[0], doc="The pointer state, read-only.")
    up = property(lambda self: self._vectors[1], doc="D(+strength/2) psi, read-only.")
    down = property(lambda self: self._vectors[2], doc="D(-strength/2) psi, read-only.")

    @_once
    def kept(self) -> AssembledState | None:
        """The normalized kept combination, built on first access from the same N."""
        if self.norm_sq is None:
            return None
        a, norm_sq = weak_value(self.sel), self.norm_sq
        combo = ((1.0 + a) * self.up + (1.0 - a) * self.down) / math.sqrt(norm_sq)
        return AssembledState(
            state=FockVector(amplitudes=combo, n_max=self.n_max, tail_mass=self.tail_mass),
            norm_sq=norm_sq,
            success_probability=postselection_probability(self.sel) * norm_sq / 4.0,
        )

    @_once
    def kept_moments(self) -> PointerMoments:
        """From <B|a B>, <B|a^2 B> and <a B|a B>, each over N."""
        return _pointer_moments(*_quad_moments(*self._reads[0], self.pointer.sigma))

    @_once
    def kept_shift(self) -> tuple[float, float]:
        """Kept minus initial pointer means, (position, momentum)."""
        sigma = self.pointer.sigma
        base, kept = _quad_moments(*self._rung.ladder[0], sigma), _quad_moments(*self._reads[0], sigma)
        return kept[0] - base[0], kept[1] - base[1]

    def transition(self) -> complex:
        """<B|C> / <B|B>, C the observable-weighted twin of B: sigma_x flips the reverse branch."""
        return self._reads[1]

    def fisher(self) -> float:
        """Fisher information of the normalized kept state in the strength g, exactly.

        d/dg D(+-g/2) = +-(1/2) G D(+-g/2) with G = adag - a, so the kept combination
        B has dB = G C / 2, and F = 4 (<dB|dB> / N - |<B|dB>|^2 / N^2), N = <B|B>.
        Raises TruncationInsufficient where dB has mass past the guard band.
        """
        fisher = self._reads[2]
        if fisher is None:
            raise TruncationInsufficient(f"strength derivative past the guard band, n_max={self.n_max}")
        return fisher

    @_once
    def _weights(self) -> tuple[float, float]:
        """The sigma_x populations of up and down, which weight the keep-everything state.

        The system branches are orthogonal, so the pointer branches do not interfere.
        """
        sel = self.sel
        phase = cmath.exp(1j * sel.delta) * math.sin(sel.phi / 2.0)
        return abs(math.cos(sel.phi / 2.0) + phase) ** 2 / 2.0, abs(math.cos(sel.phi / 2.0) - phase) ** 2 / 2.0

    @_once
    def unconditioned(self) -> PointerMoments:
        """Keep-everything statistics: the _quad_moments of up and down, mixed by their weights."""
        (w_up, w_dn), sigma = self._weights, self.pointer.sigma
        up, down = (_quad_moments(*means, sigma) for means in self._rung.ladder[1:])
        return _pointer_moments(*[w_up * u + w_dn * d for u, d in zip(up, down)])

    def unconditioned_shift(self) -> float:
        """The mixture's position mean minus psi's, each 2 sigma Re<a> as in _quad_moments.

        It reads no momentum moment, so it answers where 4 sigma^2 underflows.
        """
        (w_up, w_dn), sigma, (psi, up, down) = self._weights, self.pointer.sigma, self._rung.ladder
        return w_up * (2.0 * sigma * up[0].real) + w_dn * (2.0 * sigma * down[0].real) - 2.0 * sigma * psi[0].real


_MISS = object()


class _RungCache:
    """Least-recently-used rungs keyed on (pointer, strength, cutoff), at most `limit` of them."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self._entries: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key):
        """The entry under key, freshened, or _MISS."""
        entry = self._entries.get(key, _MISS)
        if entry is not _MISS:
            self._entries.move_to_end(key)
        return entry

    def put(self, key, entry) -> None:
        if key in self._entries:
            return
        self._entries[key] = entry
        if len(self._entries) > self.limit:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()


_RUNGS = _RungCache(RUNG_CACHE_ENTRIES)


def _displace(psis, dim: int, pad: int, rungs) -> tuple[np.ndarray, np.ndarray]:
    """D(+|mu|) psi and D(-|mu|) psi on dim + pad levels for each rung (row, |mu|) of pointer states at cutoff dim."""
    rows = np.zeros((len(psis), dim + pad), dtype=np.complex128)
    rows[:, :dim] = psis
    up, down = _series(rows.view(np.float64), 2, rungs)
    return up.view(np.complex128), down.view(np.complex128)


def _branch_vectors(pointer: PointerParams, strength: float, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """psi, D(+strength/2) psi and D(-strength/2) psi at cutoff dim (strength >= 0), read-only, as a block of one computes them."""
    half = strength / 2.0
    psi, _ = _spac_amplitudes(pointer, dim)
    up, down = (rows[0, :dim] for rows in _displace([psi], dim, _pad(half, dim), [(0, half)]))
    for v in (psi, up, down):
        v.flags.writeable = False
    return psi, up, down


def _fill(rungs) -> dict:
    """Entries for (pointer, strength, cutoff) keys, computing the uncached ones as one slab.

    An entry is a _Rung, or None at the first gate that rejects the cutoff: the pointer
    tail, the reach, either padded branch's mass past the cutoff and both
    guard bands.  Each block of one cutoff and one pad runs one series, its
    distinct pointers as rows and each (pointer, strength/2 >= 0) as a rung.
    New entries are cached in order.
    """
    order = list(dict.fromkeys(rungs))
    found, pointers, blocks = {}, {}, {}
    for key in order:
        cached = _RUNGS.get(key)
        if cached is not _MISS:
            found[key] = cached
            continue
        pointer, strength, dim = key
        if (pointer, dim) not in pointers:
            pointers[pointer, dim] = _spac_amplitudes(pointer, dim)
        found[key] = None
        if pointers[pointer, dim][1] <= TAIL_TOL and not _reaches(strength / 2.0, dim):
            blocks.setdefault((dim, _pad(strength / 2.0, dim)), []).append(key)
    for (dim, pad), keys in sorted(blocks.items()):
        row = {pointer: place for place, pointer in enumerate(dict.fromkeys(key[0] for key in keys))}
        psis = [pointers[pointer, dim][0] for pointer in row]
        ups, downs = _displace(psis, dim, pad, [(row[key[0]], key[1] / 2.0) for key in keys])
        for key, up, down in zip(keys, ups, downs):
            past = max(float(np.vdot(v[dim:], v[dim:]).real) for v in (up, down))
            up, down = up[:dim], down[:dim]
            if max(past, _band_mass(up), _band_mass(down)) <= TAIL_TOL:
                psi, tail = pointers[key[0], dim]
                found[key] = _Rung(tail, *_forms(psi, up, down))
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


def warmed(keys):
    """Every index of keys, grouped by key in order of first appearance, each slab's first rungs cached first.

    keys yields one (pointer, strength) per point, or None for a point with
    no valid pointer or strength.  A slab is a run of half as many groups as
    the cache holds rungs, and at least one group, so the later rungs its
    points may climb find room without evicting the rest of it; one _fill
    computes its rungs before its indices are yielded.
    """
    groups: dict = {}
    for index, key in enumerate(keys):
        groups.setdefault(key, []).append(index)
    rungs = [None if key is None else (*key, _first_cutoff(*key)) for key in groups]
    members, size = list(groups.values()), max(1, _RUNGS.limit // 2)
    for start in range(0, len(rungs), size):
        _fill([rung for rung in rungs[start : start + size] if rung is not None])
        yield from (index for indices in members[start : start + size] for index in indices)


def _rung(sel, pointer, coupling, weak, dim) -> BranchBundle | None:
    """The bundle at one cutoff, or None at the first gate that rejects it.

    The selection-independent gates run in _branches.  Where the selection
    has a weak value A, the rest is the point's one pass over the rung's
    forms: the kept combination's guard band over N, then every kept read.
    Each is x^H M y = x0* (m00 y0 + m01 y1) + x1* (m10 y0 + m11 y1) for a
    block M = (m00, m01, m10, m11), with x and y the coefficients of
    B = (1, A) or C = (A, 1), written out term for term: each product with
    the coefficient 1.0 stays, since as a complex product it can flip the
    sign of a zero.
    """
    rung = _branches(pointer, coupling.strength, dim)
    if rung is None:
        return None
    if weak is None:
        return BranchBundle(sel, pointer, coupling, dim, rung.tail, None, rung, None)
    a, ac = weak, weak.conjugate()
    (n00, n01, n10, n11,  # _NORM
     l00, l01, l10, l11,  # _LOWER
     q00, q01, q10, q11,  # _LOWER2
     u00, u01, u10, u11,  # _NUMBER
     s00, s01, s10, s11,  # _SLOPE
     v00, v01, v10, v11,  # _SPEED
     e00, e01, e10, e11,  # _EDGE
     w00, w01, w10, w11) = rung.forms  # _EDGE_SPEED
    norm_sq = (1.0 * (n00 * 1.0 + n01 * a) + ac * (n10 * 1.0 + n11 * a)).real  # <B|B>
    out_band = (1.0 * (e00 * 1.0 + e01 * a) + ac * (e10 * 1.0 + e11 * a)).real / norm_sq
    if out_band > TAIL_TOL:
        return None
    kept = (
        (1.0 * (l00 * 1.0 + l01 * a) + ac * (l10 * 1.0 + l11 * a)) / norm_sq,  # <a>
        (1.0 * (q00 * 1.0 + q01 * a) + ac * (q10 * 1.0 + q11 * a)) / norm_sq,  # <a^2>
        (1.0 * (u00 * 1.0 + u01 * a) + ac * (u10 * 1.0 + u11 * a)).real / norm_sq,  # <n>
    )
    transition = (1.0 * (n00 * a + n01 * 1.0) + ac * (n10 * a + n11 * 1.0)) / norm_sq  # <B|C> / N
    fisher = None
    if not (ac * (w00 * a + w01 * 1.0) + 1.0 * (w10 * a + w11 * 1.0)).real > 4.0 * norm_sq * TAIL_TOL:  # 2 dB on the band
        overlap = 1.0 * (s00 * a + s01 * 1.0) + ac * (s10 * a + s11 * 1.0)  # <B|G C>
        fisher = ((ac * (v00 * a + v01 * 1.0) + 1.0 * (v10 * a + v11 * 1.0)).real - abs(overlap) ** 2 / norm_sq) / norm_sq
    return BranchBundle(sel, pointer, coupling, dim, rung.tail + out_band, norm_sq, rung, (kept, transition, fisher))


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
    return _ladder(sel, pointer, coupling, weak_value(sel), policy or _DEFAULT_POLICY)


def spac_state(pointer: PointerParams) -> FockVector:
    """Photon-added coherent state as a certified truncated vector."""
    for dim in _cutoffs(pointer, 0.0, _DEFAULT_POLICY):
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
    return _ladder(sel, pointer, coupling, weak, _DEFAULT_POLICY).unconditioned


def assemble_at_cutoff(bundle: BranchBundle, strength: float) -> tuple[np.ndarray, float]:
    """Kept branch combination at another strength, on the bundle's cutoff, uncertified.

    Displaces the bundle's pointer state by +-strength/2 and weights the branches with
    its selection's weak value; returns the normalized vector and the raw squared norm.
    """
    _, up, down = _branch_vectors(bundle.pointer, Coupling(strength=strength).strength, bundle.n_max)
    return _kept_combination(weak_value(bundle.sel), up, down)


def commutator_residual(state: FockVector | np.ndarray) -> float:
    """|<[X, P]> - i| for a normalized state; small only when well truncated.

    The pointer's sigma cancels from <[X, P]>, so X and P are taken at sigma = 1.
    """
    v = state.amplitudes if isinstance(state, FockVector) else np.asarray(state)
    _, av, _, adv = _words(v)
    x_v = av + adv
    p_v = 0.5j * (adv - av)
    # <XP> - <PX> = 2i Im <Xv|Pv> for Hermitian X, P
    return abs(2.0 * complex(np.vdot(x_v, p_v)).imag - 1.0)
