"""Truncated number-basis engine: the matrix oracle for the pointer readout.

Everything here is basis-exact linear algebra on explicit vectors: the
pointer state is written out in the number basis, displacement operators are
dense matrices built from a stable scaled-Laguerre recurrence, and all
expectation values come from tridiagonal ladder action.  By design this
module imports nothing from the closed-form engine, so agreement between the
two is meaningful evidence rather than circular bookkeeping.

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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

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

# Every gate's mass bound, the width of each guard band, and the cutoff
# past which the ladder (doubling from its starting cutoff) gives up.
TAIL_TOL = 1e-14
GUARD_BAND = 8
HARD_DIM_CAP = 4096


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


def _build_displacement(mu: complex, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense D(mu) and each column's mass past the cutoff.

    The scaled associated-Laguerre recurrence runs directly on the entries
        t_n(d) = sqrt(n! / (n+d)!) |mu|^d exp(-|mu|^2/2) L_n^(d)(|mu|^2),
    all bounded by 1, so it stays stable far past the cutoff where the bare
    prefactor-times-polynomial form overflows.  At step n the recurrence
    also holds column n's rows dim .. n+dim-1, past the cutoff; their squared
    sum is the column's truncation loss.  Rows from n+dim on are never
    computed.  They carry mass only once |mu|^2 nears dim, and then column 0
    already closes the safe block: its entries are the directly evaluated
    starting values, so its norm deficit is its loss to full precision.
    Later columns' norm deficits are not used, because recurrence roundoff
    makes them drift upward with the column index whatever the cutoff.
    """
    out = np.zeros((dim, dim), dtype=np.complex128)
    loss = np.zeros(dim)
    if mu == 0:
        np.fill_diagonal(out, 1.0)
        return out, loss
    x = abs(mu) ** 2
    offsets = np.arange(dim, dtype=np.float64)
    lgam = np.array([math.lgamma(k + 1.0) for k in range(dim)])
    t_curr = np.exp(-0.5 * x + offsets * math.log(abs(mu)) - 0.5 * lgam)
    t_prev = np.zeros(dim)
    arg = cmath.phase(mu)
    down = np.exp(1j * offsets * arg)
    up = np.exp(-1j * offsets * arg)
    up[1::2] *= -1.0  # (-mu*)^d alternation for the upper triangle
    out[:, 0] = t_curr * down
    out[0, :] = t_curr * up
    loss[0] = 1.0 - np.dot(t_curr, t_curr)
    root_prev = np.zeros(dim)  # sqrt((n-1) (n-1+d)), carried from the last step
    for n in range(1, dim):
        root = np.sqrt(n * (n + offsets))
        t_next = ((2.0 * n - 1.0 + offsets - x) * t_curr - root_prev * t_prev) / root
        t_prev, t_curr, root_prev = t_curr, t_next, root
        keep = dim - n
        out[n:, n] = t_curr[:keep] * down[:keep]
        out[n, n:] = t_curr[:keep] * up[:keep]
        past = t_curr[keep:]
        loss[n] = np.dot(past, past)
    return out, loss


@lru_cache(maxsize=8)
def _displacement(mu: complex, dim: int) -> tuple[np.ndarray, int]:
    """Cached displacement matrix and the size of its safe subspace."""
    matrix, loss = _build_displacement(mu, dim)
    over = loss > SAFE_COLUMN_LOSS
    safe_dim = dim if not over.any() else int(np.argmax(over))
    matrix.flags.writeable = False
    return matrix, safe_dim


def displacement_operator(mu: complex, n_max: int) -> FockOperator:
    """Displacement matrix in the number basis, with safe-subspace size."""
    if n_max < 8:
        raise ValueError("n_max must be at least 8")
    matrix, safe_dim = _displacement(complex(mu), int(n_max))
    return FockOperator(matrix=matrix, safe_dim=safe_dim)


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
    lgam = np.array([math.lgamma(k) for k in range(1, dim)])
    log_mag = (
        0.5 * math.log(pointer.norm_factor_sq)
        - 0.5 * pointer.r * pointer.r
        + (n - 1.0) * math.log(pointer.r)
        + 0.5 * np.log(n)
        - 0.5 * lgam
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


def _displace(psi: np.ndarray, strength: float) -> tuple[np.ndarray, np.ndarray, int]:
    """D(+strength/2) psi, D(-strength/2) psi and the safe-block size at psi's cutoff."""
    matrix, safe_dim = _displacement(complex(strength / 2.0), len(psi))
    # D(-mu) psi = D(mu)^dagger psi, formed as (psi^dagger D)^* so that the
    # dense matrix is never copied into its adjoint
    return matrix @ psi, (psi.conj() @ matrix).conj(), safe_dim


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


def _rung(sel, pointer, coupling, weak, dim) -> BranchBundle | None:
    """The bundle at one cutoff, or None at the first gate that rejects it.

    Gates: the pointer tail, the displacement's reach against the cutoff,
    the pointer mass outside the displacement's safe block, both branches'
    guard bands and, where the selection has a weak value, the normalized
    kept combination's guard band.
    """
    psi, tail = _spac_amplitudes(pointer, dim)
    if tail > TAIL_TOL:
        return None
    # |strength/2|^2 photons at or past the cutoff would cost column 0 of the
    # displacement about half its mass, so its safe block would be empty.
    half = coupling.strength / 2.0
    if half * half >= dim:
        return None
    up, down, safe_dim = _displace(psi, coupling.strength)
    beyond = psi[safe_dim:]
    if float(np.vdot(beyond, beyond).real) > TAIL_TOL:
        return None
    if _band_mass(up) > TAIL_TOL or _band_mass(down) > TAIL_TOL:
        return None
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
    up, down, _ = _displace(bundle.psi, strength)
    return _kept_combination(weak_value(bundle.sel), up, down)


def commutator_residual(state: FockVector | np.ndarray, pointer: PointerParams) -> float:
    """|<[X, P]> - i| for a normalized state; small only when well truncated."""
    v = state.amplitudes if isinstance(state, FockVector) else np.asarray(state)
    av, adv = _ladder_action(v, lower=True), _ladder_action(v, lower=False)
    x_v = pointer.sigma * (av + adv)
    p_v = (0.5j / pointer.sigma) * (adv - av)
    # <XP> - <PX> = 2i Im <Xv|Pv> for Hermitian X, P
    return abs(2.0 * complex(np.vdot(x_v, p_v)).imag - 1.0)
