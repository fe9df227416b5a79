"""Independent number-basis reference for the benchmark's correctness checks.

Shares no code with spacmeter.  The pointer state is written out from the
coherent-state series, the displacements are `scipy.linalg.expm` of the
truncated generator (G/2)(adag - a), and every observable is a dense matrix
expectation value.  The model follows the package's stated conventions
(hbar = 1, X = sigma (adag + a), P = (i / 2 sigma)(adag - a), prepared qubit
cos(phi/2)|0> + exp(i delta) sin(phi/2)|1>, kept outcome |0>), derived here
from the model rather than from the package's formulas.

The reference cutoff must lie above the package's certified cutoff, so that
the truncated generator acts exactly on every state used here.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm
from scipy.special import gammaln

# Levels added above the package's cutoff for the reference cutoff.
MARGIN = 64


def pointer_state(r: float, theta: float, dim: int) -> np.ndarray:
    """Normalized adag|alpha> with alpha = r exp(i theta), from its series."""
    v = np.zeros(dim, dtype=np.complex128)
    if r == 0.0:
        v[1] = 1.0
        return v
    k = np.arange(1, dim)
    # amplitude(k) ~ sqrt(k) alpha^(k-1) / sqrt((k-1)!), normalized afterwards
    log_mag = 0.5 * np.log(k) + (k - 1) * math.log(r) - 0.5 * gammaln(k)
    v[1:] = np.exp(log_mag - log_mag.max()) * np.exp(1j * (k - 1) * theta)
    return v / np.linalg.norm(v)


class Reference:
    """Kept and keep-everything pointer statistics at one parameter point."""

    def __init__(self, phi: float, delta: float, r: float, theta: float,
                 sigma: float, strength: float, dim: int):
        lower = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
        raise_ = lower.T
        self.gen = raise_ - lower  # D(mu) = expm(mu * gen) for real mu
        self.x = sigma * (raise_ + lower)
        self.pm = (0.5j / sigma) * (raise_ - lower)
        self.psi = pointer_state(r, theta, dim)
        half = 0.5 * strength
        self.up = expm(half * self.gen) @ self.psi
        self.dn = expm(-half * self.gen) @ self.psi
        c, s = math.cos(phi / 2.0), math.sin(phi / 2.0)
        phase = complex(math.cos(delta), math.sin(delta))
        # sigma_x eigen-amplitudes of the prepared qubit; the kept outcome |0>
        # overlaps both eigenvectors equally
        self.amp_up = (c + phase * s) / math.sqrt(2.0)
        self.amp_dn = (c - phase * s) / math.sqrt(2.0)
        self.keep_prob = c * c
        self.kept = self.amp_up * self.up + self.amp_dn * self.dn
        self.weighted = self.amp_up * self.up - self.amp_dn * self.dn

    def _mean(self, op: np.ndarray, v: np.ndarray) -> complex:
        return complex(np.vdot(v, op @ v)) / float(np.vdot(v, v).real)

    def shifts(self) -> tuple[float, float]:
        """Conditioned (dx, dp): kept-state means minus the bare pointer's."""
        dx = self._mean(self.x, self.kept).real - self._mean(self.x, self.psi).real
        dp = self._mean(self.pm, self.kept).real - self._mean(self.pm, self.psi).real
        return dx, dp

    def transition(self) -> complex:
        """<kept| sigma_x-weighted branch> / <kept|kept>."""
        return complex(np.vdot(self.kept, self.weighted)) / float(np.vdot(self.kept, self.kept).real)

    def inverse_norm_sq(self) -> float:
        """Half the squared norm of (1+A) D(+G/2)|psi> + (1-A) D(-G/2)|psi>."""
        return float(np.vdot(self.kept, self.kept).real) / self.keep_prob

    def _x_stats(self, v: np.ndarray) -> tuple[float, float]:
        mean = self._mean(self.x, v).real
        return mean, self._mean(self.x @ self.x, v).real - mean * mean

    def plain_shift_and_var(self) -> tuple[float, float]:
        """Keep-everything position shift and variance (mixture of branches)."""
        w_up, w_dn = abs(self.amp_up) ** 2, abs(self.amp_dn) ** 2
        m_up, v_up = self._x_stats(self.up)
        m_dn, v_dn = self._x_stats(self.dn)
        mean = w_up * m_up + w_dn * m_dn
        second = w_up * (v_up + m_up * m_up) + w_dn * (v_dn + m_dn * m_dn)
        return mean - self._mean(self.x, self.psi).real, second - mean * mean

    def chi(self) -> float:
        """Conditioned shift-to-spread SNR over the keep-everything one.

        The keep probability cos^2(phi/2) is priced in, as the package
        defines the ratio; the trial count cancels.
        """
        shift = self.shifts()[0]
        spread = math.sqrt(self._x_stats(self.kept)[1])
        plain_shift, plain_var = self.plain_shift_and_var()
        return math.sqrt(self.keep_prob) * (shift * math.sqrt(plain_var)) / (spread * plain_shift)

    def fisher(self) -> float:
        """Exact Fisher information of the normalized kept state in strength.

        d/dG D(+-G/2) = +-(1/2) gen D(+-G/2) because gen commutes with itself,
        so the derivative of the unnormalized kept vector is exact here.
        """
        v = self.kept
        dv = 0.5 * (self.gen @ self.weighted)
        norm_sq = float(np.vdot(v, v).real)
        return 4.0 * (
            float(np.vdot(dv, dv).real) / norm_sq
            - abs(complex(np.vdot(v, dv))) ** 2 / norm_sq ** 2
        )


def weak_limit_chi(phi: float, delta: float, r: float, theta: float, dim: int) -> float:
    """Strength -> 0 limit of chi, Richardson-extrapolated from two strengths.

    chi(G) = chi(0) + c G + O(G^2), so 2 chi(h) - chi(2h) leaves an O(h^2)
    error; h = 1e-4 keeps the shift differences far above roundoff.
    """
    h = 1e-4
    near = Reference(phi, delta, r, theta, 1.0, h, dim).chi()
    far = Reference(phi, delta, r, theta, 1.0, 2.0 * h, dim).chi()
    return 2.0 * near - far
