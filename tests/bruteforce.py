"""Independent brute-force reference used by the tests.

Deliberately shares no algorithm with the package: displacements come from
scipy's expm on the generator matrix, the probe state from direct coherent
recursion, statistics from dense ladder arithmetic.  Slow and obvious on
purpose so a disagreement indicts the package, not the reference.
"""

import numpy as np
from scipy.linalg import expm


def ladder(n):
    a = np.zeros((n, n), complex)
    for k in range(1, n):
        a[k - 1, k] = np.sqrt(k)
    return a


_dcache = {}


def dmat(mu, n):
    key = (complex(mu), n)
    if key not in _dcache:
        a = ladder(n)
        _dcache[key] = expm(mu * a.conj().T - np.conj(mu) * a)
    return _dcache[key]


def spac(alpha, n):
    coh = np.empty(n, complex)
    coh[0] = np.exp(-abs(alpha) ** 2 / 2)
    for k in range(1, n):
        coh[k] = coh[k - 1] * alpha / np.sqrt(k)
    v = np.zeros(n, complex)
    v[1:] = coh[:-1] * np.sqrt(np.arange(1, n))
    return v / np.linalg.norm(v)


def mean_a(v):
    n = len(v)
    av = np.zeros(n, complex)
    av[:-1] = np.sqrt(np.arange(1, n)) * v[1:]
    return np.vdot(v, av)


def mean_a2(v):
    n = len(v)
    av = np.zeros(n, complex)
    av[:-1] = np.sqrt(np.arange(1, n)) * v[1:]
    a2v = np.zeros(n, complex)
    a2v[:-1] = np.sqrt(np.arange(1, n)) * av[1:]
    return np.vdot(v, a2v)


def mean_n(v):
    return float(np.real(np.abs(v) ** 2 @ np.arange(len(v))))


def xmoments(v, sigma=1.0):
    ma = mean_a(v)
    ma2 = mean_a2(v)
    mn = mean_n(v)
    mx = 2 * sigma * ma.real
    mx2 = sigma**2 * (2 * ma2.real + 2 * mn + 1)
    mp = ma.imag / sigma
    mp2 = (2 * mn + 1 - 2 * ma2.real) / (4 * sigma**2)
    return mx, mp, mx2, mp2


def weak_value(phi, delta):
    return np.exp(1j * delta) * np.tan(phi / 2)


def final_state(phi, delta, alpha, G, n):
    A = weak_value(phi, delta)
    pv = spac(alpha, n)
    up = dmat(G / 2, n) @ pv
    dn = dmat(-G / 2, n) @ pv
    B = (1 + A) * up + (1 - A) * dn
    nrm2 = float(np.vdot(B, B).real)
    return B / np.sqrt(nrm2), nrm2, pv, up, dn


def brute_point(phi, delta, r, theta, G, sigma=1.0, n=320):
    alpha = r * np.exp(1j * theta)
    A = weak_value(phi, delta)
    Phi, nrm2, pv, up, dn = final_state(phi, delta, alpha, G, n)
    C = (1 + A) * up - (1 - A) * dn
    B = Phi * np.sqrt(nrm2)
    sT = np.vdot(B, C) / nrm2
    mx, mp, mx2, mp2 = xmoments(Phi, sigma)
    mx0, mp0, mx20, mp20 = xmoments(pv, sigma)
    return dict(
        binv=nrm2 / 2,
        sT=sT,
        dx=mx - mx0,
        dp=mp - mp0,
        Dx=np.sqrt(mx2 - mx**2),
        varx0=mx20 - mx0**2,
        varp0=mp20 - mp0**2,
        mx0=mx0,
        Phi=Phi,
        pv=pv,
        up=up,
        dn=dn,
        A=A,
        alpha=alpha,
    )


def k0k1(alpha, mu, n=320):
    pv = spac(alpha, n)
    D = dmat(mu, n)
    av = np.zeros(n, complex)
    av[:-1] = np.sqrt(np.arange(1, n)) * pv[1:]
    return np.vdot(pv, D @ pv), np.vdot(pv, D @ av)


def fisher(phi, delta, alpha, G, n=320):
    """Fisher information of the normalized kept state in G, by exact derivative.

    d/dG D(+-G/2) = +-(1/2) gen D(+-G/2) for gen = adag - a, since gen
    commutes with its own exponential.
    """
    A = weak_value(phi, delta)
    Phi, nrm2, pv, up, dn = final_state(phi, delta, alpha, G, n)
    a = ladder(n)
    dB = 0.5 * (a.conj().T - a) @ ((1 + A) * up - (1 - A) * dn)
    B = Phi * np.sqrt(nrm2)
    return 4 * (np.vdot(dB, dB).real / nrm2 - abs(np.vdot(B, dB)) ** 2 / nrm2**2)
