"""Closed-form engine: kernels, shifts, limits, moment identities."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from spacmeter import analytic
from spacmeter.model import Coupling, PointerParams, SelectionParams, weak_value

P1_SEL = SelectionParams(phi=math.pi / 3, delta=math.pi / 6)
P1_PTR = PointerParams(r=2.0, theta=math.pi / 6)
P1_CPL = Coupling(strength=0.9)

P2_SEL = SelectionParams(phi=math.pi / 6, delta=math.pi / 6)
P2_CPL = Coupling(strength=1.0)

strengths = st.floats(min_value=0.0, max_value=3.0)
phis = st.floats(min_value=0.01, max_value=math.pi - 0.01)
deltas = st.floats(min_value=0.0, max_value=2.0 * math.pi)
radii = st.floats(min_value=0.0, max_value=4.0)
thetas = st.floats(min_value=0.0, max_value=2.0 * math.pi)


class TestKernels:
    def test_frozen_values(self):
        k = analytic.displaced_kernels(P1_PTR, -0.8)
        assert k.overlap == pytest.approx(
            -0.2507578057483425 + 0.626146939337592j, rel=1e-12
        )
        assert k.lowered_overlap == pytest.approx(
            -1.2095925740238318 + 0.9648237067144996j, rel=1e-12
        )
        k = analytic.displaced_kernels(P1_PTR, 0.35 + 0.2j)
        assert k.overlap == pytest.approx(
            0.8919668736207318 - 0.007728057735968172j, rel=1e-10
        )
        assert k.lowered_overlap == pytest.approx(
            1.9381535816900624 + 1.0970905824201471j, rel=1e-12
        )

    def test_matches_bruteforce(self):
        for mu in (0.6, -1.2, 0.35 + 0.2j, -0.4 - 0.9j):
            k = analytic.displaced_kernels(P1_PTR, mu)
            k0, k1 = bf.k0k1(P1_PTR.alpha, mu, n=160)
            assert k.overlap == pytest.approx(complex(k0), abs=1e-12)
            assert k.lowered_overlap == pytest.approx(complex(k1), abs=1e-12)

    def test_zero_shift_identities(self):
        k = analytic.displaced_kernels(P1_PTR, 0.0)
        assert k.overlap == pytest.approx(1.0, abs=1e-15)
        assert k.lowered_overlap == pytest.approx(analytic.mean_lowering(P1_PTR), abs=1e-15)

    @given(re=st.floats(-2.5, 2.5), im=st.floats(-2.5, 2.5), r=radii, theta=thetas)
    @settings(max_examples=80)
    def test_conjugation_and_bound(self, re, im, r, theta):
        ptr = PointerParams(r=r, theta=theta)
        mu = complex(re, im)
        k_fore = analytic.displaced_kernels(ptr, mu)
        k_back = analytic.displaced_kernels(ptr, -mu)
        assert k_fore.overlap.conjugate() == pytest.approx(k_back.overlap, abs=1e-12)
        assert abs(k_fore.overlap) <= 1.0 + 1e-12

    def test_vacuum_pointer_closed_form(self):
        # at alpha = 0 and real shift: K0 = exp(-mu^2/2) (1 - mu^2)
        ptr = PointerParams(r=0.0)
        for mu in (0.3, 1.0, 2.4):
            k = analytic.displaced_kernels(ptr, mu)
            assert k.overlap == pytest.approx(
                math.exp(-mu * mu / 2.0) * (1.0 - mu * mu), abs=1e-14
            )

    def test_flush_to_zero_far_out(self):
        k = analytic.displaced_kernels(P1_PTR, 60.0)
        assert k.overlap == 0j
        assert k.lowered_overlap == 0j
        assert analytic.transcribed_shift_kernel(P1_PTR, 60.0) == 0j


class TestTranscribedKernel:
    def test_vacuum_value(self):
        # alpha = 0, strength 1: bracket reduces to 3 G exp(-G^2/2)
        ptr = PointerParams(r=0.0)
        assert analytic.transcribed_shift_kernel(ptr, 1.0) == pytest.approx(
            3.0 * math.exp(-0.5), abs=1e-15
        )

    @given(g=st.floats(0.05, 2.5), r=st.floats(0.0, 3.0), theta=thetas)
    @settings(max_examples=60)
    def test_defect_is_exactly_cubic(self, g, r, theta):
        # kernel-true combination differs from the transcription by the
        # G^3 term under the shared Gaussian-phase envelope
        ptr = PointerParams(r=r, theta=theta)
        k = analytic.displaced_kernels(ptr, g)
        true_sum = 2.0 * (k.lowered_overlap + 0.5 * g * k.overlap) / ptr.norm_factor_sq
        envelope = cmath.exp(-2.0j * g * ptr.alpha.imag) * math.exp(-g * g / 2.0)
        transcribed = analytic.transcribed_shift_kernel(ptr, g)
        assert true_sum == pytest.approx(transcribed - g**3 * envelope, abs=1e-9)


class TestShifts:
    def test_frozen_p1(self):
        res = analytic.pointer_shifts(P1_SEL, P1_PTR, P1_CPL)
        assert res.inverse_norm_sq == pytest.approx(1.3755461368557726, rel=1e-12)
        assert res.transition == pytest.approx(
            0.7269839761869439 - 0.3888084710465359j, rel=1e-12
        )
        assert res.position_shift == pytest.approx(0.7710210148955632, rel=1e-11)
        assert res.momentum_shift == pytest.approx(-0.20937806788331104, rel=1e-11)

    def test_frozen_p2(self):
        res = analytic.pointer_shifts(P2_SEL, P1_PTR, P2_CPL)
        assert res.inverse_norm_sq == pytest.approx(0.7707718012946976, rel=1e-12)
        assert res.transition == pytest.approx(
            0.6021258358935596 - 0.5566356932174406j, rel=1e-12
        )
        assert res.position_shift == pytest.approx(0.794950096285346, rel=1e-11)
        assert res.momentum_shift == pytest.approx(-0.3730364213061339, rel=1e-11)

    def test_matches_bruteforce_on_sample_points(self):
        cases = [
            (0.4, 0.0, 0.0, 0.0, 0.7),
            (1.2, 2.1, 1.0, 4.0, 1.6),
            (2.6, 5.0, 3.0, 2.2, 0.2),
        ]
        for phi, delta, r, theta, g in cases:
            sel = SelectionParams(phi=phi, delta=delta)
            ptr = PointerParams(r=r, theta=theta)
            ref = bf.brute_point(phi, delta, r, theta, g, n=200)
            res = analytic.pointer_shifts(sel, ptr, Coupling(strength=g))
            assert res.inverse_norm_sq == pytest.approx(ref["binv"], rel=1e-10)
            assert res.transition == pytest.approx(complex(ref["sT"]), abs=1e-10)
            assert res.position_shift == pytest.approx(ref["dx"], abs=1e-10)
            assert res.momentum_shift == pytest.approx(ref["dp"], abs=1e-10)

    @given(g=strengths, r=radii, theta=thetas)
    @settings(max_examples=60)
    def test_balanced_selection_pins_shift_to_g(self, g, r, theta):
        # phi = pi/2, delta = 0 makes the position shift exactly the
        # coupling constant and kills the momentum shift at any strength
        sel = SelectionParams(phi=math.pi / 2, delta=0.0)
        ptr = PointerParams(r=r, theta=theta, sigma=1.0)
        res = analytic.pointer_shifts(sel, ptr, Coupling(strength=g))
        assert res.position_shift == pytest.approx(g, abs=1e-12 * (1.0 + g))
        assert res.momentum_shift == pytest.approx(0.0, abs=1e-12)

    @given(phi=phis, delta=deltas, r=radii)
    @settings(max_examples=60)
    def test_zero_strength_is_inert(self, phi, delta, r):
        sel = SelectionParams(phi=phi, delta=delta)
        ptr = PointerParams(r=r, theta=1.0)
        res = analytic.pointer_shifts(sel, ptr, Coupling(strength=0.0))
        # roundoff scales with the cancelling |A|^2 terms near phi = pi
        slack = 1e-13 * (1.0 + abs(weak_value(sel)) ** 2)
        assert res.inverse_norm_sq == pytest.approx(2.0, abs=slack)
        assert res.position_shift == pytest.approx(0.0, abs=slack)
        assert res.momentum_shift == pytest.approx(0.0, abs=slack)
        assert res.transition == pytest.approx(weak_value(sel), abs=slack)

    @given(phi=st.floats(0.01, 2.6), delta=deltas, r=radii, g=strengths)
    @settings(max_examples=60)
    def test_norm_continuity_in_strength(self, phi, delta, r, g):
        sel = SelectionParams(phi=phi, delta=delta)
        ptr = PointerParams(r=r, theta=0.8)
        cpl_a = Coupling(strength=g)
        cpl_b = Coupling(strength=g + 1e-7)
        gap = abs(
            analytic.inverse_norm_sq(sel, ptr, cpl_a)
            - analytic.inverse_norm_sq(sel, ptr, cpl_b)
        )
        assert gap <= 1e-4

    def test_strong_limit_plateau(self):
        cpl = Coupling(strength=20.0)
        for phi in (math.pi / 12, math.pi / 3, math.pi / 2):
            for delta in (0.0, math.pi / 6):
                sel = SelectionParams(phi=phi, delta=delta)
                target = math.sin(phi) * math.cos(delta)
                res = analytic.pointer_shifts(sel, P1_PTR, cpl)
                g = cpl.coupling_constant(P1_PTR)
                assert res.transition == pytest.approx(target, abs=1e-8)
                assert res.position_shift == pytest.approx(g * target, abs=1e-6 * g)
                assert res.momentum_shift == pytest.approx(0.0, abs=1e-6)
                assert res.inverse_norm_sq == pytest.approx(
                    1.0 + abs(weak_value(sel)) ** 2, abs=1e-10
                )


class TestMoments:
    def test_vacuum_pointer_variances_exact(self):
        for sigma in (1.0, 0.7, 2.5):
            m = analytic.initial_moments(PointerParams(r=0.0, sigma=sigma))
            assert m.position_variance == 3.0 * sigma * sigma
            assert m.momentum_variance == 3.0 / (4.0 * sigma * sigma)
            assert m.mean_excitation == pytest.approx(1.0, abs=1e-15)

    def test_frozen_quadrature_facts(self):
        m = analytic.initial_moments(P1_PTR)
        assert m.position_variance == pytest.approx(0.92, abs=1e-15)
        assert m.momentum_variance == pytest.approx(0.31, abs=1e-15)
        assert m.mean_excitation == pytest.approx(5.8, abs=1e-14)

    @given(r=radii, theta=thetas, sigma=st.floats(0.5, 2.0))
    @settings(max_examples=40)
    def test_against_bruteforce_moments(self, r, theta, sigma):
        ptr = PointerParams(r=r, theta=theta, sigma=sigma)
        v = bf.spac(ptr.alpha, 200)
        mx, mp, mx2, mp2 = bf.xmoments(v, sigma)
        m = analytic.initial_moments(ptr)
        assert m.position_mean == pytest.approx(mx, abs=1e-10)
        assert m.momentum_mean == pytest.approx(mp, abs=1e-10)
        assert m.position_variance == pytest.approx(mx2 - mx * mx, abs=1e-10)
        assert m.momentum_variance == pytest.approx(mp2 - mp * mp, abs=1e-10)

    @given(r=st.floats(0.1, 4.0), theta=thetas)
    @settings(max_examples=40)
    def test_variance_skew_matches_second_moment_asymmetry(self, r, theta):
        # -d(VarX)/d(theta) / (2 sigma^2) equals 2 Im(<a^2> - <a>^2)
        ptr = PointerParams(r=r, theta=theta)
        g2 = ptr.norm_factor_sq
        skew = -2.0 * g2 * g2 * r * r * math.sin(2.0 * theta)
        v = bf.spac(ptr.alpha, 200)
        ma = bf.mean_a(v)
        ma2 = bf.mean_a2(v)
        assert skew == pytest.approx(2.0 * complex(ma2 - ma * ma).imag, abs=1e-10)


class TestWeakLimit:
    def test_residual_is_quadratic_with_frozen_coefficients(self):
        sel = SelectionParams(phi=math.pi / 6, delta=math.pi / 6)
        for g in (1e-2, 3e-2, 1e-1):
            cpl = Coupling(strength=g)
            res = analytic.pointer_shifts(sel, P1_PTR, cpl)
            w_x, w_p = analytic.weak_limit_shifts(sel, P1_PTR, cpl)
            assert abs(res.position_shift - w_x) <= 0.35 * g * g * P1_PTR.sigma
            assert abs(res.momentum_shift - w_p) <= 0.80 * g * g

    def test_components(self):
        sel = SelectionParams(phi=math.pi / 3, delta=5 * math.pi / 12)
        cpl = Coupling(strength=0.02)
        a = weak_value(sel)
        w_x, w_p = analytic.weak_limit_shifts(sel, P1_PTR, cpl)
        g = cpl.coupling_constant(P1_PTR)
        g2 = P1_PTR.norm_factor_sq
        skew = 2.0 * g2 * g2 * 4.0 * math.sin(2.0 * P1_PTR.theta)
        assert w_x == pytest.approx(g * (a.real - skew * a.imag), abs=1e-15)
        var_p = analytic.initial_moments(P1_PTR).momentum_variance
        assert w_p == pytest.approx(2.0 * g * var_p * a.imag, abs=1e-15)
