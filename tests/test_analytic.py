"""Closed-form engine: kernels, shifts, limits, moment identities."""

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
        k0, k1, _, _ = analytic.real_axis_kernel(P1_PTR, -0.8)
        assert k0 == pytest.approx(-0.2507578057483425 + 0.626146939337592j, rel=1e-12)
        assert k1 == pytest.approx(-1.2095925740238318 + 0.9648237067144996j, rel=1e-12)

    def test_matches_bruteforce(self):
        for nu in (0.6, -1.2, 2.5, -0.05):
            k0, k1, _, _ = analytic.real_axis_kernel(P1_PTR, nu)
            want0, want1 = bf.k0k1(P1_PTR.alpha, nu, n=160)
            assert k0 == pytest.approx(complex(want0), abs=1e-12)
            assert k1 == pytest.approx(complex(want1), abs=1e-12)

    def test_zero_shift_identities(self):
        k0, k1, _, _ = analytic.real_axis_kernel(P1_PTR, 0.0)
        assert k0 == pytest.approx(1.0, abs=1e-15)
        assert k1 == pytest.approx(analytic.mean_lowering(P1_PTR), abs=1e-15)

    @given(nu=st.floats(-6.0, 6.0), r=radii, theta=thetas)
    @settings(max_examples=80)
    def test_conjugation_and_bound(self, nu, r, theta):
        ptr = PointerParams(r=r, theta=theta)
        fore = analytic.real_axis_kernel(ptr, nu)[0]
        back = analytic.real_axis_kernel(ptr, -nu)[0]
        assert fore.conjugate() == pytest.approx(back, abs=1e-12)
        assert abs(fore) <= 1.0 + 1e-12

    def test_vacuum_pointer_closed_form(self):
        # at alpha = 0: K0 = exp(-nu^2/2) (1 - nu^2)
        ptr = PointerParams(r=0.0)
        for nu in (0.3, 1.0, 2.4):
            k0 = analytic.real_axis_kernel(ptr, nu)[0]
            assert k0 == pytest.approx(math.exp(-nu * nu / 2.0) * (1.0 - nu * nu), abs=1e-14)

    def test_flush_to_zero_far_out(self):
        for nu in (60.0, -60.0, 1e200):
            assert analytic.real_axis_kernel(P1_PTR, nu) == (0j, 0j, 0j, 0j)

    @pytest.mark.parametrize("sigma", [1.0, 0.7])
    def test_slope_identities_at_zero(self, sigma):
        # K0'(0) = <G> = -2i Im<a> and -K0''(0) = <G^dagger G> = 4 sigma^2 <P^2>
        ptr = PointerParams(r=2.0, theta=math.pi / 6, sigma=sigma)
        _, _, slope, curve = analytic.real_axis_kernel(ptr, 0.0)
        v = bf.spac(ptr.alpha, 160)
        a = bf.ladder(160)
        gv = (a.conj().T - a) @ v
        assert slope == pytest.approx(complex(v.conj() @ gv), abs=1e-12)
        assert slope == pytest.approx(-2j * analytic.mean_lowering(ptr).imag, abs=1e-14)
        assert -curve == pytest.approx(float((gv.conj() @ gv).real), abs=1e-12)
        m = analytic.initial_moments(ptr)
        second_p = m.momentum_variance + m.momentum_mean ** 2
        assert -curve == pytest.approx(4.0 * sigma * sigma * second_p, abs=1e-12)

    def test_real_axis_kernel_matches_bruteforce(self):
        # K0'(nu) = <phi| G D(nu) |phi>, K0''(nu) = -<phi| G^dagger G D(nu) |phi>
        v = bf.spac(P1_PTR.alpha, 160)
        a = bf.ladder(160)
        gen = a.conj().T - a
        for nu in (0.6, -1.2, 2.5):
            _, _, slope, curve = analytic.real_axis_kernel(P1_PTR, nu)
            dv = bf.dmat(nu, 160) @ v
            assert slope == pytest.approx(complex(v.conj() @ gen @ dv), abs=1e-12)
            assert curve == pytest.approx(complex(v.conj() @ gen @ gen @ dv), abs=1e-12)


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
            analytic.pointer_shifts(sel, ptr, cpl_a).inverse_norm_sq
            - analytic.pointer_shifts(sel, ptr, cpl_b).inverse_norm_sq
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


    def test_huge_strength_is_finite(self):
        # the kernels are flushed at -strength and +strength, so the branch sum
        # keeps only its diagonal terms and every read stays finite
        cpl = Coupling(strength=1e200)
        res = analytic.pointer_shifts(P1_SEL, P1_PTR, cpl)
        assert math.isfinite(res.position_shift) and math.isfinite(res.momentum_shift)
        assert res.inverse_norm_sq == 1.0 + abs(weak_value(P1_SEL)) ** 2
        target = math.sin(P1_SEL.phi) * math.cos(P1_SEL.delta)
        assert analytic.transition_value(P1_SEL, P1_PTR, cpl) == pytest.approx(target, rel=1e-12)
        assert math.isfinite(analytic.fisher_information(P1_SEL, P1_PTR, cpl))


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
