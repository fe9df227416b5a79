"""Truncated matrix engine: displacement, pointer vector, branch assembly."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from spacmeter import analytic, fock, metrology
from spacmeter.model import Coupling, PointerParams, SelectionParams, weak_value

P1_SEL = SelectionParams(phi=math.pi / 3, delta=math.pi / 6)
P1_PTR = PointerParams(r=2.0, theta=math.pi / 6)
P2_SEL = SelectionParams(phi=math.pi / 6, delta=math.pi / 6)


class TestDisplacement:
    def test_matrix_elements_match_expm_reference(self):
        for mu in (0.7, -0.45 + 0.3j, 1.5):
            op = fock.displacement_operator(mu, 64)
            ref = bf.dmat(complex(mu), 128)[:48, :48]
            assert np.max(np.abs(op.matrix[:48, :48] - ref)) <= 1e-12

    def test_zero_shift_is_identity(self):
        op = fock.displacement_operator(0.0, 32)
        assert np.array_equal(op.matrix, np.eye(32))
        assert op.safe_dim == 32

    def test_adjoint_reverses_shift(self):
        op_f = fock.displacement_operator(0.6 - 1.1j, 96)
        op_b = fock.displacement_operator(-0.6 + 1.1j, 96)
        assert np.max(np.abs(op_f.matrix.conj().T - op_b.matrix)) <= 1e-13

    def test_unitary_on_safe_block(self):
        op = fock.displacement_operator(1.3 + 0.4j, 128)
        assert 0 < op.safe_dim < op.dim
        assert op.unitarity_defect() <= 1e-10

    def test_safe_dim_shrinks_with_shift_size(self):
        small = fock.displacement_operator(0.2, 96).safe_dim
        large = fock.displacement_operator(2.5, 96).safe_dim
        assert large < small

    @pytest.mark.parametrize("mu, dim, old_cap", [(0.025, 256, 177), (0.15, 512, 415)])
    def test_small_shift_safe_block_follows_truncation(self, mu, dim, old_cap):
        # Column-norm roundoff alone crosses SAFE_COLUMN_LOSS near columns
        # 177 (mu=0.025) and 415 (mu=0.15); a deficit-based gate stopped the
        # safe block there at every cutoff.  The block must end where the
        # displaced mass stops fitting under the cutoff instead.
        op = fock.displacement_operator(mu, dim)
        safe = op.safe_dim
        assert safe > old_cap
        ref = bf.dmat(complex(mu), dim + 128)
        # roundoff of both builds grows with the column index (measured
        # 1.0e-12 and 5.1e-13 here)
        assert np.max(np.abs(op.matrix[:, :safe] - ref[:dim, :safe])) <= 5e-12
        assert op.unitarity_defect() <= 1e-10
        past = np.sum(np.abs(ref[dim:, :dim]) ** 2, axis=0)
        assert past[safe - 1] <= fock.SAFE_COLUMN_LOSS < past[safe]

    @pytest.mark.parametrize("mu, dim", [(10.0, 64), (20.0, 256)])
    def test_shift_past_cutoff_leaves_no_safe_block(self, mu, dim):
        assert fock.displacement_operator(mu, dim).safe_dim == 0

    def test_matrix_is_read_only(self):
        op = fock.displacement_operator(0.8, 32)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 1.0

    def test_tiny_cutoff_rejected(self):
        with pytest.raises(ValueError):
            fock.displacement_operator(0.5, 7)

    @given(
        re=st.floats(-2.0, 2.0),
        im=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_column_norms_inside_safe_block(self, re, im):
        op = fock.displacement_operator(complex(re, im), 96)
        block = op.matrix[:, : op.safe_dim]
        norms = np.sum(np.abs(block) ** 2, axis=0)
        assert np.all(np.abs(norms - 1.0) <= 1e-11)


class TestPointerVector:
    def test_vacuum_seed_is_first_excited_level(self):
        state = fock.spac_state(PointerParams(r=0.0))
        expected = np.zeros(state.n_max)
        expected[1] = 1.0
        assert np.array_equal(state.amplitudes.real, expected)
        assert np.all(state.amplitudes.imag == 0.0)

    def test_ground_amplitude_always_zero(self):
        for r in (0.0, 0.5, 2.0, 5.0):
            state = fock.spac_state(PointerParams(r=r, theta=0.7))
            assert state.amplitudes[0] == 0j

    def test_normalized_with_tiny_tail(self):
        state = fock.spac_state(P1_PTR)
        assert np.vdot(state.amplitudes, state.amplitudes).real == pytest.approx(
            1.0, abs=1e-14
        )
        assert 0.0 <= state.tail_mass <= 1e-14

    def test_matches_bruteforce_amplitudes(self):
        for r, theta in ((0.8, 0.0), (2.0, math.pi / 6), (4.0, 2.5)):
            ptr = PointerParams(r=r, theta=theta)
            state = fock.spac_state(ptr)
            ref = bf.spac(ptr.alpha, state.n_max)
            assert np.max(np.abs(state.amplitudes - ref)) <= 1e-13

    def test_frozen_moment_facts(self):
        m = fock.moments(fock.spac_state(P1_PTR), P1_PTR)
        assert m.mean_excitation == pytest.approx(5.8, abs=1e-12)
        assert m.position_variance == pytest.approx(0.92, abs=1e-12)
        assert m.momentum_variance == pytest.approx(0.31, abs=1e-12)

    def test_moments_agree_with_closed_forms(self):
        for r, theta, sigma in ((0.0, 0.0, 1.0), (1.5, 1.0, 0.6), (3.0, 4.0, 2.0)):
            ptr = PointerParams(r=r, theta=theta, sigma=sigma)
            got = fock.moments(fock.spac_state(ptr), ptr)
            want = analytic.initial_moments(ptr)
            assert got.position_mean == pytest.approx(want.position_mean, abs=1e-11)
            assert got.momentum_mean == pytest.approx(want.momentum_mean, abs=1e-11)
            assert got.position_variance == pytest.approx(
                want.position_variance, abs=1e-11
            )
            assert got.momentum_variance == pytest.approx(
                want.momentum_variance, abs=1e-11
            )
            assert got.mean_excitation == pytest.approx(want.mean_excitation, abs=1e-10)


class TestTruncationPolicy:
    def test_defaults(self):
        assert fock.TruncationPolicy().initial_dim is None
        assert fock.TAIL_TOL == 1e-14
        assert fock.GUARD_BAND == 8
        assert fock.HARD_DIM_CAP == 4096

    def test_starting_dim_scales_with_occupation(self):
        pol = fock.TruncationPolicy()
        low = pol.starting_dim(PointerParams(r=0.0), 0.1)
        high = pol.starting_dim(PointerParams(r=6.0), 4.0)
        assert low >= 64
        assert low % 32 == 0 and high % 32 == 0
        assert high > low

    @pytest.mark.parametrize("kwargs", [{"initial_dim": 4}])
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValueError):
            fock.TruncationPolicy(**kwargs)

    def test_cap_reported_when_unreachable(self, monkeypatch):
        # At r = 70 the pointer's bulk (about r^2 = 4900 photons) lies past
        # HARD_DIM_CAP, so the pointer tail rejects the capped first rung
        # before any amplitude or displacement matrix is built; a reach of
        # (strength/2)^2 photons past the cap rejects it before the
        # displacement.  Either way: a typed error in bounded memory.
        built = []
        monkeypatch.setattr(fock, "_displacement", lambda *key: built.append(key))
        for r, strength in ((70.0, 0.9), (1e200, 0.9), (2.0, 1e200)):
            ptr, cpl = PointerParams(r=r), Coupling(strength=strength)
            assert fock.TruncationPolicy().starting_dim(ptr, strength) == fock.HARD_DIM_CAP
            calls = [
                lambda: fock.branch_bundle(P1_SEL, ptr, cpl),
                lambda: metrology.snr(P1_SEL, ptr, cpl),
                lambda: metrology.qfi(P1_SEL, ptr, cpl),
            ]
            if r > 21.0:
                calls.append(lambda: fock.spac_state(ptr))
            for call in calls:
                with pytest.raises(fock.TruncationInsufficient):
                    call()
        assert built == []


class TestAssembly:
    def test_output_is_normalized(self):
        out = fock.assemble_final_state(P1_SEL, P1_PTR, Coupling(strength=0.9))
        v = out.state.amplitudes
        assert np.vdot(v, v).real == pytest.approx(1.0, abs=1e-13)
        assert out.state.tail_mass <= 2e-14

    def test_norm_tracks_closed_form_inverse_norm(self):
        # vector norm of (1+A) up + (1-A) dn is twice the postselection
        # norm factor; this is the primary cross-engine handshake
        for sel, g in ((P1_SEL, 0.9), (P2_SEL, 1.0), (P1_SEL, 0.05)):
            out = fock.assemble_final_state(sel, P1_PTR, Coupling(strength=g))
            want = analytic.pointer_shifts(sel, P1_PTR, Coupling(strength=g)).inverse_norm_sq
            assert out.norm_sq == pytest.approx(2.0 * want, rel=1e-12)

    def test_frozen_success_probability(self):
        out = fock.assemble_final_state(P2_SEL, P1_PTR, Coupling(strength=1.0))
        assert out.success_probability == pytest.approx(0.3595699404341493, rel=1e-10)

    def test_zero_strength_returns_pointer_state(self):
        out = fock.assemble_final_state(P1_SEL, P1_PTR, Coupling(strength=0.0))
        psi = fock.spac_state(P1_PTR)
        size = min(out.state.n_max, psi.n_max)
        got = out.state.amplitudes[:size]
        ref = psi.amplitudes[:size]
        # global phase fixed by (1 + Re A) > 0 here
        phase = np.vdot(ref, got)
        got = got * (phase.conjugate() / abs(phase))
        assert np.max(np.abs(got - ref)) <= 1e-12

    def test_balanced_selection_shifts_by_coupling_constant(self):
        sel = SelectionParams(phi=math.pi / 2, delta=0.0)
        for sigma in (1.0, 0.5):
            ptr = PointerParams(r=2.0, theta=math.pi / 6, sigma=sigma)
            out = fock.assemble_final_state(sel, ptr, Coupling(strength=1.4))
            before = fock.moments(fock.spac_state(ptr), ptr)
            after = fock.moments(out.state, ptr)
            assert after.position_mean - before.position_mean == pytest.approx(
                1.4 * sigma, rel=1e-11
            )
            assert after.momentum_mean - before.momentum_mean == pytest.approx(
                0.0, abs=1e-11
            )

    def test_shifts_match_bruteforce(self):
        ref = bf.brute_point(
            math.pi / 3, math.pi / 6, 2.0, math.pi / 6, 0.9, n=200
        )
        out = fock.assemble_final_state(P1_SEL, P1_PTR, Coupling(strength=0.9))
        after = fock.moments(out.state, P1_PTR)
        before = fock.moments(fock.spac_state(P1_PTR), P1_PTR)
        assert after.position_mean - before.position_mean == pytest.approx(
            ref["dx"], abs=1e-11
        )
        assert after.momentum_mean - before.momentum_mean == pytest.approx(
            ref["dp"], abs=1e-11
        )

    def test_orthogonal_selection_propagates(self):
        with pytest.raises(ValueError):
            fock.assemble_final_state(
                SelectionParams(phi=math.pi), P1_PTR, Coupling(strength=1.0)
            )

    def test_commutator_residual_small(self):
        out = fock.assemble_final_state(P1_SEL, P1_PTR, Coupling(strength=0.9))
        assert fock.commutator_residual(out.state, P1_PTR) <= 1e-8


class TestTransitionMoment:
    def test_frozen_p1(self):
        got = fock.transition_moment(P1_SEL, P1_PTR, Coupling(strength=0.9))
        assert got == pytest.approx(
            0.7269839761869439 - 0.3888084710465359j, rel=1e-10
        )

    def test_matches_closed_form_and_bruteforce(self):
        for phi, delta, r, theta, g in (
            (0.7, 1.1, 1.0, 0.4, 0.6),
            (2.2, 4.0, 3.0, 2.0, 1.8),
        ):
            sel = SelectionParams(phi=phi, delta=delta)
            ptr = PointerParams(r=r, theta=theta)
            cpl = Coupling(strength=g)
            got = fock.transition_moment(sel, ptr, cpl)
            assert got == pytest.approx(
                analytic.transition_value(sel, ptr, cpl), abs=1e-11
            )
            ref = bf.brute_point(phi, delta, r, theta, g, n=220)
            assert got == pytest.approx(complex(ref["sT"]), abs=1e-10)


class TestUnconditionedStatistics:
    def test_frozen_mixture_point(self):
        m = fock.nonpostselected_moments(P2_SEL, P1_PTR, Coupling(strength=1.0))
        before = fock.moments(fock.spac_state(P1_PTR), P1_PTR)
        assert m.position_mean - before.position_mean == pytest.approx(
            0.43301270189221697, abs=1e-11
        )
        assert m.position_variance == pytest.approx(1.7325, abs=1e-11)

    def test_mean_shift_is_projection_rule(self):
        for phi, delta, g in ((0.3, 0.0, 0.7), (2.0, 1.2, 1.5), (math.pi, 0.5, 1.0)):
            sel = SelectionParams(phi=phi, delta=delta)
            m = fock.nonpostselected_moments(sel, P1_PTR, Coupling(strength=g))
            before = fock.moments(fock.spac_state(P1_PTR), P1_PTR)
            want = g * math.sin(phi) * math.cos(delta)
            assert m.position_mean - before.position_mean == pytest.approx(
                want, abs=1e-11
            )

    def test_variance_gains_branch_spread(self):
        sel = P2_SEL
        g = 1.0
        m = fock.nonpostselected_moments(sel, P1_PTR, Coupling(strength=g))
        base = analytic.initial_moments(P1_PTR).position_variance
        contrast = math.sin(sel.phi) * math.cos(sel.delta)
        want = base + g * g * (1.0 - contrast * contrast)
        assert m.position_variance == pytest.approx(want, abs=1e-11)


class TestFixedCutoff:
    def test_matches_certified_assembly(self):
        bundle = fock.branch_bundle(P1_SEL, P1_PTR, Coupling(strength=0.9))
        vec, norm_sq = fock.assemble_at_cutoff(bundle, 0.9)
        assert norm_sq == pytest.approx(bundle.kept.norm_sq, rel=1e-13)
        assert np.max(np.abs(vec - bundle.kept.state.amplitudes)) <= 1e-12

    def test_doubling_the_cutoff_is_inert(self):
        cpl = Coupling(strength=0.9)
        bundles = [
            fock.branch_bundle(P1_SEL, P1_PTR, cpl, fock.TruncationPolicy(initial_dim=dim))
            for dim in (128, 256)
        ]
        assert [b.n_max for b in bundles] == [128, 256]
        (vec_a, norm_a), (vec_b, norm_b) = (fock.assemble_at_cutoff(b, 0.9) for b in bundles)
        assert norm_b == pytest.approx(norm_a, rel=1e-12)
        assert np.max(np.abs(vec_b[:128] - vec_a)) <= 1e-11


def test_engine_shares_no_closed_forms():
    import inspect

    source = inspect.getsource(fock)
    assert "analytic" not in source
    assert "scipy" not in source
