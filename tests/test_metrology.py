"""SNR comparison and Fisher information estimators."""

import dataclasses
import math

import numpy as np
import pytest

from spacmeter import analytic, fock, metrology
from spacmeter.model import (
    Coupling,
    OrthogonalSelection,
    PointerParams,
    SelectionParams,
)

SNR_SEL = SelectionParams(phi=math.pi / 12, delta=5 * math.pi / 12)
SNR_PTR = PointerParams(r=5.0, theta=math.pi / 2)
SNR_CPL = Coupling(strength=0.3)

QFI_SEL = SelectionParams(phi=math.pi / 6, delta=math.pi / 6)
QFI_PTR = PointerParams(r=2.0, theta=math.pi / 6)

BENCH_SEL = SelectionParams(phi=math.pi / 2, delta=0.0)
BENCH_PTR = PointerParams(r=0.0)


class TestSnr:
    def test_frozen_advantage_point(self):
        rep = metrology.snr(SNR_SEL, SNR_PTR, SNR_CPL, trials=100)
        assert rep.ratio == pytest.approx(9.050546458265481, rel=1e-10)
        assert rep.postselected == pytest.approx(1.6840018663603282, rel=1e-10)
        assert rep.nonpostselected == pytest.approx(0.18606631921351005, rel=1e-10)
        assert rep.trials == 100
        assert rep.success_probability == pytest.approx(
            math.cos(math.pi / 24) ** 2, abs=1e-15
        )

    def test_advantage_exceeds_unity_at_narrow_selection(self):
        rep = metrology.snr(SNR_SEL, SNR_PTR, SNR_CPL)
        assert rep.ratio > 1.0

    def test_balanced_selection_ratio_is_pure_probability_cost(self):
        # phi = pi/2, delta = 0: both schemes see the same shift and the
        # same spread, so the ratio collapses to sqrt(1/2)
        sel = SelectionParams(phi=math.pi / 2, delta=0.0)
        rep = metrology.snr(sel, QFI_PTR, Coupling(strength=1.0))
        assert rep.ratio == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_large_radius_is_certified(self):
        # The pointer's mass reaches past displacement column 415, where the
        # safe block once stopped growing; snr's own closed-form shift check
        # is the cross-engine evidence for the returned ratio.
        ptr = PointerParams(r=16.75, theta=math.pi / 2)
        rep = metrology.snr(SNR_SEL, ptr, SNR_CPL)
        assert math.isfinite(rep.ratio) and rep.ratio > 0.0

    def test_trial_count_cancels_in_ratio(self):
        lone = metrology.snr(SNR_SEL, SNR_PTR, SNR_CPL, trials=1)
        many = metrology.snr(SNR_SEL, SNR_PTR, SNR_CPL, trials=1000)
        assert lone.ratio == many.ratio
        assert many.postselected == pytest.approx(
            math.sqrt(1000.0) * lone.postselected, rel=1e-12
        )

    def test_ratio_is_quotient_of_reported_sides(self):
        rep = metrology.snr(SNR_SEL, SNR_PTR, SNR_CPL, trials=7)
        assert rep.ratio == pytest.approx(
            rep.postselected / rep.nonpostselected, rel=1e-12
        )

    def test_degenerate_reference_rejected(self):
        with pytest.raises(metrology.DegenerateReference):
            metrology.snr(
                SelectionParams(phi=math.pi / 6, delta=math.pi / 2),
                SNR_PTR,
                SNR_CPL,
            )
        with pytest.raises(metrology.DegenerateReference):
            metrology.snr(SelectionParams(phi=math.pi), SNR_PTR, SNR_CPL)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            metrology.snr(SNR_SEL, SNR_PTR, Coupling(strength=0.0))
        with pytest.raises(ValueError):
            metrology.snr(SNR_SEL, SNR_PTR, SNR_CPL, trials=0)

    def test_engine_disagreement_is_fatal(self, monkeypatch):
        true_shifts = analytic.pointer_shifts

        def skewed(sel, pointer, coupling):
            res = true_shifts(sel, pointer, coupling)
            return dataclasses.replace(res, position_shift=res.position_shift + 0.1)

        monkeypatch.setattr(analytic, "pointer_shifts", skewed)
        with pytest.raises(metrology.EngineMismatch):
            metrology.snr(SNR_SEL, SNR_PTR, SNR_CPL)


class TestFisherFromStates:
    def _states(self, eps):
        bundle = fock.branch_bundle(QFI_SEL, QFI_PTR, Coupling(strength=1.0))
        plus, _ = fock.assemble_at_cutoff(bundle, 1.0 + eps)
        minus, _ = fock.assemble_at_cutoff(bundle, 1.0 - eps)
        return bundle.kept.state.amplitudes, plus, minus

    def test_gauge_invariance_under_phase_drift(self):
        eps = 1e-4
        center, plus, minus = self._states(eps)
        bare, _ = metrology.fisher_from_states(center, plus, minus, eps)
        spun, _ = metrology.fisher_from_states(
            center,
            plus * np.exp(0.3j),
            minus * np.exp(-0.7j),
            eps,
        )
        assert spun == pytest.approx(bare, rel=1e-12)

    def test_two_estimators_agree_after_bias_removal(self):
        # the raw fidelity form carries a linear-in-step bias; compare the
        # derivative value against its Richardson-combined counterpart
        center, plus, minus = self._states(1e-4)
        fisher, fid_full = metrology.fisher_from_states(center, plus, minus, 1e-4)
        _, _, half = self._states(5e-5)
        del half
        assert fisher > 0.0
        assert fid_full == pytest.approx(fisher, rel=5e-3)


class TestQfi:
    def test_frozen_benchmark_is_step_and_strength_independent(self):
        for strength in (0.2, 1.0, 2.0):
            rep = metrology.qfi(BENCH_SEL, BENCH_PTR, Coupling(strength=strength))
            assert rep.fisher == pytest.approx(2.9999999875, abs=1e-8)
            assert rep.weighted_fisher == pytest.approx(1.49999999375, abs=1e-8)
            assert rep.cramer_rao == pytest.approx(2.0 / 3.0, abs=1e-4)
            assert rep.step == 1e-4

    def test_frozen_strength_sweep_points(self):
        weak = metrology.qfi(QFI_SEL, QFI_PTR, Coupling(strength=0.1))
        assert weak.weighted_fisher == pytest.approx(0.0741461087108056, rel=1e-9)
        strong = metrology.qfi(QFI_SEL, QFI_PTR, Coupling(strength=1.0))
        assert strong.weighted_fisher == pytest.approx(11.584186568050567, rel=1e-9)

    def test_frozen_radius_sweep_is_monotone(self):
        pins = {
            0.0: 2.7494984812183336,
            1.0: 4.033640811849145,
            2.0: 11.584186568050567,
            3.0: 26.262525852140968,
        }
        seen = []
        for r, want in pins.items():
            ptr = PointerParams(r=r, theta=math.pi / 6)
            rep = metrology.qfi(QFI_SEL, ptr, Coupling(strength=1.0))
            assert rep.weighted_fisher == pytest.approx(want, rel=1e-9)
            seen.append(rep.weighted_fisher)
        assert seen == sorted(seen)

    def test_weighting_and_bound_invariants(self):
        rep = metrology.qfi(QFI_SEL, QFI_PTR, Coupling(strength=1.0), trials=1)
        keep = math.cos(QFI_SEL.phi / 2.0) ** 2
        assert rep.weighted_fisher == pytest.approx(keep * rep.fisher, rel=1e-14)
        assert rep.weighted_fisher <= rep.fisher
        assert rep.cramer_rao == pytest.approx(1.0 / rep.weighted_fisher, rel=1e-14)

    def test_bound_scales_inversely_with_trials(self):
        lone = metrology.qfi(QFI_SEL, QFI_PTR, Coupling(strength=1.0), trials=1)
        many = metrology.qfi(QFI_SEL, QFI_PTR, Coupling(strength=1.0), trials=100)
        assert many.cramer_rao == pytest.approx(lone.cramer_rao / 100.0, rel=1e-12)
        assert many.fisher == lone.fisher

    def test_coarse_step_raises_after_one_refinement(self):
        with pytest.raises(metrology.StepTooCoarse):
            metrology.qfi(QFI_SEL, QFI_PTR, Coupling(strength=1.0), step=0.5)

    def test_invalid_arguments_rejected(self):
        cpl = Coupling(strength=1.0)
        with pytest.raises(ValueError):
            metrology.qfi(QFI_SEL, QFI_PTR, cpl, trials=0)
        with pytest.raises(ValueError):
            metrology.qfi(QFI_SEL, QFI_PTR, cpl, step=0.0)
        with pytest.raises(ValueError):
            metrology.qfi(QFI_SEL, QFI_PTR, Coupling(strength=1e-5))

    def test_orthogonal_selection_propagates(self):
        with pytest.raises(OrthogonalSelection):
            metrology.qfi(SelectionParams(phi=math.pi), QFI_PTR, Coupling(strength=1.0))
