"""SNR comparison and Fisher information estimators."""

import dataclasses
import math

import numpy as np
import pytest

import bruteforce as bf
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
    def test_gauge_invariance_under_phase_drift(self):
        eps = 1e-4
        bundle = fock.branch_bundle(QFI_SEL, QFI_PTR, Coupling(strength=1.0))
        center = bundle.kept.state.amplitudes
        near, _ = fock.assemble_at_cutoff(bundle, 1.0 + eps)
        bare = metrology.fisher_from_states(center, near, eps)
        spun = metrology.fisher_from_states(center * np.exp(-0.7j), near * np.exp(0.3j), eps)
        assert bare > 0.0
        # the phases move only the overlap's ~1e-16 roundoff, which the
        # 1 / eps^2 scale turns into ~1e-8 of the value
        assert spun == pytest.approx(bare, rel=1e-6)


class TestQfi:
    def test_frozen_benchmark_is_step_and_strength_independent(self):
        # one branch, the one-photon pointer: F = <G^dagger G> = 3 exactly
        for strength in (0.2, 1.0, 2.0):
            rep = metrology.qfi(BENCH_SEL, BENCH_PTR, Coupling(strength=strength))
            assert rep.fisher == pytest.approx(3.0, abs=1e-12)
            assert rep.weighted_fisher == pytest.approx(1.5, abs=1e-12)
            assert rep.cramer_rao == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_frozen_strength_sweep_points(self):
        weak = metrology.qfi(QFI_SEL, QFI_PTR, Coupling(strength=0.1))
        assert weak.weighted_fisher == pytest.approx(0.07414610704010671, rel=1e-9)
        strong = metrology.qfi(QFI_SEL, QFI_PTR, Coupling(strength=1.0))
        assert strong.weighted_fisher == pytest.approx(11.584186981121846, rel=1e-9)

    def test_frozen_radius_sweep_is_monotone(self):
        pins = {
            0.0: 2.749498485812508,
            1.0: 4.033640847481491,
            2.0: 11.584186981121846,
            3.0: 26.262528179003073,
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

    @pytest.mark.parametrize(
        "sel, ptr, strength",
        [
            (QFI_SEL, QFI_PTR, 0.1),
            (QFI_SEL, QFI_PTR, 1.0),
            (SNR_SEL, SNR_PTR, 0.3),
            (SelectionParams(phi=1.0, delta=0.3), PointerParams(r=3.0, theta=2.0), 2.5),
        ],
    )
    def test_engines_and_brute_force_agree(self, sel, ptr, strength):
        rep = metrology.qfi(sel, ptr, Coupling(strength=strength))
        closed = analytic.fisher_information(sel, ptr, Coupling(strength=strength))
        brute = bf.fisher(sel.phi, sel.delta, ptr.alpha, strength)
        assert rep.fisher == pytest.approx(closed, rel=1e-12)
        assert rep.fisher == pytest.approx(brute, rel=1e-12)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            metrology.qfi(QFI_SEL, QFI_PTR, Coupling(strength=1.0), trials=0)

    def test_zero_and_tiny_strength_are_finite(self):
        # no step, so strength 0 is an ordinary point and the value is
        # continuous into it
        pointer = PointerParams(r=2.0, theta=0.5)
        sel = SelectionParams(phi=1.0, delta=0.3)
        values = [
            metrology.qfi(sel, pointer, Coupling(strength=s)).fisher
            for s in (0.0, 1e-300, 1e-5, 1e-4)
        ]
        assert values[0] == pytest.approx(0.3739225340334, rel=1e-12)
        assert values[1] == values[0]
        # dF/dg is about -1.15 here, so F moves by no more than 2 g
        assert abs(values[2] - values[0]) <= 2e-5
        assert abs(values[3] - values[0]) <= 2e-4
        rep = metrology.qfi(QFI_SEL, QFI_PTR, Coupling(strength=1e-5))
        assert math.isfinite(rep.cramer_rao) and rep.cramer_rao > 0.0

    def test_engine_disagreement_is_fatal(self, monkeypatch):
        true_fisher = analytic.fisher_information

        def skewed(sel, pointer, coupling):
            return true_fisher(sel, pointer, coupling) * (1.0 + 1e-6)

        monkeypatch.setattr(analytic, "fisher_information", skewed)
        with pytest.raises(metrology.EngineMismatch):
            metrology.qfi(QFI_SEL, QFI_PTR, Coupling(strength=1.0))

    def test_orthogonal_selection_propagates(self):
        with pytest.raises(OrthogonalSelection):
            metrology.qfi(SelectionParams(phi=math.pi), QFI_PTR, Coupling(strength=1.0))
