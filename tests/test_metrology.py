"""SNR comparison and Fisher information estimators."""

import dataclasses
import math

import numpy as np
import pytest

import bruteforce as bf
from spacmeter import analytic, fock, metrology, sweep, verify
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


@pytest.fixture
def skewed_position_shift(monkeypatch):
    """analytic.pointer_shifts with its position shift off by 0.1."""
    true_shifts = analytic.pointer_shifts

    def skewed(sel, pointer, coupling):
        res = true_shifts(sel, pointer, coupling)
        return dataclasses.replace(res, position_shift=res.position_shift + 0.1)

    monkeypatch.setattr(analytic, "pointer_shifts", skewed)


def test_skewed_closed_form_is_seen_alike_by_every_view(skewed_position_shift):
    # snr (TestSnr), sweep rows and verify's grid read one record per point:
    # chi refuses the point after its certificate is written, the dx cells
    # only report the gap, and verify names where it is worst
    spec = sweep.SweepSpec(axis="strength", start=0.3, stop=0.6, count=2, phi=SNR_SEL.phi,
                           delta=SNR_SEL.delta, r=SNR_PTR.r, theta=SNR_PTR.theta, outputs=("chi",))
    _, rows = sweep.run_sweep(spec)
    assert [row["flag"] for row in rows] == ["EngineMismatch"] * 2
    assert all(row["n_max[1]"] and row["tail_mass[1]"] and "chi[1]" not in row for row in rows)
    _, rows = sweep.run_sweep(dataclasses.replace(spec, outputs=("dx",)))
    assert [row["flag"] for row in rows] == [""] * 2
    assert all(float(row["dx_residual[length]"]) == pytest.approx(0.1, rel=1e-9) for row in rows)

    grid = verify.fast_grid()
    checks = {c.name: c for c in verify._cross_engine_checks(grid)}
    failed = checks["cross-engine position shift on grid"]
    assert [name for name, c in checks.items() if not c.passed] == [failed.name]
    order = list(fock.warmed((pointer, coupling.strength) for _, pointer, coupling in grid))
    ratios = [metrology.Reading(*grid[i]).position_shift.ratio for i in order]
    assert failed.worst == max(ratios) > 1.0
    assert failed.point == verify._label(*grid[order[ratios.index(failed.worst)]])


def _cold(sel, pointer, coupling):
    """Fresh copies of a point's parameters, with fock's rungs and the closed-form caches emptied."""
    fock._RUNGS.clear()
    analytic.real_axis_kernel.cache_clear()
    analytic._branch_sum.cache_clear()
    return (SelectionParams(phi=sel.phi, delta=sel.delta),
            PointerParams(r=pointer.r, theta=pointer.theta, sigma=pointer.sigma),
            Coupling(strength=coupling.strength))


def test_warmed_grid_pairs_equal_cold_readings():
    # every pair of a grid point read in fock.warmed's order, from rungs
    # warmed a slab at a time, is bit for bit a cold record's
    grid = verify.fast_grid()
    warm = {i: metrology.Reading(*grid[i]).pairs()
            for i in fock.warmed((pointer, coupling.strength) for _, pointer, coupling in grid)}
    assert sorted(warm) == list(range(len(grid)))
    for i, point in enumerate(grid):
        assert metrology.Reading(*_cold(*point)).pairs() == warm[i]


@pytest.mark.parametrize(
    "name, outputs", [("fig4", ("qfi", "crb")), ("fig1", ("dx", "dp", "transition"))], ids=["qfi+crb", "dx+dp+transition"]
)
def test_warmed_sweep_cells_equal_cold_single_calls(name, outputs):
    # every output cell of a warmed sweep is what the single public calls
    # give at its point from cold caches
    spec = dataclasses.replace(sweep.preset(name), count=7, outputs=outputs)
    _, rows = sweep.run_sweep(spec)
    assert [row["flag"] for row in rows if row["flag"]] == ["OrthogonalSelection"] * (name == "fig1") * 6
    for row in rows:
        if row["flag"]:
            continue
        point = (SelectionParams(phi=float(row["phi[rad]"]), delta=float(row["delta[rad]"])),
                 PointerParams(r=float(row["r[1]"]), theta=float(row["theta[rad]"]), sigma=float(row["sigma[length]"])),
                 Coupling(strength=float(row["strength[1]"])))
        if "qfi" in outputs:
            report = metrology.qfi(*_cold(*point), spec.trials)
            assert (row["qfi[1]"], row["crb[1]"]) == (repr(report.weighted_fisher), repr(report.cramer_rao))
        else:
            closed = analytic.pointer_shifts(*_cold(*point))
            dx, dp = fock.branch_bundle(*_cold(*point)).kept_shift
            t_closed = analytic.transition_value(*_cold(*point))
            t_oracle = fock.transition_moment(*_cold(*point))
            cells = ("dx_closed[length]", "dx_oracle[length]", "dp_closed[1/length]", "dp_oracle[1/length]",
                     "transition_closed.re[1]", "transition_closed.im[1]",
                     "transition_oracle.re[1]", "transition_oracle.im[1]")
            want = (closed.position_shift, dx, closed.momentum_shift, dp,
                    t_closed.real, t_closed.imag, t_oracle.real, t_oracle.imag)
            assert [row[col] for col in cells] == [repr(float(v)) for v in want]


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

    def test_non_finite_snr_raises(self):
        # sigma = 1e200 overflows both position variances, so every SNR is
        # nan; that is an arithmetic failure, not one of the typed refusals
        with pytest.raises(ArithmeticError) as err:
            metrology.snr(SelectionParams(phi=1.0), PointerParams(r=2.0, sigma=1e200), Coupling(strength=1.0))
        assert type(err.value) is ArithmeticError

    def test_engine_disagreement_is_fatal(self, skewed_position_shift):
        with pytest.raises(metrology.EngineMismatch, match="^conditioned position shift: matrix "):
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
        # a NaN difference fails the shared rule too, as it fails verify's ratio
        monkeypatch.setattr(analytic, "fisher_information", lambda *args: math.nan)
        with pytest.raises(metrology.EngineMismatch):
            metrology.qfi(QFI_SEL, QFI_PTR, Coupling(strength=1.0))

    def test_orthogonal_selection_propagates(self):
        with pytest.raises(OrthogonalSelection):
            metrology.qfi(SelectionParams(phi=math.pi), QFI_PTR, Coupling(strength=1.0))
