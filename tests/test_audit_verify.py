"""Transcription audit records and the self-check runner."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spacmeter import analytic, audit, verify
from spacmeter.model import Coupling, Point, PointerParams, SelectionParams

P1_SEL = SelectionParams(phi=math.pi / 3, delta=math.pi / 6)
P1_PTR = PointerParams(r=2.0, theta=math.pi / 6)


class TestTranscribedForms:
    def test_frozen_normalization(self):
        got = audit.transcribed_inverse_norm_sq(P1_SEL, P1_PTR, Coupling(strength=0.9))
        assert got == pytest.approx(1.3547256034565227, rel=1e-14)

    def test_frozen_shift_pair(self):
        dx, dp = audit.transcribed_shifts(P1_SEL, P1_PTR, Coupling(strength=0.9))
        assert dx == pytest.approx(5.850437300389245, rel=1e-14)
        assert dp == pytest.approx(1.4200150719223277, rel=1e-14)

    def test_momentum_diverges_linearly_at_reference_slope(self):
        # once the overlap kernels are Gaussian-dead, the transcribed
        # momentum shift grows linearly with slope sin(phi)cos(delta)
        values = {
            g: audit.transcribed_shifts(P1_SEL, P1_PTR, Coupling(strength=g))[1]
            for g in (8.0, 16.0, 24.0)
        }
        assert values[8.0] == pytest.approx(7.2, abs=1e-9)
        second_difference = values[24.0] - 2.0 * values[16.0] + values[8.0]
        assert second_difference == pytest.approx(0.0, abs=1e-9)
        slope = (values[24.0] - values[16.0]) / 8.0
        assert slope == pytest.approx(math.sin(P1_SEL.phi) * math.cos(P1_SEL.delta), abs=1e-9)


class TestTranscribedKernel:
    def test_flush_to_zero_far_out(self):
        assert audit.transcribed_shift_kernel(P1_PTR, 60.0) == 0j
        assert audit.transcribed_shift_kernel(P1_PTR, -1e200) == 0j

    def test_vacuum_value(self):
        # alpha = 0, strength 1: bracket reduces to 3 G exp(-G^2/2)
        ptr = PointerParams(r=0.0)
        assert audit.transcribed_shift_kernel(ptr, 1.0) == pytest.approx(
            3.0 * math.exp(-0.5), abs=1e-15
        )

    @given(g=st.floats(0.05, 2.5), r=st.floats(0.0, 3.0), theta=st.floats(0.0, 2.0 * math.pi))
    @settings(max_examples=60)
    def test_defect_is_exactly_cubic(self, g, r, theta):
        # kernel-true combination differs from the transcription by the
        # G^3 term under the shared Gaussian-phase envelope
        ptr = PointerParams(r=r, theta=theta)
        k0, k1, _, _ = analytic.real_axis_kernel(ptr, g)
        true_sum = 2.0 * (k1 + 0.5 * g * k0) / ptr.norm_factor_sq
        envelope = cmath.exp(-2.0j * g * ptr.alpha.imag) * math.exp(-g * g / 2.0)
        transcribed = audit.transcribed_shift_kernel(ptr, g)
        assert true_sum == pytest.approx(transcribed - g**3 * envelope, abs=1e-9)


class TestAuditRun:
    def test_record_arithmetic(self):
        point = Point(0.1, 0.2, 1.0, 0.3, 1.0, 0.5)
        rec = audit.AuditRecord(
            point=point,
            quantity="position_shift",
            transcribed=2.0,
            first_principles=1.5,
            oracle=1.0,
        )
        assert rec.discrepancy == 1.0

    def test_default_table_contents(self):
        records = audit.run_audit()
        assert len(records) == 3 * len(audit.DEFAULT_POINTS)
        quantities = {rec.quantity for rec in records}
        assert quantities == {"position_shift", "momentum_shift", "inverse_norm_sq"}
        # both engines agree everywhere, whatever the transcription does
        assert max(abs(rec.first_principles - rec.oracle) for rec in records) <= 1e-8

    def test_inert_strength_row_has_no_position_discrepancy(self):
        records = audit.run_audit()
        rows = [
            rec
            for rec in records
            if rec.point.strength == 0.0 and rec.quantity == "position_shift"
        ]
        assert rows
        for rec in rows:
            assert rec.discrepancy <= 1e-12

    def test_strong_row_exposes_both_defects(self):
        records = audit.run_audit()
        by_q = {
            rec.quantity: rec for rec in records if rec.point.strength == 8.0
        }
        assert by_q["momentum_shift"].transcribed == pytest.approx(7.2, abs=1e-9)
        assert abs(by_q["momentum_shift"].oracle) <= 1e-10
        assert by_q["position_shift"].transcribed == pytest.approx(
            16.15692193816404, rel=1e-12
        )
        assert by_q["position_shift"].oracle == pytest.approx(6.0, abs=1e-10)

    def test_format_table_shape(self):
        records = audit.run_audit()
        lines = audit.format_table(records)
        assert len(lines) == len(records) + 2
        assert "discrepancy" in lines[0]
        for rec, line in zip(records, lines[2:]):
            assert line.startswith(rec.quantity)
            assert rec.point.label() in line


class TestVerifyRunner:
    def test_fast_level_is_green(self):
        report = verify.run_verify("fast")
        assert report.level == "fast"
        assert report.failures == 0
        assert len(report.checks) == 16
        assert report.elapsed < 60.0
        for check in report.checks:
            assert check.passed
            assert check.worst <= 1.0

    def test_check_families_present(self):
        report = verify.run_verify("fast")
        names = " ".join(check.name for check in report.checks)
        for needle in ("cross-engine", "weak limit", "strong limit", "truncation", "fisher"):
            assert needle in names
        assert "cross-engine Fisher information on grid" in names

    def test_lines_render_marks_and_audit(self):
        report = verify.run_verify("fast")
        text = "\n".join(report.lines())
        assert text.startswith("verify level=fast")
        assert "[ok  ]" in text
        assert "FAIL" not in text
        assert "informational" in text
        assert "0 failure(s) in 16 checks" in text
        for check in report.checks:
            if check.name.startswith("cross-engine"):
                assert check.point.startswith("phi=") and f"at {check.point}" in text

    def test_check_names_the_point_of_its_worst_ratio(self):
        rows = [("a", {"x": 0.5, "y": 0.0}), ("b", {"x": 2.0, "y": 0.0}), ("c", {"x": 1.0, "y": 0.0})]
        by_name = {c.name: c for c in verify._worst_of(rows)}
        assert (by_name["x"].worst, by_name["x"].point, by_name["x"].passed) == (2.0, "b", False)
        assert (by_name["y"].worst, by_name["y"].point, by_name["y"].passed) == (0.0, "a", True)

    @pytest.mark.parametrize(
        "rows",
        [
            [("p", {"x": math.nan}), ("q", {"x": 0.5})],
            [("q", {"x": 0.5}), ("p", {"x": math.nan}), ("r", {"x": 2.0}), ("s", {"x": math.nan})],
        ],
        ids=["nan-first", "nan-between"],
    )
    def test_nan_ratio_fails_at_its_point(self, rows):
        (check,) = verify._worst_of(rows)
        assert math.isnan(check.worst) and check.point == "p" and not check.passed

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            verify.run_verify("paranoid")

    def test_failure_accounting(self):
        bad = verify.CheckResult(name="synthetic", worst=2.0, passed=False)
        good = verify.CheckResult(name="fine", worst=0.1, passed=True)
        report = verify.VerifyReport(
            level="fast", checks=[bad, good], records=[], elapsed=0.0
        )
        assert report.failures == 1
        assert "[FAIL]" in "\n".join(report.lines())
