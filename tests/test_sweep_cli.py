"""Sweep runner, CSV/SVG emission, and the command-line front end."""

import csv
import math
import xml.etree.ElementTree as ET

import pytest

from spacmeter import cli, sweep, svg, verify


class TestParseNumber:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1.25", 1.25),
            ("-3e-2", -0.03),
            ("pi", math.pi),
            ("+pi", math.pi),
            ("-pi", -math.pi),
            ("2pi", 2.0 * math.pi),
            ("0.5pi", 0.5 * math.pi),
            (".5pi", 0.5 * math.pi),
            ("pi/6", math.pi / 6),
            ("5pi/12", 5.0 * math.pi / 12.0),
            ("-pi/2", -math.pi / 2),
            ("PI/4", math.pi / 4),
            ("pi / 3", math.pi / 3),
        ],
    )
    def test_accepted_forms(self, text, value):
        assert cli.parse_number(text) == pytest.approx(value, rel=1e-15)

    @pytest.mark.parametrize("text", ["abc", "pi/", "2pi3", "", "pi/pi", "pi/0"])
    def test_rejected_forms(self, text):
        with pytest.raises(ValueError):
            cli.parse_number(text)


class TestSweepSpec:
    def test_axis_grid_hits_endpoints_exactly(self):
        spec = sweep.SweepSpec(axis="phi", start=0.0, stop=math.pi, count=7)
        values = spec.axis_values()
        assert len(values) == 7
        assert values[0] == 0.0
        assert values[-1] == math.pi

    def test_header_units_and_order(self):
        spec = sweep.SweepSpec(
            axis="strength", start=0.1, stop=1.0, count=2, outputs=("dx", "chi")
        )
        header = spec.header()
        assert header[0] == "index"
        assert "phi[rad]" in header
        assert "sigma[length]" in header
        assert header[-3:] == ["n_max[1]", "tail_mass[1]", "flag"]
        dx_cols = [c for c in header if c.startswith("dx_")]
        assert dx_cols == [
            "dx_closed[length]",
            "dx_oracle[length]",
            "dx_residual[length]",
            "dx_over_g[1]",
        ]
        assert "chi[1]" in header

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"axis": "sigma"},
            {"axis": "phi", "count": 1},
            {"axis": "phi", "outputs": ("dx", "bogus")},
            {"axis": "phi", "outputs": ()},
            {"axis": "phi", "family": "phi", "family_values": (1.0,)},
            {"axis": "phi", "family": "delta"},
            {"axis": "phi", "family_values": (1.0,)},
            {"axis": "phi", "trials": 0},
            {"axis": "phi", "start": -0.2, "stop": 1.0},
            {"axis": "phi", "start": 0.0, "stop": 4.0},
            {"axis": "strength", "start": -0.5, "stop": 1.0},
            {"axis": "r", "start": -1.0, "stop": 1.0},
        ],
    )
    def test_rejected_settings(self, kwargs):
        kwargs.setdefault("start", 0.1)
        kwargs.setdefault("stop", 1.0)
        kwargs.setdefault("count", 3)
        with pytest.raises(ValueError):
            sweep.SweepSpec(**kwargs)


class TestRunSweep:
    def test_family_major_row_order(self):
        spec = sweep.SweepSpec(
            axis="strength",
            start=0.2,
            stop=0.6,
            count=3,
            family="phi",
            family_values=(math.pi / 6, math.pi / 3),
            outputs=("dx",),
        )
        header, rows = sweep.run_sweep(spec)
        assert header == spec.header()
        assert len(rows) == 6
        assert [row["index"] for row in rows] == [str(i) for i in range(6)]
        phis = [row["phi[rad]"] for row in rows]
        assert phis[:3] == [repr(math.pi / 6)] * 3
        assert phis[3:] == [repr(math.pi / 3)] * 3
        strengths = [float(row["strength[1]"]) for row in rows[:3]]
        assert strengths == [0.2, 0.4, 0.6]

    def test_orthogonal_endpoint_is_flagged_not_fatal(self):
        spec = sweep.SweepSpec(
            axis="phi", start=0.0, stop=math.pi, count=3, outputs=("dx",)
        )
        _, rows = sweep.run_sweep(spec)
        assert len(rows) == 3
        assert rows[0]["flag"] == ""
        assert rows[1]["flag"] == ""
        assert rows[2]["flag"] == "OrthogonalSelection"
        assert rows[2].get("dx_closed[length]", "") == ""
        assert rows[2].get("n_max[1]", "") == ""

    def test_degenerate_range_duplicates_the_point(self):
        spec = sweep.SweepSpec(
            axis="strength", start=0.7, stop=0.7, count=2, outputs=("dx",)
        )
        _, rows = sweep.run_sweep(spec)
        assert len(rows) == 2
        a, b = rows
        assert a["index"] == "0" and b["index"] == "1"
        assert {k: v for k, v in a.items() if k != "index"} == {
            k: v for k, v in b.items() if k != "index"
        }

    def test_normalized_columns_empty_at_zero_strength(self):
        spec = sweep.SweepSpec(
            axis="phi",
            start=0.3,
            stop=0.6,
            count=2,
            strength=0.0,
            outputs=("dx", "dp"),
        )
        _, rows = sweep.run_sweep(spec)
        for row in rows:
            assert row.get("dx_over_g[1]", "") == ""
            assert row.get("dp_over_g[1]", "") == ""
            assert row["dx_closed[length]"] != ""

    def test_normalized_columns_remove_leading_order(self):
        spec = sweep.SweepSpec(
            axis="strength", start=0.01, stop=0.02, count=2, outputs=("dx", "dp")
        )
        _, rows = sweep.run_sweep(spec)
        for row in rows:
            g = float(row["strength[1]"])
            sigma = float(row["sigma[length]"])
            dx = float(row["dx_closed[length]"])
            dp = float(row["dp_closed[1/length]"])
            assert float(row["dx_over_g[1]"]) == dx / (g * sigma)
            assert float(row["dp_over_g[1]"]) == dp * sigma * sigma / (g * sigma)

    def test_engine_residuals_are_tiny(self):
        spec = sweep.SweepSpec(
            axis="strength", start=0.3, stop=1.5, count=3, outputs=("dx", "transition")
        )
        _, rows = sweep.run_sweep(spec)
        for row in rows:
            assert float(row["dx_residual[length]"]) <= 1e-10
            assert float(row["transition_residual[1]"]) <= 1e-10


class TestCsvAndPlot:
    def _small(self):
        spec = sweep.SweepSpec(
            axis="strength",
            start=0.2,
            stop=1.0,
            count=3,
            family="phi",
            family_values=(math.pi / 6, math.pi / 3),
            outputs=("dx",),
        )
        header, rows = sweep.run_sweep(spec)
        return spec, header, rows

    def test_csv_round_trips_floats_exactly(self, tmp_path):
        spec, header, rows = self._small()
        path = tmp_path / "out.csv"
        sweep.write_csv(str(path), header, rows)
        with open(path, newline="") as handle:
            parsed = list(csv.DictReader(handle))
        assert len(parsed) == len(rows)
        for want, got in zip(rows, parsed):
            assert got == want
            assert float(got["dx_oracle[length]"]) == float(want["dx_oracle[length]"])

    def test_plot_is_wellformed_svg_with_one_curve_per_family(self, tmp_path):
        spec, header, rows = self._small()
        path = tmp_path / "out.svg"
        sweep.write_plot(str(path), spec, header, rows)
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 2

    def test_renderer_survives_gaps_and_empty_input(self):
        broken = [("jagged", [0.0, 1.0, 2.0], [1.0, float("nan"), 3.0])]
        text = svg.render_curves(broken, "t", "x", "y")
        ET.fromstring(text)
        hollow = [("void", [0.0], [float("nan")])]
        text = svg.render_curves(hollow, "t", "x", "y")
        assert "no finite data" in text


class TestPresets:
    def test_all_presets_construct(self):
        for name in ("fig1", "fig3a", "fig3b", "fig4", "fig5"):
            spec = sweep.preset(name)
            assert isinstance(spec, sweep.SweepSpec)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            sweep.preset("fig9")

    def test_shift_sweep_geometry(self):
        spec = sweep.preset("fig1")
        assert spec.axis == "phi"
        assert spec.count == 201
        assert spec.start == 0.0 and spec.stop == math.pi
        assert spec.family == "strength"
        assert spec.family_values == (0.01, 0.5, 1.0, 2.0, 5.0, 20.0)
        assert spec.outputs == ("dx", "dp", "transition")
        assert spec.delta == math.pi / 6
        assert spec.r == 2.0 and spec.theta == math.pi / 6

    def test_snr_radius_sweep_geometry(self):
        spec = sweep.preset("fig3b")
        assert spec.axis == "r"
        assert spec.start == 0.0 and spec.stop == 10.0
        assert spec.strength == 0.3
        assert spec.delta == 5 * math.pi / 12 and spec.theta == math.pi / 2
        assert spec.outputs == ("chi",)
        assert spec.family == "phi"
        assert spec.family_values == (
            math.pi / 12,
            math.pi / 6,
            math.pi / 4,
            math.pi / 3,
        )

    def test_information_sweeps_geometry(self):
        fig4 = sweep.preset("fig4")
        assert fig4.axis == "strength"
        assert fig4.outputs == ("qfi", "crb")
        assert fig4.trials == 1
        fig5 = sweep.preset("fig5")
        assert fig5.axis == "r"
        assert fig5.outputs == ("qfi",)
        assert fig5.family == "strength"
        assert fig5.family_values == (0.1, 0.5, 1.0, 2.0)


class TestCommandLine:
    def test_transition_prints_both_engines(self, capsys):
        code = cli.main(
            [
                "transition",
                "--phi", "pi/3",
                "--delta", "pi/6",
                "--r", "2",
                "--theta", "pi/6",
                "--strength", "0.9",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "transition_closed.re = 0.72698397618694" in out
        assert "transition_oracle.re = " in out
        assert "residual = " in out

    def test_snr_degenerate_reference_exits_two(self, capsys):
        code = cli.main(["snr", "--delta", "pi/2"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_snr_weak_coupling_wide_pointer_exits_zero(self, capsys):
        code = cli.main(
            [
                "snr",
                "--phi", "pi/12",
                "--delta", "5pi/12",
                "--r", "12",
                "--theta", "pi/2",
                "--strength", "0.05",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "ratio = " in captured.out

    @pytest.mark.parametrize("strength", ["0", "1e-9"])
    def test_qfi_at_vanishing_strength(self, capsys, strength):
        code = cli.main(["qfi", "--strength", strength])
        out = capsys.readouterr().out
        assert code == 0
        values = dict(line.split(" = ") for line in out.splitlines())
        assert set(values) == {"fisher", "weighted_fisher", "cramer_rao"}
        assert all(math.isfinite(float(v)) and float(v) > 0.0 for v in values.values())

    def test_qfi_happy_path(self, capsys):
        code = cli.main(["qfi", "--phi", "pi/2", "--delta", "0", "--r", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fisher = " in out
        assert "cramer_rao = " in out

    def test_verify_reports_failure_exit(self, capsys, monkeypatch):
        report = verify.VerifyReport(
            level="fast",
            checks=[verify.CheckResult(name="synthetic", worst=2.0, passed=False)],
            records=[],
            elapsed=0.0,
        )
        monkeypatch.setattr(verify, "run_verify", lambda level: report)
        assert cli.main(["verify"]) == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_audit_prints_table(self, capsys):
        assert cli.main(["audit"]) == 0
        out = capsys.readouterr().out
        assert "position_shift" in out
        assert "discrepancy" in out

    def test_sweep_writes_csv_and_svg(self, tmp_path, capsys):
        out_csv = tmp_path / "rows.csv"
        out_svg = tmp_path / "rows.svg"
        code = cli.main(
            [
                "sweep",
                "--axis", "strength",
                "--start", "0.2",
                "--stop", "0.8",
                "--count", "3",
                "--outputs", "dx",
                "--out", str(out_csv),
                "--svg", str(out_svg),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "wrote 3 rows" in out
        with open(out_csv, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 3
        ET.parse(out_svg)

    def test_sweep_config_then_flag_precedence(self, tmp_path):
        ini = tmp_path / "sweep.ini"
        ini.write_text(
            "[sweep]\n"
            "axis = strength\n"
            "start = 0.1\n"
            "stop = 0.3\n"
            "count = 3\n"
            "outputs = dx\n"
            "family = phi\n"
            "family_values = pi/6, pi/3\n"
        )
        out_csv = tmp_path / "rows.csv"
        code = cli.main(
            ["sweep", "--config", str(ini), "--count", "4", "--out", str(out_csv)]
        )
        assert code == 0
        with open(out_csv, newline="") as handle:
            rows = list(csv.DictReader(handle))
        # config family survives, flag count overrides config count
        assert len(rows) == 8
        assert rows[0]["phi[rad]"] == repr(math.pi / 6)

    def test_sweep_missing_config_exits_two(self, tmp_path, capsys):
        code = cli.main(["sweep", "--config", str(tmp_path / "absent.ini")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_zero_denominator_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["transition", "--phi", "pi/0"])
        assert exc.value.code == 2
        ini = tmp_path / "sweep.ini"
        ini.write_text("[sweep]\nphi = pi/0\n")
        assert cli.main(["sweep", "--config", str(ini)]) == 2
        assert "zero denominator" in capsys.readouterr().err

    def test_argparse_rejections_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--axis", "sideways"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit):
            cli.main([])
