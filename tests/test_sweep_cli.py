"""Sweep runner, CSV/SVG emission, and the command-line front end."""

import csv
import dataclasses
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import spacmeter
from spacmeter import cli, fock, metrology, sweep, svg, verify
from spacmeter.model import Coupling, PointerParams, SelectionParams


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

    def test_grouped_rows_equal_cold_rows_in_grid_order(self):
        # rows sharing a pointer and a strength run back to back and share
        # fock's cached rungs; the flagged phi = pi family must not change
        # what the other selections read from them
        spec = sweep.SweepSpec(
            axis="strength",
            start=0.2,
            stop=1.0,
            count=3,
            family="phi",
            family_values=(math.pi / 6, math.pi, math.pi / 3),
            outputs=("dx", "transition", "qfi", "crb"),
        )
        _, rows = sweep.run_sweep(spec)
        fixed = {"phi": spec.phi, "delta": spec.delta, "r": spec.r,
                 "theta": spec.theta, "sigma": spec.sigma}
        cold = []
        for phi in spec.family_values:
            for strength in spec.axis_values():
                fock._RUNGS.clear()
                params = dict(fixed, phi=phi, strength=strength)
                cold.append(sweep._evaluate(spec, len(cold), params))
        assert rows == cold
        assert [row["flag"] for row in rows[3:6]] == ["OrthogonalSelection"] * 3
        assert all(row["flag"] == "" for row in rows[:3] + rows[6:])

    def test_warmed_fig4_qfi_equals_fresh_calls(self):
        # the sweep reads rungs from batched table passes; a fresh qfi call
        # at the row's point, with a cold cache, must give the same bits
        spec = dataclasses.replace(sweep.preset("fig4"), count=9)
        _, rows = sweep.run_sweep(spec)
        for row in rows:
            assert row["flag"] == ""
            fock._RUNGS.clear()
            sel = SelectionParams(phi=float(row["phi[rad]"]), delta=float(row["delta[rad]"]))
            pointer = PointerParams(r=float(row["r[1]"]), theta=float(row["theta[rad]"]))
            coupling = Coupling(strength=float(row["strength[1]"]))
            fresh = metrology.qfi(sel, pointer, coupling, spec.trials).weighted_fisher
            assert row["qfi[1]"] == repr(fresh)

    def test_warmed_fig3a_chi_equals_fresh_calls(self):
        # a chi cell and a fresh snr call read the same record, so a cold
        # call at the row's point must give the same bits
        spec = dataclasses.replace(sweep.preset("fig3a"), count=9)
        _, rows = sweep.run_sweep(spec)
        for row in rows:
            assert row["flag"] == ""
            fock._RUNGS.clear()
            sel = SelectionParams(phi=float(row["phi[rad]"]), delta=float(row["delta[rad]"]))
            pointer = PointerParams(r=float(row["r[1]"]), theta=float(row["theta[rad]"]))
            coupling = Coupling(strength=float(row["strength[1]"]))
            fresh = metrology.snr(sel, pointer, coupling, spec.trials).ratio
            assert row["chi[1]"] == repr(fresh)

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

    def test_transition_cells_do_not_depend_on_sigma(self):
        # the transition value is sigma-free: where the position shift
        # overflows (sigma = 1.7e308), a transition row still reads what it
        # reads at sigma = 1, while a row that also asks for dx is flagged
        spec = sweep.SweepSpec(axis="strength", start=0.9, stop=1.0, count=2, phi=math.pi / 3,
                               delta=math.pi / 6, r=2.0, theta=math.pi / 6, outputs=("transition",))
        columns = sweep._OUTPUT_COLUMNS["transition"] + ("flag",)
        cells = [
            [[row[col] for col in columns] for row in sweep.run_sweep(dataclasses.replace(spec, sigma=sigma))[1]]
            for sigma in (1.0, 1.7e308)
        ]
        assert cells[0] == cells[1] and all(row[-1] == "" for row in cells[0])
        _, rows = sweep.run_sweep(dataclasses.replace(spec, sigma=1.7e308, outputs=("dx", "transition")))
        assert [row["flag"] for row in rows] == ["ArithmeticError"] * 2

    def test_tiny_sigma_fails_only_the_moment_reads(self):
        # where 4 sigma^2 underflows (sigma = 1e-200) every moment read
        # raises ZeroDivisionError, so a dx row is flagged; the transition
        # value and the Fisher information read no moment
        spec = sweep.SweepSpec(axis="strength", start=0.5, stop=1.0, count=2, sigma=1e-200, outputs=("transition", "qfi"))
        _, rows = sweep.run_sweep(spec)
        assert all(row["flag"] == "" and row["qfi[1]"] and row["transition_oracle.re[1]"] for row in rows)
        _, rows = sweep.run_sweep(dataclasses.replace(spec, outputs=("dx",)))
        assert [row["flag"] for row in rows] == ["ZeroDivisionError"] * 2


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

    def test_labels_are_escaped_as_xml_text(self):
        # &, < and > become entities, & first; quotes stay as they are
        text = svg.render_curves([("c", [0.0, 1.0], [0.0, 1.0])], "a & b < c > d \"e\" 'f'", "x", "y")
        assert ">a &amp; b &lt; c &gt; d \"e\" 'f'</text>" in text
        ET.fromstring(text)

    def test_import_loads_no_xml_or_network_modules(self):
        # in a fresh interpreter, importing the package adds no xml, urllib,
        # http, email or ssl module (site may load urllib.parse, through
        # pathlib, before the package is imported)
        code = (
            "import sys; before = set(sys.modules); import spacmeter; "
            "print(sorted(m for m in set(sys.modules) - before "
            "if m.split('.')[0] in ('xml', 'urllib', 'http', 'email', 'ssl')))"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": str(Path(spacmeter.__file__).parents[1])})
        assert done.stdout.strip() == "[]"


class TestPresets:
    def test_all_presets_construct(self):
        for name in ("fig1", "fig3a", "fig3b", "fig4", "fig5"):
            spec = sweep.preset(name)
            assert isinstance(spec, sweep.SweepSpec)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            sweep.preset("fig9")

    @pytest.mark.parametrize("name", ["fig1", "fig3a", "fig3b", "fig4", "fig5"])
    def test_first_full_row_fills_every_column(self, name):
        # a row writes its outputs' cells by the header's own column names,
        # so an unflagged row at nonzero strength leaves only the flag empty
        header, rows = sweep.run_sweep(sweep.preset(name))
        row = next(r for r in rows if not r["flag"] and float(r["strength[1]"]) > 0.0)
        assert [col for col in header if not row.get(col, "")] == ["flag"]

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

    @pytest.mark.parametrize("sigma", ["1e305", "1.7e308"])
    def test_transition_does_not_depend_on_sigma(self, capsys, sigma):
        # the transition value is sigma-free, so it prints as at sigma = 1
        # also where the position shift overflows (sigma = 1.7e308)
        args = ["transition", "--phi", "pi/3", "--delta", "pi/6", "--r", "2", "--theta", "pi/6", "--strength", "0.9"]
        outputs = []
        for extra in ([], ["--sigma", sigma]):
            assert cli.main(args + extra) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[1] == outputs[0]
        assert "transition_closed.re = 0.7269839761869437\n" in outputs[0]

    def test_snr_degenerate_reference_exits_two(self, capsys):
        code = cli.main(["snr", "--delta", "pi/2"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_snr_non_finite_exits_one(self, capsys):
        # the position variances overflow at sigma = 1e200; the README
        # promises exit 1 for a non-finite intermediate, not a printed nan
        code = cli.main(["snr", "--phi", "1", "--sigma", "1e200", "--strength", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "non-finite" in captured.err and "nan" not in captured.out

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


class TestSweepSettings:
    # a text for every SweepSpec field that fig1 accepts and that moves it
    TEXTS = {
        "axis": "r", "start": "0.5", "stop": "pi/2", "count": "7", "phi": "pi/4",
        "delta": "pi/5", "r": "3", "theta": "0.25", "sigma": "0.5", "strength": "0.7",
        "family": "delta", "family_values": "0.1, pi/8", "outputs": "chi, qfi", "trials": "3",
    }

    @staticmethod
    def _spec(monkeypatch, tmp_path, argv):
        seen = []

        def record(spec):
            seen.append(spec)
            return spec.header(), []

        monkeypatch.setattr(sweep, "run_sweep", record)
        assert cli.main(["sweep", *argv, "--out", str(tmp_path / "rows.csv")]) == 0
        return seen[0]

    @staticmethod
    def _ini(tmp_path, **keys):
        path = tmp_path / "sweep.ini"
        path.write_text("[sweep]\n" + "".join(f"{key} = {text}\n" for key, text in keys.items()))
        return str(path)

    @pytest.mark.parametrize("name", [field.name for field in dataclasses.fields(sweep.SweepSpec)])
    def test_flag_and_ini_set_the_same_value(self, monkeypatch, tmp_path, name):
        text = self.TEXTS[name]
        by_flag = self._spec(monkeypatch, tmp_path, ["--preset", "fig1", "--" + name.replace("_", "-"), text])
        by_ini = self._spec(monkeypatch, tmp_path, ["--preset", "fig1", "--config", self._ini(tmp_path, **{name: text})])
        assert by_flag == by_ini
        assert getattr(by_flag, name) != getattr(sweep.preset("fig1"), name)

    def test_ini_family_none_clears_the_preset_values(self, monkeypatch, tmp_path):
        spec = self._spec(monkeypatch, tmp_path, ["--preset", "fig1", "--config", self._ini(tmp_path, family="none")])
        assert spec.family is None and spec.family_values == ()

    def test_flag_family_none_clears_the_ini_values(self, monkeypatch, tmp_path):
        ini = self._ini(tmp_path, axis="strength", start="0.1", stop="0.3", count="3", family="phi", family_values="pi/6, pi/3")
        spec = self._spec(monkeypatch, tmp_path, ["--config", ini, "--family", "none"])
        assert spec.family is None and spec.family_values == ()
        assert (spec.axis, spec.count) == ("strength", 3)

    def test_family_none_with_values_in_one_layer_exits_two(self, capsys):
        assert cli.main(["sweep", "--family", "none", "--family-values", "1,2"]) == 2
        assert "family_values given without a family parameter" in capsys.readouterr().err

    def test_malformed_family_values_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--family-values", "1,x"])
        assert exc.value.code == 2
        assert "invalid parse_numbers value: '1,x'" in capsys.readouterr().err
