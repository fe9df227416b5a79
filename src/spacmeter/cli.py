"""Command-line interface.

Subcommands: single-point queries (transition, snr, qfi), the sweep runner
with figure presets and CSV/SVG output, the verify suites, and the formula
audit table.  Angles accept pi-fraction syntax such as "pi/6" or "5pi/12".

Exit codes: 0 success, 1 invariant or convergence failure, 2 invalid
configuration or domain error.
"""

from __future__ import annotations

import argparse
import configparser
import math
import re
import sys
from dataclasses import replace

from . import audit, metrology
from . import sweep as sweep_mod
from . import verify as verify_mod
from .model import Coupling, PointerParams, SelectionParams

_PI_FORM = re.compile(r"^\s*([+-]?\d*\.?\d*)\s*pi\s*(?:/\s*(\d*\.?\d+))?\s*$", re.IGNORECASE)


def parse_number(text: str) -> float:
    """Float literal or pi fraction: '0.3', 'pi', '2pi', 'pi/6', '-5pi/12'."""
    match = _PI_FORM.match(text)
    if match is None:
        return float(text)
    head = match.group(1)
    if head in ("", "+"):
        coefficient = 1.0
    elif head == "-":
        coefficient = -1.0
    else:
        coefficient = float(head)
    value = coefficient * math.pi
    if match.group(2):
        denominator = float(match.group(2))
        if denominator == 0.0:
            raise ValueError(f"zero denominator in {text!r}")
        value /= denominator
    return value


def _add_point_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--phi", type=parse_number, default=math.pi / 6,
                        help="selection polar angle in [0, pi]")
    parser.add_argument("--delta", type=parse_number, default=0.0,
                        help="selection relative phase")
    parser.add_argument("--r", type=parse_number, default=2.0,
                        help="pointer coherent amplitude magnitude")
    parser.add_argument("--theta", type=parse_number, default=0.0,
                        help="pointer coherent amplitude phase")
    parser.add_argument("--sigma", type=parse_number, default=1.0,
                        help="pointer position scale")
    parser.add_argument("--strength", type=parse_number, default=1.0,
                        help="dimensionless interaction strength")


def _point(args) -> tuple[SelectionParams, PointerParams, Coupling]:
    return (
        SelectionParams(phi=args.phi, delta=args.delta),
        PointerParams(r=args.r, theta=args.theta, sigma=args.sigma),
        Coupling(strength=args.strength),
    )


def _cmd_transition(args) -> int:
    pair = metrology.Reading(*_point(args)).transition
    print(f"transition_closed.re = {pair.closed.real!r}")
    print(f"transition_closed.im = {pair.closed.imag!r}")
    print(f"transition_oracle.re = {pair.oracle.real!r}")
    print(f"transition_oracle.im = {pair.oracle.imag!r}")
    print(f"residual = {abs(pair.closed - pair.oracle)!r}")
    return 0


def _cmd_snr(args) -> int:
    sel, pointer, coupling = _point(args)
    report = metrology.snr(sel, pointer, coupling, trials=args.trials)
    print(f"ratio = {report.ratio!r}")
    print(f"postselected = {report.postselected!r}")
    print(f"nonpostselected = {report.nonpostselected!r}")
    print(f"success_probability = {report.success_probability!r}")
    print(f"trials = {report.trials}")
    return 0


def _cmd_qfi(args) -> int:
    sel, pointer, coupling = _point(args)
    report = metrology.qfi(sel, pointer, coupling, trials=args.trials)
    print(f"fisher = {report.fisher!r}")
    print(f"weighted_fisher = {report.weighted_fisher!r}")
    print(f"cramer_rao = {report.cramer_rao!r}")
    return 0


_DEFAULT_SPEC = sweep_mod.SweepSpec(axis="strength", start=0.05, stop=2.0, count=201)


def parse_family(text: str) -> str | None:
    return None if text.lower() in ("", "none") else text


def parse_numbers(text: str) -> tuple[float, ...]:
    return tuple(parse_number(item) for item in text.split(",") if item.strip())


def parse_names(text: str) -> tuple[str, ...]:
    return tuple(item.strip() for item in text.split(",") if item.strip())


# every sweep setting, in flag order, with its parser: the sweep flags
# (--family-values for family_values) and the INI [sweep] keys both read it;
# a list is comma-separated, and a family of '' or 'none' is no family
_SWEEP_KEYS = {
    "axis": str, "start": parse_number, "stop": parse_number, "count": int,
    "family": parse_family, "family_values": parse_numbers, "outputs": parse_names,
    "phi": parse_number, "delta": parse_number, "r": parse_number, "theta": parse_number,
    "sigma": parse_number, "strength": parse_number, "trials": int,
}
_SWEEP_HELP = {"family": "second swept parameter, or 'none'",
               "family_values": "comma-separated values for the family parameter",
               "outputs": "comma-separated subset of " + ",".join(sweep_mod.OUTPUTS)}


def _changed(spec: sweep_mod.SweepSpec, changes: dict) -> sweep_mod.SweepSpec:
    """spec with one layer's settings; clearing the family clears its values unless the layer sets them."""
    if changes.get("family", "") is None:
        changes = {"family_values": (), **changes}
    return replace(spec, **changes)


def _apply_config(spec: sweep_mod.SweepSpec, path: str) -> sweep_mod.SweepSpec:
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ValueError(f"config file {path!r} not found or unreadable")
    if not parser.has_section("sweep"):
        raise ValueError("config file needs a [sweep] section")
    changes = {}
    for key, raw in parser.items("sweep"):
        if key not in _SWEEP_KEYS:
            raise ValueError(f"unknown sweep config key {key!r}")
        changes[key] = _SWEEP_KEYS[key](raw)
    return _changed(spec, changes)


def _cmd_sweep(args) -> int:
    spec = sweep_mod.preset(args.preset) if args.preset else _DEFAULT_SPEC
    if args.config:
        spec = _apply_config(spec, args.config)
    spec = _changed(spec, {key: value for key, value in vars(args).items() if key in _SWEEP_KEYS})
    header, rows = sweep_mod.run_sweep(spec)
    sweep_mod.write_csv(args.out, header, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    if args.svg:
        sweep_mod.write_plot(args.svg, spec, header, rows)
        print(f"wrote plot to {args.svg}")
    flagged = sum(1 for row in rows if row["flag"])
    if flagged:
        print(f"{flagged} row(s) flagged with per-point errors")
    return 0


def _cmd_verify(args) -> int:
    report = verify_mod.run_verify(args.level)
    for line in report.lines():
        print(line)
    return 1 if report.failures else 0


def _cmd_audit(args) -> int:
    for line in audit.format_table(audit.run_audit()):
        print(line)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spacmeter",
        description="conditioned pointer readout with a photon-added coherent probe",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transition", help="conditional observable value, both engines")
    _add_point_args(p)
    p.set_defaults(handler=_cmd_transition)

    p = sub.add_parser("snr", help="conditioned vs unconditioned SNR ratio")
    _add_point_args(p)
    p.add_argument("--trials", type=int, default=1)
    p.set_defaults(handler=_cmd_snr)

    p = sub.add_parser("qfi", help="Fisher information in the coupling strength")
    _add_point_args(p)
    p.add_argument("--trials", type=int, default=1)
    p.set_defaults(handler=_cmd_qfi)

    p = sub.add_parser("sweep", help="grid sweep to CSV (and optional SVG)")
    p.add_argument("--preset", choices=sorted(sweep_mod.PRESETS))
    p.add_argument("--config", help="INI file with a [sweep] section")
    p.add_argument("--out", default="sweep.csv")
    p.add_argument("--svg")
    for key, parse in _SWEEP_KEYS.items():
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=parse, default=argparse.SUPPRESS,
                       choices=sweep_mod.AXES if key == "axis" else None, help=_SWEEP_HELP.get(key))
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("verify", help="run the cross-engine and audit suites")
    p.add_argument("--level", choices=("fast", "full"), default="fast")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("audit", help="print the transcription audit table")
    p.set_defaults(handler=_cmd_audit)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, ArithmeticError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2 if isinstance(err, ValueError) else 1


if __name__ == "__main__":
    sys.exit(main())
