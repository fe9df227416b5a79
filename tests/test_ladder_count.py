"""One certified cutoff ladder per parameter point, whatever is read from it."""

import math

import pytest

from spacmeter import fock, metrology, sweep, verify
from spacmeter.model import Coupling, PointerParams, SelectionParams

SEL = SelectionParams(phi=math.pi / 3, delta=math.pi / 6)
PTR = PointerParams(r=2.0, theta=math.pi / 6)
CPL = Coupling(strength=0.9)


@pytest.fixture
def ladders(monkeypatch):
    """Records one entry per cutoff ladder: each ladder asks for its starting cutoff once."""
    calls = []
    starting_dim = fock.TruncationPolicy.starting_dim

    def counted(policy, *args, **kwargs):
        calls.append(args)
        return starting_dim(policy, *args, **kwargs)

    monkeypatch.setattr(fock.TruncationPolicy, "starting_dim", counted)
    return calls


@pytest.mark.parametrize(
    "call",
    [
        lambda: metrology.snr(SEL, PTR, CPL, trials=10),
        lambda: metrology.qfi(SEL, PTR, CPL),
        lambda: fock.transition_moment(SEL, PTR, CPL),
    ],
    ids=["snr", "qfi", "transition_moment"],
)
def test_point_query_runs_one_ladder(ladders, call):
    call()
    assert len(ladders) == 1


@pytest.mark.parametrize(
    "outputs", [("dx", "transition"), ("chi",), ("qfi", "crb")], ids=lambda o: "+".join(o)
)
def test_sweep_row_runs_one_ladder(ladders, outputs):
    spec = sweep.SweepSpec(axis="strength", start=0.5, stop=1.0, count=2, outputs=outputs)
    params = {
        "phi": SEL.phi,
        "delta": SEL.delta,
        "r": PTR.r,
        "theta": PTR.theta,
        "sigma": PTR.sigma,
        "strength": CPL.strength,
    }
    row = sweep._evaluate(spec, 0, params)
    assert row["flag"] == ""
    assert all(row[col] for col in spec.header() if col != "flag")
    assert len(ladders) == 1


def test_verify_grid_point_runs_one_ladder(ladders):
    checks = verify._cross_engine_checks([(SEL, PTR, CPL)])
    assert len(checks) == 5 and all(c.passed for c in checks)
    assert len(ladders) == 1


def _count_calls(monkeypatch, name):
    """Records one entry per call of fock.<name>."""
    calls = []
    original = getattr(fock, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(fock, name, counted)
    return calls


@pytest.mark.parametrize("start, rungs", [(None, 1), (16, 3)], ids=["sized-start", "start-16"])
@pytest.mark.parametrize(
    "step, used", [(metrology.FISHER_STEP, metrology.FISHER_STEP), (0.01, 0.005)],
    ids=["step-kept", "step-halved"],
)
def test_qfi_builds_the_pointer_once_per_rung(monkeypatch, start, rungs, step, used):
    # the strength neighbours of the Fisher estimate displace the bundle's
    # pointer state; they must not rebuild it
    if start is not None:
        monkeypatch.setattr(fock.TruncationPolicy, "starting_dim", lambda self, *args: start)
    tried = _count_calls(monkeypatch, "_rung")
    built = _count_calls(monkeypatch, "_spac_amplitudes")
    report = metrology.qfi(SEL, PTR, CPL, step=step)
    assert report.step == used
    assert len(tried) == rungs
    assert len(built) == len(tried)
