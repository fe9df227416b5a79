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
