"""One certified cutoff ladder per parameter point, whatever is read from it,
and one cached rung per (pointer, strength, cutoff), whatever selection reads it."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
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


QUERIES = {
    "snr": lambda: metrology.snr(SEL, PTR, CPL, trials=10),
    "qfi": lambda: metrology.qfi(SEL, PTR, CPL),
    "transition_moment": lambda: fock.transition_moment(SEL, PTR, CPL),
}


@pytest.mark.parametrize("call", QUERIES.values(), ids=QUERIES.keys())
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
    assert len(checks) == 6 and all(c.passed for c in checks)
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
def test_qfi_builds_the_pointer_once_per_rung(monkeypatch, start, rungs):
    # the Fisher information is a read of the bundle's own branches; it
    # must not rebuild the pointer state
    if start is not None:
        monkeypatch.setattr(fock.TruncationPolicy, "starting_dim", lambda self, *args: start)
    tried = _count_calls(monkeypatch, "_rung")
    built = _count_calls(monkeypatch, "_spac_amplitudes")
    metrology.qfi(SEL, PTR, CPL)
    assert len(tried) == rungs
    assert len(built) == len(tried)


def test_qfi_displaces_once_per_rung(monkeypatch):
    # the exact strength derivative is a read of the bundle's branches: no
    # displacement beyond the bundle's own and no neighbour states
    tried = _count_calls(monkeypatch, "_rung")
    lookups = _count_calls(monkeypatch, "_displacement")
    neighbours = _count_calls(monkeypatch, "assemble_at_cutoff")
    metrology.qfi(SEL, PTR, CPL)
    assert len(tried) == 1
    assert len(lookups) == len(tried)
    assert neighbours == []


def test_queries_at_one_point_share_one_rung(monkeypatch):
    # the pointer and its displaced branches are cached per (pointer,
    # strength, cutoff): repeated and mixed queries at a point build them once
    built = _count_calls(monkeypatch, "_spac_amplitudes")
    lookups = _count_calls(monkeypatch, "_displacement")
    for _ in range(2):
        for call in QUERIES.values():
            call()
    assert len(built) == 1
    assert len(lookups) == 1


@pytest.mark.parametrize("name", ["fig3a", "fig4"])
def test_phi_family_strength_sweep_displaces_once_per_strength(monkeypatch, name):
    # more strengths than the cache has entries, so a family-major order
    # would evict every rung before the next family reads it
    spec = replace(sweep.preset(name), count=fock.RUNG_CACHE_SIZE + 2)
    assert spec.family == "phi" and len(spec.family_values) == 4
    lookups = _count_calls(monkeypatch, "_displacement")
    _, rows = sweep.run_sweep(spec)
    assert all(row["flag"] == "" for row in rows)
    assert sorted(mu.real for mu, _ in lookups) == sorted(g / 2.0 for g in spec.axis_values())


@pytest.mark.parametrize("name", ["fig3b", "fig5"])
def test_r_axis_sweep_builds_each_matrix_once(monkeypatch, name):
    # neighbouring radii are new pointers, so they miss the rung cache, but
    # they share a strength and mostly a cutoff: the matrix cache builds each
    # (strength/2, cutoff) matrix once
    spec = replace(sweep.preset(name), count=41)
    assert spec.axis == "r"
    builds = _count_calls(monkeypatch, "_build_displacement")
    _, rows = sweep.run_sweep(spec)
    assert all(row["flag"] == "" for row in rows)
    assert len(builds) == len(set(builds)) < len(rows) // 2


def test_bundle_vectors_are_read_only():
    # they are shared through the rung cache with every later query
    bundle = fock.branch_bundle(SEL, PTR, CPL)
    for v in (bundle.psi, bundle.up, bundle.down):
        with pytest.raises(ValueError):
            v[1] = 0.0
        with pytest.raises(ValueError):
            v *= 2.0


def test_rung_cache_memory_is_bounded():
    # the cache keeps at most RUNG_CACHE_SIZE entries, each at most three
    # 1-D vectors at a cutoff no larger than HARD_DIM_CAP; clearing it frees
    # no more than that bound
    info = fock._branches.cache_info()
    assert info.maxsize == fock.RUNG_CACHE_SIZE
    tracemalloc.start()
    try:
        for k in range(fock.RUNG_CACHE_SIZE + 4):
            pointer, strength = PointerParams(r=0.5 * k), 0.25 * k
            dim = fock.branch_bundle(SEL, pointer, Coupling(strength=strength)).n_max
            vectors = [x for x in fock._branches(pointer, strength, dim) if isinstance(x, np.ndarray)]
            assert len(vectors) == 3
            assert all(v.ndim == 1 and v.shape == (dim,) and v.dtype == np.complex128 for v in vectors)
            assert dim <= fock.HARD_DIM_CAP
        del vectors
        held = tracemalloc.get_traced_memory()[0]
        assert fock._branches.cache_info().currsize == fock.RUNG_CACHE_SIZE
        fock._branches.cache_clear()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    largest_entry = 3 * fock.HARD_DIM_CAP * np.dtype(np.complex128).itemsize
    assert 0 < freed <= fock.RUNG_CACHE_SIZE * largest_entry
