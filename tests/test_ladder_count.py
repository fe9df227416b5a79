"""One certified cutoff ladder and one call of each closed form per
parameter point, whatever is read from it,
one cached rung per (pointer, strength, cutoff), whatever selection reads it,
one Gram block of forms per rung, read by every selection by contraction,
and one displacement series per cutoff and padded size in a warmed slab."""

import gc
import math
import pickle
import tracemalloc
from dataclasses import replace

import pytest

from spacmeter import analytic, fock, metrology, sweep, verify
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


@pytest.fixture
def closed_forms(monkeypatch):
    """Records the calls of each closed form a point record reads, by name."""
    return {name: _count_calls(monkeypatch, name, analytic) for name in ("pointer_shifts", "fisher_information")}


QUERIES = {
    "snr": lambda: metrology.snr(SEL, PTR, CPL, trials=10),
    "qfi": lambda: metrology.qfi(SEL, PTR, CPL),
    "transition_moment": lambda: fock.transition_moment(SEL, PTR, CPL),
}
# the closed forms each query checks its oracle value against: (pointer_shifts, fisher_information) calls
QUERY_CLOSED_FORMS = {"snr": (1, 0), "qfi": (0, 1), "transition_moment": (0, 0)}


@pytest.mark.parametrize("name", QUERIES)
def test_point_query_runs_one_ladder(ladders, closed_forms, name):
    QUERIES[name]()
    assert len(ladders) == 1
    assert tuple(map(len, closed_forms.values())) == QUERY_CLOSED_FORMS[name]


REFUSED = {
    "snr-trials": lambda: metrology.snr(SEL, PTR, CPL, trials=0),
    "snr-strength": lambda: metrology.snr(SEL, PTR, Coupling(strength=0.0)),
    "snr-degenerate": lambda: metrology.snr(SelectionParams(phi=SEL.phi, delta=math.pi / 2), PTR, CPL),
    "qfi-trials": lambda: metrology.qfi(SEL, PTR, CPL, trials=0),
}


@pytest.mark.parametrize("call", REFUSED.values(), ids=REFUSED.keys())
def test_refused_query_runs_no_ladder(ladders, closed_forms, call):
    # a point record checks a query's inputs before its first read
    with pytest.raises(ValueError):
        call()
    assert ladders == [] and all(calls == [] for calls in closed_forms.values())


@pytest.mark.parametrize(
    "outputs", [("dx", "transition"), ("chi",), ("qfi", "crb"), ("dx", "chi", "qfi")], ids=lambda o: "+".join(o)
)
def test_sweep_row_runs_one_ladder(ladders, closed_forms, outputs):
    # a row's shift cells and chi read one closed-form evaluation, its qfi
    # and crb one closed-form Fisher information
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
    assert len(closed_forms["pointer_shifts"]) == int(bool({"dx", "chi"} & set(outputs)))
    assert len(closed_forms["fisher_information"]) == int("qfi" in outputs)


def test_verify_grid_point_runs_one_ladder(ladders, closed_forms):
    checks = verify._cross_engine_checks([(SEL, PTR, CPL)])
    assert len(checks) == 6 and all(c.passed for c in checks)
    assert len(ladders) == 1
    assert [len(calls) for calls in closed_forms.values()] == [1, 1]


def test_verify_grid_point_evaluates_one_weak_value_and_one_branch_sum(monkeypatch):
    # a selection keeps its weak value, which both engines read, and the
    # closed forms at a point share its one branch sum
    evaluated, read = [], SelectionParams._weak.read
    monkeypatch.setattr(SelectionParams._weak, "read", lambda sel: evaluated.append(sel) or read(sel))
    analytic._branch_sum.cache_clear()
    sel = SelectionParams(phi=SEL.phi, delta=SEL.delta)
    checks = verify._cross_engine_checks([(sel, PTR, CPL)])
    assert len(checks) == 6 and all(c.passed for c in checks)
    assert evaluated == [sel]
    assert analytic._branch_sum.cache_info().misses == 1


def test_verify_grid_and_sweep_compare_no_pointers(monkeypatch):
    # the grid builds each distinct pointer once, and a sweep row reads the
    # pointer its rung key holds, so the rung cache and the kernel cache
    # match a point's pointer by identity, never by __eq__
    analytic.real_axis_kernel.cache_clear()  # the rung cache starts empty in every test
    compared, equal = [], PointerParams.__eq__
    monkeypatch.setattr(PointerParams, "__eq__", lambda self, other: compared.append(other) or equal(self, other))
    checks = verify._cross_engine_checks(verify.fast_grid())
    assert all(c.passed for c in checks)
    _, rows = sweep.run_sweep(replace(sweep.preset("fig3b"), count=5))
    assert all(row["flag"] == "" for row in rows)
    assert compared == []


def _count_calls(monkeypatch, name, module=fock):
    """Records one entry per call of module.<name>."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
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
    passes = _count_calls(monkeypatch, "_series")
    neighbours = _count_calls(monkeypatch, "assemble_at_cutoff")
    metrology.qfi(SEL, PTR, CPL)
    assert len(tried) == 1
    assert len(passes) == len(tried)
    assert [len(rungs) for _, _, rungs in passes] == [1]
    assert neighbours == []


def test_queries_at_one_point_share_one_rung(monkeypatch):
    # the pointer, its displaced branches and their forms are cached per
    # (pointer, strength, cutoff): repeated and mixed queries at a point
    # build them once
    built = _count_calls(monkeypatch, "_spac_amplitudes")
    passes = _count_calls(monkeypatch, "_series")
    forms = _count_calls(monkeypatch, "_forms")
    for _ in range(2):
        for call in QUERIES.values():
            call()
    assert len(built) == 1
    assert len(passes) == 1
    assert len(forms) == 1


def test_equal_pointers_share_the_caches(monkeypatch):
    # a pointer hashes its fields once, at construction; an equal pointer
    # built apart, replaced or unpickled hashes equal and finds the same
    # cached rung and the same closed-form kernel entries
    twins = [PointerParams(r=PTR.r, theta=PTR.theta), replace(PTR, sigma=1.0), pickle.loads(pickle.dumps(PTR))]
    for twin in twins:
        assert twin == PTR and twin is not PTR and repr(twin) == repr(PTR)
        assert hash(twin) == hash(PTR) == hash((PTR.r, PTR.theta, PTR.sigma))
    assert hash(replace(PTR, r=3.0)) == hash((3.0, PTR.theta, PTR.sigma))
    analytic.real_axis_kernel.cache_clear()
    fock.branch_bundle(SEL, PTR, CPL)
    analytic.pointer_shifts(SEL, PTR, CPL)
    kernels = analytic.real_axis_kernel.cache_info()
    built = _count_calls(monkeypatch, "_spac_amplitudes")
    for twin in twins:
        fock.branch_bundle(SEL, twin, CPL)
        analytic.pointer_shifts(SEL, twin, CPL)
    assert built == []
    assert analytic.real_axis_kernel.cache_info().misses == kernels.misses
    assert analytic.real_axis_kernel.cache_info().hits > kernels.hits


def test_verify_grid_builds_forms_once_per_rung(monkeypatch):
    # the fast grid's 48 points share 8 first rungs; each rung's Gram block
    # is built once, and no point walks the kept combination's vector
    forms = _count_calls(monkeypatch, "_forms")
    combined = _count_calls(monkeypatch, "_kept_combination")
    points = verify.fast_grid()
    checks = verify._cross_engine_checks(points)
    assert all(c.passed for c in checks)
    rungs = [entry for entry in fock._RUNGS._entries.values() if entry is not None]
    assert len(forms) == len(rungs) < len(points)
    assert len({id(up) for _, up, _ in forms}) == len(forms)
    assert combined == []


def _small_cache(monkeypatch, entries: int):
    """A rung cache that holds `entries` rungs."""
    monkeypatch.setattr(fock, "_RUNGS", fock._RungCache(entries))
    return entries


def test_warm_fills_at_most_half_the_cache(monkeypatch):
    # warmed sizes its slab by the cache's count of entries, so the first
    # slab takes exactly half of a cache of 20 entries
    limit = _small_cache(monkeypatch, 20)
    keys = [(PointerParams(r=0.05 * k), 0.3) for k in range(30)]
    assert all(fock._first_cutoff(pointer, strength) == 64 for pointer, strength in keys)
    order = fock.warmed(keys)
    assert next(order) == 0
    count = len(fock._RUNGS)
    assert all(fock._RUNGS.get((pointer, strength, 64)) not in (None, fock._MISS) for pointer, strength in keys[:count])
    assert count == 10 and len(fock._RUNGS) == limit // 2
    assert list(order) == list(range(1, len(keys)))


def test_warmed_yields_each_group_after_its_slab(monkeypatch):
    # on a cache of three rungs, with repeated keys, two interleaved
    # families and invalid points: every index once, each key's indices
    # together and ascending, groups in order of first appearance, one _fill
    # per slab, and each rung cached when its first index is yielded
    _small_cache(monkeypatch, 3)
    keys = [None if k % 7 == 3 else (PointerParams(r=0.5 * (k % 3)), 0.3 * (k % 2)) for k in range(24)]
    slabs, fill = [], fock._fill
    monkeypatch.setattr(fock, "_fill", lambda rungs: slabs.append((rungs, [])) or fill(rungs))
    for index in fock.warmed(keys):
        key = keys[index]
        assert key is None or fock._RUNGS.get((*key, fock._first_cutoff(*key))) not in (None, fock._MISS)
        slabs[-1][1].append(index)
    order = [index for _, indices in slabs for index in indices]
    assert order == [i for key in dict.fromkeys(keys) for i, k in enumerate(keys) if k == key]
    assert len(slabs) > 2
    for rungs, indices in slabs:
        assert indices
        assert [rung[:2] for rung in rungs] == [k for k in dict.fromkeys(keys[i] for i in indices) if k is not None]


def test_verify_grid_computes_no_rung_outside_a_slab(monkeypatch):
    # a cache that holds a few of the fast grid's 8 first rungs: each slab
    # is warmed before its points run, so no point computes its rung cold
    # (a one-key _fill)
    _small_cache(monkeypatch, 6)
    fills, fill = [], fock._fill
    monkeypatch.setattr(fock, "_fill", lambda rungs: fills.append(list(rungs)) or fill(rungs))
    checks = verify._cross_engine_checks(verify.fast_grid())
    assert all(c.passed for c in checks)
    assert len(fills) > 1 and sum(map(len, fills)) == 8
    assert all(len(rungs) > 1 for rungs in fills)


@pytest.mark.parametrize("name", ["fig3a", "fig4"])
def test_phi_family_strength_sweep_displaces_once_per_strength(monkeypatch, name):
    # the cache holds fewer rungs than the sweep has strengths, so a
    # family-major order would evict every rung before the next family reads it
    spec = replace(sweep.preset(name), count=10)
    assert spec.family == "phi" and len(spec.family_values) == 4
    _small_cache(monkeypatch, 6)
    passes = _count_calls(monkeypatch, "_displace")
    _, rows = sweep.run_sweep(spec)
    assert all(row["flag"] == "" for row in rows)
    halves = [h for _, _, _, rungs in passes for _, h in rungs]
    assert sorted(halves) == sorted(g / 2.0 for g in spec.axis_values())


def _slab_series(monkeypatch):
    """Records each warmed slab as the list of (cutoff, pad, pointer rows, strengths/2) of its series."""
    slabs = []
    fill, displace = fock._fill, fock._displace

    def filled(rungs):
        slabs.append([])
        return fill(rungs)

    def displaced(psis, dim, pad, rungs):
        slabs[-1].append((dim, pad, len(psis), [h for _, h in rungs]))
        return displace(psis, dim, pad, rungs)

    monkeypatch.setattr(fock, "_fill", filled)
    monkeypatch.setattr(fock, "_displace", displaced)
    return slabs


def _assert_one_series_per_block(slabs):
    # within a slab, each (cutoff, padded size) block runs one series, and
    # every strength in it has that block's pad
    for slab in slabs:
        blocks = [(dim, pad) for dim, pad, _, _ in slab]
        assert len(blocks) == len(set(blocks))
        for dim, pad, _, halves in slab:
            assert all(fock._pad(h, dim) == pad for h in halves)


@pytest.mark.parametrize("name", ["fig3a", "fig4"])
def test_strength_sweep_runs_one_series_per_block(monkeypatch, name):
    # a warmed slab shares each series across the strengths of its block:
    # one series per cutoff and padded size, not one per strength
    spec = replace(sweep.preset(name), count=21)
    slabs = _slab_series(monkeypatch)
    _, rows = sweep.run_sweep(spec)
    assert all(row["flag"] == "" for row in rows)
    _assert_one_series_per_block(slabs)
    series = [entry for slab in slabs for entry in slab]
    assert len(series) < spec.count
    assert sorted(h for *_, halves in series for h in halves) == sorted(g / 2.0 for g in spec.axis_values())


@pytest.mark.parametrize("name", ["fig3b", "fig5"])
def test_r_axis_sweep_runs_one_series_per_block(monkeypatch, name):
    # neighbouring radii are new pointers, so each needs its own rung, but
    # they share a strength and mostly a cutoff: the warmed slab runs them
    # as the rows of one series per (cutoff, padded size) block
    spec = replace(sweep.preset(name), count=41)
    assert spec.axis == "r"
    slabs = _slab_series(monkeypatch)
    _, rows = sweep.run_sweep(spec)
    assert all(row["flag"] == "" for row in rows)
    _assert_one_series_per_block(slabs)
    series = [entry for slab in slabs for entry in slab]
    assert len(series) < len(rows) // 2
    assert max(count for _, _, count, _ in series) > 1


def test_bundle_vectors_are_read_only():
    # a bundle rebuilds them once and hands the same arrays to every later read
    bundle = fock.branch_bundle(SEL, PTR, CPL)
    for v in (bundle.psi, bundle.up, bundle.down):
        with pytest.raises(ValueError):
            v[1] = 0.0
        with pytest.raises(ValueError):
            v *= 2.0


def _numbers(field) -> bool:
    """Whether a rung field is a float or a tuple of Python numbers, nested tuples included."""
    if isinstance(field, tuple):
        return all(_numbers(x) for x in field)
    return type(field) in (float, complex)


def test_rung_cache_memory_is_bounded(monkeypatch):
    # the cache is bounded by a count: an entry holds its tail, forms and
    # ladder means as Python numbers and no vector, so it costs the same at
    # every cutoff, and the count bounds the cache's bytes by the 16 MiB
    # byte bound it replaced.  A full collection empties CPython's free
    # lists before and after the measurement, so a freed tuple or float is
    # counted, and 32 entries keep what allocator reuse is left (about a
    # hundred bytes) to a few bytes an entry
    assert fock._RUNGS.limit == fock.RUNG_CACHE_ENTRIES
    limit = _small_cache(monkeypatch, 32)
    keys = [(PointerParams(r=0.04 * k), 0.04 * k) for k in range(40)]
    per_entry = {}
    for dim in (64, 1024):
        gc.collect()
        tracemalloc.start()
        try:
            for pointer, strength in keys:
                entry = fock._branches(pointer, strength, dim)
                assert isinstance(entry, fock._Rung)
                assert all(_numbers(field) for field in entry)  # no np.ndarray anywhere
                assert len(fock._RUNGS) <= limit
            del entry
            assert len(fock._RUNGS) == limit
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            fock._RUNGS.clear()
            gc.collect()
            per_entry[dim] = (held - tracemalloc.get_traced_memory()[0]) / limit
        finally:
            tracemalloc.stop()
        assert len(fock._RUNGS) == 0
    assert per_entry[64] > 0
    assert abs(per_entry[1024] - per_entry[64]) <= 64
    assert fock.RUNG_CACHE_ENTRIES * max(per_entry.values()) <= 16 << 20
