"""Truncated matrix engine: displacement, pointer vector, branch assembly."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from spacmeter import analytic, fock, metrology, sweep, verify
from spacmeter.model import Coupling, PointerParams, SelectionParams, weak_value

P1_SEL = SelectionParams(phi=math.pi / 3, delta=math.pi / 6)
P1_PTR = PointerParams(r=2.0, theta=math.pi / 6)
P2_SEL = SelectionParams(phi=math.pi / 6, delta=math.pi / 6)


class TestDisplacement:
    def test_matrix_elements_match_expm_reference(self):
        for mu in (0.7, -0.45 + 0.3j, 1.5):
            op = fock.displacement_operator(mu, 64)
            ref = bf.dmat(complex(mu), 128)[:48, :48]
            assert np.max(np.abs(op.matrix[:48, :48] - ref)) <= 1e-12

    def test_zero_shift_is_identity(self):
        op = fock.displacement_operator(0.0, 32)
        assert np.array_equal(op.matrix, np.eye(32))
        assert op.safe_dim == 32

    def test_adjoint_reverses_shift(self):
        op_f = fock.displacement_operator(0.6 - 1.1j, 96)
        op_b = fock.displacement_operator(-0.6 + 1.1j, 96)
        assert np.max(np.abs(op_f.matrix.conj().T - op_b.matrix)) <= 1e-13

    def test_unitary_on_safe_block(self):
        op = fock.displacement_operator(1.3 + 0.4j, 128)
        assert 0 < op.safe_dim < op.dim
        assert op.unitarity_defect() <= 1e-10

    def test_safe_dim_shrinks_with_shift_size(self):
        small = fock.displacement_operator(0.2, 96).safe_dim
        large = fock.displacement_operator(2.5, 96).safe_dim
        assert large < small

    @pytest.mark.parametrize("mu, dim, old_cap", [(0.025, 256, 177), (0.15, 512, 415)])
    def test_small_shift_safe_block_follows_truncation(self, mu, dim, old_cap):
        # Column-norm roundoff alone crosses SAFE_COLUMN_LOSS near columns
        # 177 (mu=0.025) and 415 (mu=0.15); a deficit-based gate stopped the
        # safe block there at every cutoff.  The block must end where the
        # displaced mass stops fitting under the cutoff instead.
        op = fock.displacement_operator(mu, dim)
        safe = op.safe_dim
        assert safe > old_cap
        ref = bf.dmat(complex(mu), dim + 128)
        # measured 3.3e-16 and 7.1e-16 here
        assert np.max(np.abs(op.matrix[:, :safe] - ref[:dim, :safe])) <= 2e-15
        assert op.unitarity_defect() <= 1e-10
        past = np.sum(np.abs(ref[dim:, :dim]) ** 2, axis=0)
        assert past[safe - 1] <= fock.SAFE_COLUMN_LOSS < past[safe]

    @pytest.mark.parametrize("mu, dim", [(10.0, 64), (20.0, 256)])
    def test_shift_past_cutoff_leaves_no_safe_block(self, mu, dim):
        assert fock.displacement_operator(mu, dim).safe_dim == 0

    def test_matrix_is_read_only(self):
        op = fock.displacement_operator(0.8, 32)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 1.0

    def test_tiny_cutoff_rejected(self):
        with pytest.raises(ValueError):
            fock.displacement_operator(0.5, 7)

    @given(
        re=st.floats(-2.0, 2.0),
        im=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_column_norms_inside_safe_block(self, re, im):
        op = fock.displacement_operator(complex(re, im), 96)
        block = op.matrix[:, : op.safe_dim]
        norms = np.sum(np.abs(block) ** 2, axis=0)
        assert np.all(np.abs(norms - 1.0) <= 1e-11)

    def test_unitary_at_the_largest_preset_cutoff(self):
        # criterion 7's r = 21 points reach cutoff 768 at |mu| = 0.15, the
        # largest cutoff the presets and acceptance criteria use
        op = fock.displacement_operator(0.15, 768)
        assert op.safe_dim > 512
        assert op.unitarity_defect() <= 1e-10


class TestTables:
    """D(+-|mu|) psi from the series kernel: against expm, a block against
    blocks of one, and against the dense operator.  The series replaced the
    banded displacement tables, and these cases keep the tables' names."""

    HALVES = (0.0, 0.025, 0.15, 0.75, 1.5, 2.9)

    @staticmethod
    def _pointer(dim):
        # a pointer whose bulk fills a quarter of the cutoff
        return fock._spac_amplitudes(PointerParams(r=math.sqrt(dim) / 2.0, theta=0.4), dim)[0]

    @pytest.mark.parametrize("dim", [64, 160, 480, 832])
    @pytest.mark.parametrize("half", HALVES)
    def test_bands_equal_the_full_recurrence(self, half, dim):
        # the reference is expm at twice the cutoff; dense at the two small
        # cutoffs, its action on the vector at the two large ones
        psi = self._pointer(dim)
        (up,), (down,) = fock._displace([psi], dim, fock._pad(half, dim), [(0, half)])
        for sign, got in ((1.0, up[:dim]), (-1.0, down[:dim])):
            if dim <= 160:
                ref = bf.dmat(complex(sign * half), 2 * dim)[:dim, :dim] @ psi
            else:
                ref = bf.displace(sign * half, 2 * dim, psi)[:dim]
            assert np.max(np.abs(got - ref)) <= 1e-14

    def test_band_spans_every_lane_near_the_cutoff(self):
        # |mu|^2 = 144 of 160 levels: the pad is eight cutoffs wide, and the
        # whole padded vector is expm's action on a basis twice its size
        dim, half = 160, 12.0
        assert not fock._reaches(half, dim)
        pad = fock._pad(half, dim)
        assert pad >= 8 * dim
        psi = self._pointer(dim)
        (up,), (down,) = fock._displace([psi], dim, pad, [(0, half)])
        for sign, got in ((1.0, up), (-1.0, down)):
            ref = bf.displace(sign * half, 2 * (dim + pad), psi)[: dim + pad]
            assert np.max(np.abs(got - ref)) <= 1e-14

    @pytest.mark.parametrize("dim", [64, 160])
    def test_batch_rows_equal_batch_of_one(self, dim):
        # pointers sharing strengths, strengths sharing a pointer, real and
        # complex rows: each rung is what a block of one computes, bit for bit
        halves = (0.1, 0.7, 1.3)
        psis = [fock._spac_amplitudes(PointerParams(r=r, theta=0.3), dim)[0] for r in (0.0, 2.0, 3.5)]
        pad = fock._pad(max(halves), dim)
        rungs = [(row, h) for h in halves for row in range(len(psis))][::-1]
        ups, downs = fock._displace(psis, dim, pad, rungs)
        for (row, h), up, down in zip(rungs, ups, downs):
            (one_up,), (one_down,) = fock._displace([psis[row]], dim, pad, [(0, h)])
            assert np.array_equal(up, one_up) and np.array_equal(down, one_down)
        columns = np.eye(dim, dim + pad)
        up, down = fock._series(columns, 1, [(j, 0.7) for j in range(dim)])
        for j in (0, 17, dim - 1):
            one_up, one_down = fock._series(columns[j : j + 1], 1, [(0, 0.7)])
            assert np.array_equal(up[j], one_up[0]) and np.array_equal(down[j], one_down[0])

    def test_products_match_the_dense_operator(self):
        self._assert_products_match((0.7,), 0)

    def test_products_of_a_batch_member_match_the_dense_operator(self):
        # a member of a block padded for its largest strength
        assert fock._pad(0.7, 96) < fock._pad(2.0, 96)
        self._assert_products_match((0.2, 0.7, 2.0), 1)

    @staticmethod
    def _assert_products_match(halves, index):
        dim = 96
        psi = fock.spac_state(PointerParams(r=3.0, theta=0.4)).amplitudes[:dim]
        ups, downs = fock._displace([psi], dim, fock._pad(max(halves), dim), [(0, h) for h in halves])
        dense = fock.displacement_operator(halves[index], dim).matrix
        assert np.max(np.abs(ups[index, :dim] - dense @ psi)) <= 1e-14
        assert np.max(np.abs(downs[index, :dim] - dense.conj().T @ psi)) <= 1e-14

    def test_warmed_slab_equals_cold_single_calls(self, monkeypatch):
        # a slab mixes cutoffs, strengths sharing a series, and pointers
        # sharing a strength; every entry, its forms and every selection's
        # reads of them must be what a cold call computes, bit for bit, and a
        # bundle rebuilds the very vectors the slab made its forms from
        keys = [
            (PointerParams(r=r, theta=0.3), strength)
            for r in (0.0, 2.0, 5.0)
            for strength in (0.0, 0.3, 1.7)
        ]
        handed, forms = {}, fock._forms

        def recorded(*vectors):  # the vectors the slab hands _forms, by the forms they give
            made = forms(*vectors)
            handed[id(made[0])] = vectors
            return made

        monkeypatch.setattr(fock, "_forms", recorded)
        order = fock.warmed(keys)
        assert next(order) == 0 and len(fock._RUNGS) == len(keys)  # one slab
        assert list(order) == list(range(1, len(keys)))
        monkeypatch.setattr(fock, "_forms", forms)
        rungs = [(p, s, fock.TruncationPolicy().starting_dim(p, s)) for p, s in keys]
        cases = [(rung, sel) for rung in rungs for sel in (P1_SEL, SelectionParams(phi=0.95 * math.pi, delta=1.0))]
        warmed = [fock._RUNGS.get(rung) for rung in rungs]
        assert len(handed) == len(rungs)
        warmed_reads = [self._reads(*case) for case in cases]
        for (pointer, strength, dim), hot in zip(rungs, warmed):
            bundle = fock._rung(P1_SEL, pointer, Coupling(strength=strength), weak_value(P1_SEL), dim)
            for rebuilt, made in zip((bundle.psi, bundle.up, bundle.down), handed[id(hot.forms)]):
                assert np.array_equal(rebuilt, made)
        fock._RUNGS.clear()
        for rung, hot in zip(rungs, warmed):
            cold = fock._branches(*rung)
            fock._RUNGS.clear()
            for name in fock._Rung._fields:
                assert getattr(hot, name) == getattr(cold, name)
        for case, hot_reads in zip(cases, warmed_reads):
            assert self._reads(*case) == hot_reads
            fock._RUNGS.clear()

    @staticmethod
    def _reads(rung, sel):
        """Every read of the bundle at one rung, for one selection."""
        pointer, strength, dim = rung
        bundle = fock._rung(sel, pointer, Coupling(strength=strength), weak_value(sel), dim)
        return (
            bundle.norm_sq, bundle.tail_mass, bundle.kept_moments, bundle.kept_shift, bundle.transition(),
            bundle.fisher(), fock.moments(bundle.psi, bundle.pointer), bundle.unconditioned,
            bundle.kept.success_probability,
        )


class TestSeries:
    @pytest.mark.parametrize("half, dim", [(0.75, 64), (1.5, 160), (2.9, 96)])
    def test_duhamel_bound_covers_the_truncation_error(self, half, dim):
        # on every padded basis up to the certified one, the series' columns
        # are off the infinite basis's (expm far past the pad) by no more than
        # the bound, plus the series' own roundoff (measured up to 3.5e-15)
        ref = bf.dmat(complex(half), 512)
        pads = range(0, fock._pad(half, dim) + 1, 32)
        bounds = [fock._duhamel_bound(half, dim, pad) for pad in pads]
        for pad, bound in zip(pads, bounds):
            # sqrt(N) |mu| sqrt(dim) max_{d >= pad} (mu^2 N)^(d/2) / d!, the max taken over every d
            size, d = dim + pad, np.arange(pad, dim + pad + 1)
            terms = 0.5 * d * math.log(half * half * size) - np.array([math.lgamma(k + 1.0) for k in d])
            assert bound == pytest.approx(math.sqrt(size * dim) * half * math.exp(terms.max()), rel=1e-12)
        assert bounds[-1] < np.finfo(float).eps <= bounds[-2]
        assert any(1e-12 < b < 1.0 for b in bounds)  # the comparison bites somewhere
        for pad, bound in zip(pads, bounds):
            size = dim + pad
            up, _ = fock._series(np.eye(dim, size), 1, [(j, half) for j in range(dim)])
            error = np.sqrt(np.max(np.sum((up - ref[:size, :dim].T) ** 2, axis=1)))
            assert error <= bound + 1e-14

    @pytest.mark.parametrize("z", [1e-12, 1e-3, 0.3, 1.0, 2.5, 5.0, 10.0, 20.0])
    def test_miller_weights_match_scipy(self, z):
        # relative to the largest |J_k(z)|: near its zeros J_k has no relative
        # accuracy to speak of, and scipy's jv is itself off by a few eps there
        from scipy.special import jv

        weights = fock._chebyshev_weights(z)
        bessel = np.array(weights)
        bessel[1:] /= 2.0
        ref = jv(np.arange(len(bessel)), z)
        assert np.max(np.abs(bessel - ref)) <= 1e-15 * np.max(np.abs(ref))
        # past k = z + 2 J_k falls monotonically, with no zeros, and each
        # weight holds its relative precision there (measured up to 9.5e-15)
        tail = np.arange(len(bessel)) >= z + 2.0
        assert np.all(np.abs(bessel - ref)[tail] <= 2e-14 * np.abs(ref)[tail])
        # the dropped terms are below float eps together (DLMF 10.14.4)
        dropped = 2.0 * np.sum(np.abs(jv(np.arange(len(bessel), len(bessel) + 64), z)))
        assert dropped <= np.finfo(float).eps

    @pytest.mark.parametrize("z", [90.0, 300.0, 700.0])
    def test_miller_weights_obey_jacobi_anger(self, z):
        # past z = 20 scipy's jv drifts by more than eps; the Jacobi-Anger
        # sums cos z = J_0 - 2 J_2 + 2 J_4 - ... and sin z = 2 J_1 - 2 J_3 + ...
        # use none of the normalization the weights were built with
        weights = fock._chebyshev_weights(z)
        signs = np.where(np.arange(len(weights)) % 4 < 2, 1.0, -1.0)
        terms = signs * weights
        assert abs(math.fsum(terms[0::2]) - math.cos(z)) <= 1e-14
        assert abs(math.fsum(terms[1::2]) - math.sin(z)) <= 1e-14

    def test_term_counts_equal_the_linear_scan(self):
        # the galloping search stops where a walk up from z/2 does, on a
        # dense grid from below eps to far past the presets' largest z
        def scan(z):
            terms = max(1, math.ceil(0.5 * z))
            while (terms * math.log(0.5 * z) - math.lgamma(terms + 1.0)
                   - math.log(0.5 - 0.25 * z / (terms + 1.0)) > math.log(np.finfo(float).eps)):
                terms += 1
            return terms

        zs = np.concatenate([np.geomspace(1e-14, 5000.0, 1000), np.arange(0.005, 100.0, 0.02)]).tolist()
        assert [len(fock._chebyshev_weights.__wrapped__(z)) for z in zs] == [scan(z) for z in zs]
        assert len(fock._chebyshev_weights(0.0)) == 1

    DIM = 64

    @classmethod
    def _block(cls):
        """A pad for |mu| up to 1.5 at cutoff 64, and the |mu| whose series keeps
        B - 1, B, B + 1 and 2B + 1 terms on that padded basis."""
        pad = fock._pad(1.5, cls.DIM)
        size = math.sqrt(cls.DIM + pad)
        counts = [fock.KRYLOV_TERMS + d for d in (-1, 0, 1, fock.KRYLOV_TERMS + 1)]
        first = {}
        for z in np.arange(0.01, 2.0 * 1.5 * size, 0.01):
            first.setdefault(len(fock._chebyshev_weights.__wrapped__(float(z))), float(z) / (2.0 * size))
        halves = [first[c] for c in counts]
        assert [len(fock._chebyshev_weights(2.0 * h * size)) for h in halves] == counts
        return pad, halves

    @pytest.mark.parametrize("place", range(4), ids=["B-1", "B", "B+1", "2B+1"])
    def test_chunk_boundaries_match_expm(self, place):
        # a series that ends just before, at and just past a chunk's last
        # slot, and one that runs into a third chunk
        pad, halves = self._block()
        half = halves[place]
        psi = fock._spac_amplitudes(PointerParams(r=2.0, theta=0.4), self.DIM)[0]
        (up,), (down,) = fock._displace([psi], self.DIM, pad, [(0, half)])
        for sign, got in ((1.0, up), (-1.0, down)):
            ref = bf.displace(sign * half, 2 * (self.DIM + pad), psi)[: self.DIM + pad]
            assert np.max(np.abs(got - ref)) <= 1e-14

    def test_mixed_chunk_counts_in_a_block_equal_blocks_of_one(self):
        # the r = 0 row's support is one level, so the block's window is
        # wider than its own; each rung's product has the same shape as in a
        # block of one, and gives the same bits
        pad, halves = self._block()
        psis = [fock._spac_amplitudes(PointerParams(r=r, theta=0.3), self.DIM)[0] for r in (0.0, 2.0, 3.5)]
        rungs = [(row, h) for row in (2, 0, 1) for h in halves[::-1]]
        ups, downs = fock._displace(psis, self.DIM, pad, rungs)
        for (row, h), up, down in zip(rungs, ups, downs):
            (one_up,), (one_down,) = fock._displace([psis[row]], self.DIM, pad, [(0, h)])
            assert np.array_equal(up, one_up) and np.array_equal(down, one_down)

    def test_chunk_stays_under_its_byte_constant(self, monkeypatch):
        # by arithmetic on the shapes of every series of the full verify grid
        # and the five presets, and of the 16-column blocks of the cap-size
        # displacement_operator at the CI's three |mu|: each chunk holds
        # _krylov_rows of a block's rows, KRYLOV_TERMS + 2 slots each, on rows
        # guarded by one level each side
        blocks, series = [], fock._series

        def recorded(rows, channels, rungs):
            blocks.append((len(rows), rows.shape[1], channels))
            return series(rows, channels, rungs)

        monkeypatch.setattr(fock, "_series", recorded)
        verify.run_verify("full")
        for name in ("fig1", "fig3a", "fig3b", "fig4", "fig5"):
            sweep.run_sweep(sweep.preset(name))
        blocks += [(16, fock.HARD_DIM_CAP + fock._pad(mu, fock.HARD_DIM_CAP), 1) for mu in (0.025, 0.15, 1.5)]
        chunks = []
        for count, length, channels in blocks:
            rows = min(count, fock._krylov_rows(length, channels))
            chunks.append(rows * (fock.KRYLOV_TERMS + 2) * (length + 2 * channels) * 8)
            assert rows >= 1
        assert max(chunks) <= fock.KRYLOV_BYTES
        assert any(count > fock._krylov_rows(length, channels) for count, length, channels in blocks)

    @staticmethod
    def _reference_block(name, channels):
        """(rows, rungs) of one block for the comparison with the plain recurrence."""
        if name in ("columns", "top-columns"):  # 16 identity columns: a narrow support on 1,100 levels
            return np.eye(16, 1100, 0 if name == "columns" else 1084), [(j, 1.5) for j in range(16)]
        if name in ("zero-row", "negative-zero-row"):
            return np.full((1, 200 * channels), 0.0 if name == "zero-row" else -0.0), [(0, 0.8)]
        dim = 960 if name == "groups" else 64
        psis = [fock._spac_amplitudes(PointerParams(r=r, theta=0.3), dim)[0] for r in (0.0, 2.0, 3.5, 1.0, 6.0, 0.5, 4.0)]
        rows = np.zeros((len(psis), dim + fock._pad(1.5, dim)), dtype=np.complex128)
        rows[:, :dim] = psis
        rows = rows.view(np.float64) if channels == 2 else rows.real.copy()
        if name == "complex-rows":
            return rows[:3], [(2, 1.5), (0, 0.2), (1, 0.7), (2, 0.05), (0, 1.1)]
        if name == "groups":  # more rows than a Krylov chunk holds
            assert len(rows) > fock._krylov_rows(rows.shape[1], channels) > 1
            return rows, [(row, 0.1 + 0.05 * row) for row in range(len(rows))][::-1]
        # one row whose rungs keep 1, 2, 3, B, B + 1, B + 2 and 2B + 1 terms, B = KRYLOV_TERMS
        size = math.sqrt(rows.shape[1] // channels)
        counts = [1, 2, 3] + [fock.KRYLOV_TERMS + d for d in (0, 1, 2, fock.KRYLOV_TERMS + 1)]
        first = {1: 0.0}
        for z in np.concatenate([np.geomspace(1e-14, 1.0, 300), np.arange(0.01, 20.0, 0.01)]):
            first.setdefault(len(fock._chebyshev_weights.__wrapped__(float(z))), float(z) / (2.0 * size))
        halves = [first[c] for c in counts]
        assert [len(fock._chebyshev_weights(2.0 * h * size)) for h in halves] == counts
        return rows[1:2], [(0, h) for h in halves]

    @pytest.mark.parametrize("name, channels", [
        ("columns", 1), ("top-columns", 1), ("complex-rows", 2), ("zero-row", 1), ("negative-zero-row", 2),
        ("chunk-edges", 1), ("chunk-edges", 2), ("groups", 1), ("groups", 2),
    ])
    def test_series_equals_the_plain_recurrence(self, name, channels):
        # the reference runs every term on every level of each row, one row at
        # a time, with the same chunks and products: the window and the row
        # groups change no bit
        rows, rungs = self._reference_block(name, channels)
        got = fock._series(rows, channels, rungs)
        want = bf.chebyshev_series(rows, channels, rungs, fock._chebyshev_weights, fock.KRYLOV_TERMS)
        assert [v.tobytes() for v in got] == [v.tobytes() for v in want]

    def test_mass_past_the_cutoff_rejects_a_rung(self, monkeypatch):
        # with the guard bands silenced, the mass of D(+-1.5) psi past cutoff
        # 32 (about 1e-7 for r = 2) still rejects the rung; cutoff 96 passes
        monkeypatch.setattr(fock, "_band_mass", lambda v: 0.0)
        pointer = PointerParams(r=2.0, theta=0.3)
        assert fock._spac_amplitudes(pointer, 32)[1] <= fock.TAIL_TOL
        assert fock._branches(pointer, 3.0, 32) is None
        assert fock._branches(pointer, 3.0, 96) is not None


class TestForms:
    """Every selection's reads are 2x2 contractions of its rung's forms; each
    must match the same read of the explicit vectors."""

    # the standard grid's rows at four strengths, phi = 0.95 pi (|A| = 12.7) included
    POINTS = [point for point in verify.standard_grid() if point[2].strength in (0.0, 0.1, 1.0, 3.0)]

    @staticmethod
    def _explicit(bundle):
        """N, the kept moments, the transition value and the Fisher information, from vectors."""
        a = weak_value(bundle.sel)
        kept, norm_sq = fock._kept_combination(a, bundle.up, bundle.down)
        twin = (1.0 + a) * bundle.up - (1.0 - a) * bundle.down
        lower = bf.ladder(len(twin))
        g_twin = lower.conj().T @ twin - lower @ twin
        overlap = complex(np.vdot(kept, g_twin))
        return {
            "norm": norm_sq,
            "moments": fock.moments(kept, bundle.pointer),
            "transition": complex(np.vdot(kept, twin)) / math.sqrt(norm_sq),
            "fisher": (float(np.vdot(g_twin, g_twin).real) - abs(overlap) ** 2) / norm_sq,
            "bands": (fock._band_mass(kept), fock._band_mass(g_twin) / norm_sq),
        }

    def test_reads_match_the_explicit_vectors(self):
        # within 1e-2 of the shared cross-engine budget (measured 1.0e-3)
        worst = 0.0
        for sel, pointer, coupling in self.POINTS:
            bundle = fock.branch_bundle(sel, pointer, coupling)
            want = self._explicit(bundle)
            got, kept = bundle.transition(), bundle.kept_moments
            pairs = [
                (bundle.norm_sq, want["norm"]),
                (got.real, want["transition"].real),
                (got.imag, want["transition"].imag),
                (bundle.fisher(), want["fisher"]),
                *zip(vars(kept).values(), vars(want["moments"]).values()),
            ]
            for a, b in pairs:
                budget = metrology.CROSS_REL * max(abs(a), abs(b)) + metrology.CROSS_ABS
                worst = max(worst, abs(a - b) / budget)
        assert worst <= 1e-2

    @staticmethod
    def _contract(bundle, block, x, y):
        """x^H M y for the 2x2 block M of the bundle's rung's forms."""
        m00, m01, m10, m11 = bundle._rung.forms[4 * block : 4 * block + 4]
        return x[0].conjugate() * (m00 * y[0] + m01 * y[1]) + x[1].conjugate() * (m10 * y[0] + m11 * y[1])

    def test_guard_band_forms_match_the_band_mass(self):
        # the kept gate reads <B|B> over N on the guard band, the Fisher gate
        # <G C|G C> over N; both as _band_mass of the normalized vectors
        seen = 0
        for sel, pointer, coupling in self.POINTS:
            bundle, a = fock.branch_bundle(sel, pointer, coupling), weak_value(sel)
            b, c = (1.0, a), (a, 1.0)
            got = (
                self._contract(bundle, fock._EDGE, b, b).real / bundle.norm_sq,
                self._contract(bundle, fock._EDGE_SPEED, c, c).real / bundle.norm_sq,
            )
            for g, w in zip(got, self._explicit(bundle)["bands"]):
                assert g == pytest.approx(w, rel=1e-12, abs=0.0)
                seen += w > 0.0
        assert seen > len(self.POINTS)

    @pytest.mark.parametrize("k", [-3, 1, 4])
    def test_sigma_is_an_output_unit(self, k):
        # a rung is sigma-free, and sigma = 2^k scales each moment read of
        # the sigma = 1 bundle by a power of two, so exactly: position means
        # by 2^k, momentum means by 2^-k, their variances by 4^k and 4^-k
        coupling = Coupling(strength=0.9)
        unit = fock.branch_bundle(P1_SEL, P1_PTR, coupling)
        scaled = fock.branch_bundle(P1_SEL, PointerParams(r=P1_PTR.r, theta=P1_PTR.theta, sigma=2.0 ** k), coupling)
        assert P1_PTR.sigma == 1.0 and scaled._rung is not unit._rung
        assert scaled._rung.forms == unit._rung.forms
        assert scaled._rung.ladder == unit._rung.ladder
        reads = [(b.n_max, b.norm_sq, b.tail_mass, b.transition(), b.fisher()) for b in (scaled, unit)]
        assert reads[0] == reads[1]
        units = (2.0 ** k, 2.0 ** -k, 4.0 ** k, 4.0 ** -k, 1.0)
        for read in (lambda b: fock.moments(b.psi, b.pointer), lambda b: b.kept_moments, lambda b: b.unconditioned):
            got, want = vars(read(scaled)).values(), vars(read(unit)).values()
            assert list(got) == [u * w for u, w in zip(units, want)]
        assert scaled.kept_shift == tuple(u * w for u, w in zip(units, unit.kept_shift))
        assert scaled.unconditioned_shift() == 2.0 ** k * unit.unconditioned_shift()


class TestPointerVector:
    def test_vacuum_seed_is_first_excited_level(self):
        state = fock.spac_state(PointerParams(r=0.0))
        expected = np.zeros(state.n_max)
        expected[1] = 1.0
        assert np.array_equal(state.amplitudes.real, expected)
        assert np.all(state.amplitudes.imag == 0.0)

    def test_ground_amplitude_always_zero(self):
        for r in (0.0, 0.5, 2.0, 5.0):
            state = fock.spac_state(PointerParams(r=r, theta=0.7))
            assert state.amplitudes[0] == 0j

    def test_normalized_with_tiny_tail(self):
        state = fock.spac_state(P1_PTR)
        assert np.vdot(state.amplitudes, state.amplitudes).real == pytest.approx(
            1.0, abs=1e-14
        )
        assert 0.0 <= state.tail_mass <= 1e-14

    @pytest.mark.parametrize("r, dim", [(0.3, 64), (2.0, 96), (5.0, 96), (12.0, 96), (21.0, 800)])
    def test_tail_matches_the_term_loop(self, r, dim):
        # the 64 omitted terms one at a time, then the geometric remainder
        # (15% of the tail at r^2 = 144, cutoff 96); the sum's
        # order differs, so 64 terms' worth of eps is allowed
        pointer, r_sq, total = PointerParams(r=r), r * r, 0.0
        for k in range(dim, dim + 64):
            log_w = (math.log(pointer.norm_factor_sq) - r_sq + (k - 1.0) * math.log(r_sq)
                     + math.log(k) - math.lgamma(k + 1.0))
            total += math.exp(log_w)
        ratio = r_sq / (dim + 63.0)
        want = total + math.exp(log_w) * ratio / (1.0 - ratio)
        assert want > 0.0
        assert fock._spac_tail(pointer, dim) == pytest.approx(want, rel=64 * np.finfo(float).eps, abs=0.0)

    def test_matches_bruteforce_amplitudes(self):
        for r, theta in ((0.8, 0.0), (2.0, math.pi / 6), (4.0, 2.5)):
            ptr = PointerParams(r=r, theta=theta)
            state = fock.spac_state(ptr)
            ref = bf.spac(ptr.alpha, state.n_max)
            assert np.max(np.abs(state.amplitudes - ref)) <= 1e-13

    def test_frozen_moment_facts(self):
        m = fock.moments(fock.spac_state(P1_PTR), P1_PTR)
        assert m.mean_excitation == pytest.approx(5.8, abs=1e-12)
        assert m.position_variance == pytest.approx(0.92, abs=1e-12)
        assert m.momentum_variance == pytest.approx(0.31, abs=1e-12)

    def test_moments_agree_with_closed_forms(self):
        for r, theta, sigma in ((0.0, 0.0, 1.0), (1.5, 1.0, 0.6), (3.0, 4.0, 2.0)):
            ptr = PointerParams(r=r, theta=theta, sigma=sigma)
            got = fock.moments(fock.spac_state(ptr), ptr)
            want = analytic.initial_moments(ptr)
            assert got.position_mean == pytest.approx(want.position_mean, abs=1e-11)
            assert got.momentum_mean == pytest.approx(want.momentum_mean, abs=1e-11)
            assert got.position_variance == pytest.approx(
                want.position_variance, abs=1e-11
            )
            assert got.momentum_variance == pytest.approx(
                want.momentum_variance, abs=1e-11
            )
            assert got.mean_excitation == pytest.approx(want.mean_excitation, abs=1e-10)


class TestTruncationPolicy:
    def test_defaults(self):
        assert fock.TruncationPolicy().initial_dim is None
        assert fock.TAIL_TOL == 1e-14
        assert fock.GUARD_BAND == 8
        assert fock.HARD_DIM_CAP == 4096

    def test_starting_dim_scales_with_occupation(self):
        pol = fock.TruncationPolicy()
        low = pol.starting_dim(PointerParams(r=0.0), 0.1)
        high = pol.starting_dim(PointerParams(r=6.0), 4.0)
        assert low >= 64
        assert low % 32 == 0 and high % 32 == 0
        assert high > low

    @pytest.mark.parametrize("kwargs", [{"initial_dim": 4}])
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValueError):
            fock.TruncationPolicy(**kwargs)

    def test_cap_reported_when_unreachable(self, monkeypatch):
        # At r = 70 the pointer's bulk (about r^2 = 4900 photons) lies past
        # HARD_DIM_CAP, so the pointer tail rejects the capped first rung
        # before any amplitude or displacement series runs; a reach of
        # (strength/2)^2 photons past the cap rejects it before the
        # displacement.  Either way: a typed error in bounded memory.
        built = []
        monkeypatch.setattr(fock, "_series", lambda *key: built.append(key))
        for r, strength in ((70.0, 0.9), (1e200, 0.9), (2.0, 1e200)):
            ptr, cpl = PointerParams(r=r), Coupling(strength=strength)
            assert fock.TruncationPolicy().starting_dim(ptr, strength) == fock.HARD_DIM_CAP
            calls = [
                lambda: fock.branch_bundle(P1_SEL, ptr, cpl),
                lambda: metrology.snr(P1_SEL, ptr, cpl),
                lambda: metrology.qfi(P1_SEL, ptr, cpl),
            ]
            if r > 21.0:
                calls.append(lambda: fock.spac_state(ptr))
            for call in calls:
                with pytest.raises(fock.TruncationInsufficient):
                    call()
        assert built == []


class TestAssembly:
    def test_output_is_normalized(self):
        out = fock.assemble_final_state(P1_SEL, P1_PTR, Coupling(strength=0.9))
        v = out.state.amplitudes
        assert np.vdot(v, v).real == pytest.approx(1.0, abs=1e-13)
        assert out.state.tail_mass <= 2e-14

    def test_norm_tracks_closed_form_inverse_norm(self):
        # vector norm of (1+A) up + (1-A) dn is twice the postselection
        # norm factor; this is the primary cross-engine handshake
        for sel, g in ((P1_SEL, 0.9), (P2_SEL, 1.0), (P1_SEL, 0.05)):
            out = fock.assemble_final_state(sel, P1_PTR, Coupling(strength=g))
            want = analytic.pointer_shifts(sel, P1_PTR, Coupling(strength=g)).inverse_norm_sq
            assert out.norm_sq == pytest.approx(2.0 * want, rel=1e-12)

    def test_frozen_success_probability(self):
        out = fock.assemble_final_state(P2_SEL, P1_PTR, Coupling(strength=1.0))
        assert out.success_probability == pytest.approx(0.3595699404341493, rel=1e-10)

    def test_zero_strength_returns_pointer_state(self):
        out = fock.assemble_final_state(P1_SEL, P1_PTR, Coupling(strength=0.0))
        psi = fock.spac_state(P1_PTR)
        size = min(out.state.n_max, psi.n_max)
        got = out.state.amplitudes[:size]
        ref = psi.amplitudes[:size]
        # global phase fixed by (1 + Re A) > 0 here
        phase = np.vdot(ref, got)
        got = got * (phase.conjugate() / abs(phase))
        assert np.max(np.abs(got - ref)) <= 1e-12

    def test_balanced_selection_shifts_by_coupling_constant(self):
        sel = SelectionParams(phi=math.pi / 2, delta=0.0)
        for sigma in (1.0, 0.5):
            ptr = PointerParams(r=2.0, theta=math.pi / 6, sigma=sigma)
            out = fock.assemble_final_state(sel, ptr, Coupling(strength=1.4))
            before = fock.moments(fock.spac_state(ptr), ptr)
            after = fock.moments(out.state, ptr)
            assert after.position_mean - before.position_mean == pytest.approx(
                1.4 * sigma, rel=1e-11
            )
            assert after.momentum_mean - before.momentum_mean == pytest.approx(
                0.0, abs=1e-11
            )

    def test_shifts_match_bruteforce(self):
        ref = bf.brute_point(
            math.pi / 3, math.pi / 6, 2.0, math.pi / 6, 0.9, n=200
        )
        out = fock.assemble_final_state(P1_SEL, P1_PTR, Coupling(strength=0.9))
        after = fock.moments(out.state, P1_PTR)
        before = fock.moments(fock.spac_state(P1_PTR), P1_PTR)
        assert after.position_mean - before.position_mean == pytest.approx(
            ref["dx"], abs=1e-11
        )
        assert after.momentum_mean - before.momentum_mean == pytest.approx(
            ref["dp"], abs=1e-11
        )

    def test_orthogonal_selection_propagates(self):
        with pytest.raises(ValueError):
            fock.assemble_final_state(
                SelectionParams(phi=math.pi), P1_PTR, Coupling(strength=1.0)
            )

    def test_commutator_residual_small(self):
        out = fock.assemble_final_state(P1_SEL, P1_PTR, Coupling(strength=0.9))
        assert fock.commutator_residual(out.state) <= 1e-8


class TestTransitionMoment:
    def test_frozen_p1(self):
        got = fock.transition_moment(P1_SEL, P1_PTR, Coupling(strength=0.9))
        assert got == pytest.approx(
            0.7269839761869439 - 0.3888084710465359j, rel=1e-10
        )

    def test_matches_closed_form_and_bruteforce(self):
        for phi, delta, r, theta, g in (
            (0.7, 1.1, 1.0, 0.4, 0.6),
            (2.2, 4.0, 3.0, 2.0, 1.8),
        ):
            sel = SelectionParams(phi=phi, delta=delta)
            ptr = PointerParams(r=r, theta=theta)
            cpl = Coupling(strength=g)
            got = fock.transition_moment(sel, ptr, cpl)
            assert got == pytest.approx(
                analytic.transition_value(sel, ptr, cpl), abs=1e-11
            )
            ref = bf.brute_point(phi, delta, r, theta, g, n=220)
            assert got == pytest.approx(complex(ref["sT"]), abs=1e-10)


class TestUnconditionedStatistics:
    def test_frozen_mixture_point(self):
        m = fock.nonpostselected_moments(P2_SEL, P1_PTR, Coupling(strength=1.0))
        before = fock.moments(fock.spac_state(P1_PTR), P1_PTR)
        assert m.position_mean - before.position_mean == pytest.approx(
            0.43301270189221697, abs=1e-11
        )
        assert m.position_variance == pytest.approx(1.7325, abs=1e-11)

    def test_mean_shift_is_projection_rule(self):
        for phi, delta, g in ((0.3, 0.0, 0.7), (2.0, 1.2, 1.5), (math.pi, 0.5, 1.0)):
            sel = SelectionParams(phi=phi, delta=delta)
            m = fock.nonpostselected_moments(sel, P1_PTR, Coupling(strength=g))
            before = fock.moments(fock.spac_state(P1_PTR), P1_PTR)
            want = g * math.sin(phi) * math.cos(delta)
            assert m.position_mean - before.position_mean == pytest.approx(
                want, abs=1e-11
            )

    def test_variance_gains_branch_spread(self):
        sel = P2_SEL
        g = 1.0
        m = fock.nonpostselected_moments(sel, P1_PTR, Coupling(strength=g))
        base = analytic.initial_moments(P1_PTR).position_variance
        contrast = math.sin(sel.phi) * math.cos(sel.delta)
        want = base + g * g * (1.0 - contrast * contrast)
        assert m.position_variance == pytest.approx(want, abs=1e-11)


class TestFixedCutoff:
    def test_matches_certified_assembly(self):
        bundle = fock.branch_bundle(P1_SEL, P1_PTR, Coupling(strength=0.9))
        vec, norm_sq = fock.assemble_at_cutoff(bundle, 0.9)
        assert norm_sq == pytest.approx(bundle.kept.norm_sq, rel=1e-13)
        assert np.max(np.abs(vec - bundle.kept.state.amplitudes)) <= 1e-12

    def test_doubling_the_cutoff_is_inert(self):
        cpl = Coupling(strength=0.9)
        bundles = [
            fock.branch_bundle(P1_SEL, P1_PTR, cpl, fock.TruncationPolicy(initial_dim=dim))
            for dim in (128, 256)
        ]
        assert [b.n_max for b in bundles] == [128, 256]
        (vec_a, norm_a), (vec_b, norm_b) = (fock.assemble_at_cutoff(b, 0.9) for b in bundles)
        assert norm_b == pytest.approx(norm_a, rel=1e-12)
        assert np.max(np.abs(vec_b[:128] - vec_a)) <= 1e-11

    @pytest.mark.parametrize("strength", [-0.1, math.nan, math.inf])
    def test_invalid_strength_rejected(self, strength):
        # the strength is validated as every other entry point validates it
        bundle = fock.branch_bundle(P1_SEL, P1_PTR, Coupling(strength=0.9))
        with pytest.raises(ValueError, match="strength must be"):
            fock.assemble_at_cutoff(bundle, strength)


def test_engine_imports_nothing_from_analytic():
    # the oracle is evidence only while it shares no code with the closed forms
    import ast

    tree = ast.parse(Path(fock.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
    assert imported and not any("analytic" in name.split(".") for name in imported)


def test_engine_shares_no_closed_forms():
    import inspect

    source = inspect.getsource(fock)
    assert "analytic" not in source
    assert "scipy" not in source
