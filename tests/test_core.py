import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import totalcorr
from totalcorr import (
    DensityMatrix,
    RegisterShape,
    partial_trace,
    validate_density,
)
from totalcorr import core
from totalcorr.core import (
    BLOCK_ENTRIES,
    INPUT_TOL,
    _blocks,
    _by_dimension,
    _certified_factor,
    _certified_spectrum,
    _keep_first,
    _pure_marginal_stacks,
    _require_density,
    _validation_report,
    partial_trace_matrix,
)
from totalcorr import measures
from totalcorr.measures import (
    _entropy,
    measure_M,
    measure_O,
    measure_report,
    mutual_information,
    ssa_check,
    von_neumann_entropy,
)
from totalcorr import states
from totalcorr.states import PureState, dm, epr, ghz, random_density, random_pure

def ptrace_loops(mat, dims, keep):
    """Independent index-sum partial trace."""
    n = len(dims)
    drop = [i for i in range(n) if i not in keep]
    keep = sorted(keep)
    dk = int(np.prod([dims[i] for i in keep]))
    out = np.zeros((dk, dk), dtype=complex)
    t = np.asarray(mat).reshape(tuple(dims) * 2)
    for row in np.ndindex(*(dims[i] for i in keep)):
        for col in np.ndindex(*(dims[i] for i in keep)):
            acc = 0.0
            for tr in np.ndindex(*(dims[i] for i in drop)):
                idx_r = [0] * n
                idx_c = [0] * n
                for pos, i in enumerate(keep):
                    idx_r[i] = row[pos]
                    idx_c[i] = col[pos]
                for pos, i in enumerate(drop):
                    idx_r[i] = tr[pos]
                    idx_c[i] = tr[pos]
                acc += t[tuple(idx_r) + tuple(idx_c)]
            r = int(np.ravel_multi_index(row, [dims[i] for i in keep]))
            c = int(np.ravel_multi_index(col, [dims[i] for i in keep]))
            out[r, c] = acc
    return out


class TestRegisterShape:
    def test_dim_product(self):
        assert RegisterShape((2, 3, 2)).dim == 12

    def test_rejects_small_dims(self):
        with pytest.raises(ValueError):
            RegisterShape((2, 1))
        with pytest.raises(ValueError):
            RegisterShape(())

    def test_restrict_preserves_order(self):
        assert RegisterShape((2, 3, 4)).restrict({2, 0}).dims == (2, 4)

    def test_rejects_non_integral_dims(self):
        # int() would truncate 2.9 to 2
        with pytest.raises(ValueError, match="integers"):
            RegisterShape((2.9, 3))
        with pytest.raises(ValueError, match="integers"):
            RegisterShape((2.0, 3))

    def test_numpy_integer_dims_become_ints(self):
        dims = RegisterShape((np.int64(2), np.int32(3))).dims
        assert dims == (2, 3)
        assert all(type(d) is int for d in dims)


class TestPartialTrace:
    def test_epr_marginal_maximally_mixed(self):
        red = partial_trace(dm(epr()), {0})
        assert np.allclose(red.matrix, np.eye(2) / 2, atol=1e-12)

    def test_product_factor_recovery(self):
        rho_a = random_density(RegisterShape((2,)), 2, seed=11)
        rho_b = random_density(RegisterShape((2,)), 2, seed=12)
        joint = DensityMatrix(RegisterShape((2, 2)), np.kron(rho_a.matrix, rho_b.matrix))
        assert np.allclose(partial_trace(joint, {0}).matrix, rho_a.matrix, atol=1e-12)

    def test_ghz3_two_site_against_loop_oracle(self):
        rho = dm(ghz(3))
        expected = ptrace_loops(rho.matrix, [2, 2, 2], [0, 1])
        got = partial_trace(rho, {0, 1})
        assert np.allclose(got.matrix, expected, atol=1e-12)
        target = np.zeros((4, 4))
        target[0, 0] = target[3, 3] = 0.5
        assert np.allclose(got.matrix, target, atol=1e-12)

    def test_keep_all_is_identity(self):
        rho = random_density(RegisterShape((2, 2, 2)), 3, seed=5)
        assert np.allclose(partial_trace(rho, {0, 1, 2}).matrix, rho.matrix)

    def test_composes(self):
        rho = random_density(RegisterShape((2, 2, 2)), 4, seed=6)
        via_two_steps = partial_trace(partial_trace(rho, {0, 1}), {0})
        direct = partial_trace(rho, {0})
        assert np.max(np.abs(via_two_steps.matrix - direct.matrix)) < 1e-12

    def test_preserves_trace_and_hermiticity(self):
        rho = random_density(RegisterShape((2, 3, 2)), 5, seed=7)
        red = partial_trace(rho, {1})
        assert abs(np.trace(red.matrix) - 1) < 1e-10
        assert np.max(np.abs(red.matrix - red.matrix.conj().T)) < 1e-12

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            partial_trace(dm(epr()), {2})

    def test_non_integral_index_raises(self):
        # int() would truncate 0.2 to site 0
        rho = dm(ghz(3))
        partial_trace(rho, [0])
        with pytest.raises(ValueError, match="integers"):
            partial_trace(rho, [0.2])
        with pytest.raises(ValueError, match="integers"):
            partial_trace_matrix(rho.matrix, (2, 2, 2), [0.0])

    @pytest.mark.parametrize("dims", [(2, 3, 2), (3, 2, 2, 2)])
    def test_every_keep_against_loop_oracle(self, dims):
        # a general complex matrix, so that rows and columns cannot be confused
        rng = np.random.default_rng(len(dims))
        d = int(np.prod(dims))
        mat = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        n = len(dims)
        keeps = [k for size in range(1, n + 1) for k in combinations(range(n), size)]
        assert (0, 2) in keeps and tuple(range(n)) in keeps  # non-contiguous and full keeps
        for keep in keeps:
            got = partial_trace_matrix(mat, dims, keep)
            assert np.max(np.abs(got - ptrace_loops(mat, dims, keep))) < 1e-13, keep

    def test_pure_marginal_matches_matrix_path(self):
        psi = random_pure(RegisterShape((2, 2, 2, 2)), seed=8)
        ((fast,),) = _pure_marginal_stacks(psi.amplitudes[None], psi.shape.dims, [(1, 3)])
        slow = partial_trace(dm(psi), (1, 3)).matrix
        assert np.allclose(fast, slow, atol=1e-12)


def moveaxis_marginal(amps, dims, keep):
    """Reference contraction: the kept axes moved to the front by np.moveaxis."""
    keep = sorted(set(keep))
    t = np.moveaxis(amps.reshape(dims), keep, range(len(keep)))
    flat = t.reshape(int(np.prod([dims[i] for i in keep])), -1)
    return flat @ flat.conj().T


def grouped_stacks(amps, dims, keeps):
    """The positions in `keeps` of each group of one marginal size, as
    `_by_dimension` groups them, and the group's stack."""
    for ks in _by_dimension(dims, keeps).values():
        yield ks, _pure_marginal_stacks(amps, dims, [keeps[k] for k in ks])


class TestPureMarginal:
    """The stacked pure-state marginals, and the selection checks that guard
    the cached axis order they share with `partial_trace_matrix`, the
    checking front of the marginal layer."""

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (3, 2, 2, 2)])
    def test_every_keep_bit_identical_to_moveaxis(self, dims):
        rng = np.random.default_rng(sum(dims))
        d = int(np.prod(dims))
        amps = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        n = len(dims)
        keeps = [k for size in range(1, n + 1) for k in combinations(range(n), size)]
        for keep in keeps:
            ((got,),) = _pure_marginal_stacks(amps[None], dims, [keep])
            assert np.array_equal(got, moveaxis_marginal(amps, dims, keep)), keep
        # the same keeps as one list through the stacked contraction
        seen = []
        for ks, stack in grouped_stacks(amps[None], dims, keeps):
            assert stack.shape == (1, len(ks)) + stack.shape[2:]
            for k, got in zip(ks, stack[0]):
                assert np.array_equal(got, moveaxis_marginal(amps, dims, keeps[k])), keeps[k]
            seen += ks
        assert sorted(seen) == list(range(len(keeps)))

    def test_chunked_stacks_bit_identical_to_moveaxis(self):
        # twelve qubits: a chunk holds BLOCK_ENTRIES // (2 * 4096) = 2 keeps,
        # so the 12 singles, the 66 pairs and ten 64 x 64 marginals each span
        # several chunks but one stack
        dims = (2,) * 12
        psi = random_pure(RegisterShape(dims), seed=21)
        keeps = ([(i,) for i in range(12)] + list(combinations(range(12), 2))
                 + list(combinations(range(12), 6))[:10])
        per_chunk = core.BLOCK_ENTRIES // (2 * 4096)
        assert 1 <= per_chunk < 12
        groups = list(grouped_stacks(psi.amplitudes[None], dims, keeps))
        assert [(len(ks), stack.shape[2]) for ks, stack in groups] == [(12, 2), (66, 4), (10, 64)]
        for ks, stack in groups:
            for k, got in zip(ks, stack[0]):
                assert np.array_equal(got, moveaxis_marginal(psi.amplitudes, dims, keeps[k]))

    @staticmethod
    def stacked_equals_lone(amps, dims, keeps):
        """Every marginal of a stack of states, state by state, is the one the
        state gives alone, bit for bit; and every keep is yielded once."""
        lone = []
        for a in amps:
            got = {}
            for ks, stack in grouped_stacks(a[None], dims, keeps):
                got.update(zip(ks, stack[0]))
            lone.append(got)
        seen = []
        for ks, stack in grouped_stacks(amps, dims, keeps):
            assert stack.shape == (len(amps), len(ks)) + stack.shape[2:]
            for alone, row in zip(lone, stack):
                for k, got in zip(ks, row):
                    assert np.array_equal(got, alone[k]), keeps[k]
            seen += ks
        assert sorted(seen) == list(range(len(keeps)))

    def test_stack_of_states_every_keep_of_a_mixed_register(self):
        dims = (3, 2, 2, 2)
        rng = np.random.default_rng(5)
        amps = rng.standard_normal((5, 24)) + 1j * rng.standard_normal((5, 24))
        keeps = [k for size in range(1, 5) for k in combinations(range(4), size)]
        self.stacked_equals_lone(amps, dims, keeps)

    def test_twelve_qubit_stack_spans_several_chunks(self, monkeypatch):
        # three 12-qubit states: one keep's F and conjugate hold 2 * 3 * 4096
        # entries, more than a block, so each keep takes a chunk of its own
        # and the 12 singles, 66 pairs and 10 six-site keeps take 88 chunks
        dims = (2,) * 12
        amps = np.stack([random_pure(RegisterShape(dims), seed=30 + s).amplitudes
                         for s in range(3)])
        keeps = ([(i,) for i in range(12)] + list(combinations(range(12), 2))
                 + list(combinations(range(12), 6))[:10])
        assert 2 * 3 * 4096 > core.BLOCK_ENTRIES
        chunks = []

        def counting(count, entries):
            blocks = list(_blocks(count, entries))
            if entries == 2 * amps.size:
                chunks.extend(blocks)
            return iter(blocks)

        monkeypatch.setattr(core, "_blocks", counting)
        list(grouped_stacks(amps, dims, keeps))
        assert len(chunks) == len(keeps) and all(c.stop - c.start == 1 for c in chunks)
        monkeypatch.undo()
        self.stacked_equals_lone(amps, dims, keeps)
        for ks, stack in grouped_stacks(amps, dims, keeps[:13]):
            for a, row in zip(amps, stack):
                for k, got in zip(ks, row):
                    assert np.array_equal(got, moveaxis_marginal(a, dims, keeps[k]))

    def test_stacked_reports_equal_lone_reports(self):
        # the measure layer on a stack: every value of every report, and each
        # state's marginal entropies and kept matrices, as the state alone gives
        psis = [random_pure(RegisterShape((2,) * 5), seed=40 + s) for s in range(4)]
        for got, psi in zip(measures._reports(psis), psis):
            assert got == measure_report(psi)
        keeps = [(i,) for i in range(5)] + list(combinations(range(5), 2))
        for (mats, values, whole), psi in zip(measures._marginals(psis, keeps, 5), psis):
            ((lone_mats, lone_values, lone_whole),) = measures._marginals([psi], keeps, 5)
            assert values == lone_values and whole == lone_whole == 0.0
            assert all(np.array_equal(a, b) for a, b in zip(mats, lone_mats))

    def test_stack_rejects_states_of_two_shapes(self):
        psis = [random_pure(RegisterShape(dims), seed=1) for dims in ((2, 3), (3, 2))]
        with pytest.raises(ValueError, match="one register shape"):
            list(measures._reports(psis))

    def test_keep_forms_agree(self):
        mat, dims = dm(random_pure(RegisterShape((3, 2, 2, 2)), seed=12)).matrix, (3, 2, 2, 2)
        want = partial_trace_matrix(mat, dims, (0, 2))
        for keep in [(2, 0), [0, 2, 0, 2], {2, 0}, (np.int64(2), np.int32(0)),
                     np.array([2, 0]), iter([0, 2])]:
            assert np.array_equal(partial_trace_matrix(mat, dims, keep), want), keep
        assert np.array_equal(partial_trace_matrix(mat, np.array(dims), (0, 2)), want)

    @pytest.mark.parametrize("keep", [(), [-1], (0, 3), (1.0,), [1.7], (np.float64(1.0),),
                                      ("1",), (None,)])
    def test_bad_keep_raises_after_a_valid_call(self, keep):
        # the axis order is cached per register and selection: 1.0 hashes and
        # compares equal to 1, so it must be rejected before the lookup
        mat, dims = dm(ghz(3)).matrix, (2, 2, 2)
        partial_trace_matrix(mat, dims, (1,))
        partial_trace_matrix(mat, dims, (0, 1))
        with pytest.raises(ValueError):
            partial_trace_matrix(mat, dims, keep)

    def test_non_integral_dims_raise_after_a_valid_call(self):
        mat = dm(ghz(3)).matrix
        partial_trace_matrix(mat, (2, 2, 2), (1,))
        with pytest.raises(ValueError, match="integers"):
            partial_trace_matrix(mat, (2.0, 2, 2), (1,))

    def test_cached_axis_order(self):
        # kept sites first, traced sites after, both in register order; the
        # cache holds these small tuples and no array that grows with D
        psi = random_pure(RegisterShape((2,) * 10), seed=3)
        _pure_marginal_stacks(psi.amplitudes[None], psi.shape.dims, [(4, 7)])
        order, dk = _keep_first(psi.shape.dims, (4, 7))
        assert order == (4, 7, 0, 1, 2, 3, 5, 6, 8, 9) and dk == 4


class TestReportStream:
    """`measures._reports` takes a stream of states a slice at a time: each
    slice's amplitudes hold an eighth of a block."""

    def test_draws_at_most_one_slice_ahead(self):
        # nine qubits: a slice holds BLOCK_ENTRIES // (8 * 512) = 4 states, so
        # report k arrives with the states of its own slice drawn and no more
        per_slice = BLOCK_ENTRIES // (8 * 2 ** 9)
        assert per_slice == 4
        psis = [random_pure(RegisterShape((2,) * 9), seed=50 + s) for s in range(10)]
        drawn = []

        def counting():
            for psi in psis:
                drawn.append(psi)
                yield psi

        for k, (got, psi) in enumerate(zip(measures._reports(counting()), psis)):
            assert len(drawn) == min(len(psis), (k // per_slice + 1) * per_slice)
            assert got == measure_report(psi)
        assert len(drawn) == len(psis)

    def test_empty_stream_has_no_reports(self):
        assert list(measures._reports(iter([]))) == []

    @pytest.mark.parametrize("mix, reported", [
        (lambda: [random_density(RegisterShape((2, 2)), 2, seed=1),
                  random_pure(RegisterShape((2, 2)), seed=2)], 0),
        (lambda: [random_density(RegisterShape((2, 2)), 2, seed=1),
                  random_density(RegisterShape((2, 2)), 3, seed=2)], 0),
        (lambda: [random_pure(RegisterShape((2,) * 9), seed=s) for s in range(4)]
         + [random_pure(RegisterShape((3,) + (2,) * 8), seed=5)], 4),
    ], ids=["density-then-pure", "two-densities", "second-shape-after-a-full-slice"])
    def test_rejects_a_mix_by_the_rule(self, mix, reported):
        got = []
        with pytest.raises(ValueError, match="one density on its own, "
                                             "or pure states of one register shape"):
            for report in measures._reports(mix()):
                got.append(report)
        assert len(got) == reported


def rotated(psi, phase):
    """psi times a global phase: the same state, through complex arithmetic."""
    return PureState(psi.shape, phase * psi.amplitudes)


class TestRealRoute:
    """Pure states whose amplitudes have no imaginary part take real
    arithmetic in the marginal pass; the route is chosen state by state."""

    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 2, 2, 2), (2,) * 10])
    def test_real_stacks_are_float64_near_moveaxis(self, dims):
        d, n = int(np.prod(dims)), len(dims)
        rng = np.random.default_rng(d)
        amps = rng.standard_normal((3, d))
        amps /= np.linalg.norm(amps, axis=1, keepdims=True)
        keeps = [k for size in range(1, min(n, 3) + 1) for k in combinations(range(n), size)]
        for ks, stack in grouped_stacks(amps, dims, keeps):
            assert stack.dtype == np.float64
            for a, row in zip(amps, stack):
                for k, got in zip(ks, row):
                    want = moveaxis_marginal(a.astype(complex), dims, keeps[k])
                    assert np.max(np.abs(got - want)) <= 1e-14, keeps[k]
        # and each real state's marginals are its lone ones, bit for bit
        TestPureMarginal.stacked_equals_lone(amps, dims, keeps)

    @pytest.mark.parametrize("n", [5, 9, 10])
    def test_stream_of_both_routes_equals_lone_reports(self, n):
        # real and complex states alternate, so that every slice of several
        # states (64, 4 and 2 states at n = 5, 9 and 10) holds both routes
        real = [states.family_state(name, n, x) for name in ("family1", "family2")
                for x in (0.0, 0.35, 0.7)]
        assert all(not psi.amplitudes.imag.any() for psi in real)
        other = [rotated(psi, np.exp(0.7j)) for psi in real[:3]] + [
            random_pure(RegisterShape((2,) * n), seed=60 + s) for s in range(3)]
        stream = [psi for pair in zip(real, other) for psi in pair]
        got = list(measures._reports(stream))
        assert len(got) == len(stream)
        for report, psi in zip(got, stream):
            assert report == measure_report(psi)
        keeps = [(i,) for i in range(n)]
        for (mats, _, _), psi in zip(measures._marginals(stream, keeps, n), stream):
            want = np.float64 if psi in real else np.complex128
            assert all(mat.dtype == want for mat in mats)

    def test_phase_moves_no_report_value_past_1e13(self):
        for name, family in sorted(states.FAMILIES.items()):
            for n in filter(family.allows, range(3, 13)):
                psi = states.family_state(name, n, 0.35 if family.parametric else None)
                a, b = measure_report(psi), measure_report(rotated(psi, 1j))
                assert a.pair_values.keys() == b.pair_values.keys()
                for key, value in a.pair_values.items():
                    assert abs(value - b.pair_values[key]) <= 1e-13, (name, n, key)
                for field in ("O", "M", "S", "MW"):
                    assert abs(getattr(a, field) - getattr(b, field)) <= 1e-13, (name, n, field)


class TestBlocks:
    def test_no_items_no_blocks(self):
        assert list(_blocks(0, 4)) == []

    def test_items_larger_than_a_block_go_one_by_one(self):
        assert list(_blocks(3, BLOCK_ENTRIES + 1)) == [slice(0, 1), slice(1, 2), slice(2, 3)]

    def test_last_block_is_partial(self):
        step = BLOCK_ENTRIES // 256
        blocks = list(_blocks(2 * step + 5, 256))
        assert blocks == [slice(0, step), slice(step, 2 * step), slice(2 * step, 2 * step + 5)]


class TestValidateDensity:
    def test_maximally_mixed_passes(self):
        rho = DensityMatrix(RegisterShape((2, 2)), np.eye(4) / 4)
        assert validate_density(rho).ok

    def test_constructed_violation(self):
        rho = DensityMatrix(RegisterShape((2, 2)), np.diag([0.6, 0.6, -0.2, 0.0]))
        report = validate_density(rho)
        assert not report.ok
        assert report.min_eigenvalue < -1e-10
        assert len(report.violations) == 1  # trace is 1, only negativity

    def test_ghz4_passes(self):
        assert validate_density(dm(ghz(4))).ok

    def test_eigenvalue_range(self):
        rho = random_density(RegisterShape((2, 2, 2)), 6, seed=13)
        vals = np.linalg.eigvalsh(rho.matrix)
        assert vals.min() >= -1e-10
        assert vals.max() <= 1 + 1e-10
        assert abs(vals.sum() - 1) < 1e-9


def qubit_density(n, rank, seed):
    return random_density(RegisterShape((2,) * n), rank, seed)


@pytest.fixture
def eigvalsh_sizes(monkeypatch):
    """The matrix size of every np.linalg.eigvalsh call made during the test."""
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        sizes.append(np.shape(a)[-1])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return sizes


def perturbed(rho, eps, seed=0):
    """rho - eps |u><u| for a random unit u, rescaled back to unit trace."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(rho.shape.dim) + 1j * rng.standard_normal(rho.shape.dim)
    u /= np.linalg.norm(u)
    return DensityMatrix(rho.shape, (rho.matrix - eps * np.outer(u, u.conj())) / (1 - eps))


class TestLowRankSpectrum:
    @pytest.mark.parametrize("n", range(6, 11))
    @pytest.mark.parametrize("rank", range(1, 5))
    def test_entropy_matches_dense(self, n, rank):
        rho = qubit_density(n, rank, seed=100 * n + rank)
        dense = _entropy(np.linalg.eigvalsh(rho.matrix))
        assert abs(_entropy(_certified_spectrum(rho.matrix)[0]) - dense) < 1e-13

    def test_spectrum_is_the_padded_low_rank_one(self, eigvalsh_sizes):
        rho = qubit_density(8, 4, seed=1)
        got, certified = _certified_spectrum(rho.matrix)
        assert certified and eigvalsh_sizes == [4]
        assert got.shape == (256,) and np.all(np.diff(got) >= 0)
        assert np.max(np.abs(got - np.linalg.eigvalsh(rho.matrix))) < 1e-13

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_report_makes_no_whole_state_eigvalsh(self, n, eigvalsh_sizes):
        measure_report(qubit_density(n, 4, seed=n))
        assert eigvalsh_sizes and max(eigvalsh_sizes) < 2 ** n

    @pytest.mark.parametrize("n, rank", [(6, 64), (8, 256), (6, 5), (8, 17), (9, 33)])
    def test_full_rank_and_rank_above_cap_reach_dense(self, n, rank, eigvalsh_sizes):
        # the factor has at most D / 16 columns
        rho = qubit_density(n, rank, seed=rank)
        assert _certified_factor(rho.matrix) is None
        measure_report(rho)
        assert 2 ** n in eigvalsh_sizes

    @pytest.mark.parametrize("n", [6, 8])
    def test_rank_at_cap_takes_factor(self, n):
        rho = qubit_density(n, 2 ** n // 16, seed=n)
        assert _certified_factor(rho.matrix).shape == (2 ** n, 2 ** n // 16)

    def test_small_registers_reach_dense(self, eigvalsh_sizes):
        assert not _certified_spectrum(qubit_density(5, 1, seed=3).matrix)[1]
        assert eigvalsh_sizes == [32]

    @pytest.mark.parametrize("fn", [measure_report, von_neumann_entropy,
                                    lambda rho: mutual_information(rho, (0,), (1,))])
    def test_negative_eigenvalue_still_raises(self, fn):
        rho = perturbed(qubit_density(8, 4, seed=5), 1e-6)
        assert abs(np.trace(rho.matrix) - 1) < 1e-12
        assert _certified_factor(rho.matrix) is None
        with pytest.raises(ValueError, match="invalid density matrix: negative eigenvalue"):
            fn(rho)

    @pytest.mark.parametrize("fn, dims", [(measure_report, (2,) * 8), (measure_M, (2,) * 8),
                                          (measure_O, (2,) * 8), (ssa_check, (4, 4, 16))],
                             ids=["measure_report", "measure_M", "measure_O", "ssa_check"])
    def test_invalid_density_is_rejected_before_any_marginal(self, monkeypatch, fn, dims):
        bad = perturbed(qubit_density(8, 4, seed=5), 1e-6)
        calls = []

        def counting(*args):
            calls.append(args[1:])
            return partial_trace_matrix(*args)

        monkeypatch.setattr(measures, "partial_trace_matrix", counting)
        with pytest.raises(ValueError, match="invalid density matrix: negative eigenvalue"):
            fn(DensityMatrix(RegisterShape(dims), bad.matrix))
        assert calls == []

    def test_tiny_negative_eigenvalue_passes_on_the_dense_path(self, eigvalsh_sizes):
        rho = perturbed(qubit_density(8, 4, seed=5), 1e-10)
        value = von_neumann_entropy(rho)
        assert 256 in eigvalsh_sizes
        measure_report(rho)
        mutual_information(rho, (0,), (1,))
        assert value == _entropy(np.linalg.eigvalsh(rho.matrix))

    def test_anti_hermitian_perturbation_raises(self):
        rho = qubit_density(8, 4, seed=6)
        a = np.random.default_rng(6).standard_normal((256, 256))
        bad = DensityMatrix(rho.shape, rho.matrix + 1e-6 * (a - a.T))
        for fn in (measure_report, von_neumann_entropy):
            with pytest.raises(ValueError, match="invalid density matrix: not Hermitian"):
                fn(bad)

    @pytest.mark.parametrize("d", [2, 6, 200, 256])
    def test_hermiticity_deviation_over_blocks_is_the_full_one(self, d):
        rng = np.random.default_rng(d)
        mat = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for m in (mat, mat + mat.conj().T + 1e-9 * mat):
            got = _validation_report(m, np.zeros(1), 1e-8).hermiticity_deviation
            assert got == float(np.max(np.abs(m - m.conj().T)))


def with_anti_hermitian_part(rho, eps, seed=0):
    """rho plus an anti-Hermitian part that makes max |rho - rho^dag| = eps."""
    rng = np.random.default_rng(seed)
    d = rho.shape.dim
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    a = x - x.conj().T
    return DensityMatrix(rho.shape, rho.matrix + eps / 2 * a / np.max(np.abs(a)))


class TestHermiticityFromCertificate:
    @pytest.mark.parametrize("eps", [1e-15, 1e-12, 1e-9, 1e-6])
    def test_verdict_and_message_are_the_full_checks(self, eps):
        bad = with_anti_hermitian_part(qubit_density(8, 4, seed=7), eps)
        # the full check: the blockwise Hermiticity pass on the dense spectrum
        full = _validation_report(bad.matrix, np.linalg.eigvalsh(bad.matrix), INPUT_TOL)
        report = validate_density(bad, INPUT_TOL)
        assert report.ok == full.ok == (eps < INPUT_TOL)
        if eps == 1e-15:
            assert _certified_factor(bad.matrix) is not None
        if full.ok:
            _require_density(bad)
            return
        with pytest.raises(ValueError) as raised:
            _require_density(bad)
        assert str(raised.value) == "invalid density matrix: " + "; ".join(full.violations)
        assert set(report.violations) <= set(full.violations)

    def test_certified_density_with_a_wrong_trace_still_raises(self):
        rho = qubit_density(8, 4, seed=7)
        scaled = DensityMatrix(rho.shape, 1.5 * rho.matrix)
        assert _certified_factor(scaled.matrix) is not None
        with pytest.raises(ValueError, match="^invalid density matrix: trace differs from 1 by 5.000e-01$"):
            _require_density(scaled)

    def test_certified_density_takes_one_blockwise_pass(self, monkeypatch):
        rho = qubit_density(8, 4, seed=7)
        passes = []

        def counting(count, entries):
            passes.append((count, entries))
            return _blocks(count, entries)

        monkeypatch.setattr(core, "_blocks", counting)
        spectrum = _require_density(rho)
        # the residual of the certificate; the Hermiticity pass is skipped
        assert passes == [(256, 256)]
        assert np.array_equal(spectrum, _certified_spectrum(rho.matrix)[0])
        # a residual that fails its check is followed by the Hermiticity pass
        passes.clear()
        _require_density(with_anti_hermitian_part(rho, 1e-14))
        assert passes == [(256, 256), (256, 256)]


def test_import_leaves_scipy_unloaded():
    src = str(Path(totalcorr.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import totalcorr; "
            "print('scipy' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                          check=True, timeout=60)
    assert done.stdout.strip() == "False"

