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
    hermitian_eigenvalues,
    kron,
    partial_trace,
    pure_marginal,
    validate_density,
)
from totalcorr.core import _keep_first, partial_trace_matrix
from totalcorr.states import dm, epr, ghz, random_density, random_pure

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def kron_loops(a, b):
    """Independent four-nested-loop Kronecker product."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


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


class TestKron:
    def test_identity(self):
        assert np.allclose(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal(self):
        out = kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert np.allclose(out, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_matches_loop_oracle(self):
        assert np.array_equal(kron(SX, SZ), kron_loops(SX, SZ))

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)) < 1e-12

    def test_associative(self):
        rng = np.random.default_rng(4)
        mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]
        left = kron(kron(mats[0], mats[1]), mats[2])
        right = kron(mats[0], kron(mats[1], mats[2]))
        # product reassociation shifts the last float bits only
        assert np.max(np.abs(left - right)) < 1e-14


class TestPartialTrace:
    def test_epr_marginal_maximally_mixed(self):
        red = partial_trace(dm(epr()), {0})
        assert np.allclose(red.matrix, np.eye(2) / 2, atol=1e-12)

    def test_product_factor_recovery(self):
        rho_a = random_density(RegisterShape((2,)), 2, seed=11)
        rho_b = random_density(RegisterShape((2,)), 2, seed=12)
        joint = DensityMatrix(RegisterShape((2, 2)), kron(rho_a.matrix, rho_b.matrix))
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
        fast = pure_marginal(psi.amplitudes, psi.shape.dims, (1, 3))
        slow = partial_trace(dm(psi), (1, 3)).matrix
        assert np.allclose(fast, slow, atol=1e-12)


def moveaxis_marginal(amps, dims, keep):
    """Reference contraction: the kept axes moved to the front by np.moveaxis."""
    keep = sorted(set(keep))
    t = np.moveaxis(amps.reshape(dims), keep, range(len(keep)))
    flat = t.reshape(int(np.prod([dims[i] for i in keep])), -1)
    return flat @ flat.conj().T


class TestPureMarginal:
    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (3, 2, 2, 2)])
    def test_every_keep_bit_identical_to_moveaxis(self, dims):
        rng = np.random.default_rng(sum(dims))
        d = int(np.prod(dims))
        amps = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        n = len(dims)
        for size in range(1, n + 1):
            for keep in combinations(range(n), size):
                got = pure_marginal(amps, dims, keep)
                assert np.array_equal(got, moveaxis_marginal(amps, dims, keep)), keep

    def test_keep_forms_agree(self):
        psi = random_pure(RegisterShape((3, 2, 2, 2)), seed=12)
        amps, dims = psi.amplitudes, psi.shape.dims
        want = moveaxis_marginal(amps, dims, (0, 2))
        for keep in [(2, 0), [0, 2, 0, 2], {2, 0}, (np.int64(2), np.int32(0)),
                     np.array([2, 0]), iter([0, 2])]:
            assert np.array_equal(pure_marginal(amps, dims, keep), want), keep
        assert np.array_equal(pure_marginal(amps, np.array(dims), (0, 2)), want)

    @pytest.mark.parametrize("keep", [(), [-1], (0, 3), (1.0,), [1.7], (np.float64(1.0),),
                                      ("1",), (None,)])
    def test_bad_keep_raises_after_a_valid_call(self, keep):
        # the axis order is cached per register and selection: 1.0 hashes and
        # compares equal to 1, so it must be rejected before the lookup
        amps, dims = ghz(3).amplitudes, (2, 2, 2)
        pure_marginal(amps, dims, (1,))
        pure_marginal(amps, dims, (0, 1))
        with pytest.raises(ValueError):
            pure_marginal(amps, dims, keep)

    def test_non_integral_dims_raise_after_a_valid_call(self):
        amps = ghz(3).amplitudes
        pure_marginal(amps, (2, 2, 2), (1,))
        with pytest.raises(ValueError, match="integers"):
            pure_marginal(amps, (2.0, 2, 2), (1,))

    def test_cached_axis_order(self):
        # kept sites first, traced sites after, both in register order; the
        # cache holds these small tuples and no array that grows with D
        psi = random_pure(RegisterShape((2,) * 10), seed=3)
        pure_marginal(psi.amplitudes, psi.shape.dims, (4, 7))
        order, dk = _keep_first(psi.shape.dims, (4, 7))
        assert order == (4, 7, 0, 1, 2, 3, 5, 6, 8, 9) and dk == 4


class TestHermitianEigenvalues:
    def test_identity(self):
        assert np.allclose(hermitian_eigenvalues(np.eye(2)), [1, 1])

    def test_pauli_x(self):
        assert np.allclose(hermitian_eigenvalues(SX), [-1, 1])

    def test_reconstruction_oracle(self):
        # build H with a known spectrum, check we recover it
        rng = np.random.default_rng(9)
        target = np.sort(rng.standard_normal(8))
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        h = q @ np.diag(target) @ q.conj().T
        got = hermitian_eigenvalues(h)
        assert np.max(np.abs(got - target)) < 1e-9

    def test_sum_equals_trace(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h = (x + x.conj().T) / 2
        assert abs(hermitian_eigenvalues(h).sum() - np.trace(h).real) < 1e-8 * 6

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


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


def test_import_leaves_scipy_unloaded():
    src = str(Path(totalcorr.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import totalcorr; "
            "print('scipy' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                          check=True, timeout=60)
    assert done.stdout.strip() == "False"
