import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from totalcorr import (
    DensityMatrix,
    RegisterShape,
    SupportError,
    bound_M,
    bound_S,
    cluster,
    dm,
    epr,
    ghz,
    measure_M,
    measure_MW,
    measure_O,
    measure_S,
    measure_S_form2,
    measure_report,
    mutual_information,
    partial_trace,
    product,
    random_density,
    random_pure,
    relative_entropy,
    ssa_check,
    von_neumann_entropy,
    w,
)
from totalcorr import measures
from totalcorr.cli import check_bound_M, check_entropy_ssa, check_form2
from totalcorr.core import partial_trace_matrix
from totalcorr.measures import EIG_CLAMP, _entropy, direct_measure
from totalcorr.states import PureState


def binary_entropy(p):
    if p <= 0 or p >= 1:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def haar_unitary(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def qubits(n):
    return RegisterShape((2,) * n)


def random_qubit(seed):
    return random_pure(qubits(1), seed)


EPR2 = product([epr(), epr()])
# unit trace and Hermitian, but two negative eigenvalues
NOT_PSD = DensityMatrix(qubits(2), np.diag([0.7, 0.5, -0.1, -0.1]))


class TestEntropies:
    def test_maximally_mixed_qubit(self):
        rho = DensityMatrix(qubits(1), np.eye(2) / 2)
        assert von_neumann_entropy(rho) == pytest.approx(1.0)

    def test_pure_state_zero(self):
        assert abs(von_neumann_entropy(dm(ghz(3)))) < 1e-9

    def test_against_binary_entropy_oracle(self):
        rho = DensityMatrix(qubits(1), np.diag([1 / 3, 2 / 3]))
        assert von_neumann_entropy(rho) == pytest.approx(binary_entropy(1 / 3), abs=1e-12)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_linear_entropy_matches_trace_of_square(self, n):
        # MW's sum of squared moduli against Tr(rho_i rho_i) from the full
        # product, on single-site marginals taken by partial_trace
        for rank in (1, 4, 2**n):
            rho = random_density(qubits(n), rank, seed=10 * n + rank)
            reds = [partial_trace(rho, {i}).matrix for i in range(n)]
            old = sum(1.0 - np.trace(red @ red).real for red in reds)
            assert abs(measure_MW(rho) - old) <= 1e-14


class TestMutualInformation:
    def test_epr(self):
        assert mutual_information(dm(epr()), {0}, {1}) == pytest.approx(2.0, abs=1e-9)

    def test_product_vanishes(self):
        psi = product([random_qubit(1), random_qubit(2)])
        assert abs(mutual_information(psi, {0}, {1})) < 1e-9

    def test_ghz3_pair(self):
        assert mutual_information(dm(ghz(3)), {0}, {1}) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            mutual_information(dm(ghz(3)), {0, 1}, {1})
        with pytest.raises(ValueError):
            mutual_information(dm(ghz(3)), set(), {1})

    @pytest.mark.parametrize("state", [ghz(3), dm(ghz(3))], ids=["pure", "density"])
    def test_rejects_non_integral_sites(self, state):
        # int() would truncate these to I(0:1) = 1
        with pytest.raises(ValueError, match="integers"):
            mutual_information(state, [0.5], [1.9])
        assert mutual_information(state, [np.int64(0)], [np.int64(1)]) == pytest.approx(1.0)

    def test_pure_cut_of_the_whole_register_takes_small_marginals(self):
        # A | B spans all 11 qubits: S(AB) = 0 is read for free, and S(B) is
        # taken on its smaller complement A, so neither the 2048 x 2048 (67 MB)
        # nor the 64 x 64 marginal is formed
        psi = random_pure(qubits(11), seed=11)
        a, b = range(5), range(5, 11)
        schmidt = np.linalg.svd(psi.amplitudes.reshape(32, 64), compute_uv=False) ** 2
        mutual_information(psi, a, b)  # fills the axis-order caches
        tracemalloc.start()
        try:
            got = mutual_information(psi, a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == pytest.approx(2 * entropy_scalar(schmidt), abs=1e-10)
        assert peak < 1 << 20

    def test_density_cut_of_the_whole_register_reads_its_entropy(self, monkeypatch):
        # S(A rest) is the S(rho) the pass certifies, with no partial trace
        rho = random_density(qubits(8), 4, seed=12)
        a, rest = (0, 1, 2), (3, 4, 5, 6, 7)
        want = [float(_entropy(np.linalg.eigvalsh(partial_trace_matrix(rho.matrix, (2,) * 8, k))))
                for k in (a, rest)]
        traced = []

        def recording(mat, dims, keep):
            traced.append(tuple(keep))
            return partial_trace_matrix(mat, dims, keep)

        monkeypatch.setattr(measures, "partial_trace_matrix", recording)
        assert mutual_information(rho, a, rest) == want[0] + want[1] - von_neumann_entropy(rho)
        assert traced == [a, rest]


class TestDirectMeasures:
    def test_M_values(self):
        assert measure_M(dm(ghz(3))) == pytest.approx(1.5, abs=1e-9)
        assert measure_M(EPR2) == pytest.approx(2.0, abs=1e-9)
        psi = product([random_qubit(s) for s in range(4)])
        assert abs(measure_M(psi)) < 1e-9

    def test_O_values(self):
        for n in range(2, 7):
            assert measure_O(ghz(n)) == pytest.approx(n / 2, abs=1e-9)
        assert measure_O(EPR2) == pytest.approx(2.0, abs=1e-9)
        psi = product([random_qubit(s) for s in range(3)])
        assert abs(measure_O(psi)) < 1e-9

    def test_S_separates_figure1_states(self):
        assert measure_S(ghz(4)) == pytest.approx(2.5, abs=1e-9)
        assert measure_S(EPR2) == pytest.approx(2.0, abs=1e-9)
        assert measure_S(cluster(4)) == pytest.approx(1.5, abs=1e-9)
        assert measure_S(epr()) == pytest.approx(1.0, abs=1e-9)

    def test_MW_values(self):
        for n in (2, 3, 4):
            assert measure_MW(ghz(n)) == pytest.approx(n / 2, abs=1e-9)
        assert measure_MW(w(3)) == pytest.approx(3 * 4 / 9, abs=1e-9)
        psi = product([random_qubit(s) for s in range(3)])
        assert abs(measure_MW(psi)) < 1e-9

    @pytest.mark.parametrize("fn", [measure_M, measure_O, measure_S, measure_MW],
                             ids=["M", "O", "S", "MW"])
    def test_rejects_single_site(self, fn):
        with pytest.raises(ValueError, match="^pairwise measures require at least 2 subsystems$"):
            fn(random_qubit(0))


class TestRelativeEntropy:
    def test_self_is_zero(self):
        rho = random_density(qubits(2), 4, seed=21)
        assert abs(relative_entropy(rho, rho)) < 1e-9

    def test_epr_vs_maximally_mixed(self):
        sigma = DensityMatrix(qubits(2), np.eye(4) / 4)
        assert relative_entropy(dm(epr()), sigma) == pytest.approx(2.0, abs=1e-9)

    def test_equals_mutual_information(self):
        for seed in range(5):
            psi = random_pure(qubits(2), seed=100 + seed)
            rho = dm(psi)
            prod = np.kron(partial_trace(rho, {0}).matrix, partial_trace(rho, {1}).matrix)
            val = relative_entropy(rho, DensityMatrix(qubits(2), prod))
            assert val == pytest.approx(mutual_information(rho, {0}, {1}), abs=1e-8)

    def test_support_violation(self):
        with pytest.raises(SupportError):
            relative_entropy(dm(epr()), dm(product([random_qubit(1), random_qubit(2)])))

    def test_takes_pure_states(self):
        psi, sigma = random_pure(qubits(2), seed=7), random_density(qubits(2), 4, seed=8)
        assert relative_entropy(psi, sigma) == relative_entropy(dm(psi), sigma)
        assert relative_entropy(ghz(2), dm(ghz(2))) == relative_entropy(dm(ghz(2)), dm(ghz(2)))
        assert relative_entropy(psi, psi) == relative_entropy(dm(psi), dm(psi))

    @pytest.mark.parametrize("bad_arg", [0, 1])
    def test_rejects_invalid_density_in_either_argument(self, bad_arg):
        # diag(1.2, -0.2) has unit trace; before validation it gave 1.3156
        # as rho and a SupportError as sigma
        args = [DensityMatrix(qubits(1), np.eye(2) / 2)] * 2
        args[bad_arg] = DensityMatrix(qubits(1), np.diag([1.2, -0.2]))
        with pytest.raises(ValueError, match="invalid density matrix") as err:
            relative_entropy(*args)
        assert not isinstance(err.value, SupportError)


class TestForm2:
    def test_rejects_invalid_density(self):
        not_psd = DensityMatrix(qubits(2), np.diag([0.7, 0.5, -0.1, -0.1]))
        with pytest.raises(ValueError, match="invalid density matrix"):
            measure_S_form2(not_psd)

    def test_ghz3(self):
        assert measure_S_form2(ghz(3)) == pytest.approx(1.5, abs=1e-8)

    def test_product_zero(self):
        psi = product([random_qubit(s) for s in range(3)])
        assert abs(measure_S_form2(psi)) < 1e-9

    def test_matches_measure_S_on_w4(self):
        assert measure_S_form2(w(4)) == pytest.approx(measure_S(w(4)), abs=1e-8)

    def test_matches_on_random_pure(self):
        check = check_form2(300, 10)
        assert check.passed, check

    @pytest.mark.parametrize("dims", [(2, 3, 2), (3, 2, 4), (3, 3), (2, 2, 3, 2)])
    @pytest.mark.parametrize("rank", [None, 3], ids=["pure", "rank3"])
    def test_matches_measure_S_on_mixed_dimensions(self, dims, rank):
        # sites of different dimensions are diagonalized one by one: their
        # marginals do not fit one stacked eigh
        shape = RegisterShape(dims)
        state = random_pure(shape, seed=40) if rank is None else random_density(shape, rank, 40)
        assert measure_S_form2(state) == pytest.approx(measure_S(state), abs=1e-12)

    @pytest.mark.parametrize("n", [8, 10])
    def test_matches_measure_S_on_qubit_densities(self, n):
        rho = random_density(qubits(n), 4, seed=50 + n)
        assert measure_S_form2(rho) == pytest.approx(measure_S(rho), abs=1e-12)

    def test_pure_state_forms_no_full_matrix(self):
        # a 4096 x 4096 complex matrix takes 268 MB; the product-basis
        # weights of a pure state take one contraction per site on its
        # 4096 amplitudes
        psi = random_pure(qubits(12), seed=12)
        expected = measure_S(psi)
        tracemalloc.start()
        try:
            value = measure_S_form2(psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6
        assert abs(value - expected) <= 1e-12

    def test_checks_rho_once_and_diagonalizes_single_sites_only(self, monkeypatch):
        # the eigenpairs of each product come from its factors': no eigh of a
        # product, and no check of a marginal or product the pass has just made
        rho = random_density(qubits(6), 64, seed=106)
        expected = measure_S(rho)
        checked, sizes = [], []
        require, eigh = measures._require_density, np.linalg.eigh
        monkeypatch.setattr(measures, "_require_density",
                            lambda r, *args: checked.append(r) or require(r, *args))
        monkeypatch.setattr(np.linalg, "eigh", lambda a: sizes.append(a.shape[-1]) or eigh(a))
        value = measure_S_form2(rho)
        assert len(checked) == 1 and checked[0] is rho
        assert sizes == [2] * 6
        assert value == pytest.approx(expected, abs=1e-12)


class TestBounds:
    def test_closed_forms(self):
        assert bound_M(2, 2) == pytest.approx(1.0)
        assert bound_M(5, 2) == pytest.approx(5.0)
        assert bound_S(4, 2) == pytest.approx(2.5)

    def test_random_pure_below_bound(self):
        check = check_bound_M(random_pure(qubits(n), seed=400 + 100 * n + k)
                              for n in (3, 4, 5) for k in range(50))
        assert check.passed, check


class TestSsaCheck:
    def test_product_zero(self):
        psi = product([random_qubit(s) for s in range(3)])
        assert abs(ssa_check(dm(psi))) < 1e-9

    def test_ghz3(self):
        assert ssa_check(dm(ghz(3))) == pytest.approx(1.0, abs=1e-9)

    def test_random_sweep_nonnegative(self):
        check = check_entropy_ssa(500, 50)
        assert check.passed, check

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            ssa_check(dm(epr()))

    @pytest.mark.parametrize("seed", range(5))
    def test_pure_route_matches_density(self, seed):
        # a pure state's marginals come from its amplitudes, a density's from partial traces
        for dims in ((2, 2, 2), (2, 4, 2)):
            psi = random_pure(RegisterShape(dims), seed=600 + seed)
            assert abs(ssa_check(psi) - ssa_check(dm(psi))) <= 1e-12
        for n in (3, 4):
            psi = random_pure(qubits(n), seed=610 + seed)
            for a, b in (((0,), (1,)), ((2,), (0, 1)), ((n - 1, 0), (1,)), ((2, 1), (0,))):
                got, want = mutual_information(psi, a, b), mutual_information(dm(psi), a, b)
                assert abs(got - want) <= 1e-12, (n, a, b)


class TestMonotoneProperties:
    def test_lu_invariance(self):
        rng = np.random.default_rng(61)
        for _ in range(5):
            psi = random_pure(qubits(3), seed=int(rng.integers(1 << 30)))
            u = np.eye(1, dtype=complex)
            for _ in range(3):
                u = np.kron(u, haar_unitary(2, rng))
            rotated = PureState(psi.shape, u @ psi.amplitudes)
            for fn in (measure_M, measure_O, measure_S, measure_MW):
                assert abs(fn(rotated) - fn(psi)) < 1e-8

    def test_vanishes_only_on_factorizable(self):
        # forward: product states give zero
        psi = product([random_qubit(s) for s in range(4)])
        assert abs(measure_M(psi)) < 1e-9
        # converse at desk scale: entangled two-qubit states give M >= 1e-3
        rng = np.random.default_rng(62)
        count = 0
        while count < 100:
            th = rng.uniform(0, np.pi / 2)
            c0, c1 = math.cos(th), math.sin(th)
            if min(c0, c1) < 0.1:
                continue
            amps = np.zeros(4, dtype=complex)
            amps[0], amps[3] = c0, c1
            u = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
            psi = PureState(qubits(2), u @ amps)
            assert measure_M(psi) >= 1e-3
            count += 1

    def test_pure_state_additivity(self):
        for seed in range(20):
            a = random_pure(qubits(2), seed=700 + 2 * seed)
            b = random_pure(qubits(2), seed=701 + 2 * seed)
            ab = product([a, b])
            for fn in (measure_M, measure_O, measure_S):
                assert abs(fn(ab) - fn(a) - fn(b)) < 1e-8

    def test_pure_state_strong_super_additivity(self):
        for seed in range(20):
            psi = random_pure(qubits(4), seed=800 + seed)
            rho = dm(psi)
            parts = measure_S(partial_trace(rho, {0, 1})) + measure_S(partial_trace(rho, {2, 3}))
            assert measure_S(psi) >= parts - 1e-8

    def test_ancilla_invariance(self):
        base = random_pure(qubits(2), seed=900)
        ket0 = PureState(qubits(1), np.array([1.0, 0.0], dtype=complex))
        extended = product([base, ket0, ket0])
        for fn in (measure_M, measure_O, measure_S):
            assert abs(fn(extended) - fn(base)) < 1e-9


class TestMeasureReport:
    def test_internal_consistency(self):
        rep = measure_report(random_pure(qubits(4), seed=77))
        assert sum(rep.pair_values.values()) == pytest.approx(rep.M, abs=1e-10)
        assert rep.S == pytest.approx((rep.O + rep.M) / 2, abs=1e-10)
        assert 0 <= rep.M <= rep.bound_M + 1e-9

    def test_ghz4_report(self):
        rep = measure_report(ghz(4))
        assert rep.M == pytest.approx(3.0, abs=1e-9)
        assert rep.O == pytest.approx(2.0, abs=1e-9)
        assert rep.S == pytest.approx(2.5, abs=1e-9)
        assert rep.bound_M == pytest.approx(3.0)
        assert all(v == pytest.approx(0.5, abs=1e-9) for v in rep.pair_values.values())


def entropy_scalar(vals):
    """Entropy of one spectrum, with the eigenvalues at or below EIG_CLAMP dropped."""
    vals = np.asarray(vals, dtype=float)
    vals = vals[vals > EIG_CLAMP]
    return float(-(vals * np.log2(vals)).sum()) if vals.size else 0.0


def subset_entropy(state, keep):
    """S of one marginal: Schmidt coefficients of a pure state, or np.trace
    over one traced subsystem at a time and eigvalsh of a density."""
    dims = state.shape.dims
    dk = int(np.prod([dims[i] for i in keep]))
    if isinstance(state, PureState):
        t = np.moveaxis(state.amplitudes.reshape(dims), keep, range(len(keep)))
        return entropy_scalar(np.linalg.svd(t.reshape(dk, -1), compute_uv=False) ** 2)
    t = state.matrix.reshape(dims + dims)
    for i in sorted(set(range(len(dims))) - set(keep), reverse=True):
        t = np.trace(t, axis1=i, axis2=i + t.ndim // 2)
    return entropy_scalar(np.linalg.eigvalsh(t.reshape(dk, dk)))


class TestMarginalLayer:
    @pytest.mark.parametrize("state", [
        random_pure(RegisterShape((2, 3, 4)), seed=3),
        random_density(RegisterShape((2, 3, 4)), 3, seed=4),
        random_density(RegisterShape((2, 2, 3, 2)), 3, seed=5),
        random_pure(qubits(10), seed=6),
    ], ids=["pure", "rank3", "stacks", "pure10"])
    def test_report_against_per_subset_entropies(self, state):
        # on (2, 3, 4) the pair marginals are 6x6, 8x8 and 12x12, each its own
        # stack; on (2, 2, 3, 2) the stacks hold three singles and three pairs each
        rep = measure_report(state)
        n = state.shape.nsites
        s = {k: subset_entropy(state, k) for size in (1, 2) for k in combinations(range(n), size)}
        whole = 0.0
        if not isinstance(state, PureState):
            whole = entropy_scalar(np.linalg.eigvalsh(state.matrix))
        pairs = {(i, j): 0.5 * (s[i,] + s[j,] - s[i, j]) for i, j in combinations(range(n), 2)}
        o_val = 0.5 * (sum(s[i,] for i in range(n)) - whole)
        m_val = sum(pairs.values())
        assert set(rep.pair_values) == set(pairs)
        for ij, value in pairs.items():
            assert rep.pair_values[ij] == pytest.approx(value, abs=1e-14)
        assert rep.O == pytest.approx(o_val, abs=1e-14)
        assert rep.M == pytest.approx(m_val, abs=1e-14)
        assert rep.S == pytest.approx(0.5 * (o_val + m_val), abs=1e-14)

    def test_pure_report_memory_stays_chunk_sized(self):
        # the stacked contraction of a 12-qubit state's 78 marginals holds one
        # cache-sized chunk at a time; the 66 pair matrices in one stack with
        # its conjugate would take about 8.4 MB
        psi = random_pure(qubits(12), seed=7)
        measure_report(random_pure(qubits(12), seed=8))
        tracemalloc.start()
        try:
            measure_report(psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024

    def test_stacked_entropy_matches_scalar(self):
        spectra = np.array([
            [0.0, 0.0, 0.25, 0.75],
            [-1e-15, EIG_CLAMP, 0.5, 0.5 - EIG_CLAMP],
            [EIG_CLAMP / 2, 2 * EIG_CLAMP, 0.3, 0.7 - 2.5 * EIG_CLAMP],
            [0.0, 0.0, 0.0, 1.0],
            [-EIG_CLAMP, 0.0, EIG_CLAMP, EIG_CLAMP],
            [0.1, 0.2, 0.3, 0.4],
        ])
        stacked = _entropy(spectra.reshape(2, 3, 4))
        assert stacked.shape == (2, 3)
        for row, value in zip(spectra, stacked.ravel()):
            # an eigenvalue at the clamp would add 4e-11, one at twice the clamp 8e-11
            assert value == pytest.approx(entropy_scalar(row), abs=1e-15)
            assert float(_entropy(row)) == value
        assert stacked[1, 1] == 0.0

    def test_non_psd_density_rejected_on_mixed_register(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        q = np.linalg.qr(z)[0]
        lam = np.full(12, 0.1)
        lam[0] = -0.1
        bad = DensityMatrix(RegisterShape((2, 3, 2)), (q * lam) @ q.conj().T)
        for fn in (measure_report, measure_M):
            with pytest.raises(ValueError, match="negative eigenvalue"):
                fn(bad)


class TestInputValidation:
    @pytest.mark.parametrize("call, match", [
        (lambda: relative_entropy(dm(epr()), DensityMatrix(qubits(1), np.eye(2) / 2)),
         "states must share one register shape"),
        (lambda: measure_S_form2(random_qubit(0)), "requires at least 2 subsystems"),
        (lambda: bound_M(1), "requires n >= 2 and d >= 2"),
        (lambda: bound_S(2, 1), "requires n >= 2 and d >= 2"),
        (lambda: direct_measure(epr(), "X"), "unknown measure 'X'"),
    ], ids=["relative-entropy-shapes", "form2-one-site", "bound-M", "bound-S", "measure-name"])
    def test_rejects_bad_arguments(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()

    @pytest.mark.parametrize("fn", [
        measure_M, measure_O, measure_S, measure_MW, measure_report,
        von_neumann_entropy, lambda rho: mutual_information(rho, (0,), (1,)),
    ])
    def test_negative_eigenvalue_rejected(self, fn):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            fn(NOT_PSD)

    def test_trace_and_hermiticity_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            measure_M(DensityMatrix(qubits(2), np.eye(4) / 2))
        skew = np.eye(4) / 4
        skew[0, 1] = 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            measure_S(DensityMatrix(qubits(2), skew))


STATES = [random_pure(qubits(n), seed=60 + n) for n in (2, 3, 5)] + [
    random_density(qubits(n), rank, seed=70 + n) for n, rank in ((2, 3), (3, 2), (4, 5))
]


class TestReportAgreesWithMeasures:
    @pytest.mark.parametrize("state", STATES)
    def test_fields_equal_direct_measures(self, state):
        rep = measure_report(state)
        assert rep.O == measure_O(state)
        assert rep.M == measure_M(state)
        assert rep.S == measure_S(state)
        assert rep.MW == measure_MW(state)
        for (i, j), value in rep.pair_values.items():
            assert value == 0.5 * mutual_information(state, (i,), (j,))
