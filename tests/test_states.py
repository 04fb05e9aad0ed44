import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from totalcorr import (
    DensityMatrix,
    Ensemble,
    RegisterShape,
    RoofResult,
    cluster,
    dm,
    epr,
    family1,
    family2,
    flagged_mixture,
    ghz,
    load_state,
    mix,
    partial_trace,
    product,
    random_density,
    random_pure,
    save_state,
    validate_density,
    w,
    wbar,
)
from totalcorr.states import FAMILIES, PureState, epr_power, family_state

Q1 = RegisterShape((2,))
KET0 = PureState(Q1, np.array([1.0, 0.0], dtype=complex))
KET1 = PureState(Q1, np.array([0.0, 1.0], dtype=complex))


class TestNamedStates:
    def test_ghz2_is_epr(self):
        assert np.allclose(ghz(2).amplitudes, epr().amplitudes)

    def test_ghz3_amplitudes(self):
        amps = ghz(3).amplitudes
        assert amps[0] == pytest.approx(1 / math.sqrt(2))
        assert amps[7] == pytest.approx(1 / math.sqrt(2))
        assert np.count_nonzero(amps) == 2

    def test_ghz4_valid_density(self):
        assert validate_density(dm(ghz(4))).ok

    def test_ghz_rejects_n1(self):
        with pytest.raises(ValueError):
            ghz(1)

    def test_w2_equals_wbar2(self):
        assert np.allclose(w(2).amplitudes, wbar(2).amplitudes)

    def test_w3_amplitudes(self):
        amps = w(3).amplitudes
        for idx in (1, 2, 4):
            assert amps[idx] == pytest.approx(1 / math.sqrt(3))
        assert np.count_nonzero(amps) == 3

    def test_w4_wbar4_orthogonal(self):
        assert abs(np.vdot(w(4).amplitudes, wbar(4).amplitudes)) < 1e-14

    def test_cluster4_amplitudes(self):
        amps = cluster(4).amplitudes
        assert amps[0b0000] == pytest.approx(0.5)
        assert amps[0b0011] == pytest.approx(0.5)
        assert amps[0b1100] == pytest.approx(0.5)
        assert amps[0b1111] == pytest.approx(-0.5)
        assert abs(np.linalg.norm(amps) - 1) < 1e-12

    def test_cluster4_two_site_marginal_maximally_mixed(self):
        red = partial_trace(dm(cluster(4)), {0, 2})
        assert np.allclose(red.matrix, np.eye(4) / 4, atol=1e-12)

    def test_cluster_rejects_odd_or_small(self):
        with pytest.raises(ValueError):
            cluster(5)
        with pytest.raises(ValueError):
            cluster(2)


def loop_amplitudes(n, indices, value):
    """Reference: a zero vector with `value` set at each index in a Python loop."""
    amps = np.zeros(2 ** n, dtype=complex)
    for i in indices:
        amps[i] = value
    return amps


def ghz_ref(n):
    return loop_amplitudes(n, [0, 2 ** n - 1], 1 / math.sqrt(2))


def w_ref(n):
    return loop_amplitudes(n, [1 << j for j in range(n)], 1 / math.sqrt(n))


def wbar_ref(n):
    return loop_amplitudes(n, [(2 ** n - 1) ^ (1 << j) for j in range(n)], 1 / math.sqrt(n))


def cluster_ref(n):
    low = (1 << n // 2) - 1
    amps = loop_amplitudes(n, [0, low, low << n // 2], 0.5)
    amps[2 ** n - 1] = -0.5
    return amps


class TestFamilies:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_amplitudes_bit_identical_to_the_loop_formulas(self, n):
        # each state is built as one vector and checked once; its entries are
        # the ones the sum of the separately built branches gives, bit for bit
        def same_bits(state, want):
            # array_equal, and the bytes too, so that no signed zero differs
            got = state.amplitudes
            return np.array_equal(got, want) and got.tobytes() == want.tobytes()

        for build, ref in ((ghz, ghz_ref), (w, w_ref), (wbar, wbar_ref)):
            assert same_bits(build(n), ref(n))
        if n >= 4 and n % 2 == 0:
            assert same_bits(cluster(n), cluster_ref(n))
        if n < 3:
            return
        for x in [k / 20 for k in range(21)] + [0.3141, 1e-9]:
            a, b = math.sqrt(x), math.sqrt(1 - x)
            assert same_bits(family1(x, n), a * ghz_ref(n) + b * w_ref(n))
            assert same_bits(family2(x, n), a * w_ref(n) + b * wbar_ref(n))

    def test_family1_endpoints(self):
        assert np.allclose(family1(1.0, 4).amplitudes, ghz(4).amplitudes)
        assert np.allclose(family1(0.0, 4).amplitudes, w(4).amplitudes)

    def test_family1_normalized_midpoint(self):
        assert abs(np.linalg.norm(family1(0.5, 3).amplitudes) - 1) < 1e-12

    def test_family2_endpoints(self):
        assert np.allclose(family2(1.0, 4).amplitudes, w(4).amplitudes)

    def test_family2_midpoint(self):
        expected = (w(4).amplitudes + wbar(4).amplitudes) / math.sqrt(2)
        assert np.allclose(family2(0.5, 4).amplitudes, expected)

    def test_family2_rejects_n2(self):
        with pytest.raises(ValueError):
            family2(0.5, 2)

    def test_x_out_of_range(self):
        with pytest.raises(ValueError):
            family1(1.5, 3)
        with pytest.raises(ValueError):
            family2(-0.1, 3)

    @pytest.mark.parametrize("fam", [family1, family2])
    def test_sqrt_continuity_in_x(self, fam):
        # amplitudes are sqrt(x)-smooth: ||psi(x) - psi(x+d)|| <= C sqrt(d)
        delta = 1e-4
        for x in np.linspace(0.0, 1.0 - delta, 21):
            gap = np.linalg.norm(fam(x, 4).amplitudes - fam(x + delta, 4).amplitudes)
            assert gap <= 2.0 * math.sqrt(delta)


class TestBuilders:
    def test_product_basis_states(self):
        psi = product([KET0, KET1])
        assert np.allclose(psi.amplitudes, [0, 1, 0, 0])

    def test_dm_rank_one(self):
        rho = dm(ghz(3))
        vals = np.linalg.eigvalsh(rho.matrix)
        assert vals[-1] == pytest.approx(1.0)
        assert np.all(vals[:-1] < 1e-12)

    def test_mix_single_member(self):
        e = Ensemble((1.0,), (epr(),))
        assert np.allclose(mix(e).matrix, dm(epr()).matrix)

    def test_mix_pure_and_mixed_members(self):
        shape = RegisterShape((2, 2))
        e = Ensemble((0.5, 0.5), (dm(epr()), DensityMatrix(shape, np.eye(4) / 4)))
        assert validate_density(mix(e)).ok

    def test_caller_array_is_copied(self):
        mat = np.eye(4, dtype=complex) / 4
        rho = DensityMatrix(RegisterShape((2, 2)), mat)
        mat[0, 0] = 1.0
        assert mat.flags.writeable
        assert rho.matrix[0, 0] == 0.25 and not rho.matrix.flags.writeable

    def test_built_matrices_are_read_only(self):
        e = Ensemble((0.5, 0.5), (epr(), product([KET0, KET1])))
        built = [dm(epr()), mix(e), flagged_mixture(e), random_density(RegisterShape((2, 2)), 2, 1)]
        for rho in built:
            assert not rho.matrix.flags.writeable
            with pytest.raises(ValueError):
                rho.matrix[0, 0] = 1.0

    def test_mix_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            Ensemble((0.5, 0.5), (epr(), ghz(3)))

    def test_ensemble_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            Ensemble((0.7, 0.7), (epr(), epr()))
        with pytest.raises(ValueError):
            Ensemble((), ())

    @pytest.mark.parametrize("weights", [(math.nan, 1.0), (math.inf, 1.0), (1.0, -math.inf)])
    def test_ensemble_rejects_non_finite_weights(self, weights):
        # nan < 0 and abs(nan - 1) > tol are both False
        with pytest.raises(ValueError, match="finite"):
            Ensemble(weights, (ghz(2), epr()))


class TestIdentityComparison:
    # a generated __eq__ would compare the ndarray fields, whose element-wise
    # result has no truth value; states compare and hash by identity
    @pytest.mark.parametrize("build", [
        lambda: random_pure(RegisterShape((2, 2)), 1),
        lambda: random_density(RegisterShape((2, 2)), 2, 1),
    ], ids=["pure", "density"])
    def test_eq_hash_and_sets(self, build):
        a, b = build(), build()
        assert a == a and a != b and not a == b
        assert hash(a) == hash(a)
        assert {a, b, a} == {a, b} and a in {a} and b not in {a}
        assert {a: 1}[a] == 1

    def test_ensemble_and_roof_result_compare_members(self):
        psi, phi = random_pure(RegisterShape((2, 2)), 1), random_pure(RegisterShape((2, 2)), 2)
        e = Ensemble((0.5, 0.5), (psi, phi))
        assert e == Ensemble((0.5, 0.5), (psi, phi))
        assert e != Ensemble((0.5, 0.5), (phi, psi))
        assert e != Ensemble((0.5, 0.5), (psi, random_pure(RegisterShape((2, 2)), 2)))
        r = RoofResult(0.25, e, (0.25, 0.5), True)
        assert r == RoofResult(0.25, e, (0.25, 0.5), True)
        assert r != RoofResult(0.25, Ensemble((1.0,), (psi,)), (0.25, 0.5), True)

    def test_register_shape_keeps_value_equality(self):
        assert RegisterShape((2, 3)) == RegisterShape([2, 3])
        assert hash(RegisterShape((2, 3))) == hash(RegisterShape((2, 3)))


class TestInputErrors:
    @pytest.mark.parametrize("call, match", [
        (lambda: PureState(Q1, np.array([1.0, 1.0])), "state is not normalized"),
        (lambda: Ensemble((0.5, 0.5), (KET0,)), "weights and members differ in length"),
        (lambda: w(1), "w requires n >= 2"),
        (lambda: wbar(1), "wbar requires n >= 2"),
        (lambda: family1(0.5, 2), "family1 requires n >= 3"),
        (lambda: product([]), "product requires at least one state"),
        (lambda: ghz(3.0), "n must be integers"),
        (lambda: w(3.0), "n must be integers"),
        (lambda: wbar(3.0), "n must be integers"),
        (lambda: cluster(4.0), "n must be integers"),
        (lambda: epr_power(4.0), "n must be integers"),
        (lambda: family1(0.5, 3.0), "n must be integers"),
        (lambda: family2(0.5, 3.0), "n must be integers"),
        (lambda: random_density(RegisterShape((2, 2)), 2.5, seed=1),
         re.escape("rank must be integers, got (2.5,)")),
    ], ids=["unnormalized", "ensemble-lengths", "w", "wbar", "family1", "empty-product",
            "ghz-float-n", "w-float-n", "wbar-float-n", "cluster-float-n", "epr_power-float-n",
            "family1-float-n", "family2-float-n", "random_density-float-rank"])
    def test_rejects_bad_arguments(self, call, match):
        with pytest.raises(ValueError, match=f"^{match}"):
            call()


class TestFlaggedMixture:
    def test_single_member(self):
        rho = flagged_mixture(Ensemble((1.0,), (epr(),)))
        expected = np.kron(dm(epr()).matrix, np.diag([1.0, 0.0]))
        assert np.allclose(rho.matrix, expected)

    def test_off_diagonal_flag_blocks_vanish(self):
        e = Ensemble((0.4, 0.6), (epr(), product([KET0, KET0])))
        rho = flagged_mixture(e)
        block = rho.matrix.reshape(4, 2, 4, 2)
        assert np.max(np.abs(block[:, 0, :, 1])) == 0.0
        assert np.max(np.abs(block[:, 1, :, 0])) == 0.0

    def test_equals_the_kron_sum(self):
        # each member's block is written into a view of the result; the
        # entries are those of sum_i p_i rho_i (x) |i><i|, bit for bit
        members = (epr(), random_density(RegisterShape((2, 2)), 3, seed=4),
                   random_pure(RegisterShape((2, 2)), seed=5))
        e = Ensemble((0.2, 0.5, 0.3), members)
        expected = np.zeros((12, 12), dtype=complex)
        for i, (p, member) in enumerate(zip(e.weights, e.members)):
            flag = np.zeros((3, 3))
            flag[i, i] = 1.0
            rho = member.matrix if isinstance(member, DensityMatrix) else dm(member).matrix
            expected += p * np.kron(rho, flag)
        rho = flagged_mixture(e)
        assert rho.shape == RegisterShape((2, 2, 3))
        assert np.array_equal(rho.matrix, expected)

    def test_tracing_out_flag_recovers_mixture(self):
        e = Ensemble((0.3, 0.7), (epr(), product([KET0, KET1])))
        rho = flagged_mixture(e)
        red = partial_trace(rho, {0, 1})
        assert np.max(np.abs(red.matrix - mix(e).matrix)) < 1e-12


class TestRandomStates:
    def test_pure_deterministic_per_seed(self):
        a = random_pure(RegisterShape((2, 2, 2)), seed=5)
        b = random_pure(RegisterShape((2, 2, 2)), seed=5)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_pure_normalized(self):
        psi = random_pure(RegisterShape((3, 2)), seed=6)
        assert abs(np.linalg.norm(psi.amplitudes) - 1) < 1e-10

    def test_density_rank_limit(self):
        rho = random_density(RegisterShape((2, 2)), rank=2, seed=7)
        vals = np.sort(np.linalg.eigvalsh(rho.matrix))[::-1]
        assert vals[2] <= 1e-10
        assert validate_density(rho).ok

    @pytest.mark.parametrize("dims, rank, seed", [
        ((2, 2), 4, 20000), ((2, 2, 2), 2, 90000), ((3,) * 5, 3, 4), ((2,) * 9, 4, 8),
    ])
    def test_density_bit_identical_to_one_outer_product_per_member(self, dims, rank, seed):
        # the blockwise sum adds the same products in the same order
        shape = RegisterShape(dims)
        rng = np.random.default_rng(seed)
        want = np.zeros((shape.dim,) * 2, dtype=complex)
        for p in rng.dirichlet(np.ones(rank)):
            v = rng.standard_normal(shape.dim) + 1j * rng.standard_normal(shape.dim)
            v /= np.linalg.norm(v)
            want += p * np.outer(v, v.conj())
        assert np.array_equal(random_density(shape, rank, seed).matrix, want)

    def test_density_holds_one_matrix(self):
        # the built matrix is kept, not copied: the peak stays near one
        # 512 x 512 complex matrix of 4 MB
        shape = RegisterShape((2,) * 9)
        tracemalloc.start()
        try:
            rho = random_density(shape, 4, seed=9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * rho.matrix.nbytes == 1.5 * 4 * 2**20

    def test_density_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            random_density(RegisterShape((2, 2)), rank=5, seed=1)


class TestGhzMarginals:
    def test_single_site_maximally_mixed(self):
        rho = dm(ghz(4))
        for i in range(4):
            assert np.max(np.abs(partial_trace(rho, {i}).matrix - np.eye(2) / 2)) < 1e-12

    def test_two_site_classical(self):
        rho = dm(ghz(4))
        target = np.zeros((4, 4))
        target[0, 0] = target[3, 3] = 0.5
        for pair in ((0, 1), (1, 3), (0, 3)):
            assert np.max(np.abs(partial_trace(rho, pair).matrix - target)) < 1e-12


class TestFamilyRegistry:
    def test_members_match_constructors(self):
        assert np.array_equal(family_state("ghz", 4).amplitudes, ghz(4).amplitudes)
        assert np.array_equal(family_state("family2", 5, 0.3).amplitudes,
                              family2(0.3, 5).amplitudes)
        assert np.array_equal(family_state("epr_power", 4).amplitudes,
                              product([epr(), epr()]).amplitudes)
        assert np.array_equal(family_state("epr").amplitudes, epr().amplitudes)

    def test_sizes(self):
        assert [n for n in range(1, 9) if FAMILIES["cluster"].allows(n)] == [4, 6, 8]
        assert [n for n in range(1, 5) if FAMILIES["epr"].allows(n)] == [2]
        assert [n for n in range(1, 5) if FAMILIES["family1"].allows(n)] == [3, 4]

    def test_rejects_options_the_family_lacks(self):
        with pytest.raises(ValueError, match="^state family epr has no member with n = 3$"):
            family_state("epr", 3)
        # the single-size family takes the sized families' integer rule
        with pytest.raises(ValueError, match=r"^n must be integers, got \(2\.0,\)$"):
            family_state("epr", 2.0)
        with pytest.raises(ValueError, match="^state family ghz takes no x$"):
            family_state("ghz", 3, 0.3)
        # the constructor's own message stands where it checks n
        with pytest.raises(ValueError, match="^cluster requires an even n >= 4$"):
            family_state("cluster", 5)

    def test_missing_arguments(self):
        with pytest.raises(ValueError):
            family_state("ghz")
        with pytest.raises(ValueError):
            family_state("family1", 4)
        with pytest.raises(ValueError):
            epr_power(3)


class TestStateFiles:
    def test_pure_roundtrip(self, tmp_path):
        psi = random_pure(RegisterShape((2, 3)), seed=9)
        path = tmp_path / "psi.json"
        save_state(psi, path)
        loaded = load_state(path)
        assert isinstance(loaded, PureState)
        assert loaded.shape == psi.shape
        assert np.max(np.abs(loaded.amplitudes - psi.amplitudes)) < 1e-14

    def test_density_roundtrip(self, tmp_path):
        rho = random_density(RegisterShape((2, 2)), 3, seed=10)
        path = tmp_path / "rho.json"
        save_state(rho, path)
        loaded = load_state(path)
        assert isinstance(loaded, DensityMatrix)
        assert np.max(np.abs(loaded.matrix - rho.matrix)) < 1e-14

    def test_rejects_invalid_density(self, tmp_path):
        path = tmp_path / "rho.json"
        save_state(DensityMatrix(RegisterShape((2, 2)), np.diag([0.7, 0.5, -0.1, -0.1])), path)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            load_state(path)

    def test_rejects_non_finite_density(self, tmp_path):
        path = tmp_path / "rho.json"
        save_state(DensityMatrix(RegisterShape((2, 2)), np.eye(4) / 4), path)
        path.write_text(path.read_text().replace("0.25", "NaN", 1))
        with pytest.raises(ValueError, match="entries must be finite"):
            load_state(path)

    def test_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dims": [2, 2]}')
        with pytest.raises(ValueError):
            load_state(path)

    @pytest.mark.parametrize("doc, match", [
        ({"dims": [2, 2], "amplitudes": [1, 0, 0, 0]}, "not a \\[re, im\\] pair"),
        ({"dims": 2, "amplitudes": [[1, 0], [0, 0]]}, "'dims' list"),
        ([[1, 0], [0, 0]], "JSON object"),
        ({"dims": [2], "amplitudes": [["a", 0], [0, 0]]}, "not a \\[re, im\\] pair"),
        ({"dims": [2], "matrix": 5}, "where a list belongs"),
        ({"dims": [2], "matrix": [[1, 0], [0, 0]]}, "not a \\[re, im\\] pair"),
        ({"dims": [2], "matrix": [[[1, 0], [0, 0]], [[0, 0]]]}, "^state file row 1 has 1 entries"),
        ({"dims": [2, 2], "amplitudes": [[1, 0], [0, 0]]}, "expected array of shape \\(4,\\)"),
        ({"dims": [2, 2], "amplitudes": [[1, 0]] + [[0, 0]] * 3,
          "matrix": [[[float(i == j == 0), 0] for j in range(4)] for i in range(4)]},
         "^state file must contain 'amplitudes' or 'matrix', not both$"),
    ], ids=["bare-numbers", "scalar-dims", "top-level-list", "non-numeric", "scalar-matrix",
            "flat-matrix", "ragged-matrix", "dims-mismatch", "amplitudes-and-matrix"])
    def test_rejects_wrong_layout(self, tmp_path, doc, match):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=match):
            load_state(path)

    def test_rejects_non_integral_dims(self, tmp_path):
        path = tmp_path / "psi.json"
        save_state(ghz(2), path)
        doc = json.loads(path.read_text())
        doc["dims"] = [2.9, 2]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="integers"):
            load_state(path)
