import numpy as np
import pytest

from totalcorr import (
    DensityMatrix,
    Ensemble,
    RegisterShape,
    RoofConfig,
    dm,
    eof_two_qubit,
    epr,
    ensemble_from_isometry,
    flags_residual,
    ghz,
    measure_M,
    mix,
    pcrc_gap,
    product,
    random_density,
    random_pure,
    roof_additivity_gap,
    roof_minimize,
)
from totalcorr import roof
from totalcorr.core import ResourceLimitError
from totalcorr.measures import direct_measure
from totalcorr.roof import _cuts, _pure_values
from totalcorr.states import PureState

Q2 = RegisterShape((2, 2))
KET0 = PureState(RegisterShape((2,)), np.array([1.0, 0.0], dtype=complex))
KET1 = PureState(RegisterShape((2,)), np.array([0.0, 1.0], dtype=complex))

FAST = RoofConfig(restarts=4, seed=3)


def werner(p):
    """p * EPR projector mixed with (1-p)/4 identity."""
    mat = p * dm(epr()).matrix + (1 - p) * np.eye(4) / 4
    return DensityMatrix(Q2, mat)


def classically_correlated():
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = mat[3, 3] = 0.5
    return DensityMatrix(Q2, mat)


class TestEnsembleFromIsometry:
    def test_identity_gives_eigen_ensemble(self):
        rho = random_density(Q2, 3, seed=32)
        lam = np.sort(np.linalg.eigvalsh(rho.matrix))[::-1]
        ens = ensemble_from_isometry(rho, np.eye(3))
        assert np.allclose(sorted(ens.weights, reverse=True), lam[:3], atol=1e-10)

    def test_steered_ensemble_reconstructs_rho(self):
        rho = random_density(Q2, 2, seed=33)
        rng = np.random.default_rng(34)
        x = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        v, _ = np.linalg.qr(x)
        ens = ensemble_from_isometry(rho, v)
        assert np.max(np.abs(mix(ens).matrix - rho.matrix)) < 1e-10

    def test_rejects_non_isometry(self):
        rho = random_density(Q2, 2, seed=35)
        with pytest.raises(ValueError):
            ensemble_from_isometry(rho, np.ones((3, 2)))

    def test_rejects_rank_deficient_steering(self):
        rho = random_density(Q2, 3, seed=36)
        with pytest.raises(ValueError):
            ensemble_from_isometry(rho, np.eye(2))


class TestRoofMinimize:
    def test_pure_input_is_direct(self):
        res = roof_minimize(ghz(3), "M")
        assert res.value == pytest.approx(1.5, abs=1e-9)
        assert res.converged
        assert len(res.ensemble.weights) == 1

    def test_rank_one_density(self):
        res = roof_minimize(dm(epr()), "S", FAST)
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_separable_werner_reaches_zero(self):
        res = roof_minimize(werner(0.2), "M", FAST)
        assert res.value <= 1e-3

    def test_value_matches_returned_ensemble(self):
        rho = random_density(Q2, 3, seed=37)
        res = roof_minimize(rho, "M", FAST)
        recomputed = sum(
            p * direct_measure(member, "M")
            for p, member in zip(res.ensemble.weights, res.ensemble.members)
        )
        assert res.value == pytest.approx(recomputed, abs=1e-12)
        assert np.max(np.abs(mix(res.ensemble).matrix - rho.matrix)) < 1e-8

    def test_upper_bounded_by_eigen_ensemble(self):
        rho = random_density(Q2, 4, seed=38)
        eigen = ensemble_from_isometry(rho, np.eye(4))
        eigen_avg = sum(
            p * direct_measure(member, "M")
            for p, member in zip(eigen.weights, eigen.members)
        )
        assert roof_minimize(rho, "M", FAST).value <= eigen_avg + 1e-9

    def test_deterministic_for_fixed_seed(self):
        rho = random_density(Q2, 2, seed=39)
        a = roof_minimize(rho, "M", FAST)
        b = roof_minimize(rho, "M", FAST)
        assert a.value == b.value
        assert a.per_restart_values == b.per_restart_values

    def test_mixed_strategy_not_above_pure(self):
        rho = random_density(Q2, 2, seed=40)
        pure = roof_minimize(rho, "M", RoofConfig(restarts=3, seed=1))
        mixed = roof_minimize(
            rho, "M", RoofConfig(restarts=3, seed=1, strategy="mixed_roof")
        )
        assert mixed.value <= pure.value + 1e-6

    def test_dimension_cap(self):
        rho = random_density(Q2, 2, seed=41)
        with pytest.raises(ResourceLimitError):
            roof_minimize(rho, "M", RoofConfig(dim_cap=2))

    def test_rejects_unknown_measure(self):
        with pytest.raises(ValueError):
            roof_minimize(dm(epr()), "Q")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RoofConfig(restarts=0)
        with pytest.raises(ValueError):
            RoofConfig(strategy="annealing")
        with pytest.raises(ValueError):
            RoofConfig(max_iterations=0)
        with pytest.raises(ValueError):
            RoofConfig(ensemble_size=0)
        for tolerance in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                RoofConfig(tolerance=tolerance)

    def test_rejects_invalid_density(self):
        not_psd = DensityMatrix(Q2, np.diag([0.7, 0.5, -0.1, -0.1]))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            roof_minimize(not_psd, "M", RoofConfig(restarts=2))


class TestBatchedRestarts:
    # restart k of a batch must take exactly the steps it takes alone with
    # seed base + k; the cases cover an entropy measure on each cut layout
    CASES = [((2, 2), 4, "M"), ((2, 2, 2), 2, "S"), ((2, 3), 3, "O")]

    @pytest.mark.parametrize("dims, rank, measure", CASES)
    @pytest.mark.parametrize("seed", [0, 21])
    # converged restarts can meet at one minimum from different paths, so
    # restarts cut off after three line searches show the path itself
    @pytest.mark.parametrize("max_iterations", [3, 2000])
    def test_restarts_in_one_batch_do_not_couple(self, dims, rank, measure, seed,
                                                 max_iterations):
        rho = random_density(RegisterShape(dims), rank, seed=50 + rank)
        batch = roof_minimize(rho, measure, RoofConfig(
            restarts=6, seed=seed, max_iterations=max_iterations))
        assert len(batch.per_restart_values) == 6
        for k, value in enumerate(batch.per_restart_values):
            alone = roof_minimize(rho, measure, RoofConfig(
                restarts=1, seed=seed + k, max_iterations=max_iterations))
            assert value == pytest.approx(alone.value, abs=1e-9)

    def test_groups_under_the_row_budget_give_the_same_restarts(self, monkeypatch):
        rho = random_density(Q2, 2, seed=51)  # four members per restart
        cfg = RoofConfig(restarts=5, seed=9)
        whole = roof_minimize(rho, "M", cfg)
        for budget in (8, 1):  # groups of two restarts, then one at a time
            monkeypatch.setattr(roof, "ROW_BUDGET", budget)
            split = roof_minimize(rho, "M", cfg)
            assert split.per_restart_values == whole.per_restart_values
            assert split.value == whole.value

    def test_max_iterations_counts_line_searches_per_restart(self):
        # every accepted line search lowers a restart's total, so each
        # restart's value falls strictly with each line search allowed, on a
        # state whose restarts need many more; a cap that counted objective
        # evaluations would stop a restart that backtracked one search early
        rho = random_density(Q2, 4, seed=20_000)
        runs = [
            roof_minimize(rho, "M", RoofConfig(restarts=4, seed=3, max_iterations=it))
            for it in (1, 2, 3, 4, 5, 2000)
        ]
        assert not runs[0].converged
        assert runs[-1].converged
        for values in zip(*(run.per_restart_values for run in runs)):
            assert all(later < earlier for earlier, later in zip(values, values[1:]))


class TestAgainstFormationOracle:
    def test_eof_epr(self):
        assert eof_two_qubit(dm(epr())) == pytest.approx(1.0, abs=1e-12)

    def test_eof_separable(self):
        assert eof_two_qubit(werner(1 / 3)) == pytest.approx(0.0, abs=1e-12)
        assert eof_two_qubit(classically_correlated()) == pytest.approx(0.0)

    def test_eof_werner_concurrence_formula(self):
        # for p > 1/3 the concurrence is (3p - 1)/2
        p = 0.9
        c = (3 * p - 1) / 2
        x = (1 + np.sqrt(1 - c * c)) / 2
        expected = -x * np.log2(x) - (1 - x) * np.log2(1 - x)
        assert eof_two_qubit(werner(p)) == pytest.approx(expected, abs=1e-12)

    def test_eof_rejects_other_shapes(self):
        with pytest.raises(ValueError):
            eof_two_qubit(dm(ghz(3)))

    def test_roof_tracks_eof_on_werner(self):
        # two-qubit pure members have M = entanglement entropy, so the
        # M-roof should land on the closed-form formation value
        for p in (0.5, 0.8):
            rho = werner(p)
            res = roof_minimize(rho, "M", RoofConfig(restarts=6, seed=5))
            assert res.value == pytest.approx(eof_two_qubit(rho), abs=5e-3)

    def test_roof_tracks_eof_on_random_density(self):
        rho = random_density(Q2, 2, seed=42)
        res = roof_minimize(rho, "M", RoofConfig(restarts=8, seed=6))
        assert res.value == pytest.approx(eof_two_qubit(rho), abs=5e-3)


class TestDerivedChecks:
    def test_pcrc_gap_classically_correlated(self):
        # direct M on the 50/50 |00>,|11> mixture is 0.5; the roof over
        # product members is 0, so the gap sits at exactly one half
        gap = pcrc_gap(classically_correlated(), "M", FAST)
        assert gap == pytest.approx(0.5, abs=1e-6)

    def test_pcrc_gap_pure_state_zero(self):
        assert abs(pcrc_gap(ghz(3), "S")) < 1e-12

    def test_flags_residual_single_member(self):
        e = Ensemble((1.0,), (epr(),))
        assert flags_residual(e, "M", FAST) < 1e-6

    def test_flags_residual_two_members(self):
        e = Ensemble((0.5, 0.5), (epr(), product([KET0, KET0])))
        assert flags_residual(e, "M", RoofConfig(restarts=6, seed=7)) < 5e-3

    def test_additivity_gap_product_inputs(self):
        gap = roof_additivity_gap(
            dm(epr()), classically_correlated(), "M", RoofConfig(restarts=6, seed=8)
        )
        assert abs(gap) < 5e-3


class TestBatchedObjective:
    # (2, 3) and (3, 2, 2) have cuts of unequal sides, taken on the smaller one
    DIMS = [(2, 2), (2, 2, 2), (2, 2, 2, 2), (2, 3), (3, 2, 2)]

    @staticmethod
    def rows(dims, seed):
        d = int(np.prod(dims))
        rng = np.random.default_rng(seed)
        W = rng.standard_normal((6, d)) + 1j * rng.standard_normal((6, d))
        return W * rng.uniform(0.1, 2.0, size=(6, 1))  # rows of unequal weight

    @pytest.mark.parametrize("dims", DIMS)
    @pytest.mark.parametrize("measure", ["M", "O", "S", "MW"])
    def test_rows_match_direct_measure(self, dims, measure):
        W = self.rows(dims, len(dims))
        got, _ = _pure_values(W, dims, measure)
        for k, row in enumerate(W):
            p = float(np.vdot(row, row).real)
            member = PureState(RegisterShape(dims), row / np.sqrt(p))
            assert got[k] == pytest.approx(p * direct_measure(member, measure), abs=1e-12)

    def test_each_term_on_the_smaller_side_of_its_cut(self):
        # S(K) = S(K-bar) for a pure member: two qubits need one marginal,
        # three subsystems three, and equal-size ties go to the smaller set
        assert _cuts((2, 2), "M") == (((0,), 1.0),)
        assert _cuts((2, 2), "MW") == (((0,), 2.0),)
        assert _cuts((2, 3), "O") == (((0,), 1.0),)
        assert _cuts((3, 2, 2), "S") == (((0,), 0.5), ((1,), 0.5), ((2,), 0.5))
        assert [keep for keep, _ in _cuts((2, 2, 2, 2), "M")] == [
            (0,), (1,), (2,), (3,), (0, 1), (0, 2), (0, 3)
        ]

    @pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2), (2, 3), (2, 2, 2, 2)])
    @pytest.mark.parametrize("measure", ["M", "O", "S", "MW"])
    def test_gradient_matches_central_differences(self, dims, measure):
        # G is the gradient with respect to conj(W), so the slope of the
        # total along a direction E is 2 Re <G, E>
        W = self.rows(dims, 100 + len(dims))
        _, G = _pure_values(W, dims, measure)
        rng = np.random.default_rng(7)
        h = 1e-5
        for _ in range(3):
            E = rng.standard_normal(W.shape) + 1j * rng.standard_normal(W.shape)
            plus = _pure_values(W + h * E, dims, measure)[0].sum()
            minus = _pure_values(W - h * E, dims, measure)[0].sum()
            slope = 2 * np.vdot(G, E).real
            assert (plus - minus) / (2 * h) == pytest.approx(slope, rel=1e-6)

    @staticmethod
    def edge_rows(dims, seed):
        """Member rows at the edges of the closed-form qubit kernel, each under
        random local unitaries unless noted: a product member (rank-1
        marginals), a Bell pair on sites 0 and 1 (a degenerate 1/2, 1/2
        spectrum), the same pair unrotated (r = 0 exactly), a pair whose two
        eigenvalues differ by 1e-9, a zero row, rows of weight 2e-14 and
        5e-15, on either side of the 1e-14 liveness cut, and last a pair whose
        smaller eigenvalue, 1e-11, sits just above EIG_CLAMP."""
        rng = np.random.default_rng(seed)

        def ket(*terms):
            t = np.zeros(dims, dtype=complex)
            for amp, index in terms:
                t[index + (0,) * (len(dims) - len(index))] = amp
            return t

        def rotated(t):
            for axis, k in enumerate(dims):
                u, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
                t = np.moveaxis(np.tensordot(u, t, axes=(1, axis)), 0, axis)
            return t.reshape(-1) * rng.uniform(0.3, 2.0)

        bell = ket((np.sqrt(0.5), (0, 0)), (np.sqrt(0.5), (1, 1)))
        gap = ket((np.sqrt(0.5 + 5e-10), (0, 0)), (np.sqrt(0.5 - 5e-10), (1, 1)))
        small = rotated(ket((1.0, (0,)), (0.6j, (1, 1))))
        small /= np.linalg.norm(small)
        return np.array([
            rotated(ket((1.0, (0,)))), rotated(bell), bell.reshape(-1), rotated(gap),
            np.zeros(small.size), np.sqrt(2e-14) * small, np.sqrt(5e-15) * small,
            rotated(ket((np.sqrt(1 - 1e-11), (0, 0)), (np.sqrt(1e-11), (1, 1)))),
        ])

    @pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2), (3, 2, 2)])
    @pytest.mark.parametrize("measure", ["M", "MW"])
    def test_edge_rows_match_direct_measure(self, dims, measure):
        W = self.edge_rows(dims, 3)
        got, G = _pure_values(W, dims, measure)
        for k, row in enumerate(W):
            p = float(np.vdot(row, row).real)
            expected = 0.0
            if p > 0:
                member = PureState(RegisterShape(dims), row / np.sqrt(p))
                expected = p * direct_measure(member, measure)
            assert got[k] == pytest.approx(expected, abs=1e-12)
        assert got[4] == 0.0 and not G[4].any()

    @pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2), (3, 2, 2)])
    def test_edge_rows_gradient_matches_central_differences(self, dims):
        # rows are independent, so each row's slope is checked on its own,
        # with a step scaled to its norm (1e-5 for the zero row); a product
        # member has slope 0 and a central difference of order h^2 log h. The
        # last row is left out: a step moves its 1e-11 eigenvalue by far more
        # than itself, where the entropy is not smooth
        W = self.edge_rows(dims, 4)[:-1]
        norms = np.linalg.norm(W, axis=1)
        h = 1e-5 * np.where(norms > 0, norms, 1.0)
        _, G = _pure_values(W, dims, "M")
        rng = np.random.default_rng(8)
        for _ in range(3):
            E = rng.standard_normal(W.shape) + 1j * rng.standard_normal(W.shape)
            plus = _pure_values(W + h[:, None] * E, dims, "M")[0]
            minus = _pure_values(W - h[:, None] * E, dims, "M")[0]
            slope = 2 * np.einsum("kd,kd->k", G.conj(), E).real
            np.testing.assert_allclose((plus - minus) / (2 * h), slope,
                                       rtol=1e-6, atol=1e-7 * norms.max() ** 2)

    def test_qubit_cuts_make_no_eigen_call_in_the_objective(self, monkeypatch):
        # every cut of a two- or three-qubit register is a qubit cut on its
        # smaller side; a qutrit cut still takes eigh, which shows the
        # counter at work
        counts = {"objective": 0, "eigen": 0}
        inside = []
        pure_values = roof._pure_values

        def objective(*args):
            counts["objective"] += 1
            inside.append(True)
            try:
                return pure_values(*args)
            finally:
                inside.pop()

        def counted(fn):
            def wrapped(*args, **kwargs):
                counts["eigen"] += bool(inside)
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(roof, "_pure_values", objective)
        for name in ("eigh", "eigvalsh", "eig", "eigvals"):
            monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
        for dims, eigen in (((2, 2), False), ((2, 2, 2), False), ((3, 2, 2), True)):
            counts.update(objective=0, eigen=0)
            rho = random_density(RegisterShape(dims), 3, seed=60)
            roof_minimize(rho, "M", RoofConfig(restarts=2, seed=1))
            assert counts["objective"] > 0
            assert (counts["eigen"] > 0) == eigen, dims
