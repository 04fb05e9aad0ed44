import re
import tracemalloc
from itertools import combinations

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
    ghz,
    measure_M,
    mix,
    product,
    random_density,
    random_pure,
    roof_additivity_gap,
    roof_minimize,
)
from totalcorr import core, roof
from totalcorr.cli import check_flags, check_pcrc
from totalcorr.core import ResourceLimitError, partial_trace_matrix
from totalcorr.measures import EIG_CLAMP, _correlations, direct_measure
from totalcorr.roof import STRATEGIES, _cuts, _pure_values
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

    # the pure-roof cases keep the ids they had before the mixed-roof ones joined
    @pytest.mark.parametrize("dims, measure, strategy", [
        pytest.param(dims, measure, strategy, id=f"{measure}-dims{k}{suffix}")
        for strategy, suffix in (("pure_roof", ""), ("mixed_roof", "-mixed_roof"))
        for measure in ("M", "O", "S", "MW")
        for k, dims in enumerate([(2, 2), (2, 2, 2), (2, 3)])
    ])
    def test_value_matches_returned_ensemble(self, dims, measure, strategy):
        # every candidate takes its value from one batched objective call on
        # its members; it must be their average of the direct measure
        rho = random_density(RegisterShape(dims), 3, seed=37)
        res = roof_minimize(rho, measure, RoofConfig(restarts=4, seed=3, strategy=strategy))
        recomputed = sum(
            p * direct_measure(member, measure)
            for p, member in zip(res.ensemble.weights, res.ensemble.members)
        )
        assert res.value == pytest.approx(recomputed, abs=1e-12)
        assert np.max(np.abs(mix(res.ensemble).matrix - rho.matrix)) < 1e-10

    @pytest.mark.parametrize("strategy", ["pure_roof", "mixed_roof"])
    @pytest.mark.parametrize("measure", ["M", "O", "S", "MW"])
    @pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2), (2, 3)])
    def test_upper_bounded_by_eigen_ensemble(self, dims, measure, strategy):
        shape = RegisterShape(dims)
        rho = random_density(shape, 4, seed=38)
        lam, vecs = np.linalg.eigh(rho.matrix)
        eigen_avg = sum(p * direct_measure(PureState(shape, vecs[:, k]), measure)
                        for k, p in enumerate(lam) if p > 1e-12)
        config = RoofConfig(restarts=4, seed=3, strategy=strategy)
        assert roof_minimize(rho, measure, config).value <= eigen_avg + 1e-9

    def test_deterministic_for_fixed_seed(self):
        rho = random_density(Q2, 2, seed=39)
        a = roof_minimize(rho, "M", FAST)
        b = roof_minimize(rho, "M", FAST)
        assert a.value == b.value
        assert a.per_restart_values == b.per_restart_values

    def test_mixed_roof_two_qubit_rank_three(self):
        # the grouped optimum, three mixed members of three rows each, sits
        # below both the pure roof (0.00674) and the direct value (0.208)
        rho = random_density(Q2, 3, seed=7)
        res = roof_minimize(rho, "M", RoofConfig(strategy="mixed_roof"))
        assert res.value <= 0.00628
        assert all(isinstance(member, DensityMatrix) for member in res.ensemble.members)

    def test_dimension_cap(self, monkeypatch):
        nine = RegisterShape((2,) * 9)
        with pytest.raises(ResourceLimitError, match="dimension 512 exceeds cap 256"):
            roof_minimize(DensityMatrix(nine, np.eye(512) / 512), "M", FAST)
        monkeypatch.setattr(roof, "DIM_CAP", 2)
        rho = random_density(Q2, 2, seed=41)
        with pytest.raises(ResourceLimitError, match="exceeds cap 2"):
            roof_minimize(rho, "M", FAST)

    def test_rejects_unknown_measure(self):
        with pytest.raises(ValueError):
            roof_minimize(dm(epr()), "Q")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RoofConfig(strategy="annealing")
        for tolerance in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                RoofConfig(tolerance=tolerance)
        assert RoofConfig(restarts=np.int64(3), seed=np.int32(2)).restarts == 3

    # counts and seeds must be integral at construction, not fail later
    # inside range or numpy, nor be truncated
    @pytest.mark.parametrize("field, value, message", [
        ("restarts", 0, "restarts must be >= 1"),
        ("max_iterations", 0, "max_iterations must be >= 1"),
        ("ensemble_size", 0, "ensemble_size must be >= 1"),
        ("seed", -1, "seed must be >= 0"),
        ("restarts", 2.5, "restarts must be integers, got (2.5,)"),
        ("max_iterations", 3.7, "max_iterations must be integers, got (3.7,)"),
        ("ensemble_size", 4.5, "ensemble_size must be integers, got (4.5,)"),
        ("seed", 0.5, "seed must be integers, got (0.5,)"),
        ("restarts", None, "restarts must be integers, got (None,)"),
    ])
    def test_config_field_messages(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RoofConfig(**{field: value})

    def test_rejects_invalid_density(self):
        not_psd = DensityMatrix(Q2, np.diag([0.7, 0.5, -0.1, -0.1]))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            roof_minimize(not_psd, "M", RoofConfig(restarts=2))

    @pytest.mark.parametrize("rho, config, match", [
        (DensityMatrix(RegisterShape((2,)), np.eye(2) / 2), FAST,
         "roof requires at least 2 subsystems"),
        (random_density(Q2, 4, seed=5), RoofConfig(ensemble_size=3),
         r"ensemble_size must be >= rank \(4\), got 3"),
    ], ids=["one-site", "ensemble-below-rank"])
    def test_rejects_bad_arguments(self, rho, config, match):
        with pytest.raises(ValueError, match=match):
            roof_minimize(rho, "M", config)


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

    @pytest.mark.parametrize("dims, rank, measure, strategy", [
        pytest.param((2, 2, 2), 4, measure, strategy, id=f"{measure}-{strategy}")
        for measure in ("M", "O", "S", "MW") for strategy in STRATEGIES
    ] + [pytest.param((2, 3), 3, "S", "mixed_roof", id="qutrit-S-mixed_roof")])
    def test_objective_chunks_give_the_same_restarts(self, monkeypatch, dims, rank,
                                                     measure, strategy):
        rho = random_density(RegisterShape(dims), rank, seed=5)
        cfg = RoofConfig(restarts=2, seed=9, strategy=strategy)
        whole = roof_minimize(rho, measure, cfg)
        # one member per chunk, then chunks that end inside a restart's
        # members and inside a marginal dimension's stack
        for budget in (1, 150):
            monkeypatch.setattr(core, "BLOCK_ENTRIES", budget)
            split = roof_minimize(rho, measure, cfg)
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


class TestLineSearch:
    @pytest.mark.parametrize("batch", [1, 5, 20])
    def test_stacked_projection_equals_separate(self, batch):
        # an accepted step projects three stacks at the same isometries in one
        # call; each must come out bit for bit as if projected alone
        rng = np.random.default_rng(batch)
        shape = (batch, 16, 4)
        V = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))[0]
        X = rng.standard_normal((3, *shape)) + 1j * rng.standard_normal((3, *shape))
        stacked = roof._project(V, X)
        for k in range(3):
            assert np.array_equal(stacked[k], roof._project(V, X[k].copy()))

    def test_formation_roofs_within_objective_call_budget(self, monkeypatch):
        # the default-config roofs of the four bench formation states; a line
        # search that halves a failed step and doubles an accepted one makes
        # 338 objective calls here, quadratic interpolation on conjugate
        # gradient directions 240, and on memoryless BFGS directions 190, with
        # the Householder and the Cholesky-QR retraction alike
        calls = []
        pure_values = roof._pure_values

        def counted(*args):
            calls.append(1)
            return pure_values(*args)

        monkeypatch.setattr(roof, "_pure_values", counted)
        for seed in range(20_000, 20_004):
            roof_minimize(random_density(Q2, 4, seed=seed), "M", RoofConfig())
        assert len(calls) <= 210

    @pytest.mark.parametrize("m, r", [(16, 4), (9, 3), (4, 4)])
    def test_retraction_is_the_phase_fixed_householder_q(self, m, r):
        # the loop retracts X = V + t D, D tangent at the isometry V; at m = r
        # X^dag X has a condition number of 5.0e3 at t |D| = 100 (Cholesky-QR)
        # and 3.7e4 at t |D| = 300 (past the cap: Householder QR)
        rng = np.random.default_rng(36)
        V = np.linalg.qr(rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r)))[0]
        D = roof._project(V, rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r)))
        D /= np.linalg.norm(D)
        X = np.stack([V + t * D for t in (1e-3, 1.0, 30.0, 100.0, 300.0)])
        Q = roof._retract(X)
        H, R = np.linalg.qr(X)
        phases = np.diagonal(R, axis1=-2, axis2=-1)
        np.testing.assert_allclose(Q, H * (phases / np.abs(phases))[..., None, :],
                                   rtol=0, atol=1e-12)
        gram = Q.conj().swapaxes(-1, -2) @ Q - np.eye(r)
        assert (np.linalg.norm(gram, 2, axis=(1, 2)) <= 1e-12).all()

    def test_retraction_falls_back_to_householder_where_cholesky_fails(self):
        # along a unit rank-one tangent D, X^dag X = I + t^2 D^dag D is not
        # numerically positive definite at t = 1e9; both members of the stack
        # must come out orthonormal, and as they would alone
        rng = np.random.default_rng(37)
        V = np.linalg.qr(rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4)))[0]
        x = rng.standard_normal((16, 1)) + 1j * rng.standard_normal((16, 1))
        D = (x - V @ (V.conj().T @ x)) @ rng.standard_normal((1, 4))
        D /= np.linalg.norm(D)
        X = np.stack([V + D, V + 1e9 * D])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(X[1].conj().T @ X[1])
        Q = roof._retract(X)
        for k in range(2):
            np.testing.assert_array_equal(Q[k], roof._retract(X[k:k + 1])[0])
        np.testing.assert_allclose(Q, roof._householder(X), rtol=0, atol=1e-12)
        gram = Q.conj().swapaxes(-1, -2) @ Q - np.eye(4)
        assert (np.linalg.norm(gram, 2, axis=(1, 2)) <= 1e-12).all()

    def test_returned_rows_decompose_rho_after_an_inexact_retraction(self, monkeypatch):
        # the loop's isometries are only as orthonormal as the retraction
        # leaves them; the rows it returns must still mix back to rho
        monkeypatch.setattr(roof, "_retract", lambda X: 1.001 * roof._householder(X))
        rho = random_density(Q2, 3, seed=38)
        r, lam, vecs = roof._eigen(rho)
        A = roof._eigen_rows(lam, vecs, r)
        _, rows, _ = roof._optimize_pure(A, Q2.dims, "M", 9, [0, 1], RoofConfig(), 1)
        for W in rows:
            np.testing.assert_allclose(W.T @ W.conj(), rho.matrix, rtol=0, atol=1e-12)

    @staticmethod
    def tangents(seed, count=6):
        """A stack of random isometries and three stacks of tangent vectors
        there."""
        rng = np.random.default_rng(seed)
        shape = (count, 16, 4)
        V = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))[0]
        X = rng.standard_normal((3, *shape)) + 1j * rng.standard_normal((3, *shape))
        return roof._project(V, X)

    def test_bfgs_direction_meets_the_secant_condition(self):
        # H is minus the direction map, linear in g; with <s, y> > 0 it maps
        # y to s, is symmetric and positive definite
        g, s, y = self.tangents(1)
        y = y * np.sign(roof._inner(s, y))[:, None, None]
        assert (roof._inner(s, y) > 0).all()

        def H(x):
            d, quasi = roof._bfgs_direction(x, s, y)
            assert quasi.all()
            return -d

        np.testing.assert_allclose(H(y), s, rtol=0, atol=1e-12)
        assert (roof._inner(g, H(g)) > 0).all()
        u = self.tangents(2)[0]
        np.testing.assert_allclose(roof._inner(u, H(g)), roof._inner(H(u), g), rtol=1e-12)

    def test_bfgs_direction_without_curvature_is_steepest_descent(self):
        g, s, y = self.tangents(3)
        y = -y * np.sign(roof._inner(s, y))[:, None, None]
        y[0] = 0.0  # <s, y> = 0 exactly
        d, quasi = roof._bfgs_direction(g, s, y)
        assert not quasi.any()
        assert np.array_equal(d, -g)


Q3 = RegisterShape((3, 3))


def qutrit_werner(p):
    """p times the normalized antisymmetric projector of two qutrits, plus
    1 - p times the normalized symmetric one."""
    swap = np.eye(9)[[3 * (k % 3) + k // 3 for k in range(9)]]
    return DensityMatrix(Q3, p * (np.eye(9) - swap) / 6 + (1 - p) * (np.eye(9) + swap) / 12)


def qutrit_isotropic(f):
    """Fidelity f with the maximally entangled qutrit pair, the rest spread
    evenly over its orthogonal complement."""
    phi = np.eye(3).reshape(9) / np.sqrt(3)
    proj = np.outer(phi, phi)
    return DensityMatrix(Q3, f * proj + (1 - f) * (np.eye(9) - proj) / 8)


def isotropic_formation(f, d=3):
    """R(f) = h(g) + (1 - g) log2(d - 1), g = (sqrt(f) + sqrt((d - 1)(1 - f)))^2 / d,
    the formation value of an isotropic state (Terhal and Vollbrecht, PRL 85,
    2625 (2000)); for d = 3 it is its own convex hull for 1/3 <= f <= 8/9."""
    g = (np.sqrt(f) + np.sqrt((d - 1) * (1 - f))) ** 2 / d
    return -g * np.log2(g) - (1 - g) * np.log2(1 - g) + (1 - g) * np.log2(d - 1)


class TestAgainstQutritFormation:
    # a pure two-party member has M = O = S = its entanglement entropy, so
    # each roof is the formation value; 3 x 3 marginals take the eigh branch
    # of the objective, which the two-qubit closed form otherwise skips
    @pytest.mark.parametrize("measure", ["M", "O", "S"])
    @pytest.mark.parametrize("rho, exact", [
        (qutrit_werner(1.0), 1.0),
        (qutrit_isotropic(0.5), isotropic_formation(0.5)),
    ], ids=["werner-antisymmetric", "isotropic-0.5"])
    def test_roof_meets_the_formation_value(self, rho, exact, measure):
        value = roof_minimize(rho, measure, RoofConfig(restarts=4, tolerance=1e-10)).value
        assert exact - 1e-12 <= value <= exact + 1e-6


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

    def test_eof_takes_pure_states(self):
        psi = random_pure(Q2, seed=9)
        assert eof_two_qubit(psi) == eof_two_qubit(dm(psi))
        assert eof_two_qubit(ghz(2)) == eof_two_qubit(dm(ghz(2)))

    def test_eof_rejects_other_shapes(self):
        with pytest.raises(ValueError):
            eof_two_qubit(dm(ghz(3)))

    def test_eof_rejects_invalid_density(self):
        not_psd = DensityMatrix(Q2, np.diag([0.7, 0.5, -0.1, -0.1]))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            eof_two_qubit(not_psd)

    def test_roof_tracks_eof_on_werner(self):
        # two-qubit pure members have M = entanglement entropy, so the
        # M-roof should land on the closed-form formation value
        for p in (0.5, 0.8):
            rho = werner(p)
            res = roof_minimize(rho, "M", RoofConfig(restarts=6, seed=5))
            assert res.value == pytest.approx(eof_two_qubit(rho), abs=5e-3)

    def test_bench_formation_states_near_eof(self):
        # the four default-config roofs of the bench formation workload
        for seed in range(20_000, 20_004):
            rho = random_density(Q2, 4, seed=seed)
            assert roof_minimize(rho, "M", RoofConfig()).value == pytest.approx(
                eof_two_qubit(rho), abs=5e-5)

    def test_roof_tracks_eof_on_random_density(self):
        rho = random_density(Q2, 2, seed=42)
        res = roof_minimize(rho, "M", RoofConfig(restarts=8, seed=6))
        assert res.value == pytest.approx(eof_two_qubit(rho), abs=5e-3)


class TestDerivedChecks:
    def test_pcrc_gap_classically_correlated(self):
        # direct M on the 50/50 |00>,|11> mixture is 0.5; the roof over
        # product members is 0, so the gap sits at exactly one half
        pcrc = check_pcrc([classically_correlated()], FAST)
        assert pcrc.worst == pytest.approx(0.5, abs=1e-6)
        assert (pcrc.passed, pcrc.findings, pcrc.miss) == (True, 0, None)

    def test_pcrc_gap_pure_state_zero(self):
        assert abs(check_pcrc([ghz(3)], RoofConfig()).worst) < 1e-12

    def test_pcrc_check_fails_on_an_oracle_that_disagrees(self):
        # state seed 17 has the one converged negative gap of `verify pcrc`
        densities = [random_density(Q2, rank=2, seed=k) for k in range(20)]
        cfg = RoofConfig(restarts=8, seed=0)
        assert check_pcrc(densities, cfg).findings == 1
        pcrc = check_pcrc(densities, cfg, oracle=lambda rho: eof_two_qubit(rho) + 1.0)
        assert (pcrc.passed, pcrc.findings) == (False, 0)
        trial, gap, value, oracle = pcrc.miss
        assert (trial, gap) == (17, pcrc.worst)
        assert oracle - value == pytest.approx(1.0, abs=5e-3)

    def test_pcrc_check_needs_the_oracle_above_the_direct_value(self):
        # state seed 80_077 has a gap of -1.9e-3 that the formation value
        # certifies; an oracle at the direct value lies within 5e-3 of the
        # roof, but shows no gap
        rho = random_density(Q2, rank=2, seed=80_077)
        cfg = RoofConfig(restarts=6, seed=13)
        assert check_pcrc([rho], cfg).findings == 1
        pcrc = check_pcrc([rho], cfg, oracle=measure_M)
        assert (pcrc.passed, pcrc.miss[0]) == (False, 0)
        assert -5e-3 < pcrc.worst < -1e-6

    def test_flags_residual_single_member(self):
        e = Ensemble((1.0,), (epr(),))
        assert check_flags([e], FAST).worst < 1e-6

    def test_flags_residual_two_members(self):
        e = Ensemble((0.5, 0.5), (epr(), product([KET0, KET0])))
        assert check_flags([e], RoofConfig(restarts=6, seed=7)).worst < 5e-3

    def test_additivity_gap_product_inputs(self):
        gap = roof_additivity_gap(
            dm(epr()), classically_correlated(), "M", RoofConfig(restarts=6, seed=8)
        )
        assert abs(gap) < 5e-3

    def test_derived_checks_run_on_the_mixed_roof(self):
        # both checks pass their config to every roof they take; the mixed
        # roof keeps the flags and additivity identities on these inputs
        cfg = RoofConfig(restarts=4, seed=7, strategy="mixed_roof")
        e = Ensemble((0.5, 0.5), (epr(), product([KET0, KET0])))
        assert check_flags([e], cfg).worst < 5e-3
        assert abs(roof_additivity_gap(dm(epr()), classically_correlated(), "M", cfg)) < 5e-3


class TestBatchedObjective:
    # (2, 3) and (3, 2, 2) have cuts of unequal sides, taken on the smaller one
    DIMS = [(2, 2), (2, 2, 2), (2, 2, 2, 2), (2, 3), (3, 2, 2)]

    @staticmethod
    def rows(dims, seed, count=6):
        d = int(np.prod(dims))
        rng = np.random.default_rng(seed)
        W = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
        return W * rng.uniform(0.1, 2.0, size=(count, 1))  # rows of unequal weight

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

    @staticmethod
    def check_slopes(W, dims, measure, group=1):
        # G is the gradient with respect to conj(W), so the slope of the
        # total along a direction E is 2 Re <G, E>
        _, G = _pure_values(W, dims, measure, group)
        rng = np.random.default_rng(7)
        h = 1e-5
        for _ in range(3):
            E = rng.standard_normal(W.shape) + 1j * rng.standard_normal(W.shape)
            plus = _pure_values(W + h * E, dims, measure, group)[0].sum()
            minus = _pure_values(W - h * E, dims, measure, group)[0].sum()
            slope = 2 * np.vdot(G, E).real
            assert (plus - minus) / (2 * h) == pytest.approx(slope, rel=1e-6)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2), (2, 3), (2, 2, 2, 2)])
    @pytest.mark.parametrize("measure", ["M", "O", "S", "MW"])
    def test_gradient_matches_central_differences(self, dims, measure):
        self.check_slopes(self.rows(dims, 100 + len(dims)), dims, measure)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2), (2, 3), (3, 2, 2)])
    @pytest.mark.parametrize("measure", ["M", "O", "S", "MW"])
    @pytest.mark.parametrize("group", [2, 3])
    def test_grouped_rows_match_direct_measure(self, dims, measure, group):
        # each `group` consecutive rows mix into one member, whose value is
        # its weight times the direct measure of the normalized mixture
        W = self.rows(dims, len(dims))
        got, _ = _pure_values(W, dims, measure, group)
        assert got.shape == (len(W) // group,)
        for k, rows in enumerate(W.reshape(-1, group, W.shape[1])):
            rho = rows.T @ rows.conj()
            p = np.trace(rho).real
            member = DensityMatrix(RegisterShape(dims), rho / p)
            assert got[k] == pytest.approx(p * direct_measure(member, measure), abs=1e-12)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2), (2, 3)])
    @pytest.mark.parametrize("measure", ["M", "O", "S", "MW"])
    def test_grouped_gradient_matches_central_differences(self, dims, measure):
        self.check_slopes(self.rows(dims, 200 + len(dims)), dims, measure, group=3)

    @staticmethod
    def dense_grouped_values(W, dims, measure, group):
        """Values and gradient of the `group`-row members of W from D x D
        matrices, for M, O or S: each entropy term of `_correlations` on its
        own side, its marginal of sum_w w w^dag diagonalized, and its log
        applied to every row as the D x D operator log2(rho_K / p) x 1."""
        n, d = len(dims), W.shape[1]
        pairs = list(combinations(range(n), 2))
        basis = np.eye(n + len(pairs) + 1)
        coefs = _correlations(basis[:n], dict(zip(pairs, basis[n:-1])), basis[-1])[measure]
        keeps = [(i,) for i in range(n)] + pairs + [tuple(range(n))]
        values, grad = [], np.zeros_like(W)
        for k, rows in enumerate(W.reshape(-1, group, d)):
            rho = rows.T @ rows.conj()
            p = np.trace(rho).real
            value = 0.0
            for keep, coef in zip(keeps, coefs):
                lam, U = np.linalg.eigh(partial_trace_matrix(rho, dims, keep) / p)
                logs = np.where(lam > EIG_CLAMP, np.log2(np.where(lam > EIG_CLAMP, lam, 1.0)), 0.0)
                value -= coef * p * float(np.clip(lam, 0.0, None) @ logs)
                axes = list(keep) + [i for i in range(n) if i not in keep]
                sides = [dims[i] for i in axes]
                op = np.kron((U * logs) @ U.conj().T, np.eye(d // len(lam)))
                back = list(np.argsort(axes))
                op = op.reshape(sides * 2).transpose(back + [n + i for i in back]).reshape(d, d)
                grad[k * group:(k + 1) * group] -= coef * rows @ op.T
            values.append(value)
        return np.array(values), grad

    @pytest.mark.parametrize("measure", ["O", "S"])
    def test_grouped_whole_register_term_on_the_row_index_side(self, measure, monkeypatch):
        # six qubits in members of two rows: the whole-register term moves to
        # the row index, a 2 x 2 marginal, so no eigh is larger than a pair's
        dims = (2,) * 6
        W = self.rows(dims, 300)
        W /= np.linalg.norm(W)
        want, want_grad = self.dense_grouped_values(W, dims, measure, 2)
        sizes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: sizes.append(a.shape[-1]) or eigh(a))
        got, grad = _pure_values(W, dims, measure, 2)
        assert 64 not in sizes and all(size <= 4 for size in sizes)
        assert np.max(np.abs(got - want)) < 1e-12
        assert np.max(np.abs(grad - want_grad)) < 1e-12

    @pytest.mark.parametrize("measure", ["M", "S"])
    @pytest.mark.parametrize("dims, group", [((2, 2), 4), ((2, 2, 2), 2)])
    def test_grouped_tied_cuts_match_the_dense_oracle(self, dims, group, measure):
        # g D / dk = dk: the whole register of (2, 2) against four rows, and
        # the pair (1, 2) of (2, 2, 2) against site 0 and two rows, which
        # gathers across the rows
        W = self.rows(dims, 400 + group, count=8)
        want, want_grad = self.dense_grouped_values(W, dims, measure, group)
        got, grad = _pure_values(W, dims, measure, group)
        assert np.max(np.abs(got - want)) < 1e-12
        assert np.max(np.abs(grad - want_grad)) < 1e-12

    def test_grouped_terms_on_the_smaller_side_of_the_extended_register(self):
        # a member of g rows is a pure state of dims + (g,), so every term
        # moves to the smaller side of its cut there: the whole-register term
        # of O and S, and a pair term of two qubits, becomes the row index's
        assert _cuts((2, 2), "M", 2) == (((0,), 0.5), ((1,), 0.5), ((2,), -0.5))
        assert _cuts((2, 2), "O", 2) == (((0,), 0.5), ((1,), 0.5), ((2,), -0.5))
        assert _cuts((2, 3), "O", 2) == (((0,), 0.5), ((1,), 0.5), ((2,), -0.5))
        assert _cuts((2, 2, 2), "MW", 2) == (((0,), 1.0), ((1,), 1.0), ((2,), 1.0))
        assert _cuts((2, 2, 2), "O", 2)[-1] == ((3,), -0.5)
        # ties go to the lexicographically smaller set: the whole register
        # against four rows, and (0, 3) against the pair (1, 2)
        assert _cuts((2, 2), "S", 4) == (((0,), 0.5), ((1,), 0.5), ((0, 1), -0.5))
        assert [keep for keep, _ in _cuts((2, 2, 2), "S", 2)] == [
            (0,), (1,), (2,), (0, 1), (0, 2), (0, 3), (3,)
        ]
        assert [keep for keep, _ in _cuts((2, 2, 2), "M", 3)] == [
            (0,), (1,), (2,), (0, 1), (0, 2), (1, 2)
        ]

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
    @pytest.mark.parametrize("measure", ["M", "O", "S", "MW"])
    def test_dead_rows_have_zero_value_and_gradient(self, dims, measure):
        # rows 4-6 of edge_rows: a zero row and the weight-5e-15 row sit under
        # the 1e-14 liveness cut, the weight-2e-14 row just above it
        W = self.edge_rows(dims, 5)[4:7]
        values, G = _pure_values(W, dims, measure)
        assert values[0] == values[2] == 0.0
        assert not G[0].any() and not G[2].any()
        assert values[1] > 0.0 and G[1].any()

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

    def test_objective_memory_stays_chunk_sized(self):
        # 320 rows of seven qubits (a rank-4 roof's 20 restarts of 16 members)
        # gather 21 pair cuts of 128 entries each; in one stack with its
        # products they would take about 60 MB
        dims = (2,) * 7
        rng = np.random.default_rng(3)
        W = rng.standard_normal((320, 128)) + 1j * rng.standard_normal((320, 128))
        _pure_values(W, dims, "S")
        tracemalloc.start()
        try:
            _pure_values(W, dims, "S")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

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
