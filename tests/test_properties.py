"""Property tests of the measures and the roofs.

Hypothesis draws seeds and register shapes; the states come from the
package's seeded constructors. `derandomize=True` fixes the examples, so
the suite stays deterministic, and `max_examples` keeps it fast.
"""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totalcorr import (
    DensityMatrix,
    PureState,
    RegisterShape,
    RoofConfig,
    eof_two_qubit,
    measure_M,
    measure_MW,
    measure_O,
    measure_S,
    measure_S_form2,
    mix,
    product,
    random_density,
    random_pure,
    roof_minimize,
)
from totalcorr.core import _certified_spectrum
from totalcorr.measures import _entropy
from totalcorr.states import as_density

MEASURES = {"M": measure_M, "O": measure_O, "S": measure_S, "MW": measure_MW}
PROPERTY = settings(derandomize=True, deadline=None, max_examples=20)

seeds = st.integers(0, 2**32 - 1)
# qubits and qutrits on 2-4 sites, up to dimension 36
dims_st = st.lists(st.sampled_from([2, 3]), min_size=2, max_size=4).filter(
    lambda d: np.prod(d) <= 36
).map(tuple)
small_dims = dims_st.filter(lambda d: np.prod(d) <= 8)  # products up to dimension 64


def random_state(dims, seed, pure):
    """A pure state, or a density of rank 1..dim chosen by the seed."""
    shape = RegisterShape(dims)
    if pure:
        return random_pure(shape, seed)
    rank = 1 + seed % shape.dim
    return random_density(shape, rank, seed)


def haar_unitary(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def transformed(state, U):
    if isinstance(state, PureState):
        return PureState(state.shape, U @ state.amplitudes)
    return DensityMatrix(state.shape, U @ state.matrix @ U.conj().T)


def permuted(state, perm):
    dims = state.shape.dims
    shape = RegisterShape(tuple(dims[i] for i in perm))
    if isinstance(state, PureState):
        amps = state.amplitudes.reshape(dims).transpose(perm)
        return PureState(shape, amps.reshape(-1))
    n = len(dims)
    mat = state.matrix.reshape(dims + dims).transpose(list(perm) + [n + i for i in perm])
    return DensityMatrix(shape, mat.reshape(shape.dim, shape.dim))


@PROPERTY
@given(dims=dims_st, seed=seeds, pure=st.booleans())
def test_local_unitary_invariance(dims, seed, pure):
    state = random_state(dims, seed, pure)
    rng = np.random.default_rng(seed)
    U = reduce(np.kron, [haar_unitary(d, rng) for d in dims])
    moved = transformed(state, U)
    for name, fn in MEASURES.items():
        assert fn(moved) == pytest.approx(fn(state), abs=1e-9), name


@PROPERTY
@given(dims=dims_st, seed=seeds, pure=st.booleans(), data=st.data())
def test_subsystem_permutation_invariance(dims, seed, pure, data):
    state = random_state(dims, seed, pure)
    perm = data.draw(st.permutations(range(len(dims))))
    moved = permuted(state, perm)
    for name, fn in MEASURES.items():
        assert fn(moved) == pytest.approx(fn(state), abs=1e-9), name


@PROPERTY
@given(a_dims=small_dims, b_dims=small_dims, seed=seeds, pure=st.booleans())
def test_additive_on_products(a_dims, b_dims, seed, pure):
    a = random_state(a_dims, seed, pure)
    b = random_state(b_dims, seed + 1, pure)
    if pure:
        ab = product([a, b])
    else:
        ab = DensityMatrix(RegisterShape(a_dims + b_dims), np.kron(a.matrix, b.matrix))
    for name in ("M", "O", "S"):
        fn = MEASURES[name]
        assert fn(ab) == pytest.approx(fn(a) + fn(b), abs=1e-9), name


@PROPERTY
@given(n=st.integers(2, 4), seed=seeds)
def test_S_equals_its_relative_entropy_form(n, seed):
    psi = random_pure(RegisterShape((2,) * n), seed)
    assert measure_S_form2(psi) == pytest.approx(measure_S(psi), abs=1e-8)


@settings(derandomize=True, deadline=None, max_examples=12)
@given(seed=seeds, roof_seed=st.integers(0, 1000))
def test_two_qubit_rank_two_roof_lands_on_formation(seed, roof_seed):
    # on two qubits M of a pure member is its entanglement entropy, so the
    # roof of M is the entanglement of formation; the roof is an upper
    # bound, which may sit above it only by the optimizer's tolerance
    rho = random_density(RegisterShape((2, 2)), 2, seed)
    value = roof_minimize(rho, "M", RoofConfig(restarts=8, seed=roof_seed)).value
    eof = eof_two_qubit(rho)
    assert eof - 1e-9 <= value <= eof + 5e-3


@settings(derandomize=True, deadline=None, max_examples=12)
@given(
    dims=st.lists(st.sampled_from([2, 3]), min_size=2, max_size=3).map(tuple),
    rank=st.integers(2, 3),
    seed=seeds,
    measure=st.sampled_from(sorted(MEASURES)),
)
def test_mixed_roof_bounded_by_direct_and_pure_roof(dims, rank, seed, measure):
    # the state itself and the pure roof are two of the mixed roof's
    # candidates, so it can only undercut them; its value is the average of
    # the direct measure over the ensemble it returns, which mixes to rho
    rho = random_density(RegisterShape(dims), rank, seed)
    cfg = RoofConfig(restarts=4, strategy="mixed_roof")
    res = roof_minimize(rho, measure, cfg)
    fn = MEASURES[measure]
    pure = roof_minimize(rho, measure, RoofConfig(restarts=4)).value
    assert res.value <= min(fn(rho), pure) + 1e-12
    average = sum(p * fn(member) for p, member in zip(res.ensemble.weights, res.ensemble.members))
    assert abs(res.value - average) <= 1e-10
    assert np.max(np.abs(mix(res.ensemble).matrix - rho.matrix)) <= 1e-10
    again = roof_minimize(rho, measure, cfg)
    assert (again.value, again.per_restart_values, again.converged) == (
        res.value, res.per_restart_values, res.converged)
    assert again.ensemble.weights == res.ensemble.weights
    for a, b in zip(again.ensemble.members, res.ensemble.members):
        assert np.array_equal(as_density(a).matrix, as_density(b).matrix)


@PROPERTY
@given(n=st.integers(6, 9), rank=st.integers(1, 40), seed=seeds)
def test_whole_state_spectrum_matches_dense(n, rank, seed):
    # low rank or not, the spectrum and the entropy are the dense ones
    rho = random_density(RegisterShape((2,) * n), rank, seed)
    dense = np.linalg.eigvalsh(rho.matrix)
    got = _certified_spectrum(rho.matrix)[0]
    assert np.max(np.abs(got - dense)) < 1e-13
    assert abs(_entropy(got) - _entropy(dense)) < 1e-13
