"""Constructors for named multi-qubit states, parametric families,
ensembles and random states, plus the state file format."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from .core import DensityMatrix, RegisterShape, _blocks, _frozen_complex, _indices, _require_density

NORM_TOL = 1e-10


@dataclass(frozen=True, slots=True, eq=False)
class PureState:
    """Normalized complex amplitude vector over a register; compares and
    hashes by identity, as `DensityMatrix` does."""

    shape: RegisterShape
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = _frozen_complex(self.amplitudes, (self.shape.dim,))
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalized: |psi| = {norm!r}")
        object.__setattr__(self, "amplitudes", amps)


State = Union[PureState, DensityMatrix]


@dataclass(frozen=True, slots=True)
class Ensemble:
    """Probability-weighted list of states sharing one register shape."""

    weights: tuple[float, ...]
    members: tuple[State, ...]

    def __post_init__(self) -> None:
        weights = tuple(float(w) for w in self.weights)
        members = tuple(self.members)
        if not members:
            raise ValueError("ensemble must have at least one member")
        if len(weights) != len(members):
            raise ValueError("weights and members differ in length")
        if not all(0 <= w < math.inf for w in weights):
            raise ValueError("weights must be finite and non-negative")
        if abs(sum(weights) - 1.0) > NORM_TOL:
            raise ValueError(f"weights must sum to 1, got {sum(weights)!r}")
        shape = members[0].shape
        if any(m.shape != shape for m in members):
            raise ValueError("ensemble members must share one register shape")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "members", members)

    @property
    def shape(self) -> RegisterShape:
        return self.members[0].shape


def _qubits(n: int) -> RegisterShape:
    return RegisterShape((2,) * n)


def _ghz_terms(n: int) -> tuple[list[int], float]:
    """The basis indices of GHZ_n's terms and their common amplitude."""
    return [0, 2 ** n - 1], 1 / math.sqrt(2)


def _w_terms(n: int) -> tuple[np.ndarray, float]:
    """The basis indices of W_n's terms, of Hamming weight 1, and their
    common amplitude."""
    return 1 << np.arange(n), 1 / math.sqrt(n)


def _wbar_terms(n: int) -> tuple[np.ndarray, float]:
    """The basis indices of Wbar_n's terms, of Hamming weight n - 1, and
    their common amplitude."""
    return (2 ** n - 1) ^ (1 << np.arange(n)), 1 / math.sqrt(n)


def _superposition(n: int, *branches: tuple[float, tuple]) -> PureState:
    """sum_b c_b |branch_b> on n qubits, checked once, from (c_b, terms)
    pairs; the branches' terms must not share a basis index."""
    amps = np.zeros(2 ** n, dtype=complex)
    for weight, (indices, amplitude) in branches:
        amps[indices] = weight * amplitude
    return PureState(_qubits(n), amps)


def _size(name: str, n: int) -> int:
    """n as an int, when the family `name` of `FAMILIES` has a member of
    that size; otherwise ValueError."""
    (n,) = _indices([n], "n")
    fam = FAMILIES[name]
    if not fam.allows(n):
        raise ValueError(f"{name} requires {'an even ' if fam.even_only else ''}n >= {fam.min_n}")
    return n


def ghz(n: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2) on n qubits."""
    n = _size("ghz", n)
    return _superposition(n, (1.0, _ghz_terms(n)))


def epr() -> PureState:
    """Two-qubit maximally entangled state; identical to ghz(2)."""
    return ghz(2)


def w(n: int) -> PureState:
    """Equal superposition of the n Hamming-weight-1 basis states."""
    n = _size("w", n)
    return _superposition(n, (1.0, _w_terms(n)))


def wbar(n: int) -> PureState:
    """Equal superposition of the n Hamming-weight-(n-1) basis states."""
    n = _size("wbar", n)
    return _superposition(n, (1.0, _wbar_terms(n)))


def cluster(n: int) -> PureState:
    """Four-term cluster-type state on an even number n >= 4 of qubits.

    (|0>^n + |0>^{n/2}|1>^{n/2} + |1>^{n/2}|0>^{n/2} - |1>^n)/2; the 1/2
    prefactor is forced by normalization of the four orthogonal terms.
    """
    n = _size("cluster", n)
    h = n // 2
    low = (1 << h) - 1
    return _superposition(n, (1.0, ([0, low, low << h], 0.5)), (-1.0, ([2 ** n - 1], 0.5)))


def family1(x: float, n: int) -> PureState:
    """sqrt(x)*GHZ_n + sqrt(1-x)*W_n (orthogonal branches, n >= 3)."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    n = _size("family1", n)
    return _superposition(n, (math.sqrt(x), _ghz_terms(n)), (math.sqrt(1 - x), _w_terms(n)))


def family2(x: float, n: int) -> PureState:
    """sqrt(x)*W_n + sqrt(1-x)*Wbar_n for n >= 3 (W and Wbar coincide at n = 2)."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    n = _size("family2", n)
    return _superposition(n, (math.sqrt(x), _w_terms(n)), (math.sqrt(1 - x), _wbar_terms(n)))


def product(states: Sequence[PureState]) -> PureState:
    """Tensor product of pure states, left to right."""
    if not states:
        raise ValueError("product requires at least one state")
    amps = states[0].amplitudes
    dims = list(states[0].shape.dims)
    for s in states[1:]:
        amps = np.kron(amps, s.amplitudes)
        dims.extend(s.shape.dims)
    return PureState(RegisterShape(tuple(dims)), amps)


def epr_power(n: int) -> PureState:
    """EPR^{(x)(n/2)} for even n."""
    n = _size("epr_power", n)
    return product([epr()] * (n // 2))


class Family(NamedTuple):
    """A named state family: its constructor and the sizes n it has members for."""

    build: Callable[[int, float | None], PureState]
    min_n: int
    max_n: int | None = None
    even_only: bool = False
    parametric: bool = False

    def allows(self, n: int) -> bool:
        return (n >= self.min_n and (self.max_n is None or n <= self.max_n)
                and not (self.even_only and n % 2))


# The builders look the constructors up when called, so a constructor
# replaced on this module (by a profiler, say) is the one that runs.
FAMILIES = {
    "cluster": Family(lambda n, x: cluster(n), 4, even_only=True),
    "epr": Family(lambda n, x: epr(), 2, max_n=2),
    "epr_power": Family(lambda n, x: epr_power(n), 2, even_only=True),
    "family1": Family(lambda n, x: family1(x, n), 3, parametric=True),
    "family2": Family(lambda n, x: family2(x, n), 3, parametric=True),
    "ghz": Family(lambda n, x: ghz(n), 2),
    "w": Family(lambda n, x: w(n), 2),
    "wbar": Family(lambda n, x: wbar(n), 2),
}


def family_state(name: str, n: int | None = None, x: float | None = None) -> PureState:
    """The n-site member of a named family, at parameter x for a parametric one.

    n may be left out for a family with a single size. A non-integral n, a
    size the family does not allow, or an x for a family without a
    parameter, raises ValueError. The constructor runs first, so that its
    own message stands wherever it checks n itself.
    """
    fam = FAMILIES[name]
    if n is None and fam.min_n == fam.max_n:
        n = fam.min_n
    if n is None:
        raise ValueError(f"state family {name} requires n")
    (n,) = _indices([n], "n")
    if fam.parametric and x is None:
        raise ValueError(f"state family {name} requires x")
    state = fam.build(n, x)
    if not fam.allows(n):
        raise ValueError(f"state family {name} has no member with n = {n}")
    if x is not None and not fam.parametric:
        raise ValueError(f"state family {name} takes no x")
    return state


def dm(psi: PureState) -> DensityMatrix:
    """Rank-1 density matrix |psi><psi|."""
    return DensityMatrix._adopt(psi.shape, np.outer(psi.amplitudes, psi.amplitudes.conj()))


def as_density(state: State) -> DensityMatrix:
    return dm(state) if isinstance(state, PureState) else state


def mix(e: Ensemble) -> DensityMatrix:
    """Weighted mixture sum_i p_i rho_i of the ensemble members."""
    out = np.zeros((e.shape.dim,) * 2, dtype=complex)
    for p, member in zip(e.weights, e.members):
        out += p * as_density(member).matrix
    return DensityMatrix._adopt(e.shape, out)


def flagged_mixture(e: Ensemble) -> DensityMatrix:
    """sum_i p_i rho_i (x) |i><i| with one appended flag subsystem.

    The flag dimension is max(k, 2) so the result remains a valid
    register even for a single member. Each p_i rho_i is written into its
    flag block through a (D, f, D, f) view of the result.
    """
    fdim = max(len(e.members), 2)
    d = e.shape.dim
    out = np.zeros((d, fdim, d, fdim), dtype=complex)
    for i, (p, member) in enumerate(zip(e.weights, e.members)):
        out[:, i, :, i] = p * as_density(member).matrix
    return DensityMatrix._adopt(RegisterShape(e.shape.dims + (fdim,)),
                                out.reshape(d * fdim, d * fdim))


def random_pure(shape: RegisterShape, seed: int) -> PureState:
    """Haar-distributed pure state, deterministic per seed."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(shape.dim) + 1j * rng.standard_normal(shape.dim)
    return PureState(shape, v / np.linalg.norm(v))


def random_density(shape: RegisterShape, rank: int, seed: int) -> DensityMatrix:
    """Random rank-limited mixture of Haar pure states, deterministic per seed.

    Each weighted outer product is added in row blocks, and the result is
    kept without a copy, so that no D x D array is made beside it."""
    d = shape.dim
    (rank,) = _indices([rank], "rank")
    if not 1 <= rank <= d:
        raise ValueError(f"rank must lie in 1..{d}, got {rank}")
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(rank))
    out = np.zeros((d, d), dtype=complex)
    for p in weights:
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        vc = v.conj()
        for blk in _blocks(d, d):
            out[blk] += p * np.outer(v[blk], vc)
    return DensityMatrix._adopt(shape, out)


# --- state file format -------------------------------------------------

def _pairs(arr: np.ndarray):
    return [[float(z.real), float(z.imag)] for z in arr]


def save_state(state: State, path) -> None:
    """Write a state as JSON with dims plus amplitudes or matrix."""
    doc: dict = {"dims": list(state.shape.dims)}
    if isinstance(state, PureState):
        doc["amplitudes"] = _pairs(state.amplitudes)
    else:
        doc["matrix"] = [_pairs(row) for row in state.matrix]
    Path(path).write_text(json.dumps(doc))


def _from_pairs(entries, depth: int) -> list:
    """The complex numbers of `depth` nested lists of [re, im] pairs, the
    layout `save_state` writes, rows of one length; any other layout raises
    ValueError."""
    if not isinstance(entries, list):
        raise ValueError(f"state file has {entries!r:.40} where a list belongs")
    if depth > 1:
        rows = [_from_pairs(row, depth - 1) for row in entries]
        for i, row in enumerate(rows):
            if len(row) != len(rows[0]):
                raise ValueError(
                    f"state file row {i} has {len(row)} entries, row 0 has {len(rows[0])}")
        return rows
    for z in entries:
        if not (isinstance(z, list) and len(z) == 2 and all(isinstance(x, (int, float)) for x in z)):
            raise ValueError(f"state file entry {z!r:.40} is not a [re, im] pair of numbers")
    return [complex(re, im) for re, im in entries]


def load_state(path) -> State:
    """Read a state file written by :func:`save_state`; a file of another
    layout, or with both amplitudes and a matrix, raises ValueError."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict) or not isinstance(doc.get("dims"), list):
        raise ValueError("state file must be a JSON object with a 'dims' list")
    shape = RegisterShape(tuple(doc["dims"]))
    if "amplitudes" in doc and "matrix" in doc:
        raise ValueError("state file must contain 'amplitudes' or 'matrix', not both")
    if "amplitudes" in doc:
        return PureState(shape, np.array(_from_pairs(doc["amplitudes"], 1)))
    if "matrix" in doc:
        rho = DensityMatrix._adopt(shape, np.array(_from_pairs(doc["matrix"], 2)))
        _require_density(rho)
        return rho
    raise ValueError("state file must contain 'amplitudes' or 'matrix'")
