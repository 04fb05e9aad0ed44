"""Correlation functionals evaluated directly on states.

All logarithms are base 2, so every quantity is reported in bits and
the qubit bounds come out as integers or half-integers. For mixed
inputs the functions return the direct functional value; the roof
extension is a separate, explicit call in :mod:`totalcorr.roof`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .core import (
    DensityMatrix,
    RegisterShape,
    SupportError,
    _by_dimension,
    _check_keep,
    _pure_marginal_stacks,
    _require_density,
    partial_trace_matrix,
)
from .states import PureState, State, as_density

EIG_CLAMP = 1e-12
SUPPORT_TOL = 1e-10
MEASURE_NAMES = ("M", "O", "S", "MW")


def _log2_clamped(lam: np.ndarray) -> np.ndarray:
    """log2 of each eigenvalue, and 0 for those at or below EIG_CLAMP."""
    return np.log2(np.where(lam > EIG_CLAMP, lam, 1.0))


def _entropy(spectra: np.ndarray) -> np.ndarray:
    """Entropy of each spectrum along the last axis; eigenvalues at or below
    EIG_CLAMP contribute 0."""
    lam = np.asarray(spectra, dtype=float)
    return -(lam * _log2_clamped(lam)).sum(axis=-1)


def _marginals(state: State, keeps: Sequence[tuple[int, ...]],
               kept: int = 0) -> tuple[list[np.ndarray], list[float], float]:
    """The marginals on the first `kept` keeps, the entropy of the marginal
    on each keep, by position, and S(state).

    A density is checked first, by `von_neumann_entropy`, so an invalid one
    is rejected before any marginal is taken. Every keep must be sorted and
    in range, as `_check_keep` returns it; none is checked here. A pure
    state's marginals come from one stacked contraction, a density's from
    its partial traces stacked by size. Each stack takes one eigvalsh, and
    no other matrix outlives its stack.
    """
    whole = von_neumann_entropy(state)
    dims = state.shape.dims
    if isinstance(state, PureState):
        groups = _pure_marginal_stacks(state.amplitudes, dims, keeps)
    else:
        groups = ((ks, np.stack([partial_trace_matrix(state.matrix, dims, keeps[k]) for k in ks]))
                  for ks in _by_dimension(dims, keeps).values())
    mats, out = [None] * kept, [0.0] * len(keeps)
    for ks, stack in groups:
        for k, mat, value in zip(ks, stack, _entropy(np.linalg.eigvalsh(stack)).tolist()):
            out[k] = value
            if k < kept:
                mats[k] = mat
    return mats, out, whole


def von_neumann_entropy(rho: State) -> float:
    """S(rho) = -Tr rho log2 rho; eigenvalues below the clamp contribute 0.
    A density's positivity is checked on the same spectrum."""
    if isinstance(rho, PureState):
        return 0.0
    return float(_entropy(_require_density(rho)))


def linear_entropy(rho: State) -> float:
    """1 - Tr rho^2, in [0, 1 - 1/D]."""
    if isinstance(rho, PureState):
        return 0.0
    _require_density(rho)
    return _linear_entropy_sum([rho.matrix])


def mutual_information(state: State, a: Iterable[int], b: Iterable[int]) -> float:
    """I(A:B) = S(A) + S(B) - S(AB), evaluated on the reduced state."""
    n = state.shape.nsites
    a, b = _check_keep(a, n), _check_keep(b, n)
    if set(a) & set(b):
        raise ValueError(f"index sets overlap: {a} and {b}")
    s_a, s_b, s_ab = _marginals(state, [a, b, tuple(sorted(a + b))])[1]
    return s_a + s_b - s_ab


def _correlations(singles: Sequence, pairs: dict, whole) -> dict:
    """P of each pair, O, M and S from marginal entropies, keyed by name.

    `singles[i]` is S(rho_i), `pairs[(i, j)]` is S(rho_ij) in `combinations`
    order, and `whole` is S(rho): floats for one state, or per-row arrays
    for a batch of pure members. M is a running sum rather than `sum()`,
    which compensates float sums on newer Pythons, so both kinds of input
    add in the same order.
    """
    probes = {(i, j): 0.5 * (singles[i] + singles[j] - s_ij) for (i, j), s_ij in pairs.items()}
    m_val = 0.0
    for value in probes.values():
        m_val += value
    o_val = 0.5 * (sum(singles) - whole)
    return {"P": probes, "O": o_val, "M": m_val, "S": 0.5 * (o_val + m_val)}


def _linear_entropy_sum(reds: Iterable[np.ndarray]) -> float:
    """Sum of 1 - Tr(red^2) over unit-trace Hermitian matrices; Tr red^2 is
    the sum of red's squared moduli."""
    total = 0.0
    for red in reds:
        total += 1.0 - float(np.vdot(red, red).real)
    return total


def _marginal_pass(state: State, with_pairs: bool = True) -> tuple[list[np.ndarray], dict]:
    """Single-site matrices and the correlations, from one pass over the marginals.

    Pair marginals are skipped without `with_pairs`, for O and MW. A density
    that is not Hermitian, unit-trace and positive is rejected.
    """
    n = state.shape.nsites
    subsets = [(i,) for i in range(n)]
    if with_pairs:
        if n < 2:
            raise ValueError("pairwise measures require at least 2 subsystems")
        subsets += combinations(range(n), 2)
    reds, entropies, whole = _marginals(state, subsets, kept=n)
    pairs = dict(zip(subsets[n:], entropies[n:]))
    return reds, _correlations(entropies[:n], pairs, whole)


def _direct(state: State, name: str) -> float:
    """Direct value of M, O, S or MW from one marginal pass; O and MW skip
    the pair marginals."""
    reds, corr = _marginal_pass(state, name not in ("O", "MW"))
    return _linear_entropy_sum(reds) if name == "MW" else corr[name]


def measure_M(state: State) -> float:
    """Sum of the pairwise probe over all unordered subsystem pairs."""
    return _direct(state, "M")


def measure_O(state: State) -> float:
    """Global correlations: (sum_i S(rho_i) - S(rho)) / 2."""
    return _direct(state, "O")


def measure_S(state: State) -> float:
    """Combined total-correlation measure (O + M)/2."""
    return _direct(state, "S")


def measure_MW(state: State) -> float:
    """Sum of single-site linear entropies."""
    return _direct(state, "MW")


def _tr_log2(rho: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> float:
    """Tr rho log2 sigma over supp sigma, for sigma = vecs diag(vals) vecs^dag.

    Eigenvalues at or below SUPPORT_TOL are outside the support; SupportError
    is raised when rho puts more than SUPPORT_TOL of its weight there.
    """
    on_support = vals > SUPPORT_TOL
    overlaps = (vecs.conj() * (rho @ vecs)).sum(axis=0).real
    leak = float(overlaps[~on_support].sum())
    if leak > SUPPORT_TOL:
        raise SupportError(f"support violation: weight {leak:.3e} outside supp(sigma)")
    return float((overlaps[on_support] * np.log2(vals[on_support])).sum())


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Tr rho (log2 rho - log2 sigma); requires supp(rho) within supp(sigma).

    Both arguments must be density matrices; each is validated on the
    spectrum computed here anyway.
    """
    if rho.shape != sigma.shape:
        raise ValueError("states must share one register shape")
    svals, svecs = np.linalg.eigh(sigma.matrix)
    _require_density(sigma, svals)
    rvals = _require_density(rho)
    return -float(_entropy(rvals)) - _tr_log2(rho.matrix, svals, svecs)


def measure_S_form2(state: State) -> float:
    """Relative-entropy form of measure_S.

    [sum_{i<j} S(rho_ij || rho_i x rho_j) + S(rho || rho_1 x ... x rho_N)] / 4;
    agrees with measure_S to high precision. Each term is -S(rho_A) -
    Tr rho_A log2 sigma_A, and the eigenpairs of a product sigma_A are the
    Kronecker products of its factors': each single-site marginal is
    diagonalized once, and no product is. One marginal pass gives every
    marginal and entropy, and checks a density once.
    """
    n = state.shape.nsites
    if n < 2:
        raise ValueError("requires at least 2 subsystems")
    pairs = list(combinations(range(n), 2))
    mats, entropies, whole = _marginals(state, [(i,) for i in range(n)] + pairs, n + len(pairs))
    eigs = [np.linalg.eigh(mat) for mat in mats[:n]]
    terms = zip(pairs + [range(n)], mats[n:] + [as_density(state).matrix], entropies[n:] + [whole])
    total = 0.0
    for sites, mat, entropy in terms:
        vals = reduce(np.kron, [eigs[i][0] for i in sites])
        vecs = reduce(np.kron, [eigs[i][1] for i in sites])
        total -= entropy + _tr_log2(mat, vals, vecs)
    return total / 4.0


def bound_M(n: int, d: int = 2) -> float:
    """Normalization bound C(n,2) log2 d / (2 - delta_{n,2}) for the pairwise sum."""
    if n < 2 or d < 2:
        raise ValueError("requires n >= 2 and d >= 2")
    return math.comb(n, 2) * math.log2(d) / (2 - (n == 2))


def bound_S(n: int, d: int = 2) -> float:
    """Normalization bound (C(n,2)/(2 - delta_{n,2}) + n/2)/2 * log2 d."""
    if n < 2 or d < 2:
        raise ValueError("requires n >= 2 and d >= 2")
    return (math.comb(n, 2) / (2 - (n == 2)) + n / 2) / 2 * math.log2(d)


def ssa_check(rho: State) -> float:
    """Strong-subadditivity residual S(XY) + S(YZ) - S(Y) - S(XYZ) >= 0.

    Requires exactly three subsystems; group indices beforehand if needed.
    """
    if rho.shape.nsites != 3:
        raise ValueError("ssa_check requires exactly 3 subsystems")
    _, (s_xy, s_yz, s_y), s_xyz = _marginals(rho, [(0, 1), (1, 2), (1,)])
    return s_xy + s_yz - s_y - s_xyz


def direct_measure(state: State, name: str) -> float:
    """Direct value of a named measure (M, O, S or MW) on a state."""
    if name not in MEASURE_NAMES:
        raise ValueError(f"unknown measure {name!r}; choose from {list(MEASURE_NAMES)}")
    return _direct(state, name)


@dataclass(frozen=True)
class MeasureReport:
    """All correlation quantities for one state, in bits."""

    shape: RegisterShape
    pair_values: dict[tuple[int, int], float]
    O: float
    M: float
    S: float
    MW: float
    bound_M: float
    bound_S: float


def measure_report(state: State) -> MeasureReport:
    """Evaluate every measure once and collect them in a report.

    Bounds use the largest local dimension, which stays an upper bound
    for mixed-dimension registers.
    """
    reds, corr = _marginal_pass(state)
    n, d = state.shape.nsites, max(state.shape.dims)
    return MeasureReport(
        shape=state.shape,
        pair_values=corr["P"],
        O=corr["O"],
        M=corr["M"],
        S=corr["S"],
        MW=_linear_entropy_sum(reds),
        bound_M=bound_M(n, d),
        bound_S=bound_S(n, d),
    )
