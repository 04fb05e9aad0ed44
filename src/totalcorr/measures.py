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
    ResourceLimitError,
    SupportError,
    _require_density,
    partial_trace_matrix,
    pure_marginal,
)
from .states import PureState, State, as_density

EIG_CLAMP = 1e-12
SUPPORT_TOL = 1e-10
SUBSET_SUM_MAX_SITES = 12


def _entropy(spectra: np.ndarray) -> np.ndarray:
    """Entropy of each spectrum along the last axis; eigenvalues at or below
    EIG_CLAMP contribute 0."""
    lam = np.asarray(spectra, dtype=float)
    lam = np.where(lam > EIG_CLAMP, lam, 1.0)
    return -(lam * np.log2(lam)).sum(axis=-1)


def _entropies(mats: Sequence[np.ndarray]) -> list[float]:
    """Entropy of each Hermitian matrix; one eigvalsh per stack of equal size."""
    out = [0.0] * len(mats)
    for size in {len(mat) for mat in mats}:
        ks = [k for k, mat in enumerate(mats) if len(mat) == size]
        spectra = np.linalg.eigvalsh(np.stack([mats[k] for k in ks]))
        for k, value in zip(ks, _entropy(spectra).tolist()):
            out[k] = value
    return out


def _marginal(state: State, keep: Iterable[int]) -> np.ndarray:
    """Reduced matrix on `keep`; contracts amplitudes directly for pure input."""
    if isinstance(state, PureState):
        return pure_marginal(state.amplitudes, state.shape.dims, keep)
    return partial_trace_matrix(state.matrix, state.shape.dims, keep)


def _whole_entropy(state: State, check: bool = True) -> float:
    """S(rho); a density's positivity is checked on the same spectrum."""
    if isinstance(state, PureState):
        return 0.0
    spectrum = np.linalg.eigvalsh(state.matrix)
    if check:
        _require_density(state, spectrum)
    return float(_entropy(spectrum))


def von_neumann_entropy(rho: State) -> float:
    """S(rho) = -Tr rho log2 rho; eigenvalues below the clamp contribute 0."""
    return _whole_entropy(rho)


def linear_entropy(rho: State) -> float:
    """1 - Tr rho^2, in [0, 1 - 1/D]."""
    if isinstance(rho, PureState):
        return 0.0
    _require_density(rho)
    return _linear_entropy_sum([rho.matrix])


def mutual_information(state: State, a: Iterable[int], b: Iterable[int]) -> float:
    """I(A:B) = S(A) + S(B) - S(AB), evaluated on the reduced state."""
    a = tuple(sorted({int(i) for i in a}))
    b = tuple(sorted({int(i) for i in b}))
    if not a or not b:
        raise ValueError("index sets must be non-empty")
    if set(a) & set(b):
        raise ValueError(f"index sets overlap: {a} and {b}")
    if isinstance(state, DensityMatrix):
        _require_density(state)
    s_a, s_b, s_ab = _entropies([_marginal(state, k) for k in (a, b, a + b)])
    return s_a + s_b - s_ab


def pairwise_probe(state: State, i: int, j: int) -> float:
    """P(i, j) = I(i:j)/2, the two-site total-correlation probe."""
    return 0.5 * mutual_information(state, (i,), (j,))


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
    """Sum of 1 - Tr(red^2) over unit-trace matrices."""
    total = 0.0
    for red in reds:
        total += 1.0 - float(np.real(np.trace(red @ red)))
    return total


def _marginal_pass(state: State, with_pairs: bool = True,
                   check: bool = True) -> tuple[list[np.ndarray], dict]:
    """Single-site matrices and the correlations, from one pass over the marginals.

    Pair marginals are skipped without `with_pairs`, for O alone. `check`
    rejects a density that is not Hermitian, unit-trace and positive.
    """
    n = state.shape.nsites
    subsets = [(i,) for i in range(n)]
    if with_pairs:
        if n < 2:
            raise ValueError("pairwise measures require at least 2 subsystems")
        subsets += combinations(range(n), 2)
    reds = [_marginal(state, keep) for keep in subsets]
    entropies = _entropies(reds)
    pairs = dict(zip(subsets[n:], entropies[n:]))
    return reds[:n], _correlations(entropies[:n], pairs, _whole_entropy(state, check))


def _direct(state: State, name: str, check: bool = True) -> float:
    """Direct value of M, O, S or MW from one marginal pass."""
    if name != "MW":
        return _marginal_pass(state, name != "O", check)[1][name]
    if check and isinstance(state, DensityMatrix):
        _require_density(state)
    return _linear_entropy_sum(_marginal(state, (i,)) for i in range(state.shape.nsites))


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


def bipartite_correlation(state: State, part: Iterable[int]) -> float:
    """S(rho_part) + S(rho_complement) - S(rho) across one bipartition."""
    n = state.shape.nsites
    part = tuple(sorted({int(i) for i in part}))
    rest = tuple(i for i in range(n) if i not in set(part))
    if not part or not rest:
        raise ValueError("bipartition must be proper and non-empty")
    s_p, s_r = _entropies([_marginal(state, part), _marginal(state, rest)])
    return s_p + s_r - von_neumann_entropy(state)


def subset_correlation_sum(state: State) -> float:
    """Sum of bipartite_correlation over all bipartitions, each counted once.

    A subset and its complement describe the same bipartition; the sum runs
    over the 2^(N-1) - 1 subsets containing subsystem 0 (full set excluded).
    S(rho) is computed, and a density validated, once for the whole sum.
    """
    n = state.shape.nsites
    if n < 2:
        raise ValueError("subset sum requires at least 2 subsystems")
    if n > SUBSET_SUM_MAX_SITES:
        raise ResourceLimitError(
            f"subset sum over {2 ** (n - 1) - 1} bipartitions exceeds the "
            f"{SUBSET_SUM_MAX_SITES}-subsystem cap"
        )
    whole = von_neumann_entropy(state)
    total = 0.0
    for mask in range(2 ** (n - 1) - 1):
        part = (0,) + tuple(i for i in range(1, n) if mask >> (i - 1) & 1)
        rest = tuple(i for i in range(1, n) if not mask >> (i - 1) & 1)
        s_p, s_r = _entropies([_marginal(state, part), _marginal(state, rest)])
        total += s_p + s_r - whole
    return total


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Tr rho (log2 rho - log2 sigma); requires supp(rho) within supp(sigma).

    Both arguments must be density matrices; each is validated on the
    spectrum computed here anyway.
    """
    if rho.shape != sigma.shape:
        raise ValueError("states must share one register shape")
    svals, svecs = np.linalg.eigh(sigma.matrix)
    _require_density(sigma, svals)
    rvals = np.linalg.eigvalsh(rho.matrix)
    _require_density(rho, rvals)
    on_support = svals > SUPPORT_TOL
    overlaps = np.real(np.einsum("ik,ij,jk->k", svecs.conj(), rho.matrix, svecs))
    leak = float(overlaps[~on_support].sum())
    if leak > SUPPORT_TOL:
        raise SupportError(f"support violation: weight {leak:.3e} outside supp(sigma)")
    tr_rho_log_sigma = float((overlaps[on_support] * np.log2(svals[on_support])).sum())
    return -float(_entropy(rvals)) - tr_rho_log_sigma


def measure_S_form2(state: State) -> float:
    """Relative-entropy form of measure_S.

    [sum_{i<j} S(rho_ij || rho_i x rho_j) + S(rho || rho_1 x ... x rho_N)] / 4;
    agrees with measure_S to high precision.
    """
    n = state.shape.nsites
    if n < 2:
        raise ValueError("requires at least 2 subsystems")
    shape = state.shape
    singles = [_marginal(state, (i,)) for i in range(n)]
    total = 0.0
    for i, j in combinations(range(n), 2):
        pair_shape = shape.restrict((i, j))
        total += relative_entropy(
            DensityMatrix(pair_shape, _marginal(state, (i, j))),
            DensityMatrix(pair_shape, np.kron(singles[i], singles[j])),
        )
    full_product = reduce(np.kron, singles)
    total += relative_entropy(as_density(state), DensityMatrix(shape, full_product))
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
    s_xy, s_yz, s_y = _entropies([_marginal(rho, k) for k in ((0, 1), (1, 2), (1,))])
    return s_xy + s_yz - s_y - von_neumann_entropy(rho)


def direct_measure(state: State, name: str) -> float:
    """Direct value of a named measure (M, O, S or MW) on a state."""
    if name not in ("M", "O", "S", "MW"):
        raise ValueError(f"unknown measure {name!r}; choose from ['M', 'MW', 'O', 'S']")
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
