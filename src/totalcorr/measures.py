"""Correlation functionals evaluated directly on states.

All logarithms are base 2, so every quantity is reported in bits and
the qubit bounds come out as integers or half-integers. For mixed
inputs the functions return the direct functional value; the roof
extension is a separate, explicit call in :mod:`totalcorr.roof`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import (
    RegisterShape,
    SupportError,
    _by_dimension,
    _check_keep,
    _keep_first,
    _per_block,
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


def _marginals(states: Sequence[State], keeps: Sequence[tuple[int, ...]], kept: int = 0
               ) -> list[tuple[list[np.ndarray], list[float], float]]:
    """For each of `states`: the marginals on the first `kept` keeps, the
    entropy of the marginal on each keep, by position, and S(state).

    The states are one density on its own, or pure states of one register
    shape, as `_reports` checks. The marginals are grouped by size once,
    by `_by_dimension`, and each group is one stack: for pure states one
    stacked contraction of their amplitudes, for a density its partial
    traces. A density is checked first, by `von_neumann_entropy`, so an
    invalid one is rejected before any marginal is taken. Every keep must
    be sorted and in range, as `_check_keep` returns it; none is checked
    here. Each stack takes one eigvalsh, and no other matrix outlives its
    stack.

    An entropy the pass can read for free takes no marginal: a keep of
    every site has S(state), and a pure state's marginal has the entropy of
    its complement's, which is taken instead when the complement's
    dimension is strictly smaller. A kept keep, and a keep whose complement
    ties it, is taken as given.
    """
    first = states[0]
    dims, size = first.shape.dims, first.shape.dim
    pure = isinstance(first, PureState)
    # taken[j] is the marginal that gives the entropy of keeps[where[j]]; the
    # kept keeps lead both lists, so below `kept` the two positions agree
    where, taken = [], []
    for k, keep in enumerate(keeps):
        if k < kept or len(keep) < len(dims):
            order, dk = _keep_first(dims, keep)
            where.append(k)
            taken.append(order[len(keep):] if k >= kept and pure and size < dk * dk else keep)
    if pure:
        wholes = [0.0] * len(states)
        # a lone state's amplitudes are viewed, not copied
        amplitudes = (np.stack([state.amplitudes for state in states]) if len(states) > 1
                      else first.amplitudes[None])
        take = lambda group: _pure_marginal_stacks(amplitudes, dims, group)
    else:
        (rho,) = states
        wholes = [von_neumann_entropy(rho)]
        take = lambda group: np.stack(
            [partial_trace_matrix(rho.matrix, dims, keep) for keep in group])[None]
    mats = [[None] * kept for _ in wholes]
    out = [[whole] * len(keeps) for whole in wholes]
    for ks in _by_dimension(dims, taken).values():
        stack = take([taken[k] for k in ks])
        values = _entropy(np.linalg.eigvalsh(stack)).tolist()
        for state_mats, state_out, state_stack, state_values in zip(mats, out, stack, values):
            for k, mat, value in zip(ks, state_stack, state_values):
                state_out[where[k]] = value
                if k < kept:
                    state_mats[k] = mat
    return list(zip(mats, out, wholes))


def von_neumann_entropy(rho: State) -> float:
    """S(rho) = -Tr rho log2 rho; eigenvalues below the clamp contribute 0.
    A density's positivity is checked on the same spectrum."""
    if isinstance(rho, PureState):
        return 0.0
    return float(_entropy(_require_density(rho)))


def mutual_information(state: State, a: Iterable[int], b: Iterable[int]) -> float:
    """I(A:B) = S(A) + S(B) - S(AB), evaluated on the reduced state."""
    n = state.shape.nsites
    a, b = _check_keep(a, n), _check_keep(b, n)
    if set(a) & set(b):
        raise ValueError(f"index sets overlap: {a} and {b}")
    s_a, s_b, s_ab = _marginals([state], [a, b, tuple(sorted(a + b))])[0][1]
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


def _marginal_pass(states: Sequence[State], with_pairs: bool = True
                   ) -> list[tuple[list[np.ndarray], dict]]:
    """For each of `states` (as `_marginals` takes them), its single-site
    matrices and correlations, from one pass over the marginals.

    Pair marginals are skipped without `with_pairs`, for O and MW. A density
    that is not Hermitian, unit-trace and positive is rejected.
    """
    n = states[0].shape.nsites
    subsets = [(i,) for i in range(n)]
    if with_pairs:
        if n < 2:
            raise ValueError("pairwise measures require at least 2 subsystems")
        subsets += combinations(range(n), 2)
    return [(reds, _correlations(entropies[:n], dict(zip(subsets[n:], entropies[n:])), whole))
            for reds, entropies, whole in _marginals(states, subsets, kept=n)]


def measure_M(state: State) -> float:
    """Sum of the pairwise probe over all unordered subsystem pairs."""
    return direct_measure(state, "M")


def measure_O(state: State) -> float:
    """Global correlations: (sum_i S(rho_i) - S(rho)) / 2."""
    return direct_measure(state, "O")


def measure_S(state: State) -> float:
    """Combined total-correlation measure (O + M)/2."""
    return direct_measure(state, "S")


def measure_MW(state: State) -> float:
    """Sum of single-site linear entropies."""
    return direct_measure(state, "MW")


def _tr_log2(overlaps: np.ndarray, vals: np.ndarray) -> float:
    """Tr rho log2 sigma over supp sigma, from sigma's eigenvalues `vals` and
    rho's weight on each of sigma's eigenvectors, `overlaps`, of one shape.

    Eigenvalues at or below SUPPORT_TOL are outside the support; SupportError
    is raised when rho puts more than SUPPORT_TOL of its weight there.
    """
    on_support = vals > SUPPORT_TOL
    leak = float(overlaps[~on_support].sum())
    if leak > SUPPORT_TOL:
        raise SupportError(f"support violation: weight {leak:.3e} outside supp(sigma)")
    return float((overlaps[on_support] * np.log2(vals[on_support])).sum())


def relative_entropy(rho: State, sigma: State) -> float:
    """Tr rho (log2 rho - log2 sigma); requires supp(rho) within supp(sigma).

    Either argument may be a pure state or a density matrix; each density
    is validated on the spectrum computed here anyway.
    """
    rho, sigma = as_density(rho), as_density(sigma)
    if rho.shape != sigma.shape:
        raise ValueError("states must share one register shape")
    svals, svecs = np.linalg.eigh(sigma.matrix)
    _require_density(sigma, svals)
    rvals = _require_density(rho)
    overlaps = (svecs.conj() * (rho.matrix @ svecs)).sum(axis=0).real
    return -float(_entropy(rvals)) - _tr_log2(overlaps, svals)


def _product_weights(state: State, vecs: Sequence[np.ndarray]) -> np.ndarray:
    """P = diag(K^dag rho K) for K = V_1 x ... x V_n, as a tensor with one
    axis per site: the state's weight on each product of the columns of
    `vecs`, one unitary per site.

    One contraction per site: a pure state's site axis with V^dag, giving
    P = |K^dag psi|^2; a density's row and column of the site with V^dag
    and V into one index, so each step costs O(D^2 d) and no D x D product
    is formed.
    """
    pure, dims = isinstance(state, PureState), state.shape.dims
    t = state.amplitudes.reshape(dims) if pure else state.matrix.reshape(dims * 2)
    for k, v in enumerate(vecs):
        # a density's w[i, j, a] = conj(V[i, a]) V[j, a]; the sites before k
        # have lost their column axes, so site k's column is axis len(dims)
        w, axes = (v.conj(), [k]) if pure else (v.conj()[:, None] * v, [k, len(dims)])
        t = np.moveaxis(np.tensordot(w, t, (range(len(axes)), axes)), 0, k)
    return np.abs(t) ** 2 if pure else t.real


def measure_S_form2(state: State) -> float:
    """Relative-entropy form of measure_S.

    [sum_{i<j} S(rho_ij || rho_i x rho_j) + S(rho || rho_1 x ... x rho_N)] / 4;
    agrees with measure_S to high precision. Each term is -S(rho_A) -
    Tr rho_A log2 sigma_A. The eigenvectors of every product sigma_A are
    products of the single-site eigenvectors, so rho_A's weights on them
    are the weights P of `_product_weights` summed over the sites outside
    A (a unitary on a traced site leaves the partial trace unchanged), and
    sigma_A's eigenvalues are the products of its factors'. Each
    single-site marginal is diagonalized once, and no product is. One
    marginal pass gives the single-site marginals and every entropy, and
    checks a density once.
    """
    n = state.shape.nsites
    if n < 2:
        raise ValueError("requires at least 2 subsystems")
    pairs = list(combinations(range(n), 2))
    ((mats, entropies, whole),) = _marginals([state], [(i,) for i in range(n)] + pairs, n)
    eigs = [np.linalg.eigh(mat) for mat in mats]
    weights = _product_weights(state, [vecs for _, vecs in eigs])
    total = 0.0
    for sites, entropy in zip(pairs + [range(n)], entropies[n:] + [whole]):
        vals = math.prod(np.ix_(*[eigs[i][0] for i in sites]))
        overlaps = weights.sum(axis=tuple(k for k in range(n) if k not in sites))
        total -= entropy + _tr_log2(overlaps, vals)
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
    ((_, (s_xy, s_yz, s_y), s_xyz),) = _marginals([rho], [(0, 1), (1, 2), (1,)])
    return s_xy + s_yz - s_y - s_xyz


def direct_measure(state: State, name: str) -> float:
    """Direct value of a named measure (M, O, S or MW) on a state, from one
    marginal pass; O and MW skip the pair marginals."""
    if name not in MEASURE_NAMES:
        raise ValueError(f"unknown measure {name!r}; choose from {list(MEASURE_NAMES)}")
    ((reds, corr),) = _marginal_pass([state], name not in ("O", "MW"))
    return _linear_entropy_sum(reds) if name == "MW" else corr[name]


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
    return next(_reports([state]))


def _reports(states: Iterable[State]) -> Iterator[MeasureReport]:
    """The report of each of `states`, in order: one density on its own, or
    pure states of one register shape. Each state's values are those of its
    lone report.

    The states are drawn in slices whose amplitudes fill an eighth of a
    block (`core._per_block`), each slice's reports come from one marginal
    pass, and a slice is dropped before the next is drawn. Beside the F
    chunk and the slice's marginal stacks, a slice then takes no more
    memory than a lone 12-qubit state's pass; slices of a quarter block
    were a few percent faster on the figure sweep and raised its traced
    peak by a fifth.
    """
    stream = iter(states)
    for first in stream:  # once: the slices below draw the rest of the stream
        shape, pure = first.shape, isinstance(first, PureState)
        n, d = shape.nsites, max(shape.dims)
        count = _per_block(8 * shape.dim)
        part, checked = [first, *islice(stream, count - 1)], 1
        while part:
            if not all(pure and isinstance(state, PureState) and state.shape == shape
                       for state in part[checked:]):
                raise ValueError("one density on its own, or pure states of one register shape")
            yield from (MeasureReport(shape, corr["P"], corr["O"], corr["M"], corr["S"],
                                      _linear_entropy_sum(reds), bound_M(n, d), bound_S(n, d))
                        for reds, corr in _marginal_pass(part))
            part.clear()
            part, checked = list(islice(stream, count)), 0
