"""Convex-roof extension of the pure-state measures to mixed states.

The minimization runs over decompositions generated by m x r isometries
acting on the eigen-ensemble of the state (ensemble steering). The pure
roof runs Riemannian conjugate gradient on the isometry, driven by the
closed-form gradient of the members' marginal entropies. Its restarts run
in lock step as one batch on a leading axis: each objective evaluation
covers the member rows of every restart still searching, in consecutive
groups of restarts of at most ROW_BUDGET rows, so memory grows with
restarts x members x dimension up to that budget. The mixed roof searches
complex plane rotations on pairs of members, grouped into mixtures, one
restart after another. Restart k is seeded base seed + k whether it runs
alone or in a batch, so results are bit-identical for a fixed config.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .core import DensityMatrix, RegisterShape, ResourceLimitError, _require_density
from .measures import EIG_CLAMP, _correlations, _direct, direct_measure
from .states import Ensemble, PureState, State, as_density, flagged_mixture

RANK_TOL = 1e-10
WEIGHT_DROP = 1e-12
# rows of one batched pure-roof evaluation: the restarts of an m-member
# roof run in groups of ROW_BUDGET // m (at least one); the objective's
# cost per row is flat from a few hundred rows on
ROW_BUDGET = 2**12

MEASURE_NAMES = ("M", "O", "S", "MW")
STRATEGIES = ("pure_roof", "mixed_roof")


@dataclass(frozen=True)
class RoofConfig:
    """Knobs for the decomposition search.

    ensemble_size defaults to r^2 where r is the rank of the input.
    For the pure roof, max_iterations counts line searches, and a restart
    stops converged once a line search lowers the ensemble average by
    less than tolerance or the average drops below it. For the mixed roof
    an iteration is one sweep of pair rotations, and tolerance is the
    sweep gain under which the rotation angle shrinks.
    """

    ensemble_size: int | None = None
    restarts: int = 20
    max_iterations: int = 2000
    tolerance: float = 1e-6
    seed: int = 0
    strategy: str = "pure_roof"
    dim_cap: int = 256

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.ensemble_size is not None and self.ensemble_size < 1:
            raise ValueError("ensemble_size must be >= 1")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError("tolerance must be positive and finite")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")


@dataclass(frozen=True)
class RoofResult:
    """Best decomposition found and its ensemble-averaged measure value."""

    value: float
    ensemble: Ensemble
    per_restart_values: tuple[float, ...]
    converged: bool


def _eigen(rho: DensityMatrix) -> tuple[int, np.ndarray, np.ndarray]:
    """Numerical rank, eigenvalues (descending) and eigenvectors of rho from
    one eigh; raises unless rho is a valid density matrix."""
    lam, vecs = np.linalg.eigh(rho.matrix)
    _require_density(rho, lam)
    order = np.argsort(lam)[::-1]
    return max(1, int(np.count_nonzero(lam > RANK_TOL))), lam[order], vecs[:, order]


def _eigen_rows(lam: np.ndarray, vecs: np.ndarray, r: int) -> np.ndarray:
    """r x D matrix whose rows are sqrt(lambda_k) * v_k for the first r eigenpairs."""
    return (vecs[:, :r] * np.sqrt(np.clip(lam[:r], 0.0, None))).T


def ensemble_from_isometry(rho: DensityMatrix, V: np.ndarray) -> Ensemble:
    """Pure-state ensemble steered by an m x r isometry from the eigen-ensemble."""
    V = np.asarray(V, dtype=complex)
    if V.ndim != 2:
        raise ValueError("V must be a matrix")
    m, r = V.shape
    dev = np.max(np.abs(V.conj().T @ V - np.eye(r)))
    if dev > 1e-8:
        raise ValueError(f"V is not an isometry (max |V^dag V - I| = {dev:.3e})")
    rank, lam, vecs = _eigen(rho)
    if r < rank:
        raise ValueError("isometry has fewer columns than the rank of rho")
    return _ensemble(_row_members(rho.shape, V @ _eigen_rows(lam, vecs, r)))


def _row_members(shape: RegisterShape, W: np.ndarray):
    """(weight, normalized row) of each row of W that carries weight."""
    for row in W:
        p = float(np.real(np.vdot(row, row)))
        if p >= WEIGHT_DROP:
            yield p, PureState(shape, row / math.sqrt(p))


def _ensemble(members) -> Ensemble:
    """Ensemble of (weight, state) pairs, the weights rescaled to sum to 1."""
    weights, states = zip(*members)
    total = sum(weights)
    return Ensemble(tuple(wt / total for wt in weights), states)


# --- batched objective -------------------------------------------------

@functools.cache
def _cuts(dims: tuple[int, ...], measure: str) -> tuple[tuple[tuple[int, ...], float], ...]:
    """(kept sites, coefficient) of each marginal term of the pure-member measure.

    The entropy coefficients come from `_correlations` fed with unit
    vectors. A pure member has S(K) = S(K-bar) and Tr rho_K^2 = Tr rho_K-bar^2,
    so each term is moved to the side of its cut with the smaller
    dimension (ties to the lexicographically smaller set), terms on one
    cut are merged, and a cut with an empty side drops out.
    """
    n = len(dims)
    singles = [(i,) for i in range(n)]
    if measure == "MW":
        terms = [(keep, 1.0) for keep in singles]
    else:
        pairs = list(combinations(range(n), 2))
        basis = np.eye(n + len(pairs))
        coef = _correlations(basis[:n], dict(zip(pairs, basis[n:])), 0.0)[measure]
        terms = zip(singles + pairs, coef)
    merged: dict[tuple[int, ...], float] = {}
    for keep, c in terms:
        rest = tuple(i for i in range(n) if i not in keep)
        side = min(keep, rest, key=lambda s: (math.prod(dims[i] for i in s), s))
        if side and c:
            merged[side] = merged.get(side, 0.0) + float(c)
    return tuple(merged.items())


@functools.cache
def _cut_groups(dims: tuple[int, ...], measure: str) -> tuple[tuple, ...]:
    """The cuts of `_cuts` grouped by marginal dimension dk.

    Each group is (dk, coefficients, order, inverse): row c of `order` lists
    the basis indices with the kept sites of cut c leading, so that a member
    row gathered by it reshapes to dk x (D / dk), and `inverse` takes the
    gathered rows of all cuts, laid end to end, back to register order.
    """
    n = len(dims)
    index = np.arange(math.prod(dims)).reshape(dims)
    groups: dict[int, list] = {}
    for keep, coef in _cuts(dims, measure):
        rest = [i for i in range(n) if i not in keep]
        order = index.transpose(list(keep) + rest).reshape(-1)
        groups.setdefault(math.prod(dims[k] for k in keep), []).append((coef, order))
    out = []
    for dk, cuts in groups.items():
        coefs, orders = np.array([c for c, _ in cuts]), np.stack([o for _, o in cuts])
        inverse = (np.argsort(orders, axis=1) + index.size * np.arange(len(cuts))[:, None]).ravel()
        for arr in (coefs, orders, inverse):
            arr.setflags(write=False)
        out.append((dk, coefs, orders, inverse))
    return tuple(out)


def _log2_clamped(lam: np.ndarray) -> np.ndarray:
    """log2 of each eigenvalue, and 0 for those at or below EIG_CLAMP."""
    safe = lam > EIG_CLAMP
    return np.where(safe, np.log2(np.where(safe, lam, 1.0)), 0.0)


def _qubit_entropy_terms(f: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """S(sigma) and -(log2 sigma x 1) f for each sigma = f f^dag / p of size
    2 x 2, f of shape (rows, 2, k), in closed form.

    With rho = f f^dag, mu = Tr rho / 2 and r = |rho - mu|, sigma has the
    eigenvalues (mu -+ r) / p, and log2 sigma = alpha + beta' (rho - mu),
    alpha the mean of the two logs (log 0 at or below EIG_CLAMP). When both
    eigenvalues count, beta' = arctanh(x) / (x mu ln 2) with x = r / mu,
    which stays finite as r -> 0; when only the larger one does, beta' is
    its log over 2r, which gives its log times its projector.
    """
    f0, f1 = f[:, 0], f[:, 1]
    s00 = np.einsum("nk,nk->n", f0, f0.conj()).real
    s11 = np.einsum("nk,nk->n", f1, f1.conj()).real
    s01 = np.einsum("nk,nk->n", f0, f1.conj())
    mu, h = (s00 + s11) / 2, (s00 - s11) / 2
    r = np.sqrt(h * h + s01.real ** 2 + s01.imag ** 2)
    lo, hi = np.maximum((mu - r) / p, 0.0), (mu + r) / p
    log_lo, log_hi = _log2_clamped(lo), _log2_clamped(hi)
    both = lo > EIG_CLAMP
    mu_both = np.where(both, mu, 1.0)
    x = np.where(both, r / mu_both, 0.0)
    atanh_ratio = np.where(x > 0, np.arctanh(x) / np.where(x > 0, x, 1.0), 1.0)
    beta = np.where(both, atanh_ratio / (mu_both * math.log(2)),
                    log_hi / np.where(r > 0, 2 * r, 1.0))
    alpha = (log_lo + log_hi) / 2
    c0, c1, off = (alpha + beta * h)[:, None], (alpha - beta * h)[:, None], (beta * s01)[:, None]
    g = np.empty_like(f)
    np.add(c0 * f0, off * f1, out=g[:, 0])
    np.add(off.conj() * f0, c1 * f1, out=g[:, 1])
    return -(lo * log_lo + hi * log_hi), -g


def _pure_values(W: np.ndarray, dims: tuple[int, ...],
                 measure: str) -> tuple[np.ndarray, np.ndarray]:
    """Contributions p_j * T(psi_j) of the unnormalized member rows W, and
    the gradient of their sum with respect to conj(W).

    An entropy term p S(rho_K / p) has gradient -(log2(rho_K / p) x 1) w,
    with log 0 on eigenvalues under EIG_CLAMP; a linear-entropy term
    p - Tr(rho_K^2) / p has gradient w - (2 rho_K w - Tr(rho_K^2) w / p) / p.
    All cuts of one marginal dimension run as one stack of rows: 2 x 2
    marginals in closed form, larger ones through one eigh. Every row is
    computed on its own, so a row's numbers do not depend on the others.
    """
    m, d = W.shape
    p = np.einsum("md,md->m", W, W.conj()).real
    live = p > 1e-14
    values = np.zeros(m)
    grad = np.zeros_like(W)
    for dk, coefs, order, inverse in _cut_groups(dims, measure):
        c = len(coefs)
        flat = W[:, order].reshape(m * c, dk, -1)
        ps = np.repeat(np.where(live, p, 1.0), c)
        if measure == "MW":
            rho = flat @ flat.conj().transpose(0, 2, 1)
            purity = (np.abs(rho) ** 2).sum(axis=(1, 2)) / ps**2
            terms = 1.0 - purity
            g = (1.0 + purity)[:, None, None] * flat - 2.0 * (rho @ flat) / ps[:, None, None]
        elif dk == 2:
            terms, g = _qubit_entropy_terms(flat, ps)
        else:
            lam, U = np.linalg.eigh(flat @ flat.conj().transpose(0, 2, 1))
            lam = np.clip(lam / ps[:, None], 0.0, None)
            logs = _log2_clamped(lam)
            terms = -(lam * logs).sum(axis=1)
            g = -((U * logs[:, None, :]) @ (U.conj().transpose(0, 2, 1) @ flat))
        values += p * (terms.reshape(m, c) * coefs).sum(axis=1)
        g = g.reshape(m, c, d) * coefs[:, None]
        grad += g.reshape(m, c * d)[:, inverse].reshape(m, c, d).sum(axis=1)
    return np.where(live, values, 0.0), grad


def _chunks(m: int, k: int) -> list[list[int]]:
    base, extra = divmod(m, k)
    out, start = [], 0
    for g in range(k):
        size = base + (1 if g < extra else 0)
        out.append(list(range(start, start + size)))
        start += size
    return out


def _chunk_mixtures(shape: RegisterShape, W: np.ndarray, k: int, min_weight: float):
    """(weight, normalized mixture) of each of k contiguous row chunks of W."""
    for chunk in _chunks(W.shape[0], k):
        rho = W[chunk].T @ W[chunk].conj()
        pg = float(np.real(np.trace(rho)))
        if pg >= min_weight:
            yield pg, DensityMatrix(shape, rho / pg)


def _mixed_total(W: np.ndarray, dims: tuple[int, ...], measure: str) -> tuple[float, int]:
    """Objective over member groupings: best (value, k) over k = 1..m chunkings."""
    m = W.shape[0]
    shape = RegisterShape(dims)
    best_val = float(_pure_values(W, dims, measure)[0].sum())
    best_k = m
    for k in range(1, m):
        total = 0.0
        for pg, rho in _chunk_mixtures(shape, W, k, 1e-14):
            # a mixture of the rows is a density by construction: not validated in the loop
            total += pg * _direct(rho, measure, check=False)
        if total < best_val:
            best_val, best_k = total, k
    return best_val, best_k


# --- optimizer ---------------------------------------------------------

_PHIS = (0.0, math.pi / 2)


def _rotated_rows(wa: np.ndarray, wb: np.ndarray, theta: float, phi: float):
    c, s = math.cos(theta), math.sin(theta)
    ph = complex(math.cos(phi), math.sin(phi))
    return c * wa + ph * s * wb, -np.conj(ph) * s * wa + c * wb


def _retract(X: np.ndarray) -> np.ndarray:
    """Q of each X = QR with the phases fixed so that R has a positive diagonal."""
    Q, R = np.linalg.qr(X)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (d / np.abs(d))[..., None, :]


def _project(V: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Each X projected onto the tangent space of the isometries at V."""
    B = V.conj().swapaxes(-1, -2) @ X
    return X - V @ (0.5 * (B + B.conj().swapaxes(-1, -2)))


def _inner(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Re <X[k], Y[k]> of each pair in two stacks of matrices.

    A stacked row-times-column product reduces each pair on its own, so a
    restart's numbers do not depend on the rest of its batch; with
    OpenBLAS it also sums in the order np.vdot takes on one pair.
    """
    k, n = len(X), math.prod(X.shape[1:])
    return (X.conj().reshape(k, 1, n) @ Y.reshape(k, n, 1))[:, 0, 0].real


def _optimize_pure(A, dims, measure, m, seeds, cfg: RoofConfig):
    """Restarts seeded by `seeds`, run in lock step: Riemannian Polak-Ribiere+
    conjugate gradient on a stack of m x r isometries V[k], with members
    W = V[k] A. An iteration is one Armijo line search along the retraction;
    a restart stops, converged, once a step gains less than the tolerance or
    the total drops below it, and leaves the batch. Each evaluation is one
    `_pure_values` call on the rows of the restarts still searching, and
    every restart takes the steps it would take alone.

    Returns the totals, the member rows V[k] A and the converged flags.
    """
    r, d = A.shape
    A_dag = A.conj().T

    def evaluate(V):
        vals, G = _pure_values((V @ A).reshape(-1, d), dims, measure)
        return vals.reshape(len(V), m).sum(axis=1), _project(V, G.reshape(len(V), m, d) @ A_dag)

    def start_line_search(idx):
        # the derivative of the total along a direction D is 2 Re <grad, D>
        iters[idx] += 1
        halvings[idx] = 0
        slope[idx] = 2.0 * _inner(grad[idx], direction[idx])
        reset = idx[slope[idx] >= 0.0]
        direction[reset] = -grad[reset]
        slope[reset] = -2.0 * _inner(grad[reset], grad[reset])

    starts = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        starts.append(rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r)))
    V = _retract(np.stack(starts))
    total, grad = evaluate(V)
    direction = -grad
    step = np.ones(len(V))
    slope = np.zeros(len(V))
    iters = np.zeros(len(V), dtype=int)
    halvings = np.zeros(len(V), dtype=int)
    converged = total < cfg.tolerance
    searching = np.flatnonzero(~converged)
    start_line_search(searching)
    while searching.size:
        idx = searching
        V_new = _retract(V[idx] + step[idx, None, None] * direction[idx])
        total_new, grad_new = evaluate(V_new)
        ok = total_new < total[idx] + 1e-4 * step[idx] * slope[idx]

        failed = idx[~ok]
        step[failed] *= 0.5
        halvings[failed] += 1
        # 60 halvings shrink the step by a factor of 1e18: no step decreases
        # the total, so the restart is stationary
        stuck = halvings[failed] == 60
        converged[failed[stuck]] = True

        acc, V_acc, total_acc, grad_acc = idx[ok], V_new[ok], total_new[ok], grad_new[ok]
        carried = _project(V_acc, grad[acc])
        beta = np.maximum(0.0, _inner(grad_acc, grad_acc - carried) / _inner(grad[acc], grad[acc]))
        direction[acc] = -grad_acc + beta[:, None, None] * _project(V_acc, direction[acc])
        converged[acc] = (total[acc] - total_acc < cfg.tolerance) | (total_acc < cfg.tolerance)
        V[acc], total[acc], grad[acc] = V_acc, total_acc, grad_acc
        step[acc] *= 2.0
        going = acc[~converged[acc] & (iters[acc] < cfg.max_iterations)]
        start_line_search(going)
        searching = np.sort(np.concatenate([failed[~stuck], going]))
    return total, V @ A, converged


def _optimize_restart_mixed(A, dims, measure, m, rng, cfg: RoofConfig):
    r = A.shape[0]
    X = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
    V, _ = np.linalg.qr(X)
    W = V @ A
    total, _ = _mixed_total(W, dims, measure)
    pairs = list(combinations(range(m), 2))
    iters = 0
    scale = math.pi / 4
    prev_gain = math.inf
    converged = False
    while iters < cfg.max_iterations:
        iters += 1
        sweep_gain = 0.0
        for idx in rng.permutation(len(pairs)):
            a, b = pairs[idx]
            best_gain = 0.0
            best_rows = None
            for f in (1.0, -1.0):
                for phi in _PHIS:
                    na, nb = _rotated_rows(W[a], W[b], scale * f, phi)
                    W2 = W.copy()
                    W2[a], W2[b] = na, nb
                    val, _ = _mixed_total(W2, dims, measure)
                    if total - val > best_gain:
                        best_gain, best_rows = total - val, (na, nb)
            if best_rows is not None:
                W[a], W[b] = best_rows
                total -= best_gain
                sweep_gain += best_gain
        if sweep_gain < max(cfg.tolerance, 0.25 * prev_gain):
            scale *= 0.4
            if scale < 2e-3:
                converged = True
                break
        prev_gain = sweep_gain
    return total, W, converged


def roof_minimize(rho: State, measure: str, config: RoofConfig | None = None) -> RoofResult:
    """Minimize the ensemble-averaged measure over decompositions of rho.

    Returns an upper bound on the true convex roof; the reported value is
    exactly the ensemble average of the returned decomposition. Restarts
    are seeded as base seed + restart index, and a pure-roof restart takes
    the same steps in a batch as alone, so the result is deterministic for
    a fixed config.
    """
    if measure not in MEASURE_NAMES:
        raise ValueError(f"measure must be one of {MEASURE_NAMES}")
    cfg = config or RoofConfig()
    shape = rho.shape
    if shape.nsites < 2:
        raise ValueError("roof requires at least 2 subsystems")
    if shape.dim > cfg.dim_cap:
        raise ResourceLimitError(f"dimension {shape.dim} exceeds cap {cfg.dim_cap}")

    if isinstance(rho, PureState):
        value = direct_measure(rho, measure)
        return RoofResult(value, Ensemble((1.0,), (rho,)), (value,), True)

    r, lam, vecs = _eigen(rho)
    if r == 1:
        psi = PureState(shape, vecs[:, 0] / np.linalg.norm(vecs[:, 0]))
        value = direct_measure(psi, measure)
        return RoofResult(value, Ensemble((1.0,), (psi,)), (value,), True)

    m = cfg.ensemble_size if cfg.ensemble_size is not None else r * r
    if m < r:
        raise ValueError(f"ensemble_size must be >= rank ({r}), got {m}")
    A = _eigen_rows(lam, vecs, r)
    seeds = [cfg.seed + k for k in range(cfg.restarts)]
    if cfg.strategy == "pure_roof":
        group = max(1, ROW_BUDGET // m)
        runs = (
            run
            for g in range(0, len(seeds), group)
            for run in zip(*_optimize_pure(A, shape.dims, measure, m, seeds[g:g + group], cfg))
        )
    else:
        runs = (
            _optimize_restart_mixed(A, shape.dims, measure, m, np.random.default_rng(seed), cfg)
            for seed in seeds
        )

    per_restart = []
    best = None
    for value, W, converged in runs:
        per_restart.append(float(value))
        if best is None or value < best[0]:
            best = (float(value), W, bool(converged))

    _, best_w, best_conv = best
    members = _row_members(shape, best_w)
    if cfg.strategy == "mixed_roof":
        _, best_k = _mixed_total(best_w, shape.dims, measure)
        if best_k < m:
            members = _chunk_mixtures(shape, best_w, best_k, WEIGHT_DROP)
    ensemble = _ensemble(members)
    final = sum(
        p * direct_measure(member, measure)
        for p, member in zip(ensemble.weights, ensemble.members)
    )
    return RoofResult(float(final), ensemble, tuple(per_restart), best_conv)


def eof_two_qubit(rho: DensityMatrix) -> float:
    """Entanglement of Formation of a two-qubit state via the concurrence."""
    if rho.shape.dims != (2, 2):
        raise ValueError("requires a two-qubit state")
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    yy = np.kron(sy, sy)
    spin_flipped = yy @ rho.matrix.conj() @ yy
    ev = np.linalg.eigvals(rho.matrix @ spin_flipped)
    roots = np.sqrt(np.clip(ev.real, 0.0, None))
    roots.sort()
    conc = max(0.0, roots[3] - roots[2] - roots[1] - roots[0])
    x = (1.0 + math.sqrt(max(0.0, 1.0 - conc * conc))) / 2.0
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * math.log2(x) - (1 - x) * math.log2(1 - x))


def pcrc_gap(rho: State, measure: str, config: RoofConfig | None = None) -> float:
    """Direct value minus roof value; a converged negative beyond tolerance
    is a counterexample report, not an error."""
    direct = direct_measure(rho, measure)
    return direct - roof_minimize(rho, measure, config).value


def flags_residual(e: Ensemble, measure: str, config: RoofConfig | None = None) -> float:
    """|roof(flag-labeled mixture) - weighted sum of member roofs|."""
    flagged = flagged_mixture(e)
    lhs = roof_minimize(flagged, measure, config).value
    rhs = sum(
        p * roof_minimize(as_density(member), measure, config).value
        for p, member in zip(e.weights, e.members)
    )
    return abs(lhs - rhs)


def roof_additivity_gap(sigma: State, eta: State, measure: str,
                        config: RoofConfig | None = None) -> float:
    """roof(sigma x eta) - roof(sigma) - roof(eta)."""
    sig, et = as_density(sigma), as_density(eta)
    joint = DensityMatrix(
        RegisterShape(sig.shape.dims + et.shape.dims),
        np.kron(sig.matrix, et.matrix),
    )
    return (
        roof_minimize(joint, measure, config).value
        - roof_minimize(sig, measure, config).value
        - roof_minimize(et, measure, config).value
    )
