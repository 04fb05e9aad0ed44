"""Convex-roof extension of the pure-state measures to mixed states.

The minimization runs over decompositions generated by m x r isometries
acting on the eigen-ensemble of the state (ensemble steering). A
Riemannian memoryless BFGS method runs on the isometry, driven by the
closed-form gradient of the members' marginal entropies, with an Armijo
line search that backtracks by safeguarded quadratic interpolation. Trial
points are retracted by Cholesky-QR, and the random starts and the
returned isometries by Householder QR (Absil, Mahony and Sepulchre,
Optimization Algorithms on Matrix Manifolds, ch. 4), both giving the Q
factor whose R has a positive diagonal.
Restarts run in lock step as one compact work set on a leading axis:
each objective evaluation covers the member rows of every restart still
searching, so the isometries grow with restarts x members. The objective
gathers its cut stacks in chunks of at most core.BLOCK_ENTRIES entries.

Both roofs are one loop over group sizes g: each member is g consecutive
rows, a pure state for g = 1 and a mixture otherwise (Uhlmann, "Roofs and
convexity", Entropy 12, 1799 (2010)). A member of g rows is a pure state
of the register extended by its row index as a last site of dimension g,
whose trace over that site is the mixture, so one objective serves both
roofs. The pure roof runs g = 1; the mixed roof runs g = 1..r and returns
the best of these and the state itself.
A candidate's value is its returned members' weighted average, from one
batched evaluation of their normalized rows. Restart k is seeded base
seed + k whether it runs alone or in a batch, so results are
bit-identical for a fixed config.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import (
    DensityMatrix,
    RegisterShape,
    ResourceLimitError,
    _blocks,
    _by_dimension,
    _indices,
    _keep_first,
    _require_density,
)
from .measures import EIG_CLAMP, MEASURE_NAMES, _correlations, _log2_clamped, direct_measure
from .states import Ensemble, PureState, State, as_density

RANK_TOL = 1e-10
WEIGHT_DROP = 1e-12
# largest register dimension a roof accepts
DIM_CAP = 256

STRATEGIES = ("pure_roof", "mixed_roof")


@dataclass(frozen=True)
class RoofConfig:
    """Knobs for the decomposition search.

    ensemble_size is the number m of member rows, r^2 by default where r
    is the rank of the input; the mixed roof's run at group size g takes
    g * max(m // g, r) rows. restarts are seeded seed, seed + 1, ...
    max_iterations counts line searches, and a restart stops converged
    once a line search lowers the ensemble average by less than tolerance
    or the average drops below it. strategy is "pure_roof" or
    "mixed_roof". The register dimension is capped by the module's
    DIM_CAP.
    """

    ensemble_size: int | None = None
    restarts: int = 20
    max_iterations: int = 2000
    tolerance: float = 1e-6
    seed: int = 0
    strategy: str = "pure_roof"

    def __post_init__(self) -> None:
        for name, lower in (("restarts", 1), ("max_iterations", 1), ("ensemble_size", 1),
                            ("seed", 0)):
            value = getattr(self, name)
            # ensemble_size alone may be None, its default
            if (value, name) != (None, "ensemble_size") and _indices([value], name)[0] < lower:
                raise ValueError(f"{name} must be >= {lower}")
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


def _decompose(shape: RegisterShape, W: np.ndarray, group: int):
    """Weights rescaled to sum to 1, normalized rows and members of the
    `group`-row members of W that carry weight.

    A member is a PureState for one row and the rows' DensityMatrix
    otherwise; the rows come back `group` per member, as W lays them out.
    """
    d = W.shape[1]
    grouped = W.reshape(-1, group * d)
    p = np.einsum("kd,kd->k", grouped, grouped.conj()).real
    live = p >= WEIGHT_DROP
    grouped, p = grouped[live] / np.sqrt(p[live])[:, None], p[live]
    if group == 1:
        members = [PureState(shape, row) for row in grouped]
    else:
        members = [DensityMatrix(shape, w.T @ w.conj()) for w in grouped.reshape(-1, group, d)]
    return p / sum(p.tolist()), grouped.reshape(-1, d), members


def _single(state: State, measure: str) -> RoofResult:
    """The decomposition of `state` into itself, at its direct value."""
    value = direct_measure(state, measure)
    return RoofResult(value, Ensemble((1.0,), (state,)), (value,), True)


# --- batched objective -------------------------------------------------

@functools.cache
def _cuts(dims: tuple[int, ...], measure: str,
          group: int = 1) -> tuple[tuple[tuple[int, ...], float], ...]:
    """(kept sites, coefficient) of each marginal term of the measure of a
    member of `group` rows.

    The entropy coefficients come from `_correlations` fed with unit
    vectors, one of them for the whole-register term. The member is a pure
    state of the extended register, dims with the row index as a last site
    of dimension `group` (no such site for one row), so S(K) = S(K-bar)
    and Tr rho_K^2 = Tr rho_K-bar^2 for every cut of that register. Each
    term is moved to the side of its cut with the smaller dimension (ties
    to the lexicographically smaller set), and a cut with an empty side
    drops out: the whole-register term is such a cut for one row, and the
    row-index marginal otherwise. Terms on one set of kept sites are merged.
    """
    n, ext = len(dims), (dims + (group,) if group > 1 else dims)
    singles = [(i,) for i in range(n)]
    if measure == "MW":
        terms = [(keep, 1.0) for keep in singles]
    else:
        pairs = list(combinations(range(n), 2))
        basis = np.eye(n + len(pairs) + 1)
        coef = _correlations(basis[:n], dict(zip(pairs, basis[n:-1])), basis[-1])[measure]
        terms = zip(singles + pairs + [tuple(range(n))], coef)
    merged: dict[tuple[int, ...], float] = {}
    for keep, c in terms:
        rest = tuple(i for i in range(len(ext)) if i not in keep)
        side = min(keep, rest, key=lambda s: (math.prod(ext[i] for i in s), s))
        if side and c:
            merged[side] = merged.get(side, 0.0) + float(c)
    return tuple(merged.items())


@functools.cache
def _cut_groups(dims: tuple[int, ...], measure: str, group: int) -> tuple[tuple, ...]:
    """The cuts of `_cuts` for members of `group` rows, grouped by marginal
    dimension dk.

    Each group is (dk, coefficients, order, inverse). A member's rows are
    laid end to end, entry x of row j at j * D + x, which is the member's
    vector on the extended register. Row c of `order` lists the indices into
    it with the kept sites of cut c leading, so that a member gathered by it
    reshapes to dk x (group * D / dk), dk on the smaller side. `inverse`
    takes the gathered members of all cuts, laid end to end, back to the
    rows' order.
    """
    # the row index as a last axis; of size 1 for one row, it moves no entry
    index = np.moveaxis(np.arange(group * math.prod(dims)).reshape((group,) + dims), 0, -1)
    keeps, weights = zip(*_cuts(dims, measure, group))
    out = []
    for dk, ks in _by_dimension(index.shape, keeps).items():
        coefs = np.array([weights[k] for k in ks])
        orders = np.stack([index.transpose(_keep_first(index.shape, keeps[k])[0]).reshape(-1)
                           for k in ks])
        size = orders.shape[1]
        inverse = (np.argsort(orders, axis=1) + size * np.arange(len(ks))[:, None]).ravel()
        for arr in (coefs, orders, inverse):
            arr.setflags(write=False)
        out.append((dk, coefs, orders, inverse))
    return tuple(out)


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


def _pure_values(W: np.ndarray, dims: tuple[int, ...], measure: str,
                 group: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Contributions p_j * T(rho_j) of the members made of each `group`
    consecutive unnormalized rows of W, and the gradient of their sum with
    respect to conj(W).

    A member is the pure vector w of its rows laid end to end, a state of
    the register extended by the row index, and p = |w|^2. Its marginal on
    the kept side K of a cut of `_cuts` is rho_K = f f^dag, f the dk x
    (group * D / dk) keep-first reshape of w. An entropy term p S(rho_K / p)
    has gradient -(log2(rho_K / p) x 1) w, with log 0 on eigenvalues under
    EIG_CLAMP; a linear-entropy term p - Tr(rho_K^2) / p has gradient
    w - (2 rho_K w - Tr(rho_K^2) w / p) / p. All cuts of one marginal
    dimension run as the member chunks of `core._blocks`, one member's
    gathered rows to an item: 2 x 2 marginals in closed form, larger ones
    through one eigh of f f^dag, the smaller side of its cut. Every member
    is computed on its own, so its numbers do not depend on the others or
    on the chunks. A member of weight at most 1e-14 is dead: its value and
    gradient are 0.
    """
    members = W.reshape(-1, group * W.shape[1])
    p = np.einsum("kd,kd->k", members, members.conj()).real
    live = p > 1e-14
    p_live = np.where(live, p, 1.0)
    values = np.zeros(len(members))
    grad = np.zeros_like(members)
    for dk, coefs, order, inverse in _cut_groups(dims, measure, group):
        c = len(coefs)
        for part in _blocks(len(members), order.size):
            k = part.stop - part.start
            flat = members[part, order].reshape(k * c, dk, -1)
            ps = np.repeat(p_live[part], c)
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
            values[part] += p[part] * (terms.reshape(k, c) * coefs).sum(axis=1)
            g = g.reshape(k, c, -1) * coefs[:, None]
            grad[part] += g.reshape(k, -1)[:, inverse].reshape(k, c, -1).sum(axis=1)
    return np.where(live, values, 0.0), np.where(live[:, None], grad, 0.0).reshape(W.shape)


# --- optimizer ---------------------------------------------------------

def _householder(X: np.ndarray) -> np.ndarray:
    """Q of each X = QR by Householder QR, with the phases fixed so that R
    has a positive diagonal."""
    Q, R = np.linalg.qr(X)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (d / np.abs(d))[..., None, :]


def _retract(X: np.ndarray) -> np.ndarray:
    """Q of each X = QR with R's diagonal positive, by Cholesky-QR.

    With L L^dag the Cholesky factorization of G = X^dag X, R = L^dag and
    Q = X L^-dag; a QR factor with a positive diagonal is unique, so this
    is the phase-fixed Householder Q up to rounding, as long as G stays
    well conditioned: Q^dag Q - I grows as about cond(G) times the machine
    epsilon. X = V + t D with D tangent at the isometry V has G = I + t^2
    D^dag D, at least I in exact arithmetic, but a long step along a nearly
    rank-deficient D makes it ill-conditioned and, in floating point, not
    even positive definite. Over the roofs of the test suite, and roofs
    with `ensemble_size` equal to the rank, cond(G) stayed below 1e3 and
    |Q^dag Q - I| below 5e-14. A stack whose factorization fails is
    retracted one matrix at a time, and a matrix that fails alone takes
    `_householder`, so each X gets the same Q in a stack as alone.
    """
    try:
        L = np.linalg.cholesky(X.conj().swapaxes(-1, -2) @ X)
    except np.linalg.LinAlgError:
        if len(X) == 1:
            return _householder(X)
        return np.concatenate([_retract(x) for x in X[:, None]])
    return X @ np.linalg.inv(L).conj().swapaxes(-1, -2)


def _project(V: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Each X projected onto the tangent space of the isometries at V; X may
    carry extra leading axes, each slice projected at the same stack V."""
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


def _bfgs_direction(g: np.ndarray, s: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The memoryless BFGS direction -H g of each restart, and whether it took one.

    H is the BFGS update of gamma I by the one pair (s, y), gamma =
    <s, y> / <y, y> (Nocedal and Wright, Numerical Optimization, section
    7.2): with a = <s, g> / <s, y>, q = gamma (g - a y) and b = <y, q> /
    <s, y>, H g = q + (a - b) s. H is positive definite and meets the
    secant condition H y = s. Where <s, y> <= 0 the direction is -g.
    """
    sy = _inner(s, y)
    curved = sy > 0.0
    sy = np.where(curved, sy, 1.0)
    a = _inner(s, g) / sy
    q = (sy / np.where(curved, _inner(y, y), 1.0))[:, None, None] * (g - a[:, None, None] * y)
    b = _inner(y, q) / sy
    d = np.where(curved[:, None, None], -(q + (a - b)[:, None, None] * s), -g)
    return d, curved


def _optimize_pure(A, dims, measure, m, seeds, cfg: RoofConfig, group: int):
    """Restarts seeded by `seeds`, run in lock step: Riemannian memoryless
    BFGS on a stack of m x r isometries V[k], with member rows W = V[k] A,
    `group` rows to a member. A restart starts from the phase-fixed
    Householder Q of a Gaussian m x r matrix, and an iteration is one Armijo
    line search along the retraction `_retract` (Cholesky-QR); a restart
    stops, converged, once a step gains less than the tolerance or the
    total drops below it. The restarts still searching are one contiguous
    work set, which a restart leaves when it stops: each evaluation is one
    `_pure_values` call on all their rows, and every restart takes the
    steps it would take alone.

    The line search backtracks by safeguarded quadratic interpolation
    (Nocedal and Wright, Numerical Optimization, section 3.5): a failed trial
    step t is replaced by the minimizer of the parabola through the total,
    the slope and the failed trial total, clipped to [t / 10, t / 2]. After
    an accepted step t along D, one stacked projection at the new point
    gives the gradient g, the old gradient carried there and the step s =
    t D carried there; with y = g minus the carried gradient, the next
    direction is `_bfgs_direction(g, s, y)`, and -g wherever its slope is
    not negative. Its first trial is 1 after a quasi-Newton direction and
    twice the last accepted step after -g.

    Returns the totals, the member rows V[k] A (V[k] passed through
    `_householder`) and the converged flags.
    """
    r = len(A)
    A_dag = A.conj().T

    def evaluate(V):
        # totals, and the gradient with respect to conj(V), not yet projected
        vals, G = _pure_values(V.reshape(-1, r) @ A, dims, measure, group)
        return vals.reshape(len(V), -1).sum(axis=1), (G @ A_dag).reshape(V.shape)

    starts = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        starts.append(rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r)))
    # a Gaussian start has no bound on its conditioning (it is square when
    # m = r), so it takes Householder QR
    V_out = _householder(np.stack(starts))
    total_out, G = evaluate(V_out)
    converged = total_out < cfg.tolerance
    # the work set: the restarts still searching, in seed order, one row each
    ids = np.flatnonzero(~converged)
    V, total = V_out[ids], total_out[ids]
    grad = _project(V, G[ids])
    direction = -grad
    step = np.ones(len(ids))
    iters = np.ones(len(ids), dtype=int)
    reductions = np.zeros(len(ids), dtype=int)
    # the derivative of the total along a direction D is 2 Re <grad, D>
    slope = 2.0 * _inner(grad, direction)
    while ids.size:
        moved = step[:, None, None] * direction
        V_new = _retract(V + moved)
        total_new, G_new = evaluate(V_new)
        ok = total_new < total + 1e-4 * step * slope

        # an Armijo failure at slope < 0 makes the curvature positive; a
        # non-finite or non-positive one falls back to halving
        curv = 2.0 * (total_new - total - slope * step)
        fit = ~ok & (curv > 0.0)
        t_min = np.where(fit, -slope * step * step / np.where(fit, curv, 1.0), 0.5 * step)
        step = np.where(ok, step, np.clip(t_min, 0.1 * step, 0.5 * step))
        reductions = np.where(ok, 0, reductions + 1)
        # each reduction at least halves the step, so 60 of them shrink it by
        # 1e18 or more: no step decreases the total, the restart is stationary
        stuck = reductions == 60

        # the new gradient, and the old gradient and the step carried to V_new
        grad_new, carried, s = _project(V_new, np.array([G_new, grad, moved]))
        direction_new, quasi = _bfgs_direction(grad_new, s, grad_new - carried)
        gained = (total - total_new < cfg.tolerance) | (total_new < cfg.tolerance)
        done = ok & (gained | (iters >= cfg.max_iterations))
        okm = ok[:, None, None]
        V = np.where(okm, V_new, V)
        total = np.where(ok, total_new, total)
        grad = np.where(okm, grad_new, grad)
        direction = np.where(okm, direction_new, direction)

        leaving = done | stuck
        if leaving.any():
            out = ids[leaving]
            V_out[out], total_out[out] = V[leaving], total[leaving]
            converged[out] = stuck[leaving] | (ok & gained)[leaving]
            keep = ~leaving
            ids, V, total, grad, direction, step, slope, iters, reductions, ok, quasi = (
                a[keep] for a in (ids, V, total, grad, direction, step, slope, iters,
                                  reductions, ok, quasi))
        # an accepted step starts the next line search
        iters = iters + ok
        new_slope = 2.0 * _inner(grad, direction)
        reset = ok & (new_slope >= 0.0)
        direction = np.where(reset[:, None, None], -grad, direction)
        slope = np.where(ok, np.where(reset, -2.0 * _inner(grad, grad), new_slope), slope)
        step = np.where(ok, np.where(quasi & ~reset, 1.0, 2.0 * step), step)
    # the returned rows are an exact decomposition only if V_out is an
    # isometry, which Cholesky-QR leaves to the conditioning of the steps
    return total_out, _householder(V_out) @ A, converged


def roof_minimize(rho: State, measure: str, config: RoofConfig | None = None) -> RoofResult:
    """Minimize the ensemble-averaged measure over decompositions of rho.

    Each candidate decomposes rho into max(m // g, r) members of g rows
    each. The pure roof runs g = 1, m pure members. The mixed roof returns
    the lowest of rho itself as its one member (the direct value) and the
    candidates for g = 1..r. A candidate is the first restart of least
    total; the winner supplies `per_restart_values` and `converged`.

    Returns an upper bound on the true convex roof; the reported value is
    exactly the ensemble average of the returned decomposition. Restarts
    are seeded as base seed + restart index, and a restart takes the same
    steps in a batch as alone, so the result is deterministic for a fixed
    config.
    """
    if measure not in MEASURE_NAMES:
        raise ValueError(f"measure must be one of {MEASURE_NAMES}")
    cfg = config or RoofConfig()
    shape = rho.shape
    if shape.nsites < 2:
        raise ValueError("roof requires at least 2 subsystems")
    if shape.dim > DIM_CAP:
        raise ResourceLimitError(f"dimension {shape.dim} exceeds cap {DIM_CAP}")

    if isinstance(rho, PureState):
        return _single(rho, measure)

    r, lam, vecs = _eigen(rho)
    if r == 1:
        return _single(PureState(shape, vecs[:, 0] / np.linalg.norm(vecs[:, 0])), measure)

    m = cfg.ensemble_size if cfg.ensemble_size is not None else r * r
    if m < r:
        raise ValueError(f"ensemble_size must be >= rank ({r}), got {m}")
    A = _eigen_rows(lam, vecs, r)
    seeds = [cfg.seed + k for k in range(cfg.restarts)]
    candidates, groups = [], (1,)
    if cfg.strategy == "mixed_roof":
        candidates, groups = [_single(rho, measure)], range(1, r + 1)
    for g in groups:
        totals, W, converged = _optimize_pure(
            A, shape.dims, measure, g * max(m // g, r), seeds, cfg, g)
        best = int(np.argmin(totals))
        weights, rows, members = _decompose(shape, W[best], g)
        value = float(np.dot(weights, _pure_values(rows, shape.dims, measure, g)[0]))
        candidates.append(RoofResult(value, Ensemble(tuple(weights), tuple(members)),
                                     tuple(totals.tolist()), bool(converged[best])))
    return min(candidates, key=lambda res: res.value)


def eof_two_qubit(rho: State) -> float:
    """Entanglement of Formation of a two-qubit state via the concurrence."""
    rho = as_density(rho)
    if rho.shape.dims != (2, 2):
        raise ValueError("requires a two-qubit state")
    _require_density(rho)
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


def roof_additivity_gap(sigma: State, eta: State, measure: str,
                        config: RoofConfig | None = None) -> float:
    """roof(sigma x eta) - roof(sigma) - roof(eta).

    The joint register lays out sigma's sites, then eta's, with dims a + b:
    each factor's sites stay separate parties. Roof additivity depends on
    that layout; pairing site i of sigma with site i of eta as one party is
    another claim, which this function does not test.
    """
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
