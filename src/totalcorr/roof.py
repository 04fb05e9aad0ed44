"""Convex-roof extension of the pure-state measures to mixed states.

The minimization runs over decompositions generated by m x r isometries
acting on the eigen-ensemble of the state (ensemble steering). Each
restart performs greedy complex plane rotations on pairs of ensemble
members, then polishes with numeric-gradient descent on the isometry
manifold with step halving. Restart seeds derive deterministically from
the base seed, so results are reproducible.
"""

from __future__ import annotations

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

MEASURE_NAMES = ("M", "O", "S", "MW")
STRATEGIES = ("pure_roof", "mixed_roof")


@dataclass(frozen=True)
class RoofConfig:
    """Knobs for the decomposition search.

    ensemble_size defaults to r^2 where r is the rank of the input;
    tolerance is the objective-change stopping threshold.
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
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")


@dataclass(frozen=True)
class RoofResult:
    """Best decomposition found and its ensemble-averaged measure value."""

    value: float
    ensemble: Ensemble
    per_restart_values: tuple[float, ...]
    converged: bool


def purify(rho: DensityMatrix) -> PureState:
    """Pure state on shape + ancilla whose ancilla trace reproduces rho."""
    lam, vecs = np.linalg.eigh(rho.matrix)
    order = np.argsort(lam)[::-1]
    lam, vecs = lam[order], vecs[:, order]
    r = max(1, int(np.count_nonzero(lam > RANK_TOL)))
    adim = max(r, 2)
    d = rho.shape.dim
    amps = np.zeros((d, adim), dtype=complex)
    for k in range(r):
        amps[:, k] = math.sqrt(max(lam[k], 0.0)) * vecs[:, k]
    flat = amps.reshape(-1)
    flat = flat / np.linalg.norm(flat)
    return PureState(RegisterShape(rho.shape.dims + (adim,)), flat)


def _eigen_rows(rho: DensityMatrix, r: int) -> np.ndarray:
    """r x D matrix whose rows are sqrt(lambda_k) * v_k, eigenvalues descending."""
    lam, vecs = np.linalg.eigh(rho.matrix)
    order = np.argsort(lam)[::-1]
    lam, vecs = lam[order[:r]], vecs[:, order[:r]]
    return (vecs * np.sqrt(np.clip(lam, 0.0, None))).T


def _numerical_rank(rho: DensityMatrix) -> int:
    """Rank of rho, which must be a valid density matrix."""
    lam = np.linalg.eigvalsh(rho.matrix)
    _require_density(rho, lam)
    return max(1, int(np.count_nonzero(lam > RANK_TOL)))


def ensemble_from_isometry(rho: DensityMatrix, V: np.ndarray) -> Ensemble:
    """Pure-state ensemble steered by an m x r isometry from the eigen-ensemble."""
    V = np.asarray(V, dtype=complex)
    if V.ndim != 2:
        raise ValueError("V must be a matrix")
    m, r = V.shape
    dev = np.max(np.abs(V.conj().T @ V - np.eye(r)))
    if dev > 1e-8:
        raise ValueError(f"V is not an isometry (max |V^dag V - I| = {dev:.3e})")
    if r < _numerical_rank(rho):
        raise ValueError("isometry has fewer columns than the rank of rho")
    return _ensemble(_row_members(rho.shape, V @ _eigen_rows(rho, r)))


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

def _batch_eigs(rhos: np.ndarray) -> np.ndarray:
    """Eigenvalues of a batch of small Hermitian matrices; closed form for 2x2."""
    if rhos.shape[-1] == 2:
        tr = np.real(rhos[:, 0, 0] + rhos[:, 1, 1])
        det = np.real(rhos[:, 0, 0] * rhos[:, 1, 1]) - np.abs(rhos[:, 0, 1]) ** 2
        disc = np.sqrt(np.clip(tr * tr - 4.0 * det, 0.0, None))
        return np.stack([(tr - disc) / 2.0, (tr + disc) / 2.0], axis=1)
    return np.linalg.eigvalsh(rhos)


def _eigs_entropies(vals: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Entropies from eigenvalues of p-unnormalized reduced matrices."""
    lam = np.clip(vals / np.maximum(p, 1e-300)[:, None], 0.0, None)
    safe = lam > EIG_CLAMP
    ent = -np.where(safe, lam * np.log2(np.where(safe, lam, 1.0)), 0.0).sum(axis=1)
    return np.where(p > 1e-14, ent, 0.0)


def _pure_values_two_qubit(W: np.ndarray, measure: str) -> np.ndarray:
    """Two-qubit fast path.

    For a pure two-qubit member both marginals share one spectrum, so
    M = O = S = S(rho_A) and MW = 2(1 - Tr rho_A^2), all closed-form in
    the 2x2 reshape of the amplitude row.
    """
    r00, r01, r10, r11 = W[:, 0], W[:, 1], W[:, 2], W[:, 3]
    p = (np.abs(r00) ** 2 + np.abs(r01) ** 2 + np.abs(r10) ** 2 + np.abs(r11) ** 2)
    det2 = np.abs(r00 * r11 - r01 * r10) ** 2
    ps = np.maximum(p, 1e-300)
    disc = np.sqrt(np.maximum(p * p - 4.0 * det2, 0.0))
    lo = np.maximum((p - disc) / (2.0 * ps), 0.0)
    hi = np.maximum((p + disc) / (2.0 * ps), 1e-300)
    if measure == "MW":
        val = 2.0 * (1.0 - lo * lo - hi * hi)
    else:
        safe_lo = lo > EIG_CLAMP
        val = -hi * np.log2(hi) - np.where(
            safe_lo, lo * np.log2(np.where(safe_lo, lo, 1.0)), 0.0
        )
    return np.where(p > 1e-14, p * val, 0.0)


def _pure_values(W: np.ndarray, dims: tuple[int, ...], measure: str) -> np.ndarray:
    """Weighted contributions p_j * T(psi_j) for unnormalized member rows W."""
    if dims == (2, 2):
        return _pure_values_two_qubit(W, measure)
    m = W.shape[0]
    n = len(dims)
    p = np.einsum("md,md->m", W, W.conj()).real
    T = W.reshape((m,) + dims)

    def marg(keep):
        t = np.moveaxis(T, [k + 1 for k in keep], range(1, len(keep) + 1))
        dk = math.prod(dims[k] for k in keep)
        flat = t.reshape(m, dk, -1)
        return np.einsum("mir,mjr->mij", flat, flat.conj())

    reds = [marg((i,)) for i in range(n)]
    if measure == "MW":
        val = np.zeros(m)
        for red in reds:
            purity = (_batch_eigs(red) ** 2).sum(axis=1) / np.maximum(p, 1e-300) ** 2
            val += np.where(p > 1e-14, 1.0 - purity, 0.0)
        return p * val
    pairs = {}
    if measure != "O":
        for i, j in combinations(range(n), 2):
            # with two sites the pair marginal is the whole pure member
            pairs[i, j] = 0.0 if n == 2 else _eigs_entropies(_batch_eigs(marg((i, j))), p)
    singles = [_eigs_entropies(_batch_eigs(red), p) for red in reds]
    return p * _correlations(singles, pairs, 0.0)[measure]


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
    best_val = float(_pure_values(W, dims, measure).sum())
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

_THETA_FRACTIONS = (1.0, -1.0, 0.35, -0.35)
_PHIS = (0.0, math.pi / 2)


def _rotated_rows(wa: np.ndarray, wb: np.ndarray, theta: float, phi: float):
    c, s = math.cos(theta), math.sin(theta)
    ph = complex(math.cos(phi), math.sin(phi))
    return c * wa + ph * s * wb, -np.conj(ph) * s * wa + c * wb


def _rotation_coefficients(params):
    """(cos, phase*sin) column vectors for a list of (theta, phi) candidates."""
    theta = np.array([t for t, _ in params])
    phase = np.exp(1j * np.array([f for _, f in params]))
    return np.cos(theta)[:, None], (phase * np.sin(theta))[:, None]


def _candidate_rows(wa, wb, coeffs):
    c, ps = coeffs
    rows = np.empty((2 * c.shape[0], wa.shape[0]), dtype=complex)
    rows[0::2] = c * wa + ps * wb
    rows[1::2] = -np.conj(ps) * wa + c * wb
    return rows


class _PureObjective:
    """Incremental evaluation: a pair rotation only touches two member rows."""

    def __init__(self, W: np.ndarray, dims: tuple[int, ...], measure: str):
        self.W = W
        self.dims = dims
        self.measure = measure
        self.c = _pure_values(W, dims, measure)
        self.total = float(self.c.sum())

    def pair_step(self, a: int, b: int, coeffs) -> float:
        rows = _candidate_rows(self.W[a], self.W[b], coeffs)
        vals = _pure_values(rows, self.dims, self.measure)
        base = self.total - self.c[a] - self.c[b]
        cand = base + vals[0::2] + vals[1::2]
        k = int(np.argmin(cand))
        gain = self.total - float(cand[k])
        if gain <= 0.0:
            return 0.0
        self.W[a], self.W[b] = rows[2 * k], rows[2 * k + 1]
        self.c[a], self.c[b] = vals[2 * k], vals[2 * k + 1]
        self.total = float(cand[k])
        return gain

    def pair_gradients(self, pairs, h: float) -> tuple[np.ndarray, np.ndarray]:
        """Central-difference slopes along both plane-rotation generators,
        batched over all pairs in one objective evaluation."""
        a_idx = np.array([a for a, _ in pairs])
        b_idx = np.array([b for _, b in pairs])
        wa, wb = self.W[a_idx], self.W[b_idx]
        c, s = math.cos(h), math.sin(h)
        # candidate order per pair: (+h,0), (-h,0), (+h,pi/2), (-h,pi/2)
        phases = (1.0, 1.0, 1.0j, 1.0j)
        signs = (1.0, -1.0, 1.0, -1.0)
        rows = np.empty((len(pairs), 8, wa.shape[1]), dtype=complex)
        for k, (ph, sg) in enumerate(zip(phases, signs)):
            rows[:, 2 * k] = c * wa + ph * sg * s * wb
            rows[:, 2 * k + 1] = -np.conj(ph) * sg * s * wa + c * wb
        vals = _pure_values(rows.reshape(-1, wa.shape[1]), self.dims, self.measure)
        vals = vals.reshape(len(pairs), 8)
        f = vals[:, 0::2] + vals[:, 1::2]  # per-pair candidate sums
        g0 = (f[:, 0] - f[:, 1]) / (2 * h)
        g1 = (f[:, 2] - f[:, 3]) / (2 * h)
        return g0, g1

    def apply_unitary(self, U: np.ndarray) -> None:
        self.W = U @ self.W
        self.c = _pure_values(self.W, self.dims, self.measure)
        self.total = float(self.c.sum())


def _gradient_step(obj: _PureObjective, pairs) -> float:
    """One step of numeric-gradient descent on the member-mixing unitary."""
    m = obj.W.shape[0]
    g0, g1 = obj.pair_gradients(pairs, 1e-5)
    G = np.zeros((m, m), dtype=complex)
    for (a, b), ga, gb in zip(pairs, g0, g1):
        # generators: K0 = E_ab - E_ba, K1 = i(E_ab + E_ba)
        G[a, b] += -ga - 1j * gb
        G[b, a] += ga - 1j * gb
    gnorm = float(np.linalg.norm(G))
    if gnorm < 1e-12:
        return 0.0
    step = 1.0 / gnorm
    # G is anti-Hermitian: exp(step G) = U exp(-i step w) U^dag for iG = U diag(w) U^dag
    w, U = np.linalg.eigh(1j * G)
    W0, c0, t0 = obj.W.copy(), obj.c.copy(), obj.total
    for _ in range(30):
        obj.apply_unitary((U * np.exp(-1j * step * w)) @ U.conj().T)
        if obj.total < t0 - 1e-15:
            return t0 - obj.total
        obj.W, obj.c, obj.total = W0.copy(), c0.copy(), t0
        step *= 0.5
    return 0.0


def _optimize_restart_pure(A, dims, measure, m, rng, cfg: RoofConfig):
    """One restart: rotation sweeps, then gradient polish. An iteration is
    one full sweep over member pairs (or one gradient step)."""
    r = A.shape[0]
    X = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
    V, _ = np.linalg.qr(X)
    obj = _PureObjective(V @ A, dims, measure)
    pairs = list(combinations(range(m), 2))
    iters = 0
    scale = math.pi / 4
    prev_gain = math.inf
    converged = False
    while iters < cfg.max_iterations and scale > 1e-2:
        iters += 1
        sweep_gain = 0.0
        coeffs = _rotation_coefficients(
            [(scale * f, phi) for f in _THETA_FRACTIONS for phi in _PHIS]
        )
        for idx in rng.permutation(len(pairs)):
            a, b = pairs[idx]
            sweep_gain += obj.pair_step(a, b, coeffs)
        if obj.total < cfg.tolerance:
            return obj.total, obj.W, True
        if sweep_gain < max(cfg.tolerance, 0.25 * prev_gain):
            scale *= 0.4
        prev_gain = sweep_gain
    while iters < cfg.max_iterations:
        iters += 1
        gain = _gradient_step(obj, pairs)
        if gain < cfg.tolerance:
            converged = True
            break
    return obj.total, obj.W, converged


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
    are seeded as base seed + restart index, so the result is
    deterministic for a fixed config.
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

    r = _numerical_rank(rho)
    if r == 1:
        lam, vecs = np.linalg.eigh(rho.matrix)
        psi = PureState(shape, vecs[:, -1] / np.linalg.norm(vecs[:, -1]))
        value = direct_measure(psi, measure)
        return RoofResult(value, Ensemble((1.0,), (psi,)), (value,), True)

    m = cfg.ensemble_size if cfg.ensemble_size is not None else r * r
    if m < r:
        raise ValueError(f"ensemble_size must be >= rank ({r}), got {m}")
    A = _eigen_rows(rho, r)
    optimize = _optimize_restart_pure if cfg.strategy == "pure_roof" else _optimize_restart_mixed

    per_restart = []
    best = None
    for rr in range(cfg.restarts):
        rng = np.random.default_rng(cfg.seed + rr)
        value, W, converged = optimize(A, shape.dims, measure, m, rng, cfg)
        per_restart.append(float(value))
        if best is None or value < best[0]:
            best = (float(value), W, converged)

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
