"""Reference values for the benchmark's output checks.

Everything here works from amplitude vectors and density matrices with
numpy and scipy alone and never calls `totalcorr`, so a fault in the
program cannot hide inside its own check. Registers are qubits, with
subsystem 0 as the most significant digit of the basis index, as in the
program.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

CLAMP = 1e-12


def entropy_bits(spectrum) -> float:
    """Shannon entropy in bits of a probability vector; tiny entries drop."""
    p = np.asarray(spectrum, dtype=float)
    p = p[p > CLAMP]
    return float(-(p * np.log2(p)).sum())


def _entropies_batched(spectra: np.ndarray) -> np.ndarray:
    safe = spectra > CLAMP
    return -np.where(safe, spectra * np.log2(np.where(safe, spectra, 1.0)), 0.0).sum(axis=-1)


# --- pure states: marginal spectra by singular-value decomposition -----

def schmidt_spectra(amps: np.ndarray, n: int, keep: tuple[int, ...]) -> np.ndarray:
    """Spectra of the marginal on `keep` for a batch of pure states.

    `amps` has shape (..., 2**n). The spectrum is the squared singular
    values of the amplitudes reshaped across the cut keep | rest.
    """
    lead = amps.shape[:-1]
    t = amps.reshape(lead + (2,) * n)
    axes = [len(lead) + k for k in keep]
    t = np.moveaxis(t, axes, range(len(lead), len(lead) + len(keep)))
    flat = t.reshape(lead + (2 ** len(keep), -1))
    return np.linalg.svd(flat, compute_uv=False) ** 2


def pure_values(amps: np.ndarray) -> dict[str, np.ndarray]:
    """O, M, S and MW, in bits, of a batch of pure qubit states (..., 2**n)."""
    amps = np.asarray(amps, dtype=complex)
    n = int(round(math.log2(amps.shape[-1])))
    singles = [schmidt_spectra(amps, n, (i,)) for i in range(n)]
    s1 = [_entropies_batched(sp) for sp in singles]
    o_val = 0.5 * sum(s1)
    m_val = np.zeros(amps.shape[:-1])
    for i, j in combinations(range(n), 2):
        s_ij = 0.0 if n == 2 else _entropies_batched(schmidt_spectra(amps, n, (i, j)))
        m_val = m_val + 0.5 * (s1[i] + s1[j] - s_ij)
    mw_val = sum(1.0 - (sp ** 2).sum(axis=-1) for sp in singles)
    return {"O": o_val, "M": m_val, "S": 0.5 * (o_val + m_val), "MW": mw_val}


# --- the sweep families, built here without the program ----------------

def _basis_sum(n: int, indices) -> np.ndarray:
    amps = np.zeros(2 ** n, dtype=complex)
    idx = list(indices)
    amps[idx] = 1.0 / math.sqrt(len(idx))
    return amps


def ghz_vec(n: int) -> np.ndarray:
    return _basis_sum(n, (0, 2 ** n - 1))


def w_vec(n: int) -> np.ndarray:
    return _basis_sum(n, (1 << j for j in range(n)))


def wbar_vec(n: int) -> np.ndarray:
    return _basis_sum(n, ((2 ** n - 1) ^ (1 << j) for j in range(n)))


def cluster_vec(n: int) -> np.ndarray:
    h = n // 2
    low = (1 << h) - 1
    amps = np.zeros(2 ** n, dtype=complex)
    amps[[0, low, low << h]] = 0.5
    amps[2 ** n - 1] = -0.5
    return amps


def epr_power_vec(n: int) -> np.ndarray:
    amps = np.ones(1, dtype=complex)
    for _ in range(n // 2):
        amps = np.kron(amps, ghz_vec(2))
    return amps


def family1_vec(x: float, n: int) -> np.ndarray:
    return math.sqrt(x) * ghz_vec(n) + math.sqrt(1 - x) * w_vec(n)


def family2_vec(x: float, n: int) -> np.ndarray:
    return math.sqrt(x) * w_vec(n) + math.sqrt(1 - x) * wbar_vec(n)


# family -> (amplitude constructor, smallest n, even n only, takes x)
FAMILIES = {
    "cluster": (cluster_vec, 4, True, False),
    "epr_power": (epr_power_vec, 2, True, False),
    "family1": (family1_vec, 3, False, True),
    "family2": (family2_vec, 3, False, True),
    "ghz": (ghz_vec, 2, False, False),
    "w": (w_vec, 2, False, False),
    "wbar": (wbar_vec, 2, False, False),
}
X_GRID = tuple(k / 20 for k in range(21))  # the sweep's default 0:1:0.05


def sweep_grid(n_lo: int, n_hi: int) -> list[tuple[str, int, str]]:
    """Every (family, n, x column) row of an all-family sweep on the default x grid."""
    rows = []
    for family, (_, min_n, even, para) in FAMILIES.items():
        for n in range(max(n_lo, min_n), n_hi + 1):
            if even and n % 2:
                continue
            if para:
                rows.extend((family, n, f"{x:.2f}") for x in X_GRID)
            else:
                rows.append((family, n, ""))
    return rows


def sweep_row_values(family: str, n: int, xcol: str) -> dict[str, float]:
    """O, M, S and MW of one sweep row from SVD marginal entropies."""
    build, _, _, para = FAMILIES[family]
    amps = build(float(xcol), n) if para else build(n)
    return {k: float(v) for k, v in pure_values(amps).items()}


# --- closed forms -------------------------------------------------------

def binary_entropy(p: float) -> float:
    return entropy_bits([p, 1.0 - p])


def ghz_closed(n: int) -> dict[str, float]:
    m_val = 1.0 if n == 2 else math.comb(n, 2) / 2
    return {"O": n / 2, "M": m_val, "S": 0.5 * (n / 2 + m_val), "MW": n / 2}


def w_closed(n: int) -> dict[str, float]:
    """W_n: single-site spectrum {1-1/n, 1/n}, pair spectrum {1-2/n, 2/n}."""
    s1, s2 = binary_entropy(1 / n), binary_entropy(2 / n)
    o_val = n * s1 / 2
    m_val = math.comb(n, 2) * 0.5 * (2 * s1 - s2)
    return {"O": o_val, "M": m_val, "S": 0.5 * (o_val + m_val), "MW": 2 * (1 - 1 / n)}


def epr_power_closed(n: int) -> dict[str, float]:
    return {"O": n / 2, "M": n / 2, "S": n / 2, "MW": n / 2}


# --- mixed states -------------------------------------------------------

def reduced_density(rho: np.ndarray, n: int, keep: tuple[int, ...]) -> np.ndarray:
    """Partial trace of an n-qubit density matrix onto `keep`, one contraction."""
    drop = [i for i in range(n) if i not in keep]
    order = list(keep) + drop
    t = rho.reshape((2,) * (2 * n)).transpose(order + [n + i for i in order])
    dk, dd = 2 ** len(keep), 2 ** len(drop)
    return np.einsum("ajbj->ab", t.reshape(dk, dd, dk, dd))


def mixed_report(rho: np.ndarray) -> dict:
    """Pair probes, O, M, S and MW of an n-qubit density matrix."""
    n = int(round(math.log2(rho.shape[0])))
    singles = [reduced_density(rho, n, (i,)) for i in range(n)]
    s1 = [entropy_bits(np.linalg.eigvalsh(r)) for r in singles]
    pairs = {}
    for i, j in combinations(range(n), 2):
        s_ij = entropy_bits(np.linalg.eigvalsh(reduced_density(rho, n, (i, j))))
        pairs[(i, j)] = 0.5 * (s1[i] + s1[j] - s_ij)
    o_val = 0.5 * (sum(s1) - entropy_bits(np.linalg.eigvalsh(rho)))
    m_val = sum(pairs.values())
    mw_val = sum(1.0 - float(np.real(np.trace(r @ r))) for r in singles)
    return {
        "pairs": pairs, "O": o_val, "M": m_val, "S": 0.5 * (o_val + m_val), "MW": mw_val,
        "bound_M": math.comb(n, 2) / (2 - (n == 2)),
        "bound_S": (math.comb(n, 2) / (2 - (n == 2)) + n / 2) / 2,
    }


def wootters_eof(rho: np.ndarray) -> float:
    """Two-qubit entanglement of formation from the Wootters concurrence.

    With rho = A A^dag, the concurrence eigenvalues are the singular
    values of the symmetric matrix A^T (sy x sy) A.
    """
    lam, vecs = np.linalg.eigh(rho)
    A = vecs * np.sqrt(np.clip(lam, 0.0, None))
    yy = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))
    sv = np.sort(np.linalg.svd(A.T @ yy @ A, compute_uv=False))[::-1]
    conc = max(0.0, sv[0] - sv[1] - sv[2] - sv[3])
    return binary_entropy((1.0 + math.sqrt(max(0.0, 1.0 - conc * conc))) / 2.0)


def grid_roof_M(rho: np.ndarray, thetas: int = 41, phis: int = 48) -> float:
    """Roof of M for a rank-2 state as a linear program over a Bloch grid.

    Decompositions of a rank-2 state are points on the Bloch sphere of its
    support, so the roof is the lower convex envelope of the pure-state M
    at the state's Bloch vector. The grid makes this an upper bound that
    tightens as the grid is refined.
    """
    from scipy.optimize import linprog

    lam, vecs = np.linalg.eigh(rho)
    v1, v2 = vecs[:, -1], vecs[:, -2]
    t, ph = np.meshgrid(
        np.linspace(0.0, np.pi / 2, thetas),
        np.linspace(0.0, 2 * np.pi, phis, endpoint=False),
        indexing="ij",
    )
    t, ph = t.ravel(), ph.ravel()
    amps = np.cos(t)[:, None] * v1 + (np.exp(1j * ph) * np.sin(t))[:, None] * v2
    values = pure_values(amps)["M"]
    bloch = np.stack([np.sin(2 * t) * np.cos(ph), np.sin(2 * t) * np.sin(ph), np.cos(2 * t)])
    a_eq = np.vstack([bloch, np.ones(t.size)])
    b_eq = np.array([0.0, 0.0, (lam[-1] - lam[-2]) / (lam[-1] + lam[-2]), 1.0])
    lp = linprog(values, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if lp.status != 0:
        raise RuntimeError(f"grid LP failed: {lp.message}")
    return float(lp.fun)
