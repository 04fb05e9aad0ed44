"""Machine-speed calibration for the benchmark's time metrics.

On a shared machine the CPU speed drifts by tens of percent over tens of
seconds, and the drift is common to all code in the process. A fixed
chunk of the benchmark's own numpy work, which never calls the program,
is timed between operations; the program's times are then scaled to the
speed at which the chunk takes `NOMINAL_S`. A change to the program
moves its times and leaves the chunk alone, so the scaled times keep
the change and lose most of the drift.

The chunk's code is a frozen copy of the reference checks' batched SVD
entropies and Wootters concurrence, kept here so that a later fix or
speed-up of a check cannot move the speed factor.
"""

from __future__ import annotations

import math
import time
from itertools import combinations

import numpy as np

NOMINAL_S = 0.03  # the chunk's time at the reference speed


class Calibration:
    interval = 1.0  # seconds of operations between two chunks

    def __init__(self):
        rng = np.random.default_rng(0)
        self._states = rng.standard_normal((24, 64)) + 1j * rng.standard_normal((24, 64))
        g = rng.standard_normal((8, 4, 4)) + 1j * rng.standard_normal((8, 4, 4))
        self._rhos = [m @ m.conj().T / np.trace(m @ m.conj().T).real for m in g]
        self.times: list[float] = []

    def chunk(self) -> None:
        """Time one fixed chunk: batched SVD entropies and small eigen solves."""
        t0 = time.perf_counter()
        for _ in range(5):
            _pure_values(self._states)
            for rho in self._rhos:
                _wootters_eof(rho)
        self.times.append(time.perf_counter() - t0)

    def factor(self) -> float:
        """Multiply a measured time by this to get it at the reference speed."""
        return NOMINAL_S * len(self.times) / sum(self.times)


# --- the chunk's work; do not edit, or every scaled time moves ---------

def _entropies(spectra: np.ndarray) -> np.ndarray:
    safe = spectra > 1e-12
    return -np.where(safe, spectra * np.log2(np.where(safe, spectra, 1.0)), 0.0).sum(axis=-1)


def _spectra(amps: np.ndarray, n: int, keep: tuple[int, ...]) -> np.ndarray:
    lead = amps.shape[:-1]
    t = amps.reshape(lead + (2,) * n)
    axes = [len(lead) + k for k in keep]
    t = np.moveaxis(t, axes, range(len(lead), len(lead) + len(keep)))
    flat = t.reshape(lead + (2 ** len(keep), -1))
    return np.linalg.svd(flat, compute_uv=False) ** 2


def _pure_values(amps: np.ndarray) -> None:
    n = int(round(math.log2(amps.shape[-1])))
    singles = [_spectra(amps, n, (i,)) for i in range(n)]
    s1 = [_entropies(sp) for sp in singles]
    o_val = 0.5 * sum(s1)
    m_val = np.zeros(amps.shape[:-1])
    for i, j in combinations(range(n), 2):
        m_val = m_val + 0.5 * (s1[i] + s1[j] - _entropies(_spectra(amps, n, (i, j))))
    0.5 * (o_val + m_val)
    sum(1.0 - (sp ** 2).sum(axis=-1) for sp in singles)


def _wootters_eof(rho: np.ndarray) -> None:
    lam, vecs = np.linalg.eigh(rho)
    A = vecs * np.sqrt(np.clip(lam, 0.0, None))
    yy = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))
    sv = np.sort(np.linalg.svd(A.T @ yy @ A, compute_uv=False))[::-1]
    conc = max(0.0, sv[0] - sv[1] - sv[2] - sv[3])
    p = (1.0 + math.sqrt(max(0.0, 1.0 - conc * conc))) / 2.0
    q = np.array([p, 1.0 - p])
    q = q[q > 1e-12]
    float(-(q * np.log2(q)).sum())
