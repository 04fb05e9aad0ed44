"""Dense complex linear algebra over multi-qudit registers.

Conventions used throughout the package:

- subsystem 0 is the most significant digit of the computational-basis
  index (left-to-right ket order),
- matrices are dense row-major ``numpy`` arrays of ``complex128``,
- partial traces preserve the original register order of the kept
  subsystems.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

DEFAULT_TOL = 1e-10
INPUT_TOL = 1e-8  # accepted deviation of a density matrix given as input


class ResourceLimitError(RuntimeError):
    """A request exceeds the configured size caps."""


class SupportError(ValueError):
    """A relative-entropy support condition is violated."""


def _indices(values: Iterable, what: str) -> tuple[int, ...]:
    """The values as ints: numpy integers pass, and a float or any other
    non-integral value raises ValueError instead of being truncated."""
    values = tuple(values)
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"{what} must be integers, got {values}") from None


def _check_dims(dims: Iterable[int]) -> tuple[int, ...]:
    dims = _indices(dims, "local dimensions")
    if not dims:
        raise ValueError("register needs at least one subsystem")
    if min(dims) < 2:
        raise ValueError(f"local dimensions must be >= 2, got {dims}")
    return dims


def _check_keep(keep: Iterable[int], nsites: int) -> tuple[int, ...]:
    keep = sorted(set(_indices(keep, "subsystem indices")))
    if not keep:
        raise ValueError("subsystem selection must be non-empty")
    if keep[0] < 0 or keep[-1] >= nsites:
        raise ValueError(f"subsystem index out of range for {nsites} subsystems: {keep}")
    return tuple(keep)


@functools.lru_cache(maxsize=4096)
def _keep_first(dims: tuple[int, ...], keep: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Axis order with the sites of `keep` first, the traced sites after them,
    each part in register order, and the dimension of the kept part.

    Both arguments must be int tuples as `_check_dims` and `_check_keep`
    return them, `keep` sorted and in range: a float hashes and compares
    equal to its int, so an unchecked key could hit an entry made for a
    valid one. The cache is bounded, and holds no array.
    """
    traced = tuple(i for i in range(len(dims)) if i not in keep)
    return keep + traced, math.prod(dims[i] for i in keep)


@dataclass(frozen=True)
class RegisterShape:
    """Ordered local dimensions of a multi-qudit register."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", _check_dims(self.dims))

    @property
    def dim(self) -> int:
        """Total Hilbert-space dimension."""
        return math.prod(self.dims)

    @property
    def nsites(self) -> int:
        return len(self.dims)

    def restrict(self, keep: Iterable[int]) -> "RegisterShape":
        """Shape of the register reduced to `keep`, original order preserved."""
        keep = _check_keep(keep, self.nsites)
        return RegisterShape(tuple(self.dims[i] for i in keep))


def _frozen_complex(arr, shape) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    if out.shape != shape:
        raise ValueError(f"expected array of shape {shape}, got {out.shape}")
    if not np.all(np.isfinite(out.view(float))):
        raise ValueError("entries must be finite")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite state over a register.

    Construction checks only dimensions and finiteness; the numeric
    invariants are checked by :func:`validate_density`.
    """

    shape: RegisterShape
    matrix: np.ndarray

    def __post_init__(self) -> None:
        d = self.shape.dim
        object.__setattr__(self, "matrix", _frozen_complex(self.matrix, (d, d)))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; dimensions multiply."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace_matrix(mat: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out every subsystem not in `keep` from a raw matrix, kept order preserved.

    One `einsum` over the `dims + dims` tensor repeats each traced label; the
    diagonal it selects is summed pairwise, as accurate as tracing site by site."""
    dims = _check_dims(dims)
    keep = _check_keep(keep, len(dims))
    order, dk = _keep_first(dims, keep)
    n, traced = len(dims), order[len(keep):]
    cols = [n + i if i in keep else i for i in range(n)]
    t = np.asarray(mat, dtype=complex).reshape(dims + dims)
    diag = np.einsum(t, list(range(n)) + cols, [*keep, *(n + i for i in keep), *traced])
    return np.ascontiguousarray(diag).reshape(dk, dk, -1).sum(axis=-1)


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced state on the subsystems in `keep` (original order preserved)."""
    keep = _check_keep(keep, rho.shape.nsites)
    reduced = partial_trace_matrix(rho.matrix, rho.shape.dims, keep)
    return DensityMatrix(rho.shape.restrict(keep), reduced)


def pure_marginal(amplitudes: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Reduced density matrix on `keep` of the pure state with these amplitudes.

    The amplitude tensor, its kept sites moved first, is copied once into a
    dk x (D / dk) matrix F, and the marginal is F F^dag, in the original
    order of the kept sites. The full D x D matrix is never formed, which
    keeps sweeps over large registers cheap. Site indices may come in any
    order, repeated or as numpy integers; an empty, out-of-range or
    non-integral selection raises ValueError.
    """
    dims = _check_dims(dims)
    order, dk = _keep_first(dims, _check_keep(keep, len(dims)))
    flat = np.asarray(amplitudes, dtype=complex).reshape(dims).transpose(order).reshape(dk, -1)
    return flat @ flat.conj().T


def hermitian_eigenvalues(h: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending.

    Raises ValueError when the input deviates from Hermiticity by more
    than `tol` entrywise.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    dev = np.max(np.abs(h - h.conj().T))
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    return np.linalg.eigvalsh(h)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the density-matrix invariant checks."""

    ok: bool
    violations: tuple[str, ...]
    hermiticity_deviation: float
    trace_deviation: float
    min_eigenvalue: float


def validate_density(rho: DensityMatrix, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check Hermiticity, unit trace and positivity at tolerance `tol`."""
    mat = rho.matrix
    sym = (mat + mat.conj().T) / 2
    return _validation_report(mat, np.linalg.eigvalsh(sym), tol)


def _validation_report(mat: np.ndarray, spectrum: np.ndarray, tol: float) -> ValidationReport:
    violations = []
    herm_dev = float(np.max(np.abs(mat - mat.conj().T)))
    if herm_dev > tol:
        violations.append(f"not Hermitian: max |rho - rho^dag| = {herm_dev:.3e}")
    trace_dev = float(abs(np.trace(mat) - 1.0))
    if trace_dev > tol:
        violations.append(f"trace differs from 1 by {trace_dev:.3e}")
    min_eig = float(np.min(spectrum))
    if min_eig < -tol:
        violations.append(f"negative eigenvalue {min_eig:.3e}")
    return ValidationReport(
        ok=not violations,
        violations=tuple(violations),
        hermiticity_deviation=herm_dev,
        trace_deviation=trace_dev,
        min_eigenvalue=min_eig,
    )


def _require_density(rho: DensityMatrix, spectrum: np.ndarray | None = None) -> None:
    """Raise ValueError unless rho is a density matrix within INPUT_TOL;
    a caller that already diagonalized rho passes its eigenvalues."""
    if spectrum is None:
        spectrum = np.linalg.eigvalsh(rho.matrix)
    report = _validation_report(rho.matrix, spectrum, INPUT_TOL)
    if not report.ok:
        raise ValueError("invalid density matrix: " + "; ".join(report.violations))
