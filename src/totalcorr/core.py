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
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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


@functools.lru_cache(maxsize=4096)
def _stacked_order(dims: tuple[int, ...], keep: tuple[int, ...]) -> tuple[int, ...]:
    """The axis order of `_keep_first` behind a leading axis, which stays first."""
    return (0, *(1 + i for i in _keep_first(dims, keep)[0]))


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


def _frozen_complex(arr, shape, copy: bool = True) -> np.ndarray:
    """arr as a read-only complex array of this shape with finite entries;
    without `copy` a complex array is frozen in place, not copied."""
    out = np.array(arr, dtype=complex) if copy else np.asarray(arr, dtype=complex)
    if out.shape != shape:
        raise ValueError(f"expected array of shape {shape}, got {out.shape}")
    if not np.all(np.isfinite(out.view(float))):
        raise ValueError("entries must be finite")
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite state over a register.

    Construction checks only dimensions and finiteness; the numeric
    invariants are checked by :func:`validate_density`. Densities compare
    and hash by identity: an element-wise comparison of their matrices has
    no single truth value.
    """

    shape: RegisterShape
    matrix: np.ndarray

    def __post_init__(self) -> None:
        d = self.shape.dim
        object.__setattr__(self, "matrix", _frozen_complex(self.matrix, (d, d)))

    @classmethod
    def _adopt(cls, shape: RegisterShape, mat: np.ndarray) -> "DensityMatrix":
        """The density of a complex matrix that its builder has just made and
        holds no other reference to: `mat` is frozen and kept, with the
        checks of construction but without its D x D copy."""
        rho = cls.__new__(cls)
        object.__setattr__(rho, "shape", shape)
        object.__setattr__(rho, "matrix", _frozen_complex(mat, (shape.dim,) * 2, copy=False))
        return rho


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


def _by_dimension(dims: tuple[int, ...], keeps: Sequence[tuple[int, ...]]) -> dict[int, list[int]]:
    """Positions in `keeps` grouped by the dimension of the marginal on each
    keep, in order of first appearance; `dims` and every keep must be
    checked as `_keep_first` requires."""
    groups: dict[int, list[int]] = {}
    for k, keep in enumerate(keeps):
        groups.setdefault(_keep_first(dims, keep)[1], []).append(k)
    return groups


def _pure_marginal_stacks(amplitudes: np.ndarray, dims: tuple[int, ...],
                          keeps: Sequence[tuple[int, ...]]) -> np.ndarray:
    """The marginals of S pure states of one register on each of `keeps`,
    keeps whose marginals share one dimension dk, as an (S, count, dk, dk)
    stack, state by state.

    `amplitudes` holds the states' amplitude vectors as an (S, D) array.
    `dims` and every keep must be checked as `_check_dims` and `_check_keep`
    return them; `_by_dimension` groups keeps by size. The marginal is
    F F^dag, F the amplitude tensor with the kept sites moved first, in
    their original order, as a dk x (D/dk) matrix; the full D x D matrix is
    never formed. The F of consecutive keeps, each for all S states in one
    transposed copy, are copied into one array, which with its conjugate
    fills a block of `_blocks` (at 2 S D entries per keep, so a lone state
    is chunked as a register alone, and a caller bounds a chunk by bounding
    S D), and one stacked F F^dag takes their marginals. Each matrix is the
    one a lone F @ F.conj().T would give, bit for bit.
    """
    t = np.asarray(amplitudes, dtype=complex)
    count, size = t.shape
    t = t.reshape((count,) + dims)
    dk = _keep_first(dims, keeps[0])[1]
    out = np.empty((len(keeps), count, dk, dk), dtype=complex)
    for chunk in _blocks(len(keeps), 2 * t.size):
        F = np.empty((chunk.stop - chunk.start, count, dk, size // dk), dtype=complex)
        for f, keep in zip(F, keeps[chunk]):
            moved = t.transpose(_stacked_order(dims, keep))
            f.reshape(moved.shape)[...] = moved
        np.matmul(F, F.conj().transpose(0, 1, 3, 2), out=out[chunk])
    return out.transpose(1, 0, 2, 3)


# The low-rank spectrum path of `_certified_spectrum`. Below dimension 64 a dense
# eigvalsh takes well under a millisecond and there is little to save. A
# factor of at most D/16 columns keeps the pivot loop and the residual check
# (O(D k^2) and O(D^2 k)) a few percent of the O(D^3) dense call they
# replace or precede.
# SPECTRUM_TOL bounds the Frobenius residual, hence by Weyl's inequality
# how far any eigenvalue of rho may lie from the returned spectrum: a tenth
# of the 1e-12 entropy clamp of `measures.EIG_CLAMP`, far below INPUT_TOL.
SPECTRUM_MIN_DIM = 64
SPECTRUM_RANK_DIVISOR = 16
SPECTRUM_TOL = 1e-13
# Entries per block of `_per_block`, its one reader, which sizes the row
# passes over a density, the F chunks of the stacked pure marginals (F and
# its conjugate together), the roof objective's gathered cut stacks
# (`roof._pure_values`) and the slices of a stream of reports
# (`measures._reports`): 256 KB of complex128 stays in cache. Larger blocks
# were no faster, and their products with a low-rank factor were at times
# far slower where BLAS spread them over threads.
BLOCK_ENTRIES = 1 << 14


def _per_block(entries: int) -> int:
    """How many items of `entries` entries each a block of BLOCK_ENTRIES
    entries holds: one when a single item is larger."""
    return max(1, BLOCK_ENTRIES // entries)


def _blocks(count: int, entries: int) -> Iterator[slice]:
    """Slices of consecutive items out of `count`, `_per_block(entries)`
    items each."""
    step = _per_block(entries)
    return (slice(i, min(i + step, count)) for i in range(0, count, step))


def _certified_factor(mat: np.ndarray) -> np.ndarray | None:
    """L (D x k, k <= D / SPECTRUM_RANK_DIVISOR) with ||mat - L L^dag||_F at
    most SPECTRUM_TOL, or None when no such factor is found.

    L is the diagonally pivoted Cholesky factor (Hammarling, Higham and
    Lucas, PARA 2006), stopped once the largest remaining diagonal entry is
    below SPECTRUM_TOL / D. The remaining diagonal is the real part of the
    residual's, so one entry above SPECTRUM_TOL fails the check at once;
    otherwise the residual is formed, and its norm summed, over row blocks.
    """
    d = len(mat)
    kmax = d // SPECTRUM_RANK_DIVISOR
    diag = mat.diagonal().real.copy()
    L = np.zeros((d, kmax), dtype=complex)
    k = 0
    while k < kmax:
        p = int(np.argmax(diag))
        if diag[p] <= SPECTRUM_TOL / d:
            break
        L[:, k] = (mat[:, p] - L[:, :k] @ L[p, :k].conj()) / math.sqrt(diag[p])
        diag -= L[:, k].real ** 2 + L[:, k].imag ** 2
        k += 1
    if k == 0 or np.max(np.abs(diag)) > SPECTRUM_TOL:
        return None
    L = L[:, :k]
    lh = L.conj().T
    sq = 0.0
    for blk in _blocks(d, d):
        res = L[blk] @ lh
        res -= mat[blk]
        sq += np.vdot(res, res).real
    return L if sq <= SPECTRUM_TOL ** 2 else None


def _certified_spectrum(mat: np.ndarray) -> tuple[np.ndarray, bool]:
    """Ascending eigenvalues of a Hermitian matrix, certified to SPECTRUM_TOL,
    and whether a certified factor gave them.

    From dimension SPECTRUM_MIN_DIM, when `_certified_factor` finds L, the
    spectrum is that of the k x k matrix L^dag L padded with zeros: by
    Weyl's inequality every eigenvalue of mat lies within SPECTRUM_TOL of
    it. A matrix of higher rank, or with an eigenvalue below -SPECTRUM_TOL,
    takes the dense `np.linalg.eigvalsh` instead.
    """
    d = len(mat)
    L = _certified_factor(mat) if d >= SPECTRUM_MIN_DIM else None
    if L is None:
        return np.linalg.eigvalsh(mat), False
    small = np.linalg.eigvalsh(L.conj().T @ L)
    return np.sort(np.concatenate((np.zeros(d - len(small)), small))), True


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


def _validation_report(mat: np.ndarray, spectrum: np.ndarray, tol: float,
                       herm_dev: float | None = None) -> ValidationReport:
    """The report on mat with this spectrum; a known upper bound `herm_dev`
    on max |mat - mat^dag| stands in for the blockwise pass."""
    violations = []
    if herm_dev is None:
        # |a_ij - conj(a_ji)| is symmetric in i and j, so each row block
        # needs only the columns from its first row on
        herm_dev = float(max(np.max(np.abs(mat[b, b.start:] - mat[b.start:, b].conj().T))
                             for b in _blocks(len(mat), len(mat))))
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


def _require_density(rho: DensityMatrix, spectrum: np.ndarray | None = None) -> np.ndarray:
    """Raise ValueError unless rho is a density matrix within INPUT_TOL, and
    return the ascending spectrum it was checked on.

    A caller that already diagonalized rho passes its eigenvalues. Otherwise
    they come from `_certified_spectrum`. When a factor L certified them,
    the residual R = rho - L L^dag has Frobenius norm at most SPECTRUM_TOL
    and rho - rho^dag = R - R^dag, so max |rho - rho^dag| is at most
    2 SPECTRUM_TOL, far below INPUT_TOL: that bound stands in for the
    blockwise Hermiticity pass, and the verdict and message are the ones
    the pass would give.
    """
    herm_dev = None
    if spectrum is None:
        spectrum, certified = _certified_spectrum(rho.matrix)
        herm_dev = 2 * SPECTRUM_TOL if certified else None
    report = _validation_report(rho.matrix, spectrum, INPUT_TOL, herm_dev)
    if not report.ok:
        raise ValueError("invalid density matrix: " + "; ".join(report.violations))
    return spectrum
