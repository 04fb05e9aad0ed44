"""The benchmark's workloads: their inputs, their operations and the checks
of every operation's output.

Each workload builds its inputs through `totalcorr.states` when it is
constructed, from the run's seed alone. `round()` lists the operations
of one round; a run repeats it, so every round runs the same operations
on the same inputs in the same order. The program is always reached through
module attributes looked up at call time, so that the traced run can
wrap them. Checks compare each output with `reference`, which never
calls the program.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Any, Callable, NamedTuple

import numpy as np

import reference as ref
from totalcorr import cli, measures, roof, states
from totalcorr.core import RegisterShape

MIX_TOL = 1e-9  # ensemble mixes back to rho, entrywise
VALUE_TOL = 1e-9  # reported value against the reference, in bits
ROOF_TOL = 5e-3  # roof against an independent oracle: the test_04 tolerance


class Op(NamedTuple):
    kind: str
    key: int
    call: Callable[[], Any]


def _state_seeds(tag: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{tag}/{seed}")
    return [rng.getrandbits(63) for _ in range(count)]


def _shuffled(items, tag: str, seed: int) -> list:
    items = list(items)
    random.Random(f"{tag}/{seed}").shuffle(items)
    return items


def _repeat_error(first: dict[int, float], key: int, result) -> str | None:
    """A roof on the same input and config must return the same value every time."""
    if first.setdefault(key, result.value) != result.value:
        return f"roof {result.value!r} differs from {first[key]!r} on the same input"
    return None


def _ensemble_error(result, rho) -> str | None:
    """Mix-back and member-average checks shared by every roof."""
    members = result.ensemble.members
    if not all(isinstance(m, states.PureState) for m in members):
        return "roof ensemble has mixed members"
    weights = np.array(result.ensemble.weights)
    amps = np.array([m.amplitudes for m in members])
    mixed = np.einsum("k,ki,kj->ij", weights, amps, amps.conj())
    dev = float(np.max(np.abs(mixed - rho.matrix)))
    if dev > MIX_TOL:
        return f"ensemble mixes back to rho only within {dev:.2e}"
    average = float(weights @ ref.pure_values(amps)["M"])
    if abs(average - result.value) > VALUE_TOL:
        return f"value {result.value!r} is not the members' average {average!r}"
    return None


class Formation:
    """Two-qubit rank-4 roofs of M with the default config: the test_04 workload.

    Every round runs the first four states of test_04, in an order drawn
    from the seed. The states themselves do not follow the seed: the time
    of one roof varies by about 25 % from state to state, and a run holds
    only a dozen roofs, so seed-drawn states would add that to the spread.
    """

    STATE_SEEDS = (20_000, 20_001, 20_002, 20_003)

    def __init__(self, seed: int, workdir):
        shape = RegisterShape((2, 2))
        self.rhos = [
            states.random_density(shape, 4, seed=s)
            for s in _shuffled(self.STATE_SEEDS, "formation", seed)
        ]
        self._eof: dict[int, float] = {}
        self._first: dict[int, float] = {}

    def round(self) -> list[Op]:
        return [
            Op("roof", k, lambda rho=rho: roof.roof_minimize(rho, "M", roof.RoofConfig()))
            for k, rho in enumerate(self.rhos)
        ]

    def warmup(self) -> None:
        roof.roof_minimize(self.rhos[0], "M", roof.RoofConfig(restarts=1))

    def oracle(self, kind: str, key: int) -> float:
        if key not in self._eof:
            self._eof[key] = ref.wootters_eof(self.rhos[key].matrix)
        return self._eof[key]

    def check(self, kind: str, key: int, result) -> str | None:
        eof = self.oracle(kind, key)
        if not eof - 1e-9 <= result.value <= eof + ROOF_TOL:
            return f"roof {result.value:.6f} outside [EoF, EoF + {ROOF_TOL}] for EoF {eof:.6f}"
        return _repeat_error(self._first, key, result) or _ensemble_error(result, self.rhos[key])


class Sweep:
    """The paper's figure sweep: every family for n = 2..12, in-process."""

    FAMILIES = ("cluster", "epr_power", "family1", "family2", "ghz", "w", "wbar")
    N_RANGE = (2, 12)
    HEADER = "family,n,x,O,M,S,MW,O_rel,M_rel,S_rel"

    def __init__(self, seed: int, workdir):
        families = _shuffled(self.FAMILIES, "sweep", seed)  # the CLI sorts them
        self.path = workdir / "sweep.csv"
        self.argv = ["sweep"]
        for family in families:
            self.argv += ["--family", family]
        self.argv += ["--n-range", "%d:%d" % self.N_RANGE, "--output", str(self.path)]
        self._verified: str | None = None

    def _sweep(self) -> str:
        code = cli.main(self.argv)
        if code != 0:
            raise RuntimeError(f"sweep exited with code {code}")
        return self.path.read_text()

    def round(self) -> list[Op]:
        return [Op("sweep", 0, self._sweep)]

    def warmup(self) -> None:
        cli.main(self.argv[:-4] + ["--n-range", "2:5", "--output", str(self.path)])

    def check(self, kind: str, key: int, text: str) -> str | None:
        if self._verified is not None:
            return None if text == self._verified else "sweep differs from the run's first sweep"
        err = self._check_rows(text)
        if err is None:
            self._verified = text
        return err

    def _check_rows(self, text: str) -> str | None:
        lines = text.splitlines()
        if not lines or lines[0] != self.HEADER:
            return "unexpected sweep header"
        rows = {}
        for line in lines[1:]:
            family, n, x, *vals = line.split(",")
            rows[(family, int(n), x)] = dict(
                zip(("O", "M", "S", "MW", "O_rel", "M_rel", "S_rel"), map(float, vals))
            )
        grid = ref.sweep_grid(*self.N_RANGE)
        if len(lines) - 1 != len(grid) or set(rows) != set(grid):
            return f"sweep rows are not the {len(grid)} rows of the grid"

        def close(a, b):
            return abs(a - b) <= VALUE_TOL * max(1.0, abs(b))

        def differs(row, want, keys=("O", "M", "S", "MW")):
            return next((k for k in keys if not close(row[k], want[k])), None)

        for (family, n, x), row in rows.items():
            ghz = rows[("ghz", n, "")]
            expect = {"ghz": ref.ghz_closed, "w": ref.w_closed, "wbar": ref.w_closed,
                      "epr_power": ref.epr_power_closed}.get(family)
            if expect and (k := differs(row, expect(n))):
                return f"{family} n={n}: {k} = {row[k]!r}, closed form {expect(n)[k]!r}"
            if (family, x) == ("family1", "1.00") and (k := differs(row, ghz)):
                return f"family1 n={n} x=1 differs from GHZ in {k}"
            if (family, x) == ("family1", "0.00") and (k := differs(row, rows[("w", n, "")])):
                return f"family1 n={n} x=0 differs from W in {k}"
            if family == "family2":
                mirror = rows[("family2", n, f"{1 - float(x):.2f}")]
                if k := differs(row, mirror):
                    return f"family2 n={n}: {k} at x={x} differs from x={1 - float(x):.2f}"
            if not close(row["S"], 0.5 * (row["O"] + row["M"])):
                return f"{family} n={n} x={x}: S != (O + M)/2"
            for k in ("O", "M", "S"):
                if not close(row[f"{k}_rel"], row[k] / ghz[k]):
                    return f"{family} n={n} x={x}: {k}_rel is not {k} / GHZ {k}"
            if k := differs(row, ref.sweep_row_values(family, n, x)):
                return f"{family} n={n} x={x}: {k} = {row[k]!r} differs from the SVD reference"
        return None


class Mixed:
    """Mixed-state paths: density-matrix reports interleaved with general roofs.

    A round is report(8 qubits), roof, report(9), roof, report(10), roof.
    The reports take the partial-trace path of `measures`, on rank-4
    densities drawn from the seed; their cost does not depend on the
    values. The roofs are three-qubit rank-2, which takes the batched
    eigenvalue roof objective rather than the two-qubit closed form; they
    run the first three such states of test_10, in an order drawn from the
    seed, for the same reason as in `Formation`.
    """

    REPORT_QUBITS = (8, 9, 10)
    ROOF_SEEDS = (90_000, 90_001, 90_002)

    def __init__(self, seed: int, workdir):
        self.dense = [
            states.random_density(RegisterShape((2,) * n), 4, seed=s)
            for n, s in zip(self.REPORT_QUBITS, _state_seeds("mixed", seed, 3))
        ]
        shape = RegisterShape((2, 2, 2))
        self.rhos = [
            states.random_density(shape, 2, seed=s)
            for s in _shuffled(self.ROOF_SEEDS, "mixed/roofs", seed)
        ]
        self._refs: dict[tuple[str, int], Any] = {}
        self._first: dict[int, float] = {}

    def round(self) -> list[Op]:
        ops = []
        for k, (dense, rho) in enumerate(zip(self.dense, self.rhos)):
            ops.append(Op("report", k, lambda dense=dense: measures.measure_report(dense)))
            ops.append(Op("roof", k, lambda rho=rho: roof.roof_minimize(
                rho, "M", roof.RoofConfig(restarts=6, seed=13))))
        return ops

    def warmup(self) -> None:
        measures.measure_report(self.dense[0])
        roof.roof_minimize(self.rhos[0], "M", roof.RoofConfig(restarts=1))

    def oracle(self, kind: str, key: int):
        if (kind, key) not in self._refs:
            if kind == "report":
                self._refs[kind, key] = ref.mixed_report(self.dense[key].matrix)
            else:
                self._refs[kind, key] = ref.grid_roof_M(self.rhos[key].matrix)
        return self._refs[kind, key]

    def check(self, kind: str, key: int, out) -> str | None:
        want = self.oracle(kind, key)
        if kind == "roof":
            if abs(out.value - want) > ROOF_TOL:
                return f"roof {out.value:.6f} differs from the grid LP {want:.6f}"
            return _repeat_error(self._first, key, out) or _ensemble_error(out, self.rhos[key])
        n = len(self.dense[key].shape.dims)
        if set(out.pair_values) != set(combinations(range(n), 2)):
            return "report pairs are not all pairs (i < j)"
        if out.O < -1e-12 or min(out.pair_values.values()) < -1e-12:
            return "negative O or pair probe"
        for (i, j), v in out.pair_values.items():
            if abs(v - want["pairs"][i, j]) > VALUE_TOL:
                return f"P({i},{j}) = {v!r}, reference {want['pairs'][i, j]!r}"
        for k in ("O", "M", "S", "MW", "bound_M", "bound_S"):
            if abs(getattr(out, k) - want[k]) > VALUE_TOL:
                return f"{k} = {getattr(out, k)!r}, reference {want[k]!r}"
        return None


WORKLOADS = {"formation": Formation, "sweep": Sweep, "mixed": Mixed}
