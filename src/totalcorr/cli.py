"""Command-line front end: evaluate measures, run figure sweeps, run roof
minimizations, and execute the verification suites.

Exit codes: 0 success, 1 verification failure, 2 usage/input error,
3 resource cap exceeded or an allocation the machine refuses.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from . import measures, roof, states
from .core import ResourceLimitError, partial_trace
from .states import PureState, _qubits

SWEEP_HEADER = "family,n,x,O,M,S,MW,O_rel,M_rel,S_rel"
_row_values = operator.attrgetter("O", "M", "S", "MW")


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _jnum(v: float) -> float:
    return float(_fmt(v))


def _load_input_state(args) -> states.State:
    if args.file:
        if (args.state, args.n, args.x) != (None, None, None):
            raise ValueError("--file takes no --state, --n or --x")
        return states.load_state(args.file)
    if not args.state:
        raise ValueError("provide --state <name> or --file <path>")
    return states.family_state(args.state, args.n, args.x)


def _report_dict(state: states.State) -> dict:
    rep = measures.measure_report(state)
    return {
        "shape": list(rep.shape.dims),
        "pairs": [
            {"i": i, "j": j, "P": _jnum(v)} for (i, j), v in sorted(rep.pair_values.items())
        ],
        "O": _jnum(rep.O),
        "M": _jnum(rep.M),
        "S": _jnum(rep.S),
        "MW": _jnum(rep.MW),
        "bound_M": _jnum(rep.bound_M),
        "bound_S": _jnum(rep.bound_S),
    }


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_measure(args) -> int:
    state = _load_input_state(args)
    doc = _report_dict(state)
    if args.format == "csv":
        cols = ["O", "M", "S", "MW", "bound_M", "bound_S"]
        text = ",".join(cols) + "\n" + ",".join(_fmt(doc[c]) for c in cols) + "\n"
    else:
        text = json.dumps(doc, indent=2) + "\n"
    _emit(text, args.output)
    return 0


def _parse_range(spec: str) -> list[int]:
    try:
        lo, hi = map(int, spec.split(":"))
    except ValueError:
        raise ValueError(f"--n-range {spec!r} is not lo:hi") from None
    if lo > hi:
        raise ValueError(f"--n-range {spec!r} has lo > hi")
    return list(range(lo, hi + 1))


def _x_grid(spec: str) -> list[float]:
    """The points lo, lo + step, ... up to hi of `lo:hi:step`, or the one point `x`.

    The points lie in [0, 1], the families' parameter range, and each must
    be exact at the two decimals the CSV writes.
    """
    try:
        vals = [float(v) for v in spec.split(":")]
    except ValueError:
        vals = []  # named by the message below
    if len(vals) == 1:
        vals += [vals[0], 1.0]
    if len(vals) != 3 or not (0.0 <= vals[0] <= vals[1] <= 1.0 and vals[2] >= 0.01):
        raise ValueError(
            f"--x-grid {spec!r} is not x or lo:hi:step with 0 <= lo <= hi <= 1, step >= 0.01"
        )
    lo, hi, step = vals
    grid, k = [], 0
    while (x := round(lo + k * step, 10)) <= hi + 1e-12:
        grid.append(x)
        k += 1
    if any(round(x, 2) != x for x in grid):
        raise ValueError(f"--x-grid {spec!r} has points that are not exact at two decimals")
    return grid


def _sweep_lines(cell) -> list[str]:
    """The CSV lines of one (family, n, grid, ghz, norm) cell of a sweep.

    ghz is GHZ_n's (O, M, S, MW), or None when no cell at n needs it, as
    its row or, with norm, to normalize its O, M and S.
    """
    family, n, grid, ghz, norm = cell
    rows = [ghz] if family == "ghz" else map(_row_values, measures._reports(
        states.family_state(family, n, x) for x in grid))
    lines = []
    for x, (*vals, mw) in zip(grid, rows):
        rel = [v / g for v, g in zip(vals, ghz)] if norm else vals
        xcol = "" if x is None else f"{x:.2f}"
        lines.append(",".join([family, str(n), xcol] + [_fmt(v) for v in (*vals, mw, *rel)]))
    return lines


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# In a pooled sweep's worker: the Event that its pool's first failed cell sets
_failed = None


def _join_sweep(failed) -> None:
    global _failed
    _failed = failed


def _pooled_lines(cell) -> list[str] | Exception | None:
    """`_sweep_lines` of one cell in a pool worker, or the exception it
    raised, as a value; a cell that starts after any cell of the pool has
    failed returns None at once."""
    if _failed.is_set():
        return None
    try:
        return _sweep_lines(cell)
    except Exception as exc:
        _failed.set()
        return exc


def _map_cells(cells: list[tuple]) -> list[list[str]]:
    """`_sweep_lines` of each cell, in the cells' order.

    The cells run largest first (grid points x register dimension; every
    family is of qubits), so a cell too large for the machine fails before
    the smaller ones run. They run on a forked pool of min(cells, usable
    CPUs) workers, one cell per task, which is closed and joined before
    this returns; the parent reads every result at once. A failed cell
    sets an Event that the workers inherit, so every cell that starts after
    it returns at once, and the first failure in largest-first order is
    raised here. With one worker, no fork start method, or in a daemonic
    process, which may not start children, they run through `map` here.
    """
    import multiprocessing

    order = sorted(range(len(cells)), key=lambda k: len(cells[k][2]) << cells[k][1],
                   reverse=True)
    largest_first = [cells[k] for k in order]
    workers = min(len(cells), _usable_cpus())
    if (workers < 2 or multiprocessing.current_process().daemon
            or "fork" not in multiprocessing.get_all_start_methods()):
        parts = list(map(_sweep_lines, largest_first))
    else:
        context = multiprocessing.get_context("fork")
        with context.Pool(workers, _join_sweep, (context.Event(),)) as pool:
            parts = pool.map(_pooled_lines, largest_first, chunksize=1)
            pool.close()
            pool.join()
        for part in parts:
            if isinstance(part, Exception):
                raise part
    return [part for _, part in sorted(zip(order, parts))]


def cmd_sweep(args) -> int:
    families = sorted(set(args.family or ["ghz"]))
    ns = _parse_range(args.n_range)
    xs = _x_grid(args.x_grid)
    sizes = [(family, n) for family in families
             for n in filter(states.FAMILIES[family].allows, ns)]
    if not sizes:
        raise ValueError(f"no family in {families} has a size in --n-range {args.n_range!r}")
    # GHZ_n's one report, built here and not in the workers, gives the ghz
    # row at n and normalizes every row there. Only the row's values are
    # kept: keeping the reports, with their pair values, raised the sweep's
    # traced peak by 9 %. The largest n goes first, so that a register the
    # machine cannot hold fails before any smaller report is built
    ghz_ns = {n for family, n in sizes if args.ghz_norm or family == "ghz"}
    ghz_rows = {n: _row_values(measures.measure_report(states.ghz(n)))
                for n in sorted(ghz_ns, reverse=True)}
    cells = [(family, n, xs if states.FAMILIES[family].parametric else [None],
              ghz_rows.get(n), args.ghz_norm) for family, n in sizes]
    lines = [SWEEP_HEADER, *(line for part in _map_cells(cells) for line in part)]
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_roof(args) -> int:
    state = _load_input_state(args)
    cfg = roof.RoofConfig(**{f.name: getattr(args, f.name) for f in fields(roof.RoofConfig)})
    result = roof.roof_minimize(state, args.measure, cfg)
    doc = {
        "value": _jnum(result.value),
        "converged": result.converged,
        "per_restart_values": [_jnum(v) for v in result.per_restart_values],
        "ensemble": {
            "weights": [_jnum(p) for p in result.ensemble.weights],
            "members": [
                [[_jnum(z.real), _jnum(z.imag)] for z in member.amplitudes]
                if isinstance(member, PureState)
                else [[[_jnum(z.real), _jnum(z.imag)] for z in row] for row in member.matrix]
                for member in result.ensemble.members
            ],
        },
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.output)
    return 0


# --- claim checks -------------------------------------------------------
# One function per claim of the paper, owning its check and its bound.
# Each `verify` suite below and its acceptance test call the same one; the
# callers choose the inputs, counts and wall-time ceilings.


@dataclass(frozen=True)
class Check:
    """A claim's worst value over its inputs, whether it held the claim's
    bound, and the index of the input that gave it. The PCRC check also
    counts its certified findings and keeps its first uncertified converged
    negative gap as (trial, gap, roof, oracle)."""

    worst: float
    passed: bool
    trial: int
    findings: int = 0
    miss: tuple[int, float, float, float] | None = None


def _worst(values: Iterable[float], bound: float, floor: bool = False) -> Check:
    """The largest value against an upper bound, or with `floor` the
    smallest against a lower bound."""
    values = list(values)
    k = (min if floor else max)(range(len(values)), key=values.__getitem__)
    return Check(values[k], values[k] >= bound if floor else values[k] <= bound, k)


def check_entropy_ssa(seed: int, count: int) -> Check:
    """Strong subadditivity: the `ssa_check` residual is at least -1e-8 on
    random 3-qubit densities, density k of rank 1 + k % 8 and seed seed + k."""
    residuals = (measures.ssa_check(states.random_density(_qubits(3), 1 + k % 8, seed + k))
                 for k in range(count))
    return _worst(residuals, -1e-8, floor=True)


def check_bound_M(pure_states: Iterable[PureState], attained: bool = False) -> Check:
    """M is at most bound_M on pure states: bound_M - M >= -1e-9. With
    `attained`, every state reaches it: |M - bound_M| <= 1e-9, as GHZ does."""
    gaps = [measures.bound_M(psi.shape.nsites, max(psi.shape.dims)) - measures.measure_M(psi)
            for psi in pure_states]
    return _worst(map(abs, gaps), 1e-9) if attained else _worst(gaps, -1e-9, floor=True)


def check_additivity(seed: int, count: int) -> tuple[Check, Check]:
    """Additivity of M, O and S on pure products, |T(a x b) - T(a) - T(b)|
    <= 1e-8, and pure superadditivity of S, S(rho) - S(12) - S(34) >= -1e-8.

    Product k is of random pure 2-qubit states of seeds seed + 2k and
    seed + 2k + 1; 4-qubit state k has seed seed + 10_000 + k.
    """
    def deviation(k):
        a, b = (states.random_pure(_qubits(2), seed=seed + 2 * k + i) for i in (0, 1))
        ab = states.product([a, b])
        return max(abs(fn(ab) - fn(a) - fn(b))
                   for fn in (measures.measure_M, measures.measure_O, measures.measure_S))

    def margin(k):
        psi = states.random_pure(_qubits(4), seed=seed + 10_000 + k)
        rho = states.dm(psi)
        left, right = (measures.measure_S(partial_trace(rho, keep)) for keep in ((0, 1), (2, 3)))
        return measures.measure_S(psi) - left - right

    return (_worst(map(deviation, range(count)), 1e-8),
            _worst(map(margin, range(count)), -1e-8, floor=True))


def check_flags(ensembles: Iterable[states.Ensemble], config: roof.RoofConfig) -> Check:
    """The flags condition for the roof of M: the residual |roof(flag-labeled
    mixture) - weighted sum of the members' roofs| <= 5e-3."""
    def residual(e):
        members = sum(p * roof.roof_minimize(member, "M", config).value
                      for p, member in zip(e.weights, e.members))
        return abs(roof.roof_minimize(states.flagged_mixture(e), "M", config).value - members)

    return _worst(map(residual, ensembles), 5e-3)


def check_form2(seed: int, count: int) -> Check:
    """The relative-entropy form of S equals S, |S_form2 - S| <= 1e-8, on
    random pure states, state k of 3 + k % 3 qubits and seed seed + k."""
    def deviation(k):
        psi = states.random_pure(_qubits(3 + k % 3), seed=seed + k)
        return abs(measures.measure_S_form2(psi) - measures.measure_S(psi))

    return _worst(map(deviation, range(count)), 1e-8)


def check_pcrc(densities: Iterable[states.State], config: roof.RoofConfig,
               oracle: Callable[[states.State], float] = roof.eof_two_qubit) -> Check:
    """The gap direct M - roof of M, and whether an oracle certifies every
    converged gap below -1e-6.

    Half the mutual information can sit below the formation value, so such
    a gap is a certified finding when the oracle's roof lies above the
    direct value by more than 1e-6 and within 5e-3 of the optimizer's; any
    other points at the optimizer and fails the check. The default oracle
    is the two-qubit formation value.
    """
    gaps, findings, miss = [], 0, None
    for k, rho in enumerate(densities):
        res = roof.roof_minimize(rho, "M", config)
        direct = measures.measure_M(rho)
        gaps.append(direct - res.value)
        if gaps[-1] < -1e-6 and res.converged:
            value = oracle(rho)
            if abs(res.value - value) <= 5e-3 and value > direct + 1e-6:
                findings += 1
            elif miss is None:
                miss = (k, gaps[-1], res.value, value)
    worst = _worst(gaps, -np.inf, floor=True)
    return Check(worst.worst, miss is None, worst.trial, findings, miss)


# --- verification suites ----------------------------------------------
# Each suite yields (name, passed, detail) per check as it completes, with
# the failing input's fields as a fourth item where a failure names one.


def _verify_entropy(seed: int, trials: int):
    ssa = check_entropy_ssa(seed, trials)
    yield ("entropy-ssa", ssa.passed,
           f"min residual {ssa.worst:.3e} over {trials} random 3-qubit densities")
    s = measures.von_neumann_entropy(states.random_density(_qubits(2), 4, seed))
    yield "entropy-range", -1e-9 <= s <= 2 + 1e-9, f"S = {s:.6f} in [0, 2]"


def _verify_bounds(seed: int, trials: int):
    bound = check_bound_M(states.random_pure(_qubits(n), seed=seed + 1000 * n + k)
                          for n in (3, 4, 5) for k in range(trials))
    yield ("bound-M", bound.passed,
           f"min bound_M - M = {bound.worst:.3e} over {3 * trials} random pure states")
    ghz = check_bound_M((states.ghz(n) for n in range(2, 9)), attained=True)
    yield "ghz-attains-bound", ghz.passed, f"max |M(ghz)-bound| = {ghz.worst:.3e}"


def _verify_additivity(seed: int, trials: int):
    add, ssa = check_additivity(seed, trials)
    yield "pure-additivity", add.passed, f"max |T(axb)-T(a)-T(b)| = {add.worst:.3e}"
    yield "pure-ssa", ssa.passed, f"min S(rho)-S(12)-S(34) = {ssa.worst:.3e}"


def _verify_flags(seed: int, trials: int):
    def ensemble(k):
        a = states.random_pure(_qubits(2), seed=seed + 3 * k)
        b = states.random_pure(_qubits(2), seed=seed + 3 * k + 1)
        p = 0.25 + 0.5 * ((seed + k) % 3) / 2.0
        return states.Ensemble((p, 1 - p), (a, b))

    flags = check_flags(map(ensemble, range(trials)), roof.RoofConfig(restarts=8, seed=seed))
    yield ("flags-equality", flags.passed,
           f"max residual {flags.worst:.3e} over {trials} ensembles")


def _verify_pcrc(seed: int, trials: int):
    pcrc = check_pcrc(
        (states.random_density(_qubits(2), rank=2, seed=seed + k) for k in range(trials)),
        roof.RoofConfig(restarts=8, seed=seed),
    )
    if pcrc.passed:
        yield ("pcrc", True, f"min gap {pcrc.worst:.3e} over {trials} two-qubit mixtures, "
               f"{pcrc.findings} certified negative-gap findings")
    else:
        k, gap, value, eof = pcrc.miss
        yield ("pcrc", False, f"converged negative gap {gap:.3e} at trial {k}, "
               f"roof {value:.6f} against formation {eof:.6f}", {"trial": k, "seed": seed + k})


def _verify_form2(seed: int, trials: int):
    form2 = check_form2(seed, trials)
    yield "form2-identity", form2.passed, f"max |S_form2 - S| = {form2.worst:.3e}"


SUITES = {
    "entropy": (_verify_entropy, 200),
    "bounds": (_verify_bounds, 500),
    "additivity": (_verify_additivity, 100),
    "flags": (_verify_flags, 3),
    "pcrc": (_verify_pcrc, 20),
    "form2": (_verify_form2, 100),
}


def cmd_verify(args) -> int:
    """Print each check's PASS or FAIL line as it completes, with the time
    since the suite began, then the failures as JSON on stderr."""
    fn, default_trials = SUITES[args.suite]
    trials = args.trials if args.trials is not None else default_trials
    if trials < 1:
        raise ValueError(f"--trials must be >= 1, got {trials}")
    start, failed = time.monotonic(), []
    for name, ok, detail, *instance in fn(args.seed, trials):
        elapsed = time.monotonic() - start
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail} ({elapsed:.2f} s)", flush=True)
        if not ok:
            failed.append({"check": name, "detail": detail, **dict(*instance)})
    if failed:
        print(json.dumps({"failures": failed}), file=sys.stderr)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="totalcorr",
        description="Total-correlation entanglement measures for multi-qudit states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_state_source(p):
        p.add_argument("--state", choices=sorted(states.FAMILIES), default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--x", type=float, default=None)
        p.add_argument("--file", default=None)

    p = sub.add_parser("measure", help="evaluate all measures on one state")
    add_state_source(p)
    p.add_argument("--output", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("sweep", help="emit CSV rows over a family grid")
    p.add_argument("--output", default=None)
    p.add_argument("--family", action="append", choices=sorted(states.FAMILIES))
    p.add_argument("--n-range", default="2:12")
    p.add_argument("--x-grid", default="0:1:0.05")
    p.add_argument("--no-ghz-norm", dest="ghz_norm", action="store_false")
    p.set_defaults(func=cmd_sweep, ghz_norm=True)

    p = sub.add_parser("roof", help="convex-roof minimization for one state")
    add_state_source(p)
    p.add_argument("--output", default=None)
    defaults = roof.RoofConfig()
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--measure", choices=measures.MEASURE_NAMES, default="M")
    p.add_argument("--strategy", choices=roof.STRATEGIES, default=defaults.strategy)
    p.add_argument("--restarts", type=int, default=defaults.restarts)
    p.add_argument("--tolerance", type=float, default=defaults.tolerance)
    p.set_defaults(func=cmd_roof)

    p = sub.add_parser("verify", help="run a numeric verification suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--trials", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ResourceLimitError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
