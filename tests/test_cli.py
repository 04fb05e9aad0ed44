import contextlib
import io
import json
import multiprocessing
import os
import re
import shlex
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from totalcorr import (DensityMatrix, Ensemble, PureState, RegisterShape, RoofConfig, cli, epr,
                       ghz, measures, product, random_density, random_pure, save_state, states)
from totalcorr.cli import (Check, check_additivity, check_bound_M, check_entropy_ssa, check_flags,
                           check_form2, main)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMeasureCommand:
    def test_ghz4_json(self, capsys):
        code, out, _ = run(capsys, "measure", "--state", "ghz", "--n", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["shape"] == [2, 2, 2, 2]
        assert doc["M"] == pytest.approx(3.0)
        assert doc["O"] == pytest.approx(2.0)
        assert doc["S"] == pytest.approx(2.5)
        assert doc["bound_M"] == pytest.approx(3.0)
        assert len(doc["pairs"]) == 6
        assert all(p["P"] == pytest.approx(0.5) for p in doc["pairs"])

    def test_json_key_order_is_stable(self, capsys):
        _, out, _ = run(capsys, "measure", "--state", "epr")
        keys = list(json.loads(out))
        assert keys == ["shape", "pairs", "O", "M", "S", "MW", "bound_M", "bound_S"]

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "measure", "--state", "epr", "--format", "csv")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "O,M,S,MW,bound_M,bound_S"
        vals = [float(v) for v in row.split(",")]
        assert vals[:3] == pytest.approx([1.0, 1.0, 1.0])

    def test_file_input(self, capsys, tmp_path):
        psi = random_pure(RegisterShape((2, 2, 2)), seed=4)
        path = tmp_path / "psi.json"
        save_state(psi, path)
        code, out, _ = run(capsys, "measure", "--file", str(path))
        assert code == 0
        assert json.loads(out)["shape"] == [2, 2, 2]

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, _ = run(capsys, "measure", "--state", "epr", "--output", str(path))
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["M"] == pytest.approx(1.0)

    def test_missing_state_is_usage_error(self, capsys):
        code, _, err = run(capsys, "measure")
        assert code == 2
        assert "error" in err

    def test_missing_n_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "measure", "--state", "ghz")
        assert code == 2

    @pytest.mark.parametrize("command", ["measure", "roof"])
    def test_file_with_state_options_is_usage_error(self, capsys, tmp_path, command):
        path = tmp_path / "psi.json"
        save_state(random_pure(RegisterShape((2, 2)), seed=4), path)
        code, out, err = run(capsys, command, "--file", str(path), "--state", "ghz", "--n", "4")
        assert code == 2
        assert out == ""
        assert "--file takes no --state, --n or --x" in err

    def test_x_for_a_family_without_parameter_is_usage_error(self, capsys):
        code, out, err = run(capsys, "measure", "--state", "ghz", "--n", "3", "--x", "0.3")
        assert code == 2
        assert out == ""
        assert "state family ghz takes no x" in err

    def test_size_the_family_lacks_is_usage_error(self, capsys):
        code, out, err = run(capsys, "measure", "--state", "epr", "--n", "3")
        assert code == 2
        assert out == ""
        assert "state family epr has no member with n = 3" in err

    def test_bad_file_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        code, _, _ = run(capsys, "measure", "--file", str(bad))
        assert code == 2

    @pytest.mark.parametrize("command", ["measure", "roof"])
    @pytest.mark.parametrize("doc", [
        {"dims": [2, 2], "amplitudes": [1, 0, 0, 0]},
        {"dims": 2, "amplitudes": [[1, 0], [0, 0]]},
        [[1, 0], [0, 0]],
        {"dims": [2], "amplitudes": [["a", 0], [0, 0]]},
        {"dims": [2, 2], "amplitudes": [[1, 0]] + [[0, 0]] * 3,
         "matrix": [[[float(i == j == 0), 0] for j in range(4)] for i in range(4)]},
    ], ids=["bare-numbers", "scalar-dims", "top-level-list", "non-numeric",
            "amplitudes-and-matrix"])
    def test_malformed_file_is_usage_error(self, capsys, tmp_path, command, doc):
        # exit 1 is a failed verification; a file of the wrong layout is a usage error
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, "--file", str(path))
        assert code == 2
        assert out == ""
        assert "state file" in err

    def test_ragged_matrix_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps({"dims": [2], "matrix": [[[1, 0], [0, 0]], [[0, 0]]]}))
        code, out, err = run(capsys, "measure", "--file", str(path))
        assert code == 2
        assert out == ""
        assert "state file row 1 has 1 entries" in err

    def test_non_integral_dims_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "psi.json"
        save_state(random_pure(RegisterShape((2, 2)), seed=4), path)
        doc = json.loads(path.read_text())
        doc["dims"] = [2.9, 2]
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "measure", "--file", str(path))
        assert code == 2
        assert out == ""
        assert "integers" in err

    @pytest.mark.parametrize("command", ["measure", "roof"])
    def test_invalid_density_file_is_usage_error(self, capsys, tmp_path, command):
        path = tmp_path / "rho.json"
        save_state(DensityMatrix(RegisterShape((2, 2)), np.diag([0.7, 0.5, -0.1, -0.1])), path)
        code, out, err = run(capsys, command, "--file", str(path))
        assert code == 2
        assert out == ""
        assert "negative eigenvalue" in err


class TestSweepCommand:
    def test_header_and_values(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--family", "cluster", "--family", "ghz", "--n-range", "4:4"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "family,n,x,O,M,S,MW,O_rel,M_rel,S_rel"
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert float(rows["cluster"][5]) == pytest.approx(1.5)
        # ghz-normalized: S_rel(cluster4) = 1.5 / 2.5
        assert float(rows["cluster"][9]) == pytest.approx(0.6)
        assert float(rows["ghz"][9]) == pytest.approx(1.0)
        assert rows["ghz"][2] == ""  # x column empty for non-parametric families

    def test_family_grid(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "--family", "family2", "--n-range", "4:4",
            "--x-grid", "0:1:0.5",
        )
        assert code == 0
        lines = out.strip().split("\n")[1:]
        assert [line.split(",")[2] for line in lines] == ["0.00", "0.50", "1.00"]

    def x_column(self, capsys, *grid):
        code, out, err = run(
            capsys, "sweep", "--family", "family1", "--n-range", "3:3", "--x-grid", *grid
        )
        return code, [line.split(",")[2] for line in out.strip().split("\n")[1:] if line]

    def test_default_grid(self, capsys):
        code, xs = self.x_column(capsys, "0:1:0.05")
        assert code == 0
        assert xs == [f"{k / 20:.2f}" for k in range(21)]

    def test_single_point_grid(self, capsys):
        assert self.x_column(capsys, "0.5") == (0, ["0.50"])

    @pytest.mark.parametrize("grid", ["0:1", "a:1:0.5", "0:1:0", "0:2:0.5", "0:0.01:0.001"])
    def test_bad_grid_is_usage_error(self, capsys, grid):
        code, xs = self.x_column(capsys, grid)
        assert (code, xs) == (2, [])

    def test_no_ghz_norm(self, capsys):
        _, out, _ = run(
            capsys, "sweep", "--family", "cluster", "--n-range", "4:4", "--no-ghz-norm"
        )
        row = out.strip().split("\n")[1].split(",")
        assert row[9] == row[5]  # absolute S repeated in the rel column

    def test_even_family_skips_odd_n(self, capsys):
        _, out, _ = run(capsys, "sweep", "--family", "cluster", "--n-range", "4:7")
        ns = [line.split(",")[1] for line in out.strip().split("\n")[1:]]
        assert ns == ["4", "6"]

    @pytest.mark.parametrize("families, n_range", [
        (["ghz"], "5:3"),  # lo > hi
        (["ghz"], "0:1"),  # no size a family allows
        (["cluster"], "3:3"),  # cluster states have even sizes only
    ])
    def test_sweep_without_rows_is_usage_error(self, capsys, families, n_range):
        family_args = [arg for family in families for arg in ("--family", family)]
        code, out, err = run(capsys, "sweep", *family_args, "--n-range", n_range)
        assert code == 2
        assert out == ""
        assert "--n-range" in err

    def test_byte_determinism(self, capsys):
        _, first, _ = run(capsys, "sweep", "--family", "ghz", "--n-range", "2:5")
        _, second, _ = run(capsys, "sweep", "--family", "ghz", "--n-range", "2:5")
        assert first == second

    @staticmethod
    def lone_report_csv(families, ns):
        """The GHZ-normalized sweep CSV at the default grid, from one lone
        measure_report per row and per normalization."""
        lines = [cli.SWEEP_HEADER]
        for family in families:
            fam = states.FAMILIES[family]
            for n in filter(fam.allows, ns):
                ghz_rep = measures.measure_report(ghz(n))
                for x in [k / 20 for k in range(21)] if fam.parametric else [None]:
                    rep = measures.measure_report(states.family_state(family, n, x))
                    vals = (rep.O, rep.M, rep.S)
                    rel = [v / g for v, g in zip(vals, (ghz_rep.O, ghz_rep.M, ghz_rep.S))]
                    lines.append(",".join([family, str(n), "" if x is None else f"{x:.2f}"]
                                          + [f"{v:.12g}" for v in (*vals, rep.MW, *rel)]))
        return "\n".join(lines) + "\n"

    def test_sliced_sweep_matches_lone_reports(self, capsys):
        # at n = 9..12 a family's 21-point grid takes several slices, and each
        # slice's reports one marginal pass; the CSV is byte for byte the rows
        # of one lone measure_report per state
        families = ["cluster", "family1", "family2", "ghz", "w"]
        argv = ["sweep", *(a for f in families for a in ("--family", f)), "--n-range", "9:12"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == self.lone_report_csv(families, range(9, 13))

    def test_builds_each_ghz_state_once(self, capsys, monkeypatch):
        # GHZ_n's one report normalizes the rows at n and is the ghz row
        built = []

        def counted_ghz(n):
            built.append(n)
            return ghz(n)

        monkeypatch.setattr(states, "ghz", counted_ghz)
        code, out, _ = run(capsys, "sweep", "--family", "cluster", "--family", "ghz",
                           "--n-range", "4:6")
        assert code == 0
        assert sorted(built) == [4, 5, 6]
        monkeypatch.undo()
        assert out == self.lone_report_csv(["cluster", "ghz"], range(4, 7))

    def test_full_sweep_memory_peak(self, tmp_path, monkeypatch):
        # every family at the default n-range and grid, after one run that
        # fills the caches: the traced peak was 0.56 MB when the sweep took
        # one marginal pass per state, and slicing the grids keeps it there.
        # One worker runs every cell in this process, where tracemalloc sees
        # its marginal passes; a forked worker's would not count
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        argv = ["sweep", *(a for f in sorted(states.FAMILIES) for a in ("--family", f)),
                "--output", str(tmp_path / "sweep.csv")]
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * 0.56e6


def sweep_in_process(argv):
    """main's exit code and stdout, for a call in another process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the sweep's worker pool forks")
class TestSweepPool:
    ARGV = ["sweep", *(a for f in sorted(states.FAMILIES) for a in ("--family", f)),
            "--n-range", "2:9"]

    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        # a pool of two, so that the cells leave this process on a one-CPU host too
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)

    def test_pooled_csv_equals_one_worker_csv(self, capsys, monkeypatch):
        code, pooled, _ = run(capsys, *self.ARGV)
        assert code == 0
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        assert run(capsys, *self.ARGV) == (0, pooled, "")
        assert len(pooled.splitlines()) > 100

    def test_no_worker_outlives_main(self, capsys):
        assert run(capsys, *self.ARGV)[0] == 0
        assert multiprocessing.active_children() == []

    def test_daemonic_process_runs_the_cells_itself(self, capsys):
        # a daemonic process may not start children: a sweep in a pool
        # worker takes the one-worker path
        _, expected, _ = run(capsys, *self.ARGV)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            code, out = pool.apply(sweep_in_process, (self.ARGV,))
            pool.close()
            pool.join()
        assert (code, out) == (0, expected)

    def test_worker_exception_is_usage_error(self, capsys, monkeypatch):
        def failing(*_):
            raise ValueError(f"no state in process {os.getpid()}")

        monkeypatch.setattr(states, "family_state", failing)
        code, out, err = run(capsys, "sweep", "--family", "w", "--family", "wbar",
                             "--n-range", "2:5")
        assert (code, out) == (2, "")
        pid = int(re.fullmatch(r"error: no state in process (\d+)\n", err).group(1))
        assert pid != os.getpid()
        assert multiprocessing.active_children() == []

    def test_worker_refused_allocation_exits_3(self, capsys, monkeypatch):
        def refused(n):
            raise MemoryError(f"Unable to allocate 2^{n} amplitudes in process {os.getpid()}")

        monkeypatch.setattr(states, "w", refused)
        code, out, err = run(capsys, "sweep", "--family", "w", "--family", "wbar",
                             "--n-range", "2:5")
        assert (code, out) == (3, "")
        pid = re.fullmatch(r"error: Unable to allocate 2\^\d+ amplitudes in process (\d+)\n", err)
        assert int(pid.group(1)) != os.getpid()
        assert multiprocessing.active_children() == []

    def test_oversized_cell_ends_the_sweep(self, capsys, monkeypatch, tmp_path):
        # the workers take the cells largest first, and the first failed
        # cell ends the sweep: the pool is terminated while the smaller
        # cells that the workers took next still run
        record, w = tmp_path / "built", states.w

        def constructor(n):
            with record.open("a") as f:
                f.write(f"{n}\n")
            if n > 6:
                raise MemoryError(f"Unable to allocate 2^{n} amplitudes")
            time.sleep(0.5)
            return w(n)

        monkeypatch.setattr(states, "w", constructor)
        assert run(capsys, "sweep", "--family", "w", "--no-ghz-norm", "--n-range", "2:8") == (
            3, "", "error: Unable to allocate 2^8 amplitudes\n")
        built = [int(n) for n in record.read_text().split()]
        # a worker takes a third cell only after it built one of the first two
        assert built[0] > 6
        assert 2 not in built
        assert multiprocessing.active_children() == []


class TestRoofCommand:
    def test_pure_state_roof(self, capsys):
        code, out, _ = run(capsys, "roof", "--state", "ghz", "--n", "3", "--measure", "M")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(1.5)
        assert doc["converged"] is True
        assert list(doc) == ["value", "converged", "per_restart_values", "ensemble"]
        assert doc["ensemble"]["weights"] == [1.0]
        assert len(doc["ensemble"]["members"][0]) == 8

    def test_pure_file_returns_the_state_itself(self, capsys, tmp_path):
        # a pure state is its own one-member decomposition, amplitudes and
        # all, whatever the restart count
        psi = random_pure(RegisterShape((2, 2)), seed=8)
        path = tmp_path / "psi.json"
        save_state(psi, path)
        code, out, _ = run(capsys, "roof", "--file", str(path), "--restarts", "3")
        assert code == 0
        doc = json.loads(out)
        value = float(f"{measures.measure_M(psi):.12g}")
        assert doc["value"] == value == 0.212278008157
        assert doc["per_restart_values"] == [value]
        assert doc["ensemble"]["members"] == [
            [[float(f"{z.real:.12g}"), float(f"{z.imag:.12g}")] for z in psi.amplitudes]]

    @pytest.mark.parametrize("argv, config", [
        ((), RoofConfig()),
        (("--restarts", "2", "--tolerance", "1e-4", "--seed", "5", "--strategy", "mixed_roof"),
         RoofConfig(restarts=2, tolerance=1e-4, seed=5, strategy="mixed_roof")),
    ], ids=["defaults", "every-option"])
    def test_options_reach_their_config_fields(self, capsys, monkeypatch, argv, config):
        configs, minimize = [], cli.roof.roof_minimize

        def capturing(state, measure, cfg):
            configs.append(cfg)
            return minimize(state, measure, cfg)

        monkeypatch.setattr(cli.roof, "roof_minimize", capturing)
        code, _, _ = run(capsys, "roof", "--state", "ghz", "--n", "2", *argv)
        assert code == 0
        assert configs == [config]

    def test_mixed_roof_members_are_density_matrices(self, capsys, tmp_path):
        path = tmp_path / "rho.json"
        save_state(random_density(RegisterShape((2, 2)), 3, seed=7), path)
        code, out, _ = run(capsys, "roof", "--file", str(path), "--strategy", "mixed_roof",
                           "--restarts", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] < 0.0068  # below the pure roof of this state
        assert all(len(member) == 4 and len(member[0]) == 4
                   for member in doc["ensemble"]["members"])


class TestVerifyCommand:
    def test_form2_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "form2", "--trials", "20")
        assert code == 0
        assert out.startswith("PASS form2-identity")

    def test_entropy_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "entropy", "--trials", "30")
        assert code == 0
        assert "PASS entropy-ssa" in out

    def test_bounds_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "bounds", "--trials", "10")
        assert code == 0
        assert "PASS ghz-attains-bound" in out

    def test_additivity_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "additivity", "--trials", "10")
        assert code == 0
        assert "PASS pure-additivity" in out
        assert "PASS pure-ssa" in out

    def test_pcrc_small_sample(self, capsys):
        code, out, _ = run(capsys, "verify", "pcrc", "--trials", "2")
        assert code == 0
        assert out.startswith("PASS pcrc")

    def test_pcrc_default_trials_certify_negative_gap(self, capsys):
        # state seed 17 has a converged negative gap that the formation value certifies
        code, out, _ = run(capsys, "verify", "pcrc", "--seed", "0")
        assert code == 0
        assert out.startswith("PASS pcrc")
        assert "over 20 two-qubit mixtures" in out
        assert "1 certified negative-gap findings" in out

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_rejects_trials_below_one(self, capsys, trials):
        code, out, err = run(capsys, "verify", "entropy", "--trials", trials)
        assert code == 2
        assert out == ""
        assert "--trials" in err

    def test_pcrc_failure_names_its_trial_and_seed(self, capsys, monkeypatch):
        miss = Check(-0.02, False, 1, 0, (1, -0.02, 0.31, 0.29))
        monkeypatch.setattr(cli, "check_pcrc", lambda densities, config: miss)
        code, out, err = run(capsys, "verify", "pcrc", "--seed", "5", "--trials", "2")
        assert code == 1
        assert out.startswith("FAIL pcrc: converged negative gap -2.000e-02 at trial 1, "
                              "roof 0.310000 against formation 0.290000 (")
        [failure] = json.loads(err)["failures"]
        assert (failure["check"], failure["trial"], failure["seed"]) == ("pcrc", 1, 6)

    def test_lines_end_with_elapsed_time(self, capsys):
        code, out, _ = run(capsys, "verify", "additivity", "--trials", "3")
        assert code == 0
        lines = out.splitlines()
        assert [line.split(":")[0] for line in lines] == ["PASS pure-additivity", "PASS pure-ssa"]
        times = [float(re.fullmatch(r".* \((\d+\.\d\d) s\)", line).group(1)) for line in lines]
        assert 0.0 <= times[0] <= times[1]

    def test_prints_each_line_as_its_check_completes(self, capsys, monkeypatch):
        # the entropy-range check (the last entropy taken) starts after the
        # entropy-ssa line is out
        seen = []
        entropy = measures.von_neumann_entropy

        def spy(rho):
            seen.append(capsys.readouterr().out)
            return entropy(rho)

        monkeypatch.setattr(measures, "von_neumann_entropy", spy)
        code, out, _ = run(capsys, "verify", "entropy", "--trials", "2")
        assert code == 0
        assert seen[-1].startswith("PASS entropy-ssa") and seen[-1].count("\n") == 1
        assert out.startswith("PASS entropy-range")

    def test_flags_small_sample(self, capsys):
        code, out, _ = run(capsys, "verify", "flags", "--trials", "1")
        assert code == 0
        assert out.startswith("PASS flags-equality")


Q2, Q3, Q4 = (RegisterShape((2,) * n) for n in (2, 3, 4))


def shift_at(monkeypatch, name, target, delta):
    """Make `measures.<name>` read `delta` more on the one state equal to target."""
    real = getattr(measures, name)

    def data(state):
        return state.amplitudes if isinstance(state, PureState) else state.matrix

    def shifted(state):
        return real(state) + (delta if np.array_equal(data(state), data(target)) else 0.0)

    monkeypatch.setattr(measures, name, shifted)


class TestClaimChecks:
    # the checks that `verify` and tests/test_acceptance.py share name the
    # input that broke their bound
    @pytest.mark.parametrize("name, target, delta, check, trial", [
        ("ssa_check", random_density(Q3, rank=4, seed=103), -10.0,
         lambda: check_entropy_ssa(100, 5), 3),
        ("measure_M", random_pure(Q3, seed=2), 10.0,
         lambda: check_bound_M(random_pure(Q3, seed=k) for k in range(4)), 2),
        ("measure_O", product([random_pure(Q2, seed=502), random_pure(Q2, seed=503)]), 1e-6,
         lambda: check_additivity(500, 4)[0], 1),
        ("measure_S", random_pure(Q4, seed=10_502), -10.0,
         lambda: check_additivity(500, 4)[1], 2),
        ("measure_S_form2", random_pure(Q4, seed=4), 1e-6, lambda: check_form2(3, 5), 1),
    ], ids=["entropy-ssa", "bound-M", "pure-additivity", "pure-ssa", "form2"])
    def test_check_fails_where_a_measure_breaks_the_bound(
            self, monkeypatch, name, target, delta, check, trial):
        assert check().passed
        shift_at(monkeypatch, name, target, delta)
        broken = check()
        assert (broken.passed, broken.trial) == (False, trial)

    def test_bound_M_attained_fails_below_the_bound(self):
        # two EPR pairs have M = 2 against bound_M(4) = 3
        attained = check_bound_M([ghz(3), ghz(4), product([epr(), epr()])], attained=True)
        assert (attained.passed, attained.trial) == (False, 2)
        assert attained.worst == pytest.approx(1.0)

    def test_flags_fails_on_an_unconverged_roof(self, monkeypatch):
        # one line search leaves the two-member mixture's roof far above its
        # minimum; a single pure member's roof is exact at once
        ensembles = [Ensemble((1.0,), (epr(),)),
                     Ensemble((0.5, 0.5), (random_pure(Q2, seed=1), random_pure(Q2, seed=2)))]
        assert check_flags(ensembles, RoofConfig(restarts=8, seed=0)).passed
        monkeypatch.setattr(cli.roof, "MAX_ITERATIONS", 1)
        flags = check_flags(ensembles, RoofConfig(restarts=1, seed=0))
        assert (flags.passed, flags.trial) == (False, 1)

    def test_verify_reports_a_failure(self, capsys, monkeypatch):
        shift_at(monkeypatch, "ssa_check", random_density(Q3, rank=2, seed=1), -10.0)
        code, out, err = run(capsys, "verify", "entropy", "--trials", "3")
        assert code == 1
        assert out.startswith("FAIL entropy-ssa: min residual -")
        assert json.loads(err)["failures"][0]["check"] == "entropy-ssa"


class TestExitCodes:
    # an input error exits 2, and a size above the roof's cap or a refused
    # allocation exits 3, each naming its cause on stderr
    @pytest.mark.parametrize("argv, code, message", [
        (["sweep", "--family", "ghz", "--x-grid", "0:0.3:0.015"], 2,
         "has points that are not exact at two decimals"),
        (["sweep", "--family", "ghz", "--n-range", "5"], 2, "--n-range '5' is not lo:hi"),
        (["roof", "--state", "ghz", "--n", "9"], 3, "dimension 512 exceeds cap 256"),
    ], ids=["x-grid-off-two-decimals", "n-range-not-lo-hi", "dimension-cap"])
    def test_exit_code_and_cause(self, capsys, tmp_path, argv, code, message):
        rho = tmp_path / "rho.json"
        save_state(random_density(RegisterShape((2, 2)), 4, seed=5), rho)
        result, out, err = run(capsys, *(arg.format(rho=rho) for arg in argv))
        assert (result, out) == (code, "")
        assert message in err

    def test_refused_allocation_exits_3(self, capsys, monkeypatch):
        # an allocation the machine refuses is a resource failure, not a
        # failed verification; the constructor raises without allocating
        def refused(n):
            raise MemoryError(f"Unable to allocate 16.0 TiB for GHZ_{n}")

        monkeypatch.setattr(states, "ghz", refused)
        assert run(capsys, "measure", "--state", "ghz", "--n", "40") == (
            3, "", "error: Unable to allocate 16.0 TiB for GHZ_40\n")

    @pytest.mark.parametrize("family, argv", [("ghz", []), ("w", ["--no-ghz-norm"])],
                             ids=["ghz-rows", "cells"])
    def test_oversized_sweep_fails_before_smaller_sizes(self, capsys, monkeypatch, family, argv):
        # the GHZ rows, built in this process, and the cells, here on the
        # one-worker path, run largest n first: a register the machine
        # cannot hold fails before any smaller state is built
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        built, real = [], getattr(states, family)

        def constructor(n):
            built.append(n)
            if n > 6:
                raise MemoryError(f"Unable to allocate 2^{n} amplitudes")
            return real(n)

        monkeypatch.setattr(states, family, constructor)
        assert run(capsys, "sweep", "--family", family, "--n-range", "2:8", *argv) == (
            3, "", "error: Unable to allocate 2^8 amplitudes\n")
        assert built == [8]


class TestOptions:
    # each command takes only the options it reads; any other is a usage error
    @pytest.mark.parametrize("argv", [
        ["roof", "--state", "ghz", "--n", "3", "--format", "csv"],
        ["sweep", "--family", "ghz", "--n-range", "2:3", "--format", "json"],
        ["verify", "entropy", "--trials", "1", "--format", "json"],
        ["verify", "entropy", "--trials", "1", "--output", "out.txt"],
        ["measure", "--state", "epr", "--seed", "1"],
        ["sweep", "--family", "ghz", "--n-range", "2:3", "--seed", "1"],
        # the member count is always r^2 and the line-search cap a constant
        ["roof", "--state", "ghz", "--n", "3", "--ensemble-size", "16"],
        ["roof", "--state", "ghz", "--n", "3", "--max-iterations", "5"],
    ])
    def test_option_a_command_ignores_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_roof_output_file(self, capsys, tmp_path):
        path = tmp_path / "roof.json"
        code, out, _ = run(capsys, "roof", "--state", "ghz", "--n", "3", "--output", str(path))
        assert (code, out) == (0, "")
        assert json.loads(path.read_text())["value"] == pytest.approx(1.5)


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[list[str]]:
    """Arguments of every `totalcorr` line in the README's sh blocks."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
    return [shlex.split(line)[1:] for block in blocks for line in block.splitlines()
            if line.startswith("totalcorr ")]


def test_readme_has_an_example_per_command():
    assert {argv[0] for argv in readme_commands()} == {"measure", "sweep", "roof", "verify"}


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_runs(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    save_state(random_pure(RegisterShape((2, 2, 2)), seed=4), tmp_path / "state.json")
    save_state(random_density(RegisterShape((2, 2)), 3, seed=7), tmp_path / "rho.json")
    code, _, err = run(capsys, *argv)
    assert code == 0, err
