"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line with its worst observed residual
so the suite doubles as a numeric report. Tolerances are the contract;
runtime ceilings are asserted where the check is expected to be cheap.
"""

import statistics
import time

import numpy as np

from totalcorr import (
    RegisterShape,
    RoofConfig,
    bound_M,
    cluster,
    dm,
    eof_two_qubit,
    epr,
    family2,
    flags_residual,
    ghz,
    measure_M,
    measure_O,
    measure_S,
    measure_S_form2,
    product,
    random_density,
    random_pure,
    roof_minimize,
    ssa_check,
)
from totalcorr.states import Ensemble


def qubits(n):
    return RegisterShape((2,) * n)


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


class TestAcceptance:
    def test_01_ghz_attains_bound(self):
        t0 = time.monotonic()
        worst = max(abs(measure_M(ghz(n)) - bound_M(n, 2)) for n in range(2, 9))
        dt = time.monotonic() - t0
        report(
            "01 ghz-maxima", worst <= 1e-9 and dt < 5.0,
            f"max |M(ghz_n) - bound_M| = {worst:.2e} for n=2..8 in {dt:.1f}s",
        )

    def test_02_bound_property(self):
        t0 = time.monotonic()
        worst_gap = np.inf
        for n in (3, 4, 5):
            for k in range(500):
                psi = random_pure(qubits(n), seed=10_000 * n + k)
                worst_gap = min(worst_gap, bound_M(n, 2) - measure_M(psi))
        dt = time.monotonic() - t0
        report(
            "02 bound-property", worst_gap >= -1e-9 and dt < 60.0,
            f"min bound_M - M = {worst_gap:.2e} over 1500 pure states in {dt:.1f}s",
        )

    def test_03_figure1_separation(self):
        a, b, c = ghz(4), product([epr(), epr()]), cluster(4)
        o_vals = [measure_O(s) for s in (a, b, c)]
        s_vals = [measure_S(s) for s in (a, b, c)]
        worst_o = max(abs(v - 2.0) for v in o_vals)
        worst_s = max(abs(v - t) for v, t in zip(s_vals, (2.5, 2.0, 1.5)))
        report(
            "03 figure1-separation", worst_o <= 1e-9 and worst_s <= 1e-9,
            f"O all 2.0 (dev {worst_o:.2e}), S = 2.5/2.0/1.5 (dev {worst_s:.2e})",
        )

    def test_04_roof_matches_formation(self):
        t0 = time.monotonic()
        errors = []
        for k in range(50):
            rho = random_density(qubits(2), rank=4, seed=20_000 + k)
            res = roof_minimize(rho, "M", RoofConfig())
            errors.append(abs(res.value - eof_two_qubit(rho)))
        dt = time.monotonic() - t0
        med, mx = statistics.median(errors), max(errors)
        report(
            "04 roof-vs-formation",
            mx <= 5e-3 and med <= 2e-3 and dt < 600.0,
            f"max err {mx:.2e}, median {med:.2e} over 50 densities in {dt:.0f}s",
        )

    def test_05_flags_equality(self):
        t0 = time.monotonic()
        cfg = RoofConfig(restarts=8, seed=11)
        worst = 0.0
        for k in range(10):
            a = random_pure(qubits(2), seed=30_000 + 2 * k)
            b = random_pure(qubits(2), seed=30_001 + 2 * k)
            p = 0.2 + 0.06 * k
            worst = max(worst, flags_residual(Ensemble((p, 1 - p), (a, b)), "M", cfg))
        dt = time.monotonic() - t0
        report(
            "05 flags-equality", worst <= 5e-3 and dt < 600.0,
            f"max residual {worst:.2e} over 10 ensembles in {dt:.0f}s",
        )

    def test_06_additivity_and_pure_ssa(self):
        t0 = time.monotonic()
        worst_add = 0.0
        for k in range(100):
            a = random_pure(qubits(2), seed=40_000 + 2 * k)
            b = random_pure(qubits(2), seed=40_001 + 2 * k)
            ab = product([a, b])
            for fn in (measure_M, measure_O, measure_S):
                worst_add = max(worst_add, abs(fn(ab) - fn(a) - fn(b)))
        from totalcorr.core import partial_trace
        worst_ssa = np.inf
        for k in range(100):
            psi = random_pure(qubits(4), seed=50_000 + k)
            rho = dm(psi)
            parts = measure_S(partial_trace(rho, {0, 1})) + measure_S(
                partial_trace(rho, {2, 3})
            )
            worst_ssa = min(worst_ssa, measure_S(psi) - parts)
        dt = time.monotonic() - t0
        report(
            "06 additivity-ssa",
            worst_add <= 1e-8 and worst_ssa >= -1e-8 and dt < 60.0,
            f"max additivity dev {worst_add:.2e}, min SSA margin {worst_ssa:.2e} in {dt:.1f}s",
        )

    def test_07_form2_identity(self):
        t0 = time.monotonic()
        worst = 0.0
        for k in range(100):
            n = 3 + k % 3
            psi = random_pure(qubits(n), seed=60_000 + k)
            worst = max(worst, abs(measure_S_form2(psi) - measure_S(psi)))
        dt = time.monotonic() - t0
        report(
            "07 form2-identity", worst <= 1e-8 and dt < 60.0,
            f"max |S_form2 - S| = {worst:.2e} over 100 pure states in {dt:.1f}s",
        )

    def test_08_entropy_ssa(self):
        t0 = time.monotonic()
        worst = np.inf
        for k in range(200):
            rho = random_density(qubits(3), rank=1 + k % 8, seed=70_000 + k)
            worst = min(worst, ssa_check(rho))
        dt = time.monotonic() - t0
        report(
            "08 entropy-ssa", worst >= -1e-8 and dt < 30.0,
            f"min residual {worst:.2e} over 200 densities in {dt:.1f}s",
        )

    def test_09_family2_trend(self):
        # at n = 4 the x = 0.5 state is the uniform odd-parity
        # superposition, which Hadamards map onto a GHZ state, so its
        # relative value is exactly 1 and cannot be part of a strictly
        # rising curve. The growth toward the GHZ value sets in past the
        # small-n transient; the absolute value grows from n = 5 on.
        abs_vals = {n: measure_S(family2(0.5, n)) for n in range(4, 13)}
        rel_vals = [abs_vals[n] / measure_S(ghz(n)) for n in range(8, 13)]
        tail_rising = all(b > a for a, b in zip(rel_vals, rel_vals[1:]))
        below_limit = all(v < 1.0 for v in rel_vals)
        abs_rising = all(abs_vals[n + 1] > abs_vals[n] for n in range(5, 12))
        margin = abs_vals[12] - abs_vals[4]
        report(
            "09 family2-trend",
            tail_rising and below_limit and abs_rising and margin > 0,
            f"S_rel x=0.5 rises {rel_vals[0]:.4f} -> {rel_vals[-1]:.4f} over n=8..12, "
            f"absolute S rises from n=5 and S(12) - S(4) = {margin:.2f}",
        )

    def test_10_pcrc_evidence(self):
        # gap = direct - roof. Converged negative gaps do occur on
        # random rank-2 states in both sizes, and each one here is
        # certified as a genuine property rather than an optimizer miss
        # by an independent oracle: the closed-form formation value for
        # two qubits (half the mutual information can sit below it), and
        # a linear program over a Bloch-sphere grid of the rank-2
        # support for three qubits, which computes the lower convex
        # envelope directly. Certified gaps are reported as findings; an
        # uncertified converged negative gap would mean a broken
        # optimizer and fails the suite.
        cfg = RoofConfig(restarts=6, seed=13)
        worst2 = np.inf
        findings2 = 0
        uncertified = None
        for k in range(100):
            rho = random_density(qubits(2), rank=2, seed=80_000 + k)
            res = roof_minimize(rho, "M", cfg)
            gap = measure_M(rho) - res.value
            worst2 = min(worst2, gap)
            if gap < -1e-6 and res.converged:
                if abs(res.value - eof_two_qubit(rho)) <= 5e-3:
                    findings2 += 1
                else:
                    uncertified = (2, k, gap)

        findings3 = 0
        worst3 = np.inf
        for k in range(30):
            rho = random_density(qubits(3), rank=2, seed=90_000 + k)
            res = roof_minimize(rho, "M", cfg)
            direct = measure_M(rho)
            gap = direct - res.value
            worst3 = min(worst3, gap)
            if gap < -1e-6 and res.converged:
                oracle = self._grid_roof(rho)
                if abs(res.value - oracle) <= 5e-3 and oracle > direct + 1e-6:
                    findings3 += 1
                else:
                    uncertified = (3, k, gap)
        report(
            "10 pcrc-evidence", uncertified is None,
            f"min gap {worst2:.2e} (2 qubits) / {worst3:.2e} (3 qubits); "
            f"{findings2} + {findings3} certified negative-gap findings, "
            "none attributable to the optimizer",
        )

    @staticmethod
    def _grid_roof(rho):
        """Roof of M for a rank-2 state via the lower convex envelope.

        Decompositions of a rank-2 state live on the Bloch sphere of its
        support, so the roof is the convex envelope of the pure measure
        evaluated at the state's Bloch vector; a linear program over a
        dense sphere grid computes it independently of the optimizer.
        A pure three-qubit member has S(ij) = S(k), so its M is half the
        sum of its single-site entropies; the whole grid is evaluated at
        once here, without the package's measures.
        """
        from scipy.optimize import linprog

        lam, vecs = np.linalg.eigh(rho.matrix)
        v1, v2 = vecs[:, -1], vecs[:, -2]
        t, ph = (g.ravel() for g in np.meshgrid(
            np.linspace(0.0, np.pi / 2, 41), np.linspace(0.0, 2 * np.pi, 48, endpoint=False),
            indexing="ij",
        ))
        amps = np.cos(t)[:, None] * v1 + (np.exp(1j * ph) * np.sin(t))[:, None] * v2
        members = amps.reshape(-1, 2, 2, 2)
        values = np.zeros(len(amps))
        for site in range(3):
            flat = np.moveaxis(members, site + 1, 1).reshape(-1, 2, 4)
            spectra = np.linalg.eigvalsh(flat @ flat.conj().transpose(0, 2, 1))
            spectra = np.where(spectra > 1e-12, spectra, 1.0)
            values -= 0.5 * (spectra * np.log2(spectra)).sum(axis=1)
        bloch = [np.sin(2 * t) * np.cos(ph), np.sin(2 * t) * np.sin(ph), np.cos(2 * t)]
        A_eq = np.vstack([*bloch, np.ones(len(values))])
        b_eq = np.array([0.0, 0.0, lam[-1] - lam[-2], 1.0])
        lp = linprog(values, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
        return float(lp.fun)
