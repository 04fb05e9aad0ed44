"""Tests of the benchmark's reference functions.

Run from the repository root:  python -m pytest bench/test_reference.py
"""

import math

import numpy as np
import pytest

import reference as ref


@pytest.mark.parametrize("n", range(2, 9))
def test_closed_forms_match_svd_entropies(n):
    for vec, closed in ((ref.ghz_vec, ref.ghz_closed), (ref.w_vec, ref.w_closed),
                        (ref.wbar_vec, ref.w_closed)):
        got = ref.pure_values(vec(n))
        for key, want in closed(n).items():
            assert got[key] == pytest.approx(want, abs=1e-12), (vec.__name__, n, key)
    if n % 2 == 0:
        got = ref.pure_values(ref.epr_power_vec(n))
        for key, want in ref.epr_power_closed(n).items():
            assert got[key] == pytest.approx(want, abs=1e-12), ("epr_power", n, key)


def test_ghz_closed_form_values():
    assert ref.ghz_closed(2)["M"] == 1.0
    assert ref.ghz_closed(4) == {"O": 2.0, "M": 3.0, "S": 2.5, "MW": 2.0}


@pytest.mark.parametrize("p", [1.0, 0.8, 0.5, 1 / 3, 0.2])
def test_wootters_eof_on_werner_states(p):
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2)
    rho = p * np.outer(singlet, singlet) + (1 - p) * np.eye(4) / 4
    conc = max(0.0, (3 * p - 1) / 2)
    x = (1 + math.sqrt(1 - conc * conc)) / 2
    want = 0.0 if conc == 0 else ref.binary_entropy(x)
    assert ref.wootters_eof(rho) == pytest.approx(want, abs=1e-9)


def test_wootters_eof_is_local_unitary_invariant():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    u = np.kron(q, np.eye(2))
    assert ref.wootters_eof(u @ rho @ u.conj().T) == pytest.approx(ref.wootters_eof(rho), abs=1e-9)


def test_grid_lp_of_a_separable_rank2_state_is_zero():
    rho = np.zeros((8, 8), dtype=complex)
    rho[0, 0] = rho[7, 7] = 0.5
    assert ref.grid_roof_M(rho) == pytest.approx(0.0, abs=1e-9)


def test_reduced_density_matches_a_product_state():
    a = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
    b = np.array([[0.4, 0.2], [0.2, 0.6]])
    c = np.eye(2) / 2
    rho = np.kron(np.kron(a, b), c)
    assert np.allclose(ref.reduced_density(rho, 3, (0,)), a)
    assert np.allclose(ref.reduced_density(rho, 3, (1,)), b)
    assert np.allclose(ref.reduced_density(rho, 3, (0, 2)), np.kron(a, c))


def test_sweep_grid_has_464_rows():
    rows = ref.sweep_grid(2, 12)
    assert len(rows) == len(set(rows)) == 464
