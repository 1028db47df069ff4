"""Tests for the KdV reference solver: Airy phases, linear limit, RK4 order,
conserved quantities, reversibility, isospectrality and the mode bridge."""

import math

import numpy as np
import pytest

from hillkdv.operator import Potential
from hillkdv.sequences import FourierSeq
from hillkdv.pde import (
    potential_to_pde_state, pde_state_to_potential,
    evolve_airy, evolve_kdv, conserved, isospectral_check, InstabilityError,
)


def cosine(a, k=1, K=32):
    """The state u(x) = a cos(2 pi k x) on |k| <= K."""
    return FourierSeq.from_pairs([(k, a / 2.0), (-k, a / 2.0)], K=K)


# ---------------------------------------------------------------------------
# states and the mode bridge
# ---------------------------------------------------------------------------

def test_state_cosine_constructor():
    u = cosine(0.2, k=3, K=8)
    assert u[3] == 0.1 and u[-3] == 0.1
    assert u[1] == 0.0
    assert u.is_conj_symmetric(tol=1e-10)


def test_mode_bridge_roundtrip():
    rng = np.random.default_rng(5)
    q = Potential.random_real(rng, n_max=6, sup=0.3)
    # an odd half range, as a file: potential may store it
    q_odd = Potential(FourierSeq.from_pairs(
        [(-6, 0.1 - 0.2j), (-2, 0.3j), (2, -0.3j), (6, 0.1 + 0.2j)], K=7))
    for q, n_max in ((q, 6), (q_odd, 3)):
        u = potential_to_pde_state(q)
        assert u.half_range == n_max
        for k in range(-n_max, n_max + 1):
            assert u[k] == q.coeff(2 * k)
        back = pde_state_to_potential(u)
        for k in range(-2 * n_max, 2 * n_max + 1):
            assert back.coeff(k) == pytest.approx(q.coeff(k), abs=1e-15)


def test_pde_state_to_potential_matches_pair_loop():
    # oracle: the mode-by-mode construction the slice replaced
    rng = np.random.default_rng(13)
    for real in (False, True):
        c = rng.normal(size=11) + 1j * rng.normal(size=11)
        c[[1, 7]] = 0.0
        if real:
            c = 0.5 * (c + np.conj(c[::-1]))
        u = FourierSeq(c)
        pairs = [(k, u[k]) for k in range(-5, 6) if k != 0 and u[k] != 0]
        want = Potential.from_even_pairs(pairs, n_max=5)
        got = pde_state_to_potential(u)
        np.testing.assert_array_equal(got.seq.coeffs, want.seq.coeffs)
        assert got.is_real() == want.is_real() == real


# ---------------------------------------------------------------------------
# Airy flow
# ---------------------------------------------------------------------------

def test_airy_identity_at_zero():
    u = cosine(0.3, K=8)
    np.testing.assert_array_equal(evolve_airy(u, 0.0).coeffs, u.coeffs)


def test_airy_phase_period():
    # mode k advances by phase (2 pi k)^3 t; at t = 2 pi / (2 pi)^3 the
    # k = 1 mode returns exactly (k^3 is an integer multiple for all k)
    u = FourierSeq.from_pairs([(1, 0.5), (-1, 0.5), (2, 0.25), (-2, 0.25)],
                              K=4)
    t = 2 * math.pi / (2 * math.pi) ** 3
    v = evolve_airy(u, t)
    np.testing.assert_allclose(v.coeffs, u.coeffs, atol=1e-12)


def test_airy_unitary():
    rng = np.random.default_rng(7)
    c = rng.normal(size=17) + 1j * rng.normal(size=17)
    u = FourierSeq(c)
    v = evolve_airy(u, 0.37)
    np.testing.assert_allclose(np.abs(v.coeffs), np.abs(u.coeffs), atol=1e-14)


# ---------------------------------------------------------------------------
# nonlinear solver
# ---------------------------------------------------------------------------

def test_kdv_linear_limit():
    # for tiny amplitude the KdV flow is the Airy flow to high accuracy
    u0 = cosine(1e-6, K=16)
    a = evolve_airy(u0, 0.01)
    b = evolve_kdv(u0, 0.01, dt=1e-3)
    assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-9


def test_kdv_fourth_order_self_convergence():
    u0 = cosine(0.1, K=16)
    t = 4e-3
    ref = evolve_kdv(u0, t, dt=t / 512)
    errs = []
    for steps in (8, 16, 32):
        u = evolve_kdv(u0, t, dt=t / steps)
        errs.append(np.max(np.abs(u.coeffs - ref.coeffs)))
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    assert 10.0 < r1 < 24.0   # ~16 for a 4th-order scheme
    assert 10.0 < r2 < 24.0


def test_kdv_reversibility():
    u0 = cosine(0.1, K=32)
    dt = 2.5e-4
    u1 = evolve_kdv(u0, 0.01, dt=dt)
    u2 = evolve_kdv(u1, -0.01, dt=dt)
    assert np.max(np.abs(u2.coeffs - u0.coeffs)) < 1e-8


def test_kdv_mean_preserved_exactly():
    u0 = FourierSeq.from_pairs([(0, 0.25), (1, 0.05), (-1, 0.05)], K=16)
    u1 = evolve_kdv(u0, 0.01, dt=1e-3)
    assert u1[0] == u0[0]


@pytest.mark.parametrize("dt", [-1e-4, math.inf, 0.0, math.nan])
def test_kdv_rejects_bad_dt(dt):
    # a negative or infinite dt would take one RK4 step over the whole
    # interval, 0 and NaN would fail in the step count
    with pytest.raises(ValueError, match="dt"):
        evolve_kdv(cosine(0.1, K=16), 0.01, dt=dt)


@pytest.mark.parametrize("t_end", [math.nan, math.inf, -math.inf])
def test_kdv_rejects_non_finite_t_end(t_end):
    # NaN and +-inf would otherwise reach the step count, as a conversion
    # error and an overflow; a finite negative t_end stays allowed
    with pytest.raises(ValueError, match="t_end"):
        evolve_kdv(cosine(0.1, K=16), t_end, dt=1e-4)


def test_kdv_zero_time_returns_input():
    u = cosine(0.1, K=16)
    assert evolve_kdv(u, 0.0, dt=1e-4) is u


def test_blowup_detection():
    u0 = cosine(50.0, K=32)
    with pytest.raises(InstabilityError):
        # absurdly large step forces the nonlinear term to blow up
        evolve_kdv(u0, 1.0, dt=0.05)


@pytest.mark.parametrize("a", [1e150, 1e170])
def test_blowup_detection_non_finite_state(a):
    # one step overflows the state to NaN, which no growth bound exceeds
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(InstabilityError):
        evolve_kdv(cosine(a, K=16), 1e-3, dt=1e-3)


# ---------------------------------------------------------------------------
# conserved quantities
# ---------------------------------------------------------------------------

def test_hamiltonian_hand_value():
    # u = a cos(2 pi x): H = int (1/2 u_x^2 + u^3) = pi^2 a^2 (cubic
    # integrates to zero)
    a = 0.3
    u = cosine(a, K=8)
    mean, l2, ham = conserved(u)
    assert mean == 0.0
    assert l2 == pytest.approx(a * a / 2.0)
    assert ham == pytest.approx(math.pi ** 2 * a * a, rel=1e-12)


def test_hamiltonian_cubic_term():
    # u = a cos + b cos(2.): the cubic term int u^3 picks up the resonant
    # triple 3 * (a/2)^2 (b/2) * 2 = 3 a^2 b / 4
    a, b = 0.2, 0.1
    u = FourierSeq.from_pairs(
        [(1, a / 2), (-1, a / 2), (2, b / 2), (-2, b / 2)], K=8)
    _, _, ham = conserved(u)
    quad = 0.5 * ((2 * math.pi) ** 2 * a * a / 2 + (4 * math.pi) ** 2 * b * b / 2)
    cubic = 3.0 * a * a * b / 4.0
    assert ham == pytest.approx(quad + cubic, rel=1e-12)


def test_conserved_drift_small():
    u0 = cosine(0.1, K=32)
    u1 = evolve_kdv(u0, 0.01, dt=2.5e-4)
    c0, c1 = conserved(u0), conserved(u1)
    assert abs(c1[1] - c0[1]) / c0[1] < 1e-9
    assert abs(c1[2] - c0[2]) / abs(c0[2]) < 1e-9


# ---------------------------------------------------------------------------
# isospectrality
# ---------------------------------------------------------------------------

def test_isospectral_check_report():
    q0 = Potential.single_mode(0.05)
    rep = isospectral_check(q0, 0.01, 64, dt=2.5e-4, K_pde=32)
    assert rep["trust"] >= 20
    assert rep["max_lambda_drift"] < 1e-6
    assert rep["max_gap_drift"] < 1e-6
    assert rep["hamiltonian_rel_drift"] < 1e-8
    assert rep["l2_rel_drift"] < 1e-8
    # the first Dirichlet eigenvalue genuinely moves
    assert rep["mu_motion_expected_to_move"][0] > 1e-3
    # the state the report ends at is the one evolve_kdv reaches at t = 0.01
    u1 = evolve_kdv(potential_to_pde_state(q0).extended(32), 0.01, dt=2.5e-4)
    np.testing.assert_array_equal(rep["final_state"].coeffs, u1.coeffs)
