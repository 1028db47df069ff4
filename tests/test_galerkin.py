"""Tests for the dense Galerkin spectra: free-operator exactness, truncation
refinement, an independent shooting oracle for the Dirichlet problem, Riesz
projectors, and the decay-transfer report."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from hillkdv.operator import Potential
from hillkdv.sequences import Weight
from hillkdv.galerkin import (
    trust_count, periodic_spectrum, dirichlet_spectrum, full_spectrum,
    gaps_and_midpoints, riesz_projector, free_projector, op_norm_2_to_inf,
    periodic_matrix, verify_decay, SeparationError, _lex_sort,
)

PI2 = math.pi ** 2


# ---------------------------------------------------------------------------
# free operator: everything is exact
# ---------------------------------------------------------------------------

def test_free_periodic_spectrum_exact():
    spec = periodic_spectrum(Potential.zero(), 64)
    assert spec.periodic[0] == pytest.approx(0.0, abs=1e-9)
    for n in range(1, spec.trust + 1):
        assert spec.lam_minus(n).real == pytest.approx(n * n * PI2, rel=1e-12)
        assert spec.lam_plus(n).real == pytest.approx(n * n * PI2, rel=1e-12)


def test_free_dirichlet_spectrum_exact():
    spec = dirichlet_spectrum(Potential.zero(), 64)
    for n in range(1, spec.trust + 1):
        assert spec.mu(n).real == pytest.approx(n * n * PI2, rel=1e-12)


def test_free_gaps_vanish():
    spec = full_spectrum(Potential.zero(), 64)
    gam, tau, diff = gaps_and_midpoints(spec)
    assert np.max(np.abs(gam)) < 1e-8
    assert np.max(np.abs(diff)) < 1e-8


def test_trust_count_values():
    # n is certified when n^2 pi^2 + 12 n < ((K-2) pi)^2 / 4
    for K in (32, 64, 128, 256):
        t = trust_count(K)
        assert t * t * PI2 + 12 * t < ((K - 2) * math.pi) ** 2 / 4
        u = t + 1
        assert u * u * PI2 + 12 * u >= ((K - 2) * math.pi) ** 2 / 4
    assert trust_count(64) == 30


def test_minimum_truncation_enforced():
    with pytest.raises(ValueError):
        periodic_spectrum(Potential.zero(), 8)


# ---------------------------------------------------------------------------
# single cosine mode: perturbative gap oracle
# ---------------------------------------------------------------------------

def test_single_mode_first_gap_perturbative():
    # q = 2c cos(2 pi x): gamma_1 = 2|c| + O(c^3)
    for c in (0.02, 0.05, 0.1):
        spec = periodic_spectrum(Potential.single_mode(c), 64)
        gam1 = (spec.lam_plus(1) - spec.lam_minus(1)).real
        assert abs(gam1 - 2 * c) < 4.0 * c ** 3 + 1e-10


def test_single_mode_higher_gaps_small():
    # gap n for a single mode at n = 1 scales like c^n; by n = 3 it is tiny
    spec = periodic_spectrum(Potential.single_mode(0.05), 64)
    gam, _, _ = gaps_and_midpoints(full_spectrum(Potential.single_mode(0.05), 64))
    assert abs(gam[2]) < 1e-6
    assert abs(gam[0]) > 0.09


def test_refinement_K128_vs_K256():
    rng = np.random.default_rng(5)
    q = Potential.random_real(rng, n_max=10, sup=0.15)
    s1 = full_spectrum(q, 128)
    s2 = full_spectrum(q, 256)
    for n in range(1, 21):
        assert abs(s1.lam_minus(n) - s2.lam_minus(n)) < 1e-8
        assert abs(s1.lam_plus(n) - s2.lam_plus(n)) < 1e-8
        assert abs(s1.mu(n) - s2.mu(n)) < 1e-8


# ---------------------------------------------------------------------------
# Dirichlet shooting oracle
# ---------------------------------------------------------------------------

def shooting_mu(q, n):
    """n-th Dirichlet eigenvalue of -y'' + q y = mu y on [0, 1] for a small
    real q, by shooting from y(0) = 0, y'(0) = 1 and root-finding
    y(1; mu) = 0 between (n -+ 1/2)^2 pi^2."""
    ks = q.seq.nonzero_ks()
    vals = np.array([q.coeff(k) for k in ks])

    def q_at(x):
        return float(np.sum(vals * np.exp(1j * math.pi * ks * x)).real)

    def y_at_1(mu):
        def rhs(x, y):
            return [y[1], (q_at(x) - mu) * y[0]]
        sol = solve_ivp(rhs, (0.0, 1.0), [0.0, 1.0], rtol=1e-12, atol=1e-14,
                        dense_output=False)
        return sol.y[0, -1]
    return brentq(y_at_1, (n - 0.5) ** 2 * PI2, (n + 0.5) ** 2 * PI2,
                  xtol=1e-12)


def test_dirichlet_matches_shooting():
    # the random q has sine components, so its odd-k cosine pairings are
    # nonzero
    cases = [(Potential.single_mode(0.05), 64, (1,)),
             (Potential.single_mode(0.2), 64, (1,)),
             (Potential.random_real(np.random.default_rng(21), n_max=6,
                                    sup=0.1), 96, (1, 2, 3))]
    for q, K, ns in cases:
        spec = dirichlet_spectrum(q, K)
        for n in ns:
            assert spec.mu(n).real == pytest.approx(shooting_mu(q, n), abs=1e-9)


def test_dirichlet_between_periodic_pair():
    # mu_n lies in [lambda_n^-, lambda_n^+] for real potentials
    rng = np.random.default_rng(9)
    q = Potential.random_real(rng, n_max=6, sup=0.1)
    spec = full_spectrum(q, 96)
    checked = 0
    for n in range(1, spec.trust + 1):
        lm, lp = spec.lam_minus(n).real, spec.lam_plus(n).real
        mu = spec.mu(n).real
        # check only where the gap dominates the mutual truncation error of
        # the two Galerkin bases, with a slack at that error scale
        slack = 1e-8 * max(1.0, abs(lm))
        if lp - lm <= 10 * slack:
            continue
        checked += 1
        assert lm - slack <= mu <= lp + slack
    assert checked >= 5


# ---------------------------------------------------------------------------
# Riesz projectors
# ---------------------------------------------------------------------------

def quadrature_projector(q, n, K, pts=256):
    """Oracle: trapezoid rule for (1/2 pi i) oint (lambda - M)^{-1} d lambda
    on |lambda - n^2 pi^2| = n, at a fixed node count.  For real M the nodes
    come in conjugate pairs with conjugate terms, so half of them suffice."""
    M = periodic_matrix(q, K)
    real = not np.any(M.imag)
    I = np.eye(M.shape[0], dtype=complex)
    R = np.zeros_like(M)
    thetas = 2 * np.pi * (np.arange(pts) + 0.5) / pts
    for th in thetas[:pts // 2] if real else thetas:
        lam = n * n * PI2 + n * np.exp(1j * th)
        R += np.exp(1j * th) * np.linalg.solve(lam * I - M, I)
    if real:
        R = 2.0 * R.real
    return R * (n / pts)


@pytest.mark.parametrize("c", [0.3, 2.0])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_riesz_jordan_pair_matches_quadrature(c, n):
    # one-sided (Gasymov) potential q_{+2} = c: the spectrum is the free one,
    # and n^2 pi^2 is a double eigenvalue carrying a Jordan block
    q = Potential.from_even_pairs([(1, c)], n_max=1)
    R, rep = riesz_projector(q, n, 48)
    assert np.max(np.abs(R - quadrature_projector(q, n, 48))) <= 1e-12
    assert rep["idempotency_defect"] <= 1e-12
    assert abs(rep["trace"] - 2.0) <= 1e-12


def off_block(n, K):
    """Entries of a (2K+1)x(2K+1) matrix outside the block of n's parity."""
    other = (np.arange(-K, K + 1) - n) % 2 == 1
    return other[:, None] | other[None, :]


def test_riesz_criterion12_potential_matches_quadrature():
    # the lacunary potential of acceptance criterion 12; its pairs are well
    # separated, so 64 trapezoid nodes already meet the tolerance
    ns = (8, 12, 16, 24, 32, 48, 64)
    pairs = [(s * (n - 1), 0.02 * (n - 1) ** 0.75) for n in ns for s in (1, -1)]
    q = Potential.from_even_pairs(pairs, n_max=64)
    for n in ns:
        R, _ = riesz_projector(q, n, 180)
        assert np.all(R[off_block(n, 180)] == 0)
        assert np.max(np.abs(R - quadrature_projector(q, n, 180, pts=64))) <= 1e-12


@st.composite
def small_potentials(draw):
    # |q_{2m}| <= 0.1, real (q_{-2m} = conj q_{2m}) or complex
    n_max = draw(st.integers(1, 4))
    part = st.floats(-0.07, 0.07)
    pos = [complex(draw(part), draw(part)) for _ in range(n_max)]
    if draw(st.booleans()):
        neg = [np.conj(v) for v in pos]
    else:
        neg = [complex(draw(part), draw(part)) for _ in range(n_max)]
    pairs = [(m, v) for m, v in enumerate(pos, 1)]
    pairs += [(-m, v) for m, v in enumerate(neg, 1)]
    return Potential.from_even_pairs(pairs, n_max=n_max)


@settings(deadline=None, max_examples=25)
@given(q=small_potentials(), n=st.integers(1, 4))
def test_riesz_property_random_small_potentials(q, n):
    # n_max <= 4 and |q_{2m}| <= 0.1 keep every eigenvalue within 0.8 of a
    # free one (Bauer-Fike), so the contour always separates the pair
    K = 32
    R, rep = riesz_projector(q, n, K)
    M = periodic_matrix(q, K)
    assert np.all(R[off_block(n, K)] == 0)
    assert np.max(np.abs(R - quadrature_projector(q, n, K))) <= 1e-10
    assert np.max(np.abs(R @ M - M @ R)) <= 1e-10 * np.max(np.abs(M))
    assert abs(rep["trace"] - 2.0) <= 1e-10


@settings(deadline=None, max_examples=25)
@given(q=small_potentials())
@example(q=Potential.from_even_pairs([(1, 0.046875j), (-1, -0.0625j)], n_max=1))
def test_periodic_spectrum_matches_full_matrix(q):
    # the parity blocks against one eigensolve of the full matrix; eigenvalue
    # errors scale with the condition number kappa, which is 1 for real q.
    # The example's n = 3 pair has Re parts 5.1e-8 apart, inside the Re tie
    # tolerance, and Im parts that are rounding only (0 and +-1.8e-14): the
    # two solves must still agree on its order
    K = 32
    M = periodic_matrix(q, K)
    if q.is_real():
        full, kappa = scipy.linalg.eigvalsh(M), 1.0
    else:
        full, left, right = scipy.linalg.eig(M, left=True, right=True)
        kappa = np.max(1.0 / np.abs(np.sum(left.conj() * right, axis=0)))
    full = _lex_sort(full.astype(complex), tie_scale=K * K * PI2)
    vals = periodic_spectrum(q, K).periodic
    eps = np.finfo(float).eps
    assert np.max(np.abs(vals - full)) <= 200 * eps * np.linalg.norm(M, 2) * kappa


def test_riesz_free_case_equals_mode_projector():
    n, K = 3, 48
    R, rep = riesz_projector(Potential.zero(), n, K)
    P = free_projector(n, K)
    assert np.max(np.abs(R - P)) < 1e-8
    assert rep["idempotency_defect"] <= 1e-6
    assert rep["trace"].real == pytest.approx(2.0, abs=1e-8)


def test_riesz_idempotent_and_rank_two():
    rng = np.random.default_rng(13)
    q = Potential.random_real(rng, n_max=5, sup=0.1)
    R, rep = riesz_projector(q, 4, 64)
    assert np.linalg.norm(R @ R - R, 2) <= 1e-6
    assert rep["trace"].real == pytest.approx(2.0, abs=1e-6)


def test_riesz_projected_mass_lower_bound():
    # for small q the projector is close to the free one: ||R e_n|| >= 1/2
    rng = np.random.default_rng(17)
    q = Potential.random_real(rng, n_max=4, sup=0.08)
    K = 64
    n = 5
    R, _ = riesz_projector(q, n, K)
    e = np.zeros(2 * K + 1, dtype=complex)
    e[K + n] = 1.0
    assert np.linalg.norm(R @ e) >= 0.5


def test_riesz_separation_failure():
    # a contour through a free eigenvalue: |25 pi^2 - 16 pi^2| = 9 pi^2 < n=4?
    # use n and a potential shifting an eigenvalue onto the circle instead:
    # simplest guaranteed failure is a huge potential collapsing separation
    q = Potential.single_mode(60.0)
    with pytest.raises(SeparationError):
        riesz_projector(q, 1, 48)


def test_op_norm_2_to_inf_free_projector():
    # P_n maps f to f_n e_n + f_{-n} e_{-n}; its L2->Linf norm is sqrt(2)
    K = 32
    P = free_projector(4, K)
    val = op_norm_2_to_inf(P, K)
    assert val == pytest.approx(math.sqrt(2.0), rel=1e-10)


def test_op_norm_2_to_inf_identity():
    # identity on the truncated space: norm = sqrt(2K+1)
    K = 16
    val = op_norm_2_to_inf(np.eye(2 * K + 1, dtype=complex), K)
    assert val == pytest.approx(math.sqrt(2 * K + 1), rel=1e-10)


# ---------------------------------------------------------------------------
# decay transfer
# ---------------------------------------------------------------------------

def test_verify_decay_report_structure_and_bound():
    rng = np.random.default_rng(21)
    q = Potential.power_law(0.05, -1.0, n_max=12, rng=rng)
    rep = verify_decay(q, None, 0.0, [64, 96, 128])
    assert rep["K_list"] == [64, 96, 128]
    assert len(rep["sup_gamma"]) == 3
    assert rep["gamma_stabilization"] < 0.05
    assert rep["tail_bound"]["holds"]


def test_verify_decay_weighted():
    rng = np.random.default_rng(23)
    q = Potential.power_law(0.02, -2.0, n_max=8, rng=rng,
                            weight=Weight.polynomial(0.5))
    rep = verify_decay(q, Weight.polynomial(0.5), 0.0, [64, 128])
    assert rep["tail_bound"]["holds"]
    assert rep["sup_gamma"][-1] >= 0.0
