"""Tests for the dense Galerkin spectra: free-operator exactness, truncation
refinement, an independent shooting oracle for the Dirichlet problem, Riesz
projectors, and the decay-transfer report."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, example, given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from hillkdv.operator import Potential
from hillkdv.reduction import ContractionFailureError
from hillkdv.sequences import FourierSeq, Weight
from hillkdv.galerkin import (
    trust_count, periodic_spectrum, dirichlet_spectrum, full_spectrum,
    riesz_projector, verify_decay, SeparationError,
    dirichlet_matrix, _pair_order, _parity_block, _real_block, _exp_basis,
    _gershgorin, _pair_basis,
)

from dense_oracle import LACUNARY_NS, lacunary_potential, lex_sort_loop, \
    periodic_matrix, free_projector, op_norm_2_to_inf, hermitian_spectrum, \
    hermitian_projector, parity_block_gather, dirichlet_matrix_gather, \
    complex_band_potential, kronig_penney_edges, shifted_comb_dirichlet

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
    assert np.max(np.abs(spec.gaps())) < 1e-8
    assert np.max(np.abs(spec.tau_minus_mu())) < 1e-8


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


def test_dirichlet_minimum_truncation_enforced():
    with pytest.raises(ValueError, match="K must be >= 16"):
        dirichlet_spectrum(Potential.zero(), 8)


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
    gam = full_spectrum(Potential.single_mode(0.05), 64).gaps()
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
# Dirac comb: a potential in Fl^inf whose coefficients do not decay
# ---------------------------------------------------------------------------

def test_dirac_comb_edges_converge_first_order():
    # q = c sum_j delta(x - j) - c cut at n_max, against the Kronig-Penney
    # edges: the worst edge error over n = 1, 2, 3, 5, 8 halves with each
    # doubling of n_max (8.4e-4 at 32 to 9.9e-5 at 256), and the gaps, which
    # tend to 2c and do not decay, lie within 0.03 / n_max of the exact ones
    c, ns = 0.5, (1, 2, 3, 5, 8)
    exact = [kronig_penney_edges(c, n) for n in ns]
    gaps = [hi - lo for lo, hi in exact]
    assert gaps == pytest.approx([0.97512, 0.99331, 0.99699, 0.99891,
                                  0.99957], abs=1e-5)
    assert all(a < b < 2 * c for a, b in zip(gaps, gaps[1:]))
    errs = []
    for n_max in (32, 64, 128, 256):
        spec = periodic_spectrum(Potential.power_law(c, 0.0, n_max),
                                 2 * n_max + 64)
        got = [(spec.lam_minus(n).real, spec.lam_plus(n).real) for n in ns]
        errs.append(max(abs(g - e) for pg, pe in zip(got, exact)
                        for g, e in zip(pg, pe)))
        assert 0.024 <= errs[-1] * n_max <= 0.028
        assert max(abs(hi - lo - gap) for (lo, hi), gap in zip(got, gaps)) \
            <= 0.03 / n_max
    rates = np.log2(np.array(errs[:-1]) / errs[1:])
    assert np.all((0.9 <= rates) & (rates <= 1.1))


def test_shifted_dirac_comb_dirichlet_converges_first_order():
    # q_{2n} = c (-1)^n cut at n_max, the comb moved to x = 1/2, against its
    # closed-form Dirichlet values: for odd n, whose eigenfunctions feel the
    # delta, the error halves with each doubling of n_max (worst 8.1e-4 at
    # 32 to 9.9e-5 at 256); for even n, whose eigenfunctions vanish at the
    # delta, it falls faster (1.2e-5 to 7.7e-7) and stays below every odd one
    c, ns = 0.5, (1, 2, 3, 5, 8)
    exact = [shifted_comb_dirichlet(c, n) for n in ns]
    odd = [i for i, n in enumerate(ns) if n % 2]
    errs = []
    for n_max in (32, 64, 128, 256):
        q = Potential.from_even_pairs(
            [(k, c * (-1) ** k) for k in range(-n_max, n_max + 1) if k],
            n_max=n_max)
        spec = dirichlet_spectrum(q, 2 * n_max + 64)
        errs.append([abs(spec.mu(n).real - e) for n, e in zip(ns, exact)])
        worst_odd = max(errs[-1][i] for i in odd)
        assert 0.024 <= worst_odd * n_max <= 0.028
        assert max(e for i, e in enumerate(errs[-1]) if i not in odd) \
            < min(errs[-1][i] for i in odd)
    errs = np.array(errs)[:, odd]
    rates = np.log2(errs[:-1] / errs[1:])
    assert np.all((0.9 <= rates) & (rates <= 1.1))


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


def off_block(n, K):
    """Entries of a (2K+1)x(2K+1) matrix outside the block of n's parity."""
    other = (np.arange(-K, K + 1) - n) % 2 == 1
    return other[:, None] | other[None, :]


@pytest.fixture
def eig_calls(monkeypatch):
    """(name, shape, dtype) of each np.linalg eigensolver call."""
    calls = []
    for name in ("eigh", "eigvalsh", "eigvals"):
        def record(a, _name=name, _solve=getattr(np.linalg, name)):
            calls.append((_name, a.shape, a.dtype))
            return _solve(a)
        monkeypatch.setattr(np.linalg, name, record)
    return calls


def test_riesz_criterion12_potential_matches_quadrature(eig_calls):
    # the lacunary potential of acceptance criterion 12; its pairs are well
    # separated, so 64 trapezoid nodes already meet the tolerance.  Its
    # Gershgorin radius sum_j |q_j| = 3.28 is below every n, so the discs
    # certify each pair: no eigensolver call at all
    q = lacunary_potential()
    for n in LACUNARY_NS:
        R, _ = riesz_projector(q, n, 180)
        assert np.all(R[off_block(n, 180)] == 0)
        assert np.max(np.abs(R - quadrature_projector(q, n, 180, pts=64))) <= 1e-12
    assert eig_calls == []


def test_riesz_other_block_eigenvalue_inside_raises(eig_calls):
    # q_{+-2} = 183, q_{+-4} = -212: the odd block's eigenvalues 90.506 and
    # 90.606 are the only ones within 3 of 9 pi^2 = 88.83, as n = 3 needs,
    # but the even block has 87.782 there too
    q = Potential.from_even_pairs([(1, 183.0), (-1, 183.0), (2, -212.0),
                                   (-2, -212.0)])
    with pytest.raises(SeparationError, match="other parity block"):
        riesz_projector(q, 3, 48)
    assert eig_calls == [("eigh", (48, 48), np.float64),
                         ("eigvalsh", (49, 49), np.float64)]
    # the verdict of the complex Hermitian block
    other = scipy.linalg.eigvalsh(_parity_block(q, 48, 0))
    assert np.any(np.abs(other - 9 * PI2) < 3)


@pytest.mark.parametrize("c, n", [(5.0, 1), (15.0, 2)])
def test_riesz_real_other_block_solved_none_inside(eig_calls, c, n):
    # q_{+-20} = c: the even (odd) block's disc around 0 (pi^2), radius 2c,
    # reaches the n = 1 (2) contour, but its eigenvalues stay near (k pi)^2,
    # outside, as for the complex Hermitian block; the pair moves by less
    # than 0.1.  Spectrum, projector and other block solve float64 only
    q, K = Potential.from_even_pairs([(10, c), (-10, c)]), 48
    periodic_spectrum(q, K)
    R, rep = riesz_projector(q, n, K)
    assert [(name, dtype) for name, _, dtype in eig_calls] == [
        ("eigvalsh", np.float64)] * 2 + [("eigh", np.float64),
                                         ("eigvalsh", np.float64)]
    other = scipy.linalg.eigvalsh(_parity_block(q, K, 1 - n % 2))
    assert np.all(np.abs(other - n * n * PI2) >= n + 1e-6 * n)
    assert np.max(np.abs(R - hermitian_projector(q, n, K))) <= 1e-12
    assert abs(rep["trace"] - 2.0) <= 1e-12


@st.composite
def real_potentials(draw, sup):
    # seeded phases and magnitudes, n_max <= 40, K in [16, 200]
    n_max = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q = Potential.random_real(rng, n_max, sup=draw(sup) / n_max)
    return q, draw(st.integers(16, 200))


class _AsComplex(Potential):
    """The same coefficients, sent down the complex (non-self-adjoint) path."""

    def is_real(self):
        return False


@settings(deadline=None, max_examples=40)
@given(case=real_potentials(st.floats(0.01, 40.0)))
def test_real_blocks_match_hermitian_oracle(case):
    # both parities; the oracle solves the complex blocks in the e_k basis
    q, K = case
    eps = np.finfo(float).eps
    vals = periodic_spectrum(q, K).periodic
    assert vals.dtype == np.complex128
    assert np.max(np.abs(vals - hermitian_spectrum(q, K))) <= \
        64 * eps * (K * math.pi) ** 2
    # the float64 Dirichlet matrix is the real part of the complex one that
    # the same coefficients build on the complex path, bit for bit
    D = dirichlet_matrix(q, K)
    as_complex = _AsComplex(q.seq)
    assert D.dtype == np.float64 and not as_complex.is_real()
    assert D.tobytes() == dirichlet_matrix(as_complex, K).real.copy().tobytes()


def test_undeclared_real_potential_takes_real_path():
    # a potential built straight from conjugate-symmetric coefficients is
    # real without saying so: its spectra are those of the same coefficients
    # built by from_even_pairs, bit for bit, and the periodic eigenvalues
    # have no imaginary rounding noise
    want = Potential.random_real(np.random.default_rng(31), 12, sup=0.05)
    q = Potential(FourierSeq(want.seq.coeffs.copy()))
    assert q.is_real()
    K = 32
    got, ref = full_spectrum(q, K), full_spectrum(want, K)
    assert got.periodic.tobytes() == ref.periodic.tobytes()
    assert got.dirichlet.tobytes() == ref.dirichlet.tobytes()
    assert np.all(got.periodic.imag == 0.0)


@settings(deadline=None, max_examples=40)
@given(case=real_potentials(st.floats(0.01, 0.3)), n=st.integers(1, 12))
@example(case=(Potential.random_real(np.random.default_rng(30), 16, 0.3 / 16),
               190), n=2)
def test_real_projector_matches_hermitian_oracle(case, n):
    # sum |q_j| <= 0.6 keeps every eigenvalue within 0.6 of a free one, so
    # the contour separates the pair.  Both projectors are exact for blocks
    # within about eps ||B|| of B, so they differ by up to that over the
    # distance sep from the pair to the rest of the block's spectrum: below
    # 1e-12 up to K ~ 130 at n = 2, up to 2.4e-12 near K = 200, as in the
    # example, where a 34-digit reference finds the error in the oracle
    q, K = case
    R, rep = riesz_projector(q, n, K)
    lam = scipy.linalg.eigvalsh(_parity_block(q, K, n % 2))
    inside = np.abs(lam - n * n * PI2) < n
    sep = np.min(np.abs(lam[~inside, None] - lam[inside]))
    tol = max(1e-12, 4 * np.finfo(float).eps * (K * math.pi) ** 2 / sep)
    assert np.all(R[off_block(n, K)] == 0)
    assert np.max(np.abs(R - hermitian_projector(q, n, K))) <= tol
    assert rep["idempotency_defect"] <= 1e-13


def oracle_tolerance(q, n, K):
    # test_real_projector_matches_hermitian_oracle's rule
    lam = scipy.linalg.eigvalsh(_parity_block(q, K, n % 2))
    inside = np.abs(lam - n * n * PI2) < n
    sep = np.min(np.abs(lam[~inside, None] - lam[inside]))
    return max(1e-12, 4 * np.finfo(float).eps * (K * math.pi) ** 2 / sep)


@settings(deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=real_potentials(st.just(1.0)), n=st.integers(1, 12),
       frac=st.floats(0.0, 0.999))
def test_certified_projector_matches_hermitian_oracle(eig_calls, case, n, frac):
    # q scaled to the Gershgorin radius rho = sum_j |q_j| = frac n < n - 1e-6
    # max(1, n): the discs certify the pair and no eigensolver runs.  With
    # ||E||_2 <= rho and g the least |(k^2 - n^2)| pi^2 in n's block, the
    # map's first step is at most a = sqrt 2 rho / g in Frobenius norm and
    # it contracts by theta = 2 rho (1 + 2 a) / g on the ball of radius 2 a,
    # so a step is below eps after 1 + log(eps / a) / log(theta) steps, one
    # more for the rounding of the step itself
    base, K = case
    coeffs = base.seq.coeffs
    q = Potential(FourierSeq(coeffs * (frac * n / np.sum(np.abs(coeffs)))))
    eig_calls.clear()
    R, rep = riesz_projector(q, n, K)
    assert eig_calls == []
    assert _gershgorin(q, n, np.arange(-K, K + 1)) == 2
    assert np.all(R[off_block(n, K)] == 0)
    tol = oracle_tolerance(q, n, K)
    assert np.max(np.abs(R - hermitian_projector(q, n, K))) <= tol
    assert rep["idempotency_defect"] <= 1e-13
    k = np.arange(n % 2, K + 1, 2)
    g = np.min(np.abs(k[k != n] ** 2 - n * n)) * PI2
    rho, eps = np.sum(np.abs(q.seq.coeffs)), np.finfo(float).eps
    a = math.sqrt(2) * rho / g
    theta = 2 * rho * (1 + 2 * a) / g
    assert theta <= 0.5
    _, steps = _pair_basis(_real_block(q, K, n % 2), n, K)
    bound = 1 if a <= eps else 2 + math.ceil(math.log(eps / a) / math.log(theta))
    assert steps <= bound


def eigh_projector(q, n, K):
    """riesz_projector(q, n, K) as computed by eigh of the real block alone,
    the path of every input whose discs do not certify the pair."""
    lam, Z = np.linalg.eigh(_real_block(q, K, n % 2))
    Z1 = _exp_basis(Z[:, np.abs(lam - n * n * PI2) < n], n % 2)
    W = Z1.conj().T
    R = np.zeros((2 * K + 1, 2 * K + 1), dtype=complex)
    R[(K + n) % 2::2, (K + n) % 2::2] = Z1 @ W
    defect = np.linalg.norm((W @ Z1 - np.eye(2)) @ W, 2)
    return R, {"quad_points": 0, "idempotency_defect": float(defect),
               "trace": complex(np.trace(R))}


@pytest.mark.parametrize("n", [1, 2])
def test_certificate_edge_single_mode(eig_calls, n):
    # single_mode(c) has rho = 2c: just below n the discs certify the pair
    # and the fixed point matches the oracle; just above n (and within the
    # 1e-6 n margin below it) one eigh gives the projector, bit for bit
    K = 48
    q = Potential.single_mode(0.5 * n * (1 - 1e-5))
    R, rep = riesz_projector(q, n, K)
    assert eig_calls == []
    tol = oracle_tolerance(q, n, K)
    assert np.max(np.abs(R - hermitian_projector(q, n, K))) <= tol
    assert rep["idempotency_defect"] <= 1e-13
    for c in (0.5 * n * (1 + 1e-5), 0.5 * n * (1 - 5e-7)):
        q = Potential.single_mode(c)
        eig_calls.clear()
        R, rep = riesz_projector(q, n, K)
        assert [(name, dtype) for name, _, dtype in eig_calls] == [
            ("eigh", np.float64)]
        want, info = eigh_projector(q, n, K)
        assert R.tobytes() == want.tobytes() and rep == info


def test_pair_basis_raises_where_the_map_does_not_contract():
    # single_mode(60) at n = 1 is far outside the certificate (rho = 120 > 1):
    # the fixed-point map's steps stop shrinking before they reach rounding
    with pytest.raises(ContractionFailureError, match="did not shrink"):
        _pair_basis(_real_block(Potential.single_mode(60.0), 48, 1), 1, 48)


def matrix_potentials(seed):
    # real and complex, band-limited inside and far outside the blocks
    rng = np.random.default_rng(seed)
    return [Potential.random_real(rng, 40, sup=0.5),
            Potential.power_law(0.1, -0.25, 300, s=-0.25, rng=rng),
            complex_band_potential(seed), complex_band_potential(seed, 300),
            Potential.single_mode(0.05), Potential.zero()]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("K", [16, 17, 31, 64, 255])
def test_strided_matrices_equal_index_gathers(seed, K):
    # the strided Toeplitz and Hankel views give the gathered matrices
    # byte for byte, dtype and shape included
    for q in matrix_potentials(seed):
        pairs = [(_parity_block(q, K, p), parity_block_gather(q, K, p))
                 for p in (0, 1)]
        pairs.append((dirichlet_matrix(q, K), dirichlet_matrix_gather(q, K)))
        for got, want in pairs:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@st.composite
def small_potentials(draw, real=False):
    # |q_{2m}| <= 0.1, real (q_{-2m} = conj q_{2m}) or, unless real is set,
    # complex
    n_max = draw(st.integers(1, 4))
    part = st.floats(-0.07, 0.07)
    pos = [complex(draw(part), draw(part)) for _ in range(n_max)]
    if real or draw(st.booleans()):
        neg = [np.conj(v) for v in pos]
    else:
        neg = [complex(draw(part), draw(part)) for _ in range(n_max)]
    pairs = [(m, v) for m, v in enumerate(pos, 1)]
    pairs += [(-m, v) for m, v in enumerate(neg, 1)]
    return Potential.from_even_pairs(pairs, n_max=n_max)


@settings(deadline=None, max_examples=25)
@given(q=small_potentials(real=True), n=st.integers(1, 4))
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
    full = _pair_order(full.astype(complex), K * K * PI2)
    vals = periodic_spectrum(q, K).periodic
    eps = np.finfo(float).eps
    assert np.max(np.abs(vals - full)) <= 200 * eps * np.linalg.norm(M, 2) * kappa


@st.composite
def pair_structured_values(draw):
    # one leading value, then pairs whose Re parts are 1e-8 T apart from
    # every other pair's, far past tol = 1e-10 T.  Within a pair the Re parts
    # sit on a tol / 2 grid (k and k + 2 on the tolerance, k + 3 past it),
    # moved by up to 2 ulps to either side of it, and the Im parts are apart
    # by rounding only (64 eps T) or more; the values come in shuffled.  At
    # x0 = 4 T the Re parts, not T, set the tolerances' scale
    T = draw(st.sampled_from([1.0, 3.7, 1e6]))
    x0 = draw(st.sampled_from([0.0, T / 2, 4 * T]))
    re = [x0 - 1e-8 * T]
    for j in range(draw(st.integers(0, 12))):
        for _ in range(2):
            x = x0 + j * 1e-8 * T + draw(st.integers(0, 3)) * 5e-11 * T
            re.append(x + draw(st.integers(-2, 2)) * np.spacing(x))
    im = [draw(st.sampled_from([0.0, 1.0, 32.0, 64.0, 65.0, 1e3, 1e12]))
          * draw(st.sampled_from([1.0, -1.0])) * np.finfo(float).eps * T
          for _ in re]
    vals = np.array(re) + 1j * np.array(im)
    return vals[draw(st.permutations(range(vals.size)))], T


_NEAR_TIE = Potential.from_even_pairs([(1, 0.046875j), (-1, -0.0625j)], n_max=1)


@settings(deadline=None, max_examples=300)
@given(case=pair_structured_values())
@example(case=(np.linalg.eigvals(periodic_matrix(_NEAR_TIE, 32)), 32 * 32 * PI2))
@example(case=(np.array([-1e-8, 1e-3j, 1e-10]), 1.0))
def test_lex_sort_matches_loop(case):
    # where every tie group is one pair at positions (2n - 1, 2n), the
    # pairwise rule gives the lexicographic loop's permutation.  The first
    # example is the near tie of test_periodic_spectrum_matches_full_matrix,
    # the second a pair whose Re parts are exactly tol apart
    vals, tie_scale = case
    assert _pair_order(vals, tie_scale).tobytes() == \
        lex_sort_loop(vals, tie_scale).tobytes()


def test_pair_order_on_a_tie_chain():
    # three Re parts within tol = 1e-10 of the first: the lexicographic
    # order sorts all three by Im, the pairwise rule keeps the leading value
    # and puts only the pair at positions (1, 2) in Im order
    vals = np.array([1e-10 - 1j, 0.0 + 1j, 5e-11 + 0j])
    got = _pair_order(vals, 1.0)
    assert got.tobytes() == np.array([0.0 + 1j, 1e-10 - 1j, 5e-11 + 0j]).tobytes()
    assert got.tobytes() != lex_sort_loop(vals, 1.0).tobytes()


def test_riesz_nearly_degenerate_real_pair():
    # gamma_4 of q = 0.1 cos(2 pi x) is O(c^4): eigh's vectors inside the
    # pair are arbitrary, their span and so the projector are not
    q, n, K = Potential.single_mode(0.05), 4, 48
    R, rep = riesz_projector(q, n, K)
    M = periodic_matrix(q, K)
    assert abs(rep["trace"] - 2.0) <= 1e-12
    assert rep["idempotency_defect"] <= 1e-12
    assert np.max(np.abs(R - quadrature_projector(q, n, K))) <= 1e-12
    assert np.max(np.abs(R @ M - M @ R)) <= 1e-10 * np.max(np.abs(M))


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
    # c = 60 leaves no eigenvalue inside the contour |lambda - pi^2| = 1,
    # at the c where |lambda_1^+ - pi^2| = 1 an eigenvalue lies on it, and
    # a complex q is refused before any solve
    with pytest.raises(SeparationError, match="encloses 0 eigenvalues"):
        riesz_projector(Potential.single_mode(60.0), 1, 48)
    c = brentq(lambda c: abs(periodic_spectrum(Potential.single_mode(c), 32)
                             .lam_plus(1) - PI2) - 1, 0.1, 3, xtol=1e-15)
    with pytest.raises(SeparationError, match="eigenvalue on the contour"):
        riesz_projector(Potential.single_mode(c), 1, 32)
    with pytest.raises(ValueError, match="takes a real potential"):
        riesz_projector(complex_band_potential(), 2, 32)


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
    rep = verify_decay(q, [64, 96, 128])
    assert rep["K_list"] == [64, 96, 128]
    assert len(rep["sup_gamma"]) == 3
    assert rep["gamma_stabilization"] < 0.05
    assert rep["tail_bound"]["holds"]


def test_verify_decay_weighted():
    rng = np.random.default_rng(23)
    q = Potential.power_law(0.02, -2.0, n_max=8, rng=rng, weight=Weight(0.5))
    rep = verify_decay(q, [64, 128])
    assert rep["tail_bound"]["holds"]
    assert rep["sup_gamma"][-1] >= 0.0
