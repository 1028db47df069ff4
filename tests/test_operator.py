"""Tests for the multiplication operator, the mode projectors and the
lambda form of the partial inverse A_lambda^{-1} Q, which dense_oracle
keeps as an oracle."""

import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

from hillkdv.sequences import FourierSeq, SparseSeq, InvalidSequenceError
from hillkdv.operator import Potential, dirichlet_cos_coeffs
from hillkdv.reduction import StripViolationError

from dense_oracle import project, in_strip, apply_A_inv_Q, multiply, \
    NearSingularError

PI2 = math.pi ** 2


def q_at(q, x):
    ks = q.seq.nonzero_ks()
    return complex(sum(q.coeff(k) * np.exp(1j * math.pi * k * x) for k in ks))


def cos_pairing(q, k):
    """int_0^1 q(x) cos(k pi x) dx by adaptive quadrature."""
    def part(f):
        return quad(lambda x: f(q_at(q, x) * math.cos(k * math.pi * x)),
                    0.0, 1.0, limit=200, epsabs=1e-13)[0]
    return part(np.real) + 1j * part(np.imag)


def random_seq(rng, K):
    return FourierSeq(rng.normal(size=2 * K + 1)
                      + 1j * rng.normal(size=2 * K + 1))


# ---------------------------------------------------------------------------
# Potential container
# ---------------------------------------------------------------------------

def test_potential_regularity_range():
    with pytest.raises(InvalidSequenceError):
        Potential.zero(s=0.25)
    with pytest.raises(InvalidSequenceError):
        Potential.zero(s=-0.5)
    Potential.zero(s=-0.499)  # boundary inside is fine


def test_potential_zero_mean_enforced():
    with pytest.raises(InvalidSequenceError):
        Potential.from_even_pairs([(0, 1.0)])
    # a sequence with a mean reaches Potential's own check
    seq = FourierSeq.from_pairs([(0, 1.0), (2, .1), (-2, .1)], K=2)
    with pytest.raises(InvalidSequenceError, match="q_0"):
        Potential(seq)


def test_potential_odd_modes_forbidden():
    seq = FourierSeq.from_pairs([(1, 1.0), (-1, 1.0)], K=2)
    with pytest.raises(InvalidSequenceError):
        Potential(seq)


def test_single_mode_coefficients():
    q = Potential.single_mode(0.3)
    assert q.coeff(2) == 0.3
    assert q.coeff(-2) == 0.3
    assert q.coeff(0) == 0.0 and q.coeff(1) == 0.0
    assert q.is_real()
    assert q.norm_ws_inf() == pytest.approx(0.3)


def test_power_law_magnitudes():
    q = Potential.power_law(0.1, -0.5, n_max=8)
    for n in range(1, 9):
        assert abs(q.coeff(2 * n)) == pytest.approx(0.1 * (1 + n) ** -0.5)
    assert q.is_real()


def test_random_real_is_real_and_bounded():
    rng = np.random.default_rng(2)
    q = Potential.random_real(rng, n_max=12, sup=0.2, decay=-0.3)
    assert q.is_real()
    for n in range(1, 13):
        assert abs(q.coeff(2 * n)) <= 0.2 * (1 + n) ** -0.3 + 1e-14


def test_is_real_read_from_coefficients():
    # conjugate symmetry to 1e-14, whichever constructor built the potential
    c = np.zeros(9, dtype=complex)
    c[[2, 6]] = [0.05 + 0.03j, 0.05 - 0.03j]  # q_{-2}, q_2
    assert Potential(FourierSeq(c)).is_real()
    c[2] += 1e-13
    assert not Potential(FourierSeq(c)).is_real()
    assert Potential.zero().is_real()


def test_from_even_pairs_real_must_match_coefficients():
    sym = [(1, 0.05 - 0.03j), (-1, 0.05 + 0.03j)]
    asym = [(1, 0.05), (-1, 0.02)]
    assert Potential.from_even_pairs(sym, real=True).is_real()
    assert not Potential.from_even_pairs(asym, real=False).is_real()
    with pytest.raises(InvalidSequenceError, match="real=True"):
        Potential.from_even_pairs(asym, real=True)
    with pytest.raises(InvalidSequenceError, match="real=False"):
        Potential.from_even_pairs(sym, real=False)


# ---------------------------------------------------------------------------
# multiplication operator
# ---------------------------------------------------------------------------

def test_multiply_matches_convolution_oracle():
    rng = np.random.default_rng(7)
    q = Potential.from_even_pairs([(1, 0.5 + 0.1j), (-1, 0.5 - 0.1j),
                                   (3, 0.2j), (-3, -0.2j)])
    f = random_seq(rng, 8)
    g = multiply(q, f)
    # the support is the whole sumset {-6..6} + {-8..8}, nothing truncated
    np.testing.assert_array_equal(g.idx, np.arange(-14, 15))
    for n in range(-14, 15):
        want = sum(q.coeff(n - m) * f[m] for m in range(-8, 9))
        assert g[n] == pytest.approx(want, abs=1e-12)
    # a SparseSeq argument gives the same coefficients
    h = multiply(q, SparseSeq(f.ks(), f.coeffs))
    np.testing.assert_array_equal(h.coeffs, g.coeffs)


def test_multiply_single_mode_shifts():
    # q = c e_2 + c e_{-2} shifts a unit mass by +-2
    q = Potential.single_mode(0.4)
    f = FourierSeq.from_pairs([(3, 1.0)], K=6)
    g = multiply(q, f)
    assert g[5] == pytest.approx(0.4)
    assert g[1] == pytest.approx(0.4)
    assert sum(abs(g[k]) for k in range(-6, 7) if k not in (1, 5)) == 0


def test_multiply_keeps_full_sumset():
    # q e_3 = e_5 + e_1 even where a window |k| <= 4 used to cut e_5 off;
    # the support of q (modes +-2) is read from the Potential
    q = Potential.single_mode(1.0, n_max=3)
    np.testing.assert_array_equal(q.support.idx, [-2, 2])
    g = multiply(q, SparseSeq.accumulate([3], [1.0]))
    np.testing.assert_array_equal(g.idx, [1, 5])
    assert g[5] == 1.0 and g[1] == 1.0


# ---------------------------------------------------------------------------
# strip and partial inverse
# ---------------------------------------------------------------------------

def test_in_strip_boundaries():
    n = 3
    c = n * n * PI2
    assert in_strip(c, n)
    assert in_strip(c + 12 * n, n)
    assert in_strip(c - 12 * n, n)
    assert not in_strip(c + 12 * n + 1.0, n)
    assert in_strip(c + 5j * n + 1.0, n)  # only the real part is constrained


def test_A_inv_Q_is_left_inverse_on_complement():
    rng = np.random.default_rng(13)
    n = 4
    lam = n * n * PI2 + 2.5 + 0.3j
    f = random_seq(rng, 9)
    f = project(n, f, "Q")
    g = apply_A_inv_Q(lam, n, f)
    assert isinstance(g, SparseSeq)
    # (lambda - A) g should reproduce f off modes +-n
    ks = g.ks()
    np.testing.assert_array_equal(ks, f.ks()[np.abs(f.ks()) != n])
    back = (lam - (ks * math.pi) ** 2) * g.coeffs
    np.testing.assert_allclose(back, f.coeffs[f.index(ks)], atol=1e-10)


def test_A_inv_Q_zeroes_pn_modes():
    n = 2
    lam = n * n * PI2 + 1.0
    pairs = [(2, 5.0), (-2, 7.0), (1, 1.0)]
    # either container gives a SparseSeq without the indices +-n
    g = apply_A_inv_Q(lam, n, FourierSeq.from_pairs(pairs, K=4))
    assert isinstance(g, SparseSeq)
    np.testing.assert_array_equal(g.idx, [-4, -3, -1, 0, 1, 3, 4])
    assert g[2] == 0.0 and g[-2] == 0.0
    assert g[1] == pytest.approx(1.0 / (lam - PI2))
    h = apply_A_inv_Q(lam, n, SparseSeq.accumulate(*zip(*pairs)))
    assert isinstance(h, SparseSeq)
    np.testing.assert_array_equal(h.idx, [1])
    assert h[1] == g[1]


def test_A_inv_Q_strip_violation():
    with pytest.raises(StripViolationError):
        apply_A_inv_Q(1000.0, 1, FourierSeq.from_pairs([(0, 1.0)], K=2))


def test_A_inv_Q_near_singular():
    # n = 1, lambda = 0 lies in S_1 and makes the k = 0 divisor vanish
    with pytest.raises(NearSingularError):
        apply_A_inv_Q(0.0, 1, FourierSeq.from_pairs([(0, 1.0)], K=2))


def test_A_inv_Q_decay_with_symbol_distance():
    # far modes are damped like 1/(k pi)^2
    n = 2
    lam = n * n * PI2
    f = FourierSeq.from_pairs([(20, 1.0)], K=20)
    g = apply_A_inv_Q(lam, n, f)
    assert abs(g[20]) == pytest.approx(1.0 / abs(lam - (20 * math.pi) ** 2))
    assert abs(g[20]) < 3e-4


# ---------------------------------------------------------------------------
# projectors
# ---------------------------------------------------------------------------

def test_project_partition_of_identity():
    rng = np.random.default_rng(19)
    f = random_seq(rng, 7)
    for n in (1, 3, 7):
        p = project(n, f, "P")
        q = project(n, f, "Q")
        np.testing.assert_allclose(p.coeffs + q.coeffs, f.coeffs, atol=0)
        assert p[n] == f[n] and p[-n] == f[-n]
        assert q[n] == 0 and q[-n] == 0


def test_project_idempotent():
    rng = np.random.default_rng(23)
    f = random_seq(rng, 5)
    p = project(2, f, "P")
    np.testing.assert_array_equal(project(2, p, "P").coeffs, p.coeffs)


def test_project_invalid_which():
    with pytest.raises(ValueError):
        project(1, FourierSeq.from_pairs([(0, 1.0)], K=1), "R")


# ---------------------------------------------------------------------------
# Dirichlet cosine pairings
# ---------------------------------------------------------------------------

def test_dirichlet_cos_coeffs_single_mode():
    # q = 2c cos(2 pi x): q^cos_2 = (q_2 + q_{-2})/2 = c, all else 0
    c = 0.35
    q = Potential.single_mode(c)
    qc = dirichlet_cos_coeffs(q, 6)
    assert qc[2] == pytest.approx(c)
    assert qc[0] == 0.0
    others = [qc[k] for k in range(len(qc)) if k != 2]
    assert max(abs(v) for v in others) == 0.0


def test_dirichlet_cos_coeffs_odd_entries_vanish():
    # even q (q_{-m} = q_m): q(x) cos(k pi x) integrates to 0 over [0, 1]
    # for odd k
    q = Potential.power_law(0.1, -1.0, n_max=5)
    qc = dirichlet_cos_coeffs(q, 8)
    for k in range(1, len(qc), 2):
        assert qc[k] == 0.0


@pytest.mark.parametrize("real", [True, False])
def test_dirichlet_cos_coeffs_general_potential(real):
    # q^cos_k = int_0^1 q(x) cos(k pi x) dx; for odd k the closed form is
    # (i/pi) sum_m q_m (1/(m+k) + 1/(m-k)) over all modes m of q
    rng = np.random.default_rng(29)
    if real:
        qs = [Potential.random_real(rng, n_max=5)]
    else:
        vals = 0.1 * (rng.normal(size=10) + 1j * rng.normal(size=10))
        qs = [Potential.from_even_pairs(
            zip([1, 2, 3, 4, 5, -1, -2, -3, -4, -5], vals), n_max=5),
            # q_{-6} and q_{-2} without q_6 and q_2: m = 6 and 2 are found
            # from the negative side alone
            Potential.from_even_pairs([(-3, 0.05 - 0.02j), (-1, 0.03j),
                                       (2, 0.04)], n_max=3)]
    for q in qs:
        ms = q.seq.nonzero_ks()
        qc = dirichlet_cos_coeffs(q, 8)
        for k in range(len(qc)):
            assert abs(qc[k] - cos_pairing(q, k)) < 1e-11
            if k % 2:
                closed = 1j / math.pi * sum(
                    q.coeff(m) * (1 / (m + k) + 1 / (m - k)) for m in ms)
                assert abs(qc[k] - closed) < 1e-14


def test_full_spectrum_leaves_numpy_ma_unimported():
    # a fresh process: np.unique's sort-free path imports numpy.ma (numpy
    # 2.4), and the Dirichlet pairings of a complex q no longer call it
    code = ("import sys; from hillkdv.operator import Potential; "
            "from hillkdv.galerkin import full_spectrum; "
            "full_spectrum(Potential.from_even_pairs([(-2, 0.02 - 0.01j), "
            "(-1, 0.05 + 0.03j), (1, 0.01 - 0.04j)]), 32); "
            "print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_dirichlet_cos_coeffs_real_for_real_potential():
    rng = np.random.default_rng(31)
    q = Potential.random_real(rng, n_max=6)
    qc = dirichlet_cos_coeffs(q, 10)
    assert np.max(np.abs(np.asarray(qc).imag)) < 1e-14
