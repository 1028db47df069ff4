"""Tests for the Birkhoff-coordinate surrogates: actions, frequencies, the
linearized coordinate map, the free flow and torus membership."""

import math

import numpy as np
import pytest

from hillkdv.operator import Potential
from hillkdv.sequences import FourierSeq
from hillkdv.birkhoff import (
    BirkhoffState, actions_from_gaps, frequencies, linearized_birkhoff,
    inverse_linearized_birkhoff, flow, torus_membership,
)


def random_real_state(rng, N):
    z = rng.normal(size=2 * N + 1) + 1j * rng.normal(size=2 * N + 1)
    z = 0.5 * (z + np.conj(z[::-1]))
    z[N] = 0.0
    return BirkhoffState(z)


# ---------------------------------------------------------------------------
# state container
# ---------------------------------------------------------------------------

def test_state_indexing_and_zero_mode():
    st = BirkhoffState.from_pairs([(1, 1 + 2j), (-1, 1 - 2j)])
    assert st[1] == 1 + 2j and st[-1] == 1 - 2j
    assert st[0] == 0 and st[5] == 0
    with pytest.raises(ValueError):
        BirkhoffState.from_pairs([(0, 1.0)])


def test_real_state_actions_nonnegative():
    rng = np.random.default_rng(3)
    st = random_real_state(rng, 8)
    assert st.is_conj_symmetric(tol=1e-10)
    I = st.actions()
    assert np.max(np.abs(I.imag)) < 1e-14
    assert np.all(I.real >= 0)
    for n in range(1, 9):
        assert I[n - 1] == pytest.approx(abs(st[n]) ** 2)


# ---------------------------------------------------------------------------
# actions and frequencies
# ---------------------------------------------------------------------------

def test_actions_from_gaps_formula():
    gam = np.array([0.1, 0.05, 0.0])
    I = actions_from_gaps(gam)
    for n in (1, 2, 3):
        assert I[n - 1] == pytest.approx(gam[n - 1] ** 2 / (8 * n * math.pi))


def test_actions_from_gaps_complex_rejected():
    with pytest.raises(ValueError):
        actions_from_gaps(np.array([0.1 + 0.1j]))


def test_frequencies_free_and_correction():
    om = frequencies(np.zeros(4))
    for n in (1, 2, 3, 4):
        assert om[n - 1] == pytest.approx((2 * n * math.pi) ** 3)
    om2 = frequencies(np.array([0.5, 0.0]))
    assert om2[0] == pytest.approx((2 * math.pi) ** 3 - 3.0)
    with pytest.raises(ValueError):
        frequencies(np.array([-1.0]))


# ---------------------------------------------------------------------------
# linearized map
# ---------------------------------------------------------------------------

def test_linearized_map_scaling():
    q = Potential.from_even_pairs([(2, 0.4), (-2, 0.4)])
    st = linearized_birkhoff(q)
    assert st[2] == pytest.approx(0.4 / math.sqrt(4 * math.pi))
    assert st[1] == 0.0
    # odd half range; every mode equals the scalar formula bit for bit
    q = Potential(FourierSeq.from_pairs(
        [(-6, 0.1 - 0.2j), (-2, 0.3j), (2, -0.3j), (6, 0.1 + 0.2j)], K=7))
    st = linearized_birkhoff(q)
    assert st.half_range == 3
    for n in range(-3, 4):
        want = q.coeff(2 * n) / math.sqrt(2.0 * math.pi * abs(n)) if n else 0
        assert st[n] == want


def test_linearized_roundtrip():
    rng = np.random.default_rng(11)
    q = Potential.random_real(rng, n_max=9, sup=0.2)
    st = linearized_birkhoff(q)
    back = inverse_linearized_birkhoff(st)
    for k in range(-2 * 9, 2 * 9 + 1):
        assert back.coeff(k) == pytest.approx(q.coeff(k), abs=1e-13)


def test_inverse_linearized_matches_pair_loop():
    # oracle: the mode-by-mode construction the elementwise product replaced
    rng = np.random.default_rng(37)
    st = BirkhoffState(rng.normal(size=13) + 1j * rng.normal(size=13))
    pairs = [(n, st[n] * math.sqrt(2.0 * math.pi * abs(n)))
             for n in range(-6, 7) if n != 0]
    want = Potential.from_even_pairs(pairs, n_max=6)
    got = inverse_linearized_birkhoff(st)
    np.testing.assert_array_equal(got.seq.coeffs, want.seq.coeffs)
    assert got.is_real() == want.is_real()


# ---------------------------------------------------------------------------
# free flow
# ---------------------------------------------------------------------------

def test_flow_group_law():
    rng = np.random.default_rng(17)
    st = random_real_state(rng, 16)
    a = flow(flow(st, 0.3), 0.7)
    b = flow(st, 1.0)
    # phases omega_n t with omega_16 ~ 1e6 carry ~omega * eps rounding noise
    om_max = (2 * 16 * math.pi) ** 3
    tol = max(1e-12, 10 * om_max * np.finfo(float).eps
              * float(np.max(np.abs(st.coeffs))))
    assert np.max(np.abs(a.coeffs - b.coeffs)) < tol


def test_flow_preserves_actions_exactly():
    rng = np.random.default_rng(19)
    st = random_real_state(rng, 12)
    I0 = st.actions()
    I1 = flow(st, 12.34).actions()
    assert np.max(np.abs(I1 - I0)) < 1e-12


def test_flow_keeps_real_states_real():
    rng = np.random.default_rng(23)
    st = random_real_state(rng, 10)
    assert flow(st, 0.02).is_conj_symmetric(tol=1e-10)


def test_flow_identity_at_zero_time():
    rng = np.random.default_rng(29)
    st = random_real_state(rng, 6)
    np.testing.assert_allclose(flow(st, 0.0).coeffs, st.coeffs, atol=0)


def test_flow_phase_rate_matches_frequency():
    st = BirkhoffState.from_pairs([(1, 0.3), (-1, 0.3)], K=2)
    t = 1e-3
    out = flow(st, t)
    om = frequencies(np.array([0.09, 0.0]))[0]
    assert np.angle(out[1] / st[1]) == pytest.approx(om * t % (2 * np.pi),
                                                     abs=1e-12)


# ---------------------------------------------------------------------------
# torus membership and weak-star non-compactness
# ---------------------------------------------------------------------------

def test_torus_membership_accepts_flowed_states():
    rng = np.random.default_rng(31)
    st = random_real_state(rng, 8)
    assert torus_membership(st, flow(st, 5.0), tol=1e-10)


def test_torus_membership_rejects_amplitude_change():
    st = BirkhoffState.from_pairs([(1, 1.0), (-1, 1.0)])
    other = BirkhoffState.from_pairs([(1, 1.2), (-1, 1.2)])
    assert not torus_membership(st, other, tol=0.1)


def test_torus_membership_matches_mode_loop():
    # oracle: the mode-by-mode test the array comparison replaced, on
    # amplitudes near the tolerance and on unequal half ranges
    def loop(z_ref, z_test, tol):
        N = max(z_ref.half_range, z_test.half_range)
        return all(abs(abs(z_ref[k]) - abs(z_test[k]))
                   <= tol * max(1.0, abs(z_ref[k])) for k in range(-N, N + 1))

    rng = np.random.default_rng(41)
    for _ in range(200):
        ref = random_real_state(rng, 4)
        test = BirkhoffState(ref.extended(int(rng.integers(4, 6))).coeffs
                             * (1.0 + rng.normal(scale=1e-3)))
        tol = float(rng.uniform(0.0, 2e-3))
        assert torus_membership(ref, test, tol) == loop(ref, test, tol)
        assert torus_membership(test, ref, tol) == loop(test, ref, tol)


def test_torus_membership_rejects_nan():
    # every comparison with NaN is false, so a loop that returned False only
    # on ">" let NaN amplitudes through
    st = BirkhoffState.from_pairs([(1, 1.0), (-1, 1.0)])
    nan = BirkhoffState(np.array([np.nan, 0.0, np.nan]))
    assert not torus_membership(st, nan, tol=0.1)
    assert not torus_membership(nan, st, tol=0.1)
    with np.errstate(over="ignore", invalid="ignore"):
        far = flow(st, 1e308)  # omega t overflows, the phase is NaN
    assert np.isnan(far[1])
    assert not torus_membership(st, far, tol=1e-12)


def test_sign_flip_escapes_torus_in_the_limit():
    # z^{(j)} with the mass moving to ever-higher modes: all norms equal,
    # componentwise limit is 0, but no member lies on the torus of the limit
    limit = BirkhoffState.from_pairs([], K=1)
    family = [BirkhoffState.from_pairs([(j, 1.0), (-j, 1.0)], K=j + 1)
              for j in range(1, 9)]
    for st in family:
        assert not torus_membership(limit, st, tol=0.5)
        assert abs(st.actions()[st.half_range - 2]) == pytest.approx(1.0)
    # yet each fixed component converges to the limit's component
    for k in (1, 2, 3):
        assert abs(family[-1][k]) == 0.0
