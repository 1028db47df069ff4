"""Tests for the Birkhoff-coordinate surrogates: actions, frequencies, the
linearized coordinate map and the free flow."""

import dataclasses
import math

import numpy as np
import pytest

from hillkdv.operator import Potential
from hillkdv.sequences import FourierSeq, InvalidSequenceError
from hillkdv.birkhoff import (
    BirkhoffState, actions_from_gaps, frequencies, linearized_birkhoff, flow,
)
from hillkdv.galerkin import periodic_spectrum
from hillkdv.pde import evolve_kdv, potential_to_pde_state


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


def test_state_checks_zero_mode_at_construction():
    # the direct constructor and dataclasses.replace check z_0 = 0 as well as
    # from_pairs does
    with pytest.raises(InvalidSequenceError, match="z_0 != 0"):
        BirkhoffState(np.array([1.0, 2.0, 3.0]))
    st = BirkhoffState.from_pairs([(1, 1.0), (-1, 1.0)])
    with pytest.raises(InvalidSequenceError, match="z_0 != 0"):
        dataclasses.replace(st, coeffs=np.array([1.0, 2.0, 1.0]))
    assert dataclasses.replace(st, coeffs=2 * st.coeffs)[1] == 2.0


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


def kdv_rate_and_frequency(c, T=0.2, samples=400, dt=1.25e-4):
    """For u = 2c cos 2 pi x (single_mode(c, n_max=16) as a KdV state): the
    phase rate of u_1 under evolve_kdv, a least-squares fit over samples
    equal steps of [0, T], less the Airy rate (2 pi)^3, and omega_1 -
    (2 pi)^3 = -6 I_1 from the Galerkin gaps at K = 64."""
    q = Potential.single_mode(c, n_max=16)
    u = potential_to_pde_state(q)
    t, ts, z = 0.0, [0.0], [u[1]]
    for _ in range(samples):
        u = evolve_kdv(u, T / samples, dt)
        t += T / samples
        ts.append(t)
        z.append(u[1])
    ts = np.array(ts)
    # the phase less (2 pi)^3 t stays within 0.01 of 0, so needs no unwrap
    phase = np.angle(np.array(z) * np.exp(-1j * (2 * math.pi) ** 3 * ts))
    I = actions_from_gaps(periodic_spectrum(q, 64).gaps())
    return np.polyfit(ts, phase, 1)[0], -6.0 * I[0]


def test_frequency_matches_kdv_phase_rate():
    # omega_1 = (2 pi)^3 - 6 I_1 drops terms of order c^4: the KdV rate
    # misses it by at most 1e-3 c^4 (4.5e-8 and 1.1e-6 measured), and the
    # misses at c = 0.1 and 0.2 differ by a factor of 8 to 32 (2^4 = 16)
    diffs = []
    for c in (0.1, 0.2):
        rate, want = kdv_rate_and_frequency(c)
        diffs.append(abs(rate - want))
        assert diffs[-1] <= 1e-3 * c ** 4, c
    assert 8.0 <= diffs[1] / diffs[0] <= 32.0


# ---------------------------------------------------------------------------
# weak-star non-compactness
# ---------------------------------------------------------------------------

def test_sign_flip_escapes_torus_in_the_limit():
    # z^{(j)} with the mass moving to ever-higher modes: all norms equal,
    # componentwise limit is 0, but no member lies on the torus of the limit
    limit = BirkhoffState.from_pairs([], K=1)
    family = [BirkhoffState.from_pairs([(j, 1.0), (-j, 1.0)], K=j + 1)
              for j in range(1, 9)]
    for st in family:
        # |z_j| = 1 against the limit's 0: off the limit's torus
        a = np.abs(st.coeffs) - np.abs(limit.extended(st.half_range).coeffs)
        assert np.max(a) == 1.0
        assert abs(st.actions()[st.half_range - 2]) == pytest.approx(1.0)
    # yet each fixed component converges to the limit's component
    for k in (1, 2, 3):
        assert abs(family[-1][k]) == 0.0
