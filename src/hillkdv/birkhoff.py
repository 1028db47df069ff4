"""Birkhoff-coordinate surrogates: actions from gap lengths, asymptotic
frequencies, the linearized coordinate map at q = 0, the free flow, and the
torus membership test.

Actions and frequencies are asymptotic approximations (I_n ~ gamma_n^2/(8 n pi),
omega_n = (2 n pi)^3 - 6 I_n with the o(1) remainder dropped); every report
that carries them is tagged "asymptotic".
"""

from dataclasses import dataclass, replace
import math

import numpy as np

from .pde import PDEState, potential_to_pde_state, pde_state_to_potential
from .sequences import FourierSeq


@dataclass(frozen=True)
class BirkhoffState(FourierSeq):
    """Mode amplitudes z_n = coeffs[n + N], |n| <= N, with z_0 = 0
    (zero_mean, checked by validate()).  Real states satisfy
    z_{-n} = conj(z_n), making every action I_n = z_n z_{-n} = |z_n|^2
    nonnegative."""
    zero_mean: bool = True

    def actions(self):
        """I_n = z_n z_{-n} for n >= 1 (complex in general, real >= 0 for
        real states)."""
        N = self.half_range
        n = np.arange(1, N + 1)
        return self.coeffs[N + n] * self.coeffs[N - n]


def actions_from_gaps(gamma, tol=1e-9):
    """Asymptotic actions I_n = gamma_n^2 / (8 n pi) from real gap lengths
    gamma = (gamma_1, gamma_2, ...).  Complex gaps are unsupported."""
    gamma = np.asarray(gamma)
    if np.iscomplexobj(gamma) and np.max(np.abs(gamma.imag), initial=0.0) > tol:
        raise ValueError("complex gap lengths unsupported (real potentials only)")
    g = gamma.real.astype(float)
    n = np.arange(1, g.size + 1)
    return g ** 2 / (8.0 * n * math.pi)


def frequencies(I):
    """Asymptotic KdV frequencies omega_n = (2 n pi)^3 - 6 I_n."""
    I = np.asarray(I, dtype=float)
    if np.any(I < -1e-12):
        raise ValueError("actions must be nonnegative")
    n = np.arange(1, I.size + 1)
    return (2.0 * n * math.pi) ** 3 - 6.0 * I


def linearized_birkhoff(q):
    """Jacobian of the coordinate map at q = 0: z_n = q_{2n} / sqrt(2 pi max(|n|,1))."""
    u = potential_to_pde_state(q)
    d = np.sqrt(2.0 * math.pi * np.maximum(np.abs(u.ks()), 1))
    # componentwise division; numpy's complex / real multiplies by 1/d,
    # which adds a rounding
    return BirkhoffState(u.coeffs.real / d + 1j * (u.coeffs.imag / d))


def inverse_linearized_birkhoff(state, s=0.0, weight=None):
    """Inverse of the linearized map: q_{2n} = sqrt(2 pi |n|) z_n."""
    d = np.sqrt(2.0 * math.pi * np.abs(state.ks()))
    z = state.coeffs
    return pde_state_to_potential(PDEState(z.real * d + 1j * (z.imag * d)),
                                  s=s, weight=weight)


def flow(state, t):
    """Free flow in Birkhoff coordinates: z_n(t) = e^{i omega_n t} z_n for
    n >= 1 and the conjugate phase on -n; frequencies are computed from the
    state's own actions, so every action is preserved exactly."""
    N = state.half_range
    I = np.abs(state.actions())  # |z_n z_{-n}|; = I_n for real states
    om = frequencies(I)
    z = state.coeffs.copy()
    ph = np.exp(1j * om * t)
    n = np.arange(1, N + 1)
    z[N + n] *= ph
    z[N - n] *= np.conj(ph)
    return replace(state, coeffs=z)


def torus_membership(z_ref, z_test, tol):
    """True iff the amplitude profiles agree: ||z_test,k| - |z_ref,k|| <=
    tol * max(1, |z_ref,k|) for every k.  A NaN amplitude is not a member."""
    N = max(z_ref.half_range, z_test.half_range)
    a = np.abs(z_ref.extended(N).coeffs)
    b = np.abs(z_test.extended(N).coeffs)
    return bool(np.all(np.abs(a - b) <= tol * np.maximum(1.0, a)))
