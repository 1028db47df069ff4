"""Birkhoff-coordinate surrogates: actions from gap lengths, asymptotic
frequencies, the linearized coordinate map at q = 0, and the free flow, which
turns each z_n on its invariant torus and so keeps every |z_n|.

Actions and frequencies are asymptotic approximations (I_n ~ gamma_n^2/(8 n pi),
omega_n = (2 n pi)^3 - 6 I_n with the o(1) remainder dropped); every report
that carries them is tagged "asymptotic".
"""

from dataclasses import replace
import math

import numpy as np

from .pde import potential_to_pde_state
from .sequences import FourierSeq, InvalidSequenceError


class BirkhoffState(FourierSeq):
    """Mode amplitudes z_n = coeffs[n + N], |n| <= N, with z_0 = 0 (checked
    at construction).  Real states satisfy z_{-n} = conj(z_n), making every
    action I_n = z_n z_{-n} = |z_n|^2 nonnegative."""

    def __post_init__(self):
        super().__post_init__()
        if self.coeffs[self.half_range] != 0:
            raise InvalidSequenceError("Birkhoff state with z_0 != 0")

    def actions(self):
        """I_n = z_n z_{-n} for n >= 1 (complex in general, real >= 0 for
        real states)."""
        N = self.half_range
        n = np.arange(1, N + 1)
        return self.coeffs[N + n] * self.coeffs[N - n]


def actions_from_gaps(gamma):
    """Asymptotic actions I_n = gamma_n^2 / (8 n pi) from real gap lengths
    gamma = (gamma_1, gamma_2, ...).  Complex gaps (an imaginary part above
    1e-9) are unsupported."""
    gamma = np.asarray(gamma)
    if np.iscomplexobj(gamma) and np.max(np.abs(gamma.imag), initial=0.0) > 1e-9:
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

