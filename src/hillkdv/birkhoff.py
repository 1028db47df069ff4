"""Birkhoff-coordinate surrogates: actions from gap lengths, asymptotic
frequencies, the linearized coordinate map at q = 0, the free flow, and the
torus membership test.

Actions and frequencies are asymptotic approximations (I_n ~ gamma_n^2/(8 n pi),
omega_n = (2 n pi)^3 - 6 I_n with the o(1) remainder dropped); every report
that carries them is tagged "asymptotic".
"""

from dataclasses import dataclass
import math

import numpy as np

from .pde import potential_to_pde_state
from .sequences import FourierSeq


@dataclass(frozen=True)
class BirkhoffState:
    """Mode amplitudes z_n, n in {-N..N} with z_0 = 0; z[i] holds n = i - N.
    Real states satisfy z_{-n} = conj(z_n), making every action
    I_n = z_n z_{-n} = |z_n|^2 nonnegative."""
    z: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=complex)
        if z.ndim != 1 or z.size % 2 == 0:
            raise ValueError("z must be 1-D with odd length")
        object.__setattr__(self, "z", z)

    @property
    def half_range(self):
        return (self.z.size - 1) // 2

    def __getitem__(self, n):
        N = self.half_range
        if -N <= n <= N:
            return complex(self.z[n + N])
        return 0j

    def is_real_state(self, tol=1e-10):
        return bool(np.max(np.abs(self.z - np.conj(self.z[::-1]))) <= tol)

    def actions(self):
        """I_n = z_n z_{-n} for n >= 1 (complex in general, real >= 0 for
        real states)."""
        N = self.half_range
        n = np.arange(1, N + 1)
        return self.z[N + n] * self.z[N - n]

    @staticmethod
    def from_pairs(pairs, N=None):
        pairs = [(int(n), complex(v)) for n, v in pairs]
        if any(n == 0 and v != 0 for n, v in pairs):
            raise ValueError("z_0 must vanish")
        if N is None:
            N = max((abs(n) for n, _ in pairs), default=1)
        z = np.zeros(2 * N + 1, dtype=complex)
        for n, v in pairs:
            z[n + N] = v
        return BirkhoffState(z)


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
    u = potential_to_pde_state(q).u_hat
    N = (u.size - 1) // 2
    d = np.sqrt(2.0 * math.pi * np.maximum(np.abs(np.arange(-N, N + 1)), 1))
    # componentwise division; numpy's complex / real multiplies by 1/d,
    # which adds a rounding
    return BirkhoffState(u.real / d + 1j * (u.imag / d))


def inverse_linearized_birkhoff(state, s=0.0, weight=None):
    """Inverse of the linearized map: q_{2n} = sqrt(2 pi |n|) z_n."""
    from .operator import Potential
    N = state.half_range
    pairs = []
    for n in range(-N, N + 1):
        if n == 0:
            continue
        v = state[n]
        if v != 0:
            pairs.append((n, v * math.sqrt(2.0 * math.pi * abs(n))))
    return Potential.from_even_pairs(pairs, n_max=max(N, 1), s=s, weight=weight)


def flow(state, t):
    """Free flow in Birkhoff coordinates: z_n(t) = e^{i omega_n t} z_n for
    n >= 1 and the conjugate phase on -n; frequencies are computed from the
    state's own actions, so every action is preserved exactly."""
    N = state.half_range
    I = np.abs(state.actions())  # |z_n z_{-n}|; = I_n for real states
    om = frequencies(I)
    z = state.z.copy()
    ph = np.exp(1j * om * t)
    n = np.arange(1, N + 1)
    z[N + n] *= ph
    z[N - n] *= np.conj(ph)
    return BirkhoffState(z)


def torus_membership(z_ref, z_test, tol):
    """True iff the amplitude profiles agree: ||z_test,k| - |z_ref,k|| <=
    tol * max(1, |z_ref,k|) for every k."""
    N = max(z_ref.half_range, z_test.half_range)
    for k in range(-N, N + 1):
        a, b = abs(z_ref[k]), abs(z_test[k])
        if abs(a - b) > tol * max(1.0, a):
            return False
    return True
