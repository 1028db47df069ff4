"""Pseudospectral reference solver for KdV on the circle and the Airy
(linear) flow, with conserved-quantity monitors and the isospectrality
oracle.

PDE states live on R/Z with modes e^{2 pi i k x}; the spectral modules use
R/2Z with modes e^{i pi k x}, so PDE mode k corresponds to spectral even mode
2k with the same coefficient value.  potential_to_pde_state /
pde_state_to_potential own that bridge.

Equation: u_t = -u_xxx + 6 u u_x.  The linear symbol on mode k is
i (2 pi k)^3; it is handled exactly by an integrating factor, and the
nonlinearity 3 (u^2)_x is evaluated pseudospectrally with 2/3-rule
de-aliasing, stepped with classical RK4.
"""

from dataclasses import dataclass, replace
import math

import numpy as np

from .operator import Potential
from .sequences import FourierSeq, bracket


class InstabilityError(ArithmeticError):
    pass


@dataclass(frozen=True)
class PDEState(FourierSeq):
    """KdV state at time t: coeffs[k + K] holds the coefficient of the mode
    e^{2 pi i k x}, |k| <= K; real fields are conjugate symmetric and KdV
    preserves the mean exactly."""
    t: float = 0.0


def potential_to_pde_state(q):
    """Spectral even mode 2k -> PDE mode k, identical coefficient."""
    K = max(q.half_range // 2, 1)
    return PDEState(q.seq.truncated(2 * K).coeffs[::2])


def pde_state_to_potential(u):
    """PDE mode k -> spectral even mode 2k, on at least one mode pair; the
    mean u_0 is dropped."""
    K = max(u.half_range, 1)
    c = np.zeros(4 * K + 1, dtype=complex)
    c[::2] = u.extended(K).coeffs
    c[2 * K] = 0.0
    return Potential(FourierSeq(c))


def _airy_symbol(ks):
    # u_t = -u_xxx  =>  d/dt u_k = i (2 pi k)^3 u_k
    return 1j * (2.0 * math.pi * ks) ** 3


def evolve_airy(u0, t):
    """Exact per-mode phases u_k -> e^{i (2 pi k)^3 t} u_k."""
    u = u0.coeffs * np.exp(_airy_symbol(u0.ks()) * t)
    return replace(u0, coeffs=u, t=u0.t + t)


def airy_distances(u0, ts, s):
    """Distances of the Airy flow from u0 at the times ts, over the modes
    1 <= k <= K: the weighted sup sup_k <k>^s |u_k(t) - u_k(0)| (which the
    flow keeps macroscopic) and the first component |u_1(t) - u_1(0)| (which
    goes to 0 with t).  Returns the two lists."""
    ns = np.arange(1, u0.half_range + 1)
    wfac = bracket(ns) ** s
    sups, comps = [], []
    for t in ts:
        diff = evolve_airy(u0, t).coeffs[u0.index(ns)] - u0.coeffs[u0.index(ns)]
        # abs(complex) bit for bit; np.abs can differ in the last place
        d = np.hypot(diff.real, diff.imag)
        sups.append(float(np.max(wfac * d)))
        comps.append(float(d[0]))
    return sups, comps


def _nonlinear(u, ks, mask):
    """N(u) for 6 u u_x = 3 (u^2)_x on the coefficients u, de-aliased by the
    2/3 rule."""
    v = np.where(mask, u, 0.0)
    n = v.size
    grid = np.fft.ifft(np.fft.ifftshift(v)) * n
    w_hat = np.fft.fftshift(np.fft.fft(grid * grid)) / n
    out = 3.0 * (2j * math.pi * ks) * w_hat
    return np.where(mask, out, 0.0)


def evolve_kdv(u0, t_end, dt):
    """Integrating-factor RK4 for u_t = -u_xxx + 6 u u_x, from u0.t to
    u0.t + t_end (t_end finite, and negative for backward evolution), in
    equal steps of at most dt.

    The linear phase is applied exactly; the mean is preserved exactly (the
    k = 0 symbol and nonlinear derivative both vanish there).  Raises
    InstabilityError if the coefficient sup grows by a factor above 1e6, and
    ValueError unless t_end is finite and dt > 0 finite.
    """
    if not math.isfinite(t_end):
        raise ValueError("t_end must be finite, got %r" % (t_end,))
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be finite and > 0, got %r" % (dt,))
    if t_end == 0.0:
        return u0
    K = u0.half_range
    ks = u0.ks()
    n_steps = max(1, int(math.ceil(abs(t_end) / dt - 1e-12)))
    h = t_end / n_steps
    L = _airy_symbol(ks)
    E = np.exp(L * h / 2.0)
    E2 = E * E
    cutoff = (2.0 * K) / 3.0
    mask = np.abs(ks) <= cutoff
    u = u0.coeffs.copy()
    sup0 = max(float(np.max(np.abs(u))), 1e-300)
    for _ in range(n_steps):
        k1 = _nonlinear(u, ks, mask)
        k2 = _nonlinear(E * (u + (h / 2.0) * k1), ks, mask)
        k3 = _nonlinear(E * u + (h / 2.0) * k2, ks, mask)
        k4 = _nonlinear(E2 * u + h * E * k3, ks, mask)
        u = E2 * u + (h / 6.0) * (E2 * k1 + 2.0 * E * (k2 + k3) + k4)
        if np.max(np.abs(u)) > 1e6 * sup0:
            raise InstabilityError("coefficient growth exceeded blow-up factor")
    return replace(u0, coeffs=u, t=u0.t + t_end)


def conserved(u):
    """(mean, L2, hamiltonian): mean = u_0, L2 = sum |u_k|^2 (equals
    the squared L^2([0,1]) norm by Parseval), H = int (1/2 u_x^2 + u^3) dx
    with the cubic term on an alias-free padded grid."""
    ks = u.ks()
    mean = u[0]
    l2 = float(np.sum(np.abs(u.coeffs) ** 2))
    quad = 0.5 * float(np.sum((2.0 * math.pi * ks) ** 2 * np.abs(u.coeffs) ** 2))
    # cubic term: u^3 has no aliasing on 4K + 5 >= 3K + 1 points, K u's range
    pad = np.fft.ifftshift(u.extended(2 * u.half_range + 2).coeffs)
    grid = np.fft.ifft(pad) * pad.size
    cubic = float(np.mean(grid ** 3).real)
    return mean, l2, quad + cubic


def isospectral_check(q0, t, K_spec, dt, K_pde):
    """Evolve q0 under KdV (step dt, on at least K_pde modes) and compare the
    periodic/Dirichlet spectra at both endpoints.  The periodic spectrum (and
    the gap lengths) should drift only by integrator error; the Dirichlet
    eigenvalues genuinely move and are reported as expected-to-move.
    """
    from .galerkin import full_spectrum
    state0 = potential_to_pde_state(q0)
    if K_pde > state0.half_range:
        state0 = state0.extended(K_pde)
    state1 = evolve_kdv(state0, t, dt=dt)
    q1 = pde_state_to_potential(state1)
    spec0 = full_spectrum(q0, K_spec)
    spec1 = full_spectrum(q1, K_spec)
    trust = spec0.trust  # spec1.trust too: both are solved at K_spec
    n = np.arange(1, trust + 1)
    lam_drift = np.maximum(
        np.abs(spec0.periodic[2 * n] - spec1.periodic[2 * n]),
        np.abs(spec0.periodic[2 * n - 1] - spec1.periodic[2 * n - 1]))
    gap_drift = np.abs(spec0.gaps() - spec1.gaps())
    mu_motion = np.abs(spec0.dirichlet[:trust] - spec1.dirichlet[:trust])
    c0 = conserved(state0)
    c1 = conserved(state1)
    return {
        "t": float(t),
        "trust": int(trust),
        "lambda_drift": lam_drift.real.tolist(),
        "max_lambda_drift": float(np.max(lam_drift.real, initial=0.0)),
        "gap_drift": gap_drift.real.tolist(),
        "max_gap_drift": float(np.max(gap_drift.real, initial=0.0)),
        "mu_motion_expected_to_move": mu_motion.real.tolist(),
        "hamiltonian_rel_drift": abs(c1[2] - c0[2]) / max(abs(c0[2]), 1e-300),
        "l2_rel_drift": abs(c1[1] - c0[1]) / max(abs(c0[1]), 1e-300),
        "final_state": state1,
    }
