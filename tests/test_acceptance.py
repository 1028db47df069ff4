"""Acceptance suite: twelve end-to-end criteria with quantitative anchors.

Each test prints a single PASS line when its assertions hold; tolerances and
ranges are stated inline.  The dense Galerkin solver acts as the oracle
wherever an independent reference is required.
"""

import math
import time

import numpy as np
import pytest

from hillkdv.sequences import FourierSeq, norm as seq_norm, hilbert_sum
from hillkdv.operator import Potential
from hillkdv.galerkin import (
    full_spectrum, periodic_spectrum, riesz_projector, verify_decay,
)
from hillkdv.reduction import (
    make_context, coefficients, find_roots,
    alpha_fixed_point, adapted_coefficients, isolated_mode_sandwich,
)
from hillkdv.birkhoff import BirkhoffState, flow
from hillkdv.pde import (
    potential_to_pde_state, airy_distances, evolve_airy, evolve_kdv,
    isospectral_check,
)

from dense_oracle import LACUNARY_C, LACUNARY_NS, lacunary_potential, \
    smooth_real_potential, sample_T_norm, free_projector, op_norm_2_to_inf, \
    weakstar_distance

PI2 = math.pi ** 2


# ---------------------------------------------------------------------------
# 1. free-spectrum exactness
# ---------------------------------------------------------------------------

def test_criterion_01_free_spectrum_exact():
    t0 = time.time()
    spec = full_spectrum(Potential.zero(), 64)
    assert abs(spec.periodic[0]) < 1e-9
    for n in range(1, 31):
        ref = n * n * PI2
        assert abs(spec.lam_minus(n) - ref) < 1e-9 * ref
        assert abs(spec.lam_plus(n) - ref) < 1e-9 * ref
        assert abs(spec.mu(n) - ref) < 1e-9 * ref
    elapsed = time.time() - t0
    assert elapsed < 5.0
    print("criterion 1 (free-spectrum exactness): PASS (%.2fs)" % elapsed)


# ---------------------------------------------------------------------------
# 2. oracle equivalence of the reduced roots
# ---------------------------------------------------------------------------

def test_criterion_02_oracle_equivalence():
    t0 = time.time()
    q = smooth_real_potential()
    assert q.norm_ws_inf() <= 0.2
    ctx = make_context(q)
    spec = full_spectrum(q, 128)
    assert ctx.n_s + 20 <= spec.trust
    for n in range(ctx.n_s, ctx.n_s + 21):
        res = find_roots(ctx, n)
        lm, lp = spec.lam_minus(n), spec.lam_plus(n)
        tol = 1e-6 * n * n * PI2
        assert abs(res.xi_1 - lm) <= tol
        assert abs(res.xi_2 - lp) <= tol
        gam = abs(lp - lm)
        assert abs(res.gap_estimate - gam) <= 1e-6 * max(gam, 1e-300)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    print("criterion 2 (oracle equivalence): PASS (%.1fs)" % elapsed)


# ---------------------------------------------------------------------------
# 3. contraction certificate / 4. coefficient asymptotics
# ---------------------------------------------------------------------------

def _grid_contexts():
    q = smooth_real_potential()
    ctx = make_context(q)
    ns = sorted({ctx.n_s, ctx.n_s + 1, ctx.n_s + 2, ctx.n_s + 5, 10, 15,
                 20, 30})
    lams = {n: [n * n * PI2 + d for d in
                (-9.0 * n, -3.0 * n, 0.0, 3.0 * n, 9.0 * n)] for n in ns}
    return q, ctx, ns, lams


def test_criterion_03_contraction_certificate():
    q, ctx, ns, lams = _grid_contexts()
    violations = 0
    for n in ns:
        for lam in lams[n]:
            est = sample_T_norm(ctx, n, lam)
            if est > 0.5:
                violations += 1
    assert violations == 0
    print("criterion 3 (contraction certificate): PASS "
          "(%d (n, lambda) pairs)" % sum(len(v) for v in lams.values()))


def test_criterion_04_coefficient_asymptotics():
    q, ctx, ns, lams = _grid_contexts()
    qn = q.norm_ws_inf()
    violations = 0
    checked = 0
    for n in ns:
        for lam in lams[n]:
            est = sample_T_norm(ctx, n, lam)
            c = coefficients(ctx, n, lam)
            bound = 2.0 * est * qn
            wfac = (1.0 + 2 * n) ** ctx.s  # trivial weight, s = 0
            if wfac * abs(c.b_n - q.coeff(2 * n)) > bound:
                violations += 1
            if wfac * abs(c.b_neg_n - q.coeff(-2 * n)) > bound:
                violations += 1
            checked += 2
    assert violations == 0
    print("criterion 4 (coefficient asymptotics): PASS "
          "(%d bounds checked)" % checked)


# ---------------------------------------------------------------------------
# 5. fixed point and adapted map
# ---------------------------------------------------------------------------

def test_criterion_05_fixed_point_and_adapted_map():
    t0 = time.time()
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        q = Potential.random_real(rng, 8, sup=0.05, s=0.0)
        ctx = make_context(q)
        # alpha residual at the contraction threshold
        n = ctx.N_ms
        alpha = alpha_fixed_point(ctx, n)
        c = coefficients(ctx, n, alpha)
        assert abs(alpha - n * n * PI2 - c.a_n) < 1e-9 * n * n * PI2
        # adapted map: near-identity and two-sided norm bounds
        r = adapted_coefficients(ctx, n_max=ctx.M_ms)
        diff = FourierSeq(r.coeffs.copy())
        for k in q.seq.nonzero_ks():
            diff.coeffs[diff.index(int(k))] -= q.coeff(int(k))
        qn = q.norm_ws_inf()
        rn = seq_norm(r, None, 0.0, math.inf)
        assert seq_norm(diff, None, 0.0, math.inf) <= ctx.m / 16.0
        assert 0.5 * qn <= rn <= 2.0 * qn
    print("criterion 5 (fixed point / adapted map): PASS "
          "(10 potentials, %.1fs)" % (time.time() - t0))


# ---------------------------------------------------------------------------
# 6. gap sandwich at high modes
# ---------------------------------------------------------------------------

def test_criterion_06_gap_sandwich():
    t0 = time.time()
    violations = 0
    checked = 0
    for seed, offset in ((0, 0), (1, 1)):
        # q_{+-2n} = 0.01 at n = M_ms + offset, M_ms of the base alone
        ctx, res, rep = isolated_mode_sandwich(
            np.random.default_rng(200 + seed), (offset,))
        assert rep["n"] == ctx.M_ms + offset
        assert rep["condition_met"]
        checked += 1
        if not rep["holds"]:
            violations += 1
    assert checked == 2
    assert violations == 0
    print("criterion 6 (gap sandwich): PASS (%d modes >= M_ms, %.1fs)"
          % (checked, time.time() - t0))


# ---------------------------------------------------------------------------
# 7. decay verification for the power-law family
# ---------------------------------------------------------------------------

def test_criterion_07_decay_verification():
    s = -0.25
    q = Potential.power_law(0.1, s, n_max=128, s=s)
    rep = verify_decay(q, [128, 256])
    assert rep["gamma_stabilization"] < 0.01
    assert rep["taumu_stabilization"] < 0.01
    qn = q.norm_ws_inf()
    assert rep["sup_gamma"][-1] <= 10.0 * qn
    assert rep["sup_taumu"][-1] <= 10.0 * qn
    assert rep["tail_bound"]["holds"]
    print("criterion 7 (decay verification): PASS "
          "(stabilization %.2e)" % rep["gamma_stabilization"])


# ---------------------------------------------------------------------------
# 8. isospectrality oracle
# ---------------------------------------------------------------------------

def test_criterion_08_isospectrality():
    t0 = time.time()
    # q0(x) = 0.1 cos(2 pi x) = 2c cos(2 pi x) with c = 0.05
    q0 = Potential.single_mode(0.05)
    rep = isospectral_check(q0, 0.01, 64, dt=2.5e-4, K_pde=64)
    assert rep["trust"] >= 10
    assert max(rep["lambda_drift"][:10]) < 1e-6
    assert rep["hamiltonian_rel_drift"] < 1e-6
    assert rep["l2_rel_drift"] < 1e-6
    # backward-in-time recovery
    u1 = rep["final_state"]
    u2 = evolve_kdv(u1, -0.01, dt=2.5e-4)
    u0 = potential_to_pde_state(q0)
    pad = u2.half_range - u0.half_range
    ref = np.pad(u0.coeffs, (pad, pad))
    assert np.max(np.abs(u2.coeffs - ref)) < 1e-8
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print("criterion 8 (isospectrality oracle): PASS (%.1fs)" % elapsed)


# ---------------------------------------------------------------------------
# 9. flow algebra
# ---------------------------------------------------------------------------

def test_criterion_09_flow_algebra():
    # time scale note: omega_64 ~ 6.5e7, so t is chosen small enough that the
    # composed phases stay below the 1e-12 rounding budget while high modes
    # still rotate by ~0.1 rad
    rng = np.random.default_rng(9)
    for _ in range(5):
        z = rng.normal(size=129) + 1j * rng.normal(size=129)
        z = 0.5 * (z + np.conj(z[::-1]))
        z[64] = 0.0
        st = BirkhoffState(z)
        t1, t2 = 3e-9, 7e-9
        a = flow(flow(st, t1), t2)
        b = flow(st, t1 + t2)
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-12
        # action invariance to machine epsilon
        I0 = st.actions()
        I1 = flow(st, 1.0).actions()
        assert np.max(np.abs(I1 - I0)) <= 64 * np.finfo(float).eps \
            * max(1.0, float(np.max(np.abs(I0))))
    print("criterion 9 (flow algebra): PASS (5 states, 64 modes)")


# ---------------------------------------------------------------------------
# 10. Airy norm-vs-weak* demo
# ---------------------------------------------------------------------------

def test_criterion_10_airy_demo():
    s = -0.25
    n_max = 256
    q = Potential.power_law(0.1, -s, n_max, s=s)  # <n>^s |q_{2n}| = 0.1
    u0 = potential_to_pde_state(q)
    ts = [10.0 ** e for e in np.linspace(-6, -3, 12)]
    sups, comps = airy_distances(u0, ts, s)
    # sup-norm distance stays macroscopic at every sampled time
    assert min(sups) >= 0.1
    # while the weak* distance d = max_k 2^{-|k|} |u_k(t) - u_k(0)| goes to
    # 0 with t, led by max_k 2^{-k} (2 pi k)^3 t |u_k(0)|
    ds = [weakstar_distance(evolve_airy(u0, t), u0) for t in ts]
    ks = np.arange(1, u0.half_range + 1)
    lead = np.max(0.5 ** ks * (2 * math.pi * ks) ** 3
                  * np.abs(u0.coeffs[u0.index(ks)]))
    assert ds[0] == pytest.approx(ts[0] * lead, rel=1e-3)
    assert ds[0] <= 1e-2 * ds[-1]
    # each fixed component moves linearly: |e^{i w t} - 1| ~ w t
    slope = np.polyfit(np.log(ts), np.log(comps), 1)[0]
    assert abs(slope - 1.0) < 0.05
    om1 = (2 * math.pi) ** 3
    assert comps[0] == pytest.approx(om1 * ts[0] * abs(u0[1]), rel=1e-3)
    print("criterion 10 (airy demo): PASS (sup floor %.3f, slope %.3f, "
          "weak* %.1e -> %.1e)" % (min(sups), slope, ds[-1], ds[0]))


# ---------------------------------------------------------------------------
# 11. Hilbert-sum scaling
# ---------------------------------------------------------------------------

def test_criterion_11_hilbert_sum_scaling():
    # sanity of the full range first: monotone decay across all dyadic n
    all_ns = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096]
    for sigma in (0.75, 1.0, 2.0):
        vals = [hilbert_sum(n, sigma) for n in all_ns]
        assert all(b < a for a, b in zip(vals, vals[1:]))
    # exponent fit on the upper dyadic points: the sigma = 3/4 regime has a
    # pre-asymptotic correction decaying like n^{-1/4}, which biases a fit
    # anchored at small n; the top octaves estimate the asymptotic exponent
    ns = [512, 1024, 2048, 4096]
    x = np.log(ns)
    # sigma in (1/2, 1): exponent 1 - 2 sigma
    y = np.log([hilbert_sum(n, 0.75) for n in ns])
    sl = np.polyfit(x, y, 1)[0]
    assert abs(sl - (-0.5)) < 0.05
    # sigma = 1: exponent -1 after removing the log factor
    y = np.log([hilbert_sum(n, 1.0) / math.log(n) for n in ns])
    sl1 = np.polyfit(x, y, 1)[0]
    assert abs(sl1 - (-1.0)) < 0.05
    # sigma > 1: exponent -sigma
    y = np.log([hilbert_sum(n, 2.0) for n in ns])
    sl2 = np.polyfit(x, y, 1)[0]
    assert abs(sl2 - (-2.0)) < 0.05
    print("criterion 11 (hilbert-sum scaling): PASS "
          "(slopes %.3f, %.3f, %.3f)" % (sl, sl1, sl2))


# ---------------------------------------------------------------------------
# 12. projector trend
# ---------------------------------------------------------------------------

def test_criterion_12_projector_trend():
    # class H^t, t = -0.75: ||q||_{t,2}^2 = sum <m>^{2t} |q_{2m}|^2.  The
    # saturating (extremal) members put lacunary mass at modes 2(n-1) with
    # amplitude ~ (n-1)^{3/4}: each such mode contributes O(1) to the square
    # sum while coupling e_n to e_{-n+2} with denominator ~ 4 n pi^2, which
    # realizes the n^{-(1-|t|)} = n^{-1/4} projector rate.  (Generic
    # borderline members decay faster, ~ n^{-3/4} log n.)
    t = -0.75
    ns_test = list(LACUNARY_NS)
    c = LACUNARY_C
    q = lacunary_potential()
    norm_t2 = math.sqrt(sum(2 * (1.0 + (n - 1)) ** (2 * t)
                            * (c * (n - 1) ** 0.75) ** 2 for n in ns_test))
    assert norm_t2 < 0.1  # certified member of the H^t ball
    K = 180
    norms = []
    for n in ns_test:
        R, _ = riesz_projector(q, n, K)
        norms.append(op_norm_2_to_inf(R - free_projector(n, K), K))
    slope = float(np.polyfit(np.log(ns_test), np.log(norms), 1)[0])
    target = -(1.0 - abs(t))
    assert abs(slope - target) < 0.15
    print("criterion 12 (projector trend): PASS (slope %.3f, target %.2f)"
          % (slope, target))
