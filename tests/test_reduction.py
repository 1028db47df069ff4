"""Tests for the finite-dimensional reduction: contraction constants,
thresholds, the Neumann inverse, reduced coefficients, root localization,
the batch over modes and eigenfunction reconstruction (the Neumann sum of
one sequence and the eigenfunction are dense_oracle's).  The dense Galerkin
solver is the oracle for spectral quantities."""

import cmath
import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hillkdv.sequences import FourierSeq, SparseSeq, Weight, WeightError, norm
from hillkdv.operator import Potential
from hillkdv.galerkin import full_spectrum, periodic_spectrum
from hillkdv.reduction import (
    estimate_c_s, epsilon_s, estimate_c_s_prime,
    make_context, ReductionContext, coefficients, alpha_fixed_point,
    find_roots, find_roots_batch,
    adapted_coefficients, gap_sandwich, isolated_mode_sandwich,
    ThresholdError, _C_S_GRID,
)
from hillkdv.sequences import _divisor_sums
import hillkdv.reduction as red

from dense_oracle import divisor_sum, dense_coefficients, \
    kernel_vector, periodic_matrix, project, smooth_real_potential, \
    complex_band_potential, offset_A_inv_Q, shifted_galerkin_pair, \
    sparse_coefficients, sparse_neumann, shift_pair, apply_T_n, sample_T_norm, \
    eigenfunction_reconstruct, KernelPreconditionError, multiply, \
    single_mode_gaps, kronig_penney_edges

PI2 = math.pi ** 2


# ---------------------------------------------------------------------------
# contraction constants and thresholds
# ---------------------------------------------------------------------------

def test_c_s_reference_value():
    # independent brute-force evaluation of the defining sup at small n:
    # c_s >= n^{1/2-|s|} * 2 * sum_{|k| != n} |n+k|^{-(1-2|s|)} |n-k|^{-1}
    c0 = estimate_c_s(0.0)
    for n in (1, 2, 3, 8):
        ks = np.arange(-200000, 200001)
        ks = ks[np.abs(ks) != n]
        ks = ks[(ks + n) != 0]
        total = 2.0 * np.sum(np.sort(
            (np.abs(ks + n) ** -1.0 * np.abs(ks - n) ** -1.0)))
        assert c0 >= math.sqrt(n) * total * (1 - 1e-3)
    assert c0 == pytest.approx(5.539, abs=5e-3)


@pytest.mark.parametrize("s", [0.0, -0.25, -0.45])
def test_contraction_sums_match_per_n_oracle(s):
    # c_s's sweep of the shared-table kernel, the infinite sums
    # D(n; 1-2|s|, 1), against one fresh index array and quadrature tails
    # per n (tails taken as the integral from J + 1/2 at J = max(32n, 65536)
    # are 4.3e-13 off at s = -0.45); one n alone gives its grid entry bit
    # for bit
    alpha = 1.0 - 2.0 * abs(s)
    grid = _C_S_GRID
    got = _divisor_sums(grid, alpha, 1.0)
    want = np.array([divisor_sum(n, alpha, 1.0) for n in grid.tolist()])
    assert np.max(np.abs(got - want) / want) <= 1e-13
    for i in (0, 1, 40, 1023, 1025):
        assert _divisor_sums(grid[i:i + 1], alpha, 1.0)[0] == got[i]


@settings(max_examples=60, deadline=None)
@given(a=st.floats(0.0, 2.0, exclude_min=True),
       b=st.floats(0.0, 2.0, exclude_min=True),
       equal=st.booleans(), n=st.integers(1, 4096))
def test_divisor_sums_match_oracle(a, b, equal, n):
    # D(n; a, b) for a = b (one side summed and doubled) and a != b, up to
    # n = 4096, where n/N nears 1/2 and the tail series converges slowest
    if equal:
        b = a
    assume(a + b - 1.0 > 0.0)
    got = _divisor_sums([n], a, b)
    assert got[0] == pytest.approx(divisor_sum(n, a, b), rel=1e-13)


@pytest.mark.parametrize("s, c_s, c_s_prime", [
    (0.0, 5.539003119294624, 7.130207275243559),
    (-0.25, 10.193612941496836, 18.822725736106342),
])
def test_c_s_cold_recorded_values(s, c_s, c_s_prime):
    # reference values from per-n summation: divisor_sum in
    # dense_oracle.py for c_s, and a sorted sum of |m^2 - n^2|^{-sigma} for c_s'
    import hillkdv.reduction as red
    red._c_s.cache_clear()
    red._hilbert_sup.cache_clear()
    assert estimate_c_s(s) == pytest.approx(c_s, rel=1e-13, abs=0)
    assert estimate_c_s_prime(s) == pytest.approx(c_s_prime, rel=1e-13, abs=0)


def test_thresholds_stable():
    # (n_s, N_ms, M_ms) as computed by the per-n sweeps
    crit5 = []
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        crit5.append(Potential.random_real(rng, 8, sup=0.05, s=0.0))
    cases = [(smooth_real_potential(), 0.0, (1, 52061, 832961)),
             (Potential.single_mode(0.2), 0.0, (5, 52061, 832961)),
             (Potential.single_mode(0.2), -0.25,
              (93, 131622449926, 33695347180871)),
             (Potential.power_law(0.1, -0.25, n_max=128, s=-0.25), -0.25,
              (3, 131622449926, 33695347180871))]
    cases += [(q, 0.0, (1, 52061, 832961)) for q in crit5]
    # s = None: make_context takes s and the weight from the potential
    weighted = Potential.power_law(0.1, -0.25, 64, s=-0.25, weight=Weight(0.5))
    cases += [(weighted, None, (35, 131622449926, 33695347180871))]
    for q, s, want in cases:
        ctx = make_context(q, s)
        assert (ctx.n_s, ctx.N_ms, ctx.M_ms) == want


def test_c_s_rejects_s_outside_range_whatever_is_cached():
    # s = 1e-10 > 0 is outside (-1/2, 0], also once c_s(0) is cached
    import hillkdv.reduction as red
    red._c_s.cache_clear()
    red._hilbert_sup.cache_clear()
    q = Potential.single_mode(0.05)
    for _ in range(2):
        with pytest.raises(ValueError, match="s must be in"):
            make_context(q, s=1e-10)
        estimate_c_s(0.0)


def test_c_s_keyed_on_exact_s():
    # s = -0.25 - 4e-13 is its own key: its value does not depend on
    # whether c_s(-0.25) was computed first
    import hillkdv.reduction as red
    s = -0.2500000000004
    cold = []
    for warm in ((), (-0.25,)):
        red._c_s.cache_clear()
        red._hilbert_sup.cache_clear()
        for v in warm:
            estimate_c_s_prime(v)
        cold.append((estimate_c_s(s), estimate_c_s_prime(s)))
    assert cold[0] == cold[1]
    assert cold[0][0] != estimate_c_s(-0.25)


def test_c_s_grows_with_roughness():
    c0 = estimate_c_s(0.0)
    c25 = estimate_c_s(-0.25)
    c45 = estimate_c_s(-0.45)
    assert 1.0 < c0 < c25 < c45


def test_c_s_is_sup_of_scaled_sums():
    # c_0 = max(1, sup_n n^{1/2} 2 D(n; 1, 1)) over the n grid
    grid = _C_S_GRID
    vals = grid ** 0.5 * 2.0 * _divisor_sums(grid, 1.0, 1.0)
    assert estimate_c_s(0.0) == max(1.0, float(vals.max()))


@pytest.mark.parametrize("s, peak", [(0.0, 2), (-0.25, 4), (-0.4, 41),
                                     (-0.42, 132), (-0.45, 4096)])
def test_c_s_sweep_peaks(s, peak):
    # where the scaled sums n^{1/2-|s|} 2 D(n; 1-2|s|, 1) peak on the grid;
    # at s = -0.45 they still rise at its last point, so c_s there is a
    # lower estimate of the sup
    a = abs(s)
    grid = _C_S_GRID
    vals = grid ** (0.5 - a) * 2.0 * _divisor_sums(grid, 1.0 - 2.0 * a, 1.0)
    assert grid[np.argmax(vals)] == peak
    assert estimate_c_s(s) == float(vals.max())
    if peak == grid[-1]:
        assert vals[-1] > vals[-2] > vals[-3]


def test_c_s_independent_of_blas_threads():
    # fresh processes at 1 and 2 OpenBLAS threads print the same digits
    code = ("from hillkdv.reduction import estimate_c_s, estimate_c_s_prime; "
            "print([(repr(estimate_c_s(s)), repr(estimate_c_s_prime(s))) "
            "for s in (0.0, -0.25, -0.45)])")
    outs = [subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, check=True,
                           env=dict(os.environ, OPENBLAS_NUM_THREADS=t)).stdout
            for t in ("1", "2")]
    assert outs[0] == outs[1] and outs[0].count("(") == 3


def test_reduce_independent_of_blas_threads(tmp_path):
    # fresh processes at 1 and 2 OpenBLAS threads run reduce on real,
    # complex (non-conjugate pairs) and one-sided complex potentials and
    # write the same thresholds and reduction columns; oracle_gap and
    # max_mismatch come from LAPACK and are left out
    files = {"qc": [(-2, 0.02 - 0.01j), (-1, 0.05 + 0.03j), (1, 0.01 - 0.04j),
                    (2, 0.03 + 0.02j)],
             "q1": [(1, 0.05 + 0.03j), (2, 0.02 + 0.01j)]}
    for name, pairs in files.items():
        (tmp_path / (name + ".json")).write_text(
            Potential.from_even_pairs(pairs).seq.to_json())
    runs = [["single-mode:c=0.05"],
            ["power-law:a=0.1,e=-0.25,nmax=16", "--s", "-0.25"],
            ["random:sup=0.1,nmax=16"]] + [
        ["file:%s" % (tmp_path / (name + ".json"))] for name in files]
    code = ("import json, sys; from hillkdv.cli import main; "
            "sys.exit(max(main(a) for a in json.loads(sys.argv[1])))")
    keys = ("c_s", "c_s_prime", "n_s", "N_ms", "M_ms")
    cols = ("status", "a_n", "b_n", "b_neg_n", "alpha_n", "xi_1", "xi_2",
            "gap", "method", "terms", "converged")
    outs = []
    for t in ("1", "2"):
        dirs = [tmp_path / ("t%s-%d" % (t, i)) for i in range(len(runs))]
        argv = [["reduce", "--potential", *r, "--out", str(d)]
                for r, d in zip(runs, dirs)]
        subprocess.run([sys.executable, "-c", code, json.dumps(argv)],
                       check=True, env=dict(os.environ, OPENBLAS_NUM_THREADS=t))
        outs.append([])
        for d in dirs:
            with open(d / "reduce.json", encoding="utf-8") as fh:
                obj = json.load(fh)
            outs[-1].append(([obj[k] for k in keys],
                             [[r[c] for c in cols] for r in obj["rows"]]))
    assert outs[0] == outs[1]
    assert all(row[0] == "ok" for _, rows in outs[0] for row in rows)


def test_epsilon_s_forms():
    # epsilon_s(n) = max(log<n>/n, n^{-(1-|s|)})
    assert epsilon_s(10, 0.0) == pytest.approx(
        max(math.log(11.0) / 10.0, 10.0 ** -1.0))
    assert epsilon_s(1000, -0.25) == pytest.approx(
        max(math.log(1001.0) / 1000.0, 1000.0 ** -0.75))


def test_c_s_prime_dominates_c_s():
    for s in (0.0, -0.25):
        assert estimate_c_s_prime(s) >= estimate_c_s(s)


def test_c_s_prime_independent_of_call_order():
    import hillkdv.reduction as red
    red._hilbert_sup.cache_clear()
    cold = estimate_c_s_prime(-0.25)
    assert estimate_c_s_prime(-0.25) == cold


def test_thresholds_minimality():
    q = Potential.single_mode(0.2)
    ctx = make_context(q, 0.0)
    n_s, N_ms, M_ms = ctx.n_s, ctx.N_ms, ctx.M_ms
    c = estimate_c_s(0.0)
    cp = estimate_c_s_prime(0.0)
    qn = 0.2
    assert math.sqrt(n_s) >= 2 * c * qn
    assert n_s == 1 or math.sqrt(n_s - 1) < 2 * c * qn
    assert math.sqrt(N_ms) >= 32 * cp
    assert math.sqrt(N_ms - 1) < 32 * cp
    assert math.sqrt(M_ms) >= 128 * cp
    assert math.sqrt(M_ms - 1) < 128 * cp
    assert n_s < N_ms < M_ms


def test_thresholds_reject_norm_above_m():
    q = Potential.single_mode(0.2)
    with pytest.raises(ThresholdError):
        make_context(q, 0.0, m=0.1)


def test_thresholds_beyond_float_range_named():
    # n_s of a small q is small, but N_ms^{1/4} >= 32 c_s' m with m = 1e100
    # puts N_ms beyond the float range
    q = Potential.single_mode(0.2)
    with pytest.raises(ThresholdError, match="threshold N_ms exceeds the float"):
        make_context(q, -0.25, m=1e100)


def test_make_context_weight_not_finite_on_support():
    # 129^150 is past the float range at |k| = 128, q's own top index: the
    # norm of q raises there, not a threshold that reads inf
    q = Potential.power_law(0.1, -0.25, 64, weight=Weight(150.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(WeightError, match=r"\|k\| <= 128$"):
            make_context(q)


def test_make_context_defaults():
    q = smooth_real_potential()
    ctx = make_context(q)
    assert ctx.s == 0.0
    assert ctx.m == 1.0
    assert ctx.n_s >= 1
    assert red.NEUMANN_TOL == 1e-12 and red.MAX_TERMS == 60
    np.testing.assert_array_equal(ctx.q.support.idx, q.seq.nonzero_ks())


# ---------------------------------------------------------------------------
# T_n and the Neumann series
# ---------------------------------------------------------------------------

def test_T_n_kills_pn_modes():
    # T_n = V A^{-1} Q_n annihilates e_{+-n} because Q_n does
    q = Potential.single_mode(0.3)
    ctx = make_context(q)
    n = 2
    lam = n * n * PI2 + 1.0
    for k in (n, -n):
        out = apply_T_n(ctx, n, lam, SparseSeq.accumulate([k], [1.0]))
        assert out.idx.size == 0


def test_T_n_hand_computation_single_mode():
    # q = c(e_2 + e_{-2}), n = 1: V e_{-1} = c e_1 + c e_{-3};
    # T_1(V e_{-1}) = V [c e_{-3} / (lam - 9 pi^2)]
    #              = c^2 (e_{-1} + e_{-5}) / (lam - 9 pi^2)
    c = 0.25
    q = Potential.single_mode(c)
    ctx = make_context(q)
    lam = PI2 + 0.7
    ve = multiply(q, SparseSeq.accumulate([-1], [1.0]))
    np.testing.assert_array_equal(ve.idx, [-3, 1])
    assert ve[1] == pytest.approx(c) and ve[-3] == pytest.approx(c)
    out = apply_T_n(ctx, 1, lam, ve)
    fac = c * c / (lam - 9 * PI2)
    np.testing.assert_array_equal(out.idx, [-5, -1])
    assert out[-1] == pytest.approx(fac, rel=1e-12)
    assert out[-5] == pytest.approx(fac, rel=1e-12)


def one_minus_T_residual(ctx, n, delta, h, f):
    """(I - T_n) h - f at lambda = n^2 pi^2 + delta on the union of the
    supports, so also where T_n h reaches beyond the support of h."""
    th = multiply(ctx.q, offset_A_inv_Q(delta, n, h))
    return SparseSeq.total([h, SparseSeq(th.idx, -th.coeffs),
                            SparseSeq(f.idx, -f.coeffs)])


def test_neumann_inverts_one_minus_T():
    # (I - T_n) K_n f = f up to the Neumann tolerance
    q = smooth_real_potential()
    ctx = make_context(q)
    n = 6
    f = multiply(q, SparseSeq.accumulate([n], [1.0]))
    h, terms, max_ratio, converged = sparse_neumann(ctx, n, 0.3, f)
    resid = one_minus_T_residual(ctx, n, 0.3, h, f)
    assert norm(resid, None, 0.0, math.inf) < 1e-10
    assert terms >= 2
    assert max_ratio <= 0.5
    assert converged


def test_neumann_reports_nonconvergence(monkeypatch):
    # one application of T_n cannot reach the 1e-12 tolerance; the default
    # MAX_TERMS can, and says so at every level
    q = smooth_real_potential()
    ctx = make_context(q)
    n = 6
    lam = n * n * PI2 + 0.3
    f = multiply(q, SparseSeq.accumulate([n], [1.0]))
    with monkeypatch.context() as short:
        short.setattr(red, "MAX_TERMS", 1)
        assert sparse_neumann(ctx, n, 0.3, f)[3] is False
        assert coefficients(ctx, n, lam).converged is False
    assert coefficients(ctx, n, lam).converged is True
    assert find_roots(ctx, n).converged is True


def disc_grid(n):
    """15 points on the circle of radius 0.7 * 4 sqrt(n) about n^2 pi^2 and
    its center: a sample of the disc D_n off the real roots."""
    center, rad = n * n * PI2, 0.7 * 4.0 * math.sqrt(n)
    return [center + rad * cmath.exp(1j * (2 * math.pi * j / 15))
            for j in range(15)] + [complex(center)]


def disc_ratio(ctx, n):
    """The worst Neumann ratio of find_roots' evaluations and of the
    coefficients on disc_grid(n)."""
    return max([find_roots(ctx, n).contraction_bound] +
               [coefficients(ctx, n, lam).max_ratio for lam in disc_grid(n)])


def test_neumann_contraction_ratio_small_above_threshold():
    q = smooth_real_potential()
    ctx = make_context(q)
    for n in (ctx.n_s, ctx.n_s + 2, 10):
        lam = n * n * PI2
        est = sample_T_norm(ctx, n, lam)
        assert est <= 0.5
        assert disc_ratio(ctx, n) <= 0.5


def test_contraction_bound_independent_of_call_order():
    # the bound comes from the evaluations' own ratios, so probing T_n at
    # the same n beforehand leaves it unchanged
    q = smooth_real_potential()
    n = 6
    fresh = disc_ratio(make_context(q), n)
    ctx = make_context(q)
    sample_T_norm(ctx, n, n * n * PI2 + 9.0 * n)
    assert disc_ratio(ctx, n) == fresh
    assert 0.0 < fresh <= 0.5


def test_find_roots_capped_weight_past_exp_range_without_warning():
    # at n = 3000 the weights w(k) of a cap 0.3 reach past e^{709.78}
    w = Weight(1.0, cap=0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ctx = make_context(Potential.single_mode(0.05, weight=w))
        res = find_roots(ctx, 3000)
        grid = [coefficients(ctx, 3000, lam) for lam in disc_grid(3000)]
    assert res.converged is True
    assert all(c.converged for c in grid)


def test_contraction_improves_with_n():
    q = smooth_real_potential()
    ctx = make_context(q)
    e5 = sample_T_norm(ctx, 5, 25 * PI2)
    e20 = sample_T_norm(ctx, 20, 400 * PI2)
    assert e20 < e5


# ---------------------------------------------------------------------------
# reduced coefficients
# ---------------------------------------------------------------------------

def test_a_n_two_sided_agreement():
    # a_n from <K V e_n, e_n> equals the oracle's value computed from e_{-n}
    q = smooth_real_potential()
    ctx = make_context(q)
    for n in (3, 7, 15):
        c = coefficients(ctx, n, n * n * PI2 + 0.2)
        alt = sparse_coefficients(ctx, n, c.delta)["a_n_alt"]
        assert c.a_n == pytest.approx(alt, abs=1e-10)


def test_b_symmetry_under_conjugation():
    # for real q: b_{-n}(conj lam) = conj(b_n(lam))
    q = smooth_real_potential()
    ctx = make_context(q)
    n = 5
    lam = n * n * PI2 + 0.4 + 0.2j
    c1 = coefficients(ctx, n, lam)
    c2 = coefficients(ctx, n, np.conj(lam))
    assert c2.b_neg_n == pytest.approx(np.conj(c1.b_n), abs=1e-9)
    assert c2.a_n == pytest.approx(np.conj(c1.a_n), abs=1e-9)


def test_b_n_leading_order_is_q_2n():
    # to first order in q, b_n(lambda) = q_{2n} (the direct hop -n -> n)
    q = smooth_real_potential(amp=0.01)
    ctx = make_context(q)
    for n in (4, 9):
        c = coefficients(ctx, n, n * n * PI2)
        assert c.b_n == pytest.approx(q.coeff(2 * n), abs=5e-4)
        assert c.b_neg_n == pytest.approx(q.coeff(-2 * n), abs=5e-4)


def test_sparse_kernel_matches_dense_oracle():
    # criterion-2 potential at n_s .. n_s+20, criterion-5 potential at M_ms
    # (where the dense window holds 1.7e6 coefficients)
    q = smooth_real_potential()
    ctx = make_context(q)
    rng = np.random.default_rng(100)
    q5 = Potential.random_real(rng, 8, sup=0.05, s=0.0)
    ctx5 = make_context(q5)
    cases = [(ctx, n, 0.3 + 0.1j) for n in range(ctx.n_s, ctx.n_s + 21)]
    cases.append((ctx5, ctx5.M_ms, 0j))
    for c, n, delta in cases:
        got = plan_coefficients(c, n, delta)
        a_n, b_n, b_neg_n, terms = dense_coefficients(c, n, delta)
        assert got.terms_used == terms
        for x, y in ((got.a_n, a_n), (got.b_n, b_n),
                     (got.b_neg_n, b_neg_n)):
            assert abs(x - y) <= 1e-10 * abs(y)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_max=st.integers(1, 4),
       sup=st.floats(1e-3, 0.1), real=st.booleans(), n=st.integers(1, 6),
       re_frac=st.floats(-1.0, 1.0), im_frac=st.floats(-1.0, 1.0))
def test_sparse_kernel_property_random_small_potentials(
        seed, n_max, sup, real, n, re_frac, im_frac):
    rng = np.random.default_rng(seed)
    if real:
        q = Potential.random_real(rng, n_max, sup=sup)
    else:
        ks = [k for k in range(-n_max, n_max + 1) if k != 0]
        vals = sup * rng.uniform(0.3, 1.0, len(ks)) \
            * np.exp(2j * np.pi * rng.uniform(size=len(ks)))
        q = Potential.from_even_pairs(zip(ks, vals), n_max=n_max, real=False)
    ctx = make_context(q)
    delta = 12.0 * n * re_frac + 1j * n * im_frac
    # against the dense FourierSeq path on a wide window
    got = plan_coefficients(ctx, n, delta)
    a_n, b_n, b_neg_n, terms = dense_coefficients(ctx, n, delta)
    assert got.converged
    for x, y in ((got.a_n, a_n), (got.b_n, b_n), (got.b_neg_n, b_neg_n)):
        assert abs(x - y) <= 1e-12 * abs(y)
    # (I - T_n) K_n f = f to the Neumann tolerance, in the shifted norm
    f = multiply(q, SparseSeq.accumulate([n], [1.0]))
    resid = one_minus_T_residual(ctx, n, delta,
                                 sparse_neumann(ctx, n, delta, f)[0], f)
    assert shift_pair(resid, ctx, n) <= red.NEUMANN_TOL * shift_pair(f, ctx, n)


@st.composite
def small_potentials(draw):
    """Random real or complex potentials with 1 <= n_max <= 4 and
    |q_2k| <= 0.1, as in the sparse-kernel property test."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_max = draw(st.integers(1, 4))
    sup = draw(st.floats(1e-3, 0.1))
    if draw(st.booleans()):
        return Potential.random_real(rng, n_max, sup=sup)
    ks = [k for k in range(-n_max, n_max + 1) if k != 0]
    vals = sup * rng.uniform(0.3, 1.0, len(ks)) \
        * np.exp(2j * np.pi * rng.uniform(size=len(ks)))
    return Potential.from_even_pairs(zip(ks, vals), n_max=n_max, real=False)


@settings(max_examples=40, deadline=None)
@given(q=small_potentials(), n=st.integers(1, 8), offset=st.integers(0, 3),
       re_frac=st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0)),
       im=st.floats(allow_nan=False))
def test_divisors_bounded_below_on_the_strip(q, n, offset, re_frac, im):
    # why _evaluate divides unguarded: on levels 0-3 of the plan of a mode
    # (n, then n_s + offset) every offset is even, and for |Re delta| <= 12 n,
    # the edges included, every finite divisor |delta - (k - n)(k + n) pi^2|
    # is at least m_n pi^2 - 12 n, with m_1 = 8 and m_n = 4n - 4 for n >= 2
    ctx = make_context(q)
    for mode in (n, ctx.n_s + offset):
        bound = (8 if mode == 1 else 4 * mode - 4) * PI2 - 12.0 * mode
        assert bound >= 15.4
        delta = complex(12.0 * mode * re_frac, im)
        plan = red._OffsetPlan(ctx, [mode])
        for l in range(4):
            S, kk = plan.level(l)[:2]
            assert np.all(S % 2 == 0)
            assert np.all(np.abs(delta - kk[np.isfinite(kk)]) >= bound)


def assert_same_bits(got, want):
    """Every field of the term-by-term oracle equals the CoeffResult's, to
    the bit: repr round-trips floats exactly and shows the sign of zero.
    The oracle's a_n_alt has no CoeffResult field: it is checked against
    a_n by test_a_n_two_sided_agreement."""
    for field, value in want.items():
        if field == "a_n_alt":
            continue
        assert getattr(got, field) == value, field
        assert repr(getattr(got, field)) == repr(value), field


def plan_coefficients(ctx, n, delta, plan=None):
    """The package's CoeffResult at n and the offset delta, on plan (a batch
    of the one mode n by default), as reduction._evaluate gives it."""
    plan = plan or red._OffsetPlan(ctx, [n])
    return red._raise_first(red._evaluate(plan, [plan.ns.index(n)], [delta]))[0]


@settings(max_examples=40, deadline=None)
@given(q=small_potentials(), n=st.integers(1, 6),
       re_frac=st.floats(-1.0, 1.0), im_frac=st.floats(-1.0, 1.0))
def test_plan_kernel_bit_equal_to_term_by_term_loop(q, n, re_frac, im_frac):
    # the offset plan changes where the supports come from, not one value
    ctx = make_context(q)
    delta = 12.0 * n * re_frac + 1j * n * im_frac
    assert_same_bits(plan_coefficients(ctx, n, delta),
                     sparse_coefficients(ctx, n, delta))


def test_plan_kernel_bit_equal_on_criterion_2_modes():
    # the criterion-2 potential at n_s .. n_s+20, with plans shared over
    # the lambda of each n as find_roots shares them
    q = smooth_real_potential()
    ctx = make_context(q)
    for n in range(ctx.n_s, ctx.n_s + 21):
        plan = red._OffsetPlan(ctx, [n])
        for d in (0.3 + 0.1j, -11.0 * n, 9.0 * n - 2.0j, 0.0):
            assert_same_bits(plan_coefficients(ctx, n, d, plan),
                             sparse_coefficients(ctx, n, d))


def test_plan_reuse_is_call_order_independent():
    # lambda_2 needs a term more than lambda_1, so the shared plan grows
    # between the two evaluations at lambda_1; each result is still the
    # one a fresh call gives
    q = smooth_real_potential()
    ctx = make_context(q)
    n = 2
    lam1 = n * n * PI2 + 0.3 + 0.1j
    lam2 = n * n * PI2 - 11.9 * n + 0.1j
    plan = red._OffsetPlan(ctx, [n])
    got = [plan_coefficients(ctx, n, complex(lam) - n * n * PI2, plan)
           for lam in (lam1, lam2, lam1)]
    fresh = [coefficients(ctx, n, lam) for lam in (lam1, lam2, lam1)]
    assert got[1].terms_used > got[0].terms_used
    for g, f in zip(got, fresh):
        assert g == f
        assert repr(g) == repr(f)


def test_plan_bit_equal_on_disjoint_rows():
    # N_ms and M_ms of a criterion-5 potential and n = M_ms + 1 of the
    # isolated-mode sandwich: V e_n and V e_{-n} have disjoint supports, and
    # the isolated coefficients put j = -2m within reach of the first levels
    q5 = Potential.random_real(np.random.default_rng(100), 8, sup=0.05, s=0.0)
    ctx5 = make_context(q5)
    ctx6, res, _ = isolated_mode_sandwich(np.random.default_rng(0), (1,))
    for ctx, n in ((ctx5, ctx5.N_ms), (ctx5, ctx5.M_ms), (ctx6, res.n)):
        idx = ctx.q.support.idx
        assert np.intersect1d(idx + n, idx - n).size == 0
        plan = red._OffsetPlan(ctx, [n])
        for d in (0.0, 0.3 + 0.1j, -11.0 * n):
            assert_same_bits(plan_coefficients(ctx, n, d, plan),
                             sparse_coefficients(ctx, n, d))


def test_plan_rows_stop_on_their_own():
    # for this non-self-adjoint q the series from V e_3 stops after 5 terms
    # and the one from V e_{-3} after 6: the first row adds no sixth term and
    # no sixth ratio, so every field is that of the two separate series
    q = Potential.from_even_pairs([(1, 0.2), (-1, 0.002), (2, 0.1)],
                                  n_max=2, real=False)
    ctx = make_context(q)
    n = 3
    starts = [multiply(q, SparseSeq.accumulate([k], [1.0])) for k in (n, -n)]
    assert [sparse_neumann(ctx, n, 0.3, f)[1] for f in starts] == [5, 6]
    assert_same_bits(plan_coefficients(ctx, n, 0.3),
                     sparse_coefficients(ctx, n, 0.3))


def test_plan_bit_equal_when_max_terms_cuts_the_series(monkeypatch):
    # one application of T_n: both rows stop unconverged after 2 terms
    short = make_context(smooth_real_potential())
    monkeypatch.setattr(red, "MAX_TERMS", 1)
    for n in range(short.n_s, short.n_s + 5):
        got = plan_coefficients(short, n, 0.3)
        assert got.converged is False and got.terms_used == 2
        assert_same_bits(got, sparse_coefficients(short, n, 0.3))


@pytest.mark.parametrize("name", ["smooth", "complex", "band-limited"])
def test_offset_kernel_matches_lambda_form_loop_at_low_modes(name):
    # the term-by-term loop through apply_A_inv_Q(lambda) rounds lambda =
    # n^2 pi^2 + delta once, which costs a relative eps n^2 pi^2 / |divisor|
    # per term: below 1.2e-13 here for n <= 100 (at n = 300 and 1000 the
    # loop is 2e-12 and 1e-11 off, its own cancellation)
    q = {"smooth": smooth_real_potential(),
         "complex": complex_band_potential(),
         "band-limited": Potential.random_real(np.random.default_rng(100), 8,
                                               sup=0.05)}[name]
    ctx = make_context(q)
    for n in (ctx.n_s, 10, 30, 100):
        plan = red._OffsetPlan(ctx, [n])
        for d in (0.3 + 0.1j, -11.0 * n, 9.0 * n - 2.0j, 0.0):
            got = plan_coefficients(ctx, n, d, plan)
            want = sparse_coefficients(ctx, n, d, lam_form=True)
            for field in ("a_n", "b_n", "b_neg_n"):
                y = want[field]
                assert abs(getattr(got, field) - y) <= 1e-12 * abs(y), field


@settings(max_examples=25, deadline=None)
@given(q=small_potentials(), offset=st.integers(0, 4))
def test_find_roots_property_random_small_potentials(q, offset):
    # both reduced roots match the dense periodic spectrum at criterion 2's
    # tolerance
    ctx = make_context(q)
    n = ctx.n_s + offset
    spec = periodic_spectrum(q, 48)
    res = find_roots(ctx, n)
    assert res.converged
    order = (lambda z: (z.real, z.imag))
    got = sorted([res.xi_1, res.xi_2], key=order)
    want = sorted([spec.lam_minus(n), spec.lam_plus(n)], key=order)
    tol = 1e-6 * n * n * PI2
    assert abs(got[0] - want[0]) <= tol
    assert abs(got[1] - want[1]) <= tol


# the theorem's domain: n_s is drawn up to this cap, for the Galerkin cost
DOMAIN_N_S_CAP = 128


@settings(max_examples=30, deadline=None)
@given(s=st.sampled_from([0.0, -0.45, -0.47, -0.48]) | st.floats(-0.48, 0.0),
       n_max=st.integers(1, 32), n_t=st.integers(1, DOMAIN_N_S_CAP),
       real=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@example(s=-0.49, n_max=1, n_t=1, real=True, seed=0).xfail(
    raises=ThresholdError, reason="N_ms^0.01 >= 32 c_s' m is past the float "
    "range for every q at s = -0.49, so make_context raises before n_s")
def test_find_roots_on_the_theorem_domain(s, n_max, n_t, real, seed):
    # q of n_max modes, real or complex, with regularity label s and the
    # norm n_t^{1/2-|s|} / (2 c_s), the largest whose threshold n_s is n_t:
    # at n_s .. n_s + 5 no error, converged, and criterion 2's tolerance
    rng = np.random.default_rng(seed)

    def modes():
        return rng.uniform(0.3, 1.0, n_max) * np.exp(
            2j * np.pi * rng.uniform(size=n_max))
    plus = modes()
    minus = plus.conj() if real else modes()

    def potential(scale):
        return Potential.from_even_pairs(
            [(k, scale * v) for k, v in enumerate(plus, 1)]
            + [(-k, scale * v) for k, v in enumerate(minus, 1)],
            n_max=n_max, s=s)
    q = potential(1.0)
    q = potential(n_t ** (0.5 - abs(s)) / (2.0 * estimate_c_s(s))
                  / q.norm_ws_inf())
    ctx = make_context(q)
    assert ctx.n_s <= n_t + 1
    ns = range(ctx.n_s, ctx.n_s + 6)
    spec = periodic_spectrum(q, max(2 * ns[-1], 2 * q.half_range) + 16)
    assert spec.trust >= ns[-1]
    order = (lambda z: (z.real, z.imag))
    for n, res in zip(ns, find_roots_batch(ctx, ns)):
        assert res.converged
        got = sorted([res.xi_1, res.xi_2], key=order)
        want = sorted([spec.lam_minus(n), spec.lam_plus(n)], key=order)
        tol = 1e-6 * n * n * PI2
        assert abs(got[0] - want[0]) <= tol
        assert abs(got[1] - want[1]) <= tol


def test_fixed_point_stop_at_high_mode():
    # at n = M_ms + 1 = 832962 the stop test |step| < 1e-14 n^2 pi^2 (0.068)
    # is wider than the gap (0.02); one more step of each root's map, read
    # through the lambda form, still moves it by at most 4 ulp(n^2 pi^2), a
    # fifth of the gap: the roots are fixed points to the last place of xi
    # (the verify sandwich construction)
    ctx, res, _ = isolated_mode_sandwich(np.random.default_rng(0), (1,))
    n = res.n
    assert n == ctx.M_ms + 1
    center = n * n * PI2
    ulp4 = 4 * math.ulp(center)
    gap = abs(res.xi_2 - res.xi_1)
    assert res.method == "fixed-point"
    assert 1e-14 * center > gap > 4 * ulp4
    for xi in (res.xi_1, res.xi_2):
        c = coefficients(ctx, n, xi)
        sq = cmath.sqrt(c.b_n * c.b_neg_n)
        step = min(abs(center + c.a_n + sign * sq - xi) for sign in (1, -1))
        assert step <= ulp4


def test_fixed_point_gives_up_after_80_steps():
    # a_n = 0.75 delta + 1000 contracts by 0.75 per step, but from delta = 0
    # its steps 1000 * 0.75^k stay above 1e-10 pi^2 for all 80 steps
    it, sent = red._fixed_point(1, 0, []), 0
    delta = next(it)
    with pytest.raises(red.RootError, match="did not converge at n=1$"):
        while True:
            sent += 1
            delta = it.send(red.CoeffResult(
                n=1, delta=delta, a_n=0.75 * delta + 1000, b_n=0j, b_neg_n=0j,
                terms_used=1, max_ratio=0.0, converged=True))
    assert sent == 80


@pytest.mark.parametrize("seed", [200, 201, 202])
@pytest.mark.parametrize("offsets", [(0,), (1,)])
def test_high_mode_gap_exact(seed, offsets):
    # at n = M_ms and M_ms + 1 (n^2 pi^2 = 6.8e12, ulp 9.8e-4) the gap is
    # |delta_1 - delta_2|, not 20 ulp of |xi_1 - xi_2|: it is the sum of
    # |sqrt(b_n b_{-n})| at the two roots (a_n moves by far less than 1e-12
    # of the gap between them), and it is the shifted Galerkin pair's to
    # 1e-5, which is eigvalsh's error eps ||M|| = 2e-7 of a gap of 0.02
    ctx, res, _ = isolated_mode_sandwich(np.random.default_rng(seed), offsets)
    n = res.n
    assert n == ctx.M_ms + offsets[0] and res.method == "fixed-point"
    sq = sum(abs(cmath.sqrt(c.b_n * c.b_neg_n))
             for c in (coefficients(ctx, n, xi) for xi in (res.xi_1, res.xi_2)))
    assert res.gap_estimate == pytest.approx(sq, rel=1e-12, abs=0)
    d1, d2 = shifted_galerkin_pair(ctx, n, W=64)
    assert res.gap_estimate == pytest.approx(d2 - d1, rel=1e-5, abs=0)


# ---------------------------------------------------------------------------
# root localization against the Galerkin oracle
# ---------------------------------------------------------------------------

def test_find_roots_matches_galerkin():
    q = smooth_real_potential()
    ctx = make_context(q)
    spec = full_spectrum(q, 128)
    for n in (ctx.n_s, ctx.n_s + 3, 12, 20):
        res = find_roots(ctx, n)
        lm, lp = spec.lam_minus(n), spec.lam_plus(n)
        assert abs(res.xi_1 - lm) < 1e-6 * n * n * PI2
        assert abs(res.xi_2 - lp) < 1e-6 * n * n * PI2
        assert res.gap_estimate == pytest.approx(abs(lp - lm), abs=1e-7)


def test_find_roots_real_for_real_potential():
    q = smooth_real_potential()
    ctx = make_context(q)
    res = find_roots(ctx, 8)
    assert abs(res.xi_1.imag) < 1e-9
    assert abs(res.xi_2.imag) < 1e-9


COMPLEX_PAIRS = [(1, 0.05 + 0.02j), (-1, 0.03 - 0.01j), (2, 0.02j), (-2, 0.01)]


def test_find_roots_separation_bound():
    # the paper's |xi_1 - xi_2| <= sqrt(6) sup_{D_n} |b_n b_{-n}|^{1/2}, the
    # sup over disc_grid(n)
    smooth = make_context(smooth_real_potential())
    cplx = make_context(Potential.from_even_pairs(COMPLEX_PAIRS, n_max=2, s=0.0))
    for ctx, n in ((smooth, 6), (smooth, 8), (smooth, 10), (cplx, 2), (cplx, 3)):
        res = find_roots(ctx, n)
        sup = max(abs(c.b_n * c.b_neg_n) ** 0.5
                  for c in (coefficients(ctx, n, lam) for lam in disc_grid(n)))
        assert abs(res.xi_1 - res.xi_2) <= math.sqrt(6.0) * sup + 1e-9


def test_find_roots_xi_bound_grid_only_zero():
    # no grid is evaluated, so a nonzero grid is refused rather than ignored
    ctx = make_context(smooth_real_potential())
    with pytest.raises(ValueError, match="xi_bound_grid"):
        find_roots(ctx, 6, xi_bound_grid=16)


def test_find_roots_below_threshold_rejected():
    # a larger potential pushes n_s above 1
    q = Potential.single_mode(0.5)
    ctx = make_context(q)
    assert ctx.n_s > 1
    with pytest.raises(ThresholdError):
        find_roots(ctx, 1)


def test_find_roots_complex_potential():
    # non-self-adjoint case: complex gap, roots still match dense eigenvalues
    q = Potential.from_even_pairs(COMPLEX_PAIRS, n_max=2, s=0.0)
    ctx = make_context(q)
    spec = full_spectrum(q, 96)
    n = 2
    res = find_roots(ctx, n)
    got = sorted([res.xi_1, res.xi_2], key=lambda z: (z.real, z.imag))
    want = sorted([spec.lam_minus(n), spec.lam_plus(n)],
                  key=lambda z: (z.real, z.imag))
    assert abs(got[0] - want[0]) < 1e-6 * n * n * PI2
    assert abs(got[1] - want[1]) < 1e-6 * n * n * PI2


def force_root_error(monkeypatch, forced, error=red.RootError):
    """Patch reduction._fixed_point so that each fixed point (n, sign,
    evals, ...) for which forced(n, sign) holds ends with error (a
    RootError by default) without being run; the others run as before.
    Returns the list of the forced (n, sign)."""
    real_fixed_point, hits = red._fixed_point, []

    def patched(n, sign, *args, **kwargs):
        if forced(n, sign):
            hits.append((n, sign))
            raise error("forced at n=%d" % n)
        return (yield from real_fixed_point(n, sign, *args, **kwargs))

    monkeypatch.setattr(red, "_fixed_point", patched)
    return hits


@pytest.mark.parametrize("error", [red.RootError, red.ContractionFailureError])
def test_find_roots_raises_when_root_iteration_fails(monkeypatch, error):
    # the - root's iteration fails, the + root's converges: find_roots
    # raises that error, never a result with an unpolished root
    ctx = make_context(smooth_real_potential())
    failed = force_root_error(monkeypatch, lambda n, sign: sign < 0, error)
    with pytest.raises(error, match="forced at n=6$"):
        find_roots(ctx, 6)
    assert failed == [(6, -1)]


def test_find_roots_rejects_root_outside_disc(monkeypatch):
    # at n = 10^4 the disc radius is 4 sqrt(n) = 400: a root iteration that
    # lands 1000 from n^2 pi^2 has left D_n, and find_roots raises
    ctx = make_context(smooth_real_potential())
    n = 10 ** 4
    real_fixed_point = red._fixed_point

    def lands_outside(n, sign, *args, **kwargs):
        delta, c = yield from real_fixed_point(n, sign, *args, **kwargs)
        return (1000.0 + 0j if sign else delta), c

    monkeypatch.setattr(red, "_fixed_point", lands_outside)
    with pytest.raises(red.RootError, match="left D_10000"):
        find_roots(ctx, n)


def test_find_roots_raises_when_alpha_iteration_fails(monkeypatch):
    # alpha_n's iteration fails: find_roots raises its error, and no root
    # iteration starts, as none has a seed
    ctx = make_context(smooth_real_potential())
    failed = force_root_error(monkeypatch, lambda n, sign: sign == 0)
    with pytest.raises(red.RootError, match="forced at n=6$"):
        find_roots(ctx, 6)
    assert failed == [(6, 0)]


@pytest.mark.parametrize("c, n", [(1e-3, 2), (1e-3, 3), (1e-3, 4),
                                  (1e-3, 5), (0.05, 3)])
def test_find_roots_small_gap_keeps_branches(c, n):
    # gamma_n ~ c^n is tiny next to n^2 pi^2 but not 0: the two iterations
    # stay on opposite branches of sqrt(b_n b_{-n}), so the separation of
    # the roots is the dense gap (noise about 1e-12 at K = 32), not 0
    q = Potential.single_mode(c)
    ctx = make_context(q)
    spec = periodic_spectrum(q, 32)
    res = find_roots(ctx, n)
    lm, lp = spec.lam_minus(n), spec.lam_plus(n)
    assert res.method == "fixed-point"
    assert abs(res.xi_1 - lm) <= 1e-6 * n * n * PI2
    assert abs(res.xi_2 - lp) <= 1e-6 * n * n * PI2
    assert abs(abs(res.xi_2 - res.xi_1) - abs(lp - lm)) <= 1e-10


def test_degenerate_gap_reported_zero():
    # q = 0 within a tiny perturbation far from n: gap at n collapses
    q = Potential.single_mode(1e-11)
    ctx = make_context(q)
    res = find_roots(ctx, 3)
    assert res.gap_estimate == 0.0


ONE_SIDED = [(1, 0.05 + 0.03j), (2, 0.02 + 0.01j)]


@functools.cache
def jordan_d():
    """d with b_4 = 0 at alpha_4 for q = 0.05 (e_4 + e_{-4}) + d e_8 (q_{+-4}
    = 0.05, q_8 = d), by bisection on [-1e-4, 0], where b_4 is real and
    changes sign once."""
    def b4(d):
        q = Potential.from_even_pairs([(2, 0.05), (-2, 0.05), (4, d)])
        return find_roots(make_context(q), 4).b_n.real
    lo, hi = -1e-4, 0.0
    assert b4(lo) < 0.0 < b4(hi)
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if b4(mid) < 0.0 else (lo, mid)
    return lo


@pytest.mark.parametrize("kind, x", [("one-sided", 0.0)]
                         + [("near-one-sided", eps) for eps in
                            (1e-16, 1e-12, 1e-8, 1e-4, 1e-2)]
                         + [("jordan", x) for x in (-1e-4, 0.0, 1e-4)])
def test_find_roots_hard_inputs_take_the_fixed_point(kind, x):
    # with nothing patched, the inputs where the root maps are least
    # contractive converge at n_s .. n_s + 9 to the dense spectrum: a
    # one-sided complex q (q_{-2n} = 0, so b_{-n} = 0 and every pair is
    # double), a near-one-sided one (q_{-2n} = x q_{2n}), and the Jordan
    # point of jordan_d (a double eigenvalue with one eigenvector, where
    # sqrt(b_4 b_{-4}) has a branch point) with d scaled by 1 + x
    if kind == "jordan":
        q = Potential.from_even_pairs([(2, 0.05), (-2, 0.05),
                                       (4, jordan_d() * (1.0 + x))])
    else:
        q = Potential.from_even_pairs(
            ONE_SIDED + [(-k, x * v) for k, v in ONE_SIDED if x])
    ctx = make_context(q)
    ns = range(ctx.n_s, ctx.n_s + 10)
    spec = periodic_spectrum(q, 48)
    assert ns[-1] <= spec.trust
    for n, res in zip(ns, find_roots_batch(ctx, ns)):
        assert res.converged and res.method == "fixed-point"
        lm, lp = spec.lam_minus(n), spec.lam_plus(n)
        err = min(max(abs(res.xi_1 - lm), abs(res.xi_2 - lp)),
                  max(abs(res.xi_1 - lp), abs(res.xi_2 - lm)))
        assert err <= 1e-6 * n * n * PI2, n
        if kind == "jordan" and x == 0.0 and n == 4:
            assert abs(res.b_n) <= 1e-12 * abs(res.b_neg_n)


def test_jordan_point_gaps_scale_like_sqrt_eps():
    # with the d of jordan_d scaled by 1 + eps, b_4 b_{-4} is O(eps) at the
    # fixed point, so the gap at n = 4 is O(sqrt(eps)): tenfold per factor
    # 100 in eps, down to a gap of 3e-11, and at eps = 1e-10 the dense
    # Galerkin gap at K = 64
    def pair(eps):
        return Potential.from_even_pairs([(2, 0.05), (-2, 0.05),
                                          (4, jordan_d() * (1.0 + eps))])
    gaps = [find_roots(make_context(pair(eps)), 4).gap_estimate
            for eps in (1e-12, 1e-10, 1e-8)]
    assert gaps[1] / gaps[0] == pytest.approx(10.0, rel=0.01)
    assert gaps[2] / gaps[1] == pytest.approx(10.0, rel=0.01)
    spec = periodic_spectrum(pair(1e-10), 64)
    assert gaps[1] == pytest.approx(abs(spec.lam_plus(4) - spec.lam_minus(4)),
                                    rel=0.01)


def test_single_mode_gaps_match_mpmath():
    # gamma_n of single_mode(0.05) against its 40-digit parity blocks: to
    # 1e-10 relative at n = 2, 3, and to 1e-5 at n = 4, 5, whose gaps (5.6e-12
    # and 4.5e-16) are differences of roots at offsets 8e-6 and 5e-6
    ctx = make_context(Potential.single_mode(0.05))
    ns = (2, 3, 4, 5)
    for res, want, rel in zip(find_roots_batch(ctx, ns),
                              single_mode_gaps(0.05, ns),
                              (1e-10, 1e-10, 1e-5, 1e-5)):
        assert res.gap_estimate == pytest.approx(want, rel=rel, abs=0), res.n


def test_dirac_comb_reduction_converges_first_order():
    # q = c sum_j delta(x - j) - c cut at n_max, the reduction at n_s..n_s + 9
    # (n_s = 31) against the Kronig-Penney edges: every root is real and
    # converged, and the worst edge error of each mode is 0.0273..0.0282 /
    # n_max at n_max = 128 and 0.0262..0.0265 / n_max at 256 (at 64 the
    # modes lie past n_max / 2 and the ratio to 128 is still 1.18..1.29)
    c, errs = 0.5, []
    for n_max in (128, 256):
        ctx = make_context(Potential.power_law(c, 0.0, n_max))
        assert ctx.n_s == 31
        ns = range(ctx.n_s, ctx.n_s + 10)
        err = []
        for n, res in zip(ns, find_roots_batch(ctx, ns)):
            assert res.converged and res.xi_1.imag == res.xi_2.imag == 0
            got = sorted([res.xi_1.real, res.xi_2.real])
            err.append(max(abs(g - e) for g, e in
                           zip(got, kronig_penney_edges(c, n))))
        errs.append(np.array(err))
        assert np.all((0.025 <= errs[-1] * n_max) & (errs[-1] * n_max <= 0.03))
    rates = np.log2(errs[0] / errs[1])
    assert np.all((0.95 <= rates) & (rates <= 1.2))


# ---------------------------------------------------------------------------
# the batch over modes
# ---------------------------------------------------------------------------

def outcome(fn):
    """repr of fn()'s value, or the type and message of its error."""
    try:
        return repr(fn())
    except Exception as exc:
        return "%s: %s" % (type(exc).__name__, exc)


@settings(max_examples=25, deadline=None)
@given(q=small_potentials())
def test_find_roots_batch_equals_batch_of_one(q):
    # modes n_s .. n_s + 5 of one batch, where the slot j = -2m of the
    # small modes lies within reach of the first levels: every field of
    # every result, by repr, is that of find_roots at n alone
    ctx = make_context(q)
    ns = range(ctx.n_s, ctx.n_s + 6)
    alone = [outcome(lambda: find_roots(ctx, n)) for n in ns]
    failed = [a for a in alone if not a.startswith("ReductionResult(")]
    batch = outcome(lambda: find_roots_batch(ctx, ns))
    assert batch == (failed[0] if failed else "[%s]" % ", ".join(alone))


def test_plan_apply_bit_equal_to_oracle_multiply():
    # each column of apply is multiply(q, .) of that column on S_l, to the
    # bit and the sign of zero, on levels of one long run (the smooth
    # potential), of many short runs (the isolated-mode potential) and with
    # no slots at all (the zero potential, whose levels hold no runs); each
    # row's divisor part is inf exactly at its slots j = 0 and j = -2m,
    # where _evaluate reads its sums
    ctx6, res, _ = isolated_mode_sandwich(np.random.default_rng(0), (1,))
    rng = np.random.default_rng(5)
    for ctx, ns in ((make_context(smooth_real_potential()), range(3, 9)),
                    (ctx6, [res.n - 1, res.n]),
                    (make_context(Potential.zero()), [1, 2])):
        plan = red._OffsetPlan(ctx, ns)
        m = np.array([(n, -n) for n in plan.ns]).ravel()  # each row's mode
        for l in (0, 1, 2):
            S, kk = plan.level(l)[:2]
            assert np.array_equal(np.isinf(kk), (S[:, None] == 0)
                                  | (S[:, None] == -2 * m))
            x = rng.standard_normal((S.size, 2 * len(plan.ns))) * (1 + 1j)
            x[rng.random(x.shape) < 0.2] = -0.0
            got = plan.apply(l, x)
            assert (S.size == 0) == (plan.steps[l][0] == [])
            for k in range(x.shape[1]):
                want = multiply(ctx.q, SparseSeq(S, x[:, k]))
                assert np.array_equal(want.idx, plan.levels[l + 1][0])
                assert got[:, k].tobytes() == want.coeffs.tobytes()


def low_mode_tasks(seed):
    """The potentials, s and mode ranges of the tasks of the benchmark's
    low_mode workload (perfbench/workloads.py) at seed: a smooth real q over
    n_s .. n_s + 20, a rough power law and a complex q over n_s .. n_s + 39
    in two halves."""
    def rng(stream):
        return np.random.default_rng([stream, seed])

    def phases(r, size):
        return np.exp(1j * r.uniform(0.0, 2.0 * np.pi, size=size))
    ns = np.arange(1, 27)
    r = rng(1)
    vals = 0.05 * (1.0 + ns) ** -0.5 * phases(r, 26)
    smooth = Potential.from_even_pairs(
        [(int(n), v) for n, v in zip(ns, vals)]
        + [(-int(n), np.conj(v)) for n, v in zip(ns, vals)], n_max=26)
    rough = Potential.power_law(0.1, -0.25, 16, s=-0.25, rng=rng(2))
    r, ns = rng(3), np.arange(1, 17)
    plus, minus = (0.05 * (1.0 + ns) ** -0.5 * phases(r, 16) for _ in range(2))
    cplx = Potential.from_even_pairs(
        [(int(n), v) for n, v in zip(ns, plus)]
        + [(-int(n), v) for n, v in zip(ns, minus)], n_max=16)
    tasks = []
    for q, s, modes, parts in ((smooth, 0.0, 21, 1), (rough, -0.25, 40, 2),
                               (cplx, 0.0, 40, 2)):
        ctx = make_context(q, s=s)
        tasks += [(ctx, range(ctx.n_s + k * modes // parts,
                              ctx.n_s + (k + 1) * modes // parts))
                  for k in range(parts)]
    return tasks


def test_evaluation_counts(monkeypatch):
    # the coefficient evaluations that each result reports, and that the
    # evaluator makes, are those of the per-mode path: 126, 109, 80, 110
    # and 60 over the low_mode tasks at seed 303, and 3 for the roots plus
    # 2 or 4 for the adapted map in the isolated-mode sandwich
    real_evaluate, made = red._evaluate, []

    def counted(plan, modes, deltas):
        made.append(len(deltas))
        return real_evaluate(plan, modes, deltas)

    monkeypatch.setattr(red, "_evaluate", counted)
    for (ctx, ns), want in zip(low_mode_tasks(303), (126, 109, 80, 110, 60)):
        made.clear()
        res = find_roots_batch(ctx, ns)
        assert sum(r.evaluations for r in res) == sum(made) == want
        assert {r.method for r in res} == {"fixed-point"}
    for offsets, want in (((0,), 5), ((1,), 7)):
        made.clear()
        _, res, _ = isolated_mode_sandwich(np.random.default_rng(0), offsets)
        assert res.evaluations == 3 and sum(made) == want


def test_find_roots_batch_raises_first_failing_mode(monkeypatch):
    # root iterations forced to fail at n_s + 2 and n_s + 4: the batch
    # raises the error of n_s + 2, as a loop over n would
    ctx = make_context(smooth_real_potential())
    bad = (ctx.n_s + 2, ctx.n_s + 4)
    force_root_error(monkeypatch, lambda n, sign: sign and n in bad)
    with pytest.raises(red.RootError, match="forced at n=%d$" % bad[0]):
        find_roots_batch(ctx, range(ctx.n_s, ctx.n_s + 6))
    assert find_roots_batch(ctx, [ctx.n_s + 1])[0].method == "fixed-point"


def test_weight_not_finite_on_plan_raises():
    # e^{1.38 |k|} is finite on |k| <= 514 and inf from |k| = 515; the plan
    # of n = 258 already reaches |k| = 2n + 2 = 518
    w = Weight(200.0, cap=1.38)
    ctx = make_context(Potential.single_mode(0.05, weight=w))
    assert find_roots_batch(ctx, [250])[0].converged
    with pytest.raises(WeightError, match=r"\|k\| <= 518$"):
        find_roots_batch(ctx, [250, 258])


def test_evaluation_errors_raised():
    # |delta| = |50 - 49 pi^2| ~ 434 > 12 * 7: the evaluation's own error,
    # as it is when every evaluation of a batch's round lies outside the
    # strip (n = 3 of a large q at n_s = 1, whose - root's iterates leave
    # S_3; at n = 2 alpha_n's iteration stops contracting first, a
    # RootError); at n = 1 alpha_n's first evaluation fails, with a library
    # error other than RootError, which find_roots and the batch raise
    with pytest.raises(red.StripViolationError, match="outside S_7"):
        coefficients(make_context(Potential.single_mode(0.05)), 7, 50.0)
    ctx = dataclasses.replace(make_context(Potential.power_law(40.0, 0.0, 4)),
                              n_s=1)
    alone = [outcome(lambda: find_roots(ctx, n)) for n in (1, 2, 3)]
    assert alone[0] == ("ContractionFailureError: "
                        "Neumann ratio > 0.9 three times at n=1")
    assert [a.split(":")[0] for a in alone[1:]] == ["RootError",
                                                    "StripViolationError"]
    assert outcome(lambda: find_roots_batch(ctx, [1, 2, 3])) == alone[0]


# ---------------------------------------------------------------------------
# alpha fixed point and the adapted sequence (fast sparse high-n paths)
# ---------------------------------------------------------------------------

def test_alpha_fixed_point_threshold_guard():
    q = Potential.single_mode(0.1)
    ctx = make_context(q)
    with pytest.raises(ThresholdError):
        alpha_fixed_point(ctx, ctx.N_ms - 1)


def test_adapted_coefficients_threshold_guard():
    ctx = make_context(Potential.single_mode(0.1))
    with pytest.raises(ThresholdError):
        adapted_coefficients(ctx, ctx.M_ms - 1)


def test_alpha_fixed_point_residual_and_reality():
    q = Potential.single_mode(0.1)
    ctx = make_context(q)
    n = ctx.N_ms
    alpha = alpha_fixed_point(ctx, n)
    c = coefficients(ctx, n, alpha)
    assert abs(alpha - n * n * PI2 - c.a_n) < 1e-9 * n * n * PI2
    assert abs(alpha.imag) < 1e-9 * n * n * PI2


def test_gap_sandwich_logic_with_synthetic_context():
    # gap_sandwich reads only M_ms from the context, so exercise its logic
    # with a hand-built context and sequence
    q = Potential.single_mode(0.1)
    base = make_context(q)
    ctx = ReductionContext(q=q, s=0.0, m=1.0, c_s=base.c_s,
                           c_s_prime=base.c_s_prime, n_s=1, N_ms=2, M_ms=3)
    r = FourierSeq.from_pairs([(6, 0.01), (-6, 0.02)], K=8)
    rep = gap_sandwich(ctx, 3, r, gamma_n=0.02)
    assert rep["condition_met"]
    assert rep["lo"] == pytest.approx(2e-4)
    assert rep["holds"]  # 2e-4 <= 4e-4 <= 1.8e-3
    # ratio outside [1/9, 9]
    r2 = FourierSeq.from_pairs([(6, 1.0), (-6, 0.05)], K=8)
    rep2 = gap_sandwich(ctx, 3, r2, gamma_n=0.02)
    assert not rep2["condition_met"]
    # below threshold
    with pytest.raises(ThresholdError):
        gap_sandwich(ctx, 2, r, 0.01)


def test_gap_sandwich_without_r_neg_2n():
    # r_{-2n} = 0: the ratio is undefined, so the condition is not met and
    # no verdict is given
    q = Potential.single_mode(0.1)
    base = make_context(q)
    ctx = ReductionContext(q=q, s=0.0, m=1.0, c_s=base.c_s,
                           c_s_prime=base.c_s_prime, n_s=1, N_ms=2, M_ms=3)
    r = FourierSeq.from_pairs([(6, 0.01)], K=8)
    rep = gap_sandwich(ctx, 3, r, gamma_n=0.02)
    assert rep["condition_met"] is False
    assert "holds" not in rep


# ---------------------------------------------------------------------------
# eigenfunction reconstruction
# ---------------------------------------------------------------------------

def dense_eigvec(q, K, target):
    M = periodic_matrix(q, K)
    vals, vecs = np.linalg.eig(M)
    i = int(np.argmin(np.abs(vals - target)))
    return vals[i], vecs[:, i]


def test_eigenfunction_matches_dense_eigenvector():
    for seed in (1, 2, 3, 4, 5):
        q = smooth_real_potential(seed=seed, n_max=10, amp=0.04)
        ctx = make_context(q)
        n = ctx.n_s + 2
        res = find_roots(ctx, n)
        xi = res.xi_1
        u = kernel_vector(ctx, n, xi)
        f, rep = eigenfunction_reconstruct(ctx, n, xi, u)
        assert rep["relative_residual"] < 1e-8
        K = 64
        _, vec = dense_eigvec(q, K, xi)
        # compare after truncating f to the dense basis and aligning phase
        fv = np.array([f[k] for k in range(-K, K + 1)])
        fv = fv / np.linalg.norm(fv)
        phase = np.vdot(fv, vec)
        phase = phase / abs(phase)
        assert np.max(np.abs(fv * phase - vec)) < 1e-5


def test_eigenfunction_regularity_gain():
    # the reconstructed eigenfunction decays two powers faster than the
    # potential class: its (s+2)-sup is finite and dominated by the +-n modes
    q = smooth_real_potential(n_max=10, amp=0.04)
    ctx = make_context(q)
    n = 5
    res = find_roots(ctx, n)
    u = kernel_vector(ctx, n, res.xi_1)
    f, rep = eigenfunction_reconstruct(ctx, n, res.xi_1, u)
    assert rep["reg_sup_s_plus_2"] < math.inf
    p = project(n, f, "P")
    assert norm(p, None, 0.0, math.inf) >= 0.5 * norm(f, None, 0.0, math.inf)


def test_eigenfunction_rejects_non_kernel_vector():
    q = smooth_real_potential(n_max=10, amp=0.04)
    ctx = make_context(q)
    n = 5
    res = find_roots(ctx, n)
    with pytest.raises(KernelPreconditionError):
        eigenfunction_reconstruct(ctx, n, res.xi_1, np.array([1.0, 1.0]))
