"""Tests for weights, Fourier sequences, norms and convolution.

Oracle style: every computed quantity is checked against an independent
direct implementation (plain double loops, brute-force sums) on small
random inputs with fixed seeds.
"""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hillkdv.sequences import (
    Weight, WeightError,
    FourierSeq, SparseSeq, InvalidSequenceError, bracket,
    norm, weight_factors, weight_profile, tail, hilbert_sum,
)

from hillkdv.birkhoff import BirkhoffState
from hillkdv.operator import Potential

from dense_oracle import abel_plana_tail, convolve, shifted_norm


def random_seq(rng, K, real=False):
    c = rng.normal(size=2 * K + 1) + 1j * rng.normal(size=2 * K + 1)
    if real:
        c = 0.5 * (c + np.conj(c[::-1]))
    return FourierSeq(c)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def test_weight_trivial_is_one_everywhere():
    w = Weight()
    for n in (0, 1, -7, 1000, -12345):
        assert w(n) == 1.0


def test_weight_polynomial_values():
    w = Weight(2.0)
    assert w(0) == 1.0
    assert w(3) == 16.0      # (1+3)^2
    assert w(-3) == 16.0
    np.testing.assert_allclose(w(np.array([1, 2])), [4.0, 9.0])


def test_weight_invalid_parameters():
    with pytest.raises(WeightError):
        Weight(-1.0)
    with pytest.raises(WeightError):
        Weight(1.0, cap=0.0)


@pytest.mark.parametrize("exponent, cap", [
    (math.nan, None), (1.0, math.nan), (math.inf, None), (1.0, math.inf)])
def test_weight_rejects_non_finite_parameters(exponent, cap):
    # NaN fails every comparison, so each bound is written to reject it; an
    # infinite exponent is inf at n != 0 and an infinite cap nan at n = 0
    with pytest.raises(WeightError, match="and finite"):
        Weight(exponent, cap=cap)
    assert Weight(0.0)(3) == 1.0 and Weight(2.0)(3) == 16.0
    assert Weight(1.0, cap=0.3)(3) == math.exp(0.3 * 3)
    assert Weight(1.0, cap=1e300)(3) == 4.0


def test_capped_weight_past_exp_range_without_warning():
    # e^{cap |n|} is past the float range from cap |n| > 709.78: the min is
    # the polynomial part, with no overflow warning on the way
    w = Weight(1.0, cap=0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert w(3000) == 3001.0
        np.testing.assert_array_equal(w(np.array([-3000.0, 2.0, 1e6])),
                                      [3001.0, min(3.0, math.exp(0.6)), 1e6 + 1])


@settings(max_examples=300, deadline=None)
@given(a=st.floats(0.0, 16.0), cap=st.one_of(st.none(), st.floats(1e-3, 2.0)),
       n=st.integers(-10 ** 6, 10 ** 6), m=st.integers(-10 ** 6, 10 ** 6))
def test_weight_family_is_in_the_class(a, cap, n, m):
    # every Weight is >= 1, symmetric, monotone in |n| and submultiplicative
    # up to rounding, by construction and with no check at build time
    w = Weight(a, cap=cap)
    assert w(n) >= 1.0
    assert w(-n) == w(n)
    lo, hi = sorted((abs(n), abs(m)))
    assert w(lo) <= w(hi)
    assert w(n + m) <= w(n) * w(m) * (1.0 + 1e-12)


def test_weight_factors_raise_where_weight_is_not_finite():
    # Weight(150, cap=5) is finite on |k| <= 128 (the min is e^{640}) and
    # inf from |k| = 142, where 143^150 and e^{710} both pass the float
    # range: where it is evaluated, it raises by name and with no overflow
    # warning on the way
    w = Weight(150.0, cap=5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(weight_factors(np.arange(-128, 129), w, 0.0)).all()
        with pytest.raises(WeightError, match=r"\|k\| <= 600$"):
            weight_factors(np.arange(-600, 601), w, -0.25)


def test_norm_raises_where_weight_is_not_finite():
    # the finite-p sum evaluates w at every stored k, zeros included, so
    # 601^200 = inf would give inf * 0 = NaN
    f = FourierSeq.from_pairs([(2, 0.1), (-2, 0.1)], K=600)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(WeightError, match=r"\|k\| <= 600$"):
            norm(f, Weight(200.0), 0.0, 2)


def test_cap_weight_crossover():
    # capped weight agrees with the original at small |n| and switches to
    # e^{eps |n|} beyond the crossover index
    eps = 0.05
    wc = Weight(4.0, cap=eps)
    crossed = False
    for n in range(0, 2000, 7):
        expect = min((1.0 + n) ** 4, math.exp(eps * n))
        assert wc(n) == pytest.approx(expect, rel=1e-12)
        if math.exp(eps * n) < (1.0 + n) ** 4:
            crossed = True
    assert crossed  # the scan actually reached the capped regime


# ---------------------------------------------------------------------------
# FourierSeq container
# ---------------------------------------------------------------------------

def test_seq_indexing_and_out_of_range():
    f = FourierSeq.from_pairs([(0, 1.0), (2, 3.0), (-1, 1j)])
    assert f[0] == 1.0
    assert f[2] == 3.0
    assert f[-1] == 1j
    assert f[5] == 0.0 and f[-100] == 0.0
    assert f.half_range == 2
    np.testing.assert_array_equal(f.ks(), [-2, -1, 0, 1, 2])


@pytest.mark.parametrize("build", [
    lambda: FourierSeq.from_pairs([(-4, 1.0)], K=2),
    lambda: FourierSeq.from_pairs([(3, 1.0)], K=2),
    lambda: FourierSeq.from_json(json.dumps({"half_range": 2,
                                             "coeffs": [[-3, 1.0, 0.0]]})),
    lambda: BirkhoffState.from_pairs([(-3, 1.0)], K=2),
    lambda: Potential.from_even_pairs([(-3, 1.0)], n_max=2),
], ids=["seq-negative", "seq-positive", "seq-json", "birkhoff", "potential"])
def test_from_pairs_rejects_index_outside_half_range(build):
    # a negative index past -K used to wrap around to the top of the array
    with pytest.raises(InvalidSequenceError, match="outside the half range"):
        build()


def test_seq_even_length_rejected():
    with pytest.raises(InvalidSequenceError):
        FourierSeq(np.zeros(4, dtype=complex))


def test_seq_conj_symmetry():
    # realness is read from the coefficients, to 1e-14 unless told otherwise;
    # the container has no flags, so a mean and odd modes are allowed and an
    # asymmetric sequence builds
    good = FourierSeq.from_pairs([(0, 2.0), (1, 1 + 2j), (-1, 1 - 2j)])
    assert good.is_conj_symmetric()
    assert not FourierSeq.from_pairs([(1, 1j), (-1, 1j)]).is_conj_symmetric()
    near = FourierSeq.from_pairs([(2, 0.1), (-2, 0.1 + 1e-13)])
    assert not near.is_conj_symmetric()
    assert near.is_conj_symmetric(1e-12)
    assert not FourierSeq(np.array([np.nan, 0.0, np.nan])).is_conj_symmetric()


def test_seq_extend_truncate_roundtrip():
    rng = np.random.default_rng(3)
    f = random_seq(rng, 5)
    g = f.extended(9)
    assert g.half_range == 9
    for k in range(-9, 10):
        assert g[k] == f[k]
    h = g.truncated(5)
    np.testing.assert_array_equal(h.coeffs, f.coeffs)
    with pytest.raises(InvalidSequenceError):
        f.extended(3)


def test_seq_json_roundtrip_stores_nonzeros_only():
    f = FourierSeq.from_pairs([(3, 1.5 - 0.5j), (-3, 1.5 + 0.5j)], K=10)
    obj = json.loads(f.to_json())
    assert sorted(obj) == ["coeffs", "half_range"]
    assert len(obj["coeffs"]) == 2  # sparse storage
    g = FourierSeq.from_json(f.to_json())
    assert g.half_range == f.half_range
    np.testing.assert_array_equal(g.coeffs, f.coeffs)
    assert g.is_conj_symmetric()
    # an older file's "real" key is ignored, whatever it says
    for flag in (True, False):
        old = FourierSeq.from_json(json.dumps(dict(obj, real=flag)))
        np.testing.assert_array_equal(old.coeffs, f.coeffs)


def test_sparse_seq_matches_dense():
    # repeated indices are summed; indexing, shifted norms and to_dense agree
    # with the FourierSeq holding the same coefficients
    f = SparseSeq.accumulate([7, -3, 7, 0, 1000], [1.0, 2j, 0.5, 0.0, -4.0])
    np.testing.assert_array_equal(f.idx, [-3, 0, 7, 1000])
    np.testing.assert_array_equal(f.ks(), f.idx)
    assert f[7] == 1.5 and f[-3] == 2j and f[1000] == -4.0
    assert f[0] == 0.0 and f[5] == 0.0 and f[-2000] == 0.0
    d = f.to_dense()
    assert d.half_range == 1000
    assert SparseSeq.accumulate([7, -3], [1.5, 2j]).to_dense()[-3] == 2j
    w = Weight(0.5)
    for l in (0, 3, -999):
        assert shifted_norm(f, w, -0.25, l) == shifted_norm(d, w, -0.25, l)
    assert norm(f, w, -0.25, math.inf) == norm(d, w, -0.25, math.inf)


def test_sparse_seq_rejects_unsorted_support():
    with pytest.raises(InvalidSequenceError):
        SparseSeq(np.array([2, 1]), np.array([1.0, 1.0]))
    with pytest.raises(InvalidSequenceError):
        SparseSeq(np.array([1, 1]), np.array([1.0, 1.0]))
    with pytest.raises(InvalidSequenceError):
        SparseSeq(np.array([1, 2]), np.array([1.0]))
    empty = SparseSeq.accumulate([], [])
    assert empty.idx.size == 0 and empty[0] == 0.0
    assert shifted_norm(empty, None, 0.0, 5) == 0.0


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def norm_oracle(f, w, s, p):
    total = 0.0
    sup = 0.0
    for k in range(-f.half_range, f.half_range + 1):
        wk = 1.0 if w is None else w(k)
        t = wk * (1.0 + abs(k)) ** s * abs(f[k])
        sup = max(sup, t)
        total += t ** p if not math.isinf(p) else 0.0
    return sup if math.isinf(p) else total ** (1.0 / p)


def test_norm_matches_oracle_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        K = int(rng.integers(1, 30))
        f = random_seq(rng, K)
        w = [None, Weight(1.0), Weight(2.0, cap=0.3)][int(rng.integers(3))]
        s = float(rng.uniform(-0.49, 0.0))
        for p in (1.0, 2.0, math.inf):
            assert norm(f, w, s, p) == pytest.approx(norm_oracle(f, w, s, p),
                                                     rel=1e-12)


def test_norm_rejects_p_below_one():
    f = FourierSeq.from_pairs([(0, 1.0)], K=1)
    with pytest.raises(ValueError):
        norm(f, None, 0.0, 0.5)
    with pytest.raises(ValueError):
        norm(f, None, 0.0, math.nan)


def test_norm_zero_sequence():
    f = FourierSeq.zeros(4)
    assert norm(f, None, 0.0, math.inf) == 0.0
    assert norm(f, None, 0.0, 2.0) == 0.0


def test_holder_embedding_p_order():
    # ||f||_{w,s,inf} <= ||f||_{w,s,2} <= ||f||_{w,s,1}
    rng = np.random.default_rng(5)
    for _ in range(20):
        f = random_seq(rng, int(rng.integers(1, 40)))
        s = float(rng.uniform(-0.4, 0.0))
        ninf = norm(f, None, s, math.inf)
        n2 = norm(f, None, s, 2.0)
        n1 = norm(f, None, s, 1.0)
        assert ninf <= n2 * (1 + 1e-12)
        assert n2 <= n1 * (1 + 1e-12)


def test_shifted_norm_matches_oracle():
    rng = np.random.default_rng(17)
    for _ in range(20):
        K = int(rng.integers(1, 20))
        f = random_seq(rng, K)
        l = int(rng.integers(-15, 16))
        s = float(rng.uniform(-0.49, 0.0))
        w = Weight(0.5)
        expect = max(w(k + l) * (1.0 + abs(k + l)) ** s * abs(f[k])
                     for k in range(-K, K + 1))
        assert shifted_norm(f, w, s, l) == pytest.approx(expect, rel=1e-12)


def test_shifted_norm_zero_shift_is_norm():
    rng = np.random.default_rng(23)
    f = random_seq(rng, 12)
    assert shifted_norm(f, None, -0.25, 0) == pytest.approx(
        norm(f, None, -0.25, math.inf), rel=1e-14)


_coeff = st.one_of(
    st.just(0j), st.just(complex(-0.0, -0.0)),
    st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                       allow_infinity=False))


@st.composite
def _seqs(draw):
    # a FourierSeq or a SparseSeq, explicit zeros, empty and all-zero included
    if draw(st.booleans()):
        size = 2 * draw(st.integers(0, 40)) + 1
        return FourierSeq(draw(st.lists(_coeff, min_size=size,
                                        max_size=size)))
    idx = sorted(draw(st.sets(st.integers(-10 ** 6, 10 ** 6), max_size=12)))
    return SparseSeq(np.array(idx, dtype=np.int64),
                     np.array(draw(st.lists(_coeff, min_size=len(idx),
                                            max_size=len(idx))),
                              dtype=complex))


_weights = st.one_of(
    st.none(),
    st.floats(0.0, 3.0).map(Weight),
    st.tuples(st.floats(0.0, 3.0), st.floats(0.01, 2.0)).map(
        lambda a: Weight(a[0], cap=a[1])))


@settings(max_examples=200, deadline=None)
@given(f=_seqs(), w=_weights,
       s=st.floats(-0.5, 0.0, exclude_min=True),
       l=st.integers(-10 ** 6, 10 ** 6))
def test_sup_norms_equal_dense_profile_max(f, w, s, l):
    # the sup norms read only the support, and return the same float as the
    # max of the dense profile
    assert norm(f, w, s, math.inf) == weight_profile(f, w, s).max(initial=0.0)
    assert shifted_norm(f, w, s, l) == \
        weight_profile(SparseSeq(f.ks() + l, f.coeffs), w, s).max(initial=0.0)


@pytest.mark.parametrize("nan", [complex(math.nan, 0.0), complex(0.0, math.nan)])
def test_sup_norms_propagate_nan(nan):
    dense = FourierSeq(np.array([0.0, 1.0, nan, 0.0, 2.0]))
    sparse = SparseSeq.accumulate([-7, 3], [1.0, nan])
    for f in (dense, sparse):
        assert math.isnan(norm(f, None, -0.25, math.inf))
        assert math.isnan(shifted_norm(f, Weight(1.0), 0.0, 5))


def test_sup_norm_allocates_on_support_only():
    # a sup norm of a wide, sparse FourierSeq allocates no O(K) float arrays
    f = FourierSeq.from_pairs([(-5, 1.0), (0, 2j), (7, -3.0)], K=10 ** 6)
    w = Weight(1.0)
    tracemalloc.start()
    try:
        vals = (norm(f, w, -0.25, math.inf), shifted_norm(f, w, -0.25, 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert vals == pytest.approx((3.0 * 8.0 ** 0.75, 3.0 * 11.0 ** 0.75),
                                 rel=1e-15)
    assert peak < f.coeffs.nbytes / 4


def test_sparse_finite_p_norm_matches_dense():
    rng = np.random.default_rng(41)
    cases = [SparseSeq.accumulate([-3, 2, 5], [1.0, 2.0, 0.5])]
    for _ in range(10):
        idx = rng.choice(np.arange(-500, 501), size=int(rng.integers(1, 40)),
                         replace=False)
        vals = rng.normal(size=idx.size) + 1j * rng.normal(size=idx.size)
        vals[rng.random(idx.size) < 0.2] = 0.0
        cases.append(SparseSeq.accumulate(idx, vals))
    for f in cases:
        for w, s, p in ((None, 0.0, 2.0), (Weight(1.0), -0.25, 1.0),
                        (Weight(2.0, cap=0.3), -0.4, 3.0)):
            assert norm(f, w, s, p) == pytest.approx(
                norm(f.to_dense(), w, s, p), rel=1e-14, abs=0)


def test_weight_profile_shape_and_values():
    f = FourierSeq.from_pairs([(1, 2.0), (-1, 2.0)])
    prof = weight_profile(f, None, -1.0)
    np.testing.assert_allclose(prof, [1.0, 0.0, 1.0])  # 2 * <±1>^{-1}


def test_tail_zeroes_low_modes():
    rng = np.random.default_rng(31)
    f = random_seq(rng, 10)
    g = tail(f, 4)
    for k in range(-10, 11):
        assert g[k] == (f[k] if abs(k) >= 4 else 0.0)
    with pytest.raises(ValueError):
        tail(f, 0)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def conv_oracle(a, b):
    K = max(a.half_range, b.half_range)
    out = np.zeros(2 * K + 1, dtype=complex)
    for n in range(-K, K + 1):
        acc = 0j
        for m in range(-b.half_range, b.half_range + 1):
            acc += a[n - m] * b[m]
        out[n + K] = acc
    return out


def test_convolve_matches_double_loop():
    rng = np.random.default_rng(41)
    for _ in range(20):
        Ka = int(rng.integers(1, 25))
        Kb = int(rng.integers(1, 25))
        a = random_seq(rng, Ka)
        b = random_seq(rng, Kb)
        c = convolve(a, b)
        assert c.half_range == max(Ka, Kb)
        np.testing.assert_allclose(c.coeffs, conv_oracle(a, b), atol=1e-10)


def test_convolve_dense_fft_path_matches_oracle():
    # both operands above the sparse threshold forces the FFT branch
    rng = np.random.default_rng(43)
    a = random_seq(rng, 80)
    b = random_seq(rng, 70)
    c = convolve(a, b)
    np.testing.assert_allclose(c.coeffs, conv_oracle(a, b), atol=1e-9)


def test_convolve_sparse_wide_support():
    # sparse masses at far-apart indices: exercises the shift-and-add path
    a = FourierSeq.from_pairs([(500, 2.0), (-500, 2.0)], K=600)
    b = FourierSeq.from_pairs([(100, 1.0), (-3, 4.0)], K=600)
    c = convolve(a, b)
    assert c[600] == 2.0          # 500 + 100
    assert c[497] == 8.0          # 500 - 3
    assert c[-400] == 2.0         # -500 + 100
    assert c[-503] == 8.0
    assert np.count_nonzero(c.coeffs) == 4


def test_convolve_identity():
    rng = np.random.default_rng(47)
    f = random_seq(rng, 9)
    delta = FourierSeq.from_pairs([(0, 1.0)], K=1)
    c = convolve(f, delta)
    np.testing.assert_allclose(c.coeffs, f.coeffs, atol=1e-14)


def test_convolve_keeps_conj_symmetry():
    rng = np.random.default_rng(53)
    a = random_seq(rng, 6, real=True)
    b = random_seq(rng, 4, real=True)
    assert a.is_conj_symmetric() and b.is_conj_symmetric()
    assert convolve(a, b).is_conj_symmetric(1e-12)


def test_convolution_inequality_weighted():
    # ||f*g||_{w,s,inf} <= C ||f||_{w,s,inf} ||g||_{w,|s|,1} style control:
    # check the elementary bound ||f*g||_inf <= ||f||_inf ||g||_1 (trivial
    # weight, s = 0) on random data
    rng = np.random.default_rng(59)
    for _ in range(10):
        f = random_seq(rng, int(rng.integers(2, 20)))
        g = random_seq(rng, int(rng.integers(2, 20)))
        lhs = norm(convolve(f, g), None, 0.0, math.inf)
        rhs = norm(f, None, 0.0, math.inf) * norm(g, None, 0.0, 1.0)
        assert lhs <= rhs * (1 + 1e-12)


# ---------------------------------------------------------------------------
# hilbert_sum
# ---------------------------------------------------------------------------

def hilbert_oracle(n, sigma, M=2_000_000):
    m = np.arange(-M, M + 1)
    m = m[np.abs(m) != n]
    body = float(np.sum(np.sort(np.abs(m * m - n * n) ** (-sigma))))
    # both tails, leading order: 2 int_{M+1/2}^inf x^{-2 sigma} dx
    tail = 2.0 * (M + 0.5) ** (1.0 - 2.0 * sigma) / (2.0 * sigma - 1.0)
    return body + tail


def test_hilbert_sum_matches_direct():
    for n, sigma in [(1, 2.0), (4, 1.0), (16, 0.75), (64, 0.6)]:
        got = hilbert_sum(n, sigma)
        want = hilbert_oracle(n, sigma)
        assert got == pytest.approx(want, rel=1e-6)


def test_hilbert_sum_sigma_one_closed_form():
    # partial fractions telescope:
    #   S(n, 1) = 1/n^2 + (1/n) [H_{2n} + H_{n-1} + H_{2n-1} - H_n]
    def H(k):
        return sum(1.0 / j for j in range(1, k + 1))
    for n in (1, 3, 10, 50):
        want = 1.0 / n ** 2 + (H(2 * n) + H(n - 1) + H(2 * n - 1) - H(n)) / n
        assert hilbert_sum(n, 1.0) == pytest.approx(want, rel=1e-8)


def test_hilbert_sum_list_matches_scalar_calls():
    ns = [1, 2, 3, 7, 64, 1000, 4096]
    for sigma in (0.55, 0.75, 1.0, 2.0):
        got = hilbert_sum(ns, sigma)
        assert isinstance(got, np.ndarray) and got.shape == (len(ns),)
        want = [hilbert_sum(n, sigma) for n in ns]
        assert all(isinstance(w, float) for w in want)
        assert got.tolist() == want  # same table entries, same slices


@pytest.mark.parametrize("sigma", [0.55, 0.75, 1.0, 2.0])
def test_hilbert_sum_tail_matches_quadrature(sigma):
    # the infinite sum: the oracle sums the body |m| <= M = 4n with fsum and
    # each tail m > M by abel_plana_tail, with the integral over x > M + 1
    # of (x^2 - n^2)^{-sigma} by quad after v = x^{1 - 2 sigma}, which leaves
    # a smooth integrand on a finite interval; the tails are up to 84 % of S
    from scipy.integrate import quad
    for n in (1, 7, 64, 4096):
        M = 4 * n
        body = math.fsum(abs(m * m - n * n) ** (-sigma)
                         for m in range(-M, M + 1) if abs(m) != n)
        p = 2.0 / (2.0 * sigma - 1.0)
        integral, _ = quad(lambda v: (1.0 - n * n * v ** p) ** (-sigma), 0.0,
                           (M + 1.0) ** (1.0 - 2.0 * sigma), epsabs=0.0,
                           epsrel=2e-14)
        tail = abel_plana_tail(lambda z: (z * z - n * n) ** (-sigma), M + 1,
                               integral / (2.0 * sigma - 1.0))
        assert hilbert_sum(n, sigma) == pytest.approx(body + 2.0 * tail, rel=1e-13)


def test_hilbert_sum_divergent_sigma_rejected():
    with pytest.raises(ValueError):
        hilbert_sum(4, 0.5)
    with pytest.raises(ValueError):
        hilbert_sum(0, 1.0)
    with pytest.raises(ValueError):
        hilbert_sum([3, 0], 1.0)
    with pytest.raises(ValueError):
        hilbert_sum(4, math.nan)


def test_hilbert_sum_decay_in_n():
    # for sigma > 1/2 the sum decays roughly like n^{-2 sigma + 1} (log at
    # sigma = 1); check strict monotone decrease over a dyadic range
    for sigma in (0.75, 1.0, 2.0):
        vals = [hilbert_sum(n, sigma) for n in (8, 16, 32, 64)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

