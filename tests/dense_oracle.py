"""Dense and term-by-term references for the sparse reduction kernel and
the contraction constants.

The package applies V and sums the Neumann series on the exact support of
each iterate.  This module redoes the same sums on FourierSeq arrays: a
dense convolution (shift-and-add when one side has small support, FFT
otherwise) and a Neumann series whose every term is cut to the window
|k| <= K.  With a window wide enough to hold the iterates' mass, the two
must agree to rounding.  sparse_neumann sums the series on SparseSeqs term
by term, each support found afresh by multiply, where the package reuses
one support plan for every lambda at n; the two must agree bit for bit.
divisor_sum evaluates the divisor sum behind c_s, c_s' and hilbert_sum at
one n from its own index array, where the package slices shared power
tables for a whole array of n.  periodic_matrix is the full (2K+1)x(2K+1)
periodic Galerkin matrix that the package only ever handles as two parity
blocks.  kernel_vector builds the kernel vector of B_n(xi) that
eigenfunction_reconstruct takes.  project is the mode projector pair P_n,
Q_n = 1 - P_n.  lex_sort_loop is the element-by-element loop behind
galerkin._lex_sort.

smooth_real_potential and lacunary_potential are test potentials that more
than one test file uses.
"""

import math

import numpy as np
import scipy.linalg
from scipy.signal import fftconvolve

from hillkdv.sequences import FourierSeq, SparseSeq, shifted_norm
from hillkdv.operator import Potential, apply_A_inv_Q, multiply
from hillkdv.reduction import PI2, coefficients

_SPARSE_CONV_NNZ = 64


def _convolve_arrays(a, b):
    """Full linear convolution; ascending-index shift-and-add when one side
    has small support, FFT otherwise."""
    nza = np.flatnonzero(a)
    nzb = np.flatnonzero(b)
    out = np.zeros(a.size + b.size - 1, dtype=complex)
    if nza.size == 0 or nzb.size == 0:
        return out
    if min(nza.size, nzb.size) > _SPARSE_CONV_NNZ:
        return fftconvolve(a, b)
    # loop over the sparser operand, ascending index
    if nzb.size <= nza.size:
        for j in nzb:
            out[j:j + a.size] += a * b[j]
    else:
        for j in nza:
            out[j:j + b.size] += b * a[j]
    return out


def convolve(a, b):
    """(a*b)_n = sum_m a_{n-m} b_m, truncated to half range max(K_a, K_b)."""
    Ka, Kb = a.half_range, b.half_range
    K = max(Ka, Kb)
    full = _convolve_arrays(a.coeffs, b.coeffs)  # indices -(Ka+Kb) .. Ka+Kb
    mid = Ka + Kb
    out = full[mid - K:mid + K + 1]
    return FourierSeq(out.copy(),
                      real=a.real and b.real,
                      one_periodic=a.one_periodic and b.one_periodic)


def window(ctx, n):
    """A window that holds the iterates started at +-n: the support spreads
    by at most the potential's half range per hop, and 44 hops lie below
    the Neumann tolerance for the band-limited potentials used here."""
    return max(64, n + 44 * ctx.q.half_range + 16)


def dense_neumann(ctx, n, lam, f, K):
    """sum_l T_n^l f with every term cut to |k| <= K, stopped by the same
    rule as reduction.neumann_K_n.  Returns (sum, terms)."""
    def size(g):
        return max(shifted_norm(g, ctx.w, ctx.s, n),
                   shifted_norm(g, ctx.w, ctx.s, -n))

    total = f.coeffs.copy()
    term = f
    base = size(f)
    terms = 1
    for _ in range(ctx.max_terms):
        term = convolve(ctx.q.seq, apply_A_inv_Q(lam, n, term)).truncated(K)
        tn = size(term)
        if tn == 0.0:
            break
        total += term.coeffs
        terms += 1
        if tn < ctx.neumann_tol * max(base, 1e-300):
            break
    return FourierSeq(total), terms


def dense_coefficients(ctx, n, lam, K=None):
    """(a_n, b_n, b_{-n}, terms) from the dense Neumann sums on |k| <= K."""
    if K is None:
        K = window(ctx, n)
    ve_p = convolve(ctx.q.seq, FourierSeq.from_pairs([(n, 1.0)], K=K)).truncated(K)
    ve_m = convolve(ctx.q.seq, FourierSeq.from_pairs([(-n, 1.0)], K=K)).truncated(K)
    h_p, t1 = dense_neumann(ctx, n, lam, ve_p, K)
    h_m, t2 = dense_neumann(ctx, n, lam, ve_m, K)
    return h_p[n], h_m[n], h_p[-n], max(t1, t2)


def sparse_neumann(ctx, n, lam, f):
    """sum_l T_n^l f for a SparseSeq f, one multiply(q, apply_A_inv_Q(.))
    per term, stopped by the rule of reduction.neumann_K_n (whose ratio
    streak only raises, so it is left out).  Returns (sum, terms_used,
    max_ratio, converged)."""
    def size(g):
        return max(shifted_norm(g, ctx.w, ctx.s, n),
                   shifted_norm(g, ctx.w, ctx.s, -n))

    parts = [f]
    term = f
    base = prev = size(f)
    max_ratio = 0.0
    converged = False
    for _ in range(ctx.max_terms):
        term = multiply(ctx.q, apply_A_inv_Q(lam, n, term))
        tn = size(term)
        if prev > 0:
            max_ratio = max(max_ratio, tn / prev)
        if tn == 0.0:
            converged = True
            break
        parts.append(term)
        if tn < ctx.neumann_tol * max(base, 1e-300):
            converged = True
            break
        prev = tn
    return SparseSeq.total(parts), len(parts), max_ratio, converged


def sparse_coefficients(ctx, n, lam):
    """The fields of reduction.coefficients from sparse_neumann."""
    ve_p = multiply(ctx.q, SparseSeq.accumulate([n], [1.0]))
    ve_m = multiply(ctx.q, SparseSeq.accumulate([-n], [1.0]))
    h_p, t1, r1, ok1 = sparse_neumann(ctx, n, lam, ve_p)
    h_m, t2, r2, ok2 = sparse_neumann(ctx, n, lam, ve_m)
    return {"a_n": h_p[n], "a_n_alt": h_m[-n], "b_n": h_m[n],
            "b_neg_n": h_p[-n], "terms_used": max(t1, t2),
            "max_ratio": max(r1, r2), "converged": ok1 and ok2}


def divisor_sum(n, a, b, J):
    """D(n; a, b) = sum over k != +-n of |k+n|^{-a} |k-n|^{-b}: the terms
    |k| <= J from one fresh index array, plus the integrals over x > J + 1/2
    of (x +- n)^{-a} (x -+ n)^{-b}.  After u = 1/x the tails are one integral
    over 0 < u < 1/(J + 1/2) of u^{a+b-2} times a smooth factor, which quad
    integrates with the algebraic weight u^{a+b-2} (QAWS), so the endpoint
    singularity needs no substitution."""
    from scipy.integrate import quad
    k = np.arange(-J, J + 1, dtype=float)
    k = k[np.abs(k) != n]
    body = np.sum(np.abs(k + n) ** (-a) * np.abs(k - n) ** (-b))
    tails, _ = quad(lambda u: (1.0 + n * u) ** (-a) * (1.0 - n * u) ** (-b)
                    + (1.0 - n * u) ** (-a) * (1.0 + n * u) ** (-b),
                    0.0, 1.0 / (J + 0.5), weight="alg", wvar=(a + b - 2.0, 0.0),
                    epsabs=0.0, epsrel=2e-14)
    return float(body + tails)


def periodic_matrix(q, K):
    """M[k, l] = (k pi)^2 delta_kl + q_{k-l} over k, l in {-K..K}."""
    ks = np.arange(-K, K + 1)
    col = np.array([q.coeff(d) for d in range(0, 2 * K + 1)])
    row = np.array([q.coeff(-d) for d in range(0, 2 * K + 1)])
    M = scipy.linalg.toeplitz(col, row).astype(complex)
    M[np.diag_indices_from(M)] += (ks * math.pi) ** 2
    return M


def kernel_vector(ctx, n, xi):
    """A kernel vector of B_n(xi): u = (b_n, xi - n^2 pi^2 - a_n), normalized."""
    c = coefficients(ctx, n, xi)
    d = xi - n * n * PI2 - c.a_n
    u = np.array([c.b_n, d], dtype=complex)
    if np.linalg.norm(u) == 0:
        u = np.array([1.0, 0.0], dtype=complex)
    return u / np.linalg.norm(u)


def lex_sort_loop(vals, tie_scale=1.0):
    """galerkin._lex_sort as a loop over the Re-sorted values: each tie group
    grows from its first element, then is sorted by Im and by runs of Im
    values apart by rounding only."""
    vals = np.asarray(vals)
    order = np.argsort(vals.real, kind="stable")
    v = vals[order]
    scale = max(1.0, float(np.max(np.abs(v.real), initial=1.0)), tie_scale)
    tol, im_tol = 1e-10 * scale, 64 * np.finfo(float).eps * scale
    i = 0
    while i < v.size:
        j = i + 1
        while j < v.size and v[j].real - v[i].real <= tol:
            j += 1
        if j - i > 1:
            g = v[i:j][np.argsort(v[i:j].imag, kind="stable")]
            run = np.r_[0, np.cumsum(np.diff(g.imag) > im_tol)]
            v[i:j] = g[np.lexsort((g.real, run))]
        i = j
    return v


def project(n, f, which):
    """P keeps modes +-n, Q zeroes them; P(f) + Q(f) = f."""
    if n < 1:
        raise ValueError("n must be >= 1")
    on_pn = np.abs(f.ks()) == n
    if which == "P":
        c = np.where(on_pn, f.coeffs, 0.0)
    elif which == "Q":
        c = np.where(on_pn, 0.0, f.coeffs)
    else:
        raise ValueError("which must be 'P' or 'Q'")
    return FourierSeq(c, real=f.real)


def smooth_real_potential(seed=7, n_max=26, amp=0.05):
    """Real q with |q_{2n}| = amp (1+n)^{-1/2} and seeded phases, n <= n_max:
    the potential of acceptance criteria 2 to 4."""
    rng = np.random.default_rng(seed)
    pairs = []
    for n in range(1, n_max + 1):
        v = amp * (1 + n) ** -0.5 * np.exp(1j * rng.uniform(0, 2 * np.pi))
        pairs.append((n, v))
        pairs.append((-n, np.conj(v)))
    return Potential.from_even_pairs(pairs, n_max=n_max, s=0.0)


LACUNARY_NS = (8, 12, 16, 24, 32, 48, 64)
LACUNARY_C = 0.02


def lacunary_potential():
    """Acceptance criterion 12's lacunary family: q_{+-2(n-1)} =
    LACUNARY_C (n-1)^{3/4} for n in LACUNARY_NS, couplings of e_n and
    e_{-n+2}."""
    pairs = []
    for n in LACUNARY_NS:
        v = LACUNARY_C * (n - 1) ** 0.75
        pairs += [(n - 1, v), (-(n - 1), v)]
    return Potential.from_even_pairs(pairs, n_max=64, s=0.0)
