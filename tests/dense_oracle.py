"""Dense and term-by-term references for the sparse reduction kernel and
the contraction constants, and the uses of the reduction that only tests
make: the Neumann sum K_n f of one sequence and eigenfunction reconstruction.

The package applies V and sums the Neumann series on the exact support of
each iterate, at the offset delta = lambda - n^2 pi^2.  This module redoes
the same sums on FourierSeq arrays: a dense convolution (shift-and-add when
one side has small support, FFT otherwise) and a Neumann series whose every
term is cut to the window |k| <= K, dividing by delta - (k - n)(k + n) pi^2
on the dense array itself (dense_A_inv_Q) where the package divides on the
support.  With a window wide enough to hold the iterates' mass, the two must
agree to rounding.  multiply is V as a sumset convolution, one product per
pair of nonzero coefficients, equal indices summed in the order of supp(q)
from +0.0.  sparse_neumann sums K_n f for one SparseSeq f term by term,
each support found afresh by multiply, where the package sums the series
from V e_n and V e_{-n} of every mode of a batch on one plan in offsets
from the mode (reduction._OffsetPlan); its coefficients must agree with the
package's bit for bit, and its a_n_alt = <K_n V e_{-n}, e_{-n}>, which the
package does not compute, must equal a_n.  With lam_form, sparse_neumann
divides by lambda - (k pi)^2 through apply_A_inv_Q instead, the lambda form
of A_lambda^{-1} Q_n that the package no longer uses, which loses the
digits of n^2 pi^2: an oracle to 1e-12 for n <= 100 only.  in_strip is the
strip S_n that apply_A_inv_Q checks, and NearSingularError its error for a
divisor below 1e-12, which only an f off n's parity can meet.
shifted_galerkin_pair is the dense Galerkin matrix of L - n^2 pi^2 on two
clusters of indices around +-n, whose two eigenvalues nearest 0 are the
offsets of the roots at any n, to eigvalsh's eps ||M||.
shifted_norm is the norm ||f||_{w,s,inf;l} of f e_l that the series' stopping
rule reads at l = +-n (shift_pair), where the package's offset plan
precomputes its weights.  apply_T_n applies T_n = V A_lambda^{-1} Q_n once,
and sample_T_norm estimates ||T_n||_{w,s,inf;+-n} from it by sampling.
divisor_sum evaluates the divisor sum behind c_s, c_s' and hilbert_sum at
one n from its own index array, where the package slices shared power
tables for a whole array of n, and its tails by quadrature (abel_plana_tail),
where the package sums a binomial series of Hurwitz zeta tails.
single_mode_gaps are the gaps of single_mode(c) from its parity blocks in
mpmath at 40 digits, past the rounding of any float64 eigensolver.
kronig_penney_edges are the closed-form periodic edges of the Dirac comb,
whose q_{2n} = c do not decay, and shifted_comb_dirichlet the closed-form
Dirichlet eigenvalues of the comb moved to x = 1/2, q_{2n} = c (-1)^n.
periodic_matrix is the full (2K+1)x(2K+1) periodic Galerkin matrix that the
package only ever handles as two parity blocks; parity_block_gather and
dirichlet_matrix_gather build the parity blocks and the Dirichlet matrix by
gathers through index matrices, the reference for the package's strided
Toeplitz and Hankel views, which must equal them byte for byte.
hermitian_spectrum and hermitian_projector solve
a real potential's parity blocks as complex Hermitian matrices in the e_k
basis (zheevd), where the package solves them as real symmetric ones in the
cos/sin basis.  kernel_vector builds the kernel vector of B_n(xi) that
eigenfunction_reconstruct takes; that function builds the eigenfunction
u + A_xi^{-1} Q_n K_n V u from it, and raises KernelPreconditionError when
u is not in the kernel.  project is the mode projector pair P_n, Q_n = 1 - P_n;
free_projector is P_n as a matrix, the Riesz projector of q = 0, and
op_norm_2_to_inf the L^2 -> L^inf norm of a matrix in the e_k basis.
lex_sort_loop is the lexicographic order as an element-by-element loop over
tie groups, the reference for galerkin._pair_order on pair-structured
inputs.
weakstar_distance is the metric of the weak-star topology on bounded sets
of the sequence spaces.

smooth_real_potential, complex_band_potential and lacunary_potential are
test potentials that more than one test file uses.
"""

import math

import numpy as np
import scipy.linalg
from scipy.optimize import brentq
from scipy.signal import fftconvolve

from hillkdv.galerkin import _pair_order, _parity_block
from hillkdv.sequences import FourierSeq, SparseSeq, norm
from hillkdv.operator import Potential, dirichlet_cos_coeffs
from hillkdv import reduction
from hillkdv.reduction import PI2, StripViolationError, coefficients

_SPARSE_CONV_NNZ = 64


class NearSingularError(ArithmeticError):
    """A divisor of apply_A_inv_Q below 1e-12."""


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
    return FourierSeq(out.copy())


def multiply(q, f):
    """Multiplication operator V: (q f)_n = sum_m q_{n-m} f_m, a SparseSeq on
    the sumset of the supports of q and f (either container); no truncation."""
    qs = q.support
    return SparseSeq.accumulate(np.add.outer(qs.idx, f.ks()).ravel(),
                                np.multiply.outer(qs.coeffs, f.coeffs).ravel())


def shifted_norm(f, w, s, l):
    """||f||_{w,s,inf;l} = sup_k w_{k+l} <k+l>^s |f_k|, the sup norm of f e_l,
    read from the nonzero f_k only."""
    nz = np.flatnonzero(f.coeffs)
    ks = f.idx[nz] if isinstance(f, SparseSeq) else nz - f.half_range
    return norm(SparseSeq(ks + l, f.coeffs[nz]), w, s, math.inf)


def shift_pair(f, ctx, n):
    """max of the shifted norms of f at l = n and l = -n."""
    return max(shifted_norm(f, ctx.q.weight, ctx.s, n),
               shifted_norm(f, ctx.q.weight, ctx.s, -n))


def in_strip(lam, n):
    """Strip S_n = { |Re lambda - n^2 pi^2| <= 12 n }."""
    return abs(lam.real - n * n * math.pi ** 2) <= 12.0 * n + 1e-9


def apply_A_inv_Q(lam, n, f):
    """Inverse of A_lambda = d^2/dx^2 + lambda on the complement of
    span{e_n, e_{-n}}: g_k = f_k / (lambda - (k pi)^2) for k != +-n.
    Takes either container and returns a SparseSeq on f's indices but +-n.

    lambda must lie in the strip S_n.  f may hold indices of either
    parity: where k - n is odd a divisor can vanish inside S_n (n = 1,
    lambda = 0, k = 0), so one below 1e-12 raises NearSingularError.  (The
    package's offsets k - n are all even, and there every divisor is at
    least 15.4 on S_n: reduction._evaluate.)
    """
    lam = complex(lam)
    if n < 1:
        raise ValueError("n must be >= 1")
    if not in_strip(lam, n):
        raise StripViolationError(
            "lambda = %r outside S_%d (|Re lambda - n^2 pi^2| <= 12 n)" % (lam, n))
    ks = f.ks()
    div = lam - (ks * math.pi) ** 2
    keep = np.abs(ks) != n
    small = keep & (np.abs(div) < 1e-12)
    if np.any(small):
        raise NearSingularError(
            "divisor |lambda - (k pi)^2| < 1e-12 at k=%d" % ks[small][0])
    return SparseSeq(ks[keep], f.coeffs[keep] / div[keep])


def apply_T_n(ctx, n, lam, f):
    """T_n(lambda) f = V A_lambda^{-1} Q_n f, on the sumset of supports."""
    return multiply(ctx.q, apply_A_inv_Q(lam, n, f))


def sample_T_norm(ctx, n, lam, rng=None):
    """Sample estimate of ||T_n||_{w,s,inf;+-n}: max shifted-norm ratio over
    unit masses, random probes, and the Neumann iterates V e_{+-n} /
    K_n V e_{+-n} (so coefficient bounds chain through the estimate)."""
    if rng is None:
        rng = np.random.default_rng(1000 + n)
    probes = []
    offsets = [0, 1, -1, 2, -2, 3, 5, 8, 13, 21]
    anchors = [0, n, -n, 2 * n, -2 * n]
    ks = {a + o for a in anchors for o in offsets} - {n, -n}
    for k in sorted(ks)[:64]:
        probes.append(SparseSeq.accumulate([k], [1.0]))
    span = 2 * n + 8
    for _ in range(16):
        idx = rng.integers(-span, span + 1, size=12)
        vals = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        last = dict(zip(idx.tolist(), vals))  # repeated index: last value
        probes.append(SparseSeq.accumulate(list(last), list(last.values())))
    for sign in (+1, -1):
        ve = multiply(ctx.q, SparseSeq.accumulate([sign * n], [1.0]))
        probes.append(ve)
        probes.append(sparse_neumann(ctx, n, lam - n * n * PI2, ve)[0])
    best = 0.0
    for f in probes:
        base = shift_pair(f, ctx, n)
        if base == 0:
            continue
        h = apply_T_n(ctx, n, lam, f)
        best = max(best, shift_pair(h, ctx, n) / base)
    return best


def window(ctx, n):
    """A window that holds the iterates started at +-n: the support spreads
    by at most the potential's half range per hop, and 44 hops lie below
    the Neumann tolerance for the band-limited potentials used here."""
    return max(64, n + 44 * ctx.q.half_range + 16)


def dense_A_inv_Q(delta, n, f):
    """A_lambda^{-1} Q_n f at lambda = n^2 pi^2 + delta on the dense array of
    a FourierSeq: f_k divided by delta - (k - n)(k + n) pi^2, and 0 at
    k = +-n."""
    ks = f.ks()
    keep = np.abs(ks) != n
    safe = np.where(keep, complex(delta) - (ks - n) * (ks + n) * PI2, 1.0)
    return FourierSeq(np.where(keep, f.coeffs / safe, 0.0))


def offset_A_inv_Q(delta, n, f):
    """apply_A_inv_Q at lambda = n^2 pi^2 + delta, dividing by delta -
    (k - n)(k + n) pi^2 as the offset plan does; a SparseSeq on f's indices
    but +-n."""
    ks = f.ks()
    keep = np.abs(ks) != n
    k = ks[keep]
    return SparseSeq(k, f.coeffs[keep] / (complex(delta) - (k - n) * (k + n) * PI2))


def dense_neumann(ctx, n, delta, f, K):
    """sum_l T_n^l f with every term cut to |k| <= K, stopped by the same
    rule as reduction._evaluate.  Returns (sum, terms)."""
    total = f.coeffs.copy()
    term = f
    base = shift_pair(f, ctx, n)
    terms = 1
    for _ in range(reduction.MAX_TERMS):
        term = convolve(ctx.q.seq, dense_A_inv_Q(delta, n, term)).truncated(K)
        tn = shift_pair(term, ctx, n)
        if tn == 0.0:
            break
        total += term.coeffs
        terms += 1
        if tn < reduction.NEUMANN_TOL * max(base, 1e-300):
            break
    return FourierSeq(total), terms


def dense_coefficients(ctx, n, delta, K=None):
    """(a_n, b_n, b_{-n}, terms) from the dense Neumann sums on |k| <= K."""
    if K is None:
        K = window(ctx, n)
    ve_p = convolve(ctx.q.seq, FourierSeq.from_pairs([(n, 1.0)], K=K)).truncated(K)
    ve_m = convolve(ctx.q.seq, FourierSeq.from_pairs([(-n, 1.0)], K=K)).truncated(K)
    h_p, t1 = dense_neumann(ctx, n, delta, ve_p, K)
    h_m, t2 = dense_neumann(ctx, n, delta, ve_m, K)
    return h_p[n], h_m[n], h_p[-n], max(t1, t2)


def sparse_neumann(ctx, n, delta, f, lam_form=False):
    """sum_l T_n^l f at lambda = n^2 pi^2 + delta for a SparseSeq f, one
    multiply(q, offset_A_inv_Q(.)) per term, or multiply(q,
    apply_A_inv_Q(lambda, .)) with lam_form, stopped by the rule of
    reduction._evaluate (whose ratio streak only raises, so it is left
    out).  Returns (sum, terms_used, max_ratio, converged)."""
    if lam_form:
        def a_inv(g):
            return apply_A_inv_Q(n * n * PI2 + delta, n, g)
    else:
        def a_inv(g):
            return offset_A_inv_Q(delta, n, g)
    parts = [f]
    term = f
    base = prev = shift_pair(f, ctx, n)
    max_ratio = 0.0
    converged = False
    for _ in range(reduction.MAX_TERMS):
        term = multiply(ctx.q, a_inv(term))
        tn = shift_pair(term, ctx, n)
        if prev > 0:
            max_ratio = max(max_ratio, tn / prev)
        if tn == 0.0:
            converged = True
            break
        parts.append(term)
        if tn < reduction.NEUMANN_TOL * max(base, 1e-300):
            converged = True
            break
        prev = tn
    return SparseSeq.total(parts), len(parts), max_ratio, converged


def sparse_coefficients(ctx, n, delta, lam_form=False):
    """The fields of reduction.coefficients from sparse_neumann."""
    ve_p = multiply(ctx.q, SparseSeq.accumulate([n], [1.0]))
    ve_m = multiply(ctx.q, SparseSeq.accumulate([-n], [1.0]))
    h_p, t1, r1, ok1 = sparse_neumann(ctx, n, delta, ve_p, lam_form)
    h_m, t2, r2, ok2 = sparse_neumann(ctx, n, delta, ve_m, lam_form)
    return {"a_n": h_p[n], "a_n_alt": h_m[-n], "b_n": h_m[n],
            "b_neg_n": h_p[-n], "terms_used": max(t1, t2),
            "max_ratio": max(r1, r2), "converged": ok1 and ok2}


def shifted_galerkin_pair(ctx, n, W=64):
    """The offsets delta_1 <= delta_2 of the periodic eigenvalues near
    n^2 pi^2 of a real q: the two eigenvalues nearest 0 of the Hermitian
    matrix diag((k - n)(k + n) pi^2) + q_{k-l} on the indices k = +-n + j,
    |j| <= W, j even, by eigvalsh (absolute error about eps ||M||, ||M|| of
    order 2 n W pi^2)."""
    j = np.arange(-W, W + 1, 2)
    ks = np.unique(np.concatenate([n + j, -n + j]))
    d = ks[:, None] - ks[None, :]
    H = ctx.q.half_range
    M = np.where(np.abs(d) <= H, ctx.q.seq.coeffs[np.clip(d + H, 0, 2 * H)], 0.0)
    M[np.diag_indices_from(M)] += (ks - n) * (ks + n) * PI2
    vals = np.linalg.eigvalsh(M)
    return tuple(sorted(vals[np.argsort(np.abs(vals))[:2]]))


def abel_plana_tail(g, N, integral):
    """sum over k >= N of g(k), given integral = the integral of g over
    x > N: by the Abel-Plana formula, integral + g(N)/2 - 2 times the
    integral over t > 0 of Im g(N + it) / (e^{2 pi t} - 1), which quad
    evaluates on 0 < t < 30 (the weight beyond is below e^{-188}).  The
    formula is exact for g real on the real axis, analytic and algebraically
    decaying in Re z >= N, so the only error is quad's: there is no midpoint
    or Euler-Maclaurin remainder to push below 1e-15 by a far reach J_ref
    or a Richardson step."""
    from scipy.integrate import quad
    corr, _ = quad(lambda t: g(N + 1j * t).imag / math.expm1(2.0 * math.pi * t),
                   0.0, 30.0, epsabs=0.0, epsrel=1e-13, limit=200)
    return integral + g(N).real / 2.0 - 2.0 * corr


def divisor_sum(n, a, b):
    """D(n; a, b) = sum over k != +-n of |k+n|^{-a} |k-n|^{-b}, a + b > 1:
    the terms |k| <= J = 4n + 4 from one fresh index array, plus the tails
    |k| > J as abel_plana_tail of g(x) = (x + n)^{-a} (x - n)^{-b} +
    (x - n)^{-a} (x + n)^{-b} from N = J + 1.  After u = 1/x the integral of
    g over x > N is one integral over 0 < u < 1/N of u^{a+b-2} h(u), h smooth
    and even with h(0) = 2: 2 N^{1-a-b} / (a + b - 1), with a + b - 1
    rounded once (it sets D when it is small), plus u^{a+b-2} (h(u) - 2),
    which quad integrates with the algebraic weight u^{a+b-2} (QAWS), so the
    endpoint singularity needs no substitution.  The sum is the infinite one
    to quad's tolerances (2e-14 relative, 1e-16 of the first term absolute),
    not a truncation at J."""
    from scipy.integrate import quad
    J = 4 * n + 4
    k = np.arange(-J, J + 1, dtype=float)
    k = k[np.abs(k) != n]
    body = np.sum(np.abs(k + n) ** (-a) * np.abs(k - n) ** (-b))
    p1 = math.fsum((a, b, -1.0))
    lead = 2.0 * (J + 1.0) ** (-p1) / p1
    rest, _ = quad(lambda u: (1.0 + n * u) ** (-a) * (1.0 - n * u) ** (-b)
                   + (1.0 - n * u) ** (-a) * (1.0 + n * u) ** (-b) - 2.0,
                   0.0, 1.0 / (J + 1), weight="alg", wvar=(a + b - 2.0, 0.0),
                   epsabs=1e-16 * lead, epsrel=2e-14)
    tails = abel_plana_tail(lambda z: (z + n) ** (-a) * (z - n) ** (-b)
                            + (z - n) ** (-a) * (z + n) ** (-b), J + 1,
                            lead + rest)
    return float(body + tails)


def single_mode_gaps(c, ns, K=24, dps=40):
    """The gaps lambda_n^+ - lambda_n^- of Potential.single_mode(c) (q_{+-2}
    = c, real) for n in ns, each from the parity block of n at half range K
    in mpmath at dps digits: the chain k = -K..K of n's parity, tridiagonal
    with diagonal (k pi)^2 and off-diagonal c, solved by mp.eigsy.  Its
    ascending eigenvalues are lambda_n^- and lambda_n^+ at places n - 1
    and n."""
    import mpmath
    out = []
    with mpmath.workdps(dps):
        for n in ns:
            ks = range(-K + (K + n) % 2, K + 1, 2)
            A = mpmath.matrix(len(ks))
            for i, k in enumerate(ks):
                A[i, i] = (k * mpmath.pi) ** 2
                if i:
                    A[i, i - 1] = A[i - 1, i] = mpmath.mpf(c)
            ev = sorted(mpmath.eigsy(A, eigvals_only=True))
            out.append(float(ev[n] - ev[n - 1]))
    return out


def kronig_penney_edges(c, n):
    """The periodic edges (lambda_n^-, lambda_n^+) of the Dirac comb q = c
    sum_j delta(x - j) - c, c > 0, whose coefficients q_{2n} = c for n != 0
    are those of Potential.power_law(c, 0.0, n_max) without the cut at
    n_max.  With mu = lambda + c the discriminant is Delta(mu) = 2 cos k +
    c sin k / k, k = sqrt(mu), and the edges near n^2 pi^2 solve Delta =
    2 (-1)^n.  At k = n pi + x this reads 2 sin(x/2) (c cos(x/2) / k -
    2 sin(x/2)) = 0: one edge is x = 0, mu = n^2 pi^2; the other has
    tan(x/2) = c / (2 k), found by brentq on x in (0, 1) (x ~ c/(n pi), so
    the gap (n pi + x)^2 - n^2 pi^2 tends to 2c)."""
    npi = n * math.pi
    x = brentq(lambda x: c * math.cos(x / 2) / (npi + x) - 2 * math.sin(x / 2),
               0.0, 1.0, xtol=1e-16, rtol=4 * np.finfo(float).eps)
    return npi * npi - c, (npi + x) ** 2 - c


def shifted_comb_dirichlet(c, n):
    """The Dirichlet eigenvalue mu_n on [0, 1] of the Dirac comb moved to
    x = 1/2, q = c sum_j delta(x - 1/2 - j) - c, whose coefficients are
    q_{2n} = c (-1)^n for n != 0.  The eigenfunctions odd about 1/2 (even
    n) vanish at the delta: mu_n = n^2 pi^2 - c.  The even ones (odd n) are
    sin(kappa x) on [0, 1/2], where the jump y'(1/2+) - y'(1/2-) = c y(1/2)
    reads 2 kappa cos(kappa/2) + c sin(kappa/2) = 0, with kappa in
    (n pi, (n + 1) pi), found by brentq: mu_n = kappa^2 - c."""
    npi = n * math.pi
    if n % 2 == 0:
        return npi * npi - c
    kappa = brentq(lambda k: 2 * k * math.cos(k / 2) + c * math.sin(k / 2),
                   npi, npi + math.pi, xtol=1e-16, rtol=4 * np.finfo(float).eps)
    return kappa * kappa - c


def periodic_matrix(q, K):
    """M[k, l] = (k pi)^2 delta_kl + q_{k-l} over k, l in {-K..K}."""
    ks = np.arange(-K, K + 1)
    col = np.array([q.coeff(d) for d in range(0, 2 * K + 1)])
    row = np.array([q.coeff(-d) for d in range(0, 2 * K + 1)])
    M = scipy.linalg.toeplitz(col, row).astype(complex)
    M[np.diag_indices_from(M)] += (ks * math.pi) ** 2
    return M


def parity_block_gather(q, K, parity):
    """galerkin._parity_block gathered through the index matrix i - j + m - 1
    of c, q_{2j} at j + m - 1."""
    ks = np.arange(-K + (K + parity) % 2, K + 1, 2)
    m, H = ks.size, q.half_range
    d = min(m - 1, H // 2)
    c = np.zeros(2 * m - 1, dtype=complex)
    c[m - 1 - d:m + d] = q.seq.coeffs[H - 2 * d:H + 2 * d + 1:2]
    i = np.arange(m)
    B = c[i[:, None] - i[None, :] + m - 1]
    B[np.diag_indices_from(B)] += (ks * math.pi) ** 2
    return B


def dirichlet_matrix_gather(q, K):
    """galerkin.dirichlet_matrix gathered through the index matrices |i - j|
    and i + j of the cosine pairings qc (real parts for a real q)."""
    qc = dirichlet_cos_coeffs(q, K)
    if q.is_real():
        qc = qc.real
    m = np.arange(1, K + 1)
    D = qc[np.abs(m[:, None] - m[None, :])] - qc[m[:, None] + m[None, :]]
    D[np.diag_indices_from(D)] += (m * math.pi) ** 2
    return D


def hermitian_spectrum(q, K):
    """periodic_spectrum(q, K).periodic of a real q, from eigvalsh on the
    complex parity blocks."""
    vals = [np.linalg.eigvalsh(_parity_block(q, K, parity)) for parity in (0, 1)]
    return _pair_order(np.concatenate(vals).astype(complex), K * K * PI2)


def hermitian_projector(q, n, K):
    """riesz_projector(q, n, K)[0] of a real q whose contour separates the
    pair, from eigh on the complex block of n's parity."""
    lam, Z = np.linalg.eigh(_parity_block(q, K, n % 2))
    Z1 = Z[:, np.abs(lam - n * n * PI2) < n]
    R = np.zeros((2 * K + 1, 2 * K + 1), dtype=complex)
    first = (K + n) % 2
    R[first::2, first::2] = Z1 @ Z1.conj().T
    return R


def kernel_vector(ctx, n, xi):
    """A kernel vector of B_n(xi): u = (b_n, xi - n^2 pi^2 - a_n), normalized."""
    c = coefficients(ctx, n, xi)
    d = c.delta - c.a_n
    u = np.array([c.b_n, d], dtype=complex)
    if np.linalg.norm(u) == 0:
        u = np.array([1.0, 0.0], dtype=complex)
    return u / np.linalg.norm(u)


class KernelPreconditionError(ValueError):
    pass


def eigenfunction_reconstruct(ctx, n, xi, u_coeffs):
    """Eigenfunction f = u + A_xi^{-1} Q_n K_n V u from a kernel vector
    u = u_plus e_n + u_minus e_{-n} of B_n(xi).

    Returns (f, report) where the report carries the relative residual of
    (L - xi) f measured in the (s-2)-weighted sup norm against ||f||_{w,s,inf},
    and the smoother-decay sup (s+2 weight) as a regularity diagnostic.
    """
    u_plus, u_minus = complex(u_coeffs[0]), complex(u_coeffs[1])
    c = coefficients(ctx, n, xi)
    d = c.delta - c.a_n
    bu = np.array([d * u_plus - c.b_n * u_minus,
                   -c.b_neg_n * u_plus + d * u_minus])
    unorm = math.hypot(abs(u_plus), abs(u_minus))
    if unorm == 0 or np.linalg.norm(bu) > 1e-6 * unorm * max(1.0, abs(d)):
        raise KernelPreconditionError(
            "u is not in the kernel of B_n(xi): |B u| = %g" % np.linalg.norm(bu))
    u = SparseSeq.accumulate([n, -n], [u_plus, u_minus])
    k = sparse_neumann(ctx, n, c.delta, multiply(ctx.q, u))[0]
    f = SparseSeq.total([u, apply_A_inv_Q(xi, n, k)])
    res = SparseSeq.total([multiply(ctx.q, f), SparseSeq(
        f.idx, ((f.idx * math.pi) ** 2 - xi) * f.coeffs)])
    res_norm = norm(res, ctx.q.weight, ctx.s - 2.0, math.inf)
    f_norm = norm(f, ctx.q.weight, ctx.s, math.inf)
    reg_sup = norm(f, ctx.q.weight, ctx.s + 2.0, math.inf)
    report = {"residual_s_minus_2": float(res_norm),
              "f_norm": float(f_norm),
              "relative_residual": float(res_norm / max(f_norm, 1e-300)),
              "reg_sup_s_plus_2": float(reg_sup)}
    return f.to_dense(), report


def free_projector(n, K):
    """P_n for q = 0: mass on modes +-n (in the truncated basis)."""
    P = np.zeros((2 * K + 1, 2 * K + 1), dtype=complex)
    P[K + n, K + n] = 1.0
    P[K - n, K - n] = 1.0
    return P


def op_norm_2_to_inf(A, K, grid=None):
    """L^2 -> L^infty norm of the operator with matrix A in the e_k basis:
    sup_x || row functional ||_2 with (Af)(x) = sum_k (Af)_k e^{i pi k x}."""
    if grid is None:
        grid = np.linspace(0.0, 2.0, 8 * K + 9, endpoint=False)
    ks = np.arange(-K, K + 1)
    E = np.exp(1j * math.pi * grid[:, None] * ks[None, :])
    rows = E @ A
    return float(np.max(np.linalg.norm(rows, axis=1)))


def lex_sort_loop(vals, tie_scale=1.0):
    """The lexicographic order as a loop over the Re-sorted values: each tie
    group grows from its first element, then is sorted by Im and by runs of
    Im values apart by rounding only.  On inputs whose every tie group is a
    single value or the pair at positions (2n - 1, 2n) it is
    galerkin._pair_order's order."""
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
    return FourierSeq(c)


def weakstar_distance(f, g):
    """d(f, g) = max_k 2^{-|k|} |f_k - g_k| over |k| <= the smaller half
    range of two FourierSeq.  The weight 2^{-|k|} is fixed and summable.
    On a bounded set of Fl^{s,inf} = (Fl^{-s,1})*, |f_k| <= B <k>^{-s},
    weak-star convergence is convergence of every component, and d
    metrizes it: each component is weighted by a positive constant, and the
    modes |k| > N add at most 2B sup_{|k| > N} 2^{-|k|} <k>^{-s}, which
    tends to 0 with N for every s.  A norm distance sup_k <k>^s |f_k - g_k| stays macroscopic on
    families, such as the Airy flow as t -> 0 or a bump e_k as k -> inf,
    whose d tends to 0."""
    K = min(f.half_range, g.half_range)
    ks = np.arange(-K, K + 1)
    diff = f.coeffs[f.index(ks)] - g.coeffs[g.index(ks)]
    return float(np.max(0.5 ** np.abs(ks) * np.abs(diff)))


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


def complex_band_potential(seed=1, n_max=16, amp=0.05):
    """Non-self-adjoint q with |q_{+-2n}| = amp (1+n)^{-1/2} for n <= n_max,
    q_{2n} and q_{-2n} with independent seeded phases."""
    rng = np.random.default_rng(seed)
    mags = amp * (1.0 + np.arange(1, n_max + 1)) ** -0.5
    plus, minus = (mags * np.exp(2j * np.pi * rng.uniform(size=n_max))
                   for _ in range(2))
    pairs = [(m, v) for m, v in enumerate(plus, 1)]
    pairs += [(-m, v) for m, v in enumerate(minus, 1)]
    return Potential.from_even_pairs(pairs, n_max=n_max)


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
