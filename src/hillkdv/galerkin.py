"""Dense Galerkin reference spectra for the Hill operator.

Periodic problem: (2K+1)x(2K+1) matrix M[k,l] = (k pi)^2 delta_{kl} + q_{k-l}
over k, l in {-K..K}.  A 1-periodic q has no odd modes, so M couples k and l
only when k - l is even and splits into two parity blocks: the even-k block
is the periodic problem on [0,1], the odd-k block the antiperiodic one.  Both
are the Toeplitz matrix q_{2(i-j)} of the even coefficients plus their own
diagonal (k pi)^2, and the solvers work on the blocks, never on M.
Dirichlet problem on [0,1]: KxK sine-basis matrix
D[m,n] = (m pi)^2 delta_{mn} + (q^cos_{m-n} - q^cos_{m+n}) over m, n >= 1,
obtained by folding the ZZ-indexed expansion with the antisymmetry
f^sin_{-n} = -f^sin_n; the odd cosine pairings do not vanish, so D does not
split.  These solvers are the oracle for the reduction module; truncation
trust is certified conservatively.  The Riesz projector onto the pair
lambda_n^+- is the spectral (Schur) projector of the block of n's parity.
"""

from dataclasses import dataclass, field
import math

import numpy as np
import scipy.linalg

from .operator import Potential, dirichlet_cos_coeffs
from .sequences import bracket


class SeparationError(ValueError):
    pass


PI2 = math.pi ** 2


def _lex_sort(vals, tie_scale=1.0):
    """Lexicographic order: Re nondecreasing, near-ties broken by Im.

    With scale = max(1, max |Re|, tie_scale), Re values within 1e-10 * scale
    are tied.  Within a tie, Im values within 64 eps * scale differ by
    rounding only: they keep their Re order, and larger Im differences
    decide the order.
    """
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
            # runs of Im values apart by rounding only, in Im order
            run = np.r_[0, np.cumsum(np.diff(g.imag) > im_tol)]
            v[i:j] = g[np.lexsort((g.real, run))]
        i = j
    return v


def trust_count(K):
    """Largest n whose strip S_n sits well inside the resolved symbol range:
    n^2 pi^2 + 12 n < ((K-2) pi)^2 / 4 (safety factor 4)."""
    bound = ((K - 2) * math.pi) ** 2 / 4.0
    n = int(math.isqrt(int(bound / PI2)) + 2)
    while n >= 1 and n * n * PI2 + 12.0 * n >= bound:
        n -= 1
    return max(n, 1)


@dataclass
class SpectrumResult:
    """Ordered spectra: periodic list lambda_0^+, lambda_1^-, lambda_1^+, ...
    and Dirichlet list mu_1, mu_2, ...; trust_count caps the certified n."""
    periodic: np.ndarray | None = None
    dirichlet: np.ndarray | None = None
    K: int = 0
    trust: int = 0

    def lam_minus(self, n):
        return complex(self.periodic[2 * n - 1])

    def lam_plus(self, n):
        return complex(self.periodic[2 * n])

    def mu(self, n):
        return complex(self.dirichlet[n - 1])

    def gaps(self):
        n = np.arange(1, self.trust + 1)
        return self.periodic[2 * n] - self.periodic[2 * n - 1]

    def midpoints(self):
        n = np.arange(1, self.trust + 1)
        return 0.5 * (self.periodic[2 * n] + self.periodic[2 * n - 1])


def periodic_matrix(q, K):
    ks = np.arange(-K, K + 1)
    col = np.array([q.coeff(d) for d in range(0, 2 * K + 1)])
    row = np.array([q.coeff(-d) for d in range(0, 2 * K + 1)])
    M = scipy.linalg.toeplitz(col, row).astype(complex)
    M[np.diag_indices_from(M)] += (ks * math.pi) ** 2
    return M


def _parity_block(q, K, parity):
    """(ks, B): the block of M on the k in [-K, K] of the given parity, the
    Toeplitz matrix q_{2(i-j)} plus the diagonal (k pi)^2."""
    ks = np.arange(-K + (K + parity) % 2, K + 1, 2)
    m, H = ks.size, q.half_range
    d = min(m - 1, H // 2)
    c = np.zeros(2 * m - 1, dtype=complex)  # q_{2j} at j + m - 1, |j| < m
    c[m - 1 - d:m + d] = q.seq.coeffs[H - 2 * d:H + 2 * d + 1:2]
    B = scipy.linalg.toeplitz(c[m - 1:], c[m - 1::-1])
    B[np.diag_indices_from(B)] += (ks * math.pi) ** 2
    return ks, B


def periodic_spectrum(q, K):
    if K < 16:
        raise ValueError("K must be >= 16")
    vals = []
    for parity in (0, 1):
        B = _parity_block(q, K, parity)[1]
        # scipy's OpenBLAS, as in riesz_projector: one thread pool for all solves
        if q.is_real():
            vals.append(scipy.linalg.eigvalsh(B, driver="evd", overwrite_a=True))
        else:
            vals.append(scipy.linalg.eigvals(B, overwrite_a=True))
    vals = _lex_sort(np.concatenate(vals).astype(complex), tie_scale=K * K * PI2)
    return SpectrumResult(periodic=vals, K=K, trust=trust_count(K))


def dirichlet_matrix(q, K):
    qc = dirichlet_cos_coeffs(q, K)
    m = np.arange(1, K + 1)
    D = qc[np.abs(m[:, None] - m[None, :])] - qc[m[:, None] + m[None, :]]
    D = D.astype(complex)
    D[np.diag_indices_from(D)] += (m * math.pi) ** 2
    return D


def dirichlet_spectrum(q, K):
    if K < 16:
        raise ValueError("K must be >= 16")
    D = dirichlet_matrix(q, K)
    if q.is_real():
        vals = scipy.linalg.eigvalsh(D.real, driver="evd").astype(complex)
    else:
        vals = scipy.linalg.eigvals(D)
    vals = _lex_sort(vals, tie_scale=K * K * PI2)
    return SpectrumResult(dirichlet=vals, K=K, trust=trust_count(K))


def full_spectrum(q, K):
    per = periodic_spectrum(q, K)
    dir_ = dirichlet_spectrum(q, K)
    return SpectrumResult(periodic=per.periodic, dirichlet=dir_.dirichlet,
                          K=K, trust=per.trust)


def gaps_and_midpoints(spec):
    """(gamma_n, tau_n, tau_n - mu_n) up to trust_count."""
    gam = spec.gaps()
    tau = spec.midpoints()
    if spec.dirichlet is not None:
        n = np.arange(1, spec.trust + 1)
        diff = tau - spec.dirichlet[n - 1]
    else:
        diff = None
    return gam, tau, diff


def riesz_projector(q, n, K):
    """Riesz projector (1/2 pi i) oint (lambda - M)^{-1} d lambda of the periodic
    matrix M over |lambda - n^2 pi^2| = n, which must separate {lambda_n^+-}.

    The pair lies in the parity block B of n's parity: R is the projector of
    B, with exact zeros outside that block.  The contour is checked on B
    alone; by Gershgorin the other block's eigenvalues stay outside it when
    ||q||_l1 < (2n-1) pi^2 - n.

    Closed form from one sorted complex Schur form B = Z [[A, C], [0, D]] Z^H
    with the enclosed pair in A: P = Z_1 (Z_1^H + X Z_2^H), A X - X D = C.
    Exact also when the pair is a Jordan block.
    """
    ks, B = _parity_block(q, K, n % 2)
    center = n * n * PI2
    try:
        T, Z, inside = scipy.linalg.schur(
            B, output="complex", sort=lambda lam: abs(lam - center) < n,
            overwrite_a=True)
    except np.linalg.LinAlgError as exc:
        raise SeparationError("Schur reordering around n=%d failed: %s" % (n, exc))
    dist = np.abs(np.abs(np.diag(T) - center) - n)
    if np.min(dist) < 1e-6 * max(1.0, n):
        raise SeparationError("eigenvalue on the contour |lambda - n^2 pi^2| = n")
    if inside != 2:
        raise SeparationError(
            "contour around n=%d encloses %d eigenvalues, expected 2" % (n, inside))
    # the contour check keeps the spectra of A and D >= 2e-6 n apart, far
    # above ztrsyl's perturbation threshold eps ||B||, so its info is 0
    X, scale, _ = scipy.linalg.lapack.ztrsyl(T[:2, :2], T[2:, 2:], T[:2, 2:],
                                             isgn=-1)
    Z1 = Z[:, :2]
    # the products with Z use scipy's BLAS, which ran the Schur step: numpy's
    # matmul runs on a second OpenBLAS, whose threads would compete for the
    # cores with scipy's, still spinning after the call
    zgemm = scipy.linalg.blas.zgemm
    W = zgemm(1.0, X / scale, Z[:, 2:], trans_b=2, beta=1.0, c=Z1.conj().T)
    R = np.zeros((2 * K + 1, 2 * K + 1), dtype=complex)
    R[ks[0] + K::2, ks[0] + K::2] = zgemm(1.0, Z1, W)
    # R^2 - R = Z_1 (W Z_1 - I) W, and Z_1 has orthonormal columns
    defect = np.linalg.norm((W @ Z1 - np.eye(2)) @ W, 2)
    return R, {"quad_points": 0, "idempotency_defect": float(defect),
               "trace": complex(np.trace(R))}


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


def verify_decay(q, w, s, K_list, c_s=None):
    """Weighted sups of gap lengths and midpoint-Dirichlet differences across
    truncations, with a stabilization measure and the high-mode tail bound
    ||T_N gamma||_{w,s,inf} <= 4 ||T_N q||_{w,s,inf} + 16 c_s N^{-(1/2-|s|)} ||q||^2.
    """
    if c_s is None:
        from .reduction import estimate_c_s
        c_s = estimate_c_s(s)
    report = {"K_list": list(K_list), "sup_gamma": [], "sup_taumu": []}
    results = {}
    for K in K_list:
        spec = full_spectrum(q, K)
        gam, tau, diff = gaps_and_midpoints(spec)
        n = np.arange(1, spec.trust + 1)
        wfac = (np.ones(n.size) if w is None else w(2 * n)) * bracket(2 * n) ** s
        report["sup_gamma"].append(float(np.max(wfac * np.abs(gam), initial=0.0)))
        report["sup_taumu"].append(float(np.max(wfac * np.abs(diff), initial=0.0)))
        results[K] = (spec, gam, tau, diff)
    if len(K_list) >= 2:
        a, b = report["sup_gamma"][-2], report["sup_gamma"][-1]
        report["gamma_stabilization"] = abs(a - b) / max(abs(b), 1e-300)
        a, b = report["sup_taumu"][-2], report["sup_taumu"][-1]
        report["taumu_stabilization"] = abs(a - b) / max(abs(b), 1e-300)
    # tail bound at N = contraction threshold for this potential
    from .sequences import norm as seq_norm, tail as seq_tail
    qn = seq_norm(q.seq, w, s, math.inf)
    N = max(1, int(np.ceil((2.0 * c_s * qn) ** (1.0 / (0.5 - abs(s))))))
    spec, gam, tau, diff = results[max(K_list)]
    n = np.arange(1, spec.trust + 1)
    wfac = (np.ones(n.size) if w is None else w(2 * n)) * bracket(2 * n) ** s
    mask = n >= N
    lhs = float(np.max((wfac * np.abs(gam))[mask], initial=0.0))
    tq = seq_norm(seq_tail(q.seq, 2 * N), w, s, math.inf)
    rhs = 4.0 * tq + 16.0 * c_s * N ** (-(0.5 - abs(s))) * qn ** 2
    report["tail_bound"] = {"N": int(N), "lhs": lhs, "rhs": float(rhs),
                            "holds": bool(lhs <= rhs + 1e-12)}
    return report
