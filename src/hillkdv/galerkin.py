"""Dense Galerkin reference spectra for the Hill operator.

Periodic problem: (2K+1)x(2K+1) matrix M[k,l] = (k pi)^2 delta_{kl} + q_{k-l}
over k, l in {-K..K}.  A 1-periodic q has no odd modes, so M couples k and l
only when k - l is even and splits into two parity blocks: the even-k block
is the periodic problem on [0,1], the odd-k block the antiperiodic one.  Both
are the Toeplitz matrix q_{2(i-j)} of the even coefficients plus their own
diagonal (k pi)^2, and the solvers work on the blocks, never on M: for a
complex q in the e_k basis, for a real q (q_{-j} = conj q_j) as the real
symmetric matrix of the same size in the orthonormal basis of e_0 and
c_k = (e_k + e_-k)/sqrt 2, s_k = (e_k - e_-k)/(i sqrt 2) over its k > 0,
whose entries are sums and differences of the e_k block's entries.
Dirichlet problem on [0,1]: KxK sine-basis matrix
D[m,n] = (m pi)^2 delta_{mn} + (q^cos_{m-n} - q^cos_{m+n}) over m, n >= 1,
obtained by folding the ZZ-indexed expansion with the antisymmetry
f^sin_{-n} = -f^sin_n; the odd cosine pairings do not vanish, so D does not
split; for a real q it is built and solved in float64.  Both lists are
ordered by Re, and the periodic one puts a pair lambda_n^-+ whose Re parts
tie in Im order (_pair_order).  These solvers are the oracle for the
reduction module; truncation trust is certified conservatively.  The Riesz
projector onto the pair lambda_n^+- of a real potential (the paper's space is
real) is the orthogonal projector of the real block of n's parity, from eigh.
"""

from dataclasses import dataclass
import math

import numpy as np

from .operator import dirichlet_cos_coeffs
from .reduction import make_context
from .sequences import norm as seq_norm, tail as seq_tail, weight_factors


class SeparationError(ValueError):
    pass


PI2 = math.pi ** 2


def _pair_order(vals, tie_scale):
    """The order of a periodic list (odd length): a stable sort by Re, then
    each pair (a, b) at (2n - 1, 2n) swapped when b.re - a.re <= 1e-10 scale
    and a.im > b.im, by more than rounding (64 eps scale) unless a.re == b.re,
    with scale = max(1, max |Re|, tie_scale): the lexicographic order when no
    Re tie spans more than one pair, as in every Hill spectrum."""
    v = vals[np.argsort(vals.real, kind="stable")]
    scale = max(float(np.max(np.abs(v.real), initial=1.0)), tie_scale)
    pairs = v[1:].reshape(-1, 2)  # a view of v
    a, b = pairs[:, 0], pairs[:, 1]
    swap = (b.real - a.real <= 1e-10 * scale) & (a.imag > b.imag) & (
        (a.imag - b.imag > 64 * np.finfo(float).eps * scale) | (a.real == b.real))
    pairs[swap] = pairs[swap, ::-1]
    return v


def trust_count(K):
    """Largest n whose strip S_n sits well inside the resolved symbol range:
    n^2 pi^2 + 12 n < ((K-2) pi)^2 / 4 (safety factor 4).  It reads K alone,
    not q's band, so a q wider than K can leave trusted modes unresolved."""
    bound = ((K - 2) * math.pi) ** 2 / 4.0
    n = int(math.isqrt(int(bound / PI2)) + 2)
    while n >= 1 and n * n * PI2 + 12.0 * n >= bound:
        n -= 1
    return max(n, 1)


@dataclass
class SpectrumResult:
    """Ordered spectra: periodic list lambda_0^+, lambda_1^-, lambda_1^+, ...
    by Re, each pair by Im where its Re parts tie (_pair_order), and the
    Dirichlet list mu_1, mu_2, ... by Re; trust_count caps the certified n."""
    periodic: np.ndarray | None = None
    dirichlet: np.ndarray | None = None
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

    def tau_minus_mu(self):
        return self.midpoints() - self.dirichlet[:self.trust]


def _parity_block(q, K, parity, top=0):
    """The block of M on the k in [-K, K] of the given parity, the Toeplitz
    matrix q_{2(i-j)} plus the diagonal (k pi)^2, from its row top on.  A
    complex q stays in this basis: eps = 1e-12 and 1e-10 off a Jordan pair
    (n = 4, K = 64) gave gaps 1.3e-10, 3.2e-10 (reduction 3.2e-11,
    3.2e-10); cos/sin 6.8e-9, 4.7e-9."""
    ks = np.arange(-K + (K + parity) % 2, K + 1, 2)
    m, H = ks.size, q.half_range
    d = min(m - 1, H // 2)
    c = np.zeros(2 * m - 1, dtype=complex)  # q_{2j} at j + m - 1, |j| < m
    c[m - 1 - d:m + d] = q.seq.coeffs[H - 2 * d:H + 2 * d + 1:2]
    B = np.lib.stride_tricks.sliding_window_view(c[::-1], m)[::-1][top:].copy()
    B[:, top:][np.diag_indices(m - top)] += (ks[top:] * math.pi) ** 2
    return B


def _real_block(q, K, parity):
    """The parity block of a real q, a_j + i b_j = q_j, in the basis e_0 (k = 0
    in the even block), c_k, s_k over k > 0 (module doc), from the e_k block's
    T = B_{k,l} = q_{k-l} + (k pi)^2 delta_{kl} and H = B_{k,-l} = q_{k+l},
    k, l >= 0: cos-cos Re(T + H), sin-sin Re(T - H), cos-sin Im(T - H), the
    k = 0 ones times 1/sqrt 2 each as e_0 = c_0 / sqrt 2."""
    k, z = np.arange(parity, K + 1, 2), 1 - parity
    B = _parity_block(q, K, parity, k.size - z)  # its rows of k >= 0
    T, H = B[:, -k.size:], B[:, k.size - 1::-1]
    w = np.where(k == 0, math.sqrt(0.5), 1.0)
    cos, sin = slice(0, k.size), slice(k.size, None)
    R = np.empty((2 * k.size - z,) * 2)
    R[cos, cos] = (T.real + H.real) * np.outer(w, w)
    R[sin, sin] = (T.real - H.real)[z:, z:]
    R[cos, sin] = (T.imag - H.imag)[:, z:] * w[:, None]
    R[sin, cos] = R[cos, sin].T
    return R


def _exp_basis(Y, parity):
    """Real columns Y in _real_block's basis to the e_k basis, k ascending:
    e_+-k gets (y_cos -+ i y_sin)/sqrt 2, the e_-k half as the conjugate of
    the e_k half (exact for real Y only); e_0 gets y_0."""
    z = 1 - parity
    p = (Y.shape[0] - z) // 2
    pos = (Y[z:z + p] - 1j * Y[z + p:]) / math.sqrt(2)
    return np.concatenate([pos[::-1].conj(), Y[:z], pos])


def _block_eigvals(q, K, parity):
    if q.is_real():
        return np.linalg.eigvalsh(_real_block(q, K, parity))
    return np.linalg.eigvals(_parity_block(q, K, parity))


def periodic_spectrum(q, K):
    if K < 16:
        raise ValueError("K must be >= 16")
    vals = [_block_eigvals(q, K, parity) for parity in (0, 1)]
    vals = _pair_order(np.concatenate(vals).astype(complex), K * K * PI2)
    return SpectrumResult(periodic=vals, trust=trust_count(K))


def dirichlet_matrix(q, K):
    qc = dirichlet_cos_coeffs(q, K)
    if q.is_real():
        qc = qc.real
    win = np.lib.stride_tricks.sliding_window_view  # qc[|i - j|] - qc[i + j + 2]
    D = win(np.r_[qc[K - 1:0:-1], qc[:K]], K)[::-1] - win(qc[2:2 * K + 1], K)
    D[np.diag_indices_from(D)] += (np.arange(1, K + 1) * math.pi) ** 2
    return D


def dirichlet_spectrum(q, K):
    if K < 16:
        raise ValueError("K must be >= 16")
    D = dirichlet_matrix(q, K)  # float64 for a real q
    eig = np.linalg.eigvalsh if q.is_real() else np.linalg.eigvals
    vals = eig(D).astype(complex)  # the mu_n are simple: ordered by Re alone
    vals = vals[np.argsort(vals.real, kind="stable")]
    return SpectrumResult(dirichlet=vals, trust=trust_count(K))


def full_spectrum(q, K):
    spec = periodic_spectrum(q, K)
    spec.dirichlet = dirichlet_spectrum(q, K).dirichlet
    return spec


def riesz_projector(q, n, K):
    """Riesz projector (1/2 pi i) oint (lambda - M)^{-1} d lambda of the periodic
    matrix M of a real q over |lambda - n^2 pi^2| = n, which must separate
    {lambda_n^+-}; a complex q raises ValueError.

    The pair lies in the parity block B of n's parity: R is the projector of
    B, with exact zeros outside that block.  The other block is solved only
    if one of its Gershgorin discs, centers (k pi)^2 (q_0 = 0) and radius at
    most sum_j |q_2j|, meets the contour disc; it must have no eigenvalue on
    or inside the contour.  B is solved as the real symmetric block of the
    cos/sin basis (_real_block): R = Z_1 Z_1^H from eigh, Z_1 the pair's
    eigenvectors mapped to the e_k basis.
    """
    if not q.is_real():
        raise ValueError("the Riesz projector takes a real potential")
    parity, center = n % 2, n * n * PI2
    lam, Z = np.linalg.eigh(_real_block(q, K, parity))
    r = np.abs(lam - center)
    if np.min(np.abs(r - n)) < 1e-6 * max(1.0, n):
        raise SeparationError("eigenvalue on the contour |lambda - n^2 pi^2| = n")
    inside = r < n
    if np.count_nonzero(inside) != 2:
        raise SeparationError("contour around n=%d encloses %d eigenvalues, "
                              "expected 2" % (n, np.count_nonzero(inside)))
    k, radius = np.arange(1 - parity, K + 1, 2), np.sum(np.abs(q.seq.coeffs))
    if np.any(np.abs((k * math.pi) ** 2 - center) <= radius + n):
        other = _block_eigvals(q, K, 1 - parity)
        if np.any(np.abs(other - center) < n + 1e-6 * max(1.0, n)):
            raise SeparationError("contour around n=%d encloses an eigenvalue "
                                  "of the other parity block" % n)
    Z1 = _exp_basis(Z[:, inside], parity)
    W = Z1.conj().T
    P = Z1 @ W
    R = np.zeros((2 * K + 1, 2 * K + 1), dtype=complex)
    first = (K + parity) % 2  # the block's k run from first - K up by 2
    R[first::2, first::2] = P
    # R^2 - R = Z_1 (W Z_1 - I) W, and Z_1 has orthonormal columns
    defect = np.linalg.norm((W @ Z1 - np.eye(2)) @ W, 2)
    return R, {"quad_points": 0, "idempotency_defect": float(defect),
               "trace": complex(np.trace(R))}


def verify_decay(q, K_list):
    """Weighted sups of gap lengths and midpoint-Dirichlet differences across
    truncations, with a stabilization measure and the high-mode tail bound
    ||T_N gamma||_{w,s,inf} <= 4 ||T_N q||_{w,s,inf} + 16 c_s N^{-(1/2-|s|)} ||q||^2,
    in the space of q: its regularity label s and weight w.
    """
    ctx = make_context(q)
    w, s = q.weight, q.s
    report = {"K_list": list(K_list), "sup_gamma": [], "sup_taumu": []}
    results = {}
    for K in K_list:
        spec = full_spectrum(q, K)
        n = np.arange(1, spec.trust + 1)
        wfac = weight_factors(2 * n, w, s)
        results[K] = n, wfac * np.abs(spec.gaps())
        report["sup_gamma"].append(float(np.max(results[K][1], initial=0.0)))
        taumu = wfac * np.abs(spec.tau_minus_mu())
        report["sup_taumu"].append(float(np.max(taumu, initial=0.0)))
    for key in ("gamma", "taumu") if len(K_list) >= 2 else ():
        a, b = report["sup_" + key][-2:]
        report[key + "_stabilization"] = abs(a - b) / max(abs(b), 1e-300)
    # tail bound at N = n_s, the contraction threshold of make_context
    qn = seq_norm(q.seq, w, s, math.inf)
    N, c_s = ctx.n_s, ctx.c_s
    n, wgam = results[max(K_list)]
    lhs = float(np.max(wgam[n >= N], initial=0.0))
    tq = seq_norm(seq_tail(q.seq, 2 * N), w, s, math.inf)
    rhs = 4.0 * tq + 16.0 * c_s * N ** (-(0.5 - abs(s))) * qn ** 2
    report["tail_bound"] = {"N": int(N), "lhs": lhs, "rhs": float(rhs),
                            "holds": bool(lhs <= rhs + 1e-12)}
    return report
