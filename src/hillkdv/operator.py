"""Operator ingredients of the Hill operator L(q) = -d^2/dx^2 + q in the
Fourier representation.

Basis e_k(x) = exp(i pi k x) on [0, 2]; -d^2/dx^2 e_k = (k pi)^2 e_k.  The
normalized inner product <f, g> = (1/2) int_0^2 f conj(g) dx makes {e_k}
orthonormal, so <f, e_k> is simply the k-th coefficient.  Potentials are
zero-mean and 1-periodic (odd modes vanish).  The Dirichlet sine-basis
matrix uses the cosine pairings q^cos_k = int_0^1 q(x) cos(k pi x) dx:
(q_k + q_{-k})/2 for even k, and for odd k a sum over all modes of q that
vanishes only for even q (q_{-m} = q_m).  Conversion to the [0,1] product:
int_0^1 f conj(g) dx = <f, g> for 1-periodic f, g.
"""

from dataclasses import dataclass, replace
from functools import cached_property
import math

import numpy as np

from .sequences import FourierSeq, SparseSeq, Weight, bracket, norm, InvalidSequenceError

_SQRT_FLOAT_MAX = math.sqrt(np.finfo(float).max)


class StripViolationError(ValueError):
    pass


class NearSingularError(ArithmeticError):
    pass


@dataclass(frozen=True)
class Potential:
    """Zero-mean 1-periodic potential with regularity label s and optional
    weight; seq holds the even-mode coefficients q_{2n} on half range 2*n_max."""
    seq: FourierSeq
    s: float = 0.0
    weight: Weight | None = None

    def __post_init__(self):
        if not (-0.5 < self.s <= 0.0):
            raise InvalidSequenceError("regularity label s must be in (-1/2, 0]")
        # the solvers form products of two sums of coefficients (matrix norms,
        # b_n b_-n), so the l1 norm must be finite and so must its square
        with np.errstate(over="ignore"):
            l1 = np.sum(np.abs(self.seq.coeffs))
        if not l1 <= _SQRT_FLOAT_MAX:  # also rejects nan
            raise InvalidSequenceError(
                "potential coefficients must be finite, with a finite squared "
                "l1 norm (got l1 norm %r)" % float(l1))
        seq = FourierSeq(self.seq.coeffs, real=self.seq.real, zero_mean=True,
                         one_periodic=True)
        seq.validate()
        object.__setattr__(self, "seq", seq)

    @cached_property
    def support(self):
        """The nonzero coefficients as a SparseSeq, found once per potential."""
        ks = self.seq.nonzero_ks()
        return SparseSeq(ks, self.seq.coeffs[ks + self.half_range])

    def coeff(self, k):
        return self.seq[k]

    @property
    def half_range(self):
        return self.seq.half_range

    def norm_ws_inf(self):
        return norm(self.seq, self.weight, self.s, math.inf)

    def is_real(self):
        return self.seq.real

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(n_max=1, s=0.0, weight=None):
        return Potential(FourierSeq.zeros(2 * n_max, real=True), s, weight)

    @staticmethod
    def from_even_pairs(pairs, n_max=None, s=0.0, weight=None, real=None):
        """pairs: iterable of (n, q_{2n}) with n != 0; real defaults to
        conjugate symmetry to 1e-14."""
        pairs = [(int(n), v) for n, v in pairs]
        if any(n == 0 for n, _ in pairs):
            raise InvalidSequenceError("zero-mean potential: n = 0 not allowed")
        if n_max is None:
            n_max = max((abs(n) for n, _ in pairs), default=1)
        seq = FourierSeq.from_pairs([(2 * n, v) for n, v in pairs], K=2 * n_max)
        if real is None:
            real = seq.is_conj_symmetric(1e-14)
        return Potential(replace(seq, real=real), s, weight)

    @staticmethod
    def single_mode(c, n_max=1, s=0.0, weight=None):
        """q(x) = 2 c cos(2 pi x), i.e. q_{+-2} = c (real c)."""
        return Potential.from_even_pairs([(1, c), (-1, np.conj(c))],
                                         n_max=max(1, n_max), s=s, weight=weight)

    @staticmethod
    def power_law(amplitude, exponent, n_max, s=0.0, weight=None, rng=None):
        """|q_{2n}| = amplitude * <n>^exponent for 1 <= |n| <= n_max, with
        random phases if rng is given (conjugate-symmetric, so q is real)."""
        ns = np.arange(1, n_max + 1)
        mags = amplitude * bracket(ns) ** exponent
        if rng is None:
            phases = np.zeros(n_max)
        else:
            phases = rng.uniform(0, 2 * np.pi, size=n_max)
        vals = mags * np.exp(1j * phases)
        pairs = [(int(n), v) for n, v in zip(ns, vals)]
        pairs += [(-int(n), np.conj(v)) for n, v in zip(ns, vals)]
        return Potential.from_even_pairs(pairs, n_max=n_max, s=s, weight=weight)

    @staticmethod
    def random_real(rng, n_max, sup=0.1, decay=0.0, s=0.0, weight=None):
        """Random real potential with |q_{2n}| <= sup * <n>^decay."""
        ns = np.arange(1, n_max + 1)
        mags = sup * bracket(ns) ** decay * rng.uniform(0.3, 1.0, size=n_max)
        phases = rng.uniform(0, 2 * np.pi, size=n_max)
        vals = mags * np.exp(1j * phases)
        pairs = [(int(n), v) for n, v in zip(ns, vals)]
        pairs += [(-int(n), np.conj(v)) for n, v in zip(ns, vals)]
        return Potential.from_even_pairs(pairs, n_max=n_max, s=s, weight=weight)


def multiply(q, f):
    """Multiplication operator V: (q f)_n = sum_m q_{n-m} f_m, a SparseSeq on
    the sumset of the supports of q and f (either container); no truncation."""
    qs = q.support
    return SparseSeq.accumulate(np.add.outer(qs.idx, f.ks()).ravel(),
                                np.multiply.outer(qs.coeffs, f.coeffs).ravel())


def in_strip(lam, n):
    """Strip S_n = { |Re lambda - n^2 pi^2| <= 12 n }."""
    return abs(lam.real - n * n * math.pi ** 2) <= 12.0 * n + 1e-9


def apply_A_inv_Q(lam, n, f, singular_tol=1e-12):
    """Inverse of A_lambda = d^2/dx^2 + lambda on the complement of
    span{e_n, e_{-n}}: g_{+-n} = 0, g_k = f_k / (lambda - (k pi)^2).
    Returns the container it is given; a SparseSeq loses the indices +-n.

    lambda must lie in the strip S_n; a divisor smaller than singular_tol
    signals a caller bug (inside S_n all divisors are >= |n^2-k^2| >= 1
    in units of pi^2 ... up to the strip width) and raises.
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
    small = keep & (np.abs(div) < singular_tol)
    if np.any(small):
        k_bad = ks[small][0]
        raise NearSingularError(
            "divisor |lambda - (k pi)^2| < %g at k=%d" % (singular_tol, k_bad))
    if isinstance(f, SparseSeq):
        return SparseSeq(ks[keep], f.coeffs[keep] / div[keep])
    safe = np.where(keep, div, 1.0)  # avoid 0/0 at the excluded modes
    return FourierSeq(np.where(keep, f.coeffs / safe, 0.0))


def project(n, f, which):
    """P keeps modes +-n, Q zeroes them; P(f) + Q(f) = f."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ks = f.ks()
    on_pn = np.abs(ks) == n
    if which == "P":
        c = np.where(on_pn, f.coeffs, 0.0)
    elif which == "Q":
        c = np.where(on_pn, 0.0, f.coeffs)
    else:
        raise ValueError("which must be 'P' or 'Q'")
    return FourierSeq(c, real=f.real)


def dirichlet_cos_coeffs(q, K):
    """Cosine pairings c[k] = q^cos_k = int_0^1 q(x) cos(k pi x) dx, 0 <= k <= 2K:
    (q_k + q_{-k})/2 for even k, (i/pi) sum_m q_m (1/(m+k) + 1/(m-k)) for odd
    k, summed as (i/pi) sum_{m>0} (q_m - q_{-m}) (...) so even q gives exact 0.
    """
    c = q.seq.extended(max(2 * K, q.half_range)).coeffs
    mid = (c.size - 1) // 2
    k = np.arange(2 * K + 1)
    m = np.unique(np.abs(q.support.idx))  # m > 0: q has zero mean
    out = 0.5 * (c[mid + k] + c[mid - k])
    odd = k[1::2, None]
    out[1::2] = (1j / math.pi) * (
        (1.0 / (m + odd) + 1.0 / (m - odd)) @ (c[mid + m] - c[mid - m]))
    return out
