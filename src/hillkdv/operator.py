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

from dataclasses import dataclass
from functools import cached_property
import math

import numpy as np

from .sequences import FourierSeq, SparseSeq, Weight, bracket, norm, InvalidSequenceError

_SQRT_FLOAT_MAX = math.sqrt(np.finfo(float).max)


@dataclass(frozen=True)
class Potential:
    """Zero-mean 1-periodic potential, both checked here, with regularity
    label s and optional weight; seq holds q_{2n} on half range 2*n_max."""
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
        c, K = self.seq.coeffs, self.seq.half_range
        if c[K] != 0:
            raise InvalidSequenceError("zero-mean potential: q_0 != 0")
        if np.any(c[(K + 1) % 2::2] != 0):  # coeffs[i] holds k = i - K
            raise InvalidSequenceError("1-periodic potential: odd modes present")

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
        """q_{-k} = conj(q_k) to 1e-14, so that -d^2/dx^2 + q is self-adjoint."""
        return self.seq.is_conj_symmetric()

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(n_max=1, s=0.0, weight=None):
        return Potential(FourierSeq.zeros(2 * n_max), s, weight)

    @staticmethod
    def from_even_pairs(pairs, n_max=None, s=0.0, weight=None, real=None):
        """pairs: iterable of (n, q_{2n}) with n != 0; a real given that
        differs from is_real() raises InvalidSequenceError."""
        pairs = [(int(n), v) for n, v in pairs]
        if any(n == 0 for n, _ in pairs):
            raise InvalidSequenceError("zero-mean potential: n = 0 not allowed")
        if n_max is None:
            n_max = max((abs(n) for n, _ in pairs), default=1)
        q = Potential(FourierSeq.from_pairs([(2 * n, v) for n, v in pairs],
                                            K=2 * n_max), s, weight)
        if real is not None and real != q.is_real():
            raise InvalidSequenceError("real=%s, but q_{-2n} %s conj(q_{2n})"
                                       % (real, "=" if q.is_real() else "!="))
        return q

    @staticmethod
    def single_mode(c, n_max=1, s=0.0, weight=None):
        """q(x) = 2 c cos(2 pi x), i.e. q_{+-2} = c (real c)."""
        return Potential.from_even_pairs([(1, c), (-1, np.conj(c))],
                                         n_max=max(1, n_max), s=s, weight=weight)

    @staticmethod
    def power_law(amplitude, exponent, n_max, s=0.0, weight=None, rng=None):
        """|q_{2n}| = amplitude * <n>^exponent for 1 <= |n| <= n_max, with
        random phases if rng is given (conjugate-symmetric, so q is real)."""
        mags = amplitude * bracket(np.arange(1, n_max + 1)) ** exponent
        if rng is None:
            phases = np.zeros(n_max)
        else:
            phases = rng.uniform(0, 2 * np.pi, size=n_max)
        return _real_potential(mags, phases, s, weight)

    @staticmethod
    def random_real(rng, n_max, sup=0.1, decay=0.0, s=0.0, weight=None):
        """Random real potential with |q_{2n}| <= sup * <n>^decay."""
        mags = sup * bracket(np.arange(1, n_max + 1)) ** decay \
            * rng.uniform(0.3, 1.0, size=n_max)
        phases = rng.uniform(0, 2 * np.pi, size=n_max)
        return _real_potential(mags, phases, s, weight)


def _real_potential(mags, phases, s, weight):
    """The real potential with q_{+-2n} = mags[n-1] e^{+-i phases[n-1]} for
    1 <= n <= len(mags)."""
    vals = mags * np.exp(1j * phases)
    pairs = [(n, v) for n, v in enumerate(vals, 1)]
    pairs += [(-n, np.conj(v)) for n, v in enumerate(vals, 1)]
    return Potential.from_even_pairs(pairs, n_max=len(vals), s=s, weight=weight)


def dirichlet_cos_coeffs(q, K):
    """Cosine pairings c[k] = q^cos_k = int_0^1 q(x) cos(k pi x) dx, 0 <= k <= 2K:
    (q_k + q_{-k})/2 for even k, (i/pi) sum_m q_m (1/(m+k) + 1/(m-k)) for odd
    k, summed as (i/pi) sum_{m: q_m != q_{-m}} (q_m - q_{-m}) (...) in a fixed
    order without BLAS, so even q gives exact 0.
    """
    c = q.seq.extended(max(2 * K, q.half_range)).coeffs
    mid, H = (c.size - 1) // 2, q.half_range
    k = np.arange(2 * K + 1)
    d = q.seq.coeffs[H + 1:] - q.seq.coeffs[H - 1::-1]  # q_m - q_{-m}, m >= 1
    m = np.flatnonzero(d) + 1
    out = 0.5 * (c[mid + k] + c[mid - k])
    odd = k[1::2, None]
    out[1::2] = (1j / math.pi) * np.add.reduce(
        (1.0 / (m + odd) + 1.0 / (m - odd)) * d[m - 1], axis=1)
    return out
