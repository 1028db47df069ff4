"""Weighted sequence spaces on the Fourier side.

A FourierSeq is a doubly indexed coefficient vector f = (f_k), |k| <= K,
representing f(x) = sum_k f_k e_k(x) with e_k(x) = exp(i pi k x) on [0, 2];
a SparseSeq holds the same f as (index, value) pairs on a finite support of
arbitrary width.  Norms are the weighted Fourier Lebesgue norms

    ||f||_{w,s,p} = ( sum_k  w_k^p <k>^{sp} |f_k|^p )^{1/p},   <k> = 1 + |k|,

with the sup norm at p = infinity.  Weights come from the class of normalized,
symmetric, monotone, submultiplicative weights: the closed forms of Weight
have these properties by construction and are defined at arbitrarily large
indices.
"""

from dataclasses import dataclass, replace
import json
import math

import numpy as np


class InvalidSequenceError(ValueError):
    pass


class WeightError(ValueError):
    pass


def bracket(n):
    """<n> = 1 + |n|, elementwise on arrays."""
    return 1.0 + np.abs(n)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Weight:
    """Closed-form weight w_n = min(<n>^exponent, e^{cap |n|}).

    A finite exponent >= 0 gives the polynomial family, exponent == 0 the
    trivial weight; cap is finite and > 0, or None for uncapped weights
    (NaN and inf are rejected: an infinite cap is nan at n = 0).  Every
    member is in the weight class by construction: log w_n =
    min(exponent log<n>, cap |n|) is a minimum of concave, nondecreasing
    functions of |n| that vanish at 0, so w_n >= 1, w is symmetric and
    monotone in |n|, and log w is subadditive: w_{n+m} <= w_n w_m.
    """
    exponent: float = 0.0
    cap: float | None = None

    def __post_init__(self):
        if not 0 <= self.exponent < math.inf:
            raise WeightError("polynomial weight exponent must be >= 0 "
                              "and finite")
        if self.cap is not None and not 0 < self.cap < math.inf:
            raise WeightError("exponential cap must be > 0 and finite")

    def __call__(self, n):
        n = np.asarray(n, dtype=float)
        with np.errstate(over="ignore"):  # either part may overflow to inf
            vals = bracket(n) ** self.exponent
            if self.cap is not None:
                vals = np.minimum(vals, np.exp(self.cap * np.abs(n)))
        if vals.ndim == 0:
            return float(vals)
        return vals


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FourierSeq:
    """Complex coefficients f_k for k in {-K..K}; coeffs[i] holds k = i - K.

    The coefficient array is treated as immutable; properties such as
    realness (f_{-k} = conj(f_k)) are read from it, and Potential and
    BirkhoffState check their own invariants.  Subclasses (the KdV state, the
    Birkhoff coordinates) add fields, and extended / truncated keep them.
    """
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size % 2 == 0:
            raise InvalidSequenceError("coeffs must be 1-D with odd length")
        object.__setattr__(self, "coeffs", c)

    @property
    def half_range(self):
        return (self.coeffs.size - 1) // 2

    def index(self, k):
        return k + self.half_range

    def __getitem__(self, k):
        K = self.half_range
        if -K <= k <= K:
            return complex(self.coeffs[k + K])
        return 0j

    def ks(self):
        K = self.half_range
        return np.arange(-K, K + 1)

    def is_conj_symmetric(self, tol=1e-14):
        """|f_{-k} - conj(f_k)| <= tol for every k; NaN never is."""
        c = self.coeffs
        return bool(np.all(np.abs(c - np.conj(c[::-1])) <= tol))

    def nonzero_ks(self):
        K = self.half_range
        return np.flatnonzero(self.coeffs) - K

    @classmethod
    def zeros(cls, K, **fields):
        return cls(np.zeros(2 * K + 1, dtype=complex), **fields)

    @classmethod
    def from_pairs(cls, pairs, K=None, **fields):
        """Build from (k, value) pairs, a later pair overwriting an earlier
        one at the same k.  K defaults to max |k|; an index outside -K..K
        raises InvalidSequenceError."""
        pairs = [(int(k), v) for k, v in pairs]
        if K is None:
            K = max((abs(k) for k, _ in pairs), default=0)
        if K < 0 or any(abs(k) > K for k, _ in pairs):
            raise InvalidSequenceError("coefficient index outside the half "
                                       "range %d" % K)
        c = np.zeros(2 * K + 1, dtype=complex)
        for k, v in pairs:
            c[k + K] = v
        return cls(c, **fields)

    def extended(self, K_new):
        """Same sequence in a larger (or equal) half range."""
        K = self.half_range
        if K_new < K:
            raise InvalidSequenceError("use truncated() to shrink")
        pad = K_new - K
        return replace(self, coeffs=np.pad(self.coeffs, (pad, pad)))

    def truncated(self, K_new):
        K = self.half_range
        if K_new >= K:
            return self.extended(K_new)
        return replace(self, coeffs=self.coeffs[K - K_new:K + K_new + 1].copy())

    def to_json(self):
        return json.dumps({
            "half_range": int(self.half_range),
            "coeffs": [[int(k), float(self[k].real), float(self[k].imag)]
                       for k in self.nonzero_ks()],
        }, sort_keys=True)

    @staticmethod
    def from_json(text):
        """Inverse of to_json; other keys (older files' flags, "real" among
        them) are ignored."""
        obj = json.loads(text)
        try:
            K = int(obj["half_range"])
            pairs = [(int(k), re + 1j * im) for k, re, im in obj["coeffs"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidSequenceError("malformed sequence JSON: %s: %s"
                                       % (type(exc).__name__, exc))
        return FourierSeq.from_pairs(pairs, K=K)


@dataclass(frozen=True)
class SparseSeq:
    """Coefficients f_k on a finite support: sorted unique int64 indices idx
    and the values coeffs there (exact zeros allowed); f_k = 0 elsewhere.
    ks() and coeffs line up as for FourierSeq, so weight_profile, norm and
    multiply take either container."""
    idx: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.idx, dtype=np.int64)
        c = np.asarray(self.coeffs, dtype=complex)
        if idx.ndim != 1 or idx.shape != c.shape or np.any(idx[1:] <= idx[:-1]):
            raise InvalidSequenceError("idx must be sorted, unique and match coeffs")
        object.__setattr__(self, "idx", idx)
        object.__setattr__(self, "coeffs", c)

    def ks(self):
        return self.idx

    def __getitem__(self, k):
        i = int(np.searchsorted(self.idx, k))
        if i < self.idx.size and self.idx[i] == k:
            return complex(self.coeffs[i])
        return 0j

    def to_dense(self):
        """The FourierSeq on half range max |k| over the support."""
        K = int(np.abs(self.idx).max(initial=0))
        c = np.zeros(2 * K + 1, dtype=complex)
        c[self.idx + K] = self.coeffs
        return FourierSeq(c)

    @staticmethod
    def accumulate(idx, vals):
        """sum_j vals_j e_{idx_j}, equal indices summed in the order given."""
        support, inv = np.unique(np.asarray(idx, dtype=np.int64),
                                 return_inverse=True)
        vals, m = np.asarray(vals, dtype=complex), support.size
        return SparseSeq(support, np.bincount(inv, weights=vals.real, minlength=m)
                         + 1j * np.bincount(inv, weights=vals.imag, minlength=m))

    @staticmethod
    def total(seqs):
        """Sum of sequences (either container), added in the order given."""
        return SparseSeq.accumulate(np.concatenate([g.ks() for g in seqs]),
                                    np.concatenate([g.coeffs for g in seqs]))


def weight_factors(ks, w, s):
    """Array w(k) <k>^s at ks; raises WeightError where it is not finite."""
    wf = (np.ones(ks.size) if w is None else w(ks)) * bracket(ks) ** s
    if not np.isfinite(wf).all():
        raise WeightError("weight is not finite on |k| <= %d"
                          % np.abs(ks).max())
    return wf


def weight_profile(f, w, s):
    """Array w(k) <k>^s |f_k| in ascending-k order."""
    return weight_factors(f.ks(), w, s) * np.abs(f.coeffs)


def norm(f, w, s, p):
    """Weighted norm ||f||_{w,s,p} of a FourierSeq or SparseSeq; w=None means
    the trivial weight.

    The sup norm (p = inf) reads only the nonzero coefficients: a zero adds 0
    to a max that starts at 0, so the value is that of the dense profile (a
    NaN counts as nonzero and gives NaN).  Finite-p sums stay dense and
    ordered: every stored coefficient, zeros included, summed in the fixed
    order |k| ascending, +k before -k, so results are reproducible bit for
    bit.
    """
    if not p >= 1:
        raise ValueError("p must be in [1, inf]")
    if math.isinf(p):
        c = f.coeffs
        nz = np.flatnonzero(c != 0)
        ks = f.idx[nz] if isinstance(f, SparseSeq) else nz - f.half_range
        prof = weight_factors(ks, w, s) * np.abs(c[nz])
        return float(prof.max(initial=0.0))
    ks = f.ks()
    order = np.lexsort((ks < 0, np.abs(ks)))
    ordered = weight_profile(f, w, s)[order]
    return float(np.add.reduce(ordered ** p) ** (1.0 / p))


def tail(f, N):
    """Zero out coefficients with |k| < N."""
    if N < 1:
        raise ValueError("N must be >= 1")
    K = f.half_range
    c = f.coeffs.copy()
    c[max(K - N + 1, 0):K + N] = 0
    return replace(f, coeffs=c)


# B_2m / (2m)!, m = 1..8: the Euler-Maclaurin weights of _divisor_sums' tails
_EM_WEIGHTS = np.array([1 / 12, -1 / 720, 1 / 30240, -1 / 1209600,
                        1 / 47900160, -691 / 1307674368000, 1 / 74724249600,
                        -3617 / 10670622842880000])


def _divisor_sums(ns, a, b):
    """D(n; a, b) = sum over k != +-n of |k+n|^{-a} |k-n|^{-b} for each n in
    ns (a + b > 1): the terms |k| <= J = max(2n, 16) plus both tails.

    The tables |x|^{-a} and |x|^{-b} over |x| <= L, zero at x = 0 (the
    excluded terms), serve every n: its body is the product of one slice of
    each, which np.add.reduce sums in a fixed order (no BLAS).  With
    f(t) = (1+t)^{-a} (1-t)^{-b} = sum f_j t^j, the product of two binomial
    series, the tails |k| > J are exactly 2 sum over even j of
    f_j n^j zeta(a+b+j, N), N = J + 1; n/N < 1/2, so the terms past j = 64
    are negligible.  The Hurwitz sum zeta(p, N) = sum over k >= N of k^{-p}
    is N^{-p} (N/(p-1) + 1/2 + sum over m = 1..8 of B_2m/(2m)! (p)_{2m-1}
    N^{1-2m}), Euler-Maclaurin with (p)_i the rising factorial; at N >= 17
    the first omitted term is below 1e-18 of the j = 0 term when a + b <= 4.
    The sums over m and j are Horner loops, element by element over the n,
    so a value does not depend on which n share the call.
    """
    ns = np.asarray(ns)
    Js = np.maximum(2 * ns, 16)
    L = (Js + ns).max()
    x = np.abs(np.arange(-L, L + 1, dtype=float))
    x[L] = np.inf  # inf ** negative = 0
    # x^{-a} overwrites x, one table fewer at the peak; for a = b, tb is it
    tb = x if a == b else x ** (-b)
    ta = np.power(x, -a, out=x)
    # |k + n|^{-a} |k - n|^{-b} over |k| <= J: ta at L + k + n, tb at L + k - n
    body = [np.add.reduce(ta[L - J + n:L + J + n + 1] * tb[L - J - n:L + J - n + 1])
            for n, J in zip(ns.tolist(), Js.tolist())]
    i, j = np.arange(1, 65), np.arange(0, 65, 2)
    f = np.convolve(np.cumprod(np.r_[1.0, -(a + i - 1) / i]),
                    np.cumprod(np.r_[1.0, (b + i - 1) / i]))[j]
    p = a + b + j
    # B_2m/(2m)! (p)_{2m-1}, m = 1..8, for each j
    em = np.cumprod(p[:, None] + np.arange(15), axis=1)[:, ::2] * _EM_WEIGHTS
    N = (Js + 1.0)[:, None]
    z = 0.0
    for c in em.T[::-1]:  # Horner in N^{-2}
        z = z / (N * N) + c
    # N^p zeta(p, N), with p - 1 = a + b - 1 + j rounded once
    z = N / (math.fsum((a, b, -1.0)) + j) + 0.5 + z / N
    tail, y = 0.0, (ns / N[:, 0]) ** 2
    for t in (f * z).T[::-1]:  # Horner in (n/N)^2
        tail = tail * y + t
    return np.array(body) + 2.0 * N[:, 0] ** (-(a + b)) * tail


def hilbert_sum(n, sigma):
    """S(n, sigma) = sum over |m| != n of 1/|m^2 - n^2|^sigma, the divisor
    sum D(n; sigma, sigma) of _divisor_sums, tails included; for a list of n,
    the array of S over it.  Raises ValueError for n < 1 or sigma <= 1/2.
    """
    ns = np.atleast_1d(n)
    if ns.min() < 1:
        raise ValueError("n must be >= 1")
    if not sigma > 0.5:
        raise ValueError("sum diverges for sigma <= 1/2")
    out = _divisor_sums(ns, sigma, sigma)
    return float(out[0]) if np.ndim(n) == 0 else out

