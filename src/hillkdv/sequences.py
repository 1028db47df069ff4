"""Weighted sequence spaces on the Fourier side.

A FourierSeq is a doubly indexed coefficient vector f = (f_k), |k| <= K,
representing f(x) = sum_k f_k e_k(x) with e_k(x) = exp(i pi k x) on [0, 2];
a SparseSeq holds the same f as (index, value) pairs on a finite support of
arbitrary width.  Norms are the weighted Fourier Lebesgue norms

    ||f||_{w,s,p} = ( sum_k  w_k^p <k>^{sp} |f_k|^p )^{1/p},   <k> = 1 + |k|,

with the sup norm at p = infinity.  Weights come from the class of normalized,
symmetric, monotone, submultiplicative weights, stored as closed forms so that
arbitrarily large indices are well defined.
"""

from dataclasses import dataclass, field, replace
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

    exponent >= 0 gives the polynomial family, exponent == 0 the trivial
    weight; cap is None for uncapped weights.  All members are >= 1,
    symmetric and monotone in |n|; submultiplicativity is checked by
    sampling in check_weight / cap_weight.
    """
    exponent: float = 0.0
    cap: float | None = None

    def __post_init__(self):
        if self.exponent < 0:
            raise WeightError("polynomial weight exponent must be >= 0")
        if self.cap is not None and self.cap <= 0:
            raise WeightError("exponential cap must be > 0")

    def __call__(self, n):
        n = np.asarray(n, dtype=float)
        vals = bracket(n) ** self.exponent
        if self.cap is not None:
            vals = np.minimum(vals, np.exp(self.cap * np.abs(n)))
        if vals.ndim == 0:
            return float(vals)
        return vals

    @staticmethod
    def trivial():
        return Weight(0.0)

    @staticmethod
    def polynomial(a):
        return Weight(float(a))


def check_weight(w, radius=512, samples=2000, rng=None):
    """Sampled verification of the weight-class invariants.

    Checks w_n >= 1, symmetry, monotonicity in |n| and submultiplicativity
    w_{n+m} <= w_n w_m on random pairs with |n|, |m| <= radius.  Raises
    WeightError on the first violation.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    idx = np.arange(0, radius + 1)
    vals = w(idx)
    if np.any(vals < 1.0 - 1e-12):
        raise WeightError("weight takes values below 1")
    if np.any(np.abs(w(-idx) - vals) > 1e-12 * np.abs(vals)):
        raise WeightError("weight is not symmetric")
    if np.any(np.diff(vals) < -1e-12 * vals[:-1]):
        raise WeightError("weight is not monotone in |n|")
    n = rng.integers(-radius, radius + 1, size=samples)
    m = rng.integers(-radius, radius + 1, size=samples)
    lhs = w(n + m)
    rhs = w(n) * w(m)
    bad = lhs > rhs * (1.0 + 1e-10)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise WeightError(
            "submultiplicativity fails at n=%d, m=%d: w(n+m)=%g > %g"
            % (n[i], m[i], lhs[i], rhs[i]))
    return True


def cap_weight(w, eps):
    """Exponentially capped weight w^eps_n = min(w_n, e^{eps|n|}).

    The capped weight is validated by sampling; a violation raises
    WeightError.
    """
    if eps <= 0:
        raise WeightError("eps must be positive")
    new_cap = eps if w.cap is None else min(w.cap, eps)
    capped = replace(w, cap=new_cap)
    check_weight(capped)
    return capped


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FourierSeq:
    """Complex coefficients f_k for k in {-K..K}; coeffs[i] holds k = i - K.

    The coefficient array is treated as immutable.  Flags record structural
    properties: real (f_{-k} = conj(f_k)), zero_mean (f_0 = 0) and
    one_periodic (all odd-index coefficients vanish); validate() checks them.
    Subclasses (the KdV state, the Birkhoff coordinates) add fields, and
    extended / truncated keep them.
    """
    coeffs: np.ndarray
    real: bool = False
    zero_mean: bool = False
    one_periodic: bool = False

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

    def is_conj_symmetric(self, tol=1e-12):
        """|f_{-k} - conj(f_k)| <= tol for every k; NaN never is."""
        c = self.coeffs
        return bool(np.all(np.abs(c - np.conj(c[::-1])) <= tol))

    def validate(self, tol=1e-12):
        K = self.half_range
        if self.zero_mean and self.coeffs[K] != 0:
            raise InvalidSequenceError("zero_mean set but f_0 != 0")
        if self.one_periodic:
            odd = self.coeffs[(self.ks() % 2) != 0]
            if np.any(odd != 0):
                raise InvalidSequenceError("one_periodic set but odd modes present")
        if self.real and not self.is_conj_symmetric(tol):
            raise InvalidSequenceError("real set but f_{-k} != conj(f_k)")
        return True

    def nonzero_ks(self):
        K = self.half_range
        return np.flatnonzero(self.coeffs) - K

    @classmethod
    def zeros(cls, K, **fields):
        return cls(np.zeros(2 * K + 1, dtype=complex), **fields)

    @classmethod
    def from_pairs(cls, pairs, K=None, **fields):
        """Build from (k, value) pairs, a later pair overwriting an earlier
        one at the same k, and validate the flags.  K defaults to max |k|;
        an index outside -K..K raises InvalidSequenceError."""
        pairs = [(int(k), v) for k, v in pairs]
        if K is None:
            K = max((abs(k) for k, _ in pairs), default=0)
        if K < 0 or any(abs(k) > K for k, _ in pairs):
            raise InvalidSequenceError("coefficient index outside the half "
                                       "range %d" % K)
        c = np.zeros(2 * K + 1, dtype=complex)
        for k, v in pairs:
            c[k + K] = v
        f = cls(c, **fields)
        f.validate()
        return f

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

    def to_json_obj(self):
        ks = self.nonzero_ks()
        return {
            "half_range": int(self.half_range),
            "real": bool(self.real),
            "zero_mean": bool(self.zero_mean),
            "one_periodic": bool(self.one_periodic),
            "coeffs": [[int(k), float(self[k].real), float(self[k].imag)]
                       for k in ks],
        }

    def to_json(self):
        return json.dumps(self.to_json_obj(), sort_keys=True)

    @staticmethod
    def from_json_obj(obj):
        try:
            K = int(obj["half_range"])
            pairs = [(int(k), re + 1j * im) for k, re, im in obj["coeffs"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidSequenceError("malformed sequence JSON: %s: %s"
                                       % (type(exc).__name__, exc))
        return FourierSeq.from_pairs(
            pairs, K=K, real=bool(obj.get("real", False)),
            zero_mean=bool(obj.get("zero_mean", False)),
            one_periodic=bool(obj.get("one_periodic", False)))

    @staticmethod
    def from_json(text):
        return FourierSeq.from_json_obj(json.loads(text))


@dataclass(frozen=True)
class SparseSeq:
    """Coefficients f_k on a finite support: sorted unique int64 indices idx
    and the values coeffs there (exact zeros allowed); f_k = 0 elsewhere.
    ks() and coeffs line up as for FourierSeq, so weight_profile,
    shifted_norm and apply_A_inv_Q take either container."""
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
        return SparseSeq(support, SparseSeq.sums(inv, vals, support.size))

    @staticmethod
    def sums(inv, vals, m):
        """m sums of vals_j over equal positions inv_j, in the order given."""
        vals = np.asarray(vals, dtype=complex)
        return (np.bincount(inv, weights=vals.real, minlength=m)
                + 1j * np.bincount(inv, weights=vals.imag, minlength=m))

    @staticmethod
    def total(seqs):
        """Sum of sequences (either container), added in the order given."""
        return SparseSeq.accumulate(np.concatenate([g.ks() for g in seqs]),
                                    np.concatenate([g.coeffs for g in seqs]))


def _ordered_indices(K):
    # index order 0, +1, -1, +2, -2, ... as positions into the coeff array
    ks = np.empty(2 * K + 1, dtype=int)
    ks[0] = 0
    ks[1::2] = np.arange(1, K + 1)
    ks[2::2] = -np.arange(1, K + 1)
    return ks + K


def weight_factors(ks, w, s):
    """Array w(k) <k>^s at the indices ks."""
    return (np.ones(ks.size) if w is None else w(ks)) * bracket(ks) ** s


def weight_profile(f, w, s, shift=0):
    """Array w(k+shift) <k+shift>^s |f_k| in ascending-k order."""
    return weight_factors(f.ks() + shift, w, s) * np.abs(f.coeffs)


def norm(f, w, s, p):
    """Weighted norm ||f||_{w,s,p}; w=None means the trivial weight.

    Finite-p summation runs in the fixed order |k| ascending, +k before -k,
    so results are reproducible bit for bit.
    """
    if p < 1:
        raise ValueError("p must be in [1, inf]")
    prof = weight_profile(f, w, s)
    if math.isinf(p):
        return float(prof.max(initial=0.0))
    ordered = prof[_ordered_indices(f.half_range)]
    return float(np.add.reduce(ordered ** p) ** (1.0 / p))


def shifted_norm(f, w, s, l):
    """sup_k w_{k+l} <k+l>^s |f_k|  (the norm of f e_l)."""
    return float(weight_profile(f, w, s, shift=l).max(initial=0.0))


def tail(f, N):
    """Zero out coefficients with |k| < N."""
    if N < 1:
        raise ValueError("N must be >= 1")
    c = f.coeffs.copy()
    c[np.abs(f.ks()) < N] = 0
    return replace(f, coeffs=c, zero_mean=True)


def hilbert_sum(n, sigma, cutoff=1_000_000):
    """S(n, sigma) = sum over |m| != n of 1/|m^2 - n^2|^sigma; for a list
    of n, the array of S over it.

    Direct summation up to M = max(cutoff, 4n) plus an exact series for both
    tails.  The summands factor as |m-n|^{-sigma} (m+n)^{-sigma}, so one
    table t[x] = x^{-sigma} serves every n: n < m <= M gives
    t[1:M-n+1] t[2n+1:M+n+1], 0 < m < n gives t[n-1:0:-1] t[n+1:2n] and
    m = 0 gives n^{-2 sigma}.  Each tail is the integral of (x^2 - n^2)^{-sigma}
    over x > M + 1/2; u = 1/x and b = 1/(M + 1/2) turn it into the integral
    over 0 < u < b of u^{2 sigma - 2} (1 - n^2 u^2)^{-sigma}, whose binomial
    series integrates term by term to
    b^{2 sigma - 1} sum_j (sigma)_j / j! (nb)^{2j} / (2 sigma - 1 + 2j),
    (sigma)_j the rising factorial.  M >= 4n makes (nb)^2 < 1/16, so the
    terms past j = 24 are below double precision for sigma up to about 16.
    Raises ValueError for n < 1 or sigma <= 1/2.
    """
    ns = np.atleast_1d(n)
    if ns.min() < 1:
        raise ValueError("n must be >= 1")
    if sigma <= 0.5:
        raise ValueError("sum diverges for sigma <= 1/2")
    Ms = np.maximum(int(cutoff), 4 * ns)
    x = np.arange((Ms + ns).max() + 1, dtype=float)
    x[0] = np.inf  # inf ** negative = 0
    t = x ** (-sigma)
    body = np.array([np.dot(t[1:M - k + 1], t[2 * k + 1:M + k + 1])
                     + np.dot(t[k - 1:0:-1], t[k + 1:2 * k])
                     for k, M in zip(ns.tolist(), Ms.tolist())])
    b = 1.0 / (Ms + 0.5)
    j = np.arange(25)
    c = np.cumprod(np.r_[1.0, (sigma + j[:-1]) / j[1:]])
    tails = b ** (2 * sigma - 1) * (((ns * b) ** 2)[:, None] ** j
                                    * (c / (2 * sigma - 1 + 2 * j))).sum(axis=1)
    out = 2.0 * body + ns.astype(float) ** (-2.0 * sigma) + 2.0 * tails
    return float(out[0]) if np.ndim(n) == 0 else out


def weakstar_converged(seqs, limit, s, component_tol):
    """Desk-scale test of 'norm bounded + componentwise convergent'.

    Boundedness rule: max ||.||_{s,inf} over the final third of the list must
    not exceed twice the max over the first third (plus component_tol) --
    a finite list is always bounded, so the rule detects growth trends
    instead.  Componentwise convergence is checked on the final third only.
    Returns (bool, report).
    """
    if not seqs:
        return True, {"norms": [], "sup_norm": 0.0, "max_component_dev": 0.0}
    norms = [norm(f, None, s, math.inf) for f in seqs]
    third = max(1, len(norms) // 3)
    bounded = max(norms[-third:]) <= 2.0 * max(norms[:third]) + component_tol
    Kmax = max(max(f.half_range for f in seqs), limit.half_range)
    dev = 0.0
    for f in seqs[-third:]:
        g = f.extended(Kmax).coeffs - limit.extended(Kmax).coeffs
        dev = max(dev, float(np.max(np.abs(g))))
    converged = dev <= component_tol
    report = {
        "norms": norms,
        "sup_norm": max(norms),
        "norm_bounded": bool(bounded),
        "max_component_dev": dev,
        "componentwise": bool(converged),
    }
    return bool(bounded and converged), report
