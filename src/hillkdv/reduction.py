"""Lyapunov-Schmidt reduction of the Hill eigenvalue problem near n^2 pi^2.

For each index n the eigenvalue problem splits into a 2x2 system on
span{e_n, e_{-n}} and a contractively solvable equation on the complement:
with T_n(lambda) = V A_lambda^{-1} Q_n and K_n = (I - T_n)^{-1} (Neumann
series), the reduced determinant

    det B_n(lambda) = (lambda - n^2 pi^2 - a_n(lambda))^2
                      - b_n(lambda) b_{-n}(lambda)

has exactly two roots in the strip around n^2 pi^2, which are precisely the
periodic eigenvalues there.  a_n = <K_n V e_n, e_n> and
b_{+-n} = <K_n V e_{-+n}, e_{+-n}>.  This module computes the contraction
constant c_s, the thresholds (n_s, N_ms, M_ms), the coefficients, the fixed
point alpha_n = n^2 pi^2 + a_n(alpha_n), the roots, the adapted coefficient
map r, and the gap sandwich diagnostic.

Inside, lambda is held only as delta = lambda - n^2 pi^2, so each divisor
lambda - (k pi)^2 is delta - (k - n)(k + n) pi^2 with an exact integer
(k - n)(k + n), and no digit is lost to n^2 pi^2.  The map delta -> (a_n,
b_{+-n})(delta) contracts on the strip, so the offsets of alpha_n and of the
roots, the fixed points of delta <- a_n(delta) (+- sqrt(b_n b_{-n})(delta)),
are found by plain iteration; when it does not contract, contour sums of
log(det B_n / delta^2) on 16-256 nested nodes reseed the roots.

The Neumann iterates live on their exact support: T_n maps a support S to
the sumset (S minus {+-n}) + supp(q), and nothing is cut to a window, so K_n
is only approximated where the series stops; coefficients reports whether
that met neumann_tol.  The supports depend on n and supp(q) but not on
lambda: one plan per n finds them for V e_n and V e_{-n} at once, two rows
on their union, and every delta reuses it (a divide, then per row an outer
product and add.at).

All shifted norms are ||f||_{w,s,inf;l} = sup_k w_{k+l} <k+l>^s |f_k|.
"""

from dataclasses import dataclass
import cmath
import functools
import math

import numpy as np

from .sequences import FourierSeq, SparseSeq, Weight, bracket, hilbert_sum, \
    norm, weight_factors, _divisor_sums
from .operator import Potential, multiply, StripViolationError, \
    NearSingularError


class ContractionFailureError(ArithmeticError):
    pass


class ThresholdError(ValueError):
    pass


class LocalizationError(ArithmeticError):
    pass


class RootError(ArithmeticError):
    pass


PI2 = math.pi ** 2

# the n of the c_s sweep: every n <= 1024, then 2048 and 4096 (where the
# scaled sums peak: estimate_c_s)
_C_S_GRID = np.r_[1:1025, 2048, 4096]
# the n of the c_s' sweep
_C_S_PRIME_GRID = list(range(1, 65)) + [96, 128, 192, 256, 384, 512, 768,
                                       1024, 2048, 4096]


def estimate_c_s(s):
    """Contraction constant: c_s = max(1, sup_n n^{1/2-|s|} 2 D(n; 1-2|s|, 1))
    over _C_S_GRID with D(n; a, b) = sum over k != +-n of |k+n|^{-a}
    |k-n|^{-b}, the divisor sum of the T_n operator-norm bound, summed to
    infinity by _divisor_sums.  Computed once per s.  The scaled sums peak
    at n = 2, 4, 41 and 132 for s = 0, -1/4, -0.4 and -0.42; at s = -0.45
    they still rise at the grid's last point, n = 4096, so c_s there is
    only a lower estimate of the sup.
    """
    if not (-0.5 < s <= 0.0):
        raise ValueError("s must be in (-1/2, 0]")
    return _c_s(s)


@functools.cache
def _c_s(s):
    a = abs(s)
    vals = _C_S_GRID ** (0.5 - a) * 2.0 * _divisor_sums(
        _C_S_GRID, 1.0 - 2.0 * a, 1.0)
    return float(max(vals.max(), 1.0))


def epsilon_s(n, s):
    """Decay rate of the leading b_n correction: max of log<n>/n and
    n^{-(1-|s|)} (the two regimes are glued by taking the max)."""
    return max(math.log(1.0 + n) / n, n ** (-(1.0 - abs(s))))


def estimate_c_s_prime(s):
    """c_s' = max(c_s, sup_n 2 <2n>^s D(n; 1-|s|, 1-|s|) / epsilon_s(n)) over
    _C_S_PRIME_GRID, the latter fitted to the <T_n f, e_{+-n}> bound; D is
    hilbert_sum's infinite sum.  Computed once per s."""
    return max(estimate_c_s(s), _hilbert_sup(s))  # rejects s outside (-1/2, 0]


@functools.cache
def _hilbert_sup(s):
    h = hilbert_sum(_C_S_PRIME_GRID, 1.0 - abs(s))
    return float(max(2.0 * bracket(2 * n) ** s * hn / epsilon_s(n, s)
                     for n, hn in zip(_C_S_PRIME_GRID, h)))


def _smallest_n(power, target, name):
    """Smallest integer n >= 1 with n^power >= target; name labels errors."""
    if target <= 1.0:
        return 1
    try:
        n = max(1, int(math.ceil(target ** (1.0 / power))) - 2)
    except OverflowError:
        raise ThresholdError("threshold %s exceeds the float range: n^%g >= %.3g"
                             % (name, power, target)) from None
    while n ** power < target * (1.0 - 1e-13):
        n += 1
    return n


@dataclass(frozen=True)
class ReductionContext:
    """Bundle of potential, space parameters, Neumann settings and
    thresholds; nothing here changes after make_context, so results do not
    depend on the order of calls."""
    q: Potential
    s: float
    w: Weight | None
    m: float
    c_s: float
    c_s_prime: float
    n_s: int
    N_ms: int
    M_ms: int
    neumann_tol: float = 1e-12
    max_terms: int = 60


def make_context(q, s=None, w=None, m=None):
    """Context for q: s and w (default: the potential's), the ball radius m
    (default max(1, ||q||_{w,s,inf})), c_s, c_s' and the thresholds, the
    smallest integers with 2 c_s ||q|| <= n_s^{1/2-|s|}, 16 c_s' m /
    N_ms^{1/2-|s|} <= 1/2 and 8 c_s' / M_ms^{1/2-|s|} <= 1/(16 m).  There is
    no truncation parameter: iterates live on their exact support."""
    if s is None:
        s = q.s
    if w is None:
        w = q.weight
    qn = norm(q.seq, w, s, math.inf)
    if m is None:
        m = max(1.0, qn)
    if qn > m * (1.0 + 1e-12):
        raise ThresholdError("||q||_{w,s,inf} exceeds the bound m")
    c = estimate_c_s(s)
    cp = estimate_c_s_prime(s)
    power = 0.5 - abs(s)
    return ReductionContext(q=q, s=s, w=w, m=float(m), c_s=c, c_s_prime=cp,
                            n_s=_smallest_n(power, 2.0 * c * qn, "n_s"),
                            N_ms=_smallest_n(power, 32.0 * cp * m, "N_ms"),
                            M_ms=_smallest_n(power, 128.0 * cp * m, "M_ms"))


class _SupportPlan:
    """The delta-free part of the Neumann series at n of the starts rows,
    held as the rows of one array on the union of their supports (a row's
    zeros off its own support add nothing to it).  Per level l, found when
    first needed: the union S_l of the supports of the terms T_n^l f, its
    slots keep but +-n, (k - n)(k + n) pi^2 there, the larger of the
    shifted-norm factors w(k+-n) <k+-n>^s (exact for the max of the two
    norms, as |f_k| >= 0), the slots and indices of +-n, and the inverse
    index of supp(q) + S_l[keep] onto S_{l+1}."""

    def __init__(self, ctx, n, rows):
        self.n, self.q, self.ctx = n, ctx.q.support, ctx
        S, inv = np.unique(np.concatenate([f.ks() for f in rows]),
                           return_inverse=True)
        self.start = np.zeros((len(rows), S.size), dtype=complex)
        self.start[np.repeat(range(len(rows)), [f.ks().size for f in rows]),
                   inv] = np.concatenate([f.coeffs for f in rows])
        self.levels, self.inv = [self._level(S)], []

    def _level(self, S):
        n, w, s = self.n, self.ctx.w, self.ctx.s
        keep, pm = np.flatnonzero(np.abs(S) != n), np.flatnonzero(np.abs(S) == n)
        return (S, keep, (S[keep] - n) * (S[keep] + n) * PI2, np.maximum(
            weight_factors(S + n, w, s), weight_factors(S - n, w, s)),
            pm, S[pm].tolist())

    def size(self, l, c):
        """Each row's max of its shifted norms ||.||_{w,s,inf;+-n} on S_l."""
        return (self.levels[l][3] * np.abs(c)).max(axis=1, initial=0.0).tolist()

    def apply(self, l, delta, c):
        """The coefficients on S_{l+1} of T_n(n^2 pi^2 + delta) applied to
        each row of those, c, on S_l: each slot sums its products in the
        order of supp(q) from +0.0, as multiply(q, .) does."""
        S, keep, kk = self.levels[l][:3]
        if l == len(self.inv):
            # return_index sorts stably: a fast merge of the runs k + S[keep]
            S_next, _, inv = np.unique(np.add.outer(self.q.idx, S[keep]).ravel(),
                                       return_index=True, return_inverse=True)
            self.inv.append(inv)
            self.levels.append(self._level(S_next))
        div = complex(delta) - kk
        if np.abs(div).min(initial=np.inf) < 1e-12:
            raise NearSingularError("divisor |lambda - (k pi)^2| < 1e-12 "
                                    "in T_%d" % self.n)
        out = np.zeros((len(c), self.levels[l + 1][0].size), dtype=complex)
        for o, x in zip(out, c.take(keep, axis=1) / div):
            np.add.at(o, self.inv[l], np.multiply.outer(self.q.coeffs, x).ravel())
        return out


def _plans(ctx, n):
    """The support plan of the series from V e_n (row 0) and V e_{-n} (row 1)."""
    return _SupportPlan(ctx, n, [multiply(ctx.q, SparseSeq.accumulate(
        [k], [1.0])) for k in (n, -n)])


def _neumann_rows(ctx, delta, plan):
    """The terms T_n^l f of each start f of plan, up to max_terms
    applications of T_n.  Each row stops on its own once its latest term's
    shifted norm is below neumann_tol times its start's (a zero term ends
    the sum unadded); a stopped row adds no more terms, and its ratios no
    longer count.  Three term ratios > 0.9 in a row raise
    ContractionFailureError.  Returns (terms, used, max_ratio, converged),
    the last three per row: row r's sum is that of terms[:used[r]], and
    converged[r] is False when max_terms left its tolerance unmet."""
    if not abs(delta.real) <= 12.0 * plan.n + 1e-9:  # the strip S_n
        raise StripViolationError("delta %r outside S_%d" % (delta, plan.n))
    terms, base = [plan.start], plan.size(0, plan.start)
    prev, rows = list(base), len(base)
    used, max_ratio, streak, converged = ([x] * rows for x in (1, 0.0, 0, False))
    for l in range(ctx.max_terms):
        if all(converged):
            break
        terms.append(plan.apply(l, delta, terms[-1]))
        for r, tn in enumerate(plan.size(l + 1, terms[-1])):
            if converged[r]:
                continue
            if prev[r] > 0:
                ratio = tn / prev[r]
                max_ratio[r] = max(max_ratio[r], ratio)
                streak[r] = streak[r] + 1 if ratio > 0.9 else 0
                if streak[r] >= 3:
                    raise ContractionFailureError(
                        "Neumann ratio > 0.9 three times at n=%d" % plan.n)
            used[r] += tn != 0.0  # a zero term ends the sum unadded
            converged[r] = tn < ctx.neumann_tol * max(base[r], 1e-300)
            prev[r] = tn
    return terms, used, max_ratio, converged


@dataclass
class CoeffResult:
    n: int
    delta: complex     # lambda - n^2 pi^2
    a_n: complex
    a_n_alt: complex   # computed from e_{-n}; should equal a_n
    b_n: complex
    b_neg_n: complex
    terms_used: int
    max_ratio: float
    converged: bool    # both Neumann sums met neumann_tol


def coefficients(ctx, n, lam, plans=None):
    """_coefficients at delta = lambda - n^2 pi^2, on plans or a new plan."""
    return _coefficients(ctx, n, complex(lam) - n * n * PI2,
                         plans or _plans(ctx, n))


def _coefficients(ctx, n, delta, plan):
    """a_n = <K_n V e_n, e_n>, b_n = <K_n V e_{-n}, e_n>, b_{-n} =
    <K_n V e_n, e_{-n}> at lambda = n^2 pi^2 + delta, on the support plan of
    V e_n and V e_{-n} (_plans) that callers share over delta; the sums at
    +-n are added level by level from 0j."""
    terms, used, ratio, ok = _neumann_rows(ctx, delta, plan)
    h = {}  # (row, k) -> the row's sum at k = +-n
    for l, c in enumerate(terms[:max(used)]):
        pm, pk = plan.levels[l][4:]
        for r in (r for r in (0, 1) if l < used[r]):
            for k, v in zip(pk, c[r, pm].tolist()):
                h[r, k] = h.get((r, k), 0j) + v
    return CoeffResult(n=n, delta=complex(delta),
                       a_n=h.get((0, n), 0j), a_n_alt=h.get((1, -n), 0j),
                       b_n=h.get((1, n), 0j), b_neg_n=h.get((0, -n), 0j),
                       terms_used=max(used), max_ratio=max(ratio),
                       converged=all(ok))


def det_B(coeff):
    """det B_n at coeff.delta from coeff, a CoeffResult."""
    d = coeff.delta - coeff.a_n
    return d * d - coeff.b_n * coeff.b_neg_n


@dataclass
class ReductionResult:
    n: int
    a_n: complex
    b_n: complex
    b_neg_n: complex
    alpha_n: complex
    xi_1: complex
    xi_2: complex
    gap_estimate: float
    neumann_terms_used: int
    contraction_bound: float
    det_residuals: tuple
    method: str
    converged: bool    # the alpha_n iteration and the Neumann sums converged


def _sqrt_continuous(value, prev):
    sq = cmath.sqrt(value)
    if prev is not None and abs(-sq - prev) < abs(sq - prev):
        sq = -sq
    return sq


def _fixed_point(ctx, n, sign, plans, evals, delta=0j, sq=None, tol=1e-14):
    """Iterate delta <- a_n(delta) + sign sqrt(b_n b_{-n})(delta) from delta
    until a step is below tol n^2 pi^2, and return the CoeffResult of the
    last iterate, the delta that passed the test.  Sign 0 is alpha_n's map,
    +-1 the maps whose fixed points are the roots of det B_n; the square
    root stays on the branch nearest sq, its last value.  Every CoeffResult
    is appended to evals.  RootError when a step exceeds 0.8 times the one
    before (the map does not contract there) or after 80 steps."""
    prev_step = math.inf
    for _ in range(80):
        c = _coefficients(ctx, n, delta, plans)
        evals.append(c)
        new = c.a_n
        if sign:
            sq = _sqrt_continuous(c.b_n * c.b_neg_n, sq)
            new += sign * sq
        step = abs(new - delta)
        if step < tol * n * n * PI2:
            return c
        if step > 0.8 * prev_step:
            raise RootError("fixed point not contracting at n=%d" % n)
        prev_step = step
        delta = new
    raise RootError("fixed point did not converge at n=%d" % n)


def alpha_fixed_point(ctx, n, plans=None):
    """Fixed point alpha_n = n^2 pi^2 + a_n(alpha_n), iterated from n^2 pi^2
    until |step| < 1e-10 n^2 pi^2.  Requires n >= N_ms."""
    if n < ctx.N_ms:
        raise ThresholdError("alpha_n requires n >= N_ms = %d" % ctx.N_ms)
    plans = plans or _plans(ctx, n)
    return n * n * PI2 + _fixed_point(ctx, n, 0, plans, [], tol=1e-10).a_n


def _winding_roots(ctx, n, plans):
    """Seeds for the offsets z = delta of both roots of det B_n in |z| < r =
    4 sqrt(n): with two roots inside, g = det B_n / z^2 has a single-valued
    log, and the trapezoid rule at z_j = r e^{2 pi i j / P} gives z_1 + z_2 =
    -mean(z log g), z_1^2 + z_2^2 = -2 mean(z^2 log g).  P doubles from 8,
    reusing every node, until no phase step of g exceeds pi/4 and both sums
    agree with P/2's to 1e-12 r^j, or to 256 (find_roots' polish judges
    those seeds).  LocalizationError on a zero at a node, or a winding of
    det B_n (2 plus g's, read once the steps resolve) other than 2.  Returns
    the seeds and the nodes' CoeffResults."""
    r, coeffs, sums = 4.0 * math.sqrt(n), [], None
    for P in (8, 16, 32, 64, 128, 256):
        z = r * np.exp(2j * np.pi * np.arange(P) / P)
        new = [_coefficients(ctx, n, zj, plans)
               for zj in (z[1::2] if coeffs else z)]
        coeffs = [c for p in zip(coeffs, new) for c in p] if coeffs else new
        g = np.array([det_B(c) / c.delta ** 2 for c in coeffs])
        if np.any(g == 0):
            raise LocalizationError("root on the contour of D_%d" % n)
        step = np.angle(np.roll(g, -1) / g)
        log_g = np.log(np.abs(g)) + 1j * np.cumsum(np.r_[np.angle(g[0]), step[:-1]])
        old, sums = sums, (-np.mean(z * log_g), -2.0 * np.mean(z * z * log_g))
        if np.abs(step).max() <= np.pi / 4:
            winding = 2 + round(step.sum() / (2 * np.pi))
            if winding != 2:
                raise LocalizationError(
                    "winding number %d != 2 on D_%d boundary" % (winding, n))
            if old and all(abs(a - b) <= 1e-12 * r ** j
                           for j, a, b in zip((1, 2), sums, old)):
                break
    s1, s2 = sums
    disc = cmath.sqrt(2.0 * s2 - s1 * s1)
    return ((s1 + disc) / 2.0, (s1 - disc) / 2.0), coeffs


def find_roots(ctx, n, xi_bound_grid=0):
    """Both roots of det B_n in the disc |lambda - n^2 pi^2| <= 4 sqrt(n).

    The offsets delta = lambda - n^2 pi^2 of alpha_n and the roots are fixed
    points of delta <- a_n(delta) (+-sqrt(b_n b_{-n})(delta)), which contract
    on the strip for n >= n_s (see _fixed_point); the roots start at alpha_n
    +- sqrt(b_n b_{-n}), and method is "fixed-point".  If a root iteration
    fails or leaves the disc, contour sums of log(det B_n / delta^2) on
    16-256 nested nodes seed both again (method "winding"); RootError if
    that fails too.  Returns a ReductionResult with xi_j = n^2 pi^2 +
    delta_j, the gap |delta_1 - delta_2|, residuals |det B_n| at the roots,
    the contraction bound (the worst Neumann ratio of every evaluation made
    here) and converged, False if the alpha_n iteration failed (alpha_n is
    then n^2 pi^2) or a Neumann sum at alpha_n or at a root missed
    neumann_tol.  A nonzero xi_bound_grid raises ValueError.
    """
    if xi_bound_grid:
        raise ValueError("xi_bound_grid must be 0: find_roots has no grid")
    if n < ctx.n_s:
        raise ThresholdError("find_roots requires n >= n_s = %d" % ctx.n_s)
    evals = []
    plans = _plans(ctx, n)
    try:
        c0 = _fixed_point(ctx, n, 0, plans, evals, tol=1e-10)
        alpha, ok = c0.a_n, c0.converged
    except RootError:  # the roots start from n^2 pi^2
        c0, alpha, ok = evals[0], 0j, False

    def roots(seeds):
        found = [_fixed_point(ctx, n, sign, plans, evals, d, sq)
                 for sign, d, sq in seeds]
        if any(abs(c.delta) > 4.0 * math.sqrt(n) for c in found):
            raise RootError("root left D_%d" % n)
        return found

    sq0 = cmath.sqrt(c0.b_n * c0.b_neg_n)
    method = "fixed-point"
    try:
        c1, c2 = roots([(+1, alpha + sq0, sq0), (-1, alpha - sq0, sq0)])
    except (RootError, ContractionFailureError):
        method = "winding"
        estimates, contour = _winding_roots(ctx, n, plans=plans)
        evals += contour
        # the + map on the branch of sqrt(b_n b_{-n}) nearest d - alpha_n
        # is the one that fixes the root near the estimate d
        c1, c2 = roots([(+1, d, d - alpha) for d in estimates])
    if c2.delta.real < c1.delta.real:  # report in nondecreasing real-part order
        c1, c2 = c2, c1
    gap = abs(c1.delta - c2.delta)
    if gap < 1e-9 * max(1.0, math.sqrt(n)):
        gap = 0.0
    center = n * n * PI2
    return ReductionResult(n=n, a_n=c0.a_n, b_n=c0.b_n, b_neg_n=c0.b_neg_n,
                           alpha_n=center + alpha, xi_1=center + c1.delta,
                           xi_2=center + c2.delta, gap_estimate=gap,
                           neumann_terms_used=c0.terms_used,
                           contraction_bound=max(c.max_ratio for c in evals),
                           det_residuals=(abs(det_B(c1)), abs(det_B(c2))),
                           method=method,
                           converged=ok and c1.converged and c2.converged)


def adapted_coefficients(ctx, n_max=None):
    """Adapted coefficient sequence r: r_{2k} = q_{2k} for 0 < |k| < M_ms and
    r_{+-2k} = b_{+-k}(alpha_k) for M_ms <= k <= n_max (default M_ms + 6)."""
    M = ctx.M_ms
    if n_max is None:
        n_max = M + 6
    if n_max < M:
        raise ThresholdError("n_max must be >= M_ms")
    K = 2 * n_max
    r = np.zeros(2 * K + 1, dtype=complex)
    qs = ctx.q.support
    low = np.abs(qs.idx) < 2 * M
    r[qs.idx[low] + K] = qs.coeffs[low]
    for k in range(M, n_max + 1):
        plans = _plans(ctx, k)
        delta = _fixed_point(ctx, k, 0, plans, [], tol=1e-10).a_n  # alpha_k's
        c = _coefficients(ctx, k, delta, plans)
        r[K + 2 * k] = c.b_n
        r[K - 2 * k] = c.b_neg_n
    return FourierSeq(r)


def gap_sandwich(ctx, n, r, gamma_n):
    """If |r_{2n}/r_{-2n}| is within [1/9, 9], the squared gap is sandwiched:
    |r_{2n} r_{-2n}| <= |gamma_n|^2 <= 9 |r_{2n} r_{-2n}|."""
    if n < ctx.M_ms:
        raise ThresholdError("gap_sandwich requires n >= M_ms")
    r2n = r[2 * n]
    rm2n = r[-2 * n]
    report = {"n": n, "r_2n": r2n, "r_neg_2n": rm2n,
              "gamma_sq": abs(gamma_n) ** 2}
    if rm2n == 0:
        report.update(condition_met=False, reason="r_{-2n} = 0")
        return report
    ratio = abs(r2n / rm2n)
    report["ratio"] = ratio
    if not (1.0 / 9.0 <= ratio <= 9.0):
        report.update(condition_met=False, reason="ratio outside [1/9, 9]")
        return report
    lo = abs(r2n * rm2n)
    hi = 9.0 * lo
    gsq = abs(gamma_n) ** 2
    report.update(condition_met=True, lo=lo, hi=hi,
                  holds=bool(lo <= gsq * (1 + 1e-9) + 1e-300
                             and gsq <= hi * (1 + 1e-9)))
    return report


def isolated_mode_sandwich(rng, offsets):
    """The gap sandwich at an isolated high mode: a random real base on
    |n| <= 8 (sup 0.05, from rng), plus q_{+-2k} = 0.01 at k = M_ms + o for
    o in offsets, with the base's M_ms; the roots, r and gap_sandwich at
    the first offset's mode n = M_ms + offsets[0].  Returns (ctx, roots,
    report)."""
    base = Potential.random_real(rng, 8, sup=0.05)
    M = make_context(base).M_ms
    pairs = [(k, base.coeff(2 * k)) for k in range(-8, 9) if k != 0]
    for k in offsets:
        pairs += [(M + k, 0.01), (-M - k, 0.01)]
    ctx = make_context(Potential.from_even_pairs(pairs, n_max=M + max(offsets)))
    n = M + offsets[0]
    res = find_roots(ctx, n)
    r = adapted_coefficients(ctx, n_max=n)
    return ctx, res, gap_sandwich(ctx, n, r, res.gap_estimate)
