"""The exponential E(X) = sum X^j / j! over Q_p and its inverse.

Coefficient valuations come from the Legendre count of prime factors in
j!, giving the certified tail bound v(1/j!) >= -(j-1)/(p-1) and the
exact convergence domain v(x) >= 1 (p >= 3) or v(x) >= 2 (p = 2).

E is evaluated in closed form, not from a coefficient table: on its
domain E is an isometry, |E(x) - E(y)| = |x - y|, so E(x) is known to
exactly the digits of x, and `_exp_mod` sums it on exact integers by
bit-burst binary splitting (Brent 1976).  `exp_eval` calls that kernel
directly.  `exp_series` is E as a `TruncatedSeries` for the solver and
the bounds: its `eval` is the same kernel, its derivative is itself,
and it stores only the few 1/j! that the suprema and Strassmann bounds
read.

The logarithm is summed in closed form the same way (`_log_mod`), and
`log_solve` certifies it: the Hensel solver, started at that value,
proves it as the root of E(x) = z with one evaluation of E.  log is an
isometry on the domain too, so log z is known to exactly the digits of
z, and a wrong closed form could cost Newton steps but never a digit.

Both kernels read the digits of their argument below H = 8 e_min(p)
off one table per prime (`_table`): E(p^i) and E(p^i)^-1 modulo p^K for
i in [e_min, H), K the largest precision asked for at p so far.  Two
identities make it exact:

- E(n y) = E(y)^n, so E(sum d_i p^i) = prod E(p^i)^(d_i), and the table
  is one series sum, E(p^e_min), followed by p-th powers: E(p^(i+1)) =
  E(p^i)^p;
- log(E(p^i)^d) = d p^i, so log z takes the digit d of z - 1 at p^i by
  z <- z E(p^i)^(-d), which clears it, and adding d p^i.

The series sums then start at H, where they need a fraction of the
terms the lowest digits need.  A table holds 2 (H - e_min) ints of the
largest precision asked for, per prime; a call at a smaller k reads its
entries cut to p^k, each cut made once and kept (see `_table`).
`exp_series` keeps its last few series by (field, target), so a
`log_solve` builds the certificate's 1/j! once.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import _resolve
from .errors import DomainError
from .localfield import FieldDescriptor, FieldElement, FieldKind
from .series import TailProfile, TruncatedSeries
from .valuation import INFINITY, factorial_valuation

# `log_solve` imports the solver when it first runs, so `exp` never
# compiles it; `dvfield.special.<name>` still reaches every package name.
__getattr__ = _resolve

# terms summed by one loop at the leaves of the binary splitting
_LEAF_TERMS = 32
# coefficients exp_series stores (see there)
_STORED = 5
# the table covers the digit positions [e_min, _HEAD e_min) (see `_table`)
_HEAD = 8
# p -> [K, [E(p^i)], [E(p^i)^-1] or None, {(k, inverses): entries mod p^k}],
# modulo p^K, for i in [e_min, H)
_tables: dict = {}
# how many primes keep a table, and how many cuts to a smaller k each
# table keeps; the primes and precisions in use at one time are few
_PRIMES_KEPT = 16
_CUTS_KEPT = 32
# how many series exp_series keeps; the (field, target) pairs in use at
# one time are few
_SERIES_KEPT = 32
_series: dict = {}


def e_min(p: int) -> int:
    """Least valuation admitted by the exponential's domain |x| < p^(-1/(p-1))."""
    return 2 if p == 2 else 1


def _require_padic(descriptor: FieldDescriptor) -> None:
    if descriptor.kind is not FieldKind.PADIC:
        raise DomainError(
            "the exponential needs characteristic zero: factorials vanish "
            "in the residue characteristic")


def _split(x: int, a: int, b: int, M: int) -> tuple[int, int, int]:
    """(P, Q, T) modulo M for the terms j in [a, b), 1 <= a < b: P =
    x^(b-a), Q = a (a+1) ... (b-1) and T with T / Q = sum_{a <= j < b}
    x^(j-a+1) / (a (a+1) ... j).  Halves merge as P = P1 P2, Q = Q1 Q2,
    T = T1 Q2 + P1 T2: ring operations only, so every product can be
    reduced modulo M."""
    if b - a <= _LEAF_TERMS:
        # from the top: [j, b) is x/j (1 + [j+1, b))
        Q, T = 1, 0
        for j in range(b - 1, a - 1, -1):
            T = x * (Q + T)
            Q *= j
        return x ** (b - a), Q, T
    mid = (a + b) // 2
    P1, Q1, T1 = _split(x, a, mid, M)
    P2, Q2, T2 = _split(x, mid, b, M)
    return P1 * P2 % M, Q1 * Q2 % M, (T1 * Q2 + P1 * T2) % M


def _exp_sum(K, chunk: int, lo: int, k: int) -> tuple[int, int]:
    """(num, den) with E(chunk) = num / den modulo p^k, den prime to p,
    for 0 < chunk < p^k with v(chunk) >= lo >= e_min(p).

    The sum runs over j < J, the first index where the Legendre minorant
    j lo - (j-1)/(p-1) of v(chunk^j / j!) reaches k, so every dropped
    term vanishes modulo p^k.  With Q = (J-1)! = p^t Q' and t from
    Legendre, T and Q are needed only modulo p^(k+t): E(chunk) = (Q' +
    T/p^t) / Q' modulo p^k."""
    p = K.q
    pk = K.power(k)
    # j (lo (p-1) - 1) + 1 >= k (p-1) for every j >= J; lo < k, since
    # p^lo divides chunk < p^k, so J >= 2
    J = -(-(k * (p - 1) - 1) // (lo * (p - 1) - 1))
    pt = p ** factorial_valuation(p, J - 1)
    _, Q, T = _split(chunk, 1, J, pk * pt)
    return (Q + T) // pt % pk, Q // pt % pk


def _table(K, k: int, inverses: bool = False) -> list[int]:
    """E(p^i) modulo p^k for i in [e_min, H), or with `inverses`
    E(p^i)^-1, from the table of p, which is built again at k when it is
    shorter.

    E(p^e_min) = num / den is the one series sum (`_exp_sum`), and
    E(p^(i+1)) = E(p^i)^p carries it up; the inverses, which only the
    logarithm reads, are the same chain from one inversion, made when
    first asked for.  A smaller k gets the entries cut to p^k, kept per
    (k, inverses), so no call reduces entries as wide as the largest
    precision seen.  Needs k > e_min(p), which every argument with a
    digit below H has.

    Memory, per prime: the table, 2 (H - e_min) ints modulo p^K, K the
    largest k asked for at p, and at most _CUTS_KEPT cuts of H - e_min
    ints each, all narrower; at most _PRIMES_KEPT primes are kept."""
    p = K.q
    table = _tables.get(p)
    if table is None or table[0] < k:
        if table is None and len(_tables) >= _PRIMES_KEPT:
            _tables.clear()
        s = e_min(p)
        num, den = _exp_sum(K, p ** s, s, k)
        table = _tables[p] = [k, _chain(K, num * K.inv(den, k), k), None, {}]
    if inverses and table[2] is None:
        table[2] = _chain(K, K.inv(table[1][0], table[0]), table[0])
    entries = table[2] if inverses else table[1]
    if k == table[0]:
        return entries
    cuts = table[3]
    cut = cuts.get((k, inverses))
    if cut is None:
        if len(cuts) >= _CUTS_KEPT:
            cuts.clear()
        pk = K.power(k)
        cut = cuts[k, inverses] = [e % pk for e in entries]
    return cut


def _chain(K, e: int, k: int) -> list[int]:
    """e, e^p, e^(p^2), ... modulo p^k, one for each position in [e_min, H)."""
    p = K.q
    pk = K.power(k)
    out = [e % pk]
    for _ in range(1, (_HEAD - 1) * e_min(p)):
        out.append(pow(out[-1], p, pk))
    return out


def _exp_mod(K, x: int, k: int) -> int:
    """E(x) modulo p^k, k >= 1, for an integer x with v(x) >= e_min(p).

    The digits d_i of x below H = 8 s, s = e_min(p), give prod E(p^i)^d_i
    from the table (`_table`).  Above H, bit-burst: the digits of x in
    [2^j H, 2^(j+1) H) form the chunk x_j, and E(x) is that product times
    prod E(x_j) (digits from k on change E(x) only from k on), each
    E(x_j) summed by `_exp_sum`.  The chunk quotients share one
    inversion at the end."""
    p = K.q
    pk = K.power(k)
    x %= pk
    s = e_min(p)
    lo = _HEAD * s
    head = x % K.power(lo)
    num = den = 1
    if head:
        x -= head
        head //= p ** s
        for e in _table(K, k):
            head, d = divmod(head, p)
            if d:
                num = num * pow(e, d, pk) % pk
    while x:
        hi = min(2 * lo, k)
        chunk = x % K.power(hi)
        x -= chunk
        if chunk:
            n, d = _exp_sum(K, chunk, lo, k)
            num = num * n % pk
            den = den * d % pk
        lo = hi
    return num * K.inv(den, k) % pk


def _split_log(e: int, a: int, b: int, M: int) -> tuple[int, int, int]:
    """(P, B, T) modulo M for the terms j in [a, b), 1 <= a < b: P =
    e^(b-a), B = a (a+1) ... (b-1) and T with T / B = sum_{a <= j < b}
    e^(j-a+1) / j.  Halves merge as P = P1 P2, B = B1 B2, T = T1 B2 +
    B1 P1 T2.  Every term is positive, so every product is nonnegative and
    its reduction modulo M never widens it (a negative one would become
    as wide as M); the leaves, narrower than M, are not reduced."""
    if b - a <= _LEAF_TERMS:
        # from the top: [j, b) is e/j + e [j+1, b)
        B, T = 1, 0
        for j in range(b - 1, a - 1, -1):
            T = e * (B + j * T)
            B *= j
        return e ** (b - a), B, T
    mid = (a + b) // 2
    P1, B1, T1 = _split_log(e, a, mid, M)
    P2, B2, T2 = _split_log(e, mid, b, M)
    return P1 * P2 % M, B1 * B2 % M, (T1 * B2 + B1 * P1 * T2) % M


def _log_terms(K, lo: int, k: int) -> int:
    """The first J with j lo - v_p(j) >= k for every j >= J, 1 <= lo < k:
    from J on, the terms e^j / j with v(e) >= lo vanish modulo p^k."""
    c = -(-k // lo)
    # from j0 = c + bitlen(c) // lo + 1 on, (j - c) lo >= v_p(j), so j lo
    # - v_p(j) >= c lo >= k: v_p(j) <= log2(j) is at most bitlen(c) <
    # (j0 - c) lo below 2c, and at most j/2 <= j - c from 2c >= 4 on
    j = c + c.bit_length() // lo + 1
    while j * lo - K.strip(j)[0] >= k:
        j -= 1
    return j + 1


def _log_mod(K, z: int, k: int) -> int:
    """log z modulo p^k, k >= 1, for an integer z = 1 modulo p^e_min(p).

    First the digits of z - 1 below H = 8 e_min(p), from the lowest: with
    r = 1 modulo p^i and d the digit of r - 1 at p^i, r <- r E(p^i)^(-d)
    (`_table`) makes r = 1 modulo p^(i+1), and log z gains log(E(p^i)^d)
    = d p^i.  Then bit-burst, as in `_exp_mod`: at the level of lo, with
    r = 1 modulo p^lo, the chunk e = (r - 1) modulo p^hi, hi = min(2 lo,
    k), has valuation >= lo, and r (1 - e) = 1 - (r - 1)^2 modulo p^hi,
    so the step r <- r (1 - e) needs no inverse.  Once r = 1 modulo p^k,
    log r vanishes there (log is an isometry on the domain), so log z
    adds, over the chunks, -log(1 - e) = sum_{j >= 1} e^j / j, every term
    positive.  The chunk is summed over j < J (`_log_terms`) and, as in
    `_exp_sum`, modulo p^(k+t), B = (J-1)! = p^t B'; the sums share one
    inversion at the end."""
    p = K.q
    pk = K.power(k)
    r = z % pk
    s = e_min(p)
    lo = _HEAD * s
    head = 0
    if r % K.power(lo) != 1:
        pi = p ** s
        for f in _table(K, k, inverses=True):
            d = r // pi % p
            if d:
                r = r * pow(f, d, pk) % pk
                head += d * pi
            pi *= p
    num, den = 0, 1
    while lo < k:
        hi = min(2 * lo, k)
        e = (r - 1) % K.power(hi)
        if e:
            J = _log_terms(K, lo, k)
            pt = p ** factorial_valuation(p, J - 1)
            _, B, T = _split_log(e, 1, J, pk * pt)
            B //= pt
            num = (num * B + T // pt * den) % pk
            den = den * B % pk
            r = r * (1 - e) % pk
        lo = hi
    return (head + num * K.inv(den, k)) % pk


def _exp(x: FieldElement, target_prec: int) -> FieldElement:
    """E(x) modulo q^k, k = min(target_prec, x.abs_precision), for x in
    the domain; zero to precision k when k <= 0."""
    F = x.descriptor
    k = min(target_prec, x.abs_precision)
    if k <= 0:
        return FieldElement.zero_to_precision(F, k)
    X = 0 if x.valuation is INFINITY else x.unit * F.arith.power(x.valuation)
    return FieldElement(F, 0, _exp_mod(F.arith, X, k), k)


class _Exponential(TruncatedSeries):
    """E as a series: the stored 1/j! and the Legendre tail give the
    suprema and the Strassmann bounds, `eval` is the closed-form kernel,
    and E' = E coefficient for coefficient, so the stored coefficients
    and the tail hold for the derivative too."""

    def eval(self, x: FieldElement, target_prec: int) -> FieldElement:
        """E(x) modulo q^min(target_prec, x.abs_precision)."""
        self._require_argument(x)
        return _exp(x, target_prec)

    def derivative(self) -> "TruncatedSeries":
        return self


def exp_series(descriptor: FieldDescriptor, target_prec: int) -> TruncatedSeries:
    """E(X) with coefficients known modulo q^working_precision, which
    carries a Horner evaluation to q^target_prec anywhere in the domain:
    copies of E (`materialized`, `tail:exp` literals) evaluate that way.

    At most a_0 .. a_(2K-2) are stored, K = 3.  For k <= K (the solver
    reads M_1 and M_2) and every admissible radius exponent m, the tail
    bound at j = 2K - 1, m (j - k) - (j - 1)/(p - 1), is at least 0 >=
    v(a_k).  So `sup_exponent(m, k)` and `strassmann_bound` from index 0
    or 1 get from these the result a longer table gives.  The factory
    builds them and every further coefficient.

    A series is immutable, so the last `_SERIES_KEPT` are kept by
    (descriptor, target_prec) and returned again."""
    E = _series.get((descriptor, target_prec))
    if E is not None:
        return E
    _require_padic(descriptor)
    p = descriptor.q
    slope = Fraction(-1, p - 1)
    intercept = Fraction(1, p - 1)
    m = e_min(p)
    # worst-case term count at the domain edge, then the worst coefficient
    # denominator valuation it can involve
    cut = math.ceil((Fraction(target_prec) - intercept) / (slope + m))
    coeff_prec = target_prec + factorial_valuation(p, cut + p) + 2

    def factory(j: int, _prec=coeff_prec, _d=descriptor) -> FieldElement:
        return FieldElement.from_rational(_d, 1, math.factorial(j), _prec)

    # the count a Horner evaluation of E' to the target reads at the domain
    # edge, which is less than _STORED only for the smallest targets
    count = max(2, math.ceil((Fraction(target_prec) - intercept - slope)
                             / (slope + m)) + 1)
    coeffs = tuple(factory(j) for j in range(min(count, _STORED)))
    tail = TailProfile(start=1, slope=slope, intercept=intercept)
    if len(_series) >= _SERIES_KEPT:
        _series.clear()
    E = _series[descriptor, target_prec] = _Exponential(descriptor, coeffs, tail, factory)
    return E


def exp_eval(x: FieldElement, target_prec: int) -> FieldElement:
    """E(x) modulo q^target_prec; satisfies |E(x)| = 1 and |E(x) - 1| = |x|.
    Raises PrecisionExhausted when x is known to fewer digits."""
    _require_padic(x.descriptor)
    if x.valuation_lower_bound < e_min(x.descriptor.q):
        raise DomainError(
            f"exponential diverges: need valuation >= {e_min(x.descriptor.q)}")
    return _exp(x, target_prec).truncate(target_prec)


def log_solve(z: FieldElement, target_prec: int) -> FieldElement:
    """The unique x in the convergence domain with E(x) = z modulo
    q^target_prec: log z in closed form (`_log_mod`), certified as the
    root of E(x) = z by the Hensel solver started there, which proves it
    with one evaluation of E and no Newton step."""
    from .rootfind import HenselProblem, hensel_solve
    _require_padic(z.descriptor)
    p = z.descriptor.q
    one = FieldElement.one(z.descriptor, z.abs_precision)
    if (z - one).valuation_lower_bound < e_min(p):
        raise DomainError(
            f"logarithm undefined: need valuation(z - 1) >= {e_min(p)}")
    if target_prec <= e_min(p):
        # log is an isometry on the domain: v(log z) = v(z - 1) >= e_min
        return FieldElement.zero_to_precision(z.descriptor, target_prec)
    # digits of z beyond the target cannot change x modulo q^target_prec;
    # z = 1 modulo q^e_min is a unit, so its unit is z modulo q^k
    z = z.truncate(min(z.abs_precision, target_prec))
    F, k = z.descriptor, z.abs_precision
    x0 = FieldElement.from_rational(F, _log_mod(F.arith, z.unit, k), 1, k)
    f = exp_series(F, target_prec)
    cert = hensel_solve(HenselProblem(f, x0, z, e_min(p), target_prec))
    return cert.root.truncate(target_prec)
