"""Reference model of the exponential and logarithm kernels as they were
before the table of E(p^i): `special._exp_mod` and `special._log_mod`
verbatim, with their splitters, summing every digit of the argument by
bit-burst binary splitting from e_min(p) on.

The library reads the digits below H = 8 e_min(p) off a table of E(p^i)
and E(p^i)^-1 and must return the same int on every input;
`tests/test_special.py` checks that.
"""

from __future__ import annotations

from dvfield.special import e_min
from dvfield.valuation import factorial_valuation

_LEAF_TERMS = 32


def split(x: int, a: int, b: int, M: int) -> tuple[int, int, int]:
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
    P1, Q1, T1 = split(x, a, mid, M)
    P2, Q2, T2 = split(x, mid, b, M)
    return P1 * P2 % M, Q1 * Q2 % M, (T1 * Q2 + P1 * T2) % M


def exp_mod(K, x: int, k: int) -> int:
    """E(x) modulo p^k, k >= 1, for an integer x with v(x) >= e_min(p).

    Bit-burst: the digits of x in [2^i s, 2^(i+1) s), s = e_min(p), form
    the chunk x_i, and E(x) = prod E(x_i) (digits from k on change E(x)
    only from k on).  The chunk of valuation l >= 2^i s is summed over j
    < J, the first index where the Legendre minorant j l - (j-1)/(p-1)
    of v(x_i^j / j!) reaches k, so every dropped term vanishes modulo
    p^k.  With Q = (J-1)! = p^t Q' and t from Legendre, T and Q are
    needed only modulo p^(k+t): E(x_i) = (Q' + T/p^t) / Q' modulo p^k.
    The chunk quotients share one inversion at the end."""
    p = K.q
    pk = K.power(k)
    x %= pk
    num = den = 1
    lo = e_min(p)
    while x:
        hi = min(2 * lo, k)
        chunk = x % K.power(hi)
        x -= chunk
        if chunk:
            # j (lo (p-1) - 1) + 1 >= k (p-1) for every j >= J; lo < k,
            # since p^lo divides chunk < p^k, so J >= 2
            J = -(-(k * (p - 1) - 1) // (lo * (p - 1) - 1))
            pt = p ** factorial_valuation(p, J - 1)
            _, Q, T = split(chunk, 1, J, pk * pt)
            num = num * ((Q + T) // pt) % pk
            den = den * (Q // pt) % pk
        lo = hi
    return num * K.inv(den, k) % pk


def split_log(e: int, a: int, b: int, M: int) -> tuple[int, int, int]:
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
    P1, B1, T1 = split_log(e, a, mid, M)
    P2, B2, T2 = split_log(e, mid, b, M)
    return P1 * P2 % M, B1 * B2 % M, (T1 * B2 + B1 * P1 * T2) % M


def log_terms(K, lo: int, k: int) -> int:
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


def log_mod(K, z: int, k: int) -> int:
    """log z modulo p^k, k >= 1, for an integer z = 1 modulo p^e_min(p).

    Bit-burst, as in `exp_mod`: at the level of lo, with r = 1 modulo
    p^lo, the chunk e = (r - 1) modulo p^hi, hi = min(2 lo, k), has
    valuation >= lo, and r (1 - e) = 1 - (r - 1)^2 modulo p^hi, so the
    step r <- r (1 - e) needs no inverse.  Once r = 1 modulo p^k, log r
    vanishes there (log is an isometry on the domain), so log z = sum
    over the chunks of -log(1 - e) = sum_{j >= 1} e^j / j, every term
    positive.  The chunk is summed over j < J (`log_terms`) and, as in
    `exp_mod`, modulo p^(k+t), B = (J-1)! = p^t B'; the sums share one
    inversion at the end."""
    p = K.q
    pk = K.power(k)
    r = z % pk
    num, den = 0, 1
    lo = e_min(p)
    while lo < k:
        hi = min(2 * lo, k)
        e = (r - 1) % K.power(hi)
        if e:
            J = log_terms(K, lo, k)
            pt = p ** factorial_valuation(p, J - 1)
            _, B, T = split_log(e, 1, J, pk * pt)
            B //= pt
            num = (num * B + T // pt * den) % pk
            den = den * B % pk
            r = r * (1 - e) % pk
        lo = hi
    return num * K.inv(den, k) % pk


