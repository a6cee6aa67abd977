"""Exact GF(p^k) arithmetic with an explicit irreducible modulus.

Elements are length-k coefficient tuples over GF(p), low degree first.  The
modulus is the lexicographically smallest monic irreducible of degree k
(comparing coefficient tuples low-to-high), so a field is fully determined
by (p, k).
"""

from __future__ import annotations

from itertools import product

MAX_PRIME = 97
MAX_DEGREE = 4


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_divmod(num, den, p):
    """Polynomial division over GF(p); polys are low-to-high coefficient lists."""
    num = list(num)
    dden = len(den) - 1
    inv_lead = pow(den[-1], p - 2, p)
    quot = [0] * max(0, len(num) - dden)
    for i in range(len(num) - 1, dden - 1, -1):
        c = num[i] * inv_lead % p
        if c:
            quot[i - dden] = c
            for j, d in enumerate(den):
                num[i - dden + j] = (num[i - dden + j] - c * d) % p
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


def _is_irreducible(poly, p: int) -> bool:
    """Exhaustive check for degree <= 4: no roots, and for degree 4 no
    monic quadratic divisor."""
    deg = len(poly) - 1
    for x in range(p):
        acc = 0
        for c in reversed(poly):
            acc = (acc * x + c) % p
        if acc == 0:
            return False
    if deg == 4:
        for c0, c1 in product(range(p), repeat=2):
            _, rem = _poly_divmod(poly, [c0, c1, 1], p)
            if rem == [0]:
                return False
    return True


def _smallest_irreducible(p: int, k: int):
    if k == 1:
        return (0, 1)
    for coeffs in product(range(p), repeat=k):
        poly = list(coeffs) + [1]
        if _is_irreducible(poly, p):
            return tuple(poly)
    raise AssertionError("no irreducible polynomial found")


class FiniteField:
    """GF(p^k) with elements as length-k tuples of ints in [0, p)."""

    def __init__(self, p: int, k: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p > MAX_PRIME:
            raise ValueError(f"prime cap is {MAX_PRIME}")
        if not 1 <= k <= MAX_DEGREE:
            raise ValueError(f"extension degree must be in 1..{MAX_DEGREE}")
        self.p = p
        self.k = k
        self.modulus = _smallest_irreducible(p, k)
        self.order = p ** k
        self.zero = (0,) * k
        self.one = (1,) + (0,) * (k - 1)

    def from_index(self, i: int) -> tuple:
        """Element number i in the fixed enumeration: coefficient c_j is digit j
        of i in base p, low degree least significant."""
        if not 0 <= i < self.order:
            raise ValueError("index out of range")
        coeffs = []
        for _ in range(self.k):
            coeffs.append(i % self.p)
            i //= self.p
        return tuple(coeffs)

    def to_index(self, a) -> int:
        i = 0
        for c in reversed(a):
            i = i * self.p + c
        return i

    def add(self, a, b) -> tuple:
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a, b) -> tuple:
        p, k = self.p, self.k
        conv = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] = (conv[i + j] + x * y) % p
        mod = self.modulus
        for i in range(2 * k - 2, k - 1, -1):
            c = conv[i]
            if c:
                conv[i] = 0
                for j in range(k):
                    conv[i - k + j] = (conv[i - k + j] - c * mod[j]) % p
        return tuple(conv[:k])

    def pow(self, a, e: int) -> tuple:
        result = self.one
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def norm_to_base(self, a) -> int:
        """Field norm down to GF(p): a^((p^k - 1)/(p - 1)), returned as an int."""
        t = self.pow(a, (self.order - 1) // (self.p - 1))
        if any(t[1:]):
            raise AssertionError("norm left the base field")
        return t[0]
