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


def _poly_mod(num, den, p):
    """num mod den over GF(p) for a monic den, as the len(den) - 1 low
    coefficients of the remainder; polys are low-to-high coefficient lists."""
    num = list(num)
    dden = len(den) - 1
    for i in range(len(num) - 1, dden - 1, -1):
        c = num[i]
        if c:
            for j in range(dden):
                num[i - dden + j] = (num[i - dden + j] - c * den[j]) % p
    return num[:dden]


def _is_irreducible(poly, p: int) -> bool:
    """No monic divisor of degree 1..deg/2, checked exhaustively."""
    return all(any(_poly_mod(poly, list(low) + [1], p))
               for d in range(1, (len(poly) - 1) // 2 + 1)
               for low in product(range(p), repeat=d))


def _smallest_irreducible(p: int, k: int):
    if k == 1:
        return (0, 1)
    # x divides every poly with constant term 0, so the constant starts at 1.
    for coeffs in product(range(1, p), *[range(p)] * (k - 1)):
        poly = list(coeffs) + [1]
        if _is_irreducible(poly, p):
            return tuple(poly)
    raise AssertionError("no irreducible polynomial found")


class FiniteField:
    """GF(p^k) with elements as length-k tuples of ints in [0, p)."""

    def __init__(self, p: int, k: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p > MAX_PRIME and k > 1:  # bounds the irreducible-polynomial search
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

    def add(self, a, b) -> tuple:
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a, b) -> tuple:
        p = self.p
        conv = [0] * (2 * self.k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] = (conv[i + j] + x * y) % p
        return tuple(_poly_mod(conv, self.modulus, p))

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
