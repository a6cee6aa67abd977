"""GF(p^k) arithmetic: moduli, axioms, norm behavior."""

import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import mexlab
from mexlab.fields import FiniteField, is_prime

# the fields past degree 4 that norm_graph builds: GF(p^5) for H(p, 6),
# GF(2^10) for H(2, 11) = K1024 and GF(3^6) for H(3, 7)
WIDE = [(2, 5), (3, 5), (5, 5), (7, 5), (2, 10), (3, 6)]


def test_is_prime():
    assert [p for p in range(2, 20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)


def test_gf4():
    F = FiniteField(2, 2)
    assert F.modulus == (1, 1, 1)
    x, x_plus_1 = (0, 1), (1, 1)
    assert F.mul(x, x_plus_1) == F.one
    assert F.norm_to_base(x) == 1


def test_gf9_norm():
    F = FiniteField(3, 2)
    assert F.modulus == (1, 0, 1)
    assert F.norm_to_base((1, 1)) == 2


def test_largest_field_modulus_is_found_quickly():
    # Every poly with constant term 0 is a multiple of x; trying them first
    # took seconds for GF(97^4), whose modulus has constant term 1.
    src = Path(mexlab.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c",
         "from mexlab.fields import FiniteField; print(FiniteField(97, 4).modulus)"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=5)
    assert proc.returncode == 0 and proc.stdout == "(1, 0, 0, 4, 1)\n"


def test_make_rejects():
    with pytest.raises(ValueError, match="not prime"):
        FiniteField(4, 2)
    with pytest.raises(ValueError, match="extension degree 0"):
        FiniteField(5, 0)


def _reducible(p: int, k: int) -> set:
    """Every monic product of two monic polynomials of degrees d and k - d,
    1 <= d <= k/2, over GF(p), as its k low coefficients, low-to-high."""
    out = set()
    for d in range(1, k // 2 + 1):
        for a in product(range(p), repeat=d):
            for b in product(range(p), repeat=k - d):
                conv = [0] * (k + 1)
                for i, x in enumerate(a + (1,)):
                    for j, y in enumerate(b + (1,)):
                        conv[i + j] = (conv[i + j] + x * y) % p
                out.add(tuple(conv[:k]))
    return out


def test_modulus_is_smallest_lowtohigh():
    # by brute force over all products: the modulus is irreducible, and
    # every earlier monic polynomial of the same degree is reducible
    for p, k in [(2, 3), (3, 2), (5, 2), (3, 3), (2, 4)] + WIDE:
        reducible = _reducible(p, k)
        target = FiniteField(p, k).modulus[:-1]
        assert target not in reducible, (p, k)
        for coeffs in product(range(p), repeat=k):
            if coeffs == target:
                break
            assert coeffs in reducible, (p, k, coeffs)


def test_field_axioms_random_triples():
    rng = random.Random(42)
    fields = [FiniteField(2, 2), FiniteField(3, 2), FiniteField(5, 2),
              FiniteField(7, 2), FiniteField(5, 3), FiniteField(3, 4)]
    fields += [FiniteField(p, k) for p, k in WIDE]
    for F in fields:
        for _ in range(167):
            a = F.from_index(rng.randrange(F.order))
            b = F.from_index(rng.randrange(F.order))
            c = F.from_index(rng.randrange(F.order))
            assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            # additive and multiplicative inverses, each by a witness
            assert F.add(a, tuple(-x % F.p for x in a)) == F.zero
            if a != F.zero:
                assert F.mul(a, F.pow(a, F.order - 2)) == F.one
            if a != F.zero and b != F.zero:
                assert (F.norm_to_base(F.mul(a, b))
                        == F.norm_to_base(a) * F.norm_to_base(b) % F.p)


def test_multiplicative_group_order():
    rng = random.Random(7)
    for F in [FiniteField(5, 2), FiniteField(7, 2), FiniteField(3, 3)] + [
            FiniteField(p, k) for p, k in WIDE]:
        for _ in range(100):
            a = F.from_index(rng.randrange(1, F.order))
            assert F.pow(a, F.order - 1) == F.one


def test_norm_stays_in_base_field():
    # and maps onto GF(p)*: over every nonzero element of the small fields,
    # over 300 random ones of the wide fields
    rng = random.Random(11)
    for F in [FiniteField(3, 2), FiniteField(5, 2), FiniteField(5, 3)] + [
            FiniteField(p, k) for p, k in WIDE]:
        indices = (range(1, F.order) if F.order < 200
                   else [rng.randrange(1, F.order) for _ in range(300)])
        norms = {F.norm_to_base(F.from_index(i)) for i in indices}
        assert norms == set(range(1, F.p)), (F.p, F.k)


def test_enumeration_round_trip():
    F = FiniteField(5, 3)
    for i in range(F.order):
        assert F.from_index(i) == tuple(i // 5 ** j % 5 for j in range(3))


def test_add_indices_is_add():
    # every i of the small fields, 20 random ones of the wide fields, each
    # against the tuple add over every j
    rng = random.Random(5)
    for F in [FiniteField(2, 1), FiniteField(3, 2), FiniteField(5, 3), FiniteField(7, 2)] + [
            FiniteField(p, k) for p, k in WIDE]:
        elems = [F.from_index(j) for j in range(F.order)]
        for i in (range(F.order) if F.order < 200 else rng.sample(range(F.order), 20)):
            assert [elems[x] for x in F.add_indices(i)] == [F.add(elems[i], b) for b in elems]
