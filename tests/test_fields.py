"""GF(p^k) arithmetic: moduli, axioms, norm behavior."""

import random

import pytest

from mexlab.fields import FiniteField, is_prime


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


def test_make_rejects():
    with pytest.raises(ValueError):
        FiniteField(4, 2)
    with pytest.raises(ValueError):
        FiniteField(101, 2)
    with pytest.raises(ValueError):
        FiniteField(5, 5)


def test_modulus_is_smallest_lowtohigh():
    # every earlier monic polynomial of the same degree must be reducible
    from itertools import product
    from mexlab.fields import _is_irreducible
    for p, k in [(2, 3), (3, 2), (5, 2), (3, 3), (2, 4)]:
        F = FiniteField(p, k)
        target = F.modulus[:-1]
        for coeffs in product(range(p), repeat=k):
            if tuple(coeffs) == target:
                break
            assert not _is_irreducible(list(coeffs) + [1], p)


def test_field_axioms_random_triples():
    rng = random.Random(42)
    fields = [FiniteField(2, 2), FiniteField(3, 2), FiniteField(5, 2),
              FiniteField(7, 2), FiniteField(5, 3), FiniteField(3, 4)]
    per_field = 1000 // len(fields) + 1
    for F in fields:
        elements = [F.from_index(i) for i in range(F.order)]
        for _ in range(per_field):
            a = F.from_index(rng.randrange(F.order))
            b = F.from_index(rng.randrange(F.order))
            c = F.from_index(rng.randrange(F.order))
            assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            assert any(F.add(a, x) == F.zero for x in elements)
            if a != F.zero:
                assert any(F.mul(a, x) == F.one for x in elements)
            if a != F.zero and b != F.zero:
                assert (F.norm_to_base(F.mul(a, b))
                        == F.norm_to_base(a) * F.norm_to_base(b) % F.p)


def test_multiplicative_group_order():
    rng = random.Random(7)
    for F in [FiniteField(5, 2), FiniteField(7, 2), FiniteField(3, 3)]:
        for _ in range(100):
            a = F.from_index(rng.randrange(1, F.order))
            assert F.pow(a, F.order - 1) == F.one


def test_norm_stays_in_base_field():
    for F in [FiniteField(3, 2), FiniteField(5, 2), FiniteField(5, 3)]:
        for i in range(1, F.order):
            v = F.norm_to_base(F.from_index(i))
            assert 0 < v < F.p


def test_enumeration_round_trip():
    F = FiniteField(5, 3)
    for i in range(F.order):
        assert F.to_index(F.from_index(i)) == i
