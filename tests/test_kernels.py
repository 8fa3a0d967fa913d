"""The bitmask kernels agree with set-based enumeration."""

import random

import pytest

from argent import kernels
from conftest import oracle_acceptance, oracle_stable_sets


def _random_masks(rng, n):
    return [rng.randrange(1 << n) for _ in range(n)]


def test_kernel_matches_oracle():
    rng = random.Random(1234)
    for _ in range(60):
        n = rng.randrange(0, 9)
        masks = _random_masks(rng, n) if n else []
        args = tuple(f"a{i}" for i in range(n))
        attacks = {
            (args[i], args[j])
            for j in range(n)
            for i in range(n)
            if (masks[j] >> i) & 1
        }
        expected = {
            sum(1 << args.index(a) for a in ext)
            for ext in oracle_stable_sets(args, attacks)
        }
        found = kernels.stable_masks(masks, n)
        assert sorted(found) == found
        assert set(found) == expected
        acc_mask, vacuous = kernels.acceptance_mask(masks, n)
        acc, vac = oracle_acceptance(args, attacks)
        assert vacuous == vac
        assert acc_mask == sum(1 << args.index(a) for a in acc)


def test_guard():
    with pytest.raises(ValueError):
        kernels.stable_masks([0] * 23, 23)
