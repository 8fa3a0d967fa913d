"""The bitmask kernels agree with set-based enumeration."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


@st.composite
def candidate_columns(draw):
    """n arguments and up to 40 att bitmasks over them, dense and sparse."""
    n = draw(st.integers(0, 7))
    top = (1 << n * n) - 1
    masks = draw(
        st.lists(
            st.tuples(st.integers(0, top), st.integers(0, top), st.booleans()).map(
                lambda t: t[0] & t[1] if t[2] else t[0]
            ),
            max_size=40,
        )
    )
    return n, masks


@settings(max_examples=150)
@given(candidate_columns())
@example((0, []))
@example((2, []))
@example((1, [0, 1]))  # no attack, then a self-attack with no stable extension
@example((3, [0b010001100, 0b001100010, 0]))  # odd cycles both ways, then no attack
def test_acceptance_columns_match_oracle_acceptance(case):
    n, masks = case
    full = (1 << len(masks)) - 1
    att_cols = [0] * (n * n)
    for c, att in enumerate(masks):
        for p in range(n * n):
            if att >> p & 1:
                att_cols[p] |= 1 << c
    acc_cols, vacuous = kernels.acceptance_columns(att_cols, n, full)
    assert len(acc_cols) == n
    assert all(col & ~full == 0 for col in acc_cols + [vacuous])
    args = tuple(f"a{i}" for i in range(n))
    for c, att in enumerate(masks):
        attacks = {(args[p // n], args[p % n]) for p in range(n * n) if att >> p & 1}
        acc, vac = oracle_acceptance(args, attacks)
        assert {args[i] for i, col in enumerate(acc_cols) if col >> c & 1} == acc
        assert bool(vacuous >> c & 1) == vac


def test_acceptance_columns_guard():
    with pytest.raises(ValueError):
        kernels.acceptance_columns([0] * 23 * 23, 23, 1)
