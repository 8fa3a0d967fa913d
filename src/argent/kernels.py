"""Bitmask kernels for stable-extension enumeration.

Arguments are bit positions; `attacker_masks[y]` is the bitmask of arguments
attacking `y`.  A subset mask `s` is stable when no member is attacked from
inside `s` and every non-member is.
"""

from __future__ import annotations

BACKEND = "python"

MAX_ARGUMENTS = 22


def _check_count(n: int) -> None:
    if n < 0 or n > MAX_ARGUMENTS:
        raise ValueError(f"argument count {n} outside supported range 0..{MAX_ARGUMENTS}")


def _stable_leaves(packed, future, n: int, w: int, full: int):
    """Yield ``(chosen, candidates)`` for each stable subset mask `chosen`,
    with the candidates (bits of `full`) in which it is stable.

    Depth-first over argument indices, one branch for all candidates: a
    branch carries the candidates for which it is still open, and is pruned
    where its included members conflict or an excluded member can no longer
    be attacked.  Argument i's packed int holds, in slot y of `w` bits, the
    candidates where i attacks y, and in slot n + y those where y attacks i;
    `future[i]` holds the candidates where an argument after i attacks i.
    The OR of the packed ints of the chosen arguments then answers "is x
    attacked by the chosen set" and "does x attack it" for every candidate
    with one shift.
    """
    stack = [(0, 0, 0, full)]
    pop, push = stack.pop, stack.append
    while stack:
        i, chosen, hit, open_ = pop()
        if i == n:
            for y in range(n):
                if not chosen >> y & 1:
                    open_ &= hit >> (y * w)
                    if not open_:
                        break
            else:
                yield chosen, open_
            continue
        out = open_ & (hit >> (i * w) | future[i])
        if out:
            push((i + 1, chosen, hit, out))
        grown = hit | packed[i]
        into = open_ & ~(grown >> (i * w) | grown >> ((n + i) * w))
        if into:
            push((i + 1, chosen | 1 << i, grown, into))


def _pack(att_cols, n: int, w: int) -> tuple[list[int], list[int]]:
    """The `packed` and `future` ints of :func:`_stable_leaves` from bit
    columns: bit c of `att_cols[i * n + j]` says whether i attacks j in
    candidate c, and each candidate has a slot of `w` bits."""
    packed = [0] * n
    future = [0] * n
    for i in range(n):
        p = f = 0
        for y in range(n):
            p |= att_cols[i * n + y] << (y * w) | att_cols[y * n + i] << ((n + y) * w)
            if y > i:
                f |= att_cols[y * n + i]
        packed[i] = p
        future[i] = f
    return packed, future


def _att_columns(attacker_masks, n: int) -> list[int]:
    """The att columns of :func:`_pack` for one framework, one bit each,
    once its argument count is checked."""
    _check_count(n)
    return [attacker_masks[j] >> i & 1 for i in range(n) for j in range(n)]


def stable_masks(attacker_masks, n: int) -> list[int]:
    """All stable subset masks, ascending: :func:`_stable_leaves` for one
    framework, one bit per slot."""
    cols = _att_columns(attacker_masks, n)
    return sorted(chosen for chosen, _ in _stable_leaves(*_pack(cols, n, 1), n, 1, 1))


def acceptance_mask(attacker_masks, n: int) -> tuple[int, bool]:
    """Intersection mask of all stable extensions and a no-extension flag:
    :func:`acceptance_columns` for one framework.

    With no stable extension the mask covers every argument and the flag is
    True (the vacuous-acceptance convention).
    """
    accepted, vacuous = acceptance_columns(_att_columns(attacker_masks, n), n, 1)
    return sum(bit << y for y, bit in enumerate(accepted)), vacuous == 1


def acceptance_columns(att_cols, n: int, full: int) -> tuple[list[int], int]:
    """:func:`acceptance_mask` for many frameworks at once, as bit columns.

    Bit c of `att_cols[i * n + j]` says whether i attacks j in candidate c,
    and `full` has one bit per candidate.  Returns one acceptance column per
    argument and the column of candidates without a stable extension, which
    accept every argument (the vacuous convention).  The candidates share one
    run of :func:`_stable_leaves`, with a slot of `full.bit_length()` bits.
    """
    _check_count(n)
    w = full.bit_length()
    packed, future = _pack(att_cols, n, w)
    found = 0
    rejected = [0] * n  # candidates with a stable extension omitting the argument
    for chosen, open_ in _stable_leaves(packed, future, n, w, full):
        found |= open_
        for y in range(n):
            if not chosen >> y & 1:
                rejected[y] |= open_
    return [full & ~r for r in rejected], full & ~found
