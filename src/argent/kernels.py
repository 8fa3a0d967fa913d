"""Bitmask kernels for stable-extension enumeration.

Arguments are bit positions; `attacker_masks[y]` is the bitmask of arguments
attacking `y`.  A subset mask `s` is stable when no member is attacked from
inside `s` and every non-member is.
"""

from __future__ import annotations

BACKEND = "python"

MAX_ARGUMENTS = 22


def stable_masks(attacker_masks, n: int) -> list[int]:
    """All stable subset masks, ascending.

    Depth-first over argument indices, pruning branches whose included members
    conflict and excluded members can no longer be attacked.
    """
    if n < 0 or n > MAX_ARGUMENTS:
        raise ValueError(f"argument count {n} outside supported range 0..{MAX_ARGUMENTS}")
    if n == 0:
        return [0]
    targets = [0] * n
    for y in range(n):
        m = attacker_masks[y]
        z = 0
        while m:
            if m & 1:
                targets[z] |= 1 << y
            m >>= 1
            z += 1
    res: list[int] = []
    full = (1 << n) - 1
    atk = list(attacker_masks)

    def extend(i: int, chosen: int) -> None:
        if i == n:
            for y in range(n):
                if not (chosen >> y) & 1 and not (atk[y] & chosen):
                    return
            res.append(chosen)
            return
        bit = 1 << i
        future = full & ~((bit << 1) - 1)
        if atk[i] & (chosen | future):
            extend(i + 1, chosen)
        if not (atk[i] & bit) and not ((atk[i] | targets[i]) & chosen):
            extend(i + 1, chosen | bit)

    extend(0, 0)
    res.sort()
    return res


def acceptance_mask(attacker_masks, n: int) -> tuple[int, bool]:
    """Intersection mask of all stable extensions and a no-extension flag.

    With no stable extension the mask covers every argument and the flag is
    True (the vacuous-acceptance convention).
    """
    masks = stable_masks(attacker_masks, n)
    if not masks:
        return (1 << n) - 1, True
    acc = masks[0]
    for m in masks[1:]:
        acc &= m
    return acc, False


def acceptance_columns(att_cols, n: int, full: int) -> tuple[list[int], int]:
    """:func:`acceptance_mask` for many frameworks at once, as bit columns.

    Bit c of `att_cols[i * n + j]` says whether i attacks j in candidate c,
    and `full` has one bit per candidate.  Returns one acceptance column per
    argument and the column of candidates without a stable extension, which
    accept every argument (the vacuous convention).

    The search is that of :func:`stable_masks`, run once for all candidates:
    each branch carries the candidates for which it is still open.  Argument
    i's packed int holds, in slot y of `full.bit_length()` bits, the
    candidates where i attacks y, and in slot n + y those where y attacks i.
    The OR of the packed ints of the chosen arguments then answers "is x
    attacked by the chosen set" and "does x attack it" for every candidate
    with one shift.
    """
    if n < 0 or n > MAX_ARGUMENTS:
        raise ValueError(f"argument count {n} outside supported range 0..{MAX_ARGUMENTS}")
    if not full:
        return [0] * n, 0
    w = full.bit_length()
    packed = [0] * n
    future = [0] * n  # candidates where some later argument attacks i
    for i in range(n):
        p = f = 0
        for y in range(n):
            p |= att_cols[i * n + y] << (y * w) | att_cols[y * n + i] << ((n + y) * w)
            if y > i:
                f |= att_cols[y * n + i]
        packed[i] = p
        future[i] = f
    found = 0
    rejected = [0] * n  # candidates with a stable extension omitting the argument
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
                found |= open_
                for y in range(n):
                    if not chosen >> y & 1:
                        rejected[y] |= open_
            continue
        out = open_ & (hit >> (i * w) | future[i])
        if out:
            push((i + 1, chosen, hit, out))
        grown = hit | packed[i]
        into = open_ & ~(grown >> (i * w) | grown >> ((n + i) * w))
        if into:
            push((i + 1, chosen | 1 << i, grown, into))
    return [full & ~r for r in rejected], full & ~found
