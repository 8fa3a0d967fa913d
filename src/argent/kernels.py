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
