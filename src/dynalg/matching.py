"""Lex-least distinct representatives, in polynomial time.

:func:`lex_least_injective` picks the least recolouring of a
``--recolor`` witness from the colours each map may still take.  It needs
no search: it fixes one position at a time by augmenting paths.
"""

from __future__ import annotations

from typing import Optional, Sequence


def lex_least_injective(options: Sequence[Sequence[int]]) -> Optional[tuple[int, ...]]:
    """Pick one value per position, all distinct, lexicographically least.

    ``options[k]`` lists the admissible values for position k.  Returns
    None when no system of distinct representatives exists (Hall 1935).
    A perfect matching of positions to values is grown by augmenting
    paths; then each position in turn takes its least value that still
    leaves the later positions matched, which one augmenting path through
    those positions decides.  With n positions and e listed pairs this is
    O(n * e) for the matching and O(e) per value tried after it.
    """
    sorted_options = [sorted(set(opts)) for opts in options]
    held: list[Optional[int]] = [None] * len(options)  # the value each position holds
    owner: dict[int, int] = {}  # the position holding each value
    if not all(_augment(sorted_options, held, owner, k, 0) for k in range(len(options))):
        return None
    for k, opts in enumerate(sorted_options):
        current = held[k]
        for value in opts:
            if value == current:
                break
            rival = owner.get(value)
            if rival is not None and rival < k:
                continue  # an earlier position keeps it
            del owner[current]
            held[k], owner[value] = value, k
            if rival is None:
                break
            held[rival] = None
            if _augment(sorted_options, held, owner, rival, k + 1):
                break
            held[rival], owner[value], held[k], owner[current] = value, rival, current, k
    return tuple(held)


def _augment(options: Sequence[Sequence[int]], held: list, owner: dict, start: int, first: int) -> bool:
    """Match the unmatched position ``start`` along an augmenting path.

    The path moves only positions from ``first`` on, and is applied only
    when found; False leaves ``held`` and ``owner`` as they were.
    """
    parent: dict[int, Optional[int]] = {start: None}  # each reached position, from the one before it
    stack = [start]
    while stack:
        position = stack.pop()
        for value in options[position]:
            rival = owner.get(value)
            if rival is None:
                while position is not None:  # pass each value back along the path
                    value, held[position] = held[position], value
                    owner[held[position]] = position
                    position = parent[position]
                return True
            if rival >= first and rival not in parent:
                parent[rival] = position
                stack.append(rival)
    return False
