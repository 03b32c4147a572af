"""The one backtracking walk of the package, and lex-least distinct representatives.

:func:`lex_first` runs every depth-first search in :mod:`dynalg.conjugacy`;
each caller keeps its own state and rules.  It keeps one candidate iterator
per level on an explicit stack, so no input size reaches the interpreter's
recursion limit.  :func:`lex_least_injective` needs no search: it fixes one
position at a time by augmenting paths, in polynomial time.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, TypeVar

T = TypeVar("T")
W = TypeVar("W")


def lex_first(
    depth: int,
    candidates: Callable[[int], Iterable[T]],
    enter: Callable[[int, T], bool],
    leave: Callable[[int], object],
    leaf: Callable[[], Optional[W]],
) -> Optional[W]:
    """The first non-None ``leaf()`` in lexicographic order of the candidates.

    On reaching level k < ``depth`` the walk asks ``candidates(k)`` for the
    values to offer there, in order; ``enter(k, v)`` takes v or returns
    False, changing nothing, to refuse it.  With every level taken,
    ``leaf()`` reads the state.  A None leaf, like a level whose values run
    out, backtracks: ``leave(k)`` undoes level k's value.
    """
    if depth == 0:
        return leaf()
    stack = [iter(candidates(0))]
    while stack:
        level = len(stack) - 1
        for value in stack[level]:
            if enter(level, value):
                break
        else:
            stack.pop()
            if level:
                leave(level - 1)
            continue
        if level + 1 < depth:
            stack.append(iter(candidates(level + 1)))
        elif (found := leaf()) is not None:
            return found
        else:
            leave(level)
    return None


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
