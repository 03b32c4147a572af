"""The one backtracking walk of the package, and its simplest caller.

:func:`lex_first` runs every depth-first search here and in
:mod:`dynalg.conjugacy`; each caller keeps its own state and rules.  It
keeps one candidate iterator per level on an explicit stack, so no input
size reaches the interpreter's recursion limit.
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
    None when no system of distinct representatives exists.
    """
    chosen: dict[int, None] = {}  # the values taken, in position order
    sorted_options = [sorted(set(opts)) for opts in options]

    def free(k: int) -> list[int]:
        return [v for v in sorted_options[k] if v not in chosen]

    def enter(_k: int, value: int) -> bool:
        chosen[value] = None
        return True

    return lex_first(len(options), free, enter, lambda _k: chosen.popitem(), lambda: tuple(chosen))
