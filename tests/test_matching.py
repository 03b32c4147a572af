import itertools

from hypothesis import example, given, settings, strategies as st

from dynalg.matching import lex_first, lex_least_injective

from oracles import brute_force_injective

option_lists = st.lists(st.lists(st.integers(0, 5), max_size=4), max_size=5)


@settings(max_examples=200, derandomize=True, database=None)
@given(option_lists)
@example([])
@example([[]])
@example([[3], [], [1]])
@example([[1, 0], [0], [2, 0, 1]])
@example([[0, 1], [0, 1], [1, 0]])
def test_lex_least_injective_matches_brute_force(options):
    assert lex_least_injective(options) == brute_force_injective(options)


@settings(max_examples=100, derandomize=True, database=None)
@given(option_lists, st.integers(0, 30))
def test_rejected_leaves_are_passed_in_lexicographic_order(options, k):
    # A leaf that refuses the first k leaves it sees yields the (k+1)-th one;
    # enter refuses the value equal to its level, so those tuples are no leaves.
    candidates = [sorted(set(opts)) for opts in options]
    chosen: list[int] = []
    seen: list[tuple[int, ...]] = []

    def enter(level, value):
        assert level == len(chosen)
        if value == level:
            return False
        chosen.append(value)
        return True

    def leaf():
        seen.append(tuple(chosen))
        return None if len(seen) <= k else seen[-1]

    product = itertools.product(*candidates)
    leaves = [t for t in product if all(v != level for level, v in enumerate(t))]
    found = lex_first(len(candidates), candidates.__getitem__, enter, lambda _: chosen.pop(), leaf)
    assert found == (leaves[k] if k < len(leaves) else None)
    assert seen == leaves[: k + 1]
    if found is None:
        assert chosen == []


def test_walk_depth_is_not_bounded_by_the_recursion_limit():
    depth = 20_000
    chosen: list[int] = []

    def enter(_level, value):
        chosen.append(value)
        return True

    def walk(candidates):
        return lex_first(depth, candidates, enter, lambda _: chosen.pop(), lambda: tuple(chosen))

    assert walk(lambda _level: [1, 0]) == (1,) * depth
    chosen.clear()
    # An empty last level sends the walk back through every level to the root.
    assert walk(lambda level: [] if level == depth - 1 else [0]) is None
    assert chosen == []


def test_a_position_takes_a_value_an_earlier_position_freed():
    # The first matching holds (3, 0, 2, 4).  Position 0 moves down to 2 and
    # frees 3, so position 3 later takes 3, a value no position holds, in
    # place of 4.  Only about 8 in 20,000 random cases reach this branch.
    options = [[2, 3], [0, 1, 2, 3, 4], [0, 2], [0, 2, 3, 4]]
    assert lex_least_injective(options) == brute_force_injective(options) == (2, 1, 0, 3)
