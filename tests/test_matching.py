from hypothesis import example, given, settings, strategies as st

from dynalg.matching import lex_least_injective

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


def test_a_position_takes_a_value_an_earlier_position_freed():
    # The first matching holds (3, 0, 2, 4).  Position 0 moves down to 2 and
    # frees 3, so position 3 later takes 3, a value no position holds, in
    # place of 4.  Only about 8 in 20,000 random cases reach this branch.
    options = [[2, 3], [0, 1, 2, 3, 4], [0, 2], [0, 2, 3, 4]]
    assert lex_least_injective(options) == brute_force_injective(options) == (2, 1, 0, 3)
