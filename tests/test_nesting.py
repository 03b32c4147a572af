"""The conjugacy notions nest, checked at sizes the brute-force oracles cannot reach.

A conjugacy witness is a recolouring witness with beta the identity, a
recolouring witness is a partition witness with a constant colour field,
and a partition witness is a piecewise witness.  So for every pair the
least gammas obey piecewise <= partition <= recolor <= conjugate
(lexicographically), and a refutation in a weaker notion refutes every
stronger one.  Neither law needs an oracle, so both are checked here on
seeded pairs of 20-200 points and 1-4 maps, with every witness verified
and, on every fifth seed, every verdict kept when b is relabelled.

The seeds and the recipe were fixed before the first run.  A pair that
stalls stays in the range as a strict known failure under a 0.5 s alarm,
named after the ROADMAP item that has yet to fix it; it is never dropped
or re-seeded.
"""

import random
import signal
from contextlib import contextmanager

import pytest

from dynalg.conjugacy import decide_conjugate, decide_partition, decide_piecewise, verify_witness

from oracles import classed_pair, relabelled, scrambled_pair

SEEDS = range(600)
# weakest first
DECIDERS = {
    "piecewise": decide_piecewise,
    "partition": decide_partition,
    "recolor": lambda a, b: decide_conjugate(a, b, allow_recolor=True),
    "conjugate": decide_conjugate,
}
ITEM_2 = "ROADMAP item 2: refinement only at the root leaves this pair to an exponential search"
# the seeds whose pairs stall, each with what stalls, as measured when this module was added
STALLS = {
    518: "n = 100, 3 maps, 3 classes: partition mode ran past 10 s, the other modes took at most 2 ms",
}


def drawn_pair(s: int, classed: bool):
    """Seed s's pair, classed or scrambled, and the generator that drew it.

    The range draws a classed pair for even s and a scrambled one for odd s.
    """
    rng = random.Random(s)
    n = rng.choice([20, 50, 100, 200])
    d = rng.randint(1, 4)
    if classed:
        return (*classed_pair(rng, n, d, rng.randint(1, 4))[:2], rng)
    return (*scrambled_pair(rng, n, d), rng)


class Rang(TimeoutError):
    """The alarm's signal, raised wherever it lands."""


@contextmanager
def alarm(seconds: float):
    """Raise TimeoutError from the block once ``seconds`` of wall time have passed.

    The signal can land on an instruction without a line number, whose
    traceback pytest fails to render, so the block's TimeoutError is a
    fresh one raised here.
    """

    def ring(signum, frame):
        raise Rang

    previous = signal.signal(signal.SIGALRM, ring)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except Rang:
        raise TimeoutError(f"past {seconds:g} s") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def nesting_faults(a, b, rng, relabel: bool) -> list[str]:
    """Every way the four verdicts on (a, b) break the nesting laws, verification or relabelling."""
    found = {mode: decide(a, b) for mode, decide in DECIDERS.items()}
    faults = [f"{mode} witness fails verification" for mode, witness in found.items()
              if witness is not None and not verify_witness(a, b, witness).passed]
    modes = list(DECIDERS)
    for k, weaker in enumerate(modes):
        for stronger in modes[k + 1:]:
            if found[stronger] is None:
                continue
            if found[weaker] is None:
                faults.append(f"{weaker} refutes but {stronger} finds")
            elif found[weaker].gamma > found[stronger].gamma:
                faults.append(f"least {weaker} gamma is past the least {stronger} gamma")
    if relabel:
        c = relabelled(b, rng)
        for mode, decide in DECIDERS.items():
            witness = decide(a, c)
            if (witness is None) != (found[mode] is None):
                faults.append(f"{mode} verdict changes when b is relabelled")
            elif witness is not None and not verify_witness(a, c, witness).passed:
                faults.append(f"{mode} witness against the relabelled b fails verification")
    return faults


def test_the_notions_nest_on_every_seeded_pair():
    faults = {}
    for s in SEEDS:
        if s in STALLS:
            continue
        a, b, rng = drawn_pair(s, classed=s % 2 == 0)
        try:
            with alarm(2):
                found = nesting_faults(a, b, rng, relabel=s % 5 == 0)
        except TimeoutError as stalled:
            found = [str(stalled)]
        if found:
            faults[s] = found
    assert faults == {}


@pytest.mark.xfail(raises=TimeoutError, strict=True, reason=ITEM_2)
@pytest.mark.parametrize("s", list(STALLS), ids=[f"seed {s}" for s in STALLS])
def test_a_stalled_seeded_pair_nests(s):
    a, b, rng = drawn_pair(s, classed=s % 2 == 0)
    with alarm(0.5):
        assert nesting_faults(a, b, rng, relabel=s % 5 == 0) == []


@pytest.mark.xfail(raises=TimeoutError, strict=True, reason=ITEM_2)
def test_the_roadmap_seed_261_one_map_classed_pair_nests():
    # item 26's first scan drew a classed pair at every seed, so its seed 261 is classed, unlike the range's
    a, b, rng = drawn_pair(261, classed=True)
    assert (a.size, a.arity) == (200, 1)
    with alarm(0.5):
        assert nesting_faults(a, b, rng, relabel=False) == []
