"""Print one digest of the four deciders' results on a fixed set of pairs.

Run from the root of the repository: ``python tests/decider_digest.py``.
It takes no options, decides each pair below with the ``src`` tree of the
working directory in all four modes, and prints ``<calls> calls
<sha256>``, the hash taken over each pair's label, the mode and the
witness's fields, or None.  Two trees that print the same line return the same
witness and the same refutations on every call.  The pairs, fixed before
the first run:

* seeds 0-1,199 of small pairs, ``rng = random.Random(s)`` with
  ``n, m = rng.randint(1, 9), rng.randint(1, 4)``: two random systems,
  a scrambled pair, a relabelled pair or a classed pair by ``s % 4``;
* the pairs of ``tests/test_nesting.py`` at seeds 0-599, but for its
  stalling seed 518;
* one 3-cycle pair each at n = 12, 48 and 192.
"""

import dataclasses
import hashlib
import random
import sys

sys.path.insert(0, "src")

from dynalg.conjugacy import decide_conjugate, decide_partition, decide_piecewise

from oracles import classed_pair, cycle_pair, random_system, relabelled_pair, scrambled_pair
from test_nesting import drawn_pair

MODES = {
    "conjugate": decide_conjugate,
    "recolor": lambda a, b: decide_conjugate(a, b, allow_recolor=True),
    "piecewise": decide_piecewise,
    "partition": decide_partition,
}


def small_pair(s):
    rng = random.Random(s)
    n, m = rng.randint(1, 9), rng.randint(1, 4)
    if s % 4 == 0:
        return random_system(rng, n, m), random_system(rng, n, m)
    if s % 4 == 1:
        return scrambled_pair(rng, n, m)
    if s % 4 == 2:
        return relabelled_pair(rng, n, m)[:2]
    return classed_pair(rng, max(n, 4), m, rng.randint(1, 3))[:2]


def pairs():
    for s in range(1200):
        yield f"small {s}", small_pair(s)
    for s in range(600):
        if s != 518:  # partition mode stalls on it
            yield f"nesting {s}", drawn_pair(s, s % 2 == 0)[:2]
    for n in (12, 48, 192):
        yield f"cycles {n}", cycle_pair(n, 3, 3, seed=n)


digest = hashlib.sha256()
calls = 0
for label, (a, b) in pairs():
    for mode, decide in MODES.items():
        witness = decide(a, b)
        fields = None if witness is None else dataclasses.astuple(witness)
        digest.update(repr((label, mode, fields)).encode())
        calls += 1
print(f"{calls} calls {digest.hexdigest()}")
