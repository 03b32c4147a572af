"""Print one digest of the exact algebra's results on a fixed set of inputs.

Run from the root of the repository: ``python tests/algebra_digest.py``.
It takes no options, runs the exact algebra of the ``src`` tree of the
working directory on the seeded inputs below, and prints ``<items> items
<sha256>``, the hash taken over each item's label and its result, read
through the public API only (words, and each value's ``re`` and ``im``).
Two trees that print the same line compute the same exact results on
every item.  The inputs, fixed before the first run, at n = 4-200 (each
seed ``s`` draws ``rng = random.Random(s)`` and ``n = SIZES[s % 9]``):

* seeds 0-269: a random system with 1-3 maps and two random elements p
  and q of 1-5 terms; the products ``sc_multiply(p, q)`` and
  ``(p + q)(p - q)``, and ``quotient_map`` of the first on a random
  subset of the points;
* seeds 1,000-1,179: a classed pair with its partition witness, a random
  element p of the first system, its image under the witness's hom and
  the image of that under the inverse hom, and whether that is p again;
* ``iso-build`` report JSON, without ``timing_ms`` and with the two input
  paths replaced by the file names: the classed pairs with 2 maps and 2
  classes of seeds 2,000-2,039, and the pairs of ``tests/test_nesting.py``
  at seeds 0-39 (classed for even seeds, scrambled for odd ones).
"""

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, "src")

from dynalg.cli import dump_system, run_command
from dynalg.conjugacy import PartitionWitness
from dynalg.dynsys import restrict
from dynalg.quotient import quotient_map
from dynalg.semicrossed import apply_hom, partition_isomorphism, sc_multiply

from oracles import classed_pair, random_element, random_system
from test_nesting import drawn_pair

SIZES = (4, 5, 6, 8, 12, 20, 50, 100, 200)


def scalar(v):
    return str(v.re), str(v.im)


def element(e):
    """The terms of a semicrossed element, shortest words first."""
    return [(w, [scalar(v) for v in e.terms[w].values]) for w in sorted(e.terms, key=lambda w: (len(w), w))]


def matrix(q):
    """The nonzero entries of a quotient matrix, by (target, source)."""
    return [
        ((q.points[y], q.points[x]), sorted((w, scalar(c)) for w, c in entry.terms.items()))
        for y, row in enumerate(q.entries)
        for x, entry in enumerate(row)
        if entry.terms
    ]


def products():
    for s in range(270):
        rng = random.Random(s)
        n = SIZES[s % len(SIZES)]
        system = random_system(rng, n, rng.randint(1, 3))
        p, q = (random_element(rng, system, 3, terms=rng.randint(1, 5)) for _ in range(2))
        product = sc_multiply(p, q)
        yield f"product {s}", element(product)
        yield f"difference of squares {s}", element(sc_multiply(p + q, p - q))
        subset = sorted(rng.sample(range(n), rng.randint(1, n)))
        yield f"quotient {s}", matrix(quotient_map(restrict(system, subset), product))


def round_trips():
    for s in range(1000, 1180):
        rng = random.Random(s)
        n = SIZES[s % len(SIZES)]
        a, b, gamma, alpha = classed_pair(rng, n, rng.randint(1, 3), rng.randint(1, 3))
        forward, reverse = partition_isomorphism(a, b, PartitionWitness(gamma=gamma, alpha=alpha))
        p = random_element(rng, a, 3, terms=3)
        image = apply_hom(forward, p)
        back = apply_hom(reverse, image)
        yield f"round trip {s}", (element(image), element(back), back == p)


def iso_builds(folder):
    pairs = [(f"classed {s}", classed_pair(random.Random(s), SIZES[s % len(SIZES)], 2, 2)[:2])
             for s in range(2000, 2040)]
    pairs += [(f"nesting {s}", drawn_pair(s, s % 2 == 0)[:2]) for s in range(40)]
    names = ("a.json", "b.json")
    paths = [str(Path(folder, name)) for name in names]
    for label, (a, b) in pairs:
        for path, system in zip(paths, (a, b)):
            Path(path).write_text(dump_system(system), encoding="utf-8")
        report, code = run_command(["iso-build", *paths])
        assert report["command"][1:] == paths
        report = {**report, "command": ["iso-build", *names]}
        del report["timing_ms"]
        yield f"iso-build {label}", (json.dumps(report, sort_keys=True), code)


digest = hashlib.sha256()
items = 0
with tempfile.TemporaryDirectory(prefix="algebra-digest-") as folder:
    for label, result in (*products(), *round_trips(), *iso_builds(folder)):
        digest.update(repr((label, result)).encode())
        items += 1
print(f"{items} items {digest.hexdigest()}")
