"""Fixed reference task for the benchmark's host-speed scaling.

`run.py` runs this file as its own process before and after every timed
`patmetrics` process and scales that process's wall time by this one's
(see `reference_task` in `run.py`).  It is shaped like the program's own
work: in Python, format and split table rows, group ids by class into
dicts and sets, weigh tokens, intersect sets, sort; in numpy, STEPS
logistic regression steps over a dense matrix, as the USPTO classifier
takes.  Each workload sets STEPS to match its mix: 0 where the work is
pure Python.  Its working set of tens of MB feels the host's cache and
memory contention as the program does, which a small loop does not.  Its
input is fixed, and it imports nothing from `patmetrics`, so a change to
the program cannot move it.  It runs in its own process so that the
benchmark's process stays small: a child's peak RSS can include the
parent's at the moment it was spawned.

    python3 bench/reference.py STEPS    # exit code 0 when it did its work
"""

from __future__ import annotations

import random
import sys

ROWS = 100_000


def main(steps: int) -> int:
    rng = random.Random(1)
    rows = [
        f"{i}\tA{rng.randrange(300):03d}\t{rng.random():.6f}\t"
        f"w{rng.randrange(5000)} w{rng.randrange(5000)} w{rng.randrange(5000)}"
        for i in range(ROWS)
    ]
    by_class: dict[str, list[int]] = {}
    weights: dict[str, float] = {}
    for row in rows:
        pid, cls, weight, text = row.split("\t")
        by_class.setdefault(cls, []).append(int(pid))
        for token in text.split():
            weights[token] = weights.get(token, 0.0) + float(weight)
    sets = {cls: set(ids) for cls, ids in by_class.items()}
    base = sets["A000"]
    overlap = sum(len(ids & base) + len(ids | base) for ids in sets.values())
    ranked = sorted(weights.items(), key=lambda kv: kv[1])
    if not steps:
        return 0 if overlap > 0 and ranked else 1

    # imported here, so that the pure-Python reference does not pay for it
    import numpy as np

    gen = np.random.default_rng(1)
    X = gen.random((3000, 2000))
    y = (gen.random(3000) > 0.5).astype(np.float64)
    w = np.zeros(2000)
    for _ in range(steps):
        p = 1.0 / (1.0 + np.exp(-(X @ w)))
        w -= 0.1 * (X.T @ (p - y)) / len(y)
    return 0 if overlap > 0 and ranked and np.isfinite(w).all() else 1


if __name__ == "__main__":
    raise SystemExit(main(int(sys.argv[1])))
