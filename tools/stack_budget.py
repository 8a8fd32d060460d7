"""Print what each campaign stack budget costs in time and traced memory.

For each budget in BUDGETS, random.STACK_BYTES is set by assigning the
module attribute, as the tests set it. A mixed_mixed campaign of TRIALS
trials then runs in process at each n in PATHS, seeds 1..REPEATS, with the
budgets taken in turn within each round. One line per budget gives the
median ms per campaign at each n and the tracemalloc peak of the largest
n's campaign of seed 1. Campaign output does not depend on the budget, so
these are the figures to compare when the budget changes.

    python tools/stack_budget.py [REPEATS]

REPEATS defaults to 5. The package is imported from src/ next to this script.
"""

from __future__ import annotations

import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUDGETS = (1 << 18, 1 << 19, 1 << 20, 1 << 21)
PATHS = (2, 3, 4, 5, 6)
TRIALS = 1000


def main(argv: list[str]) -> int:
    from duality_lab import random
    from duality_lab.duality import run_campaign

    repeats = int(argv[0]) if argv else 5
    run_campaign("mixed_mixed", 20, 1, n=max(PATHS))  # numpy's lazy set-up is no budget's cost
    times = {(budget, n): [] for budget in BUDGETS for n in PATHS}
    for seed in range(1, repeats + 1):
        for budget in BUDGETS:
            random.STACK_BYTES = budget
            for n in PATHS:
                start = time.perf_counter()
                run_campaign("mixed_mixed", TRIALS, seed, n=n)
                times[budget, n].append(1e3 * (time.perf_counter() - start))
    print("budget_kib", *(f"ms_n{n}" for n in PATHS), f"peak_mb_n{max(PATHS)}")
    for budget in BUDGETS:
        random.STACK_BYTES = budget
        tracemalloc.start()
        try:
            run_campaign("mixed_mixed", TRIALS, 1, n=max(PATHS))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        print(budget >> 10, *(f"{statistics.median(times[budget, n]):.1f}" for n in PATHS), f"{peak / 1e6:.2f}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
