"""Set-up probe: import ``compass`` and warm the ``lru_cache``d canonical
programs, then print the seconds that took.

Run as a fresh process by ``run.py`` (several times per run, median kept):

    python3 perfbench/setup_probe.py

``warm()`` is also what ``run.py`` calls before its timed loop, so cache
fill is never billed to the first item.
"""

import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"

# nth_point_program is cached per ratio; the fuzzer draws ratios 1..8.
NTH_RATIOS = range(1, 9)


def warm() -> None:
    from compass import constructions
    from compass.program import Selector

    for side in Selector:
        constructions.apex_program(side)
    constructions.extend_program()
    constructions.midpoint_program()
    for n in NTH_RATIOS:
        constructions.nth_point_program(n)


def main() -> None:
    start = perf_counter()
    sys.path.insert(0, str(SRC))
    import compass  # noqa: F401  (the import is what is being timed)

    warm()
    print(f"{perf_counter() - start!r}")


if __name__ == "__main__":
    main()
