"""Time importing ``loraprop.cli`` and building its parser, in a fresh process.

Usage, from the checkout root: ``python3 perfbench/setup_probe.py SRC_DIR``;
prints the seconds, corrected for host speed (``hostspeed.py``).  Only
``sys``, ``time`` and ``hostspeed`` are imported before the clock starts,
so the figure counts every module the CLI pulls in.
"""

import sys
import time

import hostspeed


def main(src: str) -> float:
    sys.path.insert(0, src)
    before = hostspeed.reference_s()
    start = time.perf_counter()
    import loraprop.cli

    loraprop.cli.build_parser()
    seconds = time.perf_counter() - start
    return hostspeed.corrected(seconds, before, hostspeed.reference_s())


if __name__ == "__main__":
    print(repr(main(sys.argv[1])))
