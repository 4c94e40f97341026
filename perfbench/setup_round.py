"""One set-up round in a fresh interpreter, timed from outside by run.py.

    python3 perfbench/setup_round.py <workload> <workdir> <seed>

Does what a run does before its first timed repeat (import, endpoint start
or cache priming, configuration load, warm-up generate), then stops.
"""

import sys
from pathlib import Path

from workloads import WORKLOADS, set_up_program


def main() -> int:
    name, workdir, seed = sys.argv[1:]
    program = set_up_program(WORKLOADS[name], Path(workdir), int(seed))
    program.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
