"""One timed set-up: start an interpreter, import the program, make the inputs.

    python3 perfbench/probe.py WORKLOAD SEED WORKDIR [full|tiny]

Prints ``ready`` once the inputs exist; ``run.py`` times process start to
that line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

if __name__ == "__main__":
    size = workloads.TINY if sys.argv[4:] == ["tiny"] else workloads.FULL
    workloads.setup(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), size)
    print("ready", flush=True)
