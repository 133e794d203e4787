"""Fresh-process set-up probe: import sincount and build one workload.

    python3 perfbench/probe.py <workload> [full|smoke]

run.py times this process from start to exit; that wall time is setup_s.
"""

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (imports sincount)

if __name__ == "__main__":
    size = sys.argv[2] if len(sys.argv) > 2 else "full"
    workloads.build(workloads.DEFINITIONS[size][sys.argv[1]])
