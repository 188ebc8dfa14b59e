"""One set-up, timed from outside by run.py: import the CLI and make a workload's inputs.

    python3 perfbench/setup_probe.py --workload verify-grid --seed 1
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import collapse_lab.cli  # noqa: F401  (the import is part of what is timed)
    import inputs

    inputs.WORKLOADS[args.workload](args.seed)


if __name__ == "__main__":
    main()
