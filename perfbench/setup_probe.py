"""One set-up in a fresh interpreter: import, build problems, load configs.

    python3 perfbench/setup_probe.py WORKLOAD CONFIG_DIR

``run.py`` times this process from outside; the configs must already be
in CONFIG_DIR for the constant_cli workload.
"""

import sys
from pathlib import Path

import bootstrap

bootstrap.use_source_tree()

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.make_context(sys.argv[1], Path(sys.argv[2]), write=False)
