"""Record the seed-0 reference outputs the benchmark checks against.

    python3 perfbench/record_references.py

Run it only when a change is meant to alter the program's results, and say
so in CHANGES.md: a pure refactor or speed-up must leave these files as
they are.
"""

from __future__ import annotations

import json
import sys

from workloads import REFERENCE, REFERENCE_SEED, SRC, WORK_DIR, WORKLOADS


def main() -> int:
    sys.path.insert(0, str(SRC))
    from tailsgd import cli

    WORK_DIR.mkdir(exist_ok=True)
    REFERENCE.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        config_path = WORK_DIR / f"{workload.name}.config.json"
        out_path = WORK_DIR / f"{workload.name}.out"
        config_path.write_text(json.dumps(workload.config(REFERENCE_SEED)))
        code = cli.main(workload.argv(config_path, out_path))
        if code != 0:
            print(f"{workload.name}: exit code {code}", file=sys.stderr)
            return 1
        workload.reference_path.write_text(workload.reference_of(out_path.read_text()))
        print(f"{workload.name}: recorded {workload.reference_path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
