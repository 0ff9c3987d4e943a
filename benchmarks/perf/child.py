"""One round of an in-core workload, in a fresh process.

``python child.py spec.json result.json t_spawn`` runs
``base.run_round`` with the parent's spawn timestamp, so interpreter
start-up and ``import repro`` are inside the setup pass.
"""

from __future__ import annotations

import json
import sys


def main(spec_path: str, out_path: str, t_spawn: str) -> int:
    with open(spec_path) as f:
        spec = json.load(f)
    from base import run_round
    from workloads import WORKLOADS

    rec = run_round(WORKLOADS[spec["workload"]], spec, float(t_spawn))
    with open(out_path, "w") as f:
        json.dump(rec, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:4]))
