"""Record the reference outputs the benchmark checks every operation against.

Runs every operation of every bank seed once and writes refs/<workload>.json.
Rerun it only when charflow's results are meant to change:

    python3 perfbench/record_refs.py [workload ...]
"""

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from run import ONE_THREAD  # noqa: E402

os.environ.update(ONE_THREAD)

from workloads import BANK, REFS_DIR, WORKLOADS  # noqa: E402


def record(workload):
    refs = {}
    failures = 0
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    for seed in BANK:
        for op in workload.make_cycle(seed):
            out_dir = tempfile.mkdtemp(dir=scratch)
            try:
                result = op.run(out_dir)
                refs[op.key] = op.record(result, out_dir)
                errors = op.check(result, out_dir, refs)
            finally:
                shutil.rmtree(out_dir)
            failures += bool(errors)
            print(f"{workload.name} {op.key}: "
                  f"{'; '.join(errors) if errors else 'ok'}", flush=True)
    os.makedirs(REFS_DIR, exist_ok=True)
    lines = [f"{json.dumps(key)}: {json.dumps(refs[key])}"
             for key in sorted(refs) if refs[key]]
    with open(os.path.join(REFS_DIR, f"{workload.name}.json"), "w",
              encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")
    return failures


def main(names):
    failures = sum(record(WORKLOADS[name]) for name in names or WORKLOADS)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
