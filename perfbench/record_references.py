"""Take the reference digests: every output of every input of every
workload at the reference seed, and of every workload's check item,
written to reference_digests.json.

    python3 perfbench/record_references.py

Run it only on a commit whose outputs are known good; the benchmark then
fails any later commit whose outputs move by a single byte. Takes about
three minutes on a 2-core host.
"""

import json
import shutil
import sys
import tempfile

import program


def main() -> int:
    strategem = program.load()
    from run import WORK_ROOT, git_commit
    from workloads import REFERENCE_SEED, REFERENCES, WORKLOADS, Runner

    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=WORK_ROOT)
    recorded = {"check": {}, "workloads": {}}
    try:
        for workload in WORKLOADS.values():
            for kind, check, items in (
                ("workloads", False, workload.cycle),
                ("check", True, 1),
            ):
                runner = Runner(
                    strategem, workload, REFERENCE_SEED, work_dir, check=check, recording=True
                )
                inputs = {}
                for item in range(items):
                    result = runner.run_item(item, runner.batch.parallelism)
                    if result.problems:
                        print("\n".join(result.problems), file=sys.stderr)
                        return 1
                    inputs[str(item)] = result.digests
                recorded[kind][workload.name] = inputs
            print(f"{workload.name}: {workload.cycle} inputs and the check item")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(REFERENCES, "w") as fh:
        json.dump(
            {"seed": REFERENCE_SEED, "commit": git_commit(), **recorded},
            fh,
            indent=1,
            sort_keys=True,
        )
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
