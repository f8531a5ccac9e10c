"""Record reference.json: per-graph output digests of every workload at the reference seed.

Run once from the repository root on a commit whose outputs are trusted:
    python3 perfbench/record_reference.py
Later runs at the reference seed and full size compare against this file.
"""

import json
import shutil
import sys

import run


def main(spawner) -> int:
    from workloads import SIZES, WORKLOADS

    recorded = {}
    for name, setup in WORKLOADS.items():
        work = run.WORK / f"reference-{name}"
        shutil.rmtree(work, ignore_errors=True)
        inputs, outputs, logs = work / "inputs", work / "outputs", work / "logs"
        for d in (inputs, outputs, logs):
            d.mkdir(parents=True)
        runner = run.Runner(spawner, logs)
        invocations = setup(inputs, outputs, run.REFERENCE_SEED, SIZES["full"], runner.cli)
        _, _, codes = runner.run_pass(invocations, outputs)
        tally = run.Tally(None)
        tally.add(invocations, outputs, codes)
        if tally.problems:
            print("\n".join(tally.problems[:20]), file=sys.stderr)
            return 1
        recorded[name] = {
            label: {
                "digests": [records[i][0] for i in sorted(records)],
                "sd": [records[i][1] for i in sorted(records)],
            }
            for label, records in tally.records.items()
        }
        shutil.rmtree(work)
        print(f"{name}: {sum(len(r) for r in tally.records.values())} graphs recorded")
    document = {"seed": run.REFERENCE_SEED, "size": "full", "workloads": recorded}
    run.REFERENCE.write_text(json.dumps(document, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    spawner = run.Spawner()
    try:
        sys.path.insert(0, str(run.SRC))
        code = main(spawner)
    finally:
        spawner.close()
    sys.exit(code)
