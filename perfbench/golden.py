"""Compare the golden output digests with freshly computed ones.

    python3 perfbench/golden.py            # exit 1 on any mismatch
    python3 perfbench/golden.py --write    # re-pin after an intended change

The digests pin the bytes of the default JSON and CSV output of fixed CLI
invocations and of ``MdeResult.to_json()`` for the ``mde`` workload's calls;
every benchmark run checks them too.  Re-pin only for a change that is
meant to alter output, and say so in the change.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(1, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def main() -> int:
    scratch = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(scratch, exist_ok=True)
    fresh = workloads.golden_digests(scratch)
    if "--write" in sys.argv[1:]:
        with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
            json.dump(fresh, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {workloads.GOLDEN_PATH}")
        return 0
    pinned = workloads.load_golden()
    bad = [
        f"{group}: {key}"
        for group, digests in fresh.items()
        for key, value in digests.items()
        if pinned.get(group, {}).get(key) != value
    ]
    for line in bad:
        print(f"mismatch {line}")
    print(f"{sum(len(d) for d in fresh.values()) - len(bad)} golden digests match, {len(bad)} differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
