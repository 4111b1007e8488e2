"""Regenerate ``digests.json``: the SHA-256 of every case's canonical output.

    python3 bench/pin.py

Pin only from a commit whose results are trusted: the benchmark counts
every case whose digest differs from the pinned one as failed.  A case whose
routes disagree, whose CLI call exits non-zero, or that raises is not
pinned, and the script exits 1.
"""

from __future__ import annotations

import json
import sys

from worker import BENCH, import_charq


def main() -> int:
    import_charq()
    import workloads
    out = {}
    bad = 0
    for name in workloads.WORKLOADS:
        wl = workloads.build(name)
        cases = {}
        for case in wl.cases:
            agree, value = case.run()
            if not agree:
                print(f"{name}: {case.key}: routes disagree", file=sys.stderr)
                bad += 1
                continue
            cases[case.key] = workloads.case_digest(case.canon(value))
        out[name] = {"digest": workloads.workload_digest(cases), "cases": cases}
        print(f"{name}: {len(cases)} cases, digest {out[name]['digest']}")
    if bad:
        return 1
    (BENCH / "digests.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
