"""Checks the result line of `perfbench/run.py` read from stdin.

    python3 .github/check_result.py LABEL [PROBE ...]

Fails unless the run was correct with no failed stage and, in a traced
run, every named per-layer probe read more than 0: a probe reads 0 when
the call it wraps was renamed or is no longer made.
"""

import json
import sys

label, probes = sys.argv[1], sys.argv[2:]
result = json.loads(sys.stdin.read().splitlines()[-1])
if result["correct"] is not True or result["failed"] != 0:
    sys.exit(f"{label}: not correct or a stage failed")
dark = [name for name in probes if not result["metrics"][name]["value"]]
if dark:
    sys.exit(f"{label}: probes that must fire read 0: {', '.join(dark)}")
