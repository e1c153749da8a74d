"""Check the perfbench state digests against ``perfbench/README.md``.

Runs each benchmark workload at seeds 1 and 1009 under the fast loop,
and seed 1 of each under the naive reference loop (``REPRO_ENGINE_LOOP=
naive``), all with ``--trace 1``.  Every run must print the README's
digest for its workload and seed twice: once untraced, once traced.  A
missing row, a failed run or any other digest fails the check.  One line
per run; exit code 0 when all nine match, 1 otherwise.  Run it from the
repository root (about a minute on a 2-vCPU host):

    python3 benchmarks/check_digests.py

CI's ``paper-claims`` job runs exactly this.
"""

import os
import re
import subprocess
import sys

row = re.compile(r"\| `([\w-]+)` \| `([0-9a-f]{16})` \| `([0-9a-f]{16})` \|")
table = {}
for line in open("perfbench/README.md"):
    match = row.match(line)
    if match:
        table[match.group(1)] = {1: match.group(2), 1009: match.group(3)}
runs = [(workload, seed, "fast")
        for workload in ("server", "sched-churn", "share-sync")
        for seed in (1, 1009)]
runs += [(workload, 1, "naive")
         for workload in ("server", "sched-churn", "share-sync")]
failed = 0
for workload, seed, loop in runs:
    want = table.get(workload, {}).get(seed)
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "1"],
        capture_output=True, text=True,
        env=dict(os.environ, REPRO_ENGINE_LOOP=loop))
    got = re.findall(r"^state_digest (?:traced )?(\w+)$", run.stdout, re.M)
    ok = run.returncode == 0 and want is not None and got == [want, want]
    failed += not ok
    print("%-11s seed %-4d %-5s loop README %s printed %s: %s"
          % (workload, seed, loop, want, " ".join(got), "ok" if ok else "FAIL"))
sys.exit(1 if failed else 0)
