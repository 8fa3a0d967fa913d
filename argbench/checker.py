"""Oracle side of a run, as a child process of run.py.

    python3 argbench/checker.py <workload>

Prints one line when ready, then reads one JSON line per measured round
([key, extras, summaries]) and answers with [attempted, failed, problems].
It never imports argent.
"""

import json
import sys

import run


def main():
    workload = run.WORKLOADS[sys.argv[1]]
    print("[]", flush=True)
    for line in sys.stdin:
        key, extras, summaries = json.loads(line)
        print(json.dumps(run.check_round(workload, key, extras, summaries)), flush=True)


if __name__ == "__main__":
    main()
