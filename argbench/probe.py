"""Set-up probe, run in a fresh interpreter: import argent and parse one
round of a workload's inputs, then print the monotonic clock.

    python3 argbench/probe.py <workload> <inputs.json> <src dir>

The caller reads the clock before starting this process; the difference is
the time until the first query could be issued.  The probe imports nothing
from the benchmark, so that time is the interpreter's and the program's.
"""

import json
import sys
import time


def main():
    workload, inputs_path, src = sys.argv[1:4]
    sys.path.insert(0, src)
    import argent

    if workload == "enthymeme":
        import argent.cli  # the enthymeme workload enters through the CLI
    with open(inputs_path) as fh:
        inputs = json.load(fh)
    if workload == "revise":
        for text in inputs["af"]:
            argent.parse_af(text)
    elif workload == "logic":
        for text in inputs["formulas"]:
            argent.parse_formula(text)
    else:
        for text in inputs["eaf"]:
            argent.parse_eaf(text)
        for text in inputs["lines"]:
            argent.parse_formula_lines(text)
        for text in inputs["certainty"]:
            argent.CertaintyMap.parse(text)
    print(repr(time.monotonic()))


if __name__ == "__main__":
    main()
