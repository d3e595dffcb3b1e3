#!/usr/bin/env python3
"""Cross-checks ireduct_tool's --trace-out against its --metrics-out.

Usage: tools/check_trace.py TRACE.json METRICS.json

Asserts that
  * the trace holds one "ph":"X" ireduct.move span per iteration, i.e. as
    many as counters["ireduct.iterations"], and at least one;
  * the charges in otherData.privacy_ledger sum to
    gauges["privacy.epsilon_spent"].
Exits 1 with a message on the first mismatch.
"""
import json
import math
import sys


def main(trace_path, metrics_path):
    with open(trace_path) as f:
        trace = json.load(f)
    with open(metrics_path) as f:
        metrics = json.load(f)

    iterations = metrics["counters"]["ireduct.iterations"]
    moves = [e for e in trace["traceEvents"] if e["name"] == "ireduct.move"]
    if any(e["ph"] != "X" for e in moves):
        sys.exit("trace: an ireduct.move event is not a span")
    if len(moves) != iterations or iterations == 0:
        sys.exit(f"trace: {len(moves)} ireduct.move spans, "
                 f"counters[ireduct.iterations] = {iterations}")

    ledger = trace["otherData"]["privacy_ledger"]
    charged = math.fsum(c["epsilon"] for c in ledger["charges"])
    spent = metrics["gauges"]["privacy.epsilon_spent"]
    if not math.isclose(charged, spent, rel_tol=1e-12, abs_tol=1e-15):
        sys.exit(f"trace: ledger charges sum to {charged!r}, "
                 f"gauges[privacy.epsilon_spent] = {spent!r}")
    print(f"trace: {len(moves)} ireduct.move spans = ireduct.iterations; "
          f"ledger sum {charged!r} = privacy.epsilon_spent")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(sys.argv[1], sys.argv[2])
