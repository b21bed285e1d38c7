#!/usr/bin/env python3
"""Self-test of the benchmark; takes about a minute.

    python3 perfbench/selftest.py

- each workload, untraced and traced, prints exactly the metric names and
  units of BENCHMARK.json, with no failed check;
- on the seed of the traced run's first traced unit, the traced and the
  untraced toy_workflow runs give identical model checksums and acc_4bit;
- a planted failing check (a fold_bn_graph that shifts one bias) is
  printed by name, counted in error_rate, and makes the run exit non-zero;
- compare.py reads the records and finds matching model results.
"""

import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = ["python3", str(HERE / "run.py")]
SEED = 7

PLANTED = """
import sys
sys.path.insert(0, sys.argv[1])
import run
fold = run.graph.fold_bn_graph

def shifted_fold(g):
    folded = fold(g)
    conv = next(l for l in folded.layers if l.kind == "conv")
    conv.params.bias = conv.params.bias + 1.0
    return folded

run.graph.fold_bn_graph = shifted_fold
sys.exit(run.main(sys.argv[2:]))
"""


def bench(out, workload, trace, argv=RUN, seconds=0):
    proc = subprocess.run(
        argv + ["--workload", workload, "--seed", str(SEED), "--seconds", str(seconds),
                "--trace", str(trace), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
    record_path = Path(out) / f"{workload}-seed{SEED}-trace{trace}.json"
    record = json.loads(record_path.read_text()) if record_path.exists() else None
    return proc, json.loads(last), record


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(ok, what):
        print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        out = Path(tmp) / "records"
        for workload in [w["name"] for w in spec["workloads"]]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                # A traced run traces its odd units; the untraced toy run
                # needs a second unit to compare with the first traced one.
                seconds = 8 if (workload, trace) == ("toy_workflow", 0) else 0
                proc, result, _ = bench(out, workload, trace, seconds=seconds)
                want = {m["name"]: m["unit"] for m in spec[key]}
                got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
                expect(proc.returncode == 0 and result.get("correct") is True
                       and result.get("failed") == 0 and result.get("attempted", 0) >= 1,
                       f"{workload} trace {trace}: exit 0, correct, no failures")
                expect(got == want, f"{workload} trace {trace}: metric names and units "
                       f"match BENCHMARK.json {key}")
                expect(all(isinstance(v["value"], (int, float)) for v in
                           result.get("metrics", {}).values()),
                       f"{workload} trace {trace}: every value is a number")

        plain = json.loads((out / f"toy_workflow-seed{SEED}-trace0.json").read_text())
        traced = json.loads((out / f"toy_workflow-seed{SEED}-trace1.json").read_text())
        common = set(plain["models"]) & set(traced["models"])
        expect(str(SEED * 10_000 + 1) in common
               and all(plain["models"][s] == traced["models"][s] for s in common),
               f"toy_workflow: traced and untraced runs give identical checksums and acc_4bit "
               f"on seeds {sorted(common)}")

        report = io.StringIO()
        sys.path.insert(0, str(HERE))
        import compare
        compare.compare(out, out, out=report)
        expect("identical on 1 of 1 common seeds" in report.getvalue()
               and "FAILED" not in report.getvalue(),
               "compare.py reads the records and matches model results")

        planted_out = Path(tmp) / "planted"
        proc, result, record = bench(planted_out, "toy_workflow", 0,
                                     argv=["python3", "-c", PLANTED, str(HERE)])
        expect(proc.returncode != 0, "planted failure: non-zero exit")
        expect("FAILED fold_bn_graph_matches" in proc.stdout,
               "planted failure: printed by name")
        expect(result.get("correct") is False and result.get("failed", 0) >= 1,
               "planted failure: counted in the result line")
        expect(record is not None and record["figures"]["error_rate"]["value"] > 0,
               "planted failure: error_rate above 0")

    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
