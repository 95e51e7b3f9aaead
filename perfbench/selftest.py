"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For every workload it checks that
* an untraced run prints every end-to-end metric of BENCHMARK.json with its
  unit and a finite value, all operations pass, and every pass has a
  positive raw and normalised time;
* a traced run prints every per-layer metric with its unit, its self times
  are non-negative and sum to the traced pass time;
* a deliberately wrong reference makes an operation fail instead of passing.
It also checks that every per-layer metric is nonzero on some workload (a
misspelt metric name would read 0 everywhere), and that the benchmark fails
without printing a result when the checkout holds no sources.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# values that may legitimately read 0 on every workload at tiny sizes
MAY_BE_ZERO = ("network.json_roundtrip_max_abs_diff.",)
SELF_SLACK_S = 1e-3

problems = []


def expect(ok, what):
    if not ok:
        problems.append(what)
        print(f"FAIL {what}", flush=True)


def run(workload, *extra, cwd=ROOT):
    """The benchmark command of BENCHMARK.json, run from `cwd` as from a checkout root."""
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "0.2", "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def parse(proc, label):
    lines = proc.stdout.strip().splitlines()
    expect(proc.returncode == 0, f"{label}: exit code {proc.returncode}: {proc.stderr[-500:]}")
    if len(lines) < 2:
        expect(False, f"{label}: expected a report and a result line")
        return None, None
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys {sorted(result)}")
    return json.loads(lines[-2])["report"], result


def check_metrics(result, declared, label):
    metrics = result["metrics"]
    expect(set(metrics) == {m["name"] for m in declared}, f"{label}: metric names differ from BENCHMARK.json")
    for m in declared:
        got = metrics.get(m["name"], {})
        expect(got.get("unit") == m["unit"], f"{label}: {m['name']} unit {got.get('unit')!r}")
        v = got.get("value")
        expect(isinstance(v, (int, float)) and math.isfinite(v), f"{label}: {m['name']} value {v!r}")


def main():
    workloads = [w["name"] for w in SPEC["workloads"]]
    nonzero = set()
    for w in workloads:
        report, result = parse(run(w, "--trace", "0"), f"{w} untraced")
        if result:
            check_metrics(result, SPEC["end_to_end"], f"{w} untraced")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{w} untraced: {result['failed']} of {result['attempted']} failed: {report['failures']}")
            for kind in ("cold", "warm"):
                timed, raw = report[f"{kind}_passes_s"], report[f"raw_{kind}_passes_s"]
                expect(len(timed) == len(raw) and min(timed + raw) > 0.0,
                       f"{w} untraced: {kind} pass times {timed} (raw {raw})")

        report, result = parse(run(w, "--trace", "1"), f"{w} traced")
        if result:
            check_metrics(result, SPEC["per_layer"], f"{w} traced")
            nonzero |= {k for k, v in result["metrics"].items() if v["value"]}
            spans = report["trace"]["spans"]
            selfs = [s["self_s"] for s in spans.values()]
            expect(min(selfs) >= 0.0, f"{w} traced: negative self time")
            total = spans["bench.pass"]["busy_s"]
            expect(abs(sum(selfs) - total) <= SELF_SLACK_S + 1e-3 * total,
                   f"{w} traced: self times sum to {sum(selfs):.6f} s, pass took {total:.6f} s")

        with tempfile.TemporaryDirectory() as tmp:
            refs = Path(tmp) / "refs.json"
            parse(run(w, "--trace", "0", "--references", str(refs), "--record-references"), f"{w} record")
            data = json.loads(refs.read_text())
            values = data[w]["3"]
            key = sorted(values)[0]
            v = values[key]
            values[key] = v + 1 if isinstance(v, int) else v * 1.001 + 1e-3
            refs.write_text(json.dumps(data))
            report, result = parse(run(w, "--trace", "0", "--references", str(refs)), f"{w} wrong reference")
            if result:
                expect(not result["correct"] and result["failed"] >= 1,
                       f"{w}: a wrong reference for {key} was not counted as a failure")
                expect(any(key in f for f in report["failures"]), f"{w}: failure does not name {key}")
        print(f"ok   {w}", flush=True)

    for m in SPEC["per_layer"]:
        if not m["name"].startswith(MAY_BE_ZERO):
            expect(m["name"] in nonzero, f"per-layer metric {m['name']} reads 0 on every workload")

    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for p in SPEC["paths"]:
            shutil.copytree(ROOT / p, Path(tmp) / p, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(workloads[0], "--trace", "0", cwd=tmp)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        expect(proc.returncode != 0 and '"metrics"' not in last, "a checkout without sources printed a result")

    print("selftest:", "FAILED" if problems else "passed", f"({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
