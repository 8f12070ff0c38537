#!/usr/bin/env python3
"""Smoke self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json for one second, untraced and traced, and
checks the result line against BENCHMARK.json: exactly the keys correct,
attempted, failed and metrics; every end_to_end metric (untraced) or
per_layer metric (traced) present with its declared unit and a finite
value; the run correct with no failed operation. Then copies only
BENCHMARK.json and the benchmark's paths into an empty directory and
checks that the benchmark fails there without printing a result.
Exit code 0 when every check passes.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def last_json(stdout):
    lines = [l for l in stdout.strip().splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def check_result(res, declared):
    errors = []
    if res is None or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys: {None if res is None else sorted(res)}"]
    if res["correct"] is not True or res["failed"] != 0:
        errors.append(f"correct={res['correct']} failed={res['failed']}")
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        errors.append(f"attempted={res['attempted']}")
    got = res["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(got) != set(want):
        errors.append(f"metric names differ: missing {sorted(set(want) - set(got))}"
                      f", extra {sorted(set(got) - set(want))}")
    for name, m in got.items():
        if set(m) != {"value", "unit"}:
            errors.append(f"{name}: keys {sorted(m)}")
        elif name in want and m["unit"] != want[name]:
            errors.append(f"{name}: unit {m['unit']} != {want[name]}")
        elif not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            errors.append(f"{name}: value {m['value']!r}")
    return errors


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for w in spec["workloads"]:
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            cmd = spec["command"] + ["--workload", w["name"], "--seed", "7",
                                     "--seconds", "1", "--trace", trace]
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            errors = [f"exit code {p.returncode}"] if p.returncode != 0 else []
            try:
                errors += check_result(last_json(p.stdout), declared)
            except json.JSONDecodeError as e:
                errors.append(f"last line is not JSON: {e}")
            print(f"{w['name']:14s} trace={trace}: {'ok' if not errors else 'FAIL'}")
            for e in errors:
                print(f"    {e}")
            if errors:
                print(p.stderr[-2000:], file=sys.stderr)
            failures += bool(errors)

    bare = ROOT / ".bench_build" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path)
    cmd = spec["command"] + ["--workload", spec["workloads"][0]["name"],
                             "--seed", "1", "--seconds", "1", "--trace", "0"]
    p = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    bare_ok = p.returncode != 0 and not p.stdout.strip()
    print(f"without sources: exit {p.returncode}, "
          f"{'no result' if not p.stdout.strip() else 'printed output'}: "
          f"{'ok' if bare_ok else 'FAIL'}")
    shutil.rmtree(bare, ignore_errors=True)
    failures += not bare_ok
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
