#!/usr/bin/env python3
"""Self-check of the benchmark on the tiny configuration; takes about a minute.

    python3 perfbench/selfcheck.py

Run from the root of a source checkout. It is not part of the test suite.
It checks that:

- every workload, in both trace modes, ends its output with a result line of
  the contract's schema that holds exactly the metrics ``BENCHMARK.json``
  names, each with its unit, and prints each of them on a readable line too;
- a perturbed CSV counts as a failed run, whether or not the manifest digest
  was updated to match it;
- the reference gate passes the stored seed-42 output and rejects a value off
  by more than 1e-13, a changed ``n`` column and a wrong manifest digest.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys

import run

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def check_result(label: str, stdout: str, declared: dict[str, str]) -> None:
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        expect(False, f"{label}: last line is JSON")
        return
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    expect(result.get("correct") is True and result.get("failed") == 0, f"{label}: correct, 0 failed")
    attempted = result.get("attempted")
    expect(isinstance(attempted, int) and attempted >= 1, f"{label}: attempted is a whole number >= 1")
    metrics = result.get("metrics", {})
    expect(set(metrics) == set(declared), f"{label}: metrics are exactly those declared "
           f"(missing {sorted(set(declared) - set(metrics))}, extra {sorted(set(metrics) - set(declared))})")
    for name, unit in declared.items():
        entry = metrics.get(name, {})
        value = entry.get("value")
        expect(set(entry) == {"value", "unit"} and entry.get("unit") == unit
               and isinstance(value, (int, float)) and not isinstance(value, bool),
               f"{label}: {name} = {value} {entry.get('unit')}")
        expect(any(line.split()[:1] == [name] and line.split()[2:3] == [unit] for line in lines[:-1]),
               f"{label}: readable line for {name} in {unit}")


def rewrite_csv(out_dir, name: str, transform, fix_digest: bool) -> None:
    """Apply ``transform`` to the CSV text; optionally update the manifest to match."""
    path = out_dir / name
    path.write_text(transform(path.read_text()), encoding="ascii")
    if fix_digest:
        manifest_path = out_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["outputs"][name] = hashlib.sha256(path.read_bytes()).hexdigest()
        manifest_path.write_text(json.dumps(manifest))


def edit_cell(text: str, row: int, column: int, edit) -> str:
    lines = text.splitlines()
    cells = lines[row + 1].split(",")
    cells[column] = edit(cells[column])
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def shift(delta: float):
    return lambda cell: format(float(cell) + delta, ".17g")


def check_schema() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect({w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS), "BENCHMARK.json workloads")
    expect(set(run.END_TO_END_UNITS.items()) == {(m["name"], m["unit"]) for m in spec["end_to_end"]},
           "BENCHMARK.json end_to_end matches run.py")
    expect(set(run.PER_LAYER_UNITS.items()) == {(m["name"], m["unit"]) for m in spec["per_layer"]},
           "BENCHMARK.json per_layer matches run.py")
    for name in run.WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            done = subprocess.run(
                [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", name, "--seed", "42",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=170)
            label = f"{name} --trace {trace}"
            expect(done.returncode == 0, f"{label}: exit 0 ({done.stderr.strip()[-300:]})")
            check_result(label, done.stdout, {m["name"]: m["unit"] for m in declared})


def check_error_rate() -> None:
    column = run.HEADERS["fig1"].index("mean_concurrence")
    tampers = {
        "value outside [0, 1], digest updated": lambda d: rewrite_csv(
            d, "fig1.csv", lambda t: edit_cell(t, 0, column, lambda _: "1.5"), fix_digest=True),
        "value shifted by 1e-3, digest stale": lambda d: rewrite_csv(
            d, "fig1.csv", lambda t: edit_cell(t, 0, column, shift(1e-3)), fix_digest=False),
    }
    for label, tamper in tampers.items():
        record = run.run_workload("fig1_sweep", 42, 0.5, trace=False, tiny=True, tamper=tamper)
        expect(record["probed_inside"] and len(record["wall_probes"]) == len(record["walls"]),
               f"speed probe installed between grid points ({label})")
        attempted = len(record["errors"])
        failed = sum(1 for errors in record["errors"] if errors)
        expect(attempted >= 1 and failed == attempted,
               f"perturbed CSV ({label}) counts toward error_rate: {failed} of {attempted} failed")


def check_reference_gate() -> None:
    out_dir = run.RUN_DIR / "selfcheck"
    size = run.SIZES[("fig1", False)]
    reference = run.load_reference("fig1")
    header = run.HEADERS["fig1"]
    cases = {
        "stored reference": (None, False, True),
        "mean_concurrence + 1e-12": ((0, header.index("mean_concurrence"), shift(1e-12)), True, False),
        "std_error - 5e-13": ((3, header.index("std_error"), shift(-5e-13)), True, False),
        "n column 100 -> 99": ((1, header.index("n"), lambda _: "99"), True, False),
        "stale manifest digest": ((2, header.index("w"), lambda cell: repr(float(cell))), False, False),
    }
    try:
        for label, (cell, fix_digest, should_pass) in cases.items():
            shutil.rmtree(out_dir, ignore_errors=True)
            out_dir.mkdir(parents=True)
            shutil.copy(run.REFERENCE_DIR / "fig1.csv", out_dir / "fig1.csv")
            digest = hashlib.sha256((out_dir / "fig1.csv").read_bytes()).hexdigest()
            (out_dir / "manifest.json").write_text(json.dumps({"outputs": {"fig1.csv": digest}}))
            if cell is not None:
                rewrite_csv(out_dir, "fig1.csv", lambda t: edit_cell(t, *cell), fix_digest)
            errors, _ = run.check_output("fig1", size, out_dir, reference, compare_values=True)
            expect(not errors if should_pass else bool(errors),
                   f"reference gate, {label}: {'passes' if should_pass else 'rejects'} ({errors[:1]})")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            run.RUN_DIR.rmdir()
        except OSError:
            pass


def main() -> int:
    if not (run.SRC / "qladder" / "cli.py").is_file():
        print(f"selfcheck: no qladder sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    check_reference_gate()
    check_error_rate()
    check_schema()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
