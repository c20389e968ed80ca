#!/usr/bin/env python3
"""qladder benchmark: the real ``fig1``/``fig2`` CLI drivers, timed and checked.

Run from the root of a source checkout (the package is imported from
``src/``, nothing is installed)::

    python3 perfbench/run.py --workload fig1_sweep --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

Each workload is a closed loop with one client: ``qladder.cli.main`` runs at
production defaults in this process, the next run starting when the previous
one has finished and its output has been checked, until ``--seconds`` would
be exceeded. ``--trace 0`` prints the end-to-end metrics of untraced runs,
their times scaled to a reference machine speed by a probe of fixed work run
between grid points (``SpeedProbe``); ``--trace 1`` alternates untraced and
traced runs and prints per-layer metrics (see ``tracer.py``). The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it record the environment and a readable summary. See README.md for
the metrics, the workloads and the baseline.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
RUN_DIR = ROOT / ".bench_run"

DEFAULT_SEED = 42  # the seed the stored reference CSVs were produced with
N_SITES = 30  # production default, passed explicitly so the workload stays pinned
VALUE_TOL = 1e-13  # max |CSV value - reference|, the repository's numerical contract
COMPLEMENT_TOL = 1e-12  # max |mean_p_minus + mean_p_plus - 1|

# Runs in a fresh interpreter; interpreter start itself is not timed.
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import qladder.cli\n"
    "qladder.cli.build_parser()\n"
    "print(repr(time.perf_counter() - t0))\n"
)

# The machine-speed probe (README.md, "Machine-speed scaling"): fixed work of
# the kinds the drivers do, small enough to run between two grid points.
PROBE_EIGH_CALLS = 8  # numpy.linalg.eigh of one 60x60 matrix, as the drivers call it
PROBE_LOOP_STEPS = 30000  # interpreter-bound steps
PROBE_REF_S = 0.007  # the probe's median time on the baseline machine
PROBE_BETWEEN_RUNS = 5  # probe repeats between two timed runs

HEADERS = {
    "fig1": ["w", "delta", "mean_concurrence", "std_error", "n"],
    "fig2": ["t_over_tau", "w", "mean_p_minus", "mean_p_plus", "std_error", "n"],
}
# Columns that do not depend on the seed: checked against the reference for any seed.
GRID_COLUMNS = {"fig1": ("w", "delta", "n"), "fig2": ("t_over_tau", "w", "n")}

END_TO_END_UNITS = {
    "wall_s": "s",
    "realizations_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Size:
    """One problem size of a driver, and what its output must then look like."""

    args: tuple  # CLI flags added to the production defaults
    per_point: int  # realizations per grid point (the "n" column)
    points: int  # grid points: W x delta for fig1, W for fig2
    rows: int  # CSV data rows
    t_points: int = 0  # fig2 readouts per realization

    @property
    def realizations(self) -> int:
        return self.per_point * self.points


SIZES = {
    ("fig1", False): Size((), 100, 75, 75),
    ("fig1", True): Size(("--realizations", "2", "--w-points", "2"), 2, 6, 6),
    ("fig2", False): Size((), 100, 5, 1000, 200),
    ("fig2", True): Size(("--realizations", "2", "--w", "0.2", "--w", "5", "--t-points", "5"), 2, 2, 10, 5),
}


@dataclass(frozen=True)
class Workload:
    command: str
    threads: int


# Why each workload exists: README.md. fig1_threads2 is for runs by hand and is
# not in BENCHMARK.json: its run-to-run spread is wider than any bound allowed there.
WORKLOADS = {
    "fig1_sweep": Workload("fig1", 1),
    "fig2_trace": Workload("fig2", 1),
    "fig1_threads2": Workload("fig1", 2),
}


def expected_calls(command: str, size: Size) -> dict[str, int]:
    """Exact per-run call counts of each traced layer at this size."""
    r = size.realizations
    calls = {
        "cli.main": 1,
        "ensemble.run_ensemble": size.points,
        "ensemble.derive_stream": r,
        "ensemble.realization": r,
        "model.sample_realization": r,
        "hamiltonian.build_effective": r,
        "hamiltonian.bell_minus_state": r,
        "spectral.eigendecompose": r,
    }
    if command == "fig1":
        calls.update({
            "cli.cmd_fig1": 1,
            "experiments.transfer_sweep": 1,
            "spectral.evolve": r,
            "observables.concurrence": r,
            "spectral.expectation": 2 * r,
        })
    else:
        calls.update({
            "cli.cmd_fig2": 1,
            "experiments.leakage_trace": 1,
            "spectral.evolve_series": r,
            "observables.branch_occupation": 2 * size.t_points * r,
            "spectral.expectation": r + size.t_points * r,
        })
    return {layer: calls.get(layer, 0) for layer in tracer.LAYERS}


PER_LAYER_UNITS = {
    **{f"{layer}.{stat}": unit for layer in tracer.LAYERS
       for stat, unit in (("calls", "count"), ("self_s", "s"), ("p50_us", "us"))},
    "spectral.eigendecompose.bytes_computed": "B",
    "process.cpu_over_wall": "ratio",
    "process.blas_threads": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "trace.parallel_overlap_s": "s",
}


# ----------------------------------------------------------------- correctness

def _read_csv(data: bytes) -> tuple[list[str], list[list[str]]]:
    lines = data.decode("ascii").splitlines()
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def load_reference(command: str) -> list[list[str]]:
    _, rows = _read_csv((REFERENCE_DIR / f"{command}.csv").read_bytes())
    return rows


def _invariant_errors(command: str, size: Size, header: list[str], rows) -> list[str]:
    col = {name: i for i, name in enumerate(header)}
    errors = []
    if len(rows) != size.rows:
        errors.append(f"{len(rows)} rows, expected {size.rows}")
    for k, row in enumerate(rows):
        if len(row) != len(header):
            errors.append(f"row {k}: {len(row)} fields")
            continue
        try:
            values = {name: float(row[i]) for name, i in col.items()}
        except ValueError as exc:
            errors.append(f"row {k}: {exc}")
            continue
        if row[col["n"]] != str(size.per_point):
            errors.append(f"row {k}: n = {row[col['n']]}, expected {size.per_point}")
        if not (values["std_error"] >= 0.0 and math.isfinite(values["std_error"])):
            errors.append(f"row {k}: std_error = {row[col['std_error']]}")
        if command == "fig1":
            if not 0.0 <= values["mean_concurrence"] <= 1.0:
                errors.append(f"row {k}: mean_concurrence = {row[col['mean_concurrence']]} outside [0, 1]")
        else:
            p_minus, p_plus = values["mean_p_minus"], values["mean_p_plus"]
            if not -COMPLEMENT_TOL <= p_minus <= 1.0 + COMPLEMENT_TOL:
                errors.append(f"row {k}: mean_p_minus = {row[col['mean_p_minus']]} outside [0, 1]")
            if not abs(p_minus + p_plus - 1.0) <= COMPLEMENT_TOL:
                errors.append(f"row {k}: mean_p_minus + mean_p_plus - 1 = {p_minus + p_plus - 1.0:.3e}")
        if len(errors) > 5:
            break
    if command == "fig2" and len({row[col["w"]] for row in rows if len(row) > 1}) != size.points:
        errors.append(f"expected {size.points} distinct w values")
    return errors


def _reference_errors(header: list[str], rows, reference, columns) -> list[str]:
    if len(rows) != len(reference):
        return [f"{len(rows)} rows, reference has {len(reference)}"]
    errors = []
    for name in columns:
        i = header.index(name)
        for k, (row, ref) in enumerate(zip(rows, reference)):
            if name == "n":
                same = row[i] == ref[i]
            else:
                same = abs(float(row[i]) - float(ref[i])) <= VALUE_TOL
            if not same:
                errors.append(f"row {k}: {name} = {row[i]}, reference {ref[i]}")
                break
    return errors


def check_output(command: str, size: Size, out_dir: Path, reference, compare_values: bool,
                 same_bytes: bytes | None = None) -> tuple[list[str], bytes | None]:
    """Errors in one run's output directory, and the CSV bytes it holds.

    ``reference`` (rows of the stored seed-42 CSV, or None for sizes without
    one) is always compared on the seed-independent grid columns, and on
    every column when ``compare_values``. ``same_bytes``, when given, is the
    CSV the output must equal byte for byte.
    """
    errors = []
    csv_name = f"{command}.csv"
    try:
        outputs = json.loads((out_dir / "manifest.json").read_text())["outputs"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"manifest unreadable: {exc!r}"], None
    if csv_name not in outputs:
        errors.append(f"manifest does not list {csv_name}")
    for name, digest in outputs.items():
        try:
            actual = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        except OSError as exc:
            errors.append(f"manifest names unreadable {name}: {exc}")
            continue
        if actual != digest:
            errors.append(f"manifest digest of {name} does not match the file")
    try:
        data = (out_dir / csv_name).read_bytes()
        header, rows = _read_csv(data)
    except (OSError, UnicodeDecodeError) as exc:
        return errors + [f"{csv_name} unreadable: {exc}"], None
    if same_bytes is not None and data != same_bytes:
        errors.append(f"{csv_name} is not byte-identical to the --threads 1 output")
    if header != HEADERS[command]:
        return errors + [f"header {header}, expected {HEADERS[command]}"], data
    errors += _invariant_errors(command, size, header, rows)
    if reference is not None and not errors:
        columns = header if compare_values else GRID_COLUMNS[command]
        errors += _reference_errors(header, rows, reference, columns)
    return errors, data


# ----------------------------------------------------------------- environment

def _blas_function(name: str, restype):
    """A function of the OpenBLAS loaded in this process (symbol prefixes differ
    between builds), or None when there is none."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = restype
                return fn
    return None


def blas_threads() -> int:
    """OpenBLAS's thread count in this process, 0 when it cannot be queried."""
    import ctypes

    fn = _blas_function("get_num_threads", ctypes.c_int)
    return int(fn()) if fn is not None else 0


def blas_version() -> str:
    import ctypes

    fn = _blas_function("get_config", ctypes.c_char_p)
    return fn().decode() if fn is not None else "unknown"


def git_revision() -> str:
    """HEAD of the checkout, read from ``.git`` directly; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int, tiny: bool) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "n_sites": N_SITES,
        "threads": WORKLOADS[workload].threads,
        "tiny": tiny,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version(),
        "blas_threads": blas_threads(),
        "thread_env": {key: os.environ.get(key) for key in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "QLADDER_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
    }


# ----------------------------------------------------------------- measurement

def measure_setup() -> float:
    """Seconds for a fresh interpreter to import qladder.cli and build its parser."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


class SpeedProbe:
    """Times fixed work, in this process, to follow the machine's own speed.

    Installed, it also runs once before every ``run_ensemble`` call, that is
    between two grid points of a CLI run; ``inner`` holds those times, which
    the benchmark takes off the run's wall time.
    """

    def __init__(self):
        import numpy as np

        self._eigh = np.linalg.eigh
        m = np.random.default_rng(0).standard_normal((2 * N_SITES, 2 * N_SITES))
        self._matrix = m + m.T
        self._eigh(self._matrix)
        self.inner: list[float] = []
        self._module = self._original = None

    def __call__(self, repeat: int = 1) -> float:
        """Seconds per repeat of the fixed work, run ``repeat`` times now."""
        start = perf_counter()
        for _ in range(repeat):
            for _ in range(PROBE_EIGH_CALLS):
                self._eigh(self._matrix)
            s = 0
            for i in range(PROBE_LOOP_STEPS):
                s += i * i
        return (perf_counter() - start) / repeat

    def install(self) -> bool:
        """Probe before every ``run_ensemble`` call; False if qladder has no such call."""
        import qladder.experiments as module

        original = getattr(module, "run_ensemble", None)
        if original is None:
            return False

        def probed(*args, **kwargs):
            self.inner.append(self())
            return original(*args, **kwargs)

        self._module, self._original = module, original
        module.run_ensemble = probed
        return True

    def uninstall(self) -> None:
        if self._module is not None:
            self._module.run_ensemble = self._original
            self._module = self._original = None


def at_reference_speed(samples: list[float], probes: list[float]) -> list[float]:
    """Each timing scaled to the reference speed by the mean probe time measured with it."""
    return [sample * PROBE_REF_S / probe for sample, probe in zip(samples, probes)]


def run_cli(argv: list[str]) -> tuple[int, float, str]:
    """Exit code, wall seconds from dispatch until the manifest is written, and stderr."""
    from qladder import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the flags
            code = exc.code if isinstance(exc.code, int) else 2
        wall = perf_counter() - start
    return code, wall, err.getvalue()


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 tamper=None) -> dict:
    """Run one workload for about ``seconds`` and return its record.

    ``tamper(out_dir)``, when given, edits each timed run's output before it
    is checked; the self-check uses it to show that the gate catches a bad CSV.
    """
    workload = WORKLOADS[name]
    size = SIZES[(workload.command, tiny)]
    reference = None if tiny else load_reference(workload.command)
    compare_values = seed == DEFAULT_SEED
    out_dir = RUN_DIR / f"{name}-{os.getpid()}"

    def argv(threads: int, size: Size = size) -> list[str]:
        return [workload.command, "--n-sites", str(N_SITES), "--threads", str(threads),
                "--seed", str(seed), "--out-dir", str(out_dir), *size.args]

    record = {"env": environment(name, seed, tiny), "walls": [], "errors": []}
    try:
        run_cli(argv(1, SIZES[(workload.command, True)]))  # lazy BLAS/pool start-up, untimed
        same_bytes, baseline_errors = None, []
        if workload.threads > 1:  # untimed --threads 1 run the timed output must equal
            code, _, stderr = run_cli(argv(1))
            baseline_errors, same_bytes = check_output(
                workload.command, size, out_dir, reference, compare_values)
            if code:
                baseline_errors.insert(0, f"exit {code}: {stderr.strip()}")

        def timed_run():
            gc.collect()
            cpu0 = resource.getrusage(resource.RUSAGE_SELF)
            code, wall, stderr = run_cli(argv(workload.threads))
            cpu1 = resource.getrusage(resource.RUSAGE_SELF)
            cpu = (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime)
            if tamper is not None:
                tamper(out_dir)
            errors, data = check_output(workload.command, size, out_dir, reference, compare_values,
                                        same_bytes)
            if code:
                errors.insert(0, f"exit {code}: {stderr.strip()}")
            if baseline_errors:
                errors.append(f"no valid --threads 1 output to compare with: {baseline_errors}")
            record["errors"].append(errors)
            return wall, cpu, data

        start = perf_counter()
        walls, iterations, setup = record["walls"], [], []

        def another() -> bool:  # is one more iteration expected to end within `seconds`?
            return not iterations or perf_counter() - start + statistics.median(iterations) <= seconds

        if trace:
            # untraced and traced runs alternate, so a slow spell of the machine
            # weighs on both sides of the tracing overhead
            tr = tracer.Tracer()
            untraced = record["untraced_walls"] = []
            cpu_ratios = record["cpu_over_wall"] = []
            record["layers"], record["overlaps"] = [], []
            while another():
                began = perf_counter()
                wall, cpu, _ = timed_run()
                untraced.append(wall)
                cpu_ratios.append(cpu / wall)
                record["missing_layers"] = tr.install()
                try:
                    walls.append(timed_run()[0])
                finally:
                    tr.uninstall()
                layers, overlap = tr.summarize()
                record["layers"].append(layers)
                record["overlaps"].append(overlap)
                iterations.append(perf_counter() - began)
        else:
            # the probe runs before, inside and after every CLI run, and on both
            # sides of every set-up sample
            first = None
            wall_probes, setup_probes = record["wall_probes"], record["setup_probes"] = [], []
            probe = SpeedProbe()
            record["probed_inside"] = probe.install()
            try:
                before = probe(PROBE_BETWEEN_RUNS)
                while another():
                    began = perf_counter()
                    probe.inner.clear()
                    wall, _, data = timed_run()
                    after = probe(PROBE_BETWEEN_RUNS)
                    walls.append(wall - sum(probe.inner))
                    wall_probes.append(statistics.mean([before, *probe.inner, after]))
                    if workload.threads == 1:  # every run of one seed must repeat the first byte for byte
                        if first is None:
                            first = data
                        elif data != first:
                            record["errors"][-1].append("CSV differs from the first run of this seed")
                    # one set-up sample per CLI run, spread over the run like the CLI runs
                    setup.append(measure_setup())
                    before = probe(PROBE_BETWEEN_RUNS)
                    setup_probes.append((after + before) / 2)
                    iterations.append(perf_counter() - began)
            finally:
                probe.uninstall()
        record["setup"] = setup
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record["blas_threads"] = blas_threads()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            RUN_DIR.rmdir()
    record["size"] = size
    return record


def end_to_end_metrics(record: dict) -> dict[str, float]:
    """Medians over the run, the times scaled to the reference machine speed."""
    wall = statistics.median(at_reference_speed(record["walls"], record["wall_probes"]))
    return {
        "wall_s": wall,
        "realizations_per_s": record["size"].realizations / wall,
        "setup_s": statistics.median(at_reference_speed(record["setup"], record["setup_probes"])),
        "peak_rss_mb": record["peak_rss_mb"],
    }


def per_layer_metrics(record: dict) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of a traced record, and the consistency problems found."""
    runs = record["layers"]
    problems = []
    metrics = {}
    for layer in tracer.LAYERS:
        counts = {run[layer][0] for run in runs}
        if len(counts) != 1:
            problems.append(f"{layer}.calls differs between runs: {sorted(counts)}")
        metrics[f"{layer}.calls"] = runs[0][layer][0]
        metrics[f"{layer}.self_s"] = statistics.median(run[layer][1] for run in runs)
        metrics[f"{layer}.p50_us"] = statistics.median(
            statistics.median(run[layer][2]) * 1e6 if run[layer][2] else 0.0 for run in runs)
    # two (2N x 2N) float64 arrays per decomposition: the input and the eigenvectors
    metrics["spectral.eigendecompose.bytes_computed"] = (
        metrics["spectral.eigendecompose.calls"] * 2 * (2 * N_SITES) ** 2 * 8)
    metrics["process.cpu_over_wall"] = statistics.median(record["cpu_over_wall"])
    metrics["process.blas_threads"] = record["blas_threads"]
    traced_wall = statistics.median(record["walls"])
    overhead = traced_wall - statistics.median(record["untraced_walls"])
    gaps = [wall - (sum(run[layer][1] for layer in tracer.LAYERS) - overlap)
            for wall, run, overlap in zip(record["walls"], runs, record["overlaps"])]
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = overhead
    metrics["trace.unattributed_s"] = statistics.median(gaps)
    metrics["trace.parallel_overlap_s"] = statistics.median(record["overlaps"])
    if abs(metrics["trace.unattributed_s"]) > abs(overhead):
        problems.append(f"self times miss the traced wall time by {metrics['trace.unattributed_s']:.4f} s, "
                        f"more than the tracing overhead {overhead:.4f} s")
    return metrics, problems


# ----------------------------------------------------------------- entry point

def _run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        status |= subprocess.run(cmd, cwd=ROOT).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master seed passed to qladder --seed")
    parser.add_argument("--seconds", type=float, default=55.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, untraced; 1: per-layer metrics from traced runs")
    parser.add_argument("--tiny", action="store_true",
                        help="self-check size (2 realizations per point) instead of production defaults")
    args = parser.parse_args(argv)

    if not (SRC / "qladder" / "cli.py").is_file():
        print(f"perfbench: no qladder sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return _run_all(args)

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    failed_runs = [errors for errors in record["errors"] if errors]
    attempted, failed = len(record["errors"]), len(failed_runs)
    problems = []
    if args.trace:
        metrics, problems = per_layer_metrics(record)
        units = PER_LAYER_UNITS
        expected = expected_calls(WORKLOADS[args.workload].command, record["size"])
        for layer, calls in expected.items():
            if metrics[f"{layer}.calls"] != calls:
                print(f"# note: {layer}.calls = {metrics[f'{layer}.calls']}, {calls} at the baseline",
                      file=sys.stderr)
        if record["missing_layers"]:
            print(f"# note: layers absent from qladder: {record['missing_layers']}", file=sys.stderr)
    else:
        metrics = end_to_end_metrics(record)
        units = END_TO_END_UNITS
        if not record["probed_inside"]:
            print("# note: qladder.experiments has no run_ensemble; probed between CLI runs only",
                  file=sys.stderr)
    for errors in failed_runs:
        print(f"# failed run: {errors}", file=sys.stderr)
    for problem in problems:
        print(f"# trace check failed: {problem}", file=sys.stderr)

    print("# env " + json.dumps(record["env"], sort_keys=True))
    print(f"# {args.workload}: {attempted} timed runs, measured wall_s per run "
          + " ".join(f"{w:.4f}" for w in record["walls"]))
    if not args.trace:
        print(f"# mean machine-speed probe per run (s), reference {PROBE_REF_S}: "
              + " ".join(f"{p:.5f}" for p in record["wall_probes"]))
        print("# measured setup_s per sample " + " ".join(f"{t:.4f}" for t in record["setup"]))
    for key, value in metrics.items():
        print(f"{key:<44} {value:>16.6f} {units[key]}")
    print(f"{'error_rate':<44} {failed / attempted:>16.6f} 1 ({failed} of {attempted} runs failed)")
    result = {
        "correct": not failed_runs and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
