"""Command-line front end: experiment dispatch and bit-stable CSV/manifest output.

Config precedence is flags > config file > built-in defaults; the resolved
configuration is echoed into ``manifest.json`` next to the data files, along
with SHA-256 digests of everything written. Identical runs produce
byte-identical CSVs for any thread count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .ensemble import DEFAULT_MASTER_SEED, derive_stream
from .experiments import (
    DEFAULT_DELTAS,
    DEFAULT_FIG2_W,
    DEFAULT_N_SITES,
    DEFAULT_TRACE_POINTS,
    DEFAULT_TRACE_SPAN,
    DEFAULT_W_MAX,
    DEFAULT_W_MIN,
    DEFAULT_W_POINTS,
    default_w_grid,
    leakage_trace,
    oracle_check,
    ordered_baseline,
    transfer_sweep,
)
from .hamiltonian import build_effective, build_physical
from .model import LadderParams, sample_realization
from .observables import transfer_time

__all__ = ["main"]

THREADS_ENV_VAR = "QLADDER_THREADS"
ORACLE_TOL = 1e-8
BASELINE_TOL = 1e-6

FIG1_DEFAULTS = {
    "n_sites": DEFAULT_N_SITES,
    "delta": list(DEFAULT_DELTAS),
    "w_min": DEFAULT_W_MIN,
    "w_max": DEFAULT_W_MAX,
    "w_points": DEFAULT_W_POINTS,
    "realizations": 100,
    "seed": DEFAULT_MASTER_SEED,
    "out_dir": ".",
    "keep_raw": False,
}

FIG2_DEFAULTS = {
    "n_sites": DEFAULT_N_SITES,
    "delta": 0.2,
    "w": list(DEFAULT_FIG2_W),
    "t_max": DEFAULT_TRACE_SPAN,
    "t_points": DEFAULT_TRACE_POINTS,
    "realizations": 100,
    "seed": DEFAULT_MASTER_SEED,
    "out_dir": ".",
    "keep_raw": False,
}


def _fmt(value) -> str:
    """Fixed 17-significant-digit decimal formatting ('.' separator)."""
    return format(float(value), ".17g")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, command: str, config: dict, files: list[Path]) -> Path:
    manifest = {
        "artifact": "qladder",
        "version": __version__,
        "command": command,
        "config": config,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "outputs": {path.name: _sha256(path) for path in files},
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="ascii")
    return path


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_config_value(command: str, key: str, value, default) -> None:
    """Reject a config-file value whose type differs from that of its built-in default."""
    if isinstance(default, bool):
        ok, expected = isinstance(value, bool), "a boolean"
    elif isinstance(default, int):
        ok, expected = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif isinstance(default, float):
        ok, expected = _number(value), "a number"
    elif isinstance(default, list):
        ok = isinstance(value, list) and all(_number(v) for v in value)
        expected = "a list of numbers"
    else:
        ok, expected = isinstance(value, str), "a string"
    if not ok:
        raise ValueError(f"config key {command}.{key}: expected {expected}, got {value!r}")


def _resolve(args: argparse.Namespace, command: str, defaults: dict) -> dict:
    """Merge built-in defaults, optional config file section, and explicit flags."""
    resolved = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        loaded = json.loads(Path(config_path).read_text())
        section = loaded.get(command, loaded) if isinstance(loaded, dict) else loaded
        if not isinstance(section, dict):
            raise ValueError(f"config for {command} must be a JSON object of keys")
        unknown = set(section) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys for {command}: {sorted(unknown)}")
        for key, value in section.items():
            _check_config_value(command, key, value, defaults[key])
        resolved.update(section)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    return resolved


def _thread_count(text: str) -> int:
    """A worker count: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _threads(args: argparse.Namespace) -> int:
    if args.threads is not None:
        return args.threads
    env = os.environ.get(THREADS_ENV_VAR)
    if not env:
        return 1
    try:
        return _thread_count(env)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"{THREADS_ENV_VAR} {exc}") from exc


def cmd_fig1(args: argparse.Namespace) -> int:
    cfg = _resolve(args, "fig1", FIG1_DEFAULTS)
    threads = _threads(args)
    w_grid = default_w_grid(cfg["w_min"], cfg["w_max"], cfg["w_points"])
    result = transfer_sweep(
        n_sites=cfg["n_sites"],
        deltas=cfg["delta"],
        w_grid=w_grid,
        n_realizations=cfg["realizations"],
        master_seed=cfg["seed"],
        threads=threads,
        keep_raw=cfg["keep_raw"],
    )
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    for delta in result.deltas:
        for iw, w in enumerate(result.w_values):
            stats = result.series[delta][iw]
            rows.append([_fmt(w), _fmt(delta), _fmt(stats.mean), _fmt(stats.std_error), str(stats.n)])
    data_path = out_dir / "fig1.csv"
    _write_csv(data_path, ["w", "delta", "mean_concurrence", "std_error", "n"], rows)
    files = [data_path]

    if cfg["keep_raw"]:
        raw_rows = []
        for delta in result.deltas:
            for iw, w in enumerate(result.w_values):
                raw = result.series[delta][iw].per_realization
                for i, value in enumerate(raw):
                    raw_rows.append([_fmt(w), _fmt(delta), str(i), _fmt(value)])
        raw_path = out_dir / "fig1_raw.csv"
        _write_csv(raw_path, ["w", "delta", "realization", "concurrence"], raw_rows)
        files.append(raw_path)

    cfg["threads"] = threads  # resolved for the record; does not affect the data
    _write_manifest(out_dir, "fig1", cfg, files)
    print(f"wrote {data_path} ({len(rows)} rows)")
    return 0


def cmd_fig2(args: argparse.Namespace) -> int:
    cfg = _resolve(args, "fig2", FIG2_DEFAULTS)
    threads = _threads(args)
    tau = transfer_time(cfg["n_sites"])
    times = np.linspace(0.0, cfg["t_max"] * tau, cfg["t_points"])
    result = leakage_trace(
        n_sites=cfg["n_sites"],
        delta=cfg["delta"],
        w_values=cfg["w"],
        times=times,
        n_realizations=cfg["realizations"],
        master_seed=cfg["seed"],
        threads=threads,
        keep_raw=cfg["keep_raw"],
    )
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    for w in result.w_values:
        minus, plus = result.minus[w], result.plus[w]
        for k, t in enumerate(result.times):
            rows.append(
                [
                    _fmt(t / tau),
                    _fmt(w),
                    _fmt(minus.mean[k]),
                    _fmt(plus.mean[k]),
                    _fmt(minus.std_error[k]),
                    str(minus.n),
                ]
            )
    data_path = out_dir / "fig2.csv"
    _write_csv(
        data_path,
        ["t_over_tau", "w", "mean_p_minus", "mean_p_plus", "std_error", "n"],
        rows,
    )
    files = [data_path]

    if cfg["keep_raw"]:
        raw_rows = []
        for w in result.w_values:
            raw = result.minus[w].per_realization
            for i in range(raw.shape[0]):
                for k, t in enumerate(result.times):
                    raw_rows.append([_fmt(t / tau), _fmt(w), str(i), _fmt(raw[i, k])])
        raw_path = out_dir / "fig2_raw.csv"
        _write_csv(raw_path, ["t_over_tau", "w", "realization", "p_minus"], raw_rows)
        files.append(raw_path)

    cfg["threads"] = threads
    _write_manifest(out_dir, "fig2", cfg, files)
    print(f"wrote {data_path} ({len(rows)} rows)")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    times = np.linspace(0.0, args.t_max, args.t_points)
    deviation = oracle_check(args.delta, args.gamma, args.n_sites, times=times)
    print(f"max deviation {_fmt(deviation)}")
    return 0 if deviation < ORACLE_TOL else 1


def cmd_baseline(args: argparse.Namespace) -> int:
    report = ordered_baseline(args.n_sites, exact_revival=args.exact_revival)
    print(f"C(tau) = {_fmt(report.concurrence_at_tau)} at tau = {_fmt(report.tau)}")
    return 0 if report.concurrence_at_tau >= 1.0 - BASELINE_TOL else 1


def cmd_dump_hamiltonian(args: argparse.Namespace) -> int:
    params = LadderParams(
        n_sites=args.n_sites,
        disorder_w=args.w,
        detuning_delta=args.delta,
        allow_large_detuning=True,
    )
    rng = derive_stream(args.seed, args.index)
    realization = sample_realization(params, rng, seed_tag=f"{args.seed}:{args.index}")
    if args.basis == "physical":
        operator = build_physical(realization)
    else:
        operator = build_effective(realization)
    lines = ["row,col,value"]
    entries = operator.entries
    for i in range(operator.dim):
        for j in range(operator.dim):
            if entries[i, j] != 0.0:
                lines.append(f"{i},{j},{_fmt(entries[i, j])}")
    text = "\n".join(lines) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="ascii")
        print(f"wrote {args.out} ({len(lines) - 1} entries)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qladder",
        description="Entanglement transfer through disordered two-leg ladder chains",
    )
    parser.add_argument("--version", action="version", version=f"qladder {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fig1 = sub.add_parser("fig1", help="concurrence vs disorder strength sweep")
    fig1.add_argument("--n-sites", dest="n_sites", type=int)
    fig1.add_argument("--delta", action="append", type=float, help="repeatable detuning amplitude")
    fig1.add_argument("--w-min", dest="w_min", type=float)
    fig1.add_argument("--w-max", dest="w_max", type=float)
    fig1.add_argument("--w-points", dest="w_points", type=int)
    fig1.add_argument("--realizations", type=int)
    fig1.add_argument("--seed", type=int)
    fig1.add_argument("--out-dir", dest="out_dir")
    fig1.add_argument("--keep-raw", dest="keep_raw", action="store_true", default=None)
    fig1.add_argument("--threads", type=_thread_count)
    fig1.add_argument("--config", help="JSON config file (section 'fig1')")
    fig1.set_defaults(func=cmd_fig1)

    fig2 = sub.add_parser("fig2", help="branch occupation traces vs time")
    fig2.add_argument("--n-sites", dest="n_sites", type=int)
    fig2.add_argument("--delta", type=float)
    fig2.add_argument("--w", action="append", type=float, help="repeatable disorder strength")
    fig2.add_argument("--t-max", dest="t_max", type=float, help="trace span in units of tau")
    fig2.add_argument("--t-points", dest="t_points", type=int)
    fig2.add_argument("--realizations", type=int)
    fig2.add_argument("--seed", type=int)
    fig2.add_argument("--out-dir", dest="out_dir")
    fig2.add_argument("--keep-raw", dest="keep_raw", action="store_true", default=None)
    fig2.add_argument("--threads", type=_thread_count)
    fig2.add_argument("--config", help="JSON config file (section 'fig2')")
    fig2.set_defaults(func=cmd_fig2)

    oracle = sub.add_parser("oracle", help="validate evolution against the dimer closed form")
    oracle.add_argument("--delta", type=float, default=0.0)
    oracle.add_argument("--gamma", type=float, default=1.0)
    oracle.add_argument("--n-sites", dest="n_sites", type=int, default=5)
    oracle.add_argument("--t-max", dest="t_max", type=float, default=20.0)
    oracle.add_argument("--t-points", dest="t_points", type=int, default=201)
    oracle.set_defaults(func=cmd_oracle)

    baseline = sub.add_parser("baseline", help="ordered-ladder perfect transfer check")
    baseline.add_argument("--n-sites", dest="n_sites", type=int, default=DEFAULT_N_SITES)
    baseline.add_argument("--exact-revival", dest="exact_revival", action="store_true")
    baseline.set_defaults(func=cmd_baseline)

    dump = sub.add_parser("dump-hamiltonian", help="debug dump of one sampled Hamiltonian")
    dump.add_argument("--n-sites", dest="n_sites", type=int, default=4)
    dump.add_argument("--w", type=float, default=1.0)
    dump.add_argument("--delta", type=float, default=0.2)
    dump.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED)
    dump.add_argument("--index", type=int, default=0)
    dump.add_argument("--basis", choices=("physical", "effective"), default="physical")
    dump.add_argument("--out", default="-", help="output path, '-' for stdout")
    dump.set_defaults(func=cmd_dump_hamiltonian)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # contract: runtime failure -> exit 1 with diagnostic
        print(f"qladder: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
