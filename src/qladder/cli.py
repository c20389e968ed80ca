"""Command-line front end: experiment dispatch and bit-stable CSV/manifest output.

Config precedence is flags > config file > built-in defaults; the resolved
configuration is echoed into ``manifest.json`` next to the data files, along
with SHA-256 digests of everything written. Identical runs produce
byte-identical CSVs for any thread count.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys

from . import __version__

__all__ = ["main"]

THREADS_ENV_VAR = "QLADDER_THREADS"
ORACLE_TOL = 1e-8
BASELINE_TOL = 1e-6

# The production defaults, each defined once, here. The drivers take every
# grid and seed argument explicitly, and this module imports neither numpy nor
# the compute modules until a command runs.
FIG1_DEFAULTS = {
    "n_sites": 30,
    "delta": [0.05, 0.1, 0.2],
    "w_min": 0.2,
    "w_max": 10.0,
    "w_points": 25,
    "realizations": 100,
    "seed": 42,
    "out_dir": ".",
    "keep_raw": False,
}

FIG2_DEFAULTS = {
    "n_sites": FIG1_DEFAULTS["n_sites"],
    "delta": 0.2,
    "w": [0.2, 1.0, 2.0, 5.0, 10.0],
    "t_max": 10.0,  # in units of the transfer time
    "t_points": 200,
    "realizations": FIG1_DEFAULTS["realizations"],
    "seed": FIG1_DEFAULTS["seed"],
    "out_dir": ".",
    "keep_raw": False,
}

# the commands that read a section of a --config file
CONFIG_SECTIONS = ("fig1", "fig2")


def _fmt(value) -> str:
    """Fixed 17-significant-digit decimal formatting ('.' separator)."""
    return format(float(value), ".17g")


def _write_output(path: str | Path, chunks) -> None:
    """Write the text ``chunks`` to ``path``, replacing any old contents.

    An old regular file is unlinked first rather than truncated or renamed
    over: ext4 flushes a file's data to disk at close when it was truncated
    and rewritten, and at rename when it replaces an existing file (its
    ``auto_da_alloc`` heuristic). On an ext4 disk that cost 40-80 ms per
    87 KB output either way; writing a new file after an unlink took under
    0.1 ms. Any other target (a symlink, a device such as ``/dev/null``, a
    FIFO), and a regular file that cannot be unlinked, is opened and written
    in place.

    The cost of skipping that flush: a replaced output is not on disk until
    the kernel writes it back. A crash in between can leave it empty or
    missing, with the old data already gone, and its digest then no longer
    matches ``manifest.json``.
    """
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    except OSError:  # absent, or not ours to unlink: open() reports or truncates
        pass
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.writelines(chunks)


def _write_csv(path: Path, header: list[str], rows) -> None:
    _write_output(path, (",".join(row) + "\n" for row in [header, *rows]))


def _number(value) -> bool:
    """A float, or an int that converts to a finite float."""
    if isinstance(value, int) and not isinstance(value, bool):
        return abs(value) <= sys.float_info.max
    return isinstance(value, float)


def _check_config_value(command: str, key: str, value, default) -> None:
    """Reject a config-file value whose type differs from that of its built-in default."""
    if isinstance(default, bool):
        ok, expected = isinstance(value, bool), "a boolean"
    elif isinstance(default, int):
        ok, expected = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif isinstance(default, float):
        ok, expected = _number(value), "a number"
    elif isinstance(default, list):
        ok = isinstance(value, list) and value and all(_number(v) for v in value)
        expected = "a list of numbers (at least one)"
    else:
        ok, expected = isinstance(value, str), "a string"
    if not ok:
        raise ValueError(f"config key {command}.{key}: expected {expected}, got {value!r}")


def _resolve(args: argparse.Namespace, command: str, defaults: dict) -> dict:
    """Merge built-in defaults, the command's section of an optional config
    file, and explicit flags. A file without that section sets no keys. A
    manifest (``command`` and ``config``) is read as that command's section,
    less ``threads`` and ``out_dir``, which do not affect the data."""
    resolved = dict(defaults)
    if args.config:
        import json

        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must be a JSON object of command sections")
        if "command" in loaded and "config" in loaded:
            if loaded["command"] != command:
                raise ValueError(f"config file is a manifest of {loaded['command']!r}, not {command}")
            section = loaded["config"]
            if isinstance(section, dict):
                section = {k: v for k, v in section.items() if k not in ("threads", "out_dir")}
            loaded = {command: section}
        unknown = set(loaded) - set(CONFIG_SECTIONS)
        if unknown:
            raise ValueError(
                f"unknown config sections: {sorted(unknown)} (expected {', '.join(CONFIG_SECTIONS)})"
            )
        section = loaded.get(command, {})
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


def _count(text: str) -> int:
    """A count of workers or points: an integer of at least 1."""
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
        return _count(env)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"{THREADS_ENV_VAR} {exc}") from exc


def _figure(args: argparse.Namespace, command: str, defaults: dict, run, headers) -> int:
    """Resolve, run and write one figure command.

    ``run(cfg, threads)`` runs the figure's driver and returns its mean rows
    and its per-realization rows, which go to ``<command>.csv`` and, with
    ``keep_raw``, ``<command>_raw.csv`` under the two ``headers``.
    """
    import hashlib
    import json
    from datetime import datetime, timezone
    from pathlib import Path

    cfg = _resolve(args, command, defaults)
    if cfg["realizations"] < 1:
        raise ValueError(f"{command} realizations must be at least 1, got {cfg['realizations']}")
    threads = _threads(args)
    rows, raw_rows = run(cfg, threads)
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    files = [out_dir / f"{command}.csv"]
    _write_csv(files[0], headers[0], rows)
    if cfg["keep_raw"]:
        files.append(out_dir / f"{command}_raw.csv")
        _write_csv(files[1], headers[1], raw_rows)
    cfg["threads"] = threads  # resolved for the record; does not affect the data
    manifest = {
        "artifact": "qladder",
        "version": __version__,
        "command": command,
        "config": cfg,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "outputs": {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in files},
    }
    _write_output(out_dir / "manifest.json", [json.dumps(manifest, indent=2, sort_keys=True) + "\n"])
    print(f"wrote {files[0]} ({len(rows)} rows)")
    return 0


def _fig1_rows(cfg: dict, threads: int):
    from .experiments import default_w_grid, transfer_sweep

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
    rows, raw_rows = [], []
    for delta, series in result.items():
        for w, stats in zip(w_grid, series):
            rows.append([*map(_fmt, (w, delta, stats.mean, stats.std_error)), str(cfg["realizations"])])
            if cfg["keep_raw"]:
                for i, value in enumerate(stats.per_realization):
                    raw_rows.append([_fmt(w), _fmt(delta), str(i), _fmt(value)])
    return rows, raw_rows


def cmd_fig1(args: argparse.Namespace) -> int:
    headers = (["w", "delta", "mean_concurrence", "std_error", "n"],
               ["w", "delta", "realization", "concurrence"])
    return _figure(args, "fig1", FIG1_DEFAULTS, _fig1_rows, headers)


def _check_times(command: str, t_max: float, t_points: int) -> None:
    if t_points < 1:
        raise ValueError(f"{command} t_points must be at least 1, got {t_points}")
    if not 0 <= t_max < float("inf"):  # NaN fails too
        raise ValueError(f"{command} t_max must be finite and nonnegative, got {t_max}")


def _fig2_rows(cfg: dict, threads: int):
    _check_times("fig2", cfg["t_max"], cfg["t_points"])
    from .experiments import default_trace_grid, leakage_trace
    from .observables import transfer_time

    tau = transfer_time(cfg["n_sites"])
    if not cfg["t_max"] * tau < float("inf"):  # t_max is in units of tau
        raise ValueError(f"fig2 t_max * tau must be finite, got {cfg['t_max']} at tau = {tau}")
    times = default_trace_grid(cfg["n_sites"], cfg["t_max"], cfg["t_points"])
    if (times[1:] <= times[:-1]).any():  # each would write its rows again
        raise ValueError(f"fig2 t_max must set the trace times apart, got {cfg['t_max']}")
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
    rows, raw_rows = [], []
    for w, minus in result.items():
        for k, t in enumerate(times):
            # p_+ = 1 - p_-: one rounding after the mean
            means = (t / tau, w, minus.mean[k], 1.0 - minus.mean[k], minus.std_error[k])
            rows.append([*map(_fmt, means), str(cfg["realizations"])])
        if cfg["keep_raw"]:
            for i, trace in enumerate(minus.per_realization):
                for t, value in zip(times, trace):
                    raw_rows.append([_fmt(t / tau), _fmt(w), str(i), _fmt(value)])
    return rows, raw_rows


def cmd_fig2(args: argparse.Namespace) -> int:
    headers = (["t_over_tau", "w", "mean_p_minus", "mean_p_plus", "std_error", "n"],
               ["t_over_tau", "w", "realization", "p_minus"])
    return _figure(args, "fig2", FIG2_DEFAULTS, _fig2_rows, headers)


def cmd_oracle(args: argparse.Namespace) -> int:
    _check_times("oracle", args.t_max, args.t_points)
    import numpy as np

    from .experiments import oracle_check

    times = np.linspace(0.0, args.t_max, args.t_points)
    deviation = oracle_check(args.delta, args.gamma, args.n_sites, times)
    print(f"max deviation {_fmt(deviation)}")
    return 0 if deviation < ORACLE_TOL else 1


def cmd_baseline(args: argparse.Namespace) -> int:
    from .experiments import ordered_baseline

    report = ordered_baseline(args.n_sites, exact_revival=args.exact_revival)
    print(f"C(tau) = {_fmt(report.concurrence_at_tau)} at tau = {_fmt(report.tau)}")
    return 0 if report.concurrence_at_tau >= 1.0 - BASELINE_TOL else 1


def cmd_dump_hamiltonian(args: argparse.Namespace) -> int:
    from .ensemble import derive_stream
    from .hamiltonian import build_effective, build_physical
    from .model import LadderParams, sample_realization

    params = LadderParams(n_sites=args.n_sites, disorder_w=args.w, detuning_delta=args.delta)
    realization = sample_realization(params, derive_stream(args.seed, args.index))
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
        _write_output(args.out, [text])
        print(f"wrote {args.out} ({len(lines) - 1} entries)")
    return 0


def _figure_parser(sub, command: str, summary: str, defaults: dict, func) -> None:
    """A figure command's parser: one ``--key-with-dashes`` flag per key of
    ``defaults``, typed by its default as :func:`_check_config_value` types
    config-file values, then ``--threads`` and ``--config``."""
    parser = sub.add_parser(command, help=summary, description=summary)
    for key, default in defaults.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(default, bool):
            parser.add_argument(flag, dest=key, action="store_true", default=None)
        elif isinstance(default, list):
            parser.add_argument(flag, dest=key, action="append", type=float, help="repeatable")
        else:
            parser.add_argument(flag, dest=key, type=type(default))
    parser.add_argument("--threads", type=_count)
    parser.add_argument("--config", help=f"JSON config file (section '{command}')")
    parser.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qladder",
        description="Entanglement transfer through disordered two-leg ladder chains",
    )
    parser.add_argument("--version", action="version", version=f"qladder {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    _figure_parser(sub, "fig1", "concurrence vs disorder strength sweep", FIG1_DEFAULTS, cmd_fig1)
    fig2_help = "branch occupation traces vs time (--t-max in units of tau)"
    _figure_parser(sub, "fig2", fig2_help, FIG2_DEFAULTS, cmd_fig2)

    oracle = sub.add_parser("oracle", help="validate evolution against the dimer closed form")
    oracle.add_argument("--delta", type=float, default=0.0)
    oracle.add_argument("--gamma", type=float, default=1.0)
    oracle.add_argument("--n-sites", type=int, default=5)
    oracle.add_argument("--t-max", type=float, default=20.0)
    oracle.add_argument("--t-points", type=_count, default=201)
    oracle.set_defaults(func=cmd_oracle)

    baseline = sub.add_parser("baseline", help="ordered-ladder perfect transfer check")
    baseline.add_argument("--n-sites", type=int, default=FIG1_DEFAULTS["n_sites"])
    baseline.add_argument("--exact-revival", action="store_true")
    baseline.set_defaults(func=cmd_baseline)

    dump = sub.add_parser("dump-hamiltonian", help="debug dump of one sampled Hamiltonian")
    dump.add_argument("--n-sites", type=int, default=4)
    dump.add_argument("--w", type=float, default=1.0)
    dump.add_argument("--delta", type=float, default=0.2)
    dump.add_argument("--seed", type=int, default=FIG1_DEFAULTS["seed"])
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
