import ast
import contextlib
import csv
import errno
import hashlib
import io
import json
import os
import stat
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qladder
import qladder.experiments
from qladder.cli import FIG1_DEFAULTS, FIG2_DEFAULTS, THREADS_ENV_VAR, main
from qladder.observables import transfer_time


def read(path):
    return path.read_bytes()


def run_fig1(tmp_path, name, extra=()):
    out = tmp_path / name
    code = main(
        [
            "fig1", "--n-sites", "8", "--delta", "0.2", "--delta", "0.1",
            "--w-points", "3", "--realizations", "4", "--seed", "11",
            "--out-dir", str(out), *extra,
        ]
    )
    assert code == 0
    return out


# ---------------------------------------------------------------------------
# fig1
# ---------------------------------------------------------------------------

def test_fig1_production_defaults():
    # 25 log-spaced W points x 3 detunings x 100 realizations at seed 42
    from qladder.cli import FIG1_DEFAULTS
    from qladder.experiments import default_w_grid

    assert FIG1_DEFAULTS["w_points"] == 25
    assert FIG1_DEFAULTS["delta"] == [0.05, 0.1, 0.2]
    assert FIG1_DEFAULTS["realizations"] == 100
    assert FIG1_DEFAULTS["seed"] == 42
    grid = default_w_grid(FIG1_DEFAULTS["w_min"], FIG1_DEFAULTS["w_max"], FIG1_DEFAULTS["w_points"])
    assert grid.size == 25 and grid[0] == 0.2 and grid[-1] == 10.0


def test_fig1_row_count_and_header(tmp_path):
    out = run_fig1(tmp_path, "a")
    lines = (out / "fig1.csv").read_text().splitlines()
    assert lines[0] == "w,delta,mean_concurrence,std_error,n"
    assert len(lines) == 1 + 2 * 3  # two deltas x three grid points
    assert all(line.endswith(",4") for line in lines[1:])


def test_fig1_single_row(tmp_path):
    out = tmp_path / "single"
    code = main(
        [
            "fig1", "--n-sites", "6", "--delta", "0.2", "--w-points", "1",
            "--realizations", "1", "--out-dir", str(out),
        ]
    )
    assert code == 0
    lines = (out / "fig1.csv").read_text().splitlines()
    assert len(lines) == 2


def test_fig1_reruns_are_byte_identical(tmp_path):
    first = run_fig1(tmp_path, "first")
    second = run_fig1(tmp_path, "second")
    data = read(first / "fig1.csv")
    assert data == read(second / "fig1.csv")
    assert b"\r" not in data  # '\n' endings only


def test_fig1_threads_do_not_change_bytes(tmp_path):
    serial = run_fig1(tmp_path, "serial")
    threaded = run_fig1(tmp_path, "threaded", extra=("--threads", "4"))
    assert read(serial / "fig1.csv") == read(threaded / "fig1.csv")


def test_fig1_manifest_names_and_digests(tmp_path):
    out = run_fig1(tmp_path, "manifested", extra=("--keep-raw",))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "fig1"
    assert manifest["config"]["seed"] == 11
    assert sorted(manifest["outputs"]) == ["fig1.csv", "fig1_raw.csv"]
    for name, digest in manifest["outputs"].items():
        assert hashlib.sha256(read(out / name)).hexdigest() == digest
    raw_lines = (out / "fig1_raw.csv").read_text().splitlines()
    assert len(raw_lines) == 1 + 2 * 3 * 4  # deltas x grid x realizations


def test_fig1_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"fig1": {"w_points": 2, "realizations": 3, "n_sites": 6}}))
    out = tmp_path / "cfg"
    code = main(
        ["fig1", "--delta", "0.1", "--config", str(cfg), "--realizations", "2",
         "--out-dir", str(out)]
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["w_points"] == 2       # from file
    assert manifest["config"]["realizations"] == 2   # flag wins
    lines = (out / "fig1.csv").read_text().splitlines()
    assert len(lines) == 1 + 2


def test_fig1_rejects_unknown_config_keys(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"fig1": {"w_pionts": 2}}))
    code = main(["fig1", "--config", str(cfg), "--out-dir", str(tmp_path / "x")])
    assert code == 1


def test_a_config_file_shared_between_commands_sets_only_its_own_section(tmp_path):
    # a file with only a fig1 section leaves fig2 at its defaults
    cfg = tmp_path / "shared.json"
    cfg.write_text(json.dumps({"fig1": {"w_points": 2}}))
    out = tmp_path / "fig2"
    argv = ["fig2", "--config", str(cfg), "--realizations", "2", "--t-points", "3"]
    assert main([*argv, "--out-dir", str(out)]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    untouched = FIG2_DEFAULTS.keys() - {"realizations", "t_points", "out_dir"}
    assert all(config[key] == FIG2_DEFAULTS[key] for key in untouched)


def test_a_config_key_outside_any_command_section_fails(tmp_path, capsys):
    cfg = tmp_path / "flat.json"
    cfg.write_text(json.dumps({"w_points": 2}))
    code = main(["fig1", "--config", str(cfg), "--out-dir", str(tmp_path / "x")])
    assert code == 1
    assert "unknown config sections: ['w_points']" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()  # rejected before any work


@pytest.mark.parametrize("command, argv", [
    ("fig1", ["--n-sites", "6", "--delta", "0.2", "--w-points", "3", "--realizations", "5",
              "--seed", "9", "--keep-raw"]),
    ("fig2", ["--n-sites", "6", "--w", "0.5", "--w", "4", "--t-points", "4",
              "--realizations", "5", "--seed", "9", "--keep-raw"]),
])
def test_a_manifest_reruns_its_own_run(tmp_path, command, argv):
    # its threads and out_dir are the run's record, not its data: the rerun,
    # at the other thread count and into a fresh directory, writes every
    # output with the digest the manifest holds
    first = tmp_path / "first"
    assert main([command, *argv, "--threads", "1", "--out-dir", str(first)]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    assert sorted(manifest["outputs"]) == [f"{command}.csv", f"{command}_raw.csv"]
    again = tmp_path / "again"
    argv = [command, "--config", str(first / "manifest.json"), "--threads", "2"]
    assert main([*argv, "--out-dir", str(again)]) == 0
    for name, digest in manifest["outputs"].items():
        assert hashlib.sha256(read(again / name)).hexdigest() == digest
    rerun = json.loads((again / "manifest.json").read_text())
    assert rerun["config"] == {**manifest["config"], "threads": 2, "out_dir": str(again)}


def test_a_manifest_keeps_flags_first_and_refuses_another_commands_run(tmp_path, capsys):
    first = tmp_path / "first"
    argv = ["--n-sites", "4", "--w-points", "2", "--realizations", "3"]
    assert main(["fig1", *argv, "--out-dir", str(first)]) == 0
    manifest = str(first / "manifest.json")
    again = tmp_path / "again"
    assert main(["fig1", "--config", manifest, "--seed", "5", "--out-dir", str(again)]) == 0
    config = json.loads((again / "manifest.json").read_text())["config"]
    assert (config["seed"], config["n_sites"], config["realizations"]) == (5, 4, 3)
    code = main(["fig2", "--config", manifest, "--out-dir", str(tmp_path / "x")])
    assert code == 1
    assert "config file is a manifest of 'fig1', not fig2" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()  # rejected before any work


PAST_FLOAT = 10**400  # a JSON integer that no float holds


@pytest.mark.parametrize(
    "section, key, expected",
    [({"delta": 0.2}, "fig1.delta", "a list of numbers"),
     ({"realizations": "3"}, "fig1.realizations", "an integer"),
     ({"w_min": PAST_FLOAT}, "fig1.w_min", "a number"),
     ({"w_max": PAST_FLOAT}, "fig1.w_max", "a number"),
     ({"delta": [0.2, PAST_FLOAT]}, "fig1.delta", "a list of numbers"),
     ({"t_max": PAST_FLOAT}, "fig2.t_max", "a number"),
     ({"w": [PAST_FLOAT]}, "fig2.w", "a list of numbers"),
     ({"delta": -PAST_FLOAT}, "fig2.delta", "a number")],
)
def test_fig1_rejects_mistyped_config_values(tmp_path, capsys, section, key, expected):
    command = key.split(".")[0]
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps({command: section}))
    code = main([command, "--config", str(cfg), "--out-dir", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert key in err and expected in err
    assert not (tmp_path / "x").exists()  # rejected before any work


FIGURE_KEYS = {  # command -> (a non-default value of every key, the flags that set them)
    "fig1": (
        {"n_sites": 4, "delta": [0.3, 0.15], "w_min": 0.5, "w_max": 2.0, "w_points": 2,
         "realizations": 2, "seed": 7, "keep_raw": True},
        ["--n-sites", "4", "--delta", "0.3", "--delta", "0.15", "--w-min", "0.5",
         "--w-max", "2", "--w-points", "2", "--realizations", "2", "--seed", "7", "--keep-raw"],
    ),
    "fig2": (
        {"n_sites": 4, "delta": 0.3, "w": [0.7, 3.0], "t_max": 1.5, "t_points": 3,
         "realizations": 2, "seed": 7, "keep_raw": True},
        ["--n-sites", "4", "--delta", "0.3", "--w", "0.7", "--w", "3", "--t-max", "1.5",
         "--t-points", "3", "--realizations", "2", "--seed", "7", "--keep-raw"],
    ),
}


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["fig1", "fig2"])
def test_every_figure_key_lands_in_the_manifest(tmp_path, command, source):
    defaults = {"fig1": FIG1_DEFAULTS, "fig2": FIG2_DEFAULTS}[command]
    values, flags = FIGURE_KEYS[command]
    out = tmp_path / "out"
    values = {**values, "out_dir": str(out)}
    assert values.keys() == defaults.keys()
    assert all(values[key] != defaults[key] for key in defaults)
    if source == "flag":
        argv = [command, *flags, "--out-dir", str(out)]
    else:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({command: values}))
        argv = [command, "--config", str(cfg)]
    assert main(argv) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert {key: config[key] for key in values} == values
    assert (out / f"{command}_raw.csv").exists()


def test_threads_env_var_is_used(tmp_path, monkeypatch):
    monkeypatch.setenv(THREADS_ENV_VAR, "3")
    out = run_fig1(tmp_path, "env")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["threads"] == 3


@pytest.mark.parametrize("value", ["-3", "0", "two"])
def test_threads_flag_rejects_counts_below_one(tmp_path, capsys, value):
    with pytest.raises(SystemExit) as excinfo:
        main(["fig1", "--threads", value, "--out-dir", str(tmp_path / "x")])
    assert excinfo.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["two", "0", "-1"])
def test_threads_env_var_rejects_counts_below_one(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv(THREADS_ENV_VAR, value)
    code = main(["fig1", "--out-dir", str(tmp_path / "x")])
    assert code == 1
    assert THREADS_ENV_VAR in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fig2
# ---------------------------------------------------------------------------

def run_fig2(tmp_path, name, extra=()):
    out = tmp_path / name
    code = main(
        [
            "fig2", "--n-sites", "8", "--delta", "0.2", "--w", "0.5", "--w", "5.0",
            "--t-max", "2", "--t-points", "20", "--realizations", "3",
            "--seed", "4", "--out-dir", str(out), *extra,
        ]
    )
    assert code == 0
    return out


def test_fig2_row_count_and_probability_sum(tmp_path):
    out = run_fig2(tmp_path, "a")
    lines = (out / "fig2.csv").read_text().splitlines()
    assert lines[0] == "t_over_tau,w,mean_p_minus,mean_p_plus,std_error,n"
    assert len(lines) == 1 + 2 * 20  # |w| x |times|
    for line in lines[1:]:
        fields = line.split(",")
        assert abs(float(fields[2]) + float(fields[3]) - 1.0) < 1e-12


def test_fig2_writes_p_plus_as_the_complement_of_the_mean(tmp_path):
    # p_+ = 1 - p_- is derived from the written mean, with one rounding
    rows = list(csv.DictReader((run_fig2(tmp_path, "a") / "fig2.csv").read_text().splitlines()))
    assert len(rows) == 2 * 20
    for row in rows:
        assert float(row["mean_p_plus"]) == 1.0 - float(row["mean_p_minus"])


@pytest.mark.parametrize("source", ["flag", "config"])
def test_fig2_rejects_an_empty_time_grid(tmp_path, capsys, source):
    if source == "flag":
        argv = ["fig2", "--t-points", "0"]
    else:
        cfg = tmp_path / "empty.json"
        cfg.write_text(json.dumps({"fig2": {"t_points": 0}}))
        argv = ["fig2", "--config", str(cfg)]
    code = main([*argv, "--out-dir", str(tmp_path / "x")])
    assert code == 1
    assert "t_points" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()  # rejected before any work


def test_fig2_rejects_trace_times_that_coincide(tmp_path, capsys):
    # t_max 0 puts all three times at t = 0, which would write each row three times
    code = main(["fig2", "--t-max", "0", "--t-points", "3", "--out-dir", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err == "qladder: error: fig2 t_max must set the trace times apart, got 0.0\n"
    assert not (tmp_path / "x").exists()  # rejected before any work


def test_fig2_takes_one_trace_time_at_t_max_zero(tmp_path):
    out = run_fig2(tmp_path, "a", extra=("--t-max", "0", "--t-points", "1"))
    rows = list(csv.DictReader((out / "fig2.csv").read_text().splitlines()))
    assert [(float(row["t_over_tau"]), float(row["w"])) for row in rows] == [(0.0, 0.5), (0.0, 5.0)]
    assert all(float(row["mean_p_minus"]) == 1.0 for row in rows)  # the Bell start is all minus


@pytest.mark.parametrize("command, key", [("fig1", "delta"), ("fig2", "w")])
def test_figures_reject_an_empty_list_from_a_config_file(tmp_path, capsys, command, key):
    cfg = tmp_path / "empty.json"
    cfg.write_text(json.dumps({command: {key: []}}))
    code = main([command, "--config", str(cfg), "--out-dir", str(tmp_path / "x")])
    assert code == 1
    assert f"{command}.{key}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()  # rejected before any work


def test_fig2_reruns_are_byte_identical_across_threads(tmp_path):
    serial = run_fig2(tmp_path, "serial")
    threaded = run_fig2(tmp_path, "threaded", extra=("--threads", "3"))
    assert read(serial / "fig2.csv") == read(threaded / "fig2.csv")


def test_reruns_fully_replace_longer_stale_outputs(tmp_path):
    fresh = run_fig2(tmp_path, "fresh", extra=("--keep-raw",))
    names = ("fig2.csv", "fig2_raw.csv", "manifest.json")
    stale = tmp_path / "stale"
    stale.mkdir()
    for name in names:  # longer than the new output, so a leftover tail would show
        (stale / name).write_bytes(b"9" * (len(read(fresh / name)) + 4096))
    run_fig2(tmp_path, "stale", extra=("--keep-raw",))
    for name in names[:2]:
        assert read(stale / name) == read(fresh / name)
    digests = [json.loads((out / "manifest.json").read_text())["outputs"] for out in (fresh, stale)]
    assert digests[0] == digests[1]
    for name in names[:2]:
        assert digests[1][name] == hashlib.sha256(read(stale / name)).hexdigest()


# ---------------------------------------------------------------------------
# oracle / baseline
# ---------------------------------------------------------------------------

def test_oracle_passes(capsys):
    assert main(["oracle", "--delta", "0", "--gamma", "1", "--n-sites", "5"]) == 0
    assert "max deviation" in capsys.readouterr().out


def test_oracle_decoupled_legs():
    assert main(["oracle", "--gamma", "0", "--delta", "1.5", "--n-sites", "4"]) == 0


@pytest.mark.parametrize("value", ["0", "-2"])
def test_oracle_rejects_an_empty_time_grid(capsys, value):
    with pytest.raises(SystemExit) as excinfo:
        main(["oracle", "--t-points", value])
    assert excinfo.value.code == 2
    assert "--t-points" in capsys.readouterr().err


def test_oracle_flags_corrupted_formula(monkeypatch):
    # negative control: a wrong closed form must be caught
    genuine = qladder.experiments.uniform_leg_occupation

    def corrupted(delta, gamma, t):
        return genuine(delta, gamma, np.asarray(t) * 1.001)

    monkeypatch.setattr(qladder.experiments, "uniform_leg_occupation", corrupted)
    assert main(["oracle", "--delta", "0", "--gamma", "1", "--n-sites", "5"]) == 1


def test_baseline_even_and_odd(capsys):
    assert main(["baseline", "--n-sites", "30"]) == 0
    assert main(["baseline", "--n-sites", "2"]) == 0
    assert main(["baseline", "--n-sites", "3", "--exact-revival"]) == 0
    assert "C(tau)" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# dump + error paths
# ---------------------------------------------------------------------------

def test_dump_hamiltonian_triplets(tmp_path):
    out = tmp_path / "h.csv"
    code = main(
        ["dump-hamiltonian", "--n-sites", "3", "--w", "1.0", "--delta", "0.2",
         "--seed", "1", "--index", "0", "--basis", "physical", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "row,col,value"
    entries = {(int(r), int(c)): float(v) for r, c, v in (ln.split(",") for ln in lines[1:])}
    for (r, c), value in entries.items():
        assert entries[(c, r)] == value  # symmetric
    assert (0, 2) in entries  # intra-leg hopping
    assert (0, 1) in entries  # rung coupling


DUMP_ARGV = ["dump-hamiltonian", "--n-sites", "3", "--seed", "1", "--basis", "effective", "--out"]


def test_dump_hamiltonian_replaces_a_longer_file(tmp_path):
    fresh, stale = tmp_path / "fresh.csv", tmp_path / "stale.csv"
    assert main([*DUMP_ARGV, str(fresh)]) == 0
    stale.write_bytes(b"9" * (len(read(fresh)) + 4096))
    assert main([*DUMP_ARGV, str(stale)]) == 0
    assert read(stale) == read(fresh)


def test_reruns_write_through_a_symlinked_output(tmp_path):
    fresh = run_fig2(tmp_path, "fresh")
    linked = tmp_path / "linked"
    linked.mkdir()
    target = tmp_path / "kept.csv"
    target.write_bytes(b"9" * (len(read(fresh / "fig2.csv")) + 4096))
    (linked / "fig2.csv").symlink_to(target)
    run_fig2(tmp_path, "linked")
    assert (linked / "fig2.csv").is_symlink()
    assert read(target) == read(fresh / "fig2.csv")


def test_dump_hamiltonian_writes_into_a_fifo(tmp_path):
    fresh, fifo = tmp_path / "fresh.csv", tmp_path / "pipe"
    assert main([*DUMP_ARGV, str(fresh)]) == 0
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        assert main([*DUMP_ARGV, str(fifo)]) == 0
    finally:
        reader.join(timeout=30)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert received == [read(fresh)]


def test_outputs_are_rewritten_in_place_when_unlink_is_refused(tmp_path, monkeypatch):
    # a writable file in a directory the user may not write to
    fresh, stale = tmp_path / "fresh.csv", tmp_path / "stale.csv"
    assert main([*DUMP_ARGV, str(fresh)]) == 0
    stale.write_bytes(b"9" * (len(read(fresh)) + 4096))

    def refuse(path, *args, **kwargs):
        raise PermissionError(errno.EACCES, "Permission denied", str(path))

    monkeypatch.setattr(os, "unlink", refuse)
    assert main([*DUMP_ARGV, str(stale)]) == 0
    assert read(stale) == read(fresh)


def test_invalid_flags_exit_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["fig1", "--bogus"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit):
        main([])


def test_cli_starts_without_numpy_scipy_or_the_compute_modules(tmp_path):
    # import, parsing and config resolution use only the stdlib and __version__;
    # numpy and the compute modules load inside the command that computes
    code = (
        "import json, sys\n"
        "from qladder.cli import build_parser, main\n"
        "build_parser()\n"
        "argv = json.loads(sys.argv[1])\n"
        "try:\n"
        "    status = main(argv) if argv else 0\n"
        "except SystemExit as exc:\n"
        "    status = exc.code\n"
        "loaded = [name for name in sys.modules if name.split('.')[0] in ('numpy', 'scipy')\n"
        "          or name.startswith('qladder.') and name != 'qladder.cli']\n"
        "print(json.dumps([status, sorted(loaded)]))\n"
    )
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"fig1": {"bogus": 1}}))
    starts = [([], 0), (["--version"], 0), (["fig1", "--bogus"], 2),
              (["fig1", "--config", str(config)], 1)]
    src = str(Path(qladder.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for argv, expected in starts:
        result = subprocess.run([sys.executable, "-c", code, json.dumps(argv)], env=env,
                                capture_output=True, text=True, timeout=60, check=True)
        status, loaded = json.loads(result.stdout.strip().splitlines()[-1])
        assert (status, loaded) == (expected, []), argv


def test_cli_start_up_leaves_the_manifest_and_config_modules_unloaded(tmp_path):
    # hashlib, json, datetime and pathlib are imported by the figure commands,
    # which write the manifest and read --config. -S keeps site's .pth imports
    # out, and the child imports only sys before it checks
    deferred = ("hashlib", "_hashlib", "json", "_json", "datetime", "_datetime", "pathlib",
                "numpy", "scipy")
    code = (
        "import sys\n"
        "from qladder.cli import build_parser, main\n"
        "build_parser()\n"
        "try:\n"
        "    status = main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    status = exc.code\n"
        f"loaded = [name for name in sys.modules if name.split('.')[0] in {deferred!r}\n"
        "          or name.startswith('qladder.') and name != 'qladder.cli']\n"
        "print(repr((status, sorted(loaded))))\n"
    )
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"fig1": {"bogus": 1}}))
    starts = [([], 2), (["--version"], 0), (["fig1", "--bogus"], 2),
              (["fig1", "--config", str(config)], 1)]
    src = str(Path(qladder.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    for argv, expected in starts:
        result = subprocess.run([sys.executable, "-S", "-c", code, *argv], env=env,
                                capture_output=True, text=True, timeout=60, check=True)
        status, loaded = ast.literal_eval(result.stdout.strip().splitlines()[-1])
        assert status == expected, argv
        if "--config" in argv:  # a figure command imports its output modules before it resolves
            assert "json" in loaded and not any(name.startswith(("numpy", "scipy", "qladder."))
                                                for name in loaded)
        else:
            assert loaded == [], argv


def test_fig1_and_fig2_leave_scipy_linalg_unloaded(tmp_path):
    # importing scipy.linalg adds about 28 MB of peak memory and 0.14 s to a run
    code = (
        "import sys\n"
        "from qladder.cli import main\n"
        "out = sys.argv[1]\n"
        "assert main(['fig1', '--n-sites', '4', '--w-points', '2', '--realizations', '2',\n"
        "             '--out-dir', out]) == 0\n"
        "assert main(['fig2', '--n-sites', '4', '--w', '1', '--t-points', '3',\n"
        "             '--realizations', '2', '--out-dir', out]) == 0\n"
        "print('scipy.linalg' in sys.modules)\n"
    )
    src = str(Path(qladder.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                            capture_output=True, text=True, timeout=60, check=True)
    assert result.stdout.strip().splitlines()[-1] == "False"


def _warm_run_faults(tmp_path, order, argv):
    """Minor page faults of the second of two in-process ``main(argv)`` runs,
    with the CLI imported first or after every other qladder module."""
    code = (
        "import importlib, json, pkgutil, resource, sys\n"
        "import qladder\n"
        "if sys.argv[1] == 'every-module-first':\n"
        "    names = sorted((m.name for m in pkgutil.iter_modules(qladder.__path__)),\n"
        "                   key=lambda name: name == 'cli')\n"
        "    for name in names:\n"
        "        importlib.import_module('qladder.' + name)\n"
        "from qladder.cli import main\n"
        "argv = json.loads(sys.argv[2]) + ['--out-dir', sys.argv[3]]\n"
        "assert main(argv) == 0\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "assert main(argv) == 0\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    src = str(Path(qladder.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", code, order, json.dumps(argv), str(tmp_path)],
                            env=env, capture_output=True, text=True, timeout=60, check=True)
    return int(result.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("order", ["cli-first", "every-module-first"])
def test_a_warm_fig1_run_takes_few_minor_faults(tmp_path, order):
    # every chunk frees and reallocates its arrays; run on the main thread,
    # whose heap top glibc can trim after each chunk, depending on what the
    # imports left above it, they took about 4,400 faults for these 60
    # chunks, where a pool worker's heap keeps them: about a dozen
    argv = ["fig1", "--realizations", "100", "--w-points", "1"]
    assert _warm_run_faults(tmp_path, order, argv) < 1_000


@pytest.mark.parametrize("order", ["cli-first", "every-module-first"])
def test_a_warm_fig2_run_takes_few_minor_faults(tmp_path, order):
    # diagonalize returns the eigenvectors as a transposed view of the buffer
    # LAPACK wrote; a contiguous copy of that (5, 60, 60) stack took about
    # 8,100 faults for these 20 chunks, and the view about 20
    argv = ["fig2", "--realizations", "100", "--w", "10"]
    assert _warm_run_faults(tmp_path, order, argv) < 1_000


@pytest.mark.parametrize(
    "argv, field",
    [(["fig1", "--w-min", "nan"], "disorder_w"),
     (["fig2", "--w", "nan"], "disorder_w"),
     (["fig2", "--delta", "inf"], "detuning_delta"),
     (["fig2", "--t-max", "nan"], "t_max"),
     (["fig1", "--seed", "-1"], "master_seed"),
     (["fig1", "--w-points", "0"], "w_points"),
     (["fig1", "--w-min", "0"], "w_min"),
     (["fig1", "--w-min", "-1"], "w_min"),
     (["fig1", "--w-max", "inf"], "w_max"),
     (["fig1", "--delta", "1e308"], "detuning_delta"),
     (["fig2", "--w", "1e308"], "disorder_w")],
    ids=["fig1-w-min-nan", "fig2-w-nan", "fig2-delta-inf", "fig2-t-max-nan", "fig1-seed-negative",
         "fig1-w-points-zero", "fig1-w-min-zero", "fig1-w-min-negative", "fig1-w-max-inf",
         "fig1-delta-overflowing-range", "fig2-w-overflowing-range"],
)
def test_bad_numbers_are_blamed_on_their_field(tmp_path, capsys, argv, field):
    code = main([*argv, "--n-sites", "4", "--realizations", "2", "--out-dir", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert field in err
    assert "realization" not in err


@pytest.mark.parametrize(
    "argv, field",
    [(["fig1", "--w-points", "3", "--delta", "0.05", "--delta", "nan"], "detuning_delta"),
     (["fig1", "--w-points", "3", "--w-max", "nan"], "disorder_w"),
     (["fig2", "--w", "1", "--w", "nan"], "disorder_w"),
     (["fig1", "--w-points", "3", "--delta", "0.1", "--delta", "0.1"],
      "delta values must be distinct, got 0.1 twice"),
     (["fig2", "--w", "1", "--w", "2", "--w", "1"], "w values must be distinct, got 1.0 twice"),
     (["fig1", "--w-min", "2", "--w-max", "2"], "w_min and w_max must differ for w_points > 1, both are 2.0")],
    ids=["fig1-second-delta-nan", "fig1-w-max-nan", "fig2-second-w-nan",
         "fig1-repeated-delta", "fig2-repeated-w", "fig1-flat-w-grid"],
)
def test_a_bad_later_grid_point_fails_before_any_ensemble_runs(
    tmp_path, capsys, monkeypatch, argv, field
):
    calls = []
    genuine = qladder.experiments.run_ensemble

    def counted(*args, **kwargs):
        calls.append(args)
        return genuine(*args, **kwargs)

    monkeypatch.setattr(qladder.experiments, "run_ensemble", counted)
    code = main([*argv, "--n-sites", "4", "--realizations", "2", "--out-dir", str(tmp_path / "x")])
    assert code == 1
    assert field in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["fig1", "fig2"])
@pytest.mark.parametrize(
    "flag, value, key, old_text",
    [("--n-sites", "1", "n_sites", "need at least"),
     ("--realizations", "0", "realizations", "n_realizations")],
    ids=["n-sites-one", "realizations-zero"],
)
def test_counts_are_blamed_on_their_key(
    tmp_path, capsys, monkeypatch, command, flag, value, key, old_text
):
    calls = []
    monkeypatch.setattr(qladder.experiments, "run_ensemble", lambda *a, **k: calls.append(a))
    code = main([command, flag, value, "--out-dir", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{key} must be at least" in err
    assert old_text not in err
    assert calls == []
    assert not (tmp_path / "x").exists()


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


@pytest.mark.parametrize("command", ["fig1", "fig2"])
def test_default_figures_match_the_stored_reference(tmp_path, command):
    # the seed-42 production-default CSV against the one stored with the
    # benchmark: same header, rows and n column, every value within 1e-13
    assert main([command, "--out-dir", str(tmp_path)]) == 0
    ours = (tmp_path / f"{command}.csv").read_text().splitlines()
    stored = (REFERENCE / f"{command}.csv").read_text().splitlines()
    assert ours[0] == stored[0] and ours[0].endswith(",n")
    assert len(ours) == len(stored)
    for line, reference in zip(ours[1:], stored[1:]):
        *values, n = line.split(",")
        *expected, n_expected = reference.split(",")
        assert n == n_expected
        assert np.max(np.abs(np.array(values, float) - np.array(expected, float))) <= 1e-13


@pytest.mark.parametrize(
    "argv, field",
    [(["oracle", "--t-max", "nan"], "oracle t_max"),
     (["oracle", "--delta", "nan"], "delta"),
     (["oracle", "--gamma", "inf"], "gamma"),
     (["dump-hamiltonian", "--seed", "-1"], "master_seed"),
     (["dump-hamiltonian", "--w", "1e308"], "disorder_w")],
    ids=["oracle-t-max-nan", "oracle-delta-nan", "oracle-gamma-inf", "dump-seed-negative",
         "dump-w-overflowing-range"],
)
def test_oracle_and_dump_numbers_are_blamed_on_their_field(capsys, argv, field):
    assert main(argv) == 1
    assert f"error: {field} must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, source",
    [(command, "flag") for command in ("fig1", "fig2", "oracle", "baseline", "dump-hamiltonian")]
    + [("fig1", "config"), ("fig2", "config")],
)
def test_a_huge_n_sites_is_blamed_on_its_key(tmp_path, capsys, command, source):
    # past the bound where (2N)^2 overflows np.intp, so if the check ever went
    # numpy would refuse the sizes at once; a value under it could allocate gigabytes
    huge = 99999999999999999999
    if source == "config":
        config = tmp_path / "run.json"
        config.write_text(json.dumps({command: {"n_sites": huge}}))
        argv = [command, "--config", str(config)]
    else:
        argv = [command, "--n-sites", str(huge)]
    if command in ("fig1", "fig2"):
        argv += ["--out-dir", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("qladder: error: ") and "n_sites" in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def _fresh_cli(argv):
    """``main(argv)`` in a fresh interpreter, where a warning is printed, not raised."""
    code = "import sys\nfrom qladder.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    src = str(Path(qladder.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize(
    "argv",
    [["fig2", "--t-max", "-1"], ["fig2", "--t-max", "nan"], ["fig2", "--t-max", "inf"],
     ["fig2", "--t-max", "-1", "--t-points", "1"],
     ["fig2", "--t-max", "8e307"], ["fig2", "--t-max", "1.7e308"],
     ["oracle", "--t-max", "-5"], ["oracle", "--t-max", "nan"], ["oracle", "--t-max", "inf"]],
    ids=["fig2-negative", "fig2-nan", "fig2-inf", "fig2-negative-one-point", "fig2-8e307-tau",
         "fig2-1.7e308-tau", "oracle-negative", "oracle-nan", "oracle-inf"],
)
def test_a_bad_t_max_is_blamed_on_its_key(tmp_path, argv):
    # refused before the time grid is built, so numpy warns of nothing; fig2's
    # t_max is in units of tau, and a finite one times tau can overflow
    out = ["--out-dir", str(tmp_path / "x")] if argv[0] == "fig2" else []
    result = _fresh_cli([*argv, *out])
    assert result.returncode == 1
    t_max = float(argv[2])
    if 0 <= t_max < float("inf"):
        tau = transfer_time(FIG2_DEFAULTS["n_sites"])
        message = f"fig2 t_max * tau must be finite, got {t_max} at tau = {tau}"
    else:
        message = f"{argv[0]} t_max must be finite and nonnegative, got {t_max}"
    assert result.stderr == f"qladder: error: {message}\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "argv, where",
    [(["fig1", "--w-min", "1e307", "--w-points", "1", "--realizations", "5"],
      "realization 0 (seed tag 42:0, W=1e+307, delta=0.05, N=30) failed: "),
     (["fig2", "--w", "1", "--delta", "8e307", "--realizations", "5", "--t-points", "3"],
      "realization 0 (seed tag 42:0, W=1.0, delta=8e+307, N=30) failed: "),
     (["oracle", "--delta", "1e307"], "dimer oracle at delta=1e+307, gamma=1.0, N=5: ")],
    ids=["fig1-w-1e307", "fig2-delta-8e307", "oracle-delta-1e307"],
)
def test_an_overflowing_phase_is_one_error_line(tmp_path, argv, where):
    # L t past the float range is refused by name before cos and sin see
    # it, and a drift bound past it is inf: numpy warns of nothing
    out = ["--out-dir", str(tmp_path)] if argv[0] != "oracle" else []
    result = _fresh_cli([*argv, *out])
    assert result.returncode == 1
    assert result.stderr.startswith(f"qladder: error: {where}phase L t overflows: |L| ")
    assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n")


@pytest.mark.parametrize(
    "argv",
    [["fig2", "--w", "8e307", "--delta", "8e307", "--realizations", "5", "--t-points", "3"],
     ["fig1", "--w-min", "8e307", "--w-points", "1", "--delta", "8e307", "--realizations", "5"]],
    ids=["fig2-w-delta-8e307", "fig1-w-delta-8e307"],
)
def test_an_overflowing_entry_is_one_error_line(tmp_path, argv):
    # 2W + Delta/2 past the float range makes a +/- entry inf, which the
    # finiteness check refuses: numpy warns of nothing
    result = _fresh_cli([*argv, "--out-dir", str(tmp_path)])
    assert result.returncode == 1
    assert result.stderr == ("qladder: error: realization 0 (seed tag 42:0, W=8e+307, "
                             "delta=8e+307, N=30) failed: entries contain non-finite values\n")


@pytest.mark.parametrize(
    "argv, message",
    [(["fig1", "--n-sites", "4", "--realizations", "3", "--w-points", "2",
       "--w-max", "1.7976931348623157e308"],
      "w_max must be positive with 2*w_max finite, got 1.7976931348623157e+308"),
     (["oracle", "--n-sites", "30", "--t-points", "3", "--delta", "1.7976931348623157e308"],
      "dimer oracle at delta=1.7976931348623157e+308, gamma=1.0, N=30: "
      "energy drift bound nan exceeds 1e-09"),
     (["oracle", "--n-sites", "30", "--t-points", "3", "--gamma", "1e300"],
      "dimer oracle at delta=0.0, gamma=1e+300, N=30: energy drift 1.963e+283 exceeds 1e-09")],
    ids=["fig1-w-max-max-float", "oracle-delta-max-float", "oracle-gamma-1e300"],
)
def test_an_overflowing_input_is_one_error_line(tmp_path, argv, message):
    # geomspace's power overflows past w_max = max float / 2, and the drift
    # bounds' products past the float range: refused by name, no numpy
    # warning; an oracle failure names the dimer's parameters
    out = ["--out-dir", str(tmp_path)] if argv[0] == "fig1" else []
    result = _fresh_cli([*argv, *out])
    assert result.returncode == 1
    assert result.stderr == f"qladder: error: {message}\n"


# the numeric flags of each command the contract property draws from, after
# a base that keeps every run small
_CONTRACT_FLAGS = {
    "fig1": (["--realizations", "3", "--w-points", "2"],
             ["--delta", "--w-min", "--w-max", "--w-points", "--realizations", "--seed"]),
    "fig2": (["--realizations", "3", "--t-points", "3"],
             ["--delta", "--w", "--t-max", "--t-points", "--realizations", "--seed"]),
    "oracle": (["--t-points", "3"], ["--delta", "--gamma", "--t-max", "--t-points"]),
    "dump-hamiltonian": ([], ["--w", "--delta", "--seed", "--index"]),
}
_CONTRACT_MAGNITUDES = [5e-324, 1e-300, 1.0, 1e300, 1e306, 8e307, 1.7976931348623157e308,
                        float("inf"), float("nan"), -1.0]


@settings(max_examples=200, deadline=None)
@given(command_flag=st.sampled_from([(command, flag) for command, (_, flags)
                                     in _CONTRACT_FLAGS.items() for flag in flags]),
       magnitude=st.sampled_from(_CONTRACT_MAGNITUDES), n_sites=st.sampled_from([4, 30]))
def test_every_extreme_number_keeps_the_input_contract(command_flag, magnitude, n_sites):
    # exit 0 in silence, exit 1 with one error line (or oracle's result
    # line), or argparse's exit 2, and never a numpy warning: under the
    # suite's warnings-as-errors one would become the error line and hide it
    command, flag = command_flag
    base = _CONTRACT_FLAGS[command][0]
    value = str(int(magnitude)) if magnitude in (1.0, -1.0) else repr(magnitude)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        argv = [command, "--n-sites", str(n_sites), *base, flag, value]
        if command.startswith("fig"):
            argv += ["--out-dir", tmp]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert not caught, [str(warning.message) for warning in caught]
    if code == 0:
        assert err.getvalue() == ""
    elif code == 1 and not err.getvalue():
        assert command == "oracle" and out.getvalue().startswith("max deviation ")
    elif code == 1:
        assert err.getvalue().startswith("qladder: error: ") and err.getvalue().count("\n") == 1
    else:
        assert code == 2


@pytest.mark.parametrize(
    "argv",
    [["fig1", "--w-min", "1e5", "--w-points", "1"],
     ["fig2", "--w", "1e5"],
     ["fig1", "--w-min", "1e6", "--w-points", "1", "--realizations", "10"],
     ["fig2", "--w", "1e6", "--realizations", "10"],
     ["oracle", "--delta", "1e100"],
     ["oracle", "--n-sites", "1", "--delta", "0.7", "--gamma", "464159"],
     ["oracle", "--n-sites", "10", "--delta", "1e100", "--gamma", "2e6"]],
    ids=["fig1-w-1e5", "fig2-w-1e5", "fig1-w-1e6", "fig2-w-1e6", "oracle-delta", "oracle-dimer",
         "oracle-delta-1e100-gamma"],
)
def test_large_scales_run_where_the_drift_is_measured_within_tolerance(tmp_path, argv):
    # each of these puts a drift bound over its tolerance by the rounding of
    # a large H alone; the drift measured along the evolved states is within
    # (at delta 1e100 and gamma 2e6 dense eigh's eigenvectors measured 1.401e+55)
    out = ["--out-dir", str(tmp_path)] if argv[0] != "oracle" else []
    assert main([*argv, *out]) == 0


@pytest.mark.parametrize(
    "argv, message",
    [(["fig2", "--w", "1e7", "--realizations", "5"],
      "realization 0 (seed tag 42:0, W=10000000.0, delta=0.2, N=30) failed: "
      "energy drift 7.642e-09 exceeds 1e-09"),
     (["oracle", "--gamma", "3e6"],
      "error: dimer oracle at delta=0.0, gamma=3000000.0, N=5: "
      "energy drift 1.210e-09 exceeds 1e-09"),
     (["oracle", "--n-sites", "10", "--delta", "1e3", "--gamma", "5e6"],
      "error: dimer oracle at delta=1000.0, gamma=5000000.0, N=10: "
      "energy drift 7.916e-09 exceeds 1e-09")],
    ids=["fig2-w-1e7", "oracle-gamma", "oracle-delta-gamma"],
)
def test_a_measured_drift_over_tolerance_fails(tmp_path, capsys, argv, message):
    # the ensemble engine and the evolve_series path of oracle measure the
    # same energy drift against the same tolerance, and both refuse it
    out = ["--out-dir", str(tmp_path)] if argv[0] != "oracle" else []
    assert main([*argv, *out]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, path", [
    (["fig1", "--w-points", "1"], "chebyshev"),  # W = 0.2, the default grid's lowest point
    (["fig1", "--w-min", "1e5", "--w-points", "1"], "eigen"),
], ids=["w-0.2", "w-1e5"])
def test_fig1_takes_the_path_its_switch_rule_chooses(tmp_path, monkeypatch, argv, path):
    import qladder.ensemble as ensemble

    readouts, matrices = [], []
    chebyshev, diagonalize = ensemble._chebyshev_concurrence, ensemble.diagonalize
    monkeypatch.setattr(ensemble, "_chebyshev_concurrence",
                        lambda *args: readouts.append(args) or chebyshev(*args))
    monkeypatch.setattr(ensemble, "diagonalize",
                        lambda band: matrices.append(band[0].shape[1]) or diagonalize(band))
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0
    if path == "chebyshev":  # the three points share one stack, audited in one eigen call
        assert len(readouts) == 1 and matrices == [3]
    else:
        assert not readouts and sum(matrices) == 3 * FIG1_DEFAULTS["realizations"]


def test_runtime_failure_exits_one(tmp_path, capsys):
    code = main(["fig1", "--n-sites", "1", "--out-dir", str(tmp_path / "bad")])
    assert code == 1
    assert "error" in capsys.readouterr().err
