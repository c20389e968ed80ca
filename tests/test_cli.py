import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qladder
import qladder.experiments
from qladder.cli import THREADS_ENV_VAR, main


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


@pytest.mark.parametrize(
    "section, key, expected",
    [({"delta": 0.2}, "fig1.delta", "a list of numbers"),
     ({"realizations": "3"}, "fig1.realizations", "an integer")],
)
def test_fig1_rejects_mistyped_config_values(tmp_path, capsys, section, key, expected):
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps({"fig1": section}))
    code = main(["fig1", "--config", str(cfg), "--out-dir", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert key in err and expected in err
    assert not (tmp_path / "x").exists()  # rejected before any work


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

def run_fig2(tmp_path, name, t_points="20", extra=()):
    out = tmp_path / name
    code = main(
        [
            "fig2", "--n-sites", "8", "--delta", "0.2", "--w", "0.5", "--w", "5.0",
            "--t-max", "2", "--t-points", t_points, "--realizations", "3",
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


def test_fig2_empty_grid_writes_header_only(tmp_path):
    out = run_fig2(tmp_path, "empty", t_points="0")
    assert (out / "fig2.csv").read_text() == "t_over_tau,w,mean_p_minus,mean_p_plus,std_error,n\n"


def test_fig2_reruns_are_byte_identical_across_threads(tmp_path):
    serial = run_fig2(tmp_path, "serial")
    threaded = run_fig2(tmp_path, "threaded", extra=("--threads", "3"))
    assert read(serial / "fig2.csv") == read(threaded / "fig2.csv")


# ---------------------------------------------------------------------------
# oracle / baseline
# ---------------------------------------------------------------------------

def test_oracle_passes(capsys):
    assert main(["oracle", "--delta", "0", "--gamma", "1", "--n-sites", "5"]) == 0
    assert "max deviation" in capsys.readouterr().out


def test_oracle_decoupled_legs():
    assert main(["oracle", "--gamma", "0", "--delta", "1.5", "--n-sites", "4"]) == 0


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


def test_invalid_flags_exit_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["fig1", "--bogus"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit):
        main([])


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats is most of the start-up time; only the tests' Welch helper needs it
    code = (
        "import sys, qladder.cli\n"
        "qladder.cli.build_parser()\n"
        "print('scipy.stats' in sys.modules)\n"
    )
    src = str(Path(qladder.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout.strip() == "False"


def test_runtime_failure_exits_one(tmp_path, capsys):
    code = main(["fig1", "--n-sites", "1", "--out-dir", str(tmp_path / "bad")])
    assert code == 1
    assert "error" in capsys.readouterr().err
