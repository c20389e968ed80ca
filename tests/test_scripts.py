"""The kept public surface: the validation and figure scripts, the README's
library snippet and the package namespace, which holds only its version."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qladder

ROOT = Path(__file__).resolve().parents[1]


def test_run_validation_script_passes():
    src = str(Path(qladder.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_validation.py")],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.strip().splitlines()[-1] == "all checks passed"


def test_criterion5_reference_script_engine_matches_expm():
    # in a subprocess: the script sets the BLAS thread variables at import
    code = (
        "import runpy, sys\n"
        "import numpy as np\n"
        "script = runpy.run_path(sys.argv[1])\n"
        "engine, direct = script['run_seed'](1, 3)\n"
        "assert engine.shape == direct.shape == (2, 3), (engine.shape, direct.shape)\n"
        "deviation = float(np.max(np.abs(engine - direct)))\n"
        "assert deviation <= script['PATH_TOL'], deviation\n"
    )
    src = str(Path(qladder.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = ROOT / "scripts" / "criterion5_reference.py"
    result = subprocess.run([sys.executable, "-c", code, str(script)],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr


def test_criteria6_7_reference_script_engine_matches_expm():
    # in a subprocess: the script sets the BLAS thread variables at import
    code = (
        "import runpy, sys\n"
        "import numpy as np\n"
        "script = runpy.run_path(sys.argv[1])\n"
        "(saturation, direct_saturation), (leak, direct_leak) = script['run_seed'](1, 3)\n"
        "assert saturation.shape == direct_saturation.shape == (3, 3), saturation.shape\n"
        "assert leak.shape == direct_leak.shape == (2, 3), leak.shape\n"
        "deviation = max(float(np.max(np.abs(saturation - direct_saturation))),\n"
        "                float(np.max(np.abs(leak - direct_leak))))\n"
        "assert deviation <= script['PATH_TOL'], deviation\n"
    )
    src = str(Path(qladder.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = ROOT / "scripts" / "criteria6_7_reference.py"
    result = subprocess.run([sys.executable, "-c", code, str(script)],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr


@pytest.mark.parametrize("figure, size, rows", [("fig1", ["--w-points", "2"], 6),
                                                 ("fig2", ["--t-points", "3"], 15)],
                         ids=["fig1", "fig2"])
def test_figure_scripts_write_where_out_dir_says(tmp_path, figure, size, rows):
    # a forwarded --out-dir wins over the script's own results/<figure>
    src = str(Path(qladder.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "out"
    script = ROOT / "scripts" / f"run_{figure}.py"
    result = subprocess.run([sys.executable, str(script), "--realizations", "2", *size,
                             "--out-dir", str(out)],
                            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    # the header and one row per grid point
    assert len((out / f"{figure}.csv").read_text().splitlines()) == 1 + rows
    assert not (tmp_path / "results").exists()


def test_package_import_leaves_numpy_unloaded():
    # each name has one import path, its module; the package re-exports none
    code = "import sys, qladder\nprint('numpy' in sys.modules)\n"
    src = str(Path(qladder.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout.strip() == "False"


def test_readme_library_snippet_runs_as_written(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(snippet, "README.md", "exec"), {})
    mean, std_error = map(float, capsys.readouterr().out.split())
    assert 0.0 <= mean <= 1.0 and std_error > 0.0
