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


def _reference_seed_check(check: str) -> None:
    # runs run_seed(1, 3) of the reference program, checks both blocks' shapes,
    # then the given lines; in a subprocess: the script sets the BLAS thread
    # variables at import
    code = (
        "import runpy, sys\n"
        "import numpy as np\n"
        "script = runpy.run_path(sys.argv[1])\n"
        "(conc, direct_conc), (p_minus, direct_p_minus) = script['run_seed'](1, 3)\n"
        "assert conc.shape == direct_conc.shape == (4, 3), (conc.shape, direct_conc.shape)\n"
        "assert p_minus.shape == direct_p_minus.shape == (5, 3), p_minus.shape\n"
        + check
    )
    src = str(Path(qladder.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = ROOT / "scripts" / "criteria_reference.py"
    result = subprocess.run([sys.executable, "-c", code, str(script)],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr


def test_criterion5_reference_script_engine_matches_expm():
    # criterion 5's C(tau) points: the first and last of C_POINTS
    _reference_seed_check(
        "assert [script['C_POINTS'][i] for i in (0, 3)] == [(0.2, 0.2), (10.0, 0.2)]\n"
        "deviation = float(np.max(np.abs(conc[[0, 3]] - direct_conc[[0, 3]])))\n"
        "assert deviation <= script['PATH_TOL'], deviation\n"
    )


def test_criteria6_7_reference_script_engine_matches_expm():
    # criterion 6's C(tau) points, the last three of C_POINTS, and the late-window
    # p_- at every W of TRACE_W: criterion 7's two and the 1/W leak's four
    _reference_seed_check(
        "assert script['C_POINTS'][1:] == ((10.0, 0.05), (10.0, 0.1), (10.0, 0.2))\n"
        "deviation = max(float(np.max(np.abs(conc[1:] - direct_conc[1:]))),\n"
        "                float(np.max(np.abs(p_minus - direct_p_minus))))\n"
        "assert deviation <= script['PATH_TOL'], deviation\n"
    )


# 19 lines, 8 of them code: import, def, the string's three lines, return,
# class and y = 1
KNOWN_MODULE = '''\
"""Module docstring
over two lines."""

import os  # a trailing comment leaves a code line


# a comment-only line
def f(x):
    """One-line docstring."""
    text = """a string, not a docstring
# so this line is code
"""
    return x


class C:
    """Docstring."""

    y = 1
'''


def test_code_lines_script_counts_a_known_module(tmp_path):
    module = tmp_path / "known.py"
    module.write_text(KNOWN_MODULE)
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / "code_lines.py"), str(module)],
                            capture_output=True, text=True, timeout=60, check=True)
    assert result.stdout.splitlines()[-1].split() == ["19", "8", "total"]


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
