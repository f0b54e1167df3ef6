"""The BLAS thread policy: a CLI process loads numpy's OpenBLAS on one thread,
a library process keeps OpenBLAS's own count, and no output depends on it.

Every case runs in a fresh interpreter, since OpenBLAS reads its thread count
once, when numpy loads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lontraj import experiments

SRC = Path(experiments.__file__).resolve().parents[1]
ROOT = SRC.parent

pytestmark = pytest.mark.skipif(
    experiments._openblas_threads() is None or not Path("/proc/self/task").is_dir(),
    reason="needs numpy's bundled OpenBLAS and /proc/self/task",
)

# Imports the given modules, then prints the process's OS threads, OpenBLAS
# threads and thread-count variables as JSON.
_PROBE = """
import json, os, sys
exec(sys.argv[1])
from lontraj import experiments
get, _ = experiments._openblas_threads()
print(json.dumps({
    "os_threads": len(os.listdir("/proc/self/task")),
    "blas_threads": get(),
    "thread_vars": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
}))
"""


def _env(**thread_vars) -> dict:
    # The test's environment with lontraj on the path and only the given
    # thread-count variables.
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    return {**env, "PYTHONPATH": str(SRC), **thread_vars}


def _probe(code: str, **thread_vars) -> dict:
    argv = [sys.executable, "-c", _PROBE, code]
    done = subprocess.run(argv, env=_env(**thread_vars), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _default_blas_threads() -> int:
    return _probe("import numpy")["blas_threads"]


def test_a_cli_process_starts_openblas_on_one_thread():
    assert _probe("import lontraj.cli") == {
        "os_threads": 1, "blas_threads": 1, "thread_vars": {"OPENBLAS_NUM_THREADS": "1"}
    }


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="OpenBLAS caps its count at the cores")
def test_a_user_s_openblas_setting_wins_in_a_cli_process():
    probe = _probe("import lontraj.cli", OPENBLAS_NUM_THREADS="2")
    assert probe["blas_threads"] == 2
    assert probe["thread_vars"] == {"OPENBLAS_NUM_THREADS": "2"}


def test_the_library_leaves_the_environment_and_openblas_as_they_were():
    code = "import lontraj\nimport numpy as np\nlontraj.haar_unitary(4, np.random.default_rng(0))"
    probe = _probe(code)
    assert probe["thread_vars"] == {}
    assert probe["blas_threads"] == _default_blas_threads()


def test_the_cli_leaves_a_process_that_loaded_numpy_first_as_it_was():
    probe = _probe("import numpy\nimport lontraj.cli")
    assert probe["thread_vars"] == {}
    assert probe["blas_threads"] == _default_blas_threads()
    # The benchmark's environment record imports numpy, then the CLI; with
    # no thread-count variable in it, bench/run.py prints no thread warning.
    argv = [sys.executable, str(ROOT / "bench" / "launch.py"), "--env"]
    done = subprocess.run(argv, env=_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["thread_vars"] == {}


@pytest.mark.parametrize(
    "args",
    [
        # outcome_law's products run outside the sampling's pin.
        ["--mode", "distribution", "--n", "6", "--m", "6", "--unitary", "haar"],
        ["--mode", "entropy-grid", "--n", "10", "--m", "10", "--unitary", "brickwall:4"],
    ],
    ids=lambda args: args[1],
)
def test_no_cli_output_depends_on_the_blas_thread_count(tmp_path, args):
    runs = {}
    for blas in ("1", "2"):
        for threads in ("1", "2"):
            out = tmp_path / f"blas{blas}-t{threads}" / "out.dat"
            argv = [sys.executable, "-m", "lontraj.cli", *args, "--samples", "300", "--seed", "5",
                    "--threads", threads, "--output", str(out)]
            env = _env(OPENBLAS_NUM_THREADS=blas)
            done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            manifest = out.with_name("out.dat.manifest.json")
            runs[blas, threads] = out.read_bytes(), manifest.read_bytes()
    assert len(set(runs.values())) == 1
