import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import numpy as np
import pytest

from lontraj import experiments, trajectory, unitary
from lontraj.cli import MODES, RunConfig, _build_parser, execute, main, parse_config
from lontraj.experiments import UnitarySource, derive_rng
from lontraj.trajectory import sample_click_sequence
from lontraj.unitary import beamsplitter_unitary, check_unitary, unitary_to_json

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def balanced_splitter_file(tmp_path) -> str:
    u = beamsplitter_unitary(INV_SQRT2, INV_SQRT2, np.pi)
    path = tmp_path / "bs5050.json"
    path.write_text(unitary_to_json(u))
    return str(path)


def test_parse_config_distribution_flags():
    config = parse_config(
        "--mode distribution --n 7 --m 4 --unitary haar --samples 10000 --seed 42".split()
    )
    assert config.mode == "distribution"
    assert (config.settings["n"], config.settings["m"]) == (7, 4)
    assert config.settings["unitary"] == "haar"
    assert config.settings["samples"] == 10000
    assert config.seed == 42
    assert config.output.name == "distribution.csv"


def test_parse_config_requires_seed():
    with pytest.raises(ValueError, match="seed"):
        parse_config("--mode distribution --n 2 --m 2 --unitary haar".split())


def test_parse_config_rejects_unknown_file_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("mode = distribution\nbogus = 1\n")
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config(["--config", str(path)])


def test_parse_config_flags_override_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "mode = entropy-grid\n"
        "n = 2\n"
        "m = 2\n"
        "unitary = haar\n"
        "seed = 1\n"
        "samples = 10\n"
    )
    config = parse_config(["--config", str(path), "--samples", "25", "--seed", "9"])
    assert config.mode == "entropy-grid"
    assert config.settings["samples"] == 25
    assert config.seed == 9
    assert config.settings["unitary"] == "haar"


def test_parse_config_validates_ranges():
    with pytest.raises(ValueError, match="--m"):
        parse_config("--mode distribution --n 2 --m 3 --seed 1".split())
    with pytest.raises(ValueError, match="--samples"):
        parse_config("--mode distribution --n 2 --m 2 --seed 1 --samples 0".split())
    with pytest.raises(ValueError, match="--point"):
        parse_config("--mode scaling-sweep --seed 1".split())


def test_execute_distribution_with_file_unitary(tmp_path, capsys):
    config = parse_config(
        [
            "--mode", "distribution",
            "--n", "2",
            "--m", "2",
            "--unitary", f"file:{balanced_splitter_file(tmp_path)}",
            "--samples", "500",
            "--seed", "11",
            "--output", str(tmp_path / "dist.csv"),
            "--threads", "1",
        ]
    )
    assert execute(config) == 0
    lines = (tmp_path / "dist.csv").read_text().strip().splitlines()
    assert lines[0] == "outcome,exact,empirical,stderr"
    assert len(lines) == 4
    coincidence = [line for line in lines if line.startswith("1 1,")]
    assert coincidence and coincidence[0].split(",")[1] == "0.0"
    manifest = json.loads((tmp_path / "dist.csv.manifest.json").read_text())
    assert manifest["config"]["seed"] == 11
    assert manifest["outputs"] == ["dist.csv"]
    assert "threads" not in manifest["config"]
    assert "tvd=" in capsys.readouterr().out


def test_execute_dump_unitary_brickwall(tmp_path):
    config = parse_config(
        [
            "--mode", "dump-unitary",
            "--n", "6",
            "--unitary", "brickwall:1",
            "--seed", "3",
            "--output", str(tmp_path / "u.json"),
        ]
    )
    assert execute(config) == 0
    obj = json.loads((tmp_path / "u.json").read_text())
    u = np.array([complex(re, im) for re, im in obj["entries"]]).reshape(6, 6)
    check_unitary(u)
    rows, cols = np.indices(u.shape)
    assert np.all(u[np.abs(rows - cols) >= 2] == 0.0)


def test_entropy_grid_from_config_file_reproduces_hom(tmp_path):
    unitary_path = balanced_splitter_file(tmp_path)
    config_path = tmp_path / "hom.cfg"
    config_path.write_text(
        "mode = entropy-grid\n"
        "n = 2\n"
        "m = 2\n"
        f"unitary = file:{unitary_path}\n"
        "samples = 64\n"
        "seed = 7\n"
        f"output = {tmp_path / 'hom.csv'}\n"
        "threads = 1\n"
    )
    assert execute(parse_config(["--config", str(config_path)])) == 0
    rows = (tmp_path / "hom.csv").read_text().strip().splitlines()[1:]
    by_k = {line.split(",")[0]: float(line.split(",")[2]) for line in rows}
    assert by_k["0"] == 0.0
    assert by_k["2"] == 0.0
    assert abs(by_k["1"] - np.log(2.0)) < 1e-12


def test_execute_entropy_grid(tmp_path):
    config = parse_config(
        [
            "--mode", "entropy-grid",
            "--n", "3",
            "--m", "2",
            "--unitary", "haar",
            "--samples", "40",
            "--seed", "5",
            "--output", str(tmp_path / "grid.csv"),
            "--threads", "1",
        ]
    )
    assert execute(config) == 0
    lines = (tmp_path / "grid.csv").read_text().strip().splitlines()
    assert lines[0] == "k,l,mean,stderr"
    assert len(lines) == 1 + 3 * 2


def test_execute_trajectory_dump_with_waiting_times(tmp_path):
    config = parse_config(
        [
            "--mode", "trajectory-dump",
            "--n", "4",
            "--m", "3",
            "--unitary", "haar",
            "--samples", "12",
            "--seed", "2",
            "--cut", "2",
            "--waiting-times",
            "--output", str(tmp_path / "records.jsonl"),
        ]
    )
    assert execute(config) == 0
    lines = (tmp_path / "records.jsonl").read_text().splitlines()
    assert len(lines) == 12
    for line in lines:
        record = json.loads(line)
        assert set(record) == {"clicks", "entropies", "waiting_times"}
        assert len(record["clicks"]) == 3
        assert len(record["entropies"]) == 4
        assert len(record["waiting_times"]) == 3


def test_trajectory_dump_line_i_is_estimator_trajectory_i(tmp_path):
    n, m, seed, samples = 6, 6, 3, 20
    config = parse_config(
        [
            "--mode", "trajectory-dump",
            "--n", str(n),
            "--m", str(m),
            "--unitary", "haar",
            "--samples", str(samples),
            "--seed", str(seed),
            "--output", str(tmp_path / "records.jsonl"),
            "--threads", "1",
        ]
    )
    assert execute(config) == 0
    lines = (tmp_path / "records.jsonl").read_text().splitlines()
    assert len(lines) == samples
    source = UnitarySource.haar()
    for i, line in enumerate(lines):
        u = source.draw(n, derive_rng(seed, i, 0))
        expected = sample_click_sequence(n, m, u, derive_rng(seed, i, 1))
        assert tuple(json.loads(line)["clicks"]) == expected, f"line {i}"


def test_execute_scaling_sweep(tmp_path):
    config = parse_config(
        [
            "--mode", "scaling-sweep",
            "--point", "3:brickwall:1",
            "--point", "4:haar",
            "--samples", "30",
            "--seed", "6",
            "--output", str(tmp_path / "sweep.csv"),
            "--threads", "1",
        ]
    )
    assert execute(config) == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("3,brickwall,1,")


def test_execute_mixture_entropy(tmp_path):
    config = parse_config(
        [
            "--mode", "mixture-entropy",
            "--n", "4",
            "--m", "4",
            "--unitary", "haar",
            "--k", "2",
            "--cut", "2",
            "--samples", "200",
            "--seed", "13",
            "--output", str(tmp_path / "mix.json"),
            "--threads", "1",
        ]
    )
    assert execute(config) == 0
    report = json.loads((tmp_path / "mix.json").read_text())
    assert report["click_count"] == 2
    assert report["subsystem_size"] == 2
    assert report["mean_trajectory_entropy"] <= report["averaged_state_entropy"] + report["tolerance"]


def test_dump_unitary_flag_saves_the_fixed_unitary(tmp_path):
    config = parse_config(
        [
            "--mode", "distribution",
            "--n", "3",
            "--m", "2",
            "--unitary", "haar",
            "--samples", "50",
            "--seed", "21",
            "--output", str(tmp_path / "d.csv"),
            "--dump-unitary", str(tmp_path / "used.json"),
            "--threads", "1",
        ]
    )
    assert execute(config) == 0
    obj = json.loads((tmp_path / "used.json").read_text())
    assert obj["dim"] == 3
    manifest = json.loads((tmp_path / "d.csv.manifest.json").read_text())
    assert manifest["outputs"] == ["d.csv", "used.json"]


def test_dump_unitary_flag_rejects_fresh_per_sample_runs(tmp_path, capsys):
    # Rejected before the mode runs: no output, no dumped unitary, no manifest.
    runs = [
        ["--mode", "entropy-grid", "--n", "3", "--m", "2", "--unitary", "haar"],
        ["--mode", "scaling-sweep", "--point", "4:haar", "--point", "6:brickwall:2"],
    ]
    for args in runs:
        code = main(
            args
            + [
                "--samples", "10",
                "--seed", "1",
                "--output", str(tmp_path / "out.csv"),
                "--dump-unitary", str(tmp_path / "u.json"),
                "--threads", "1",
            ]
        )
        assert code == 1
        assert "fixed unitary" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "mode_args",
    [
        ["--mode", "distribution", "--n", "4", "--m", "3", "--unitary", "haar", "--samples", "600"],
        ["--mode", "entropy-grid", "--n", "4", "--m", "2", "--unitary", "brickwall:1", "--samples", "600"],
        ["--mode", "trajectory-dump", "--n", "4", "--m", "3", "--unitary", "haar", "--samples", "600",
         "--waiting-times"],
        ["--mode", "mixture-entropy", "--n", "4", "--m", "4", "--unitary", "haar", "--k", "2",
         "--samples", "600"],
    ],
)
def test_outputs_identical_across_thread_counts(tmp_path, mode_args):
    contents = {}
    for threads in (1, 2):
        directory = tmp_path / f"t{threads}"
        directory.mkdir()
        out = directory / "out.dat"
        config = parse_config(
            mode_args + ["--seed", "99", "--output", str(out), "--threads", str(threads)]
        )
        assert execute(config) == 0
        contents[threads] = (
            out.read_bytes(),
            (directory / "out.dat.manifest.json").read_bytes(),
        )
    assert contents[1] == contents[2]


@pytest.mark.parametrize(
    "args, checks",
    [
        # On reading the file, on making the source, on writing the dump.
        (["--mode", "distribution", "--unitary", "file:{u}", "--dump-unitary", "{dump}"], 3),
        # On making the fixed source of the run's single draw.
        (["--mode", "distribution", "--unitary", "haar"], 1),
        (["--mode", "mixture-entropy", "--unitary", "haar"], 1),
    ],
    ids=["distribution-file-dump", "distribution-haar", "mixture-haar"],
)
def test_a_run_checks_its_one_unitary_once_per_step(tmp_path, monkeypatch, args, checks):
    # The estimators take the source the CLI made, so none checks the matrix again.
    paths = {"u": balanced_splitter_file(tmp_path), "dump": tmp_path / "used.json"}
    calls = []
    check = unitary.check_unitary

    def counting(u):
        calls.append(u.shape)
        return check(u)

    monkeypatch.setattr(unitary, "check_unitary", counting)
    argv = [arg.format(**paths) for arg in args] + [
        "--n", "2", "--m", "2", "--samples", "20", "--seed", "4",
        "--output", str(tmp_path / "out.dat"), "--threads", "1",
    ]
    assert execute(parse_config(argv)) == 0
    assert calls == [(2, 2)] * checks


def test_no_temp_files_left_behind(tmp_path):
    config = parse_config(
        [
            "--mode", "distribution",
            "--n", "2",
            "--m", "2",
            "--unitary", "haar",
            "--samples", "50",
            "--seed", "4",
            "--output", str(tmp_path / "out.csv"),
            "--threads", "1",
        ]
    )
    assert execute(config) == 0
    leftovers = [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def test_outputs_get_the_mode_the_umask_gives(tmp_path):
    # A plain open() under umask 027 creates 0640 files; so must the atomic writes.
    previous = os.umask(0o027)
    try:
        code = main(
            ["--mode", "dump-unitary", "--n", "3", "--unitary", "haar", "--seed", "1",
             "--output", str(tmp_path / "u.json"), "--dump-unitary", str(tmp_path / "d.json")]
        )
    finally:
        os.umask(previous)
    assert code == 0
    for name in ["u.json", "u.json.manifest.json", "d.json"]:
        assert (tmp_path / name).stat().st_mode & 0o777 == 0o640, name


def test_an_output_that_is_a_directory_is_an_error_line(tmp_path, capsys):
    (tmp_path / "out").mkdir()
    code = main(
        ["--mode", "dump-unitary", "--n", "3", "--unitary", "haar", "--seed", "1",
         "--output", str(tmp_path / "out")]
    )
    assert code == 1
    path = str(tmp_path / "out")
    assert capsys.readouterr().err == f"error: cannot write {path!r}: Is a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    assert list((tmp_path / "out").iterdir()) == []


def test_an_output_whose_folder_cannot_be_made_is_an_error_line(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    target = tmp_path / "file" / "sub" / "u.json"
    code = main(
        ["--mode", "dump-unitary", "--n", "3", "--unitary", "haar", "--seed", "1",
         "--output", str(target)]
    )
    assert code == 1
    assert capsys.readouterr().err == f"error: cannot write {str(target)!r}: Not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_main_reports_usage_errors(capsys):
    assert main("--mode distribution --n 2 --m 2 --unitary haar".split()) == 1
    assert "seed" in capsys.readouterr().err


def test_main_runs_end_to_end(tmp_path, capsys):
    code = main(
        [
            "--mode", "distribution",
            "--n", "2",
            "--m", "2",
            "--unitary", "haar",
            "--samples", "100",
            "--seed", "8",
            "--output", str(tmp_path / "o.csv"),
            "--threads", "1",
        ]
    )
    assert code == 0
    assert (tmp_path / "o.csv").exists()
    assert "wrote" in capsys.readouterr().out


_EXIT_FREEZE_SCRIPT = """
import atexit, gc, sys
# Standard modules lontraj imports, which register exit callbacks of their own.
import concurrent.futures.process, multiprocessing.util, numpy
before = atexit._ncallbacks()
import lontraj, lontraj.cli
assert atexit._ncallbacks() == before, "importing the CLI registered an exit callback"
atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count() > 0))
for _ in range(2):
    argv = ["--mode", "dump-unitary", "--n", "2", "--seed", "1", "--output", sys.argv[1]]
    assert lontraj.cli.main(argv) == 0
assert atexit._ncallbacks() == before + 2  # the handler above and the hook
assert gc.get_freeze_count() == 0 and gc.isenabled()
print("normal gc in process")
"""


def test_main_freezes_the_heap_at_exit_once_and_only_at_exit(tmp_path):
    # The exit hook runs before every handler registered ahead of the first
    # main(), so such a handler sees a frozen heap; in process, nothing is frozen.
    src = str(Path(experiments.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-c", _EXIT_FREEZE_SCRIPT, str(tmp_path / "u.json")]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-2:] == ["normal gc in process", "frozen at exit: True"]


def test_run_config_is_reusable_programmatically(tmp_path):
    config = RunConfig(
        mode="dump-unitary",
        seed=1,
        output=tmp_path / "eye.json",
        threads=1,
        dump_unitary=None,
        settings={"n": 4, "unitary": "identity"},
    )
    assert execute(config) == 0
    obj = json.loads((tmp_path / "eye.json").read_text())
    assert obj["dim"] == 4


def test_run_config_built_in_code_records_only_its_mode_settings(tmp_path):
    config = RunConfig(
        mode="dump-unitary",
        seed=1,
        output=tmp_path / "u.json",
        threads=1,
        dump_unitary=None,
        settings={"n": 3, "unitary": "haar", "samples": 50, "cut": 1, "k": 0, "points": ["3:haar"]},
    )
    assert execute(config) == 0
    manifest = json.loads((tmp_path / "u.json.manifest.json").read_text())
    assert set(manifest["config"]) == {"mode", "seed", "n", "unitary"}


def test_every_mode_setting_is_a_parser_destination():
    destinations = {action.dest for action in _build_parser()._actions}
    for mode in MODES.values():
        assert set(mode.reads) <= destinations


def test_dump_unitary_flag_in_dump_unitary_mode_writes_both_files(tmp_path):
    code = main(
        [
            "--mode", "dump-unitary",
            "--n", "4",
            "--unitary", "haar",
            "--seed", "1",
            "--output", str(tmp_path / "u.json"),
            "--dump-unitary", str(tmp_path / "extra.json"),
        ]
    )
    assert code == 0
    assert (tmp_path / "extra.json").read_bytes() == (tmp_path / "u.json").read_bytes()
    manifest = json.loads((tmp_path / "u.json.manifest.json").read_text())
    assert manifest["outputs"] == ["u.json", "extra.json"]


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_must_be_positive(threads):
    with pytest.raises(ValueError, match="--threads must be >= 1"):
        parse_config(
            "--mode distribution --n 2 --m 2 --seed 1 --threads".split() + [threads]
        )


@pytest.mark.parametrize(
    "mode_args",
    [
        ["--mode", "dump-unitary", "--n", "6"],
        ["--mode", "mixture-entropy", "--n", "6", "--m", "4", "--samples", "20"],
        ["--mode", "distribution", "--n", "6", "--m", "4", "--samples", "20"],
    ],
)
def test_file_unitary_of_the_wrong_size_is_rejected_before_running(tmp_path, capsys, mode_args):
    eye2 = tmp_path / "eye2.json"
    eye2.write_text(unitary_to_json(np.eye(2, dtype=complex)))
    out = tmp_path / "out"
    code = main(
        mode_args
        + ["--unitary", f"file:{eye2}", "--seed", "1", "--output", str(out / "o.dat"),
           "--threads", "1"]
    )
    assert code == 1
    assert "2-mode, need 6" in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


def test_sweep_file_point_of_the_wrong_size_is_rejected_before_any_point_runs(
    tmp_path, capsys, monkeypatch
):
    six = tmp_path / "six.json"
    six.write_text(unitary_to_json(np.eye(6, dtype=complex)))
    ran = []
    grid = experiments.averaged_entropy_grid

    def recording(n_sites, *args, **kwargs):
        ran.append(n_sites)
        return grid(n_sites, *args, **kwargs)

    monkeypatch.setattr(experiments, "averaged_entropy_grid", recording)
    out = tmp_path / "out"
    point = f"8:file:{six}"
    code = main(
        ["--mode", "scaling-sweep", "--point", "10:brickwall:2", "--point", point,
         "--samples", "20", "--seed", "1", "--output", str(out / "s.csv"), "--threads", "1"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: --point: fixed unitary is 6-mode, need 8 in {point!r}\n"
    assert ran == []
    assert not out.exists()


@pytest.mark.parametrize("mode", ["distribution", "trajectory-dump"])
def test_nan_file_unitary_is_rejected(tmp_path, capsys, mode):
    entries = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [float("nan"), 0.0]]
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps({"dim": 2, "entries": entries}))
    out = tmp_path / "out"
    code = main(
        ["--mode", mode, "--n", "2", "--m", "2", "--unitary", f"file:{bad}",
         "--samples", "20", "--seed", "1", "--output", str(out / "o.dat"), "--threads", "1"]
    )
    assert code == 1
    assert "not unitary" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", sorted(MODES))
def test_manifest_records_exactly_the_settings_the_mode_reads(tmp_path, mode):
    # Every option but --dump-unitary, which names an output, not a setting.
    code = main(
        [
            "--mode", mode,
            "--n", "4",
            "--m", "2",
            "--unitary", "identity",
            "--samples", "20",
            "--cut", "2",
            "--k", "1",
            "--point", "3:haar",
            "--waiting-times",
            "--seed", "5",
            "--output", str(tmp_path / "o.dat"),
            "--threads", "1",
        ]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "o.dat.manifest.json").read_text())
    assert set(manifest["config"]) == {"mode", "seed", *MODES[mode].reads}


def test_point_flags_replace_the_config_file_points(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text("mode = scaling-sweep\npoints = 4:haar, 5:brickwall:1\nseed = 2\n")
    assert parse_config(["--config", str(path)]).settings["points"] == ["4:haar", "5:brickwall:1"]
    config = parse_config(["--config", str(path), "--point", "6:haar"])
    assert config.settings["points"] == ["6:haar"]


@pytest.mark.parametrize("value, on", [("no", False), ("false", False), ("yes", True), ("1", True)])
def test_config_file_waiting_times(tmp_path, value, on):
    path = tmp_path / "dump.cfg"
    path.write_text(f"mode = trajectory-dump\nn = 3\nm = 2\nseed = 1\nwaiting_times = {value}\n")
    assert bool(parse_config(["--config", str(path)]).settings["waiting_times"]) is on


def test_config_file_rejects_malformed_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("mode = distribution\nn 4\n")
    with pytest.raises(ValueError, match="malformed config line"):
        parse_config(["--config", str(path)])


def test_bad_config_value_fails_like_the_flag(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("mode = distribution\nn = abc\n")
    with pytest.raises(SystemExit) as from_file:
        main(["--config", str(path)])
    file_err = capsys.readouterr().err
    with pytest.raises(SystemExit) as from_flag:
        main(["--mode", "distribution", "--n", "abc"])
    flag_err = capsys.readouterr().err
    assert from_file.value.code == from_flag.value.code == 2
    assert "argument --n: invalid int value: 'abc'" in file_err
    assert file_err == flag_err


def test_missing_unitary_file_is_an_error_line(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code = main(
        ["--mode", "dump-unitary", "--n", "3", "--unitary", f"file:{missing}", "--seed", "1",
         "--output", str(tmp_path / "out" / "u.json")]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: --unitary: ")
    assert str(missing) in err
    assert not (tmp_path / "out").exists()


def test_missing_config_file_is_an_error_line(tmp_path, capsys):
    missing = tmp_path / "nothere.cfg"
    assert main(["--config", str(missing)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --config: ")
    assert str(missing) in err


def test_bad_brickwall_depth_names_the_option(tmp_path, capsys):
    code = main(
        ["--mode", "dump-unitary", "--n", "3", "--unitary", "brickwall:x", "--seed", "1",
         "--output", str(tmp_path / "u.json")]
    )
    assert code == 1
    assert capsys.readouterr().err == "error: --unitary: cannot read depth 'x' in 'brickwall:x'\n"


def test_bad_point_size_names_the_option(tmp_path, capsys):
    code = main(
        ["--mode", "scaling-sweep", "--point", "x:haar", "--seed", "1",
         "--output", str(tmp_path / "s.csv")]
    )
    assert code == 1
    assert capsys.readouterr().err == "error: --point: cannot read N 'x' in 'x:haar'\n"
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize(
    "args, message",
    [
        ("--mode entropy-grid --n 40 --m 20",
         "--n 40 --m 20 reaches a sector of 137846528820 states, above the limit 1000000"),
        ("--mode trajectory-dump --n 64 --m 1", "--n must lie in [1, 63], got 64"),
        ("--mode dump-unitary --n 64", "--n must lie in [1, 63], got 64"),
        ("--mode scaling-sweep --point 6:haar --point 24:brickwall:2",
         "--point 24:brickwall:2 reaches a sector of 2704156 states, above the limit 1000000"),
        ("--mode scaling-sweep --point 64:haar",
         "--point: N must lie in [2, 63], got 64 in '64:haar'"),
        ("--mode entropy-grid --n 10 --m 10 --unitary brickwall:100000000",
         "--unitary: depth must lie in [0, 4096], got 100000000 in 'brickwall:100000000'"),
        ("--mode dump-unitary --n 4 --unitary brickwall:4097",
         "--unitary: depth must lie in [0, 4096], got 4097 in 'brickwall:4097'"),
        ("--mode scaling-sweep --point 6:haar --point 8:brickwall:5000",
         "--point: depth must lie in [0, 4096], got 5000 in '8:brickwall:5000'"),
        ("--mode mixture-entropy --n 63 --m 1 --k 1 --cut 13", "--cut must lie in [1, 12], got 13"),
        ("--mode mixture-entropy --n 26 --m 2 --cut 13", "--cut must lie in [1, 12], got 13"),
        ("--mode mixture-entropy --n 26 --m 2",
         "the default cut n // 2 = 13 exceeds the mixture-entropy limit of 12; "
         "give --cut in [1, 12]"),
        ("--mode entropy-grid --n 4 --m 2 --samples 4294967297",
         "--samples must lie in [1, 4294967296], got 4294967297"),
        ("--mode trajectory-dump --n 4 --m 2 --samples 10000000000000",
         "--samples must lie in [1, 4294967296], got 10000000000000"),
        ("--mode trajectory-dump --n 1 --m 1",
         "mode trajectory-dump needs --n >= 2, so that a cut has a site on each side"),
        ("--mode mixture-entropy --n 1 --m 1",
         "mode mixture-entropy needs --n >= 2, so that a cut has a site on each side"),
        ("--mode entropy-grid --n 1 --m 1",
         "mode entropy-grid needs --n >= 2, so that a cut has a site on each side"),
        ("--mode distribution --n 20 --m 10",
         "20030010 outcomes exceed the enumeration limit 1000000"),
        ("--mode distribution --n 63 --m 4",
         "720720 outcomes of 63 counts each exceed the enumeration limit of 4000000 counts"),
    ],
    ids=["sector", "bitmask", "dump-unitary-bitmask", "point-sector", "point-bitmask", "depth",
         "dump-unitary-depth", "point-depth", "mixture-cut", "mixture-explicit-cut",
         "mixture-default-cut", "samples", "dump-samples", "dump-one-site", "mixture-one-site",
         "grid-one-site", "outcomes", "outcome-counts"],
)
def test_oversized_inputs_are_rejected_before_running(tmp_path, capsys, args, message):
    # Sector bitmasks are int64, every state of the largest sector a run
    # reaches is enumerated, every trajectory draws and multiplies each
    # brick-wall layer, the mixture holds the averaged state of its cut,
    # every trajectory index must be one 32-bit seed word, a cut needs a site
    # on each side, and a distribution enumerates every outcome and its
    # counts.  The depth bound is checked when the source is built, the
    # outcome and count limits when the run starts, before the enumeration
    # allocates, and the other five while
    # parsing: all seven before any trajectory runs.
    out = tmp_path / "out" / "o.dat"
    assert main(args.split() + ["--seed", "1", "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "args",
    [
        "--mode entropy-grid --n 4 --m 2 --samples 10",
        "--mode trajectory-dump --n 4 --m 2 --samples 10",
        "--mode scaling-sweep --point 4:haar --samples 10",
        "--mode distribution --n 4 --m 2 --samples 10",
        "--mode mixture-entropy --n 4 --m 2 --samples 10",
        "--mode dump-unitary --n 4",
    ],
    ids=lambda args: args.split()[1],
)
def test_negative_seed_is_rejected_while_parsing(tmp_path, capsys, args):
    out = tmp_path / "out" / "o.dat"
    assert main(args.split() + ["--seed", "-3", "--output", str(out)]) == 1
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -3\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text, reason",
    [
        ('{"dim": 2', "Expecting ',' delimiter"),
        ('{"dim": 2}', 'expected a JSON object with keys "dim" and "entries"'),
        ("[1,2]", 'expected a JSON object with keys "dim" and "entries"'),
    ],
    ids=["truncated", "no-entries", "not-an-object"],
)
def test_malformed_unitary_file_names_the_option_and_path(tmp_path, capsys, text, reason):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    out = tmp_path / "out"
    code = main(
        ["--mode", "dump-unitary", "--n", "2", "--unitary", f"file:{bad}", "--seed", "1",
         "--output", str(out / "u.json")]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: --unitary: cannot read {str(bad)!r}: {reason}")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["--mode", "entropy-grid", "--n", "6", "--m", "5", "--unitary", "brickwall:2"],
        ["--mode", "distribution", "--n", "5", "--m", "4", "--unitary", "haar"],
        ["--mode", "mixture-entropy", "--n", "6", "--m", "5", "--k", "2", "--cut", "3"],
        ["--mode", "trajectory-dump", "--n", "6", "--m", "6", "--unitary", "brickwall:2",
         "--cut", "3", "--waiting-times"],
        pytest.param(
            ["--mode", "entropy-grid", "--n", "6", "--m", "5", "--unitary", "haar"],
            id="entropy-grid-haar",
        ),
        pytest.param(
            ["--mode", "entropy-grid", "--n", "7", "--m", "5", "--unitary", "brickwall:5"],
            id="entropy-grid-brickwall-5",
        ),
        # The grid-deep shape: a default group of 195 computes its entropies at once.
        pytest.param(
            ["--mode", "entropy-grid", "--n", "10", "--m", "10", "--unitary", "brickwall:20"],
            id="entropy-grid-brickwall-20",
        ),
        # Fixed sources walk distinct click prefixes, lowered in budget slices.
        pytest.param(
            ["--mode", "entropy-grid", "--n", "6", "--m", "5", "--unitary", "identity"],
            id="entropy-grid-identity",
        ),
        pytest.param(
            ["--mode", "trajectory-dump", "--n", "6", "--m", "6", "--unitary", "identity",
             "--cut", "3", "--waiting-times"],
            id="trajectory-dump-identity",
        ),
        pytest.param(
            ["--mode", "distribution", "--n", "8", "--m", "8", "--unitary", "haar"],
            id="distribution-8",
        ),
    ],
    ids=lambda args: args[1],
)
def test_outputs_do_not_depend_on_the_lockstep_group_size(tmp_path, monkeypatch, args):
    # 300 trajectories are a chunk of 256 and one of 44; groups of 3 leave a
    # short group of 1 at the end of the first chunk and of 2 at the end of
    # the second.  A fresh source draws each group's unitaries together.
    # Every source lowers a group's states one at a time at the widest click.
    n, m = int(args[args.index("--n") + 1]), int(args[args.index("--m") + 1])

    def run(name):
        out = tmp_path / name / "out.dat"
        argv = args + ["--samples", "300", "--seed", "17", "--threads", "1", "--output", str(out)]
        assert main(argv) == 0
        return out.read_bytes(), out.with_name("out.dat.manifest.json").read_bytes()

    default = run("default")
    assert experiments._group_size(n, m) > 3
    widest = max(comb(n, j) for j in range(m))
    for size in (1, 3):
        monkeypatch.setattr(trajectory, "_LOCKSTEP_BUDGET", size * widest)
        assert experiments._group_size(n, m) == size
        assert run(f"groups-of-{size}") == default
