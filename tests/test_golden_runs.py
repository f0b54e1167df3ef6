import golden_runs


def test_against_a_saved_listing_exits_1_on_any_difference(tmp_path, monkeypatch, capsys):
    # One cheap configuration: two runs, at --threads 1 and 2.
    cheap = "--mode dump-unitary --n 3 --unitary haar --seed 1"
    monkeypatch.setattr(golden_runs, "GOLDEN", [cheap])
    assert golden_runs.main([]) == 0
    first, second = capsys.readouterr().out.splitlines()
    saved = tmp_path / "golden.txt"

    saved.write_text(f"{first}\n{second}\n")
    assert golden_runs.main(["--against", str(saved)]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines() == [first, second]
    assert err == ""

    saved.write_text(f"{second}\n{first}\n")
    assert golden_runs.main(["--against", str(saved)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"- {second}", f"+ {first}", f"- {first}", f"+ {second}"
    ]

    saved.write_text(f"{first}\n")
    assert golden_runs.main(["--against", str(saved)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"+ {second}"]


def _capture(root, runs: dict) -> str:
    # runs: name -> (out.dat text, manifest text)
    for name, texts in runs.items():
        (root / name).mkdir(parents=True)
        for kept, text in zip(golden_runs.KEPT, texts):
            (root / name / kept).write_text(text)
    return str(root)


def test_drift_reports_moved_floats_and_exits_1_on_anything_else(tmp_path, capsys):
    manifest = '{"mode": "distribution", "n": 8, "version": "0.1.0"}\n'
    before = _capture(tmp_path / "a", {
        "g00-t1": ("k,l,mean\n0,1,0.5\n1,2,-0.0\n", manifest),
        "g05-t2": ('{"clicks": [3, 1], "entropies": [0.25, 1e-05]}\n', manifest),
    })
    after = _capture(tmp_path / "b", {
        "g00-t1": ("k,l,mean\n0,1,0.5000000000000001\n1,2,0.0\n", manifest),
        "g05-t2": ('{"clicks": [3, 1], "entropies": [0.25, 1e-05]}\n', manifest),
    })
    assert golden_runs.main(["--drift", before, after]) == 0
    first, second = capsys.readouterr().out.splitlines()
    assert first.startswith("g00-t1: 2 of 2 floats moved, largest absolute 1.11e-16, "
                            "relative 2.22e-16 [--mode entropy-grid")
    assert second.startswith("g05-t2: 0 of 2 floats moved, largest absolute 0, relative 0 [")

    # A click, a count or the text around the numbers is not drift.
    for changed in ('{"clicks": [3, 2], "entropies": [0.25, 1e-05]}\n',
                    '{"clicks": [3, 1], "entropies": [0.25, 1e-05, 0.5]}\n',
                    '{"clicks": [3, 1], "entropy": [0.25, 1e-05]}\n'):
        (tmp_path / "b" / "g05-t2" / golden_runs.KEPT[0]).write_text(changed)
        assert golden_runs.main(["--drift", before, after]) == 1
        assert "g05-t2: " in capsys.readouterr().out
    (tmp_path / "b" / "g05-t2" / "out.dat.manifest.json").unlink()
    assert golden_runs.main(["--drift", before, after]) == 1
    assert "missing" in capsys.readouterr().out
