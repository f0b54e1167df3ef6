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
