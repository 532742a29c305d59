import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def write_run(root, err, status, mode_1):
    root.mkdir()
    (root / "summary.csv").write_text(
        "name,measured,threshold,status\n# seed = 0\n"
        f"kernel_oracle_max_error,{err},1e-4,pass\n"
        f"dissipation_equality_band,1e-2,5e-3,{status}\n")
    (root / "trajectory.csv").write_text(f"t,mode_1\n0.0,1.0\n0.5,{mode_1}\n")


def report_lines(capsys, old, new):
    code = compare_outputs.main([str(old), str(new)])
    lines = capsys.readouterr().out.splitlines()
    return code, {line.split()[1]: line.split()[2:] for line in lines[1:-1]}, lines[-1]


def test_reports_the_largest_changes_and_the_status_flips(tmp_path, capsys):
    write_run(tmp_path / "old", "2.0e-07", "FAIL", "0.5")
    write_run(tmp_path / "new", "2.5e-07", "pass", "0.6")
    code, rows, last = report_lines(capsys, tmp_path / "old", tmp_path / "new")
    assert code == 1
    assert last == "status: summary.csv dissipation_equality_band FAIL -> pass"
    assert [float(v) for v in rows["kernel_oracle_max_error"]] == [5.0e-08, 0.25, 2.0e-07]
    assert [float(v) for v in rows["mode_1"]] == [0.1, 0.2, 1.0]


def test_identical_runs_report_no_change(tmp_path, capsys):
    write_run(tmp_path / "old", "2.0e-07", "FAIL", "0.5")
    write_run(tmp_path / "new", "2.0e-07", "FAIL", "0.5")
    code, rows, last = report_lines(capsys, tmp_path / "old", tmp_path / "new")
    assert code == 0
    assert last == "no pass/fail status differs"
    assert all(float(v[0]) == 0.0 for v in rows.values())


def test_dropped_rows_and_renamed_columns_are_problems(tmp_path, capsys):
    write_run(tmp_path / "old", "2.0e-07", "FAIL", "0.5")
    write_run(tmp_path / "new", "2.0e-07", "FAIL", "0.5")
    (tmp_path / "new" / "trajectory.csv").write_text("t,mode_1\n0.0,1.0\n")
    assert compare_outputs.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "rows: trajectory.csv 2 -> 1"
    (tmp_path / "new" / "trajectory.csv").write_text("t,mode_2\n0.0,1.0\n0.5,0.5\n")
    assert compare_outputs.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "header: trajectory.csv t,mode_1 -> t,mode_2"


def test_files_only_in_new_are_listed(tmp_path, capsys):
    write_run(tmp_path / "old", "2.0e-07", "FAIL", "0.5")
    write_run(tmp_path / "new", "2.0e-07", "FAIL", "0.5")
    (tmp_path / "new" / "extra.csv").write_text("t\n0.0\n")
    assert compare_outputs.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == f"only in new: {tmp_path / 'new' / 'extra.csv'}"


def test_files_equal_in_value_but_not_in_bytes_are_named(tmp_path, capsys):
    write_run(tmp_path / "old", "2.0e-07", "FAIL", "0.5")
    write_run(tmp_path / "new", "2.0e-07", "FAIL", "0.5")
    (tmp_path / "old" / "trajectory.csv").write_bytes(b"t,mode_1\r\n0.0,1.0\r\n0.5,0.5\r\n")
    code, rows, last = report_lines(capsys, tmp_path / "old", tmp_path / "new")
    assert code == 0
    assert last == "no pass/fail status differs"
    assert rows["differ,"] == ["values", "equal:", "trajectory.csv"]
    assert all(float(v[0]) == 0.0 for key, v in rows.items() if key != "differ,")


def write_summary_json(root, measured, passed):
    checks = [{"name": "kernel_oracle_max_error", "measured": 2.0e-07, "threshold": 1e-4, "passed": True},
              {"name": "dissipation_equality_band", "measured": measured, "threshold": 5e-3, "passed": passed}]
    (root / "summary.json").write_text(json.dumps({"checks": checks, "passed": passed}))


def test_summary_json_changes_below_the_csv_digits_and_its_status_flips(tmp_path, capsys):
    # summary.csv keeps 13 digits, summary.json the full repr: a change in the
    # 16th digit shows in the JSON alone, and so does a passed flip there
    for side in ("old", "new"):
        write_run(tmp_path / side, "2.0e-07", "FAIL", "0.5")
    write_summary_json(tmp_path / "old", 1.0000000000000002e-2, False)
    write_summary_json(tmp_path / "new", 1.0000000000000004e-2, False)
    assert compare_outputs.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "no pass/fail status differs"
    changes = {" ".join(line.split()[:2]): [float(v) for v in line.split()[2:]] for line in lines[1:-1]}
    assert changes["summary dissipation_equality_band"][0] == 0.0
    assert 1e-18 < changes["summary.json dissipation_equality_band"][0] < 1e-17
    assert changes["summary.json kernel_oracle_max_error"][0] == 0.0
    write_summary_json(tmp_path / "new", 1.0000000000000004e-2, True)
    assert compare_outputs.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "status: summary.json dissipation_equality_band False -> True"


def test_a_missing_or_extra_summary_json_is_a_problem(tmp_path, capsys):
    for side in ("old", "new"):
        write_run(tmp_path / side, "2.0e-07", "FAIL", "0.5")
    write_summary_json(tmp_path / "old", 1e-2, False)
    assert compare_outputs.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == f"missing: {tmp_path / 'new' / 'summary.json'}"
    assert compare_outputs.main([str(tmp_path / "new"), str(tmp_path / "old")]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == f"only in new: {tmp_path / 'old' / 'summary.json'}"
