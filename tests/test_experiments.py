"""The suites' output layer: one column writer, atomic artifacts, shared work."""

import os
from pathlib import Path

import numpy as np

from memlqr import experiments, riccati
from memlqr.config import load_config

QUICK = Path(__file__).resolve().parent.parent / "configs" / "quick.ini"


def test_writer_matches_the_per_value_reference(tmp_path):
    # integer columns print as str(int), every other column as f"{x:.12e}",
    # extremes and signed zero included
    x = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308, 1.0 / 3.0])
    i = np.arange(len(x), dtype=np.int32) - 3
    j = np.array([0, 1, 2**40, -(2**62), 7, 8, 9], dtype=np.int64)
    u = np.arange(len(x), dtype=np.uint8)
    path = experiments._write_csv(str(tmp_path), "c.csv", ["i", "x", "j", "u", "l"], [i, x, j, u, list(x)])
    ref = "i,x,j,u,l\n" + "".join(
        f"{int(a)},{b:.12e},{int(c)},{int(d)},{b:.12e}\n" for a, b, c, d in zip(i, x, j, u)
    )
    assert path == str(tmp_path / "c.csv")
    assert Path(path).read_bytes() == ref.encode()


def test_every_artifact_is_written_atomically(monkeypatch, tmp_path):
    targets = []
    replace = os.replace

    def recording(src, dst):
        targets.append(str(dst))
        replace(src, dst)

    monkeypatch.setattr(os, "replace", recording)
    results = experiments.run_suite("all", load_config(str(QUICK)), str(tmp_path), tol_scale=50.0)
    artifacts = [a for res in results for a in res.artifacts]
    summaries = [str(tmp_path / "summary.csv"), str(tmp_path / "summary.json")]
    assert sorted(targets) == sorted(artifacts + summaries)
    assert sorted(os.listdir(tmp_path)) == sorted(os.path.basename(t) for t in targets)


def test_all_solves_the_optimum_once_and_scans_twice(monkeypatch, tmp_path):
    # the optimize, dissipation and closed-loop suites share one optimum; the
    # dissipation suite scans the optimum and its probes together, and the
    # chain-rule closure is the other scan
    calls = {"solve_optimal": 0, "_value_scan": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(experiments, "solve_optimal")
    counted(riccati, "_value_scan")
    experiments.run_suite("all", load_config(str(QUICK)), str(tmp_path), tol_scale=50.0)
    assert calls == {"solve_optimal": 1, "_value_scan": 2}
