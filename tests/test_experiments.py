"""The suites' output layer: one column writer, atomic artifacts, shared work;
the dissipation suite's panel residual; the shipped config's checks."""

import os
from pathlib import Path

import numpy as np
import pytest

from memlqr import experiments, optimal, riccati
from memlqr.config import load_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
QUICK = CONFIGS / "quick.ini"
DEFAULT = CONFIGS / "default.ini"


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
    # the optimize, bellman, dissipation and closed-loop suites share one
    # optimum, which the bellman suite restarts without solving again; the
    # dissipation suite scans the optimum and its probes together, and the
    # chain-rule closure is the other scan
    calls = {"solve_optimal": 0, "value_scan_batch": 0}

    def counted(module, name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper, raising=False)

    for module in (experiments, riccati):
        counted(module, "solve_optimal", optimal.solve_optimal)
        counted(module, "value_scan_batch", riccati.value_scan_batch)
    experiments.run_suite("all", load_config(str(QUICK)), str(tmp_path), tol_scale=50.0)
    assert calls == {"solve_optimal": 1, "value_scan_batch": 2}


@pytest.mark.parametrize("config", [QUICK, DEFAULT])
def test_the_stencil_residual_is_the_panel_residual_plus_the_data_curvature(config):
    # np.gradient's r = f + dW/dtheta at a node is the mean of the panel
    # residuals tau beside it less a quarter of f's second difference
    # (one-sided at the ends), so where tau reads zero, r reads the curvature
    # of f = |v|^2 + |u|^2, largest in the initial layer
    ws = experiments._Workspace(load_config(str(config)), 7, 1.0)
    controls = [ws.optimum.u_plus] + ws.probe_controls(experiments._N_PROBE)
    _, W, x = riccati.value_scan_batch(ws.state, controls, ws.table)
    u = np.stack([c.samples for c in controls], axis=1)
    f = np.sum(x[:, :, : ws.cfg.n_modes] ** 2, axis=2).T + np.sum(u**2, axis=2)
    dt = ws.grid.dt
    tau = np.diff(W, axis=0) / dt + 0.5 * (f[1:] + f[:-1])
    r = f + np.gradient(W, dt, axis=0, edge_order=2)
    d2 = f[:-2] - 2.0 * f[1:-1] + f[2:]
    ref = np.concatenate([(3.0 * tau[:1] - tau[1:2]) / 2 + d2[:1] / 4,
                          (tau[:-1] + tau[1:]) / 2 - d2 / 4,
                          (3.0 * tau[-1:] - tau[-2:-1]) / 2 + d2[-1:] / 4])
    assert np.max(np.abs(r - ref)) <= 1e-14 * (1.0 + np.max(f))


@pytest.mark.parametrize("seed", [7, 11, 12, 34, 39])
def test_the_shipped_config_passes_every_check(tmp_path, seed):
    # the seeds where the stencil residual left the dissipation band
    results = experiments.run_suite("all", load_config(str(DEFAULT)), str(tmp_path), seed=seed)
    assert [row.name for res in results for row in res.rows if not row.passed] == []
