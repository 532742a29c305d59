import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import memlqr
from memlqr.cli import main
from memlqr.config import ConfigError, DEFAULT_TOLERANCES, build_control, build_initial_data, load_config


SMALL = """
[problem]
n_modes = 4
t_final = 0.5
n_steps = 32

[initial_data]
preset = smooth
seed = 7

[control]
preset = sine

[tolerances]
two_route = 5e-3

[output]
dir = {out}
"""

ZERO = """
[problem]
n_modes = 4
t_final = 0.5
n_steps = 32

[initial_data]
preset = zero

[control]
preset = zero

[output]
dir = {out}
"""


def write_cfg(tmp_path, text, name="cfg.ini"):
    p = tmp_path / name
    p.write_text(text.format(out=tmp_path / "out"))
    return p


# ----------------------------------------------------------------------------
# config parsing


def test_load_config_defaults(tmp_path):
    cfg = load_config(write_cfg(tmp_path, SMALL))
    assert cfg.n_modes == 4
    assert cfg.n_steps == 32
    assert cfg.tolerances["two_route"] == 5e-3
    assert cfg.tolerances["series"] == DEFAULT_TOLERANCES["series"]


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/path.ini")


def test_missing_required_field(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[problem]\nn_modes = 4\nt_final = 0.5\n")
    with pytest.raises(ConfigError, match="problem.n_steps"):
        load_config(p)


def test_bad_value_type(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[problem]\nn_modes = four\nt_final = 0.5\nn_steps = 32\n")
    with pytest.raises(ConfigError, match="n_modes"):
        load_config(p)


def test_unknown_tolerance_rejected(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[problem]\nn_modes = 4\nt_final = 0.5\nn_steps = 32\n[tolerances]\nbogus = 1.0\n")
    with pytest.raises(ConfigError, match="bogus"):
        load_config(p)


@pytest.mark.parametrize("control, key", [
    ("preset = sine\nampl0 = 9", "ampl0"),
    ("preset = sine\nc00 = 1", "c00"),
    ("preset = poly\namp0 = 1", "amp0"),
    ("preset = zero\noffset0 = 0.5", "offset0"),
])
def test_unknown_control_key_rejected(tmp_path, control, key):
    # a key the chosen preset does not read would be silently ignored
    p = tmp_path / "bad.ini"
    p.write_text(f"[problem]\nn_modes = 4\nt_final = 0.5\nn_steps = 32\n[control]\n{control}\n")
    with pytest.raises(ConfigError, match=key):
        load_config(p)


@pytest.mark.parametrize("field", ["v_decay", "y_decay"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_nonfinite_decay_rejected(tmp_path, field, value):
    p = tmp_path / "bad.ini"
    p.write_text(f"[problem]\nn_modes = 4\nt_final = 0.5\nn_steps = 32\n[initial_data]\n{field} = {value}\n")
    with pytest.raises(ConfigError, match=field):
        load_config(p)


def test_modal_preset_requires_coeffs(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[problem]\nn_modes = 4\nt_final = 0.5\nn_steps = 32\n[initial_data]\npreset = modal\n")
    with pytest.raises(ConfigError, match="v_coeffs"):
        load_config(p)


def test_modal_preset_roundtrip(tmp_path):
    p = tmp_path / "cfg.ini"
    p.write_text(
        "[problem]\nn_modes = 3\nt_final = 0.5\nn_steps = 32\n"
        "[initial_data]\npreset = modal\nv_coeffs = 1.0, 0.5, 0.25\ny_coeffs = 0 0 1\n"
    )
    cfg = load_config(p)
    v, y = build_initial_data(cfg)
    assert np.allclose(v, [1.0, 0.5, 0.25])
    assert np.allclose(y, [0.0, 0.0, 1.0])


def test_rough_preset_has_flat_seed(tmp_path):
    p = tmp_path / "cfg.ini"
    p.write_text(
        "[problem]\nn_modes = 6\nt_final = 0.5\nn_steps = 32\n"
        "[initial_data]\npreset = rough_yhat\nseed = 3\n"
    )
    cfg = load_config(p)
    v, y = build_initial_data(cfg)
    # the seed keeps substantial high-mode content while v decays fast
    assert np.linalg.norm(y[3:]) > 0.3
    assert np.abs(v[-1]) < 1e-2 * np.abs(v[0])


def test_control_presets_differentiate(tmp_path):
    cfg = load_config(write_cfg(tmp_path, SMALL))
    sc = build_control(cfg)
    h = 1e-6
    for t in (0.0, 0.2):
        fd = (sc.u(t + h) - sc.u(t - h)) / (2 * h)
        assert np.allclose(fd, sc.du(t), atol=1e-6)
        fd2 = (sc.du(t + h) - sc.du(t - h)) / (2 * h)
        assert np.allclose(fd2, sc.ddu(t), atol=1e-5)


# ----------------------------------------------------------------------------
# the command line


def test_cli_kernels_artifacts(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    out = tmp_path / "out"
    rc = main(["kernels", "--config", str(cfg), "--tol-scale", "50"])
    assert rc == 0
    for name in ("kernels.csv", "kernel_errors.csv", "series.csv", "summary.csv", "summary.json"):
        assert (out / name).exists()
    payload = json.loads((out / "summary.json").read_text())
    assert payload["passed"] is True
    assert payload["seed"] == 7


def test_cli_bad_config_diagnostic(tmp_path, capsys):
    p = tmp_path / "bad.ini"
    p.write_text("[problem]\nn_modes = 4\n")
    rc = main(["kernels", "--config", str(p)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "t_final" in err
    # no partial output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
def test_cli_rejects_an_invalid_tol_scale(tmp_path, capsys, scale):
    # every threshold is scaled by it: a scale that is not finite and
    # positive is a usage error, reported before any output is written
    cfg = write_cfg(tmp_path, SMALL)
    rc = main(["kernels", "--config", str(cfg), "--tol-scale", scale])
    assert rc == 2
    assert "tol_scale" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_all_zero_data(tmp_path):
    cfg = write_cfg(tmp_path, ZERO)
    out = tmp_path / "out"
    rc = main(["all", "--config", str(cfg), "--tol-scale", "50"])
    assert rc == 0
    payload = json.loads((out / "summary.json").read_text())
    by_name = {c["name"]: c for c in payload["checks"]}
    for name in (
        "two_route_max_error",
        "transformation_max_error",
        "gradient_norm_at_optimum",
        "value_vs_cost",
        "two_route_control",
        "bellman_tail_mismatch",
        "bellman_telescope_residual",
        "closed_loop_l2_mismatch",
        "chain_rule_closure",
        "riccati_relative_residual",
        "terminal_value_exact_zero",
    ):
        assert by_name[name]["measured"] == 0.0, name
    assert payload["passed"] is True


def test_cli_determinism(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    for out in (out1, out2):
        rc = main(["optimize", "--config", str(cfg), "--out", str(out), "--tol-scale", "50"])
        assert rc == 0
    for name in os.listdir(out1):
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name


def test_cli_seed_override(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    out = tmp_path / "o3"
    rc = main(["optimize", "--config", str(cfg), "--out", str(out), "--seed", "99", "--tol-scale", "50"])
    assert rc == 0
    payload = json.loads((out / "summary.json").read_text())
    assert payload["seed"] == 99


def test_import_leaves_scipy_unloaded():
    # numpy is the only runtime dependency; scipy serves the tests alone
    src = str(Path(memlqr.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", "import memlqr, sys; print('scipy' in sys.modules)"],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"
