import json

import pytest

from pdhyp import cli


def write_tiny_config(tmp_path, **overrides):
    cfg = {
        "model": {"kind": "k_system",
                  "coefficients": {"a_u": 1.0, "b_v": 1.0}, "symbol": "none"},
        "grid": {"n": 16, "length": 64.0},
        "initial": {"preset": "gaussian_bump", "amplitude": 1e-3,
                    "width": 2.0, "seed": 1},
        "time": {"t_max": 6.0, "dt": 1.0},
        "output": {"dir": str(tmp_path), "prefix": "clirun"},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_run_completes(tmp_path, capsys):
    path = write_tiny_config(tmp_path)
    code = cli.main(["run", str(path)])
    assert code == 0
    assert (tmp_path / "clirun_series.csv").exists()
    assert (tmp_path / "clirun_report.json").exists()


def test_run_with_overrides(tmp_path):
    path = write_tiny_config(tmp_path)
    code = cli.main(["run", str(path), "--set", "time.dt=0.5",
                     "--set", "output.prefix=other"])
    assert code == 0
    report = json.loads((tmp_path / "other_report.json").read_text())
    assert report["config"]["time"]["dt"] == 0.5


def test_run_config_error_exit_code(tmp_path, capsys):
    path = write_tiny_config(tmp_path)
    # odd, and even with next fast length 27
    for n in (17, 26):
        assert cli.main(["run", str(path), "--set", f"grid.n={n}"]) == 2
        assert f"config error: grid.n: {n} is not" in capsys.readouterr().err
    # a random band of no mode, or past the dealiased band (21 on n = 64)
    for band in (0, 22, 2.5):
        assert cli.main(["run", "k-small-data", "--set",
                         "initial.preset=random_bandlimited", "--set",
                         f"initial.band={band}"]) == 2
        assert f"config error: initial.band: {band} " \
            in capsys.readouterr().err
    assert cli.main(["run", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    assert cli.main(["run", "pk-small-data",
                     "--set", "model.coupling=vw_in_w"]) == 2
    assert "config error: model: " in capsys.readouterr().err
    assert cli.main(["run", "k-small-data",
                     "--set", "initial.width=[1.0,1.0,8.0]"]) == 2
    assert "config error: initial.width: " in capsys.readouterr().err
    assert cli.main(["run", "k-small-data", "--set",
                     "initial.preset=single_mode", "--set",
                     "initial.mode=[0,22,0]"]) == 2
    assert "config error: initial.mode: " in capsys.readouterr().err
    assert cli.main(["run", "pk-small-data",
                     "--set", "pseudoproduct.strategy=direct_sum"]) == 2
    assert "unknown config key 'pseudoproduct.strategy'" \
        in capsys.readouterr().err
    assert cli.main(["run", "pk-small-data", "--set", "model.symbol=mu0"]) == 2
    assert "config error: model.symbol: 'mu0'" in capsys.readouterr().err
    # a w norm on the 2-component model, and a norm listed twice
    assert cli.main(["run", "k-small-data",
                     "--set", 'norms=["linf:w","l2:u"]']) == 2
    assert "config error: norms: 'linf:w'" in capsys.readouterr().err
    assert cli.main(["run", "k-small-data", "--set",
                     'norms=["l2:u","l2:u","sobolev:u","sobolev:v"]']) == 2
    assert "config error: norms: 'l2:u' is listed twice" \
        in capsys.readouterr().err
    assert cli.main(["run", "k-small-data", "--set", "norms=[1]"]) == 2
    assert "config error: norms: must be" in capsys.readouterr().err
    assert cli.main(["run", "kexp-branch", "--set", "norms=[]"]) == 2
    assert "config error: norms" in capsys.readouterr().err
    assert cli.main(["run", "k-small-data",
                     "--set", "output.checkpoint=true"]) == 2
    assert "unknown config key 'output.checkpoint'" in capsys.readouterr().err
    # malformed fit windows, and non-numbers (bool and NaN included) where
    # numbers go, are config errors before any range check reads them
    for pair in ("fit.window=abc", "fit.window=[5,2]", "fit.window=[1,2,3]",
                 "fit.window=[1,true]", "grid.length=abc",
                 "initial.amplitude=abc", "initial.amplitude=true",
                 "time.t_max=abc", "time.t_max=NaN", "initial.width=abc",
                 'initial.width=[1,1,"x"]', "initial.radial_power=abc",
                 "time.dt=abc", "time.sample_dt=abc", "initial.seed=-1",
                 "initial.seed=1.5", "initial.seed=true",
                 "initial.radial_power=-1", "initial.radial_power=[0,0,-1]",
                 "initial.radial_power=1.5"):
        assert cli.main(["run", "pk-small-data", "--set", pair]) == 2, pair
        field = pair.partition("=")[0]
        assert f"config error: {field}: " in capsys.readouterr().err, pair


def test_run_on_a_grid_that_is_not_a_power_of_two(tmp_path):
    # 48 = 2^4 * 3: the wave flow stays unitary
    code = cli.main(["run", "wave-invariants", "--set", "grid.n=48",
                     "--set", "time.t_max=5", "--set", f"output.dir={tmp_path}"])
    assert code == 0
    rows = (tmp_path / "wave_invariants_series.csv").read_text().split()[1:]
    l2 = [float(v) for _, name, v in (row.split(",") for row in rows)
          if name == "w_l2"]
    assert len(l2) == 3 and max(abs(v / l2[0] - 1.0) for v in l2) <= 1e-10


def test_run_accepts_preset_names(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = cli.main(["run", "kexp-branch", "--set", "time.t_max=4.0",
                     "--set", "time.sample_dt=1.0",
                     "--set", "grid.n=16", "--set", "grid.length=32.0",
                     "--set", f"output.dir={tmp_path}"])
    assert code == 0


def test_presets_list(capsys):
    assert cli.main(["presets", "list"]) == 0
    out = capsys.readouterr().out
    assert "linear-sk-decay" in out
    assert "pksw-small-data" in out


def test_verify_single_criterion(capsys):
    assert cli.main(["verify", "2"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] criterion 2" in out


def test_verify_rejects_bad_id(capsys):
    assert cli.main(["verify", "zero"]) == 2
    assert cli.main(["verify", "99"]) == 2
