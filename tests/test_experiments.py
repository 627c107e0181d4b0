import inspect
import json
import platform
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

import pdhyp
from conftest import conjugate_symmetry_defect
from pdhyp import evolution as ev
from pdhyp import experiments as ex
from pdhyp import norms, pseudoproduct, spectra
from pdhyp.errors import ConfigError, UnknownPreset
from pdhyp.grid import SpectralGrid

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing      # noqa: E402  (perfbench's, importing pdhyp from src/)
import workloads    # noqa: E402


TINY = {
    "model": {"kind": "pk_system_w", "symbol": "null_b"},
    "grid": {"n": 16, "length": 64.0},
    "initial": {"preset": "gaussian_bump", "amplitude": 1e-3, "width": 2.0,
                "seed": 3},
    "time": {"t_max": 9.0, "dt": 1.0},
}


def tiny_config(tmp_path, **extra):
    d = json.loads(json.dumps(TINY))
    d.update(extra)
    d.setdefault("output", {})["dir"] = str(tmp_path)
    return ex.ExperimentConfig.from_dict(d)


# -- config ------------------------------------------------------------------

def test_config_roundtrip(tmp_path):
    cfg = tiny_config(tmp_path)
    again = ex.ExperimentConfig.from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()


# JSON values of every shape, and numbers at the edges
JUNK = ({"a": 1}, [1], [[1]], [], {}, None, True, "abc", -1, 0,
        float("nan"), 1e308)


@pytest.mark.parametrize("path", list(ex._FIELDS))
def test_any_value_of_a_field_validates_or_is_a_config_error(path):
    *section, key = path.split(".")
    for junk in JUNK:
        try:
            ex.ExperimentConfig.from_dict(
                {section[0]: {key: junk}} if section else {key: junk})
        except ConfigError:
            pass


def test_benchmark_workloads_and_shipped_presets_validate(tmp_path):
    for name in workloads.WORKLOADS:    # as perfbench resolves them
        workloads.resolve(name, workloads.DEFAULT_SEED, str(tmp_path))
    for name in ex.list_presets():
        ex.load_preset(name)


def test_perfbench_tracer_and_step_clock_put_back_every_name_they_patch():
    # entering reads each name patched, and a Stepper built in the tracer's
    # context has the cache fields read that the tracer counts
    owners = (SpectralGrid, spectra, ev, ev.Stepper, ev.BlowupGuard,
              pseudoproduct, norms, ex)
    saved = [dict(vars(owner)) for owner in owners]
    changed = lambda: [(o, k) for o, old in zip(owners, saved)
                       for k, v in vars(o).items() if old.get(k) is not v]
    tracer, clock = tracing.Tracer(), tracing.StepClock()
    with tracer.installed():
        assert changed()
        stepper = ev.Stepper(ev.ModelSpec("k_system"), SpectralGrid(8, 8), 1.0)
    assert not changed()
    assert tracer.cache_bytes[0] >= stepper.G_full.nbytes > 0
    with clock.installed():
        assert changed() == [(ev.Stepper, "step")]
    assert not changed()


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config key"):
        ex.ExperimentConfig.from_dict({"gird": {}})
    with pytest.raises(ConfigError, match="grid.nx"):
        ex.ExperimentConfig.from_dict({"grid": {"nx": 8}})


def test_config_validation_messages():
    bad = {
        "model": {"kind": "nope"},
        "grid": {"n": 17, "length": 64.0},
        "time": {"t_max": 30.0},
        "initial": {"amplitude": -1.0},
    }
    with pytest.raises(ConfigError) as err:
        ex.ExperimentConfig.from_dict(bad)
    text = "; ".join(err.value.problems)
    assert "model.kind" in text
    assert "grid.n" in text
    assert "no-wrap" in text        # t_max >= L/4
    assert "initial.amplitude" in text


def test_grid_sizes_are_the_fast_fft_lengths():
    # grid.n takes exactly the even n in [8, 65536] that are their own next
    # fast FFT length, the 11-smooth ones, and says so in words
    _, check = ex._FIELDS["grid.n"][1]
    accepted = {n for n in range(8, 65537, 2) if check(n)}
    assert accepted == {n for n in range(8, 65537, 2)
                        if scipy.fft.next_fast_len(n) == n}
    with pytest.raises(ConfigError) as err:
        ex.ExperimentConfig.from_dict({"grid": {"n": 26}})
    assert err.value.problems == [
        "grid.n: 26 is not an even int in [8, 65536] with no prime factor "
        "above 11"]


@pytest.mark.parametrize("model, expect", [
    ({"kind": "pk_system", "coupling": "vw_in_w"}, "u/v block"),
    ({"kind": "pk_system_w", "symbol": "none"}, "needs a w_symbol"),
    ({"kind": "pk_system_w", "coefficients": {"a_u": 7.0}},
     "coefficients must be 0"),
    ({"kind": "k_system", "coefficients": {"d_v": 1.0}}, "d_v must be 0"),
], ids=["pk_vw_in_w", "pksw_no_symbol", "pksw_coefficient", "k_d_v"])
def test_config_rejects_models_the_runner_cannot_honour(model, expect):
    with pytest.raises(ConfigError, match=f"model: .*{expect}"):
        ex.ExperimentConfig.from_dict({**TINY, "model": model})


def test_config_rejects_a_direct_sum_over_the_cap():
    # mu0 has no factorization, so T_m runs as the direct sum over the
    # cube: 8.6e7 terms at n = 32 are within the cap, 6.3e9 at n = 64 are not
    mu0 = {**TINY, "model": {"kind": "pk_system_w", "symbol": "mu0"}}
    ex.ExperimentConfig.from_dict({**mu0, "grid": {"n": 32, "length": 64.0}})
    with pytest.raises(ConfigError, match="model.symbol: 'mu0' has no "
                                          "separable factorization"):
        ex.ExperimentConfig.from_dict({**mu0,
                                       "grid": {"n": 64, "length": 64.0}})
    # without a T_m source the symbol is never applied
    ex.ExperimentConfig.from_dict(
        {**mu0, "model": {"kind": "k_system", "symbol": "mu0"},
         "grid": {"n": 64, "length": 64.0}})


def test_pksw_preset_echoes_the_coupling_that_runs(tmp_path):
    # pk_system_w puts vw in the w-equation whatever the default coupling
    cfg = ex.load_preset("pksw-small-data").override(
        ["grid.n=16", "time.t_max=5.0", f"output.dir={tmp_path}"])
    assert cfg.build_model().sources[2] == {"vw": 1.0}
    report = ex.run(cfg).report
    assert report["config"]["model"]["coupling"] == "vw_in_w"


def test_config_requires_whole_steps():
    for time, expect in (({"t_max": 9.5, "dt": 1.0}, "time.t_max"),
                         ({"t_max": 9.0, "dt": 2.0, "sample_dt": 3.0},
                          "time.sample_dt"),
                         ({"t_max": 9.0, "dt": 2.0, "sample_dt": 1.0},
                          "time.sample_dt"),
                         # default dt is L/(2n) = 2
                         ({"t_max": 10.0}, "time.t_max")):
        with pytest.raises(ConfigError, match=expect):
            ex.ExperimentConfig.from_dict({**TINY, "time": time})
    cfg = ex.ExperimentConfig.from_dict(
        {**TINY, "time": {"t_max": 9.0, "sample_dt": 4.0}})
    assert cfg.schedule() == (2.0, 4, 2)    # dt, steps, steps per sample


def test_config_json_syntax_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"grid": {"n": 16,}}')
    with pytest.raises(ConfigError, match="line 1"):
        ex.ExperimentConfig.from_file(path)


def test_config_overrides(tmp_path):
    cfg = tiny_config(tmp_path)
    new = cfg.override(["time.dt=0.5", "model.symbol=one",
                        "initial.width=[1.0,1.0,2.0]"])
    assert new["time"]["dt"] == 0.5
    assert new["model"]["symbol"] == "one"
    assert new["initial"]["width"] == [1.0, 1.0, 2.0]
    assert cfg["time"]["dt"] == 1.0    # original untouched
    with pytest.raises(ConfigError):
        cfg.override(["nonsense"])
    with pytest.raises(ConfigError):
        cfg.override(["no.such.key=1"])
    # any name may be set under an empty coefficient block; validate
    # checks the names
    sk = ex.load_preset("linear-sk-decay")
    assert sk.override(["model.coefficients.a_u=1.0"])["model"][
        "coefficients"] == {"a_u": 1.0}
    with pytest.raises(ConfigError) as err:
        sk.override(["model.coefficients.e_u=1.0"])
    assert err.value.problems == [
        "model.coefficients: {'e_u': 1.0} is not a dict of finite numbers "
        "named from a_u b_u c_u a_v b_v c_v d_v"]
    # a whole block merges into the preset's, like any other section
    pk = ex.load_preset("pk-small-data")
    assert pk.override(['model.coefficients={"a_u": 2.0}'])["model"][
        "coefficients"] == {**pk["model"]["coefficients"], "a_u": 2.0}


def test_a_section_override_keeps_the_keys_it_does_not_name():
    pk = ex.load_preset("pk-small-data")
    initial = pk.override(['initial={"seed": 3}'])["initial"]
    assert initial == {**pk["initial"], "seed": 3}
    assert initial["width"] == [1.0, 1.0, 8.0]
    assert initial["radial_power"] == [0, 0, 1]
    assert pk.override(['grid={"n": 32}'])["grid"] == {"n": 32,
                                                       "length": 256.0}


def test_overrides_apply_in_order():
    pk = ex.load_preset("pk-small-data")
    assert pk.override(["grid.n=32", 'grid={"n": 16}'])["grid"]["n"] == 16
    assert pk.override(['grid={"n": 16}', "grid.n=32"])["grid"]["n"] == 32


@pytest.mark.parametrize("name", sorted(ex.list_presets()))
def test_a_presets_own_file_is_a_config_file(name):
    path = Path(ex.__file__).parent / "presets" / f"{name}.json"
    assert "description" in json.loads(path.read_text())
    assert (ex.load_config(str(path)).to_dict()
            == ex.load_preset(name).to_dict())


@pytest.mark.parametrize("width", [0, -1, 0.0, [1.0, 1.0, 0.0],
                                   [1.0, -1.0, 8.0]])
def test_config_rejects_a_width_that_is_not_positive(width):
    with pytest.raises(ConfigError) as err:
        ex.load_preset("pk-small-data").override(
            [f"initial.width={json.dumps(width)}"])
    assert err.value.problems == [
        f"initial.width: {width!r} is not a positive finite number or a "
        "list of them"]


# -- initial data -------------------------------------------------------------

def test_make_initial_data_defaults_are_the_config_defaults():
    # every defaulted parameter of make_initial_data that names an
    # initial.* field defaults to that field's declaration in _FIELDS
    params = inspect.signature(ex.make_initial_data).parameters
    shared = [name for name, p in params.items() if f"initial.{name}" in
              ex._FIELDS and p.default is not inspect.Parameter.empty]
    assert shared == ["width", "radial_power", "mode", "band"]
    for name in shared:
        assert params[name].default == ex._FIELDS[f"initial.{name}"][0]


def test_make_initial_data_unknown_preset():
    g = SpectralGrid(8, 16.0)
    with pytest.raises(UnknownPreset):
        ex.make_initial_data("blob", g, 1.0, 0)


def test_gaussian_bump_is_real_bandlimited_dealiased():
    g = SpectralGrid(16, 32.0)
    st = ex.make_initial_data("gaussian_bump", g, 0.5, 0, width=2.0)
    assert st.t == 1.0
    assert conjugate_symmetry_defect(g, st.data) < 1e-12
    assert st.data.shape == (3,) + g.band_shape
    phys = g.to_physical(st.data[0])
    assert np.max(np.abs(phys.imag)) < 1e-13
    # physical peak is exactly the configured amplitude, at the box center
    center = tuple([g.n // 2] * 3)
    assert abs(phys[center].real - 0.5) < 1e-12
    assert np.max(np.abs(phys)) == pytest.approx(0.5, abs=1e-12)


def test_gaussian_bump_built_once_per_distinct_width(monkeypatch):
    g = SpectralGrid(16, 32.0)
    kwargs = dict(width=[1, 1, 8], radial_power=[0, 0, 1])
    built = []
    bump = ex._spectral_bump
    monkeypatch.setattr(ex, "_spectral_bump",
                        lambda *args: built.append(args[2:]) or bump(*args))
    st = ex.make_initial_data("gaussian_bump", g, 1e-3, 0, **kwargs)
    assert built == [(1, 0), (8, 1)]
    per_component = [bump(g, 1e-3, w, p) for w, p in zip(*kwargs.values())]
    assert np.array_equal(st.data, np.stack(per_component))


def preset_initial_data(cfg, grid):
    """make_initial_data with a config's initial block, as the runner
    calls it."""
    i = cfg["initial"]
    return ex.make_initial_data(
        i["preset"], grid, i["amplitude"], i["seed"],
        dim_state=cfg.build_model().dim_state, width=i["width"],
        radial_power=i["radial_power"], mode=i["mode"], band=i["band"])


@pytest.mark.parametrize("n", [16, 24])
@pytest.mark.parametrize("name", sorted(ex.list_presets()))
def test_shipped_presets_initial_data_is_real_and_dealiased(name, n):
    # the data before kexp-branch's damped-branch projection
    cfg = ex.load_preset(name)
    g = SpectralGrid(n, cfg["grid"]["length"])
    st = preset_initial_data(cfg, g)
    assert conjugate_symmetry_defect(g, st.data) \
        <= 1e-15 * np.max(np.abs(st.data))
    assert st.data.shape[1:] == g.band_shape and st.data.any()
    if cfg["initial"]["project"] == "damped_branch":
        # the stated exception: the projector P2 is the same complex matrix
        # at xi and -xi, so the projected data is not conjugate-symmetric
        cache = spectra.build_symbol_cache(g.shells[0],
                                           cfg.build_model().matrices())
        projected = ex.project_damped_branch(st, cache)
        assert (conjugate_symmetry_defect(g, projected.data)
                > 0.1 * np.max(np.abs(projected.data)))


@pytest.mark.parametrize("preset, override", [
    ("pk-small-data", "model.symbol=mixed"),
    ("k-small-data", "time.scheme=ifrk4")])
def test_a_step_with_sources_stays_in_the_dealiased_band(preset, override):
    cfg = ex.load_preset(preset).override(
        [override, "grid.n=16", "time.t_max=9"])
    g = cfg.build_grid()
    stepper = ev.Stepper(cfg.build_model(), g, cfg.schedule()[0],
                         cfg["time"]["scheme"])
    assert not stepper.source_free
    st = preset_initial_data(cfg, g)
    out = stepper.step(st)
    assert out.data.shape[1:] == g.band_shape and out.data.any()


@pytest.mark.parametrize("n", [15, 16])
def test_initial_data_and_projection_leave_no_mode_outside_the_band(n):
    # every state lives on the band's cube, its edge modes included
    g = SpectralGrid(n, 32.0)
    k = g.dealias_limit     # data reaching the band edge
    made = [ex.make_initial_data("gaussian_bump", g, 0.5, 0,
                                 width=[0.1, 2.0, 3.0],
                                 radial_power=[0, 1, 2]),
            ex.make_initial_data("random_bandlimited", g, 0.5, 1, band=k),
            ex.make_initial_data("single_mode", g, 0.5, 0, mode=(k, -k, 1))]
    cache = spectra.build_symbol_cache(g.shells[0],
                                       spectra.three_component_model())
    made += [ex.project_damped_branch(st, cache) for st in made]
    edge = np.abs(g.band_k) == k
    for st in made:
        assert st.data.any() and st.data.shape[1:] == g.band_shape
        assert st.data[:, edge].any()


def test_seed_stability_bit_identical():
    g = SpectralGrid(16, 32.0)
    a = ex.make_initial_data("random_bandlimited", g, 1e-2, 42)
    b = ex.make_initial_data("random_bandlimited", g, 1e-2, 42)
    c = ex.make_initial_data("random_bandlimited", g, 1e-2, 43)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


def test_single_mode_closed_form():
    g = SpectralGrid(16, 32.0)
    st = ex.make_initial_data("single_mode", g, 2.0, 0, mode=(2, 1, 0))
    k = g.dk * np.array([2.0, 1.0, 0.0])
    expect = np.sqrt((1 + k @ k) ** norms.SOBOLEV_N * 4.0
                     * g.length ** g.ndim / 2)
    got = norms.sobolev_norm(g, st.data[0], norms.SOBOLEV_N)
    assert abs(got - expect) <= 1e-10 * expect
    with pytest.raises(ConfigError):
        ex.make_initial_data("single_mode", g, 1.0, 0, mode=(g.n, 0, 0))


def test_e_n_scales_linearly_in_amplitude():
    g = SpectralGrid(16, 32.0)
    a = ex.make_initial_data("gaussian_bump", g, 1e-3, 0, width=2.0)
    b = ex.make_initial_data("gaussian_bump", g, 2e-3, 0, width=2.0)
    ea, eb = norms.initial_energy(a), norms.initial_energy(b)
    assert abs(eb - 2 * ea) <= 1e-9 * ea


def test_damped_branch_projection_decays_fast():
    g = SpectralGrid(16, 32.0)
    st = ex.make_initial_data("gaussian_bump", g, 1.0, 0, width=2.0,
                              dim_state=2)
    cache = spectra.build_symbol_cache(g.shells[0],
                                       spectra.two_component_model())
    proj = ex.project_damped_branch(st, cache)
    # projecting twice is idempotent
    again = ex.project_damped_branch(proj, cache)
    assert np.max(np.abs(again.data - proj.data)) < 1e-10


def test_a_projected_run_samples_its_own_state_first(tmp_path):
    # kexp-branch projects before E_N: its e_n is the E_N of the projected
    # state that the run evolves, and its first sample reads that state's
    # L^inf from E_N's band inverses, so the samples take two fewer
    cfg = ex.load_preset("kexp-branch").override(
        ["grid.n=16", "time.t_max=2.0", 'norms=["linf:u", "linf:v", "l2:u"]',
         f"output.dir={tmp_path}"])
    result = ex.run(cfg)
    g, model = cfg.build_grid(), cfg.build_model()
    data = preset_initial_data(cfg, g)
    cache = spectra.build_symbol_cache(g.shells[0], model.matrices())
    projected = ex.project_damped_branch(data, cache)
    assert result.report["e_n"] == norms.initial_energy(projected)
    for i, name in enumerate(("u_linf", "v_linf")):
        first = result.series[name][1][0]
        assert first == norms.band_linf(g, projected.data[i])
        assert first != norms.band_linf(g, data.data[i])
    samples = len(result.series["u_linf"][0])
    assert result.report["transforms"]["samples"]["band"] == 2 * samples - 2


# -- runner -------------------------------------------------------------------

def test_run_writes_outputs_and_echoes_config(tmp_path):
    cfg = tiny_config(tmp_path)
    res = ex.run(cfg)
    assert res.status == "completed" and res.exit_code == 0
    report = json.loads(open(res.report_path).read())
    assert report["config"] == cfg.to_dict()
    echoed = ex.ExperimentConfig.from_dict(report["config"])
    assert echoed.to_dict() == cfg.to_dict()
    assert report["e_n"] > 0
    lines = open(res.csv_path).read().splitlines()
    assert lines[0] == "t,norm_name,value"
    assert len(lines) > 20


def test_run_determinism_byte_identical(tmp_path):
    r1 = ex.run(tiny_config(tmp_path / "a"))
    r2 = ex.run(tiny_config(tmp_path / "b"))
    assert open(r1.csv_path, "rb").read() == open(r2.csv_path, "rb").read()


def test_report_provenance_hashes_the_config_but_not_its_output(tmp_path):
    # the hash is the sha256 of the sorted JSON of the config without its
    # output block, in 16 hex digits, as perfbench hashes a workload's
    # config: two output dirs share it, an override changes it
    cfgs = [tiny_config(tmp_path / "a"), tiny_config(tmp_path / "b"),
            tiny_config(tmp_path / "c").override(["initial.seed=4"])]
    reports = [json.loads(open(ex.run(cfg).report_path).read())
               for cfg in cfgs]
    hashes = []
    for cfg, report in zip(cfgs, reports):
        hashes.append(workloads.config_hash(cfg))
        assert report["provenance"] == {
            "pdhyp": pdhyp.__version__, "python": platform.python_version(),
            "numpy": np.__version__, "fft": "numpy.fft", "threads": 1,
            "config_hash": hashes[-1]}
    assert hashes[0] == hashes[1] != hashes[2]


@pytest.mark.parametrize("name", sorted(ex.list_presets()))
def test_report_states_the_sk_verdict(name, tmp_path):
    # the 3x3 presets leave w = e_3 undamped, transported at speed 1; the
    # 2x2 presets satisfy [SK]
    res = ex.run(ex.load_preset(name).override(
        ["grid.n=16", "time.t_max=5.0", f"output.dir={tmp_path}"]))
    on_disk = json.loads(open(res.report_path).read())["sk"]
    assert on_disk == res.report["sk"]
    if res.report["config"]["model"]["kind"] == "k_system":
        assert on_disk == {"holds": True, "undamped": []}
    else:
        assert on_disk == {"holds": False, "undamped": [
            {"direction": [0.0, 0.0, 1.0], "speed": 1.0}]}


def test_run_series_equals_its_csv(tmp_path):
    res = ex.run(ex.load_preset("pk-small-data").override(
        ["grid.n=16", "time.t_max=9.0", f"output.dir={tmp_path}"]))
    parsed = {}
    for line in open(res.csv_path).read().splitlines()[1:]:
        t, name, value = line.split(",")
        ts, vs = parsed.setdefault(name, ([], []))
        ts.append(float(t))
        vs.append(float(value))
    assert list(res.series) == list(parsed)
    for name, (t, v) in res.series.items():
        assert t.tolist() == parsed[name][0], name
        assert v.tolist() == parsed[name][1], name


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


def test_run_zero_amplitude_trivial(tmp_path):
    cfg = tiny_config(tmp_path).override(["initial.amplitude=0.0"])
    res = ex.run(cfg)
    assert res.status == "completed"
    vals = [float(line.split(",")[2])
            for line in open(res.csv_path).read().splitlines()[1:]]
    assert all(v == 0.0 for v in vals)
    # E_N = 0: no constant to fit, and M0 = 0 <= C * E_N holds
    with open(res.report_path) as fh:
        m0 = json.loads(fh.read(), parse_constant=_refuse)["m0"]
    assert m0["e_n"] == 0.0 and m0["fitted_c"] is None and m0["bounded"]


def test_run_blowup_guard_statuses(tmp_path):
    cfg = tiny_config(
        tmp_path,
        model={"kind": "k_system",
               "coefficients": {"a_u": 5.0, "b_u": 5.0, "a_v": 5.0,
                                "b_v": 5.0},
               "symbol": "none"})
    cfg = cfg.override(["initial.amplitude=50.0", "time.dt=0.5"])
    res = ex.run(cfg)
    assert res.status == "blowup" and res.exit_code == 3
    assert res.report["status"] == "blowup"
    # tripped after one accepted step: the step to t = 2 is rejected, the
    # run ends at the last good state, and the rejected step still counts
    said = []
    res = ex.run(cfg.override(["initial.amplitude=2.0"]), log=said.append)
    assert res.status == "blowup" and "tripped at t=2" in said[0]
    with open(res.csv_path) as fh:
        last = float(fh.read().splitlines()[-1].split(",")[0])
    assert res.report["t_final"] == last == 2.0 - 0.5
    assert res.report["m0"] is None
    assert all(len(t) == len(v) == 2 for t, v in res.series.values())
    assert res.report["transforms"]["steps"] == {"band": 2 * 6, "line": 0}
    # the report says where and why: the rejected step's t, its H^N norm
    # and the guard's limit, the figures of the log line
    with open(res.report_path) as fh:
        trip = json.load(fh)["blowup"]
    assert trip == res.report["blowup"] and set(trip) == {"t", "h_n", "limit"}
    assert trip["t"] == 2.0 and trip["h_n"] > trip["limit"] > 0
    assert (f"H^N norm {trip['h_n']:.6g} > limit {trip['limit']:.6g}"
            in said[0])
    # a completed run reports no trip
    res = ex.run(cfg.override(["initial.amplitude=1e-3"]))
    assert res.status == "completed"
    with open(res.report_path) as fh:
        assert json.load(fh)["blowup"] is None


def test_source_free_run_checks_no_guard(tmp_path, monkeypatch):
    cfg = tiny_config(tmp_path / "plain",
                      model={"kind": "pk_system", "symbol": "none"})
    checks = []
    check = ev.BlowupGuard.check
    monkeypatch.setattr(ev.BlowupGuard, "check",
                        lambda guard, state: checks.append(state.t)
                        or check(guard, state))
    steps = []
    step = ev.Stepper.step
    monkeypatch.setattr(ev.Stepper, "step",
                        lambda stepper, state, guard=None: steps.append(
                            guard) or step(stepper, state, guard))
    plain = ex.run(cfg)
    assert plain.status == "completed" and checks == []
    assert steps == [None] * 8      # the in-place step refuses a guard


def test_a_run_frees_each_state_after_the_next_step(tmp_path, monkeypatch):
    # a frame that kept the initial state would hold one state more than
    # the step loop needs, 30 MB at n = 128
    stepped, step = [], ev.Stepper.step

    def tracked(stepper, state, guard=None):
        assert [ref() for ref in stepped if ref() is not None] == []
        stepped.append(weakref.ref(state))
        return step(stepper, state, guard)

    monkeypatch.setattr(ev.Stepper, "step", tracked)
    assert ex.run(tiny_config(tmp_path)).status == "completed"
    assert len(stepped) == 8


def test_wave_profile_only_for_profile_norms(tmp_path, monkeypatch):
    calls = []
    profile = ev.wave_profile
    monkeypatch.setattr(ev, "wave_profile",
                        lambda state: calls.append(state.t) or profile(state))
    wave_norms = ex.load_preset("wave-invariants")["norms"]
    res = ex.run(tiny_config(tmp_path / "wave", norms=wave_norms))
    assert res.status == "completed" and calls == []
    pk = ex.load_preset("pk-small-data")
    ex.run(tiny_config(tmp_path / "pk", model=pk["model"], norms=pk["norms"]))
    assert calls == [1.0 + i for i in range(9)]


def test_run_propagates_unexpected_fit_errors(tmp_path, monkeypatch):
    def broken(*args):
        raise RuntimeError("bug in the fit")
    monkeypatch.setattr(norms, "fit_decay", broken)
    with pytest.raises(RuntimeError, match="bug in the fit"):
        ex.run(tiny_config(tmp_path))


def test_presets_ship_and_load():
    names = ex.list_presets()
    for required in ("linear-sk-decay", "kexp-branch", "wave-invariants",
                     "k-small-data", "pk-small-data", "pksw-small-data"):
        assert required in names
        cfg = ex.load_preset(required)
        # every preset respects the no-wrap invariant by construction
        assert cfg["time"]["t_max"] < cfg["grid"]["length"] / 4.0
    with pytest.raises(UnknownPreset):
        ex.load_preset("nonexistent")


@pytest.mark.parametrize("symbol, vanishes", [("null_b", True),
                                              ("mixed", False)])
def test_run_warns_when_the_diagonal_source_vanishes(tmp_path, symbol,
                                                     vanishes):
    cfg = ex.load_preset("pk-small-data").override(
        [f"model.symbol={symbol}", "grid.n=16", "time.t_max=5",
         f"output.dir={tmp_path}"])
    said = []
    res = ex.run(cfg, log=said.append)
    warnings = res.report["warnings"]
    assert json.loads(open(res.report_path).read())["warnings"] == warnings
    if vanishes:
        assert len(warnings) == 1 and "'null_b'" in warnings[0]
        assert f"warning: {warnings[0]}" in said
    else:
        assert warnings == [] and not any("warning" in s for s in said)


@pytest.mark.parametrize("preset, step_bands", [("pk-small-data", 20),
                                                ("pksw-small-data", 16)])
def test_a_vanishing_diagonal_source_costs_no_apply(tmp_path, monkeypatch,
                                                    preset, step_bands):
    # null_b's T_m(w, w) is identically zero, so no rhs calls
    # pseudoproduct.apply; the report still warns, and its transform
    # counts are those of the runs that applied it and added zeros (the
    # sample at t = 1 reads u, v and w's L^inf from E_N's band inverse)
    calls = []
    apply = pseudoproduct.apply
    monkeypatch.setattr(pseudoproduct, "apply",
                        lambda *args: calls.append(args) or apply(*args))
    cfg = ex.load_preset(preset).override(
        ["model.symbol=null_b", "grid.n=16", "time.t_max=5",
         f"output.dir={tmp_path}"])
    report = ex.run(cfg, log=lambda line: None).report
    assert calls == []
    assert report["warnings"] == [
        "T_m(w, w) is identically zero: the symmetric part of symbol "
        "'null_b' vanishes, so no pseudoproduct source acts on w"]
    assert report["transforms"] == {
        "setup": {"band": 4, "line": 18},
        "steps": {"band": step_bands, "line": 0},
        "samples": {"band": 15, "line": 36}}
