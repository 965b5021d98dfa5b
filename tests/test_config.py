"""Config file loading, validation, sweep grids and overrides."""

import json

import pytest

from ptcsim.arch import ArchConfig
from ptcsim.config import (
    Config,
    ConfigError,
    DstConfig,
    SweepSpec,
    apply_overrides,
    load_config,
    resolve_seed,
)
from ptcsim.devices import DeviceParams
from ptcsim.layout import LayoutParams


def _write(tmp_path, data) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return str(path)


def test_defaults_from_nothing(tmp_path):
    for cfg in (load_config(None),
                load_config(_write(tmp_path, "")),
                load_config(_write(tmp_path, {}))):
        assert cfg.device == DeviceParams()
        assert cfg.layout == LayoutParams()
        assert cfg.arch == ArchConfig()
        assert cfg.dst == DstConfig()
        assert cfg.sweep.axes == (("layout.l_s_um", (7.0, 8.0, 9.0, 10.0, 11.0)),)
        assert cfg.seed is None


def test_partial_overrides(tmp_path):
    cfg = load_config(_write(tmp_path, {
        "layout": {"l_s_um": 7.0},
        "arch": {"k1": 8, "dac_kind": "eodac"},
        "dst": {"epochs": 5, "density": 0.4},
        "seed": 3,
    }))
    assert cfg.layout.l_s_um == 7.0
    assert cfg.layout.l_g_um == LayoutParams().l_g_um       # untouched
    assert cfg.arch.k1 == 8 and cfg.arch.dac_kind == "eodac"
    assert cfg.dst.epochs == 5 and cfg.dst.density == 0.4
    assert cfg.seed == 3


def test_declared_column_pitch_must_be_consistent(tmp_path):
    ok = {"layout": {"l_s_um": 7.0, "l_g_um": 5.0, "l_h_um": 18.0}}
    assert load_config(_write(tmp_path, ok)).layout.l_h_um == 18.0
    bad = {"layout": {"l_s_um": 7.0, "l_h_um": 20.0}}
    with pytest.raises(ConfigError, match="contradicts"):
        load_config(_write(tmp_path, bad))


def test_unknown_names_are_hard_errors(tmp_path):
    with pytest.raises(ConfigError, match="unknown section"):
        load_config(_write(tmp_path, {"devices": {}}))
    with pytest.raises(ConfigError, match="unknown key 'device.nope'"):
        load_config(_write(tmp_path, {"device": {"nope": 1}}))
    with pytest.raises(ConfigError, match="must be a JSON object"):
        load_config(_write(tmp_path, {"arch": [1, 2]}))
    with pytest.raises(ConfigError, match="unknown key 'dst.seed'"):
        load_config(_write(tmp_path, {"dst": {"seed": 1}}))


def test_type_and_value_errors(tmp_path):
    with pytest.raises(ConfigError, match="must be an integer"):
        load_config(_write(tmp_path, {"arch": {"k1": 4.5}}))
    # integral floats are fine
    assert load_config(_write(tmp_path, {"arch": {"k1": 4.0}})).arch.k1 == 4.0
    with pytest.raises(ConfigError, match="dst.density"):
        load_config(_write(tmp_path, {"dst": {"density": 0}}))
    with pytest.raises(ConfigError, match="section 'device'"):
        load_config(_write(tmp_path, {"device": {"p_pi_mw": -1}}))
    with pytest.raises(ConfigError, match="seed must be an integer"):
        load_config(_write(tmp_path, {"seed": "abc"}))
    with pytest.raises(ConfigError, match="seed must be an integer"):
        load_config(_write(tmp_path, {"seed": True}))


def test_bad_json(tmp_path):
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(_write(tmp_path, "{not json"))
    with pytest.raises(ConfigError, match="top level"):
        load_config(_write(tmp_path, "[1, 2]"))


def test_phase_shifter_width_lives_in_layout(tmp_path):
    cfg = load_config(_write(tmp_path, {"layout": {"ps_width_um": 7.0}}))
    assert cfg.layout.ps_width_um == 7.0
    assert cfg.layout.l_h_um == 9.0 + 7.0 + 5.0
    assert not hasattr(cfg.device, "ps_width_um")
    with pytest.raises(ConfigError, match="unknown key 'device.ps_width_um'"):
        load_config(_write(tmp_path, {"device": {"ps_width_um": 7.0}}))


# ---------------------------------------------------------------------------
# sweep grids
# ---------------------------------------------------------------------------

def test_sweep_spec_accepts_dict_and_pairs():
    a = SweepSpec(axes={"layout.l_s_um": [7, 8]})
    b = SweepSpec(axes=[["layout.l_s_um", [7, 8]]])
    assert a.axes == b.axes == (("layout.l_s_um", (7, 8)),)


def test_sweep_grid_order_first_axis_slowest():
    spec = SweepSpec(axes=[["layout.l_s_um", [7, 8]], ["arch.r", [2, 4]]])
    assert spec.grid() == [
        {"layout.l_s_um": 7, "arch.r": 2},
        {"layout.l_s_um": 7, "arch.r": 4},
        {"layout.l_s_um": 8, "arch.r": 2},
        {"layout.l_s_um": 8, "arch.r": 4},
    ]


def test_sweep_spec_validation():
    with pytest.raises(ConfigError, match="section.field"):
        SweepSpec(axes={"nope": [1]})
    with pytest.raises(ConfigError, match="section must be one of"):
        SweepSpec(axes={"foo.bar": [1]})
    with pytest.raises(ConfigError, match="no field"):
        SweepSpec(axes={"layout.nope": [1]})
    with pytest.raises(ConfigError, match="duplicate"):
        SweepSpec(axes=[["arch.r", [1]], ["arch.r", [2]]])
    with pytest.raises(ConfigError, match="non-empty"):
        SweepSpec(axes={"arch.r": []})
    with pytest.raises(ConfigError, match="at least one axis"):
        SweepSpec(axes=[])
    with pytest.raises(ConfigError, match="pair"):
        SweepSpec(axes=[["arch.r", [1], "extra"]])
    with pytest.raises(ConfigError, match="must be a string"):
        SweepSpec(axes=[[3, [1]]])


def test_apply_overrides_substitutes_and_revalidates():
    cfg = load_config(None)
    out = apply_overrides(cfg, {"layout.l_s_um": 7.0, "arch.k2": 8})
    assert out.layout.l_s_um == 7.0 and out.arch.k2 == 8
    assert cfg.layout.l_s_um == 9.0                     # original untouched
    with pytest.raises(ConfigError, match="sweep point"):
        apply_overrides(cfg, {"layout.l_s_um": -3.0})
    with pytest.raises(ConfigError, match="no field"):
        apply_overrides(cfg, {"layout.bogus": 1.0})


def test_apply_overrides_sets_ps_width_in_layout_only():
    cfg = load_config(None)
    out = apply_overrides(cfg, {"layout.ps_width_um": 8.0})
    assert out.layout.ps_width_um == 8.0
    assert out.layout.l_h_um == 9.0 + 8.0 + 5.0
    assert out.device == cfg.device
    with pytest.raises(ConfigError, match="no field"):
        apply_overrides(cfg, {"device.ps_width_um": 8.0})


def test_resolve_seed_precedence():
    cfg = load_config(None)
    seeded = Config(cfg.device, cfg.layout, cfg.arch, cfg.dst, cfg.sweep, seed=3)
    assert resolve_seed(5, seeded) == 5
    assert resolve_seed(None, seeded) == 3
    assert resolve_seed(None, cfg) == 0


def test_dst_config_bounds():
    for bad in ({"density": 1.5}, {"epochs": 0}, {"batch_size": 0},
                {"lr": 0.0}, {"alpha0": 0.0}, {"alpha0": 1.5},
                {"t_end_frac": 0.0}, {"t_end_frac": 1.5}, {"pool_margin": -1}):
        with pytest.raises(ConfigError):
            DstConfig(**bad)
