"""Config file parsing and the bundled sweep presets."""

import pytest

from twrnoma.configio import (_KEYS, DEFAULT_CONFIG_TEXT, PRESETS, Preset,
                              PresetVariant, load_config, parse_config)
from twrnoma.model import ConfigError, SystemConfig
from twrnoma.sweep import SweepSpec


def test_default_text_round_trips_to_defaults():
    assert parse_config(DEFAULT_CONFIG_TEXT) == SystemConfig()


def test_decibel_variance_conversion():
    cfg = parse_config("schema_version = 1\nnoma.omega_i_db = -10\n")
    assert cfg.omega_I == pytest.approx(0.1, rel=1e-12)
    cfg = parse_config("schema_version = 1\nnoma.omega_i_db = 0\n")
    assert cfg.omega_I == pytest.approx(1.0, rel=1e-12)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        parse_config("schema_version = 1\nnoma.zeta = 3\n")
    # the link variances follow from the distances and the far users'
    # downlink shares from b1 and b3; the SIC mode is a sweep axis
    derived = [f"channel.omega{i} = 0.25" for i in (1, 2, 3, 4)]
    for line in derived + ["noma.b2 = 0.8", "noma.b4 = 0.8", "sic.mode = ipsic"]:
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(f"schema_version = 1\n{line}\n")


def test_default_text_states_every_key():
    stated = {line.split("=", 1)[0].strip()
              for line in DEFAULT_CONFIG_TEXT.splitlines()
              if line.strip() and not line.startswith("#")}
    assert stated - {"schema_version"} == set(_KEYS)


def test_duplicate_key_rejected():
    text = "schema_version = 1\nnoma.a1 = 0.8\nnoma.a1 = 0.7\n"
    with pytest.raises(ConfigError, match="line 3"):
        parse_config(text)


def test_schema_version_checked():
    with pytest.raises(ConfigError, match="schema_version"):
        parse_config("schema_version = 2\n")
    with pytest.raises(ConfigError, match="schema_version"):
        parse_config("noma.a1 = 0.8\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("schema_version = 1\nnot a pair\n")


def test_comments_and_blanks_ignored():
    text = """
# leading comment
schema_version = 1

noma.varpi1 = 0.05  # trailing comment
"""
    assert parse_config(text).varpi1 == 0.05


def test_invalid_values_surface_model_errors():
    with pytest.raises(ConfigError, match="b1 must lie in"):
        parse_config("schema_version = 1\nnoma.b1 = 0.7\n")
    with pytest.raises(ConfigError, match="b3 must lie in"):
        parse_config("schema_version = 1\nnoma.b3 = nan\n")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "nope.cfg"))
    target = tmp_path / "ok.cfg"
    target.write_text(DEFAULT_CONFIG_TEXT)
    assert load_config(str(target)) == SystemConfig()


def test_preset_catalog_shape():
    assert set(PRESETS) == {f"fig{i}" for i in range(2, 9)}
    for name, preset in PRESETS.items():
        assert preset.snr[0] < preset.snr[1]
        assert preset.snr[2] > 0
        assert preset.signals
        assert preset.variants


def test_presets_are_validated_sweep_specs():
    for preset in PRESETS.values():
        assert isinstance(preset, SweepSpec)
    # a preset is checked like any spec when it is built
    with pytest.raises(ConfigError, match="baseline"):
        Preset(metric="throughput_dl", with_oma=True)
    assert Preset(metric="outage").variants == (PresetVariant("", {}),)


def test_reference_outage_preset_bundles_baselines():
    fig2 = PRESETS["fig2"]
    assert fig2.metric == "outage"
    assert fig2.with_oma and fig2.with_asymptotic
    assert fig2.modes == ("ipsic", "psic")


def test_residual_strength_preset_turns_leakage_off():
    fig4 = PRESETS["fig4"]
    assert fig4.modes == ("ipsic",)
    for variant in fig4.variants:
        assert variant.overrides["varpi1"] == 0.0
        assert variant.overrides["varpi2"] == 0.0
        assert variant.overrides["omega_I"] in (0.01, 0.1, 1.0)


def test_efficiency_preset_covers_both_modes():
    fig8 = PRESETS["fig8"]
    metrics = {v.metric for v in fig8.variants}
    assert metrics == {"ee_dl", "ee_dt"}
