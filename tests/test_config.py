import pytest

from memqkd.config import (
    ConfigError,
    default_config,
    list_presets,
    load_preset,
    parse_config,
    serialize_config,
)


def test_round_trip_default_config():
    cfg = default_config()
    assert parse_config(serialize_config(cfg)) == cfg


def test_round_trip_all_presets():
    for name in list_presets():
        cfg = load_preset(name)
        assert parse_config(serialize_config(cfg)) == cfg


def test_expected_presets_exist():
    names = list_presets()
    assert "fig4-point-N124" in names
    assert "fig3-chsh-ideal" in names
    assert "fig3-chsh-qber11" in names


def test_presets_carry_explicit_seeds():
    for name in list_presets():
        assert load_preset(name).seed is not None


def test_unknown_section_rejected():
    with pytest.raises(ConfigError):
        parse_config("[bogus]\nx = 1\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        parse_config("[noise]\neps_leak = 0.1\nflux_capacitance = 3\n")


def test_partial_config_keeps_defaults():
    cfg = parse_config("[channel]\nn_m = 0.05\n")
    assert cfg.n_m == 0.05
    assert cfg.sequence.n_pi == default_config().sequence.n_pi


def test_downstream_invariants_revalidated():
    with pytest.raises(ConfigError):
        parse_config("[sequence]\nn_sub = 3\n")
    with pytest.raises(ConfigError):
        parse_config("[noise]\nf_readout = 1.5\n")
    with pytest.raises(ConfigError):
        parse_config("[cavity]\nr_up = 0.1\nr_down = 0.5\n")
    with pytest.raises(ConfigError):
        parse_config("[run]\ncycles = 0\n")
    with pytest.raises(ConfigError):
        parse_config("[parties]\nmode = banana\n")


def test_scientific_notation_cycles():
    cfg = parse_config("[run]\ncycles = 2e6\n")
    assert cfg.cycles == 2_000_000


def test_non_integral_seed_rejected():
    with pytest.raises(ConfigError):
        parse_config("[run]\nseed = 1.7\n")


def test_large_seed_round_trips_exactly():
    cfg = parse_config(f"[run]\nseed = {2**53 + 1}\n")
    assert cfg.seed == 2**53 + 1
    assert parse_config(serialize_config(cfg)) == cfg


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        load_preset("fig9-nonexistent")


def test_fig4_preset_matches_benchmark_point():
    cfg = load_preset("fig4-point-N124")
    assert cfg.sequence.n_qubits == 124
    assert cfg.n_m == pytest.approx(0.02)
    assert cfg.parties.assignment == "single"
    chan = cfg.channel()
    assert chan.p_ab == pytest.approx((0.02 / 124) ** 2, rel=1e-12)
