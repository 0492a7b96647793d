import configparser
import dataclasses
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memqkd.bsm import SequenceConfig
from memqkd.config import (
    ConfigError,
    ScenarioConfig,
    default_config,
    list_presets,
    load_config,
    load_preset,
    parse_config,
    serialize_config,
    with_entries,
)
from memqkd.qubits import NoiseParams
from memqkd.session import PartyConfig, TimingOverheads

FINITE = {"allow_nan": False, "allow_infinity": False}
UNIT = st.floats(0.0, 1.0)


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


def _entries(text: str) -> dict[tuple[str, str], str]:
    """Each (section, key) a scenario text sets, with its raw value."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    return {
        (section, key): raw for section in parser.sections() for key, raw in parser.items(section)
    }


def _preset_text(name: str) -> str:
    return resources.files("memqkd.presets").joinpath(f"{name}.cfg").read_text()


def test_presets_carry_explicit_seeds():
    for name in list_presets():
        assert ("run", "seed") in _entries(_preset_text(name))


@pytest.mark.parametrize("name", list_presets())
def test_presets_set_only_what_differs_from_the_default(name):
    # Every other key takes its value from default_config(), so a calibrated
    # constant is written once. Serialization is canonical: two values are
    # equal exactly when their serialized texts are.
    default = _entries(serialize_config(default_config()))
    preset = _entries(serialize_config(load_preset(name)))
    restated = [key for key in _entries(_preset_text(name)) if preset[key] == default[key]]
    assert restated == []


def test_fig4_preset_is_the_default_scenario_with_one_transmitter():
    default = default_config()
    assert load_preset("fig4-point-N124") == default.replace(
        parties=dataclasses.replace(default.parties, assignment="single"),
        cycles=10**9,
        seed=41,
    )


def test_unknown_section_rejected():
    with pytest.raises(ConfigError):
        parse_config("[bogus]\nx = 1\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        parse_config("[noise]\neps_leak = 0.1\nflux_capacitance = 3\n")


def test_byte_order_mark_is_ignored(tmp_path):
    text = b"[noise]\np_mw = 0.1\n"
    (tmp_path / "plain.cfg").write_bytes(text)
    (tmp_path / "marked.cfg").write_bytes(b"\xef\xbb\xbf" + text)
    marked = load_config(tmp_path / "marked.cfg")
    assert marked == load_config(tmp_path / "plain.cfg") and marked.noise.p_mw == 0.1


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
        parse_config("[run]\ncycles = 0\n")
    with pytest.raises(ConfigError):
        parse_config("[parties]\nmode = banana\n")


@pytest.mark.parametrize("text,problem", [
    ("[noise\neps_leak = 0.1\n", "line 1 '[noise' comes before any [section] header"),
    ("n_m = 0.1\n[channel]\n", "line 1 'n_m = 0.1' comes before any [section] header"),
    ("[noise]\neps_leak\n  = 0.1\n",
     "line 2 'eps_leak' is neither a [section] header nor a key = value line"),
    ("[noise]\np_mw = 0.1\np_mw = 0.2\n", "line 3 'p_mw = 0.2' repeats a key of its section"),
    ("[run]\n\n[run]\n", "line 3 '[run]' repeats a section"),
], ids=["unclosed-section", "key-before-section", "indented-continuation", "duplicate-key",
        "duplicate-section"])
def test_malformed_config_names_its_first_bad_line(text, problem):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == f"malformed config: {problem}"


def test_cavity_section_rejected():
    # The device model's constants are not simulator inputs; the message
    # names the keys that are.
    with pytest.raises(ConfigError, match=r"\[noise\] eta_detect") as info:
        parse_config("[cavity]\nr_up = 0.944\nr_down = 0.041\n")
    assert "eps_leak" in str(info.value)


@st.composite
def scenarios(draw) -> ScenarioConfig:
    """Valid scenarios: every section, each value inside its validated range."""
    noise = NoiseParams(**{f.name: draw(UNIT) for f in dataclasses.fields(NoiseParams)})
    n_sub = draw(st.sampled_from([1, 2, 4]))
    pi_time_ns = draw(st.floats(0.0, 1e300))
    sequence = SequenceConfig(
        n_pi=draw(st.integers(1, 1_000_000 // n_sub)),
        n_sub=n_sub,
        delta_t_ns=draw(st.floats(min_value=pi_time_ns, exclude_min=True, **FINITE)),
        pi_time_ns=pi_time_ns,
    )
    parties = PartyConfig(
        mode=draw(st.sampled_from(["qkd", "chsh"])),
        basis_bias=draw(UNIT),
        assignment=draw(st.sampled_from(["random", "alternating", "single"])),
    )
    lock_s = draw(st.floats(min_value=0.0, **FINITE))
    overheads = TimingOverheads(
        lock_s=lock_s,
        block_s=draw(st.floats(min_value=0.0, exclude_min=lock_s > 0, **FINITE)),
        readout_s=draw(st.floats(min_value=0.0, **FINITE)),
        duty_factor=draw(st.floats(0.0, 1.0, exclude_min=True)),
    )
    return ScenarioConfig(
        noise=noise,
        sequence=sequence,
        n_m=draw(st.floats(0.0, float(sequence.n_qubits))),
        parties=parties,
        overheads=overheads,
        cycles=draw(st.integers(1, 2**63 - 1)),
        seed=draw(st.integers(0, 2**63 - 1)),
    )


@settings(max_examples=300, deadline=None)
@given(cfg=scenarios())
def test_round_trip_generated_configs(cfg):
    assert parse_config(serialize_config(cfg)) == cfg


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


@pytest.mark.parametrize("entry,built", [
    (("sequence", "N", "60"), ["SequenceConfig", "ScenarioConfig"]),
    (("channel", "n_m", "0"), ["ScenarioConfig"]),
], ids=["N", "n_m"])
def test_a_sweep_point_rebuilds_only_the_sections_it_names(entry, built, monkeypatch):
    # Each dataclass that is built runs its __post_init__ checks once.
    names = []
    for cls in (NoiseParams, SequenceConfig, PartyConfig, TimingOverheads, ScenarioConfig):
        monkeypatch.setattr(cls, "__post_init__",
                            lambda self, check=cls.__post_init__: names.append(
                                type(self).__name__) or check(self))
    cfg = load_preset("fig4-point-N124")
    names.clear()
    point = with_entries(cfg, [entry, ("run", "seed", "42")])
    assert names == built
    assert point.seed == 42 and (point.sequence.n_qubits, point.n_m) != (cfg.sequence.n_qubits, cfg.n_m)
    assert all(getattr(point, f) is getattr(cfg, f) for f in ("noise", "parties", "overheads"))


def test_n_is_no_file_key():
    # N sets n_pi from the command line only; configparser lowercases a file's keys.
    assert with_entries(default_config(), [("sequence", "N", "2e2")]).sequence.n_pi == 100
    with pytest.raises(ConfigError, match=r"unknown key 'n' in section \[sequence\]"):
        parse_config("[sequence]\nN = 200\n")
