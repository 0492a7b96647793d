"""Plain-text scenario configuration: sectioned key=value files.

A scenario file has the sections [noise], [sequence], [channel],
[parties], [timing] and [run]. Each physical parameter the simulator
reads has exactly one key: the heralding efficiency is [noise]
eta_detect, the photon load [channel] n_m. Unknown sections or keys are
rejected, and every downstream invariant is revalidated when the
dataclasses are built. Serialization is canonical, so
parse(serialize(cfg)) round-trips.
"""

from __future__ import annotations

import configparser
import dataclasses
import io
from dataclasses import asdict, dataclass
from decimal import Decimal, InvalidOperation
from importlib import resources
from pathlib import Path
from typing import Union

from .bsm import ChannelConfig, SequenceConfig
from .qubits import NoiseParams
from .session import PartyConfig, TimingOverheads

DEFAULT_SEED = 123456789
# The fast engine's multinomial draws count cycles in int64.
_MAX_CYCLES = 2**63 - 1
# Both engines hold a few arrays of N entries per point; a million slots
# is far beyond any pulse sequence and still fits in memory.
_MAX_SLOTS = 1_000_000


class ConfigError(ValueError):
    """Invalid or unknown scenario configuration."""


@dataclass(frozen=True)
class ScenarioConfig:
    noise: NoiseParams
    sequence: SequenceConfig
    n_m: float
    parties: PartyConfig
    overheads: TimingOverheads
    cycles: int
    seed: int

    def __post_init__(self) -> None:
        # Checked here so that every way of building or editing a scenario
        # (parsing, CLI overrides, sweep points) reports a ConfigError.
        if self.sequence.n_qubits > _MAX_SLOTS:
            raise ConfigError(
                f"N = {self.sequence.n_qubits} qubit slots exceeds the limit of {_MAX_SLOTS}"
            )
        if not 0 <= self.n_m <= self.sequence.n_qubits:
            raise ConfigError(
                f"n_m must lie in [0, N = {self.sequence.n_qubits}] (at most one photon "
                f"per slot on average), got {self.n_m}"
            )
        if not 1 <= self.cycles <= _MAX_CYCLES:
            raise ConfigError(f"cycles must lie in [1, 2**63 - 1], got {self.cycles}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")

    def channel(self) -> ChannelConfig:
        return ChannelConfig.from_mean_photons(self.n_m, self.sequence.n_qubits)

    def replace(self, **kwargs) -> "ScenarioConfig":
        return dataclasses.replace(self, **kwargs)


def default_config() -> ScenarioConfig:
    return ScenarioConfig(
        noise=NoiseParams(),
        sequence=SequenceConfig(),
        n_m=0.02,
        parties=PartyConfig(),
        overheads=TimingOverheads(),
        cycles=1_000_000,
        seed=DEFAULT_SEED,
    )


def _sections(cfg: ScenarioConfig) -> dict[str, dict[str, object]]:
    """The scenario's key = value entries by file section."""
    return {
        "noise": asdict(cfg.noise),
        "sequence": asdict(cfg.sequence),
        "channel": {"n_m": cfg.n_m},
        "parties": asdict(cfg.parties),
        "timing": asdict(cfg.overheads),
        "run": {"cycles": cfg.cycles, "seed": cfg.seed},
    }


def _parse_int(raw: str) -> int:
    """An integer literal, also in exponent notation such as 2e6, never rounded."""
    try:
        value = Decimal(raw)
    except InvalidOperation:
        raise ValueError(f"invalid literal for int(): {raw!r}") from None
    if not value.is_finite() or value != value.to_integral_value():
        raise ValueError(f"{raw!r} is not an integer")
    if value.adjusted() >= 4300:  # int()'s own digit limit; longer ones convert slowly
        raise ValueError(f"{raw!r} has more than 4300 digits")
    return int(value)


def _convert(section: str, key: str, raw: str, kind: type):
    try:
        if kind is int:
            return _parse_int(raw)
        if kind is float:
            return float(raw)
        return raw.strip()
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc


def parse_config(text: str) -> ScenarioConfig:
    # default_section="" makes [DEFAULT] an ordinary, and so unknown, section.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        # configparser's own messages span lines and call the text '<string>'.
        lineno = getattr(exc, "lineno", None) or exc.errors[0][0]
        problem = {
            configparser.MissingSectionHeaderError: "comes before any [section] header",
            configparser.DuplicateSectionError: "repeats a section",
            configparser.DuplicateOptionError: "repeats a key of its section",
        }.get(type(exc), "is neither a [section] header nor a key = value line")
        line = text.split("\n")[lineno - 1].strip()
        raise ConfigError(f"malformed config: line {lineno} {line!r} {problem}") from exc

    # Each key's type is that of its default value.
    entries = _sections(default_config())
    for section in parser.sections():
        if section == "cavity":
            raise ConfigError(
                "[cavity] is not a scenario section: the simulated heralding efficiency "
                "is [noise] eta_detect and the leakage amplitude [noise] eps_leak"
            )
        if section not in entries:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in entries[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            entries[section][key] = _convert(section, key, raw, type(entries[section][key]))

    def build(cls, section):
        try:
            return cls(**entries[section])
        except ValueError as exc:
            raise ConfigError(f"invalid [{section}] configuration: {exc}") from exc

    return ScenarioConfig(
        noise=build(NoiseParams, "noise"),
        sequence=build(SequenceConfig, "sequence"),
        n_m=entries["channel"]["n_m"],
        parties=build(PartyConfig, "parties"),
        overheads=build(TimingOverheads, "timing"),
        cycles=entries["run"]["cycles"],
        seed=entries["run"]["seed"],
    )


def serialize_config(cfg: ScenarioConfig) -> str:
    out = io.StringIO()
    for section, entries in _sections(cfg).items():
        out.write(f"[{section}]\n")
        for key, value in entries.items():
            out.write(f"{key} = {value}\n")
        out.write("\n")
    return out.getvalue()


def load_config(path: Union[str, Path]) -> ScenarioConfig:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # drops a byte-order mark
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def list_presets() -> list[str]:
    names = []
    for item in resources.files("memqkd.presets").iterdir():
        if item.name.endswith(".cfg"):
            names.append(item.name[: -len(".cfg")])
    return sorted(names)


def load_preset(name: str) -> ScenarioConfig:
    if name not in list_presets():  # a shipped preset's name, never a path
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(list_presets())}"
        )
    return parse_config(resources.files("memqkd.presets").joinpath(f"{name}.cfg").read_text())
