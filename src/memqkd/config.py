"""Plain-text scenario configuration: sectioned key=value files.

A scenario file has the sections [noise], [sequence], [channel],
[parties], [timing] and [run]. Each physical parameter the simulator
reads has exactly one key: the heralding efficiency is [noise]
eta_detect, the photon load [channel] n_m. `with_entries` sets key =
value entries on a scenario, from a file, a command-line flag or a sweep
point alike: unknown sections or keys are rejected, and every downstream
invariant is revalidated when the dataclasses are rebuilt. Serialization
is canonical, so parse(serialize(cfg)) round-trips.
"""

from __future__ import annotations

import configparser
import dataclasses
import io
from dataclasses import asdict, dataclass
from decimal import Decimal, InvalidOperation
from importlib import resources
from pathlib import Path
from typing import Iterable, Union

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


# Each section's keys and the type of each key's default, which a raw value converts to.
_KINDS = {section: {key: type(value) for key, value in keys.items()}
          for section, keys in _sections(default_config()).items()}
# The ScenarioConfig field that holds each section's dataclass.
_HOLDERS = {"noise": "noise", "sequence": "sequence", "parties": "parties", "timing": "overheads"}


def _convert(section: str, key: str, raw: str, kind: type):
    """`raw` as a `kind`; an integer also in exponent notation such as 2e6, never rounded."""
    try:
        if kind is float:
            return float(raw)
        if kind is not int:
            return raw.strip()
        try:
            value = Decimal(raw)
        except InvalidOperation:
            raise ValueError(f"invalid literal for int(): {raw!r}") from None
        if not value.is_finite() or value != value.to_integral_value():
            raise ValueError(f"{raw!r} is not an integer")
        if value.adjusted() >= 4300:  # int()'s own digit limit; longer ones convert slowly
            raise ValueError(f"{raw!r} has more than 4300 digits")
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc


def with_entries(cfg: ScenarioConfig, entries: Iterable[tuple[str, str, str]]) -> ScenarioConfig:
    """`cfg` with each `(section, key, raw)` entry set as a scenario file sets it.

    Each raw text converts to the type of its key's default. Only the sections
    the entries name are rebuilt, so their checks run again; a bad value is a
    ConfigError that names its key. `N` in [sequence] is the slots per cycle:
    a positive multiple of n_sub, it sets n_pi. No file can name it, as
    configparser lowercases keys.
    """
    changed: dict[str, dict[str, object]] = {}
    for section, key, raw in entries:
        keys = changed.setdefault(section, {})
        if (section, key) == ("sequence", "N"):
            n, n_sub = _convert(section, key, raw, int), keys.get("n_sub", cfg.sequence.n_sub)
            if n <= 0:
                raise ConfigError(f"N must be positive, got {n}")
            if n % n_sub:
                raise ConfigError(f"N={n} is not a multiple of n_sub={n_sub}")
            keys["n_pi"] = n // n_sub
        elif key in _KINDS[section]:
            keys[key] = _convert(section, key, raw, _KINDS[section][key])
        else:
            raise ConfigError(f"unknown key {key!r} in section [{section}]")
    fields = {}
    for section, keys in changed.items():
        holder = _HOLDERS.get(section)
        if holder is None:  # [channel] and [run] keys are fields of ScenarioConfig
            fields.update(keys)
            continue
        try:
            fields[holder] = dataclasses.replace(getattr(cfg, holder), **keys)
        except ValueError as exc:
            raise ConfigError(f"invalid [{section}] configuration: {exc}") from exc
    return dataclasses.replace(cfg, **fields)


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

    for section in parser.sections():
        if section == "cavity":
            raise ConfigError(
                "[cavity] is not a scenario section: the simulated heralding efficiency "
                "is [noise] eta_detect and the leakage amplitude [noise] eps_leak"
            )
        if section not in _KINDS:
            raise ConfigError(f"unknown section [{section}]")
    return with_entries(default_config(), [
        (section, key, raw) for section in parser.sections() for key, raw in parser.items(section)
    ])


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
