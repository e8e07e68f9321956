"""Run configuration: one INI-style document plus command-line overrides.

The document's defaults are read from the objects that own them (the
RadioConfig and MacParams field defaults, the two bundled channel profiles
and the metric defaults), so each constant has a single source.
`--set section.key=value` patches individual entries and `--dump-config`
echoes the effective document in a form that parses back to the same
configuration. Sections and keys the document does not define, and values
that do not parse as their entry's type, are configuration errors.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

from . import metrics
from .channel import (PathLossModel, RadioConfig, default_fowlerville,
                      default_three_log_distance)
from .errors import ConfigError
from .mac import MacParams, PdMode
from .scenario import DEFAULT_TX_RATE_HZ, Topology, TopologySpec


@dataclass
class RunConfig:
    topology_spec: Optional[TopologySpec]
    trace_dir: Optional[Path]
    speed_mps: float
    duration_s: float
    seed: int
    tx_rate_hz: float
    mode: str                    # "batch" | "realtime"
    out_dir: Path
    channel_profile: str
    emit_udp: Optional[tuple[str, int]]
    hv_transmits: bool
    radio: RadioConfig
    mac: MacParams
    models: dict[str, PathLossModel]
    cbp_window_s: float
    per_bin_m: float
    per_max_distance_m: float

    @property
    def model(self) -> PathLossModel:
        try:
            return self.models[self.channel_profile]
        except KeyError:
            raise ConfigError(
                f"channel profile '{self.channel_profile}' is not defined") from None


def _default_document() -> dict[str, dict[str, object]]:
    """Every section and key of the config document with its default value.

    The default's type is the entry's type: str, bool, int, float, a tuple
    of floats, PdMode, or None for a number that may be left empty. MAC
    times are stored in seconds but written in microseconds (``_us`` keys).
    """
    mac = {}
    for name, value in asdict(MacParams()).items():
        if name.endswith("_s"):
            name, value = name[:-2] + "_us", value * 1e6
        mac[name] = value
    mac["tx_rate_hz"] = DEFAULT_TX_RATE_HZ
    three = default_three_log_distance()
    return {
        "scenario": {"topology": "disk", "radius_m": 500.0, "length_m": 3000.0,
                     "arm_length_m": 750.0, "vehicles": 100, "speed_mps": 10.0,
                     "trace_dir": "", "hv_x": None, "hv_y": None},
        "run": {"duration_s": 20.0, "seed": 1, "mode": "batch", "out": "out",
                "channel_profile": "three_log_distance", "emit_udp": "",
                "null_sink": False, "hv_transmits": True},
        "radio": asdict(RadioConfig()),
        "mac": mac,
        "metrics": {"cbp_window_s": metrics.DEFAULT_CBP_WINDOW_S,
                    "per_bin_m": metrics.DEFAULT_PER_BIN_M,
                    "per_max_distance_m": metrics.DEFAULT_PER_MAX_DISTANCE_M},
        "channel.three_log_distance": {
            **{f"d{i}_m": d for i, d in enumerate(three.boundaries_m)},
            **{f"n{i}": n for i, n in enumerate(three.exponents)},
            "ref_loss_db": three.ref_loss_db},
        "channel.fowlerville": asdict(default_fowlerville()),
    }


def _format(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ", ".join(map(repr, value))
    if isinstance(value, PdMode):
        return value.value
    return "" if value is None else str(value)


def read_config_document(path: Optional[str] = None,
                         overrides: Optional[list[str]] = None) -> configparser.ConfigParser:
    """Defaults, overlaid by a config file, overlaid by --set pairs."""
    defaults = _default_document()
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict({section: {key: _format(value) for key, value in entries.items()}
                      for section, entries in defaults.items()})
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except (OSError, configparser.Error) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for item in overrides or []:
        key, equals, value = item.partition("=")
        section, dot, option = key.strip().rpartition(".")
        if not (equals and dot):
            raise ConfigError(f"--set needs section.key=value, got '{item}'")
        parser.read_dict({section: {option.strip(): value.strip()}})
    for section in parser.sections():
        if section not in defaults:
            raise ConfigError(f"unknown config section [{section}]")
        for option in parser.options(section):
            if option not in defaults[section]:
                raise ConfigError(f"unknown config key [{section}] {option}")
    return parser


def dump_config(parser: configparser.ConfigParser) -> str:
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


_KINDS = {bool: "boolean", int: "integer", float: "finite number",
          tuple: "list of finite numbers", type(None): "finite number or empty",
          PdMode: "pd mode (fixed or per_pair)"}


def _parse(text: str, default):
    """``text`` read as the type of ``default``; raises KeyError or ValueError."""
    if isinstance(default, str):
        return text
    if isinstance(default, bool):
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    if isinstance(default, int):
        return int(text)
    if isinstance(default, PdMode):
        # by value or by member name
        return PdMode.__members__.get(text.upper()) or PdMode(text.lower())
    if default is None and not text:
        return None
    numbers = [float(part) for part in text.split(",") if part.strip()]
    if not all(map(math.isfinite, numbers)):
        raise ValueError(f"'{text}' is not finite")
    return tuple(numbers) if isinstance(default, tuple) else float(text)


def _values(parser: configparser.ConfigParser) -> dict[str, dict[str, object]]:
    """Every document entry converted to the type of its default."""
    out: dict[str, dict[str, object]] = {}
    for section, entries in _default_document().items():
        out[section] = {}
        for key, default in entries.items():
            text = parser.get(section, key, fallback=_format(default)).strip()
            try:
                out[section][key] = _parse(text, default)
            except (KeyError, ValueError):
                raise ConfigError(f"config entry [{section}] {key} = '{text}' is not "
                                  f"a valid {_KINDS[type(default)]}") from None
    return out


def parse_endpoint(raw: str) -> tuple[str, int]:
    host, sep, port = raw.rpartition(":")
    if not sep or not host:
        raise ConfigError(f"endpoint must be host:port, got '{raw}'")
    try:
        number = int(port)
    except ValueError:
        raise ConfigError(f"endpoint port must be an integer, got '{port}'") from None
    if not 1 <= number <= 65535:
        raise ConfigError(f"endpoint port must be in 1-65535, got {number}")
    return host, number


def build_run_config(parser: configparser.ConfigParser) -> RunConfig:
    values = _values(parser)
    scenario, run, mac = values["scenario"], values["run"], values["mac"]

    hv_position = (scenario["hv_x"], scenario["hv_y"])
    if hv_position.count(None) == 1:
        raise ConfigError("hv_x and hv_y must be set together")

    topology_raw = scenario["topology"].lower()
    topology_spec = None
    trace_dir = None
    if topology_raw == "traces":
        if not scenario["trace_dir"]:
            raise ConfigError("topology = traces requires scenario.trace_dir")
        trace_dir = Path(scenario["trace_dir"])
    else:
        try:
            kind = Topology(topology_raw)
        except ValueError:
            raise ConfigError(
                f"unknown topology '{topology_raw}' "
                f"(expected disk, linear, intersection, or traces)") from None
        topology_spec = TopologySpec(
            kind=kind,
            vehicle_count=scenario["vehicles"],
            radius_m=scenario["radius_m"],
            length_m=scenario["length_m"],
            arm_length_m=scenario["arm_length_m"],
            hv_position=None if None in hv_position else hv_position,
        )

    mode = run["mode"].lower()
    if mode not in ("batch", "realtime"):
        raise ConfigError(f"run.mode must be batch or realtime, got '{mode}'")
    emit_udp = parse_endpoint(run["emit_udp"]) if run["emit_udp"] else None
    if mode == "realtime" and emit_udp is None and not run["null_sink"]:
        raise ConfigError(
            "realtime mode requires run.emit_udp or run.null_sink = true")

    tx_rate_hz = mac.pop("tx_rate_hz")
    mac_fields = {}
    for key, value in mac.items():
        if key.endswith("_us"):
            key, value = key[:-3] + "_s", value * 1e-6
        mac_fields[key] = value

    three = values["channel.three_log_distance"]
    models = {
        "three_log_distance": PathLossModel(
            boundaries_m=(three["d0_m"], three["d1_m"], three["d2_m"]),
            exponents=(three["n0"], three["n1"], three["n2"]),
            ref_loss_db=three["ref_loss_db"]),
        "fowlerville": PathLossModel(**values["channel.fowlerville"]),
    }

    return RunConfig(
        topology_spec=topology_spec,
        trace_dir=trace_dir,
        speed_mps=scenario["speed_mps"],
        duration_s=run["duration_s"],
        seed=run["seed"],
        tx_rate_hz=tx_rate_hz,
        mode=mode,
        out_dir=Path(run["out"] or "out"),
        channel_profile=run["channel_profile"],
        emit_udp=emit_udp,
        hv_transmits=run["hv_transmits"],
        radio=RadioConfig(**values["radio"]),
        mac=MacParams(**mac_fields),
        models=models,
        cbp_window_s=values["metrics"]["cbp_window_s"],
        per_bin_m=values["metrics"]["per_bin_m"],
        per_max_distance_m=values["metrics"]["per_max_distance_m"],
    )
