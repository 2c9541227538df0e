"""Configuration ingestion: one JSON document mirroring MicrogridConfig.

Time-series fields (tariff series, base loads, solar mean profile) accept
either an inline list of length T or a reference {"csv": path, "column":
name} to a CSV file with a header row and one row per period; `column`
may be omitted when the file has a single column.  Relative CSV paths
resolve against the directory of the JSON document.  A fleet is a list of
unit entries, parsed field by field into the fleet's arrays; an entry's
optional "count" repeats it.  A scalar field, and each entry of an inline
series or list, must be a JSON number, integral where the model takes an
int; anything else is an IngestError naming the field (and the entry's
index), and so is a document, `tariff` or fleet entry that is not a JSON
object; the generation spec follows the same rule.  `read_json` rejects
NaN, Infinity and -Infinity, which are not JSON numbers.  `load_config`
also rejects a config that fails `validate_config`, and logs each of its
warnings.
"""

import csv
import json
import logging
from dataclasses import fields
from pathlib import Path

import numpy as np

from .model import ChpUnits, DeferrableLoads, GridTariff, MicrogridConfig, Phevs, validate_config
from .scenario import GenerationSpec, reject_constant

log = logging.getLogger(__name__)


class IngestError(ValueError):
    """Unreadable or structurally invalid configuration input."""


def _read_csv(path: Path):
    """(header, body rows) of a CSV file; a missing or empty file is an
    IngestError."""
    try:
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
    except OSError as e:
        raise IngestError(f"cannot read {path}: {e}") from e
    if not rows:
        raise IngestError(f"{path}: empty CSV")
    return rows[0], rows[1:]


def _csv_path(ref: dict, base_dir: Path, what: str) -> Path:
    if "csv" not in ref:
        raise IngestError(f"{what}: csv reference needs a 'csv' key")
    path = Path(ref["csv"])
    return path if path.is_absolute() else base_dir / path


def _read_csv_column(path: Path, column: str | None):
    header, body = _read_csv(path)
    if column is None:
        if len(header) != 1:
            raise IngestError(f"{path}: multiple columns, specify one of {header}")
        idx = 0
    else:
        try:
            idx = header.index(column)
        except ValueError:
            raise IngestError(f"{path}: no column named {column!r} in {header}") from None
    try:
        return np.array([float(r[idx]) for r in body])
    except (ValueError, IndexError) as e:
        raise IngestError(f"{path}: bad numeric data in column {column!r}: {e}") from e


def _series(value, base_dir: Path, what: str):
    if isinstance(value, dict):
        return _read_csv_column(_csv_path(value, base_dir, what), value.get("column"))
    return _numbers(value, what)


def _number(value, kind, what: str):
    """`value` as a `kind` (float or int); a bool, a string, null, or a
    fractional value for an int is an IngestError naming `what`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or (kind is int and not float(value).is_integer()):
        expected = "an integer" if kind is int else "a number"
        raise IngestError(f"{what}: expected {expected}, got {value!r}")
    return kind(value)


def _numbers(value, what: str):
    """A list of numbers, or of such lists, as a float array; an entry
    that `_number` rejects is an IngestError naming `what` and its index."""
    def entries(v, where):
        if isinstance(v, list):
            return [entries(x, f"{where}[{i}]") for i, x in enumerate(v)]
        return _number(v, float, where)

    if not isinstance(value, list):
        raise IngestError(f"{what}: expected a list of numbers, got {value!r}")
    nested = entries(value, what)
    try:
        return np.array(nested, dtype=float)
    except ValueError as e:
        raise IngestError(f"{what}: rows of unequal length") from e


def _object(value, what: str) -> dict:
    """`value` if it is a JSON object; anything else is an IngestError
    naming `what`."""
    if not isinstance(value, dict):
        raise IngestError(f"{what}: expected an object, got {value!r}")
    return value


def _require(data: dict, key: str, what: str):
    if key not in data:
        raise IngestError(f"{what}: missing required field {key!r}")
    return data[key]


def _fleet(entries, fleet, what, horizon):
    """A `fleet` container from a list of unit entries.  Each field is
    parsed per entry with `_number` (an int for the fleet's `int_fields`)
    and repeated over the entry's optional `count`.  The formulation gives
    every unit at least one column per period, and its sparse matrices
    index with 32-bit integers, so a fleet whose summed count times the
    horizon reaches 2**31 is an IngestError before anything is allocated."""
    if not isinstance(entries, list):
        raise IngestError(f"{what}: expected a list")
    names = [f.name for f in fields(fleet)]
    columns = {name: [] for name in names}
    counts = []
    units = 0
    for k, raw in enumerate(entries):
        where = f"{what}[{k}]"
        _object(raw, where)
        count = _number(raw.get("count", 1), int, f"{where}.count")
        if count < 1:
            raise IngestError(f"{where}: count must be >= 1")
        units += count
        if units * max(horizon, 1) >= 2**31:
            raise IngestError(f"{where}.count: {count} units do not fit in memory: the units "
                              f"of {what} times the horizon ({horizon}) must stay below 2**31")
        unknown = [key for key in raw if key not in columns and key != "count"]
        if unknown:
            raise IngestError(f"{where}: unknown field {unknown[0]!r}")
        for name, values in columns.items():
            kind = int if name in fleet.int_fields else float
            value = _number(_require(raw, name, where), kind, f"{where}.{name}")
            if kind is int and abs(value) >= 2**63:
                raise IngestError(f"{where}.{name}: {value} does not fit a 64-bit integer")
            values.append(value)
        counts.append(count)
    try:
        return fleet(**{name: np.repeat(values, counts) for name, values in columns.items()})
    except MemoryError as e:
        k = int(np.argmax(counts))
        raise IngestError(f"{what}[{k}].count: {counts[k]} units do not fit in memory") from e


def config_from_dict(data: dict, base_dir=".") -> MicrogridConfig:
    base_dir = Path(base_dir)
    _object(data, "config")
    horizon = _number(_require(data, "horizon", "config"), int, "horizon")
    tariff_raw = _object(_require(data, "tariff", "config"), "tariff")
    tariff = GridTariff(
        price_buy=_series(_require(tariff_raw, "price_buy", "tariff"), base_dir, "price_buy"),
        price_sell=_series(_require(tariff_raw, "price_sell", "tariff"), base_dir, "price_sell"),
        exchange_cap=_series(_require(tariff_raw, "exchange_cap", "tariff"), base_dir, "exchange_cap"),
    )
    return MicrogridConfig(
        horizon=horizon,
        period_hours=_number(data.get("period_hours", 1.0), float, "period_hours"),
        chp_units=_fleet(data.get("chp_units", []), ChpUnits, "chp_units", horizon),
        phevs=_fleet(data.get("phevs", []), Phevs, "phevs", horizon),
        deferrables=_fleet(data.get("deferrables", []), DeferrableLoads, "deferrables", horizon),
        tariff=tariff,
        base_power=_series(_require(data, "base_power", "config"), base_dir, "base_power"),
        base_heat=_series(_require(data, "base_heat", "config"), base_dir, "base_heat"),
        solar_capacity=_number(_require(data, "solar_capacity", "config"), float,
                               "solar_capacity"),
    )


def read_json(path: Path):
    """The document in a JSON file; unreadable or invalid JSON, NaN and
    +-Infinity included, is an IngestError."""
    try:
        return json.loads(path.read_text(), parse_constant=reject_constant)
    except OSError as e:
        raise IngestError(f"cannot read {path}: {e}") from e
    except ValueError as e:  # a JSONDecodeError, or reject_constant's
        raise IngestError(f"{path}: invalid JSON: {e}") from e


def load_config(path) -> MicrogridConfig:
    """Read and validate a config file; a `validate_config` error is an
    IngestError naming every such issue, and a warning is logged."""
    path = Path(path)
    config = config_from_dict(read_json(path), base_dir=path.parent)
    report = validate_config(config)
    errors = [i.message for i in report.errors]
    if errors:
        raise IngestError(f"{path}: invalid config: " + "; ".join(errors))
    for issue in report.issues:
        if issue.severity == "warning":
            log.warning("%s: %s (%s)", path, issue.message, issue.code)
    return config


def generation_spec_from_dict(data: dict, base_dir=".") -> GenerationSpec:
    base_dir = Path(base_dir)
    _object(data, "generation spec")
    samples = None
    if "solar_samples" in data:
        raw = data["solar_samples"]
        if isinstance(raw, dict):
            path = _csv_path(raw, base_dir, "solar_samples")
            # one column per sample trajectory, one row per period
            try:
                samples = np.array([[float(v) for v in r] for r in _read_csv(path)[1]]).T
            except ValueError as e:
                raise IngestError(f"{path}: bad numeric data in solar_samples: {e}") from e
        else:
            samples = _numbers(raw, "solar_samples")
    parking = data.get("parking_prob", 1.0)
    parking = (_numbers(parking, "parking_prob") if isinstance(parking, list)
               else _number(parking, float, "parking_prob"))
    spec = dict(
        solar_profile_mean=_series(_require(data, "solar_profile_mean", "generation spec"),
                                   base_dir, "solar_profile_mean"),
        solar_noise_model=data.get("solar_noise_model", "multiplicative-lognormal"),
        solar_sigma=_number(data.get("solar_sigma", 0.0), float, "solar_sigma"),
        solar_samples=samples,
        parking_prob=parking,
        deferrable_energy_mean=_numbers(data.get("deferrable_energy_mean", []),
                                        "deferrable_energy_mean"),
        deferrable_energy_spread=_numbers(data.get("deferrable_energy_spread", []),
                                          "deferrable_energy_spread"),
        rng_seed=_number(data.get("rng_seed", 0), int, "rng_seed"),
    )
    try:
        return GenerationSpec(**spec)
    except ValueError as e:
        raise IngestError(f"generation spec: {e}") from e


def load_generation_spec(path) -> GenerationSpec:
    path = Path(path)
    return generation_spec_from_dict(read_json(path), base_dir=path.parent)
