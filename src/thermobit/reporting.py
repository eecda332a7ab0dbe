"""Experiment configuration files, CSV emission, and run manifests.

Config files are flat `key = value` text with `#` comments; CLI flags
override file values.  CSV output carries a fixed documented header per
subcommand, full round-trip float precision, and a trailing newline.
A JSON manifest written next to each CSV records the resolved
configuration and a sha256 per output, so a run can be replayed and
checked byte-for-byte.
"""

import hashlib
import json
import time

from . import __version__

__all__ = [
    "ConfigError",
    "parse_config_file",
    "format_value",
    "write_csv",
    "sha256_file",
    "write_manifest",
]

class ConfigError(ValueError):
    """Invalid configuration value or config-file syntax."""


def parse_config_file(path):
    """Read a flat key = value config file into a string dict."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def format_value(x):
    """Shortest decimal form that round-trips the value."""
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def write_csv(path, columns, rows):
    """Write a header line plus one row per grid point, newline-terminated."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            if len(row) != len(columns):
                raise ValueError(f"row width {len(row)} != header width {len(columns)}")
            fh.write(",".join(format_value(v) for v in row) + "\n")


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def write_manifest(path, config, output_paths):
    """Write the resolved configuration plus a sha256 of every output file."""
    payload = {
        "tool_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": dict(config),
        "checksums": {str(out): sha256_file(out) for out in output_paths},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
