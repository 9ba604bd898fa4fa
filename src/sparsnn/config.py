"""Flat key=value configuration files.

One assignment per line, `#` starts a comment, keys are validated against
the caller's allow-list so typos fail fast instead of being ignored.
"""

from __future__ import annotations

from .errors import ConfigError


def parse_flat_config(text: str, allowed_keys) -> dict:
    """Parse `key = value` lines into a str->str dict; a key outside
    `allowed_keys` is an error."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key not in allowed_keys:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def load_flat_config(path, allowed_keys) -> dict:
    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_flat_config(text, allowed_keys)


def coerce(value: str, kind):
    """Convert a config string to `kind` (int, float, bool or str)."""
    if kind is bool:
        low = value.lower()
        if low in ("1", "true", "on", "yes"):
            return True
        if low in ("0", "false", "off", "no"):
            return False
        raise ConfigError(f"expected a boolean, got {value!r}")
    try:
        return kind(value)
    except ValueError as exc:
        raise ConfigError(f"expected {kind.__name__}, got {value!r}") from exc
