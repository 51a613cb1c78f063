"""Registry of known, documented exceptions to the generic predictions.

Some predictions are stated for rings with at least three factors and fail
in specific, well-understood ways on two-factor rings.  Violations that
match an entry here are reported as registered; anything else that fails is
an unregistered violation and makes verification exit nonzero.
"""

from __future__ import annotations

import json
import pkgutil
from pathlib import Path
from typing import NamedTuple

from .errors import InputFormatError
from .rings import Ring

REGISTRY_FORMAT = 1
# a misspelt key would otherwise be ignored and the entry match every ring
ENTRY_KEYS = ("check_id", "applies", "reason")
APPLIES_KEYS = ("k", "has_factor_2")
_BUNDLED = "data/registered_edge_cases.json"


class RegistryEntry(NamedTuple):
    check_id: str
    k: int | None
    has_factor_2: bool | None
    reason: str

    def matches(self, check_id: str, ring: Ring) -> bool:
        if check_id != self.check_id:
            return False
        if self.k is not None and ring.k != self.k:
            return False
        if self.has_factor_2 is not None and (2 in ring.qs) != self.has_factor_2:
            return False
        return True


class Registry(NamedTuple):
    entries: tuple[RegistryEntry, ...]

    def lookup(self, check_id: str, ring: Ring) -> RegistryEntry | None:
        for entry in self.entries:
            if entry.matches(check_id, ring):
                return entry
        return None


def _reject_unknown_keys(obj: dict, known: tuple[str, ...], where: str) -> None:
    for key in obj:
        if key not in known:
            raise InputFormatError(f"unknown key {key!r} in {where}; expected one of {', '.join(known)}")


def _parse_registry(obj: object) -> Registry:
    if not isinstance(obj, dict) or not isinstance(obj.get("entries"), list):
        raise InputFormatError("registry file must be an object with an 'entries' list")
    if obj.get("format") != REGISTRY_FORMAT:
        raise InputFormatError(
            f"unsupported registry format {obj.get('format')!r}; expected {REGISTRY_FORMAT}"
        )
    entries = []
    for raw in obj["entries"]:
        if not isinstance(raw, dict) or "check_id" not in raw or "reason" not in raw:
            raise InputFormatError("each registry entry needs 'check_id' and 'reason'")
        _reject_unknown_keys(raw, ENTRY_KEYS, "registry entry")
        applies = raw.get("applies", {})
        if not isinstance(applies, dict):
            raise InputFormatError("'applies' must be an object")
        _reject_unknown_keys(applies, APPLIES_KEYS, "'applies'")
        k = applies.get("k")
        has2 = applies.get("has_factor_2")
        # bool is a subclass of int, but true is no factor count
        if k is not None and (not isinstance(k, int) or isinstance(k, bool)):
            raise InputFormatError("'applies.k' must be an integer")
        if has2 is not None and not isinstance(has2, bool):
            raise InputFormatError("'applies.has_factor_2' must be a boolean")
        for key in ("check_id", "reason"):
            if not isinstance(raw[key], str) or not raw[key]:
                raise InputFormatError(f"'{key}' must be a nonempty string")
        entries.append(
            RegistryEntry(check_id=raw["check_id"], k=k, has_factor_2=has2, reason=raw["reason"])
        )
    return Registry(tuple(entries))


def load_registry(path: str | Path | None = None) -> Registry:
    # the bundled file is read through the package's loader, so a zipped package
    # works too; `importlib.resources` would import `inspect` from Python 3.12 on
    data = pkgutil.get_data("zdgraph", _BUNDLED) if path is None else Path(path).read_bytes()
    try:
        obj = json.loads(data.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"registry is not valid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # text that is not UTF-8, an integer too long to convert, or nesting
        # too deep for the decoder
        raise InputFormatError(f"cannot read registry {_BUNDLED if path is None else path}: {exc}") from exc
    return _parse_registry(obj)
