"""Built-in hardware profiles and profile-directory loading.

Profiles are data files, not code: each JSON file carries a
:class:`PhysicalQubitParams` record plus a default QEC scheme name.  Six
profiles ship with the package, spanning gate-based and measurement-based
instruction sets, nanosecond and microsecond regimes, and realistic to
optimistic error rates; each is decoded once per process.  The
``FTQC_PROFILE_DIR`` environment variable points the loader at a
different directory, whose files are read on every call.
"""

from __future__ import annotations

import functools
import os
from pathlib import Path
from typing import Optional

from .errors import ConfigError, _shown
from .qec import PhysicalQubitParams
from .records import JsonRecord, read_file

__all__ = [
    "HardwareProfile",
    "BUILTIN_PROFILE_NAMES",
    "PROFILE_DIR_ENV",
    "load_profile",
    "list_profiles",
]

PROFILE_DIR_ENV = "FTQC_PROFILE_DIR"

BUILTIN_PROFILE_NAMES = (
    "qubit_gate_ns_e3",
    "qubit_gate_ns_e4",
    "qubit_gate_us_e3",
    "qubit_gate_us_e4",
    "qubit_maj_ns_e4",
    "qubit_maj_ns_e6",
)


class HardwareProfile(JsonRecord):
    """A named set of physical qubit parameters and the QEC scheme a job on
    it uses by default."""

    name: str
    description: str = ""
    qubit_params: PhysicalQubitParams
    default_scheme_name: str

    _KW_ONLY = ("description",)
    _RENAMED = {"default_scheme_name": "defaultQecScheme"}


def _override_dir() -> Optional[Path]:
    value = os.environ.get(PROFILE_DIR_ENV)
    return Path(value) if value else None


def _load_file(path) -> HardwareProfile:
    return HardwareProfile.from_mapping(read_file(path, "profile"), "hardware profile")


def load_profile(name: str) -> HardwareProfile:
    """Load a profile by name from the active profile directory."""
    override = _override_dir()
    if override is not None:
        return _load_file(override / f"{name}.json")
    if name not in BUILTIN_PROFILE_NAMES:
        raise ConfigError(
            f"unknown hardware profile {_shown(repr(name))}; built-ins: "
            + ", ".join(BUILTIN_PROFILE_NAMES)
        )
    return _builtin(name)


@functools.cache
def _builtin(name: str) -> HardwareProfile:
    """A built-in profile, read from the package's ``profiles`` directory
    (so not from a zip) and decoded once per process: the package's files
    do not change while it runs, and the record is immutable."""
    return _load_file(Path(__file__).with_name("profiles") / f"{name}.json")


def list_profiles() -> list[HardwareProfile]:
    """All profiles in the active directory, in a stable order."""
    override = _override_dir()
    if override is not None:
        if not os.path.isdir(override):  # False, not OSError, for a name the OS rejects
            raise ConfigError(
                f"{PROFILE_DIR_ENV} points at {_shown(str(override))}, not a directory"
            )
        return [_load_file(p) for p in sorted(override.glob("*.json"))]
    return [load_profile(name) for name in BUILTIN_PROFILE_NAMES]
