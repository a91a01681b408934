"""System configuration: the single source of dimensional truth.

All array sizes, the subcarrier grid and the noise power flow from ``SystemConfig``
(transmit power is 1, so SNR = 1 / sigma_n2 at the carrier); the master seed
belongs to the sweep (``SweepSpec.seed``), not to the system.
Two named parameter presets are provided: ``desk`` (small, CI-friendly) and
``paper`` (full-scale reference profile).
A value is checked once, when a ``SystemConfig`` stores it: integer fields
through ``checked_int``, real fields through ``checked_real`` (which sweep axis
values share); ``validate`` then checks ranges and relations only.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
import operator
import sys
from dataclasses import dataclass
from pathlib import Path

SPEED_OF_LIGHT = 299792458.0

SINR_CONVENTIONS = ("physical", "as_printed")


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


@dataclass(frozen=True)
class SystemConfig:
    """Parameters of the multi-user wideband downlink, checked on construction.

    Defaults are the desk-scale profile; ``None`` means "derive from the other
    fields": ``N_RF`` = ``K``, ``N_F``/``N_W`` = 2x the antenna counts.
    """

    f_c: float = 300e9          # carrier frequency [Hz]
    B: float = 30e9             # bandwidth [Hz]
    M: int = 32                 # subcarriers
    N_T: int = 64               # transmit antennas
    N_R: int = 4                # receive antennas per user
    N_RF: int | None = None     # RF chains (= K, one stream per user), default K
    K: int = 4                  # users
    L: int = 3                  # paths per user (first one LoS)
    sigma_n2: float = 1.0       # noise power relative to the total transmit power
    N_F: int | None = None      # transmit dictionary grid size, default 2 N_T
    N_W: int | None = None      # receive dictionary grid size, default 2 N_R
    nlos_penalty_db: float = 10.0    # extra NLoS attenuation
    excess_delay: float = 20e-9      # max NLoS delay after the LoS arrival [s]
    sinr_convention: str = "physical"

    def __post_init__(self) -> None:
        # each field as its declared type, so equal configs hash equal
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is not None and f.type != "str":
                check = checked_int if f.type.startswith("int") else checked_real
                object.__setattr__(self, f.name, check(f.name, value))
        for name, value in self._derived_sizes().items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, value)
        self.validate()

    def _derived_sizes(self) -> dict:
        return {"N_RF": self.K, "N_F": 2 * self.N_T, "N_W": 2 * self.N_R}

    @property
    def d_spacing(self) -> float:
        """Element spacing [m]: half a wavelength at f_c, as steering vectors assume."""
        return SPEED_OF_LIGHT / (2.0 * self.f_c)

    def validate(self) -> "SystemConfig":
        """Check ranges and relations, raising ConfigError on the first violation; returns self."""
        if self.M < 1:
            raise ConfigError(f"M must be >= 1, got {self.M}")
        if self.N_T < 1 or self.N_R < 1:
            raise ConfigError("antenna counts must be >= 1")
        if self.N_RF != self.K:
            raise ConfigError(f"N_RF must equal K (got N_RF={self.N_RF}, K={self.K})")
        if not 1 <= self.K <= self.N_T:
            raise ConfigError(f"need 1 <= K <= N_T, got K={self.K}, N_T={self.N_T}")
        if self.L < 1:
            raise ConfigError(f"L must be >= 1, got {self.L}")
        if self.f_c <= 0:
            raise ConfigError("f_c must be positive")
        if not 0 <= self.B < 2 * self.f_c:
            raise ConfigError(f"need 0 <= B < 2 f_c, got B={self.B}, f_c={self.f_c}")
        if self.sigma_n2 <= 0:
            raise ConfigError("sigma_n2 must be positive")
        if self.N_F < max(1, self.N_RF):
            raise ConfigError(f"N_F must be >= N_RF, got N_F={self.N_F}")
        if self.N_W < 1:
            raise ConfigError(f"N_W must be >= 1, got N_W={self.N_W}")
        # every array of a trial has at most this many entries (L twice: the L x L Gram cores)
        entries = math.prod((self.M, self.N_T, self.N_R, self.K, self.L, self.L, self.N_F, self.N_W))
        if 16 * entries > sys.maxsize:     # complex128 bytes beyond NumPy's index range (intp)
            raise ConfigError("sizes too large: the M N_T N_R K L^2 N_F N_W complex entries "
                              "of one trial exceed NumPy's index range")
        if self.excess_delay < 0:
            raise ConfigError("excess_delay must be nonnegative")
        if self.sinr_convention not in SINR_CONVENTIONS:
            raise ConfigError(f"sinr_convention must be one of {SINR_CONVENTIONS}, "
                              f"got {self.sinr_convention!r}")
        return self

    def replace(self, **changes) -> "SystemConfig":
        """A changed copy; a size still at its derived value is derived again."""
        derived = {n: None for n, v in self._derived_sizes().items() if getattr(self, n) == v}
        return dataclasses.replace(self, **{**derived, **changes})

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def checked_int(name: str, value) -> int:
    """``value`` as a plain int; a bool or any float raises ConfigError naming ``name``."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def checked_real(name: str, value) -> float:
    """``value`` as a finite float, -0.0 as 0.0; else (a bool too) ConfigError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    try:
        real = float(value) + 0.0      # -0.0 + 0.0 is 0.0, so equal values hash equal
    except OverflowError:              # an int beyond the float range
        real = math.inf
    if not math.isfinite(real):
        raise ConfigError(f"{name} must be finite, got {real}")
    return real


# Named presets. "paper" is the full-scale reference profile; "desk" keeps
# CI runtimes small. Monte-Carlo trial counts ride along for the CLI.
PROFILES: dict[str, dict] = {
    "desk": {},
    "paper": {"N_T": 128, "N_R": 8, "K": 8, "M": 128, "L": 3},
}

PROFILE_TRIALS = {"desk": 20, "paper": 100}


def _literal(raw: str) -> int | float | str:
    """``raw`` read as an int literal, else a float literal, else as text."""
    for parse in (int, float):
        try:
            return parse(raw)
        except ValueError:
            pass
    return raw


def parse_config_file(path: str | Path) -> dict:
    """Parse a flat ``key = value`` config file into a field dict.

    Blank lines and ``#`` comments are ignored; keys must be SystemConfig
    field names, each set at most once. Each value is read as an int literal,
    else a float literal, else text; ``SystemConfig`` checks its type. One
    leading UTF-8 byte-order mark is ignored; it is stripped after decoding, so
    an invalid byte is still reported at its offset from the file's start.
    """
    names = {f.name for f in dataclasses.fields(SystemConfig)}
    overrides: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not valid UTF-8 ({err.reason} at byte {err.start})") from None
    for lineno, line in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in names:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in overrides:
            raise ConfigError(f"{path}:{lineno}: config key {key!r} is set twice")
        overrides[key] = _literal(value.strip())
    return overrides


def build_config(profile: str = "desk",
                 file_overrides: dict | None = None) -> SystemConfig:
    """Resolve a config: profile defaults, then the config file's keys."""
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r}; choose from {sorted(PROFILES)}")
    fields: dict = {**PROFILES[profile], **(file_overrides or {})}
    return SystemConfig(**fields)


def config_hash(cfg: SystemConfig) -> str:
    """Short stable hash of the canonical config serialization.

    Changes iff any field changes.
    """
    canon = json.dumps(cfg.to_dict(), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]
