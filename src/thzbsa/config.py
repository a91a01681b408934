"""System configuration: the single source of dimensional truth.

All array sizes, the subcarrier grid and the noise power flow from ``SystemConfig``
(transmit power is 1, so SNR = 1 / sigma_n2 at the carrier); the master seed
belongs to the sweep (``SweepSpec.seed``), not to the system.
Two named parameter presets are provided: ``desk`` (small, CI-friendly) and
``paper`` (full-scale reference profile).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

SPEED_OF_LIGHT = 299792458.0

SINR_CONVENTIONS = ("physical", "as_printed")


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


@dataclass
class SystemConfig:
    """Parameters of the multi-user wideband downlink.

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
        if self.N_RF is None:
            self.N_RF = self.K
        if self.N_F is None:
            self.N_F = 2 * self.N_T
        if self.N_W is None:
            self.N_W = 2 * self.N_R

    @property
    def d_spacing(self) -> float:
        """Element spacing [m]: half a wavelength at f_c, as steering vectors assume."""
        return SPEED_OF_LIGHT / (2.0 * self.f_c)

    def validate(self) -> "SystemConfig":
        """Check invariants, raising ConfigError on the first violation."""
        for name in _FINITE_FIELDS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
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
        if self.N_W < max(1, self.K):
            raise ConfigError(f"N_W must be >= K, got N_W={self.N_W}")
        if self.excess_delay < 0:
            raise ConfigError("excess_delay must be nonnegative")
        if self.sinr_convention not in SINR_CONVENTIONS:
            raise ConfigError(
                f"sinr_convention must be one of {SINR_CONVENTIONS}, "
                f"got {self.sinr_convention!r}"
            )
        return self

    def replace(self, **kwargs) -> "SystemConfig":
        return dataclasses.replace(self, **kwargs)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


# Named presets. "paper" is the full-scale reference profile; "desk" keeps
# CI runtimes small. Monte-Carlo trial counts ride along for the CLI.
PROFILES: dict[str, dict] = {
    "desk": {},
    "paper": {"N_T": 128, "N_R": 8, "K": 8, "M": 128, "L": 3},
}

PROFILE_TRIALS = {"desk": 20, "paper": 100}


def _coerce(name: str, raw: str, target_type) -> object:
    raw = raw.strip()
    try:
        if target_type is int:
            return int(raw)
        if target_type is float:
            return float(raw)
    except ValueError:
        raise ConfigError(f"cannot parse {name}={raw!r}") from None
    return raw


_FIELD_TYPES = {k: type(v) for k, v in SystemConfig().to_dict().items()}
# real-valued fields; NaN slips through every ordering check, so test first
_FINITE_FIELDS = tuple(k for k, v in _FIELD_TYPES.items() if v is float)


def parse_config_file(path: str | Path) -> dict:
    """Parse a flat ``key = value`` config file into a field dict.

    Blank lines and ``#`` comments are ignored; keys must be SystemConfig
    field names, each set at most once.
    """
    overrides: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not valid UTF-8 ({err.reason} at byte {err.start})") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in overrides:
            raise ConfigError(f"{path}:{lineno}: config key {key!r} is set twice")
        overrides[key] = _coerce(key, value, _FIELD_TYPES[key])
    return overrides


def build_config(profile: str = "desk",
                 file_overrides: dict | None = None) -> SystemConfig:
    """Resolve a config: profile defaults, then the config file's keys."""
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r}; choose from {sorted(PROFILES)}")
    fields: dict = {**PROFILES[profile], **(file_overrides or {})}
    return SystemConfig(**fields).validate()


def config_hash(cfg: SystemConfig) -> str:
    """Short stable hash of the canonical config serialization.

    Changes iff any field changes.
    """
    canon = json.dumps(cfg.to_dict(), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]
