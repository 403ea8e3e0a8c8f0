"""Simulation scenarios: city map, base stations, radio constants, mission.

Scenarios persist as versioned JSON; power ratios are stored in dB and
converted to linear on load.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .geometry import GEOM_EPS, Building, BuildingArrays, Point3

SCENARIO_VERSION = 1

# Urban layout defaults: dense Manhattan proportions, 80 m pitch with 20 m
# streets, Rayleigh(25) roof heights clamped to [5, 70] m.
DEFAULT_SEED = 1
DEFAULT_WIDTH = 2000.0
DEFAULT_DEPTH = 2000.0
DEFAULT_BLOCK_SIZE = 80.0
DEFAULT_STREET_WIDTH = 20.0
DEFAULT_HEIGHT_RANGE = (5.0, 70.0)
DEFAULT_RAYLEIGH_SCALE = 25.0

DEFAULT_K = 25
DEFAULT_UAV_ALTITUDE = 80.0
DEFAULT_BS_HEIGHT = 20.0

# Radio defaults give a ~530 m LoS and ~125 m NLoS coverage radius at the
# default altitudes: P/sigma^2 = 120 dB, threshold 20 dB.
DEFAULT_P_OVER_SIGMA2_DB = 120.0
DEFAULT_SNR_THRESHOLD_DB = 20.0
DEFAULT_ALPHA_LOS = 2.2
DEFAULT_ALPHA_NLOS = 2.8
DEFAULT_BETA_LOS = 1e-4
DEFAULT_BETA_NLOS = 1e-4

DEFAULT_MISSION_START = (300.0, 300.0)
DEFAULT_MISSION_GOAL = (1500.0, 1500.0)


class InvalidConfigError(ValueError):
    """A generation or scenario parameter violates its constraints."""


class ScenarioFormatError(ValueError):
    """A scenario file cannot be parsed or fails schema validation."""


class PlacementError(RuntimeError):
    """Base-station placement failed (street area too small)."""


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def linear_to_db(linear: float) -> float:
    return 10.0 * math.log10(linear)


@dataclass
class CityMap:
    """Bounded 2D area with axis-aligned building boxes."""

    width: float
    depth: float
    buildings: tuple[Building, ...]

    def __post_init__(self) -> None:
        self.buildings = tuple(self.buildings)
        if not (0.0 < self.width < math.inf and 0.0 < self.depth < math.inf):
            raise InvalidConfigError(
                f"city width and depth must be finite and positive: {self.width}x{self.depth}")
        for b in self.buildings:
            if b.x_min < -GEOM_EPS or b.x_max > self.width + GEOM_EPS:
                raise InvalidConfigError(f"footprint outside city bounds: {b}")
            if b.y_min < -GEOM_EPS or b.y_max > self.depth + GEOM_EPS:
                raise InvalidConfigError(f"footprint outside city bounds: {b}")
        self._check_no_overlap()

    def _check_no_overlap(self) -> None:
        if len(self.buildings) < 2:
            return
        arrs = BuildingArrays(self.buildings)
        x0, x1, y0, y1 = arrs.x0, arrs.x1, arrs.y0, arrs.y1
        ox = (x0[:, None] < x1[None, :] - GEOM_EPS) & (x1[:, None] > x0[None, :] + GEOM_EPS)
        oy = (y0[:, None] < y1[None, :] - GEOM_EPS) & (y1[:, None] > y0[None, :] + GEOM_EPS)
        overlap = ox & oy
        np.fill_diagonal(overlap, False)
        if overlap.any():
            i, j = np.argwhere(overlap)[0]
            raise InvalidConfigError(
                f"overlapping footprints: {self.buildings[i]} and {self.buildings[j]}"
            )

    @cached_property
    def _arrays(self) -> BuildingArrays:
        return BuildingArrays(self.buildings)

    def building_arrays(self) -> BuildingArrays:
        return self._arrays

    @property
    def max_building_height(self) -> float:
        return max((b.height for b in self.buildings), default=0.0)

    def contains_xy(self, x: float, y: float) -> bool:
        return 0.0 <= x <= self.width and 0.0 <= y <= self.depth

    def point_in_any_footprint(self, x: float, y: float) -> bool:
        arrs = self._arrays
        if len(arrs) == 0:
            return False
        return bool(
            ((arrs.x0 <= x) & (x <= arrs.x1) & (arrs.y0 <= y) & (y <= arrs.y1)).any()
        )


@dataclass(frozen=True)
class BaseStation:
    """One transmitter: integer id and 3D position at the common BS height."""

    id: int
    position: Point3

    @property
    def xy(self) -> tuple[float, float]:
        return self.position.xy


@dataclass(frozen=True)
class RadioParams:
    """Segmented pathloss constants and the planning geometry heights.

    ``tx_power_over_noise`` and ``snr_threshold`` are linear ratios.
    """

    tx_power_over_noise: float
    alpha_los: float
    alpha_nlos: float
    beta_los: float
    beta_nlos: float
    snr_threshold: float
    uav_altitude: float
    bs_height: float

    def __post_init__(self) -> None:
        for name in (
            "tx_power_over_noise",
            "alpha_los",
            "alpha_nlos",
            "beta_los",
            "beta_nlos",
            "snr_threshold",
            "uav_altitude",
            "bs_height",
        ):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0.0):
                raise InvalidConfigError(f"radio parameter {name} must be finite and > 0, got {v}")
        if self.alpha_nlos < self.alpha_los:
            raise InvalidConfigError(
                f"alpha_nlos ({self.alpha_nlos}) must be >= alpha_los ({self.alpha_los})"
            )


@dataclass(frozen=True)
class Mission:
    """Fixed-altitude start and goal positions."""

    start: Point3
    goal: Point3


@dataclass
class Scenario:
    """City + base stations + radio constants + mission endpoints."""

    city: CityMap
    base_stations: tuple[BaseStation, ...]
    radio: RadioParams
    mission: Mission

    def __post_init__(self) -> None:
        self.base_stations = tuple(self.base_stations)
        self.validate()

    def validate(self) -> None:
        r = self.radio
        if r.uav_altitude <= self.city.max_building_height:
            raise InvalidConfigError(
                f"UAV altitude {r.uav_altitude} must exceed the tallest building "
                f"({self.city.max_building_height})"
            )
        seen = set()
        for bs in self.base_stations:
            if bs.id in seen:
                raise InvalidConfigError(f"base station id {bs.id} is used twice")
            seen.add(bs.id)
            x, y = bs.xy
            if not self.city.contains_xy(x, y):
                raise InvalidConfigError(f"base station {bs.id} outside city bounds")
            if self.city.point_in_any_footprint(x, y):
                raise InvalidConfigError(f"base station {bs.id} inside a building footprint")
            if abs(bs.position.z - r.bs_height) > GEOM_EPS:
                raise InvalidConfigError(f"base station {bs.id} not at bs_height {r.bs_height}")
        for name, p in (("start", self.mission.start), ("goal", self.mission.goal)):
            if abs(p.z - r.uav_altitude) > GEOM_EPS:
                raise InvalidConfigError(f"mission {name} not at UAV altitude {r.uav_altitude}")
            if not self.city.contains_xy(p.x, p.y):
                raise InvalidConfigError(f"mission {name} outside city bounds")

    def with_base_stations(self, base_stations: Sequence[BaseStation]) -> "Scenario":
        return Scenario(
            city=self.city,
            base_stations=tuple(base_stations),
            radio=self.radio,
            mission=self.mission,
        )


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def generate_city(
    width: float = DEFAULT_WIDTH,
    depth: float = DEFAULT_DEPTH,
    block_size: float = DEFAULT_BLOCK_SIZE,
    street_width: float = DEFAULT_STREET_WIDTH,
    height_range: tuple[float, float] = DEFAULT_HEIGHT_RANGE,
    rayleigh_scale: float = DEFAULT_RAYLEIGH_SCALE,
    seed: int = DEFAULT_SEED,
) -> CityMap:
    """Regular street grid: one building per block, Rayleigh-distributed heights.

    Each block of ``block_size`` pitch carries a centered footprint of side
    ``block_size - street_width``; heights are drawn i.i.d. Rayleigh and
    clamped into ``height_range``. Deterministic for a given seed.
    """
    for name, value in (("width", width), ("depth", depth), ("block size", block_size),
                        ("rayleigh scale", rayleigh_scale)):
        if not 0.0 < value < math.inf:
            raise InvalidConfigError(f"{name} must be finite and positive: {value}")
    if not (block_size > street_width >= 0.0):
        raise InvalidConfigError(
            f"need block_size > street_width >= 0, got {block_size}, {street_width}"
        )
    h_lo, h_hi = height_range
    if not (0.0 < h_lo <= h_hi):
        raise InvalidConfigError(f"bad height range {height_range}")

    nx = int(width // block_size)
    ny = int(depth // block_size)
    rng = np.random.default_rng(seed)
    heights = np.clip(rng.rayleigh(rayleigh_scale, nx * ny), h_lo, h_hi)

    margin = street_width / 2.0
    buildings = []
    idx = 0
    for iy in range(ny):
        for ix in range(nx):
            buildings.append(
                Building(
                    x_min=ix * block_size + margin,
                    x_max=(ix + 1) * block_size - margin,
                    y_min=iy * block_size + margin,
                    y_max=(iy + 1) * block_size - margin,
                    height=float(heights[idx]),
                )
            )
            idx += 1
    return CityMap(width=width, depth=depth, buildings=tuple(buildings))


def place_base_stations(
    city: CityMap,
    k: int = DEFAULT_K,
    h_g: float = DEFAULT_BS_HEIGHT,
    seed: int = DEFAULT_SEED,
) -> tuple[BaseStation, ...]:
    """K positions uniform over street area, by rejection against footprints."""
    if k < 1:
        raise InvalidConfigError(f"need at least one base station, got {k}")
    rng = np.random.default_rng(seed)
    stations = []
    max_attempts = max(1000, 400 * k)
    attempts = 0
    while len(stations) < k:
        if attempts >= max_attempts:
            raise PlacementError(
                f"placed {len(stations)}/{k} stations after {attempts} attempts; "
                "street area is too small"
            )
        attempts += 1
        x = float(rng.uniform(0.0, city.width))
        y = float(rng.uniform(0.0, city.depth))
        if city.point_in_any_footprint(x, y):
            continue
        stations.append(BaseStation(id=len(stations) + 1, position=Point3(x, y, h_g)))
    return tuple(stations)


def default_radio_params(
    p_over_sigma2_db: float = DEFAULT_P_OVER_SIGMA2_DB,
    snr_threshold_db: float = DEFAULT_SNR_THRESHOLD_DB,
    uav_altitude: float = DEFAULT_UAV_ALTITUDE,
    bs_height: float = DEFAULT_BS_HEIGHT,
    alpha_los: float = DEFAULT_ALPHA_LOS,
    alpha_nlos: float = DEFAULT_ALPHA_NLOS,
    beta_los: float = DEFAULT_BETA_LOS,
    beta_nlos: float = DEFAULT_BETA_NLOS,
) -> RadioParams:
    return RadioParams(
        tx_power_over_noise=db_to_linear(p_over_sigma2_db),
        alpha_los=alpha_los,
        alpha_nlos=alpha_nlos,
        beta_los=beta_los,
        beta_nlos=beta_nlos,
        snr_threshold=db_to_linear(snr_threshold_db),
        uav_altitude=uav_altitude,
        bs_height=bs_height,
    )


def default_mission(
    start_xy: tuple[float, float] = DEFAULT_MISSION_START,
    goal_xy: tuple[float, float] = DEFAULT_MISSION_GOAL,
    uav_altitude: float = DEFAULT_UAV_ALTITUDE,
) -> Mission:
    return Mission(
        start=Point3(start_xy[0], start_xy[1], uav_altitude),
        goal=Point3(goal_xy[0], goal_xy[1], uav_altitude),
    )


def build_default_scenario(seed: int = DEFAULT_SEED, k: int = DEFAULT_K) -> Scenario:
    """The standard 2 km x 2 km evaluation setup."""
    city = generate_city(seed=seed)
    radio = default_radio_params()
    stations = place_base_stations(city, k=k, h_g=radio.bs_height, seed=seed)
    return Scenario(city=city, base_stations=stations, radio=radio, mission=default_mission())


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ScenarioFormatError(f"missing field '{key}' in {where}")
    return obj[key]


def scenario_to_dict(scenario: Scenario) -> dict:
    r = scenario.radio
    return {
        "version": SCENARIO_VERSION,
        "city": {
            "width": scenario.city.width,
            "depth": scenario.city.depth,
            "buildings": [
                {
                    "x_min": b.x_min,
                    "x_max": b.x_max,
                    "y_min": b.y_min,
                    "y_max": b.y_max,
                    "height": b.height,
                }
                for b in scenario.city.buildings
            ],
        },
        "base_stations": [
            {"id": bs.id, "x": bs.position.x, "y": bs.position.y}
            for bs in scenario.base_stations
        ],
        "radio": {
            "p_over_sigma2_db": linear_to_db(r.tx_power_over_noise),
            "alpha_los": r.alpha_los,
            "alpha_nlos": r.alpha_nlos,
            "beta_los": r.beta_los,
            "beta_nlos": r.beta_nlos,
            "snr_threshold_db": linear_to_db(r.snr_threshold),
            "h": r.uav_altitude,
            "h_g": r.bs_height,
        },
        "mission": {
            "start": [scenario.mission.start.x, scenario.mission.start.y],
            "goal": [scenario.mission.goal.x, scenario.mission.goal.y],
        },
    }


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioFormatError("scenario file must contain a JSON object")
    version = _require(data, "version", "scenario")
    if version != SCENARIO_VERSION:
        raise ScenarioFormatError(f"unsupported scenario version {version}")

    city_d = _require(data, "city", "scenario")
    try:
        buildings = tuple(
            Building(
                x_min=float(_require(b, "x_min", f"buildings[{i}]")),
                x_max=float(_require(b, "x_max", f"buildings[{i}]")),
                y_min=float(_require(b, "y_min", f"buildings[{i}]")),
                y_max=float(_require(b, "y_max", f"buildings[{i}]")),
                height=float(_require(b, "height", f"buildings[{i}]")),
            )
            for i, b in enumerate(_require(city_d, "buildings", "city"))
        )
        city = CityMap(
            width=float(_require(city_d, "width", "city")),
            depth=float(_require(city_d, "depth", "city")),
            buildings=buildings,
        )
        radio_d = _require(data, "radio", "scenario")
        radio = RadioParams(
            tx_power_over_noise=db_to_linear(
                float(_require(radio_d, "p_over_sigma2_db", "radio"))
            ),
            alpha_los=float(_require(radio_d, "alpha_los", "radio")),
            alpha_nlos=float(_require(radio_d, "alpha_nlos", "radio")),
            beta_los=float(_require(radio_d, "beta_los", "radio")),
            beta_nlos=float(_require(radio_d, "beta_nlos", "radio")),
            snr_threshold=db_to_linear(float(_require(radio_d, "snr_threshold_db", "radio"))),
            uav_altitude=float(_require(radio_d, "h", "radio")),
            bs_height=float(_require(radio_d, "h_g", "radio")),
        )
        stations = tuple(
            BaseStation(
                id=int(_require(s, "id", f"base_stations[{i}]")),
                position=Point3(
                    float(_require(s, "x", f"base_stations[{i}]")),
                    float(_require(s, "y", f"base_stations[{i}]")),
                    radio.bs_height,
                ),
            )
            for i, s in enumerate(_require(data, "base_stations", "scenario"))
        )
        mission_d = _require(data, "mission", "scenario")
        start = _require(mission_d, "start", "mission")
        goal = _require(mission_d, "goal", "mission")
        mission = Mission(
            start=Point3(float(start[0]), float(start[1]), radio.uav_altitude),
            goal=Point3(float(goal[0]), float(goal[1]), radio.uav_altitude),
        )
        return Scenario(city=city, base_stations=stations, radio=radio, mission=mission)
    except (TypeError, IndexError, ValueError) as exc:
        if isinstance(exc, (ScenarioFormatError, InvalidConfigError)):
            raise
        raise ScenarioFormatError(f"invalid scenario content: {exc}") from exc


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(scenario), indent=2) + "\n")


def load_scenario(path: str | Path) -> Scenario:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(
            f"cannot parse {path} (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    return scenario_from_dict(data)
