"""Synthetic urban radio scenario.

A scenario is a rectangular service area with radio sites at fixed
positions, each split into sectors (one cell per sector), plus a set of
axis-aligned rectangular buildings. UE locations live on a uniform grid
at a fixed receiver height; buildings punch holes in the grid and block
line of sight between sites and UEs.

Conventions used throughout:
  * coordinates are metres, x to the east, y to the north, z up
  * azimuth is measured in degrees from the +x axis, counterclockwise
  * buildings are extruded rectangles from z = 0 to their height
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import count
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError
from .configfile import from_dict, load_object, to_dict
from .radio import BeamCodebook, RadioConfig, build_codebook

# Receiver height for every grid point, in metres.
UE_HEIGHT_M = 1.5

# Default site height in metres.
SITE_HEIGHT_M = 10.0


@dataclass(frozen=True)
class Sector:
    """One cell: a directional panel mounted on a site."""

    boresight_azimuth_deg: float
    cell_id: Optional[int] = None  # assigned by build_scenario when omitted
    mechanical_downtilt_deg: float = 5.0
    tx_power_dbm: float = 30.0


@dataclass(frozen=True)
class Site:
    """A radio site carrying one or more sectors."""

    x: float
    y: float
    z: float = SITE_HEIGHT_M
    sectors: Tuple[Sector, ...] = ()

    @property
    def position(self) -> Tuple[float, float, float]:
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class BuildingFootprint:
    """Axis-aligned extruded rectangle, z from 0 to height_m."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float
    height_m: float

    def contains_xy(self, x: float, y: float) -> bool:
        # closed rectangle: standing exactly on the wall counts as inside
        return self.min_x <= x <= self.max_x and self.min_y <= y <= self.max_y


@dataclass
class ScenarioConfig:
    """Everything needed to rebuild a scenario bit for bit."""

    area_width_m: float
    area_height_m: float
    grid_resolution_m: float = 1.0
    carrier_frequency_hz: float = 28e9
    rng_seed: int = 0
    sites: Tuple[Site, ...] = ()
    buildings: Tuple[BuildingFootprint, ...] = ()
    radio: RadioConfig = field(default_factory=RadioConfig)


@dataclass(frozen=True)
class Scenario:
    """Validated, immutable scenario ready for dataset generation."""

    config: ScenarioConfig
    sites: Tuple[Site, ...]
    buildings: Tuple[BuildingFootprint, ...]
    codebook: BeamCodebook
    fingerprint_hash: str

    @cached_property
    def cell_map(self) -> Dict[int, Tuple[Site, Sector]]:
        out: Dict[int, Tuple[Site, Sector]] = {}
        for site in self.sites:
            for sector in site.sectors:
                out[sector.cell_id] = (site, sector)
        return out

    @cached_property
    def cell_ids(self) -> Tuple[int, ...]:
        return tuple(sorted(self.cell_map))

    @property
    def n_cells(self) -> int:
        return len(self.cell_map)

    @property
    def n_beams(self) -> int:
        return len(self.codebook.beams)


def _canonical_dict(config: ScenarioConfig) -> dict:
    d = to_dict(config)
    # the hash identifies the scenario itself; the generation seed is
    # tracked separately on the dataset
    d.pop("rng_seed", None)
    return d


def scenario_hash(config: ScenarioConfig) -> str:
    blob = json.dumps(_canonical_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def build_scenario(config: ScenarioConfig) -> Scenario:
    """Validate a config and freeze it into a Scenario.

    Raises ConfigurationError on: non-positive dimensions or resolution,
    duplicate site positions, duplicate or partially-assigned cell ids,
    degenerate buildings, a building footprint covering a site, or a
    site on a receiver grid point.
    """
    if config.area_width_m <= 0 or config.area_height_m <= 0:
        raise ConfigurationError("area dimensions must be positive")
    if config.grid_resolution_m <= 0:
        raise ConfigurationError("grid resolution must be positive")
    if config.carrier_frequency_hz <= 0:
        raise ConfigurationError("carrier frequency must be positive")
    if not config.sites:
        raise ConfigurationError("scenario needs at least one site")

    seen_xy = set()
    for site in config.sites:
        key = (site.x, site.y)
        if key in seen_xy:
            raise ConfigurationError(f"duplicate site position {key}")
        seen_xy.add(key)
        if site.z <= 0:
            raise ConfigurationError("site height must be positive")
        if not site.sectors:
            raise ConfigurationError(f"site at {key} has no sectors")
        azimuths = [s.boresight_azimuth_deg % 360.0 for s in site.sectors]
        if len(set(azimuths)) != len(azimuths):
            raise ConfigurationError(f"site at {key} has sectors with equal boresight azimuths")

    sites = _assign_cell_ids(config.sites)

    for b in config.buildings:
        if b.min_x >= b.max_x or b.min_y >= b.max_y:
            raise ConfigurationError(f"degenerate building footprint {b}")
        if b.height_m <= 0:
            raise ConfigurationError("building height must be positive")
        for site in sites:
            if b.contains_xy(site.x, site.y):
                raise ConfigurationError(
                    f"building {b} covers the site at ({site.x}, {site.y})"
                )

    # no direction, and so no beam gain, is defined from a site to a
    # receiver at its own position
    xs, ys = _grid_axes(config)
    for site in sites:
        if site.z == UE_HEIGHT_M and site.x in xs and site.y in ys:
            raise ConfigurationError(f"the site at {site.position} stands on a receiver grid point")

    codebook = build_codebook(config.radio)

    frozen = replace(config, sites=sites, buildings=tuple(config.buildings))
    return Scenario(
        config=frozen,
        sites=sites,
        buildings=tuple(config.buildings),
        codebook=codebook,
        fingerprint_hash=scenario_hash(frozen),
    )


def _assign_cell_ids(sites: Sequence[Site]) -> Tuple[Site, ...]:
    ids = [sector.cell_id for site in sites for sector in site.sectors]
    if all(i is None for i in ids):
        next_id = count()  # site-major, then sector order
        return tuple(
            replace(site, sectors=tuple(replace(sector, cell_id=next(next_id)) for sector in site.sectors))
            for site in sites
        )
    if any(i is None for i in ids):
        raise ConfigurationError("cell ids must be either all explicit or all omitted")
    if len(set(ids)) != len(ids):
        raise ConfigurationError("cell ids must be globally unique")
    # datasets store cell ids as int32
    if not all(-(2**31) <= i < 2**31 for i in ids):
        raise ConfigurationError("cell ids must fit in 32 bits")
    return tuple(sites)


# ---------------------------------------------------------------------------
# UE grid


def _grid_axes(config: ScenarioConfig) -> Tuple[np.ndarray, np.ndarray]:
    """The grid's x and y coordinates."""
    res = config.grid_resolution_m
    # inclusive of both edges; the epsilon absorbs float division noise
    nx = int(math.floor(config.area_width_m / res + 1e-9)) + 1
    ny = int(math.floor(config.area_height_m / res + 1e-9)) + 1
    return np.arange(nx, dtype=np.float64) * res, np.arange(ny, dtype=np.float64) * res


def grid_xy(scenario: Scenario) -> np.ndarray:
    """All grid locations as an (n, 2) array, row-major by y then x.

    Points inside any building footprint (walls included) are dropped.
    """
    gx, gy = np.meshgrid(*_grid_axes(scenario.config))  # row i holds constant y
    px = gx.ravel()
    py = gy.ravel()
    inside = np.zeros(px.shape, dtype=bool)
    for b in scenario.buildings:
        inside |= (px >= b.min_x) & (px <= b.max_x) & (py >= b.min_y) & (py <= b.max_y)
    keep = ~inside
    return np.column_stack([px[keep], py[keep]])


# ---------------------------------------------------------------------------
# Line of sight

_INF = float("inf")


def los_mask(scenario: Scenario, tx, pts: np.ndarray) -> np.ndarray:
    """Whether the straight segment from `tx` to each of the (n, 3)
    points clears every building: a slab test against each extruded
    box, where touching a face, edge or corner counts as blocked. `tx`
    is one (3,) transmitter for every point, or one per point (n, 3);
    each segment's bits are the same either way."""
    pts = np.asarray(pts, dtype=np.float64)
    n = pts.shape[0]
    blocked_any = np.zeros(n, dtype=bool)
    txa = np.asarray(tx, dtype=np.float64)
    for b in scenario.buildings:
        bounds = ((b.min_x, b.max_x), (b.min_y, b.max_y), (0.0, b.height_m))
        tmin = np.zeros(n)
        tmax = np.ones(n)
        for axis in range(3):
            lo, hi = bounds[axis]
            origin = txa[..., axis]
            d = pts[:, axis] - origin
            with np.errstate(divide="ignore", invalid="ignore"):
                t1 = (lo - origin) / d
                t2 = (hi - origin) / d
            t_lo = np.minimum(t1, t2)
            t_hi = np.maximum(t1, t2)
            zero = d == 0.0
            if np.any(zero):
                inside0 = (lo <= origin) & (origin <= hi)
                t_lo = np.where(zero, np.where(inside0, -_INF, _INF), t_lo)
                t_hi = np.where(zero, np.where(inside0, _INF, -_INF), t_hi)
            tmin = np.maximum(tmin, t_lo)
            tmax = np.minimum(tmax, t_hi)
        blocked_any |= tmin <= tmax
    return ~blocked_any


# ---------------------------------------------------------------------------
# Default layout

# Street grid used by the default scenario. Sites sit on the outer ring of
# intersections; interior streets exist only between building blocks, so a
# fair share of locations lose sight of their serving site. Tuned so the
# line-of-sight fraction of the default dataset lands near 0.62.
_DEFAULT_STREET_HALF_WIDTH_M = 7.0
_DEFAULT_BLOCK_HEIGHTS_M = (18.0, 26.0, 14.0, 22.0)


def default_scenario_config(seed: int = 0) -> ScenarioConfig:
    """Eight-site reference layout on a 200 m x 330 m street grid.

    Two columns of sites 200 m apart, four rows 110 m apart, three
    sectors each (24 cells). Left-column sectors face into the area,
    right-column sectors face back, so coverage overlaps downtown.
    """
    width = 200.0
    height = 330.0
    hw = _DEFAULT_STREET_HALF_WIDTH_M

    sites = []
    cell_id = 0
    for row in range(4):
        y = 110.0 * row
        for col in range(2):
            x = 200.0 * col
            base = 0.0 if col == 0 else 180.0
            sectors = []
            for az_off in (-60.0, 0.0, 60.0):
                sectors.append(
                    Sector(boresight_azimuth_deg=base + az_off, cell_id=cell_id)
                )
                cell_id += 1
            sites.append(Site(x=x, y=y, sectors=tuple(sectors)))

    street_xs = [0.0, 100.0, 200.0]
    street_ys = [0.0, 55.0, 110.0, 220.0, 275.0, 330.0]
    buildings = []
    k = 0
    for i in range(len(street_xs) - 1):
        for j in range(len(street_ys) - 1):
            buildings.append(
                BuildingFootprint(
                    min_x=street_xs[i] + hw,
                    min_y=street_ys[j] + hw,
                    max_x=street_xs[i + 1] - hw,
                    max_y=street_ys[j + 1] - hw,
                    height_m=_DEFAULT_BLOCK_HEIGHTS_M[k % len(_DEFAULT_BLOCK_HEIGHTS_M)],
                )
            )
            k += 1

    return ScenarioConfig(
        area_width_m=width,
        area_height_m=height,
        rng_seed=seed,
        sites=tuple(sites),
        buildings=tuple(buildings),
    )


def single_site_config(seed: int = 0) -> ScenarioConfig:
    """Minimal one-site, one-sector scenario, handy for smoke tests."""
    site = Site(x=0.0, y=25.0, sectors=(Sector(boresight_azimuth_deg=0.0, cell_id=0),))
    return ScenarioConfig(
        area_width_m=60.0,
        area_height_m=50.0,
        rng_seed=seed,
        sites=(site,),
        buildings=(),
    )


# ---------------------------------------------------------------------------
# Config file (JSON, keys mirror the dataclass fields one to one)

# the old name of the codec's writer, still imported by callers
scenario_config_to_dict = to_dict


def save_scenario_config(config: ScenarioConfig, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(to_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_scenario_config(path) -> ScenarioConfig:
    return from_dict(ScenarioConfig, load_object(path, "scenario config"), "scenario config")
