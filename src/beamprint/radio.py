"""Antenna patterns, beam codebook, free-space propagation, RSRP.

All gains are in dB (dBi for absolute element gain), powers in dBm,
angles in degrees. Directions handed to the gain functions are already
expressed in the sector frame: azimuth relative to the sector boresight,
elevation relative to the (downtilted) panel normal.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError

SPEED_OF_LIGHT_M_S = 299792458.0


@dataclass(frozen=True)
class AntennaElementParams:
    """Parabolic single-element pattern with a front-to-back floor."""

    max_gain_dbi: float = 8.0
    azimuth_3db_beamwidth_deg: float = 65.0
    elevation_3db_beamwidth_deg: float = 65.0
    front_to_back_db: float = 30.0


@dataclass(frozen=True)
class CodebookConfig:
    """Steering grid and synthesized beam shape for one sector panel.

    The grid spans azimuth_span_deg (centred on boresight) with
    n_azimuth_beams columns and elevation_span_deg with n_elevation_beams
    rows; steering angles sit at the slot centres. array_gain_db of None
    means the full-panel value 10*log10(256) for a 16x16 array.
    """

    n_azimuth_beams: int = 16
    n_elevation_beams: int = 2
    azimuth_span_deg: float = 120.0
    elevation_span_deg: float = 30.0
    beam_azimuth_bw_deg: float = 7.0
    beam_elevation_bw_deg: float = 30.0
    array_gain_db: Optional[float] = None
    sidelobe_floor_db: float = 25.0


@dataclass(frozen=True)
class RadioConfig:
    element: AntennaElementParams = field(default_factory=AntennaElementParams)
    codebook: CodebookConfig = field(default_factory=CodebookConfig)
    shadowing_sigma_db: float = 0.0


@dataclass(frozen=True)
class Beam:
    """One codebook entry; steering angles are sector-frame degrees."""

    beam_id: int
    steer_azimuth_deg: float
    steer_elevation_deg: float


@dataclass(frozen=True)
class BeamCodebook:
    beams: Tuple[Beam, ...]
    n_azimuth: int
    n_elevation: int
    beam_azimuth_bw_deg: float
    beam_elevation_bw_deg: float
    array_gain_db: float
    sidelobe_floor_db: float
    element: AntennaElementParams


def default_array_gain_db() -> float:
    # 16x16 panel, 256 elements
    return 10.0 * math.log10(256.0)


def build_codebook(radio: RadioConfig) -> BeamCodebook:
    cb = radio.codebook
    el = radio.element
    if el.max_gain_dbi < 0:
        raise ConfigurationError("element max gain must be non-negative")
    if el.azimuth_3db_beamwidth_deg <= 0 or el.elevation_3db_beamwidth_deg <= 0:
        raise ConfigurationError("element beamwidths must be positive")
    if el.front_to_back_db <= 0:
        raise ConfigurationError("front-to-back ratio must be positive")
    if cb.n_azimuth_beams < 1 or cb.n_elevation_beams < 1:
        raise ConfigurationError("codebook needs at least one beam per axis")
    if not 0 < cb.azimuth_span_deg <= 120.0:
        raise ConfigurationError("codebook azimuth span must lie in (0, 120] degrees")
    if not 0 < cb.elevation_span_deg <= 180.0:
        raise ConfigurationError("codebook elevation span must lie in (0, 180] degrees")
    if cb.beam_azimuth_bw_deg <= 0 or cb.beam_elevation_bw_deg <= 0:
        raise ConfigurationError("beam beamwidths must be positive")
    if cb.sidelobe_floor_db <= 0:
        raise ConfigurationError("sidelobe floor must be positive")
    if radio.shadowing_sigma_db < 0:
        raise ConfigurationError("shadowing sigma must be non-negative")

    gain = cb.array_gain_db if cb.array_gain_db is not None else default_array_gain_db()
    az_step = cb.azimuth_span_deg / cb.n_azimuth_beams
    el_step = cb.elevation_span_deg / cb.n_elevation_beams
    beams = []
    for row in range(cb.n_elevation_beams):
        steer_el = -cb.elevation_span_deg / 2.0 + (row + 0.5) * el_step
        for col in range(cb.n_azimuth_beams):
            steer_az = -cb.azimuth_span_deg / 2.0 + (col + 0.5) * az_step
            beams.append(
                Beam(
                    beam_id=row * cb.n_azimuth_beams + col,
                    steer_azimuth_deg=steer_az,
                    steer_elevation_deg=steer_el,
                )
            )
    return BeamCodebook(
        beams=tuple(beams),
        n_azimuth=cb.n_azimuth_beams,
        n_elevation=cb.n_elevation_beams,
        beam_azimuth_bw_deg=cb.beam_azimuth_bw_deg,
        beam_elevation_bw_deg=cb.beam_elevation_bw_deg,
        array_gain_db=gain,
        sidelobe_floor_db=cb.sidelobe_floor_db,
        element=el,
    )


def wrap_deg(angle):
    """Wrap to [-180, 180); works on scalars and arrays."""
    return (np.asarray(angle) + 180.0) % 360.0 - 180.0


def element_gain_db(params: AntennaElementParams, az_offset_deg, el_offset_deg):
    """Element gain at an offset from the element boresight.

    Quadratic roll-off hits 3 dB at half the 3 dB beamwidth on each axis
    and saturates at the front-to-back floor.
    """
    az = np.asarray(az_offset_deg, dtype=np.float64)
    el = np.asarray(el_offset_deg, dtype=np.float64)
    att = 12.0 * (az / params.azimuth_3db_beamwidth_deg) ** 2
    att = att + 12.0 * (el / params.elevation_3db_beamwidth_deg) ** 2
    gain = params.max_gain_dbi - np.minimum(att, params.front_to_back_db)
    return float(gain) if gain.ndim == 0 else gain


def beam_gain_db(codebook: BeamCodebook, beam: Beam, az_deg, el_deg):
    """Synthesized gain of one beam toward a sector-frame direction."""
    az = np.asarray(az_deg, dtype=np.float64)
    el = np.asarray(el_deg, dtype=np.float64)
    steer = 12.0 * (wrap_deg(az - beam.steer_azimuth_deg) / codebook.beam_azimuth_bw_deg) ** 2
    steer = steer + 12.0 * ((el - beam.steer_elevation_deg) / codebook.beam_elevation_bw_deg) ** 2
    gain = (
        element_gain_db(codebook.element, az, el)
        + codebook.array_gain_db
        - np.minimum(steer, codebook.sidelobe_floor_db)
    )
    gain = np.asarray(gain)
    return float(gain) if gain.ndim == 0 else gain


def path_loss_db(frequency_hz: float, distance_m):
    """Free-space path loss, 20*log10(4 pi d f / c)."""
    d = np.asarray(distance_m, dtype=np.float64)
    if np.any(d <= 0):
        raise ValueError("path loss requires a positive distance")
    if frequency_hz <= 0:
        raise ValueError("path loss requires a positive frequency")
    pl = 20.0 * np.log10(4.0 * math.pi * d * frequency_hz / SPEED_OF_LIGHT_M_S)
    return float(pl) if pl.ndim == 0 else pl


def sector_frame_offsets(site, sector, x, y, z):
    """Direction from a sector to a point: (az offset, el offset, distance).

    Azimuth offset is wrapped relative to the sector boresight; elevation
    offset is relative to the downtilted panel normal. Accepts scalars or
    arrays for x, y, z.
    """
    dx = np.asarray(x, dtype=np.float64) - site.x
    dy = np.asarray(y, dtype=np.float64) - site.y
    dz = np.asarray(z, dtype=np.float64) - site.z
    ground = np.hypot(dx, dy)
    dist = np.sqrt(dx * dx + dy * dy + dz * dz)
    if np.any(dist == 0):
        raise ValueError("direction is undefined at the site position itself")
    az = np.degrees(np.arctan2(dy, dx))
    el = np.degrees(np.arctan2(dz, ground))
    az_off = wrap_deg(az - sector.boresight_azimuth_deg)
    el_off = el + sector.mechanical_downtilt_deg
    return az_off, el_off, dist


def _shadowing_key(rng_seed: int, cell_id: int, x: float, y: float, z: float) -> int:
    payload = struct.pack("<qq3d", rng_seed, cell_id, x, y, z)
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "little")


def shadowing_db(rng_seed: int, sigma_db: float, cell_id: int, x: float, y: float, z: float) -> float:
    """Log-normal shadowing term, deterministic per (seed, cell, location)."""
    if sigma_db == 0.0:
        return 0.0
    key = _shadowing_key(rng_seed, cell_id, x, y, z)
    gen = np.random.Generator(np.random.PCG64(key))
    return float(gen.standard_normal() * sigma_db)


def rsrp_dbm(scenario, cell_id: int, beam_id: int, point, seed: Optional[int] = None) -> float:
    """Received beam power at a point: tx power + beam gain - path loss.

    `point` is an (x, y, z) triple in metres. When the scenario carries a
    non-zero shadowing sigma a seeded log-normal term is added; the seed
    defaults to the scenario rng_seed.
    """
    try:
        site, sector = scenario.cell_map[cell_id]
    except KeyError:
        raise ConfigurationError(f"unknown cell id {cell_id}") from None
    beams = scenario.codebook.beams
    if not 0 <= beam_id < len(beams):
        raise ConfigurationError(f"unknown beam id {beam_id}")
    x, y, z = (float(v) for v in point)
    az_off, el_off, dist = sector_frame_offsets(site, sector, x, y, z)
    gain = beam_gain_db(scenario.codebook, beams[beam_id], az_off, el_off)
    loss = path_loss_db(scenario.config.carrier_frequency_hz, dist)
    sigma = scenario.config.radio.shadowing_sigma_db
    shadow = shadowing_db(
        scenario.config.rng_seed if seed is None else seed, sigma, cell_id, x, y, z
    )
    return sector.tx_power_dbm + float(gain) - float(loss) + shadow


# ---------------------------------------------------------------------------
# Config round trip helpers (used by the scenario file format)


def radio_config_to_dict(radio: RadioConfig) -> dict:
    return {
        "element": {
            "max_gain_dbi": radio.element.max_gain_dbi,
            "azimuth_3db_beamwidth_deg": radio.element.azimuth_3db_beamwidth_deg,
            "elevation_3db_beamwidth_deg": radio.element.elevation_3db_beamwidth_deg,
            "front_to_back_db": radio.element.front_to_back_db,
        },
        "codebook": {
            "n_azimuth_beams": radio.codebook.n_azimuth_beams,
            "n_elevation_beams": radio.codebook.n_elevation_beams,
            "azimuth_span_deg": radio.codebook.azimuth_span_deg,
            "elevation_span_deg": radio.codebook.elevation_span_deg,
            "beam_azimuth_bw_deg": radio.codebook.beam_azimuth_bw_deg,
            "beam_elevation_bw_deg": radio.codebook.beam_elevation_bw_deg,
            "array_gain_db": radio.codebook.array_gain_db,
            "sidelobe_floor_db": radio.codebook.sidelobe_floor_db,
        },
        "shadowing_sigma_db": radio.shadowing_sigma_db,
    }


_ELEMENT_KEYS = {
    "max_gain_dbi",
    "azimuth_3db_beamwidth_deg",
    "elevation_3db_beamwidth_deg",
    "front_to_back_db",
}
_CODEBOOK_KEYS = {
    "n_azimuth_beams",
    "n_elevation_beams",
    "azimuth_span_deg",
    "elevation_span_deg",
    "beam_azimuth_bw_deg",
    "beam_elevation_bw_deg",
    "array_gain_db",
    "sidelobe_floor_db",
}


def radio_config_from_dict(d: dict) -> RadioConfig:
    allowed = {"element", "codebook", "shadowing_sigma_db"}
    unknown = set(d) - allowed
    if unknown:
        raise ConfigurationError(f"unknown radio config keys: {sorted(unknown)}")
    e = d.get("element", {})
    c = d.get("codebook", {})
    for label, got, known in (("element", e, _ELEMENT_KEYS), ("codebook", c, _CODEBOOK_KEYS)):
        bad = set(got) - known
        if bad:
            raise ConfigurationError(f"unknown {label} config keys: {sorted(bad)}")
    gain = c.get("array_gain_db")
    return RadioConfig(
        element=AntennaElementParams(
            max_gain_dbi=float(e.get("max_gain_dbi", 8.0)),
            azimuth_3db_beamwidth_deg=float(e.get("azimuth_3db_beamwidth_deg", 65.0)),
            elevation_3db_beamwidth_deg=float(e.get("elevation_3db_beamwidth_deg", 65.0)),
            front_to_back_db=float(e.get("front_to_back_db", 30.0)),
        ),
        codebook=CodebookConfig(
            n_azimuth_beams=int(c.get("n_azimuth_beams", 16)),
            n_elevation_beams=int(c.get("n_elevation_beams", 2)),
            azimuth_span_deg=float(c.get("azimuth_span_deg", 120.0)),
            elevation_span_deg=float(c.get("elevation_span_deg", 30.0)),
            beam_azimuth_bw_deg=float(c.get("beam_azimuth_bw_deg", 7.0)),
            beam_elevation_bw_deg=float(c.get("beam_elevation_bw_deg", 30.0)),
            array_gain_db=None if gain is None else float(gain),
            sidelobe_floor_db=float(c.get("sidelobe_floor_db", 25.0)),
        ),
        shadowing_sigma_db=float(d.get("shadowing_sigma_db", 0.0)),
    )
