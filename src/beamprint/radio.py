"""Antenna patterns, beam codebook, free-space propagation, RSRP.

All gains are in dB (dBi for absolute element gain), powers in dBm,
angles in degrees. Directions handed to the gain functions are already
expressed in the sector frame: azimuth relative to the sector boresight,
elevation relative to the (downtilted) panel normal.
"""

from __future__ import annotations

import math
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


def _steered_gain_db(codebook: BeamCodebook, az, el, steer_az, steer_el):
    """Gain toward sector-frame (az, el) of beams steered at (steer_az,
    steer_el); the four arguments broadcast against each other."""
    steer = 12.0 * (wrap_deg(az - steer_az) / codebook.beam_azimuth_bw_deg) ** 2
    steer = steer + 12.0 * ((el - steer_el) / codebook.beam_elevation_bw_deg) ** 2
    return (
        element_gain_db(codebook.element, az, el)
        + codebook.array_gain_db
        - np.minimum(steer, codebook.sidelobe_floor_db)
    )


def beam_gain_db(codebook: BeamCodebook, beam: Beam, az_deg, el_deg):
    """Synthesized gain of one beam toward a sector-frame direction."""
    az = np.asarray(az_deg, dtype=np.float64)
    el = np.asarray(el_deg, dtype=np.float64)
    gain = np.asarray(_steered_gain_db(codebook, az, el, beam.steer_azimuth_deg, beam.steer_elevation_deg))
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


# SplitMix64 (Steele, Lea & Flood 2014) in numpy uint64, which wraps
# mod 2**64. Constants are np.uint64 because numpy 1.x promotes a bare
# Python int mixed with uint64 to float64.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_S11, _S27, _S30, _S31 = (np.uint64(s) for s in (11, 27, 30, 31))
_IRWIN_HALL_TERMS = 12


def _splitmix64(state: np.ndarray) -> np.ndarray:
    """SplitMix64's output for `state` (a 1-d uint64 array): the mix of
    state + gamma."""
    z = state + _GAMMA
    z = (z ^ (z >> _S30)) * _MUL1
    z = (z ^ (z >> _S27)) * _MUL2
    return z ^ (z >> _S31)


def shadowing_db(rng_seed: int, sigma_db: float, cell_id: int, x, y, z):
    """Shadowing term in dB, deterministic per (seed, cell, location).

    x, y and z are scalars or arrays that broadcast; a scalar location
    gives a float, arrays give an array. A counter-based draw: SplitMix64
    chained over the 64-bit two's-complement seed and cell id and the
    float64 bit patterns of x, y, z (so -0.0 and 0.0 differ) keys a
    SplitMix64 stream of 12 uniforms k * 2**-53; their Irwin-Hall sum
    minus 6 is the deviate, with mean 0, variance 1 (both to within
    1e-15) and bounds of +-6 sigma. The sum is taken exactly in integers
    and rounded once, so the draw uses only integer ops and correctly
    rounded float64 arithmetic: the same bits on every CPU, whichever
    SIMD kernels numpy dispatches.
    """
    coords = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in (x, y, z)))
    shape = coords[0].shape
    if sigma_db == 0.0:
        return 0.0 if not shape else np.zeros(shape)
    try:
        key = np.array([rng_seed, cell_id], dtype=np.int64).view(np.uint64)
    except OverflowError:
        raise ConfigurationError(f"shadowing seed {rng_seed} and cell id {cell_id} must fit in 64 bits") from None
    h = _splitmix64(_splitmix64(key[:1]) ^ key[1])
    for v in coords:
        h = _splitmix64(h ^ np.ravel(v).view(np.uint64))
    total = np.zeros_like(h)
    for _ in range(_IRWIN_HALL_TERMS):
        total += _splitmix64(h) >> _S11
        h += _GAMMA
    # total < 12 * 2**53, so the int64 view is the same value
    draw = (total.view(np.int64).astype(np.float64) * 2.0**-53 - 6.0) * sigma_db
    return float(draw[0]) if not shape else draw.reshape(shape)


def _cell_rsrp(scenario, cell_id: int, x, y, z, seed: int) -> np.ndarray:
    """RSRP in dBm of every beam of one cell at points (x, y, z), each
    a 1-d array: shape (n, n_beams)."""
    site, sector = scenario.cell_map[cell_id]
    codebook = scenario.codebook
    az_off, el_off, dist = sector_frame_offsets(site, sector, x, y, z)
    base = sector.tx_power_dbm - path_loss_db(scenario.config.carrier_frequency_hz, dist)
    sigma = scenario.config.radio.shadowing_sigma_db
    if sigma > 0.0:
        base = base + shadowing_db(seed, sigma, cell_id, x, y, z)
    # build_codebook lays the beams out row-major over (elevation row,
    # azimuth column), so the steering penalty broadcasts over an
    # (n, rows, columns) grid and wraps each azimuth column once
    beams = codebook.beams
    steer_az = np.array([b.steer_azimuth_deg for b in beams[: codebook.n_azimuth]])
    steer_el = np.array([[b.steer_elevation_deg] for b in beams[:: codebook.n_azimuth]])
    gain = _steered_gain_db(codebook, az_off[:, None, None], el_off[:, None, None], steer_az, steer_el)
    return base[:, None] + gain.reshape(len(base), len(beams))


def rsrp_cube(scenario, points, seed: Optional[int] = None) -> np.ndarray:
    """Received power of every (cell, beam) at every point, in dBm.

    `points` is an (n, 3) array of (x, y, z) in metres. Returns an
    (n, n_cells, n_beams) array, cells in `scenario.cell_ids` order and
    beams by id: tx power - path loss (+ shadowing) + beam gain. When the
    scenario carries a non-zero shadowing sigma, `shadowing_db` adds a
    seeded term per (point, cell); the seed defaults to the scenario
    rng_seed.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must be an (n, 3) array of x, y, z")
    if seed is None:
        seed = scenario.config.rng_seed
    cells = scenario.cell_ids
    out = np.empty((pts.shape[0], len(cells), len(scenario.codebook.beams)))
    for ci, cell_id in enumerate(cells):
        out[:, ci, :] = _cell_rsrp(scenario, cell_id, pts[:, 0], pts[:, 1], pts[:, 2], seed)
    return out

