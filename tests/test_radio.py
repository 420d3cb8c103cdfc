import math
import struct

import numpy as np
import pytest

from beamprint.errors import ConfigurationError
from beamprint.radio import (
    SPEED_OF_LIGHT_M_S,
    AntennaElementParams,
    Beam,
    CodebookConfig,
    RadioConfig,
    beam_gain_db,
    build_codebook,
    default_array_gain_db,
    element_gain_db,
    path_loss_db,
    radio_config_from_dict,
    radio_config_to_dict,
    rsrp_cube,
    rsrp_dbm,
    sector_frame_offsets,
    shadowing_db,
    wrap_deg,
)
from beamprint.scenario import ScenarioConfig, Sector, Site, build_scenario

EL = AntennaElementParams()


def test_wrap_deg_oracles():
    assert wrap_deg(0.0) == 0.0
    assert wrap_deg(190.0) == -170.0
    assert wrap_deg(-190.0) == 170.0
    assert wrap_deg(180.0) == -180.0
    assert wrap_deg(360.0) == 0.0
    assert np.allclose(wrap_deg([10.0, 350.0]), [10.0, -10.0])


def test_element_gain_oracles():
    # boresight: full 8 dBi
    assert element_gain_db(EL, 0.0, 0.0) == pytest.approx(8.0)
    # half the 3 dB beamwidth off in azimuth: exactly 3 dB down
    assert element_gain_db(EL, 32.5, 0.0) == pytest.approx(5.0)
    assert element_gain_db(EL, 0.0, 32.5) == pytest.approx(5.0)
    # a full beamwidth off: 12 dB down
    assert element_gain_db(EL, 65.0, 0.0) == pytest.approx(-4.0)
    # behind the panel: clamped at the 30 dB front-to-back floor
    assert element_gain_db(EL, 180.0, 0.0) == pytest.approx(-22.0)
    assert element_gain_db(EL, 180.0, 90.0) == pytest.approx(-22.0)


def test_element_gain_monotone_in_offset():
    gains = element_gain_db(EL, np.linspace(0.0, 90.0, 50), 0.0)
    assert np.all(np.diff(gains) <= 1e-12)


def test_array_gain_value():
    # 256 element panel
    assert default_array_gain_db() == pytest.approx(10.0 * math.log10(256.0), abs=1e-12)
    assert default_array_gain_db() == pytest.approx(24.082, abs=1e-3)


def default_codebook():
    return build_codebook(RadioConfig(element=EL, codebook=CodebookConfig()))


def test_codebook_layout():
    cb = default_codebook()
    assert len(cb.beams) == 32
    # ids are row-major over (elevation row, azimuth column)
    for i, beam in enumerate(cb.beams):
        assert beam.beam_id == i
    az = [b.steer_azimuth_deg for b in cb.beams[:16]]
    assert az[0] == pytest.approx(-56.25)
    assert az[-1] == pytest.approx(56.25)
    assert np.allclose(np.diff(az), 7.5)
    els = sorted({b.steer_elevation_deg for b in cb.beams})
    assert els == [pytest.approx(-7.5), pytest.approx(7.5)]
    assert [b.steer_elevation_deg for b in cb.beams[:16]] == [pytest.approx(-7.5)] * 16
    assert [b.steer_elevation_deg for b in cb.beams[16:]] == [pytest.approx(7.5)] * 16


def test_codebook_rejects_bad_config():
    with pytest.raises(ConfigurationError):
        build_codebook(RadioConfig(element=EL, codebook=CodebookConfig(n_azimuth_beams=0)))
    with pytest.raises(ConfigurationError):
        build_codebook(
            RadioConfig(element=EL, codebook=CodebookConfig(azimuth_span_deg=-10.0))
        )


def test_beam_gain_boresight_oracle():
    # beam steered dead ahead, looked at dead ahead:
    # 8 dBi element + 24.08 dB array, no steering penalty = 32.08
    cb = default_codebook()
    beam = Beam(beam_id=0, steer_azimuth_deg=0.0, steer_elevation_deg=0.0)
    assert beam_gain_db(cb, beam, 0.0, 0.0) == pytest.approx(32.08, abs=0.01)


def test_beam_gain_steering_penalty():
    cb = default_codebook()
    beam = Beam(beam_id=0, steer_azimuth_deg=0.0, steer_elevation_deg=0.0)
    # half the synthesized beam width off in azimuth costs exactly 3 dB of
    # steering penalty on top of the element roll-off
    expect = element_gain_db(EL, 3.5, 0.0) + cb.array_gain_db - 3.0
    assert beam_gain_db(cb, beam, 3.5, 0.0) == pytest.approx(expect, abs=1e-9)


def test_beam_gain_sidelobe_floor():
    cb = default_codebook()
    beam = Beam(beam_id=0, steer_azimuth_deg=-56.25, steer_elevation_deg=-7.5)
    # looking far from the steer direction: steering penalty clamps at 25 dB
    g = beam_gain_db(cb, beam, 56.25, 7.5)
    expect = element_gain_db(EL, 56.25, 7.5) + cb.array_gain_db - 25.0
    assert g == pytest.approx(expect, abs=1e-9)


def test_beam_gain_array_input():
    cb = default_codebook()
    beam = cb.beams[5]
    azs = np.array([-10.0, 0.0, 10.0])
    got = beam_gain_db(cb, beam, azs, 0.0)
    assert got.shape == (3,)
    assert got[1] == pytest.approx(beam_gain_db(cb, beam, 0.0, 0.0))


def test_path_loss_oracles():
    # 28 GHz free space: ~61.4 dB at 1 m, ~101.4 dB at 100 m
    assert path_loss_db(28e9, 1.0) == pytest.approx(61.4, abs=0.1)
    assert path_loss_db(28e9, 100.0) == pytest.approx(101.4, abs=0.1)
    # doubling the distance costs 20*log10(2) = 6.02 dB
    assert path_loss_db(28e9, 200.0) - path_loss_db(28e9, 100.0) == pytest.approx(
        20.0 * math.log10(2.0), abs=1e-9
    )
    # exact form at 100 m
    expect = 20.0 * math.log10(4.0 * math.pi * 100.0 * 28e9 / SPEED_OF_LIGHT_M_S)
    assert path_loss_db(28e9, 100.0) == pytest.approx(expect, abs=1e-12)


def test_path_loss_rejects_nonpositive():
    with pytest.raises(ValueError):
        path_loss_db(28e9, 0.0)
    with pytest.raises(ValueError):
        path_loss_db(-1.0, 10.0)


def test_sector_frame_offsets():
    site = Site(x=0.0, y=0.0, sectors=(Sector(boresight_azimuth_deg=0.0, cell_id=0),))
    sector = site.sectors[0]
    # level with the panel, straight down the boresight: el offset is the tilt
    az, el, dist = sector_frame_offsets(site, sector, 100.0, 0.0, 10.0)
    assert az == pytest.approx(0.0)
    assert el == pytest.approx(5.0)
    assert dist == pytest.approx(100.0)
    # point placed on the tilted normal: el offset vanishes
    g = 100.0 * math.cos(math.radians(5.0))
    z = 10.0 - 100.0 * math.sin(math.radians(5.0))
    az, el, dist = sector_frame_offsets(site, sector, g, 0.0, z)
    assert el == pytest.approx(0.0, abs=1e-9)
    assert dist == pytest.approx(100.0)
    # 90 degrees to the left of a north-facing sector
    sector_n = Sector(boresight_azimuth_deg=90.0, cell_id=1)
    az, el, dist = sector_frame_offsets(site, sector_n, 50.0, 0.0, 10.0)
    assert az == pytest.approx(-90.0)


def test_sector_frame_offsets_at_site_raises():
    site = Site(x=1.0, y=2.0, sectors=(Sector(boresight_azimuth_deg=0.0, cell_id=0),))
    with pytest.raises(ValueError):
        sector_frame_offsets(site, site.sectors[0], 1.0, 2.0, site.z)


def test_shadowing_deterministic():
    a = shadowing_db(3, 4.0, 7, 10.0, 20.0, 1.5)
    b = shadowing_db(3, 4.0, 7, 10.0, 20.0, 1.5)
    assert a == b
    assert shadowing_db(3, 4.0, 8, 10.0, 20.0, 1.5) != a  # cell matters
    assert shadowing_db(4, 4.0, 7, 10.0, 20.0, 1.5) != a  # seed matters
    assert shadowing_db(3, 4.0, 7, 10.5, 20.0, 1.5) != a  # location matters


def test_shadowing_zero_sigma_is_exactly_zero():
    assert shadowing_db(3, 0.0, 7, 10.0, 20.0, 1.5) == 0.0


def test_shadowing_scales_with_sigma(rng):
    draws = np.array(
        [shadowing_db(0, 1.0, 0, float(x), 0.0, 1.5) for x in range(2000)]
    )
    assert abs(draws.mean()) < 0.1
    assert draws.std() == pytest.approx(1.0, abs=0.1)
    doubled = np.array(
        [shadowing_db(0, 2.0, 0, float(x), 0.0, 1.5) for x in range(100)]
    )
    assert np.allclose(doubled, 2.0 * draws[:100])


# float.hex of draws pinned when the counter-based generator was
# written; integer ops and correctly rounded float64 arithmetic only, so
# they hold whichever SIMD kernels numpy dispatches
SHADOWING_PINS = [
    ((0, 4.0, 0, 10.0, 20.0, 1.5), "-0x1.68fead20cad80p-2"),
    ((-1, 4.0, 7, 10.0, 20.0, 1.5), "0x1.831766ad069c8p+2"),
    ((2**63 - 1, 4.0, 23, 10.0, 20.0, 1.5), "0x1.ae99ab0789f8cp+2"),
    ((5, 1.0, 3, -0.0, 0.0, 1.5), "0x1.d2924d0679b60p-3"),
    ((5, 1.0, 3, 0.0, 0.0, 1.5), "-0x1.623c60a306d60p-3"),
    ((3, 4.0, 2, -215.25, -48.0, 1.5), "-0x1.0c94b72d1c500p-1"),
]


@pytest.mark.parametrize("args, pinned", SHADOWING_PINS)
def test_shadowing_pinned_draws(args, pinned):
    got = shadowing_db(*args)
    assert type(got) is float
    assert got.hex() == pinned


def test_shadowing_rejects_seeds_past_64_bits():
    assert shadowing_db(-(2**63), 4.0, 0, 0.0, 0.0, 1.5) != 0.0
    for seed in (2**63, -(2**63) - 1, 2**64):
        with pytest.raises(ConfigurationError, match="64 bits"):
            shadowing_db(seed, 4.0, 0, 0.0, 0.0, 1.5)


def oracle_shadowing_db(seed, sigma, cell, x, y, z):
    """SplitMix64 and the 12-term Irwin-Hall sum in Python ints."""
    mask = (1 << 64) - 1
    gamma = 0x9E3779B97F4A7C15

    def mix(state):
        v = (state + gamma) & mask
        v = ((v ^ (v >> 30)) * 0xBF58476D1CE4E5B9) & mask
        v = ((v ^ (v >> 27)) * 0x94D049BB133111EB) & mask
        return v ^ (v >> 31)

    h = mix(mix(seed & mask) ^ (cell & mask))
    for v in (x, y, z):
        h = mix(h ^ struct.unpack("<Q", struct.pack("<d", v))[0])
    total = sum(mix((h + k * gamma) & mask) >> 11 for k in range(12))
    return (total * 2.0**-53 - 6.0) * sigma


def test_shadowing_matches_python_oracle():
    rng = np.random.default_rng(17)
    seeds = [0, -1, 2**63 - 1, -(2**63), *rng.integers(-(2**62), 2**62, size=6).tolist()]
    for seed in seeds:
        cell = int(rng.integers(-5, 1000))
        x, y = rng.uniform(-1e4, 1e4, size=2).tolist()
        assert shadowing_db(seed, 4.0, cell, x, y, 1.5) == oracle_shadowing_db(seed, 4.0, cell, x, y, 1.5)


def test_shadowing_array_call_matches_scalar_calls():
    xs = np.array([[-3.0, 0.0, -0.0], [10.0, 12.5, 1e6]])
    ys = np.array([-7.0, 20.0, 0.0])  # broadcasts over rows
    got = shadowing_db(9, 4.0, 5, xs, ys, 1.5)
    assert got.shape == (2, 3)
    for i, j in np.ndindex(got.shape):
        assert got[i, j] == shadowing_db(9, 4.0, 5, float(xs[i, j]), float(ys[j]), 1.5)
    assert np.array_equal(shadowing_db(9, 0.0, 5, xs, ys, 1.5), np.zeros((2, 3)))


def test_shadowing_bounded_at_six_sigma():
    draws = shadowing_db(1, 2.0, 0, np.arange(50000.0), 0.0, 1.5)
    assert np.abs(draws).max() <= 12.0


def rsrp_scenario():
    # single sector facing east, one beam steered exactly at (0, 0)
    site = Site(x=0.0, y=25.0, sectors=(Sector(boresight_azimuth_deg=0.0, cell_id=0),))
    radio = RadioConfig(
        element=EL, codebook=CodebookConfig(n_azimuth_beams=1, n_elevation_beams=1)
    )
    cfg = ScenarioConfig(
        area_width_m=120.0, area_height_m=50.0, sites=(site,), buildings=(), radio=radio
    )
    return build_scenario(cfg)


def test_rsrp_boresight_oracle():
    # 30 dBm + (8 + 24.08) dB gain - 101.39 dB path loss = -39.31 dBm at
    # 100 m along the tilted boresight
    sc = rsrp_scenario()
    g = 100.0 * math.cos(math.radians(5.0))
    z = 10.0 - 100.0 * math.sin(math.radians(5.0))
    got = rsrp_dbm(sc, 0, 0, (g, 25.0, z))
    assert got == pytest.approx(-39.31, abs=0.02)


def test_rsrp_decomposition():
    sc = rsrp_scenario()
    site = sc.config.sites[0]
    sector = site.sectors[0]
    point = (80.0, 30.0, 1.5)
    az, el, dist = sector_frame_offsets(site, sector, *point)
    expect = (
        sector.tx_power_dbm
        + beam_gain_db(sc.codebook, sc.codebook.beams[0], az, el)
        - path_loss_db(sc.config.carrier_frequency_hz, dist)
    )
    assert rsrp_dbm(sc, 0, 0, point) == pytest.approx(expect, abs=1e-12)


def oracle_beam_gain_db(cb, beam, az, el):
    """One beam's gain as the per-beam sweep computed it."""
    steer = 12.0 * (wrap_deg(az - beam.steer_azimuth_deg) / cb.beam_azimuth_bw_deg) ** 2
    steer = steer + 12.0 * ((el - beam.steer_elevation_deg) / cb.beam_elevation_bw_deg) ** 2
    return element_gain_db(cb.element, az, el) + cb.array_gain_db - np.minimum(steer, cb.sidelobe_floor_db)


def test_rsrp_cube_matches_per_beam_sweep():
    """The per-beam loop the sweep used before the cube, exact."""
    from conftest import small_scenario_config

    sc = build_scenario(small_scenario_config())
    rng = np.random.default_rng(5)
    pts = np.column_stack([rng.uniform(-10.0, 70.0, 40), rng.uniform(-5.0, 45.0, 40), np.full(40, 1.5)])
    cube = rsrp_cube(sc, pts)
    assert cube.shape == (40, sc.n_cells, sc.n_beams)
    for ci, cell_id in enumerate(sc.cell_ids):
        site, sector = sc.cell_map[cell_id]
        az, el, dist = sector_frame_offsets(site, sector, pts[:, 0], pts[:, 1], pts[:, 2])
        base = sector.tx_power_dbm - path_loss_db(sc.config.carrier_frequency_hz, dist)
        for bi, beam in enumerate(sc.codebook.beams):
            gain = oracle_beam_gain_db(sc.codebook, beam, az, el)
            assert np.array_equal(beam_gain_db(sc.codebook, beam, az, el), gain)
            assert np.array_equal(cube[:, ci, bi], base + gain)


def test_rsrp_dbm_is_a_cube_element():
    from conftest import small_scenario_config

    sc = build_scenario(small_scenario_config(shadowing_sigma_db=4.0))
    pts = np.array([[5.0, 3.0, 1.5], [41.5, 37.0, 1.5]])
    cube = rsrp_cube(sc, pts, seed=8)
    assert not np.array_equal(cube, rsrp_cube(sc, pts, seed=9))
    for i, ci, bi in ((0, 0, 0), (1, 3, 31), (1, 2, 17)):
        assert rsrp_dbm(sc, sc.cell_ids[ci], bi, pts[i], seed=8) == cube[i, ci, bi]


def test_rsrp_cube_rejects_bad_points():
    sc = rsrp_scenario()
    with pytest.raises(ValueError):
        rsrp_cube(sc, np.zeros((4, 2)))


def test_rsrp_unknown_ids():
    sc = rsrp_scenario()
    with pytest.raises(ConfigurationError):
        rsrp_dbm(sc, 5, 0, (10.0, 25.0, 1.5))
    with pytest.raises(ConfigurationError):
        rsrp_dbm(sc, 0, 99, (10.0, 25.0, 1.5))


def test_rsrp_ignores_buildings():
    # blockage flags LoS, it does not attenuate the synthetic power
    from beamprint.scenario import BuildingFootprint

    site = Site(x=0.0, y=25.0, sectors=(Sector(boresight_azimuth_deg=0.0, cell_id=0),))
    blocked = ScenarioConfig(
        area_width_m=120.0,
        area_height_m=50.0,
        sites=(site,),
        buildings=(BuildingFootprint(min_x=40.0, min_y=20.0, max_x=50.0, max_y=30.0, height_m=40.0),),
    )
    open_ = ScenarioConfig(
        area_width_m=120.0, area_height_m=50.0, sites=(site,), buildings=()
    )
    p = (100.0, 25.0, 1.5)
    assert rsrp_dbm(build_scenario(blocked), 0, 3, p) == rsrp_dbm(build_scenario(open_), 0, 3, p)


def test_radio_config_round_trip():
    radio = RadioConfig(
        element=AntennaElementParams(max_gain_dbi=7.0),
        codebook=CodebookConfig(n_azimuth_beams=8, array_gain_db=20.0),
        shadowing_sigma_db=3.5,
    )
    back = radio_config_from_dict(radio_config_to_dict(radio))
    assert back == radio


def test_radio_config_unknown_key():
    d = radio_config_to_dict(RadioConfig(element=EL, codebook=CodebookConfig()))
    d["codebook"]["bogus"] = 1
    with pytest.raises(ConfigurationError):
        radio_config_from_dict(d)
