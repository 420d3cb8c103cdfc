import json
import math

import numpy as np
import pytest

from beamprint.configfile import from_dict, to_dict
from beamprint.errors import ConfigurationError
from beamprint.scenario import (
    BuildingFootprint,
    ScenarioConfig,
    Sector,
    Site,
    build_scenario,
    default_scenario_config,
    grid_xy,
    load_scenario_config,
    los_mask,
    save_scenario_config,
    scenario_hash,
    single_site_config,
)


def open_config(width=10.0, height=6.0, res=1.0, buildings=(), sites=None):
    if sites is None:
        sites = (Site(x=0.0, y=0.0, sectors=(Sector(boresight_azimuth_deg=0.0, cell_id=0),)),)
    return ScenarioConfig(
        area_width_m=width,
        area_height_m=height,
        grid_resolution_m=res,
        sites=sites,
        buildings=tuple(buildings),
    )


# ---------------------------------------------------------------------------
# grid


def test_grid_counts_inclusive_edges():
    # 10 m x 6 m at 1 m: 11 columns, 7 rows = 77 points
    sc = build_scenario(open_config())
    pts = grid_xy(sc)
    assert pts.shape == (77, 2)


def test_grid_row_major_y_outer():
    sc = build_scenario(open_config(width=2.0, height=1.0))
    pts = grid_xy(sc)
    expect = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]
    assert [(float(x), float(y)) for x, y in pts] == [(float(a), float(b)) for a, b in expect]


def test_grid_fractional_resolution():
    # 1 m span at 0.25 m: 5 points per axis; floor guard must not drop the
    # closing edge to float noise
    sc = build_scenario(open_config(width=1.0, height=1.0, res=0.25))
    assert grid_xy(sc).shape == (25, 2)


def test_grid_excludes_building_interior_and_boundary():
    b = BuildingFootprint(min_x=2.0, min_y=2.0, max_x=4.0, max_y=4.0, height_m=5.0)
    sc = build_scenario(open_config(buildings=(b,)))
    pts = grid_xy(sc)
    inside = (pts[:, 0] >= 2.0) & (pts[:, 0] <= 4.0) & (pts[:, 1] >= 2.0) & (pts[:, 1] <= 4.0)
    assert not inside.any()  # closed containment: boundary points excluded too
    assert pts.shape[0] == 77 - 9  # 3x3 lattice points removed


# ---------------------------------------------------------------------------
# construction and validation


def test_auto_cell_ids_site_major():
    sites = (
        Site(x=0.0, y=0.0, sectors=(Sector(0.0), Sector(120.0), Sector(240.0))),
        Site(
            x=30.0,
            y=0.0,
            z=25.0,
            sectors=(Sector(0.0, mechanical_downtilt_deg=12.0, tx_power_dbm=43.0), Sector(180.0)),
        ),
    )
    sc = build_scenario(open_config(width=30.0, sites=sites))
    assert sc.cell_ids == (0, 1, 2, 3, 4)
    assert sc.n_cells == 5
    # assigning ids keeps every other site and sector field
    site, sector = sc.cell_map[3]
    assert (site.x, site.y, site.z) == (30.0, 0.0, 25.0)
    assert sector == Sector(0.0, cell_id=3, mechanical_downtilt_deg=12.0, tx_power_dbm=43.0)
    assert sc.config.sites == sc.sites


def test_explicit_cell_ids_all_or_none():
    sites = (Site(x=0.0, y=0.0, sectors=(Sector(0.0, cell_id=7), Sector(120.0))),)
    with pytest.raises(ConfigurationError):
        build_scenario(open_config(sites=sites))


def test_duplicate_cell_ids_rejected():
    sites = (Site(x=0.0, y=0.0, sectors=(Sector(0.0, cell_id=1), Sector(120.0, cell_id=1))),)
    with pytest.raises(ConfigurationError):
        build_scenario(open_config(sites=sites))


@pytest.mark.parametrize("cell_id", [2**31, -(2**31) - 1, 2**40])
def test_cell_ids_past_32_bits_rejected(cell_id):
    # such an id once ended build_dataset in a raw OverflowError
    sites = (Site(x=0.0, y=0.0, sectors=(Sector(0.0, cell_id=cell_id),)),)
    with pytest.raises(ConfigurationError, match="32 bits"):
        build_scenario(open_config(sites=sites))


def test_duplicate_site_positions_rejected():
    sites = (
        Site(x=0.0, y=0.0, sectors=(Sector(0.0),)),
        Site(x=0.0, y=0.0, sectors=(Sector(90.0),)),
    )
    with pytest.raises(ConfigurationError):
        build_scenario(open_config(sites=sites))


def test_duplicate_sector_azimuth_rejected():
    sites = (Site(x=0.0, y=0.0, sectors=(Sector(10.0), Sector(370.0))),)  # same mod 360
    with pytest.raises(ConfigurationError):
        build_scenario(open_config(sites=sites))


def test_degenerate_building_rejected():
    b = BuildingFootprint(min_x=2.0, min_y=2.0, max_x=2.0, max_y=4.0, height_m=5.0)
    with pytest.raises(ConfigurationError):
        build_scenario(open_config(buildings=(b,)))


def test_building_over_site_rejected():
    b = BuildingFootprint(min_x=-1.0, min_y=-1.0, max_x=1.0, max_y=1.0, height_m=5.0)
    with pytest.raises(ConfigurationError):
        build_scenario(open_config(buildings=(b,)))


def test_site_on_a_grid_point_rejected():
    # a receiver there has no direction to the site
    sector = (Sector(boresight_azimuth_deg=0.0, cell_id=0),)
    with pytest.raises(ConfigurationError, match=r"site at \(2.5, 3.0, 1.5\) stands on a receiver grid point"):
        build_scenario(open_config(res=0.5, sites=(Site(x=2.5, y=3.0, z=1.5, sectors=sector),)))
    # at UE height between grid points, or above one, a site is fine
    for x, z in ((2.25, 1.5), (2.5, 1.6)):
        build_scenario(open_config(res=0.5, sites=(Site(x=x, y=3.0, z=z, sectors=sector),)))


def test_nonpositive_dimensions_rejected():
    with pytest.raises(ConfigurationError):
        build_scenario(open_config(width=0.0))
    with pytest.raises(ConfigurationError):
        build_scenario(open_config(res=-1.0))


# ---------------------------------------------------------------------------
# line of sight


def los_scenario(buildings):
    return build_scenario(open_config(width=100.0, height=40.0, buildings=buildings))


def segment_clear(scenario, p0, p1):
    """Scalar slab test of the segment p0-p1 against every building, the
    exact oracle for los_mask: touching a face, edge or corner counts as
    blocked."""
    for b in scenario.buildings:
        bounds = ((b.min_x, b.max_x), (b.min_y, b.max_y), (0.0, b.height_m))
        tmin, tmax = 0.0, 1.0
        for axis in range(3):
            lo, hi = bounds[axis]
            origin = p0[axis]
            d = p1[axis] - origin
            if d == 0.0:
                if origin < lo or origin > hi:
                    break  # parallel to this slab and outside it
                continue
            t1, t2 = sorted(((lo - origin) / d, (hi - origin) / d))
            tmin, tmax = max(tmin, t1), min(tmax, t2)
            if tmin > tmax:
                break
        else:
            return False
    return True


def los(scenario, tx, rx):
    """los_mask for one point."""
    (clear,) = los_mask(scenario, tx, np.array([rx], dtype=np.float64))
    return bool(clear)


def test_los_open_ground():
    sc = los_scenario(())
    assert los(sc, (0, 0, 10), (50, 10, 1.5))


def test_los_blocked_by_wall():
    b = BuildingFootprint(min_x=20.0, min_y=0.0, max_x=30.0, max_y=40.0, height_m=30.0)
    sc = los_scenario((b,))
    assert not los(sc, (0, 20, 10), (60, 20, 1.5))
    # path that never enters the slab stays clear
    assert los(sc, (0, 20, 10), (10, 20, 1.5))


def test_los_ray_clears_low_roof():
    # site z=10 to UE z=1.5 at 100 m: ray height over x in [10, 20] spans
    # [9.15, 8.3]; an 8 m block there is cleared, a 9 m block is hit
    low = BuildingFootprint(min_x=10.0, min_y=15.0, max_x=20.0, max_y=25.0, height_m=8.0)
    high = BuildingFootprint(min_x=10.0, min_y=15.0, max_x=20.0, max_y=25.0, height_m=9.0)
    assert los(los_scenario((low,)), (0, 20, 10), (100, 20, 1.5))
    assert not los(los_scenario((high,)), (0, 20, 10), (100, 20, 1.5))


def test_los_grazing_counts_as_blocked():
    b = BuildingFootprint(min_x=20.0, min_y=10.0, max_x=30.0, max_y=20.0, height_m=30.0)
    sc = los_scenario((b,))
    # ray running exactly along the face y=10
    assert not los(sc, (0, 10, 5), (100, 10, 5))
    # diagonal ray touching only the corner (20, 10)
    assert not los(sc, (10, 20, 5), (30, 0, 5))


def test_los_endpoint_on_face_blocked():
    b = BuildingFootprint(min_x=20.0, min_y=10.0, max_x=30.0, max_y=20.0, height_m=30.0)
    sc = los_scenario((b,))
    assert not los(sc, (0, 15, 5), (20, 15, 5))


def test_los_vertical_ray():
    b = BuildingFootprint(min_x=20.0, min_y=10.0, max_x=30.0, max_y=20.0, height_m=30.0)
    sc = los_scenario((b,))
    # straight down outside the footprint: clear
    assert los(sc, (5, 15, 30), (5, 15, 1))
    # straight down through the roof: blocked
    assert not los(sc, (25, 15, 40), (25, 15, 20))
    # hovering above the roof: clear
    assert los(sc, (25, 15, 40), (25, 15, 35))


def test_los_mask_matches_scalar(rng):
    # randomized agreement between los_mask and the scalar slab test
    for _ in range(20):
        boxes = []
        for _ in range(rng.integers(1, 4)):
            x0, y0 = rng.uniform(5, 70, size=2)
            boxes.append(
                BuildingFootprint(
                    min_x=float(x0),
                    min_y=float(y0 * 0.5),
                    max_x=float(x0 + rng.uniform(2, 15)),
                    max_y=float(y0 * 0.5 + rng.uniform(2, 15)),
                    height_m=float(rng.uniform(3, 30)),
                )
            )
        sc = los_scenario(tuple(boxes))
        tx = (0.0, 20.0, 10.0)
        pts = np.column_stack(
            [
                rng.uniform(1, 100, size=50),
                rng.uniform(0, 40, size=50),
                np.full(50, 1.5),
            ]
        )
        mask = los_mask(sc, tx, pts)
        scalar = np.array([segment_clear(sc, tx, p) for p in pts])
        assert np.array_equal(mask, scalar)


def test_los_mask_with_one_tx_per_point_matches_one_call_each(rng):
    # every point gets the bits of a call with its own transmitter alone,
    # also where a segment runs parallel to a slab, inside it or not
    boxes = (
        BuildingFootprint(min_x=20.0, min_y=10.0, max_x=30.0, max_y=20.0, height_m=12.0),
        BuildingFootprint(min_x=50.0, min_y=5.0, max_x=60.0, max_y=30.0, height_m=25.0),
    )
    sc = los_scenario(boxes)
    n = 400

    def draw():
        return np.column_stack(
            [
                rng.choice([0.0, 20.0, 25.0, 55.0, 100.0], n),
                rng.choice([0.0, 10.0, 15.0, 40.0], n),
                rng.choice([1.5, 10.0, 30.0], n),
            ]
        )

    tx, pts = draw(), draw()
    pts[::2] += rng.uniform(-3.0, 3.0, size=(n // 2, 3))  # half the points off the lattice
    mask = los_mask(sc, tx, pts)
    assert np.array_equal(mask, [los_mask(sc, t, p[None])[0] for t, p in zip(tx, pts)])
    assert np.array_equal(mask, [segment_clear(sc, t, p) for t, p in zip(tx, pts)])
    assert mask.any() and not mask.all()


# ---------------------------------------------------------------------------
# default layout


def test_default_layout_shape():
    cfg = default_scenario_config()
    sc = build_scenario(cfg)
    assert len(cfg.sites) == 8
    assert sc.n_cells == 24
    assert cfg.area_width_m == 200.0
    assert cfg.area_height_m == 330.0
    xs = sorted({s.x for s in cfg.sites})
    ys = sorted({s.y for s in cfg.sites})
    assert xs == [0.0, 200.0]
    assert ys == [0.0, 110.0, 220.0, 330.0]


def test_single_site_config_buildable():
    sc = build_scenario(single_site_config())
    assert sc.n_cells == 1


# ---------------------------------------------------------------------------
# hashing and serialization


def test_scenario_hash_ignores_seed():
    a = scenario_hash(default_scenario_config(seed=0))
    b = scenario_hash(default_scenario_config(seed=99))
    assert a == b
    assert len(a) == 64 and all(c in "0123456789abcdef" for c in a)


def test_scenario_hash_sensitive_to_geometry():
    base = open_config()
    moved = open_config(width=11.0)
    assert scenario_hash(base) != scenario_hash(moved)


def test_config_dict_round_trip():
    cfg = default_scenario_config(seed=5)
    d = to_dict(cfg)
    json.dumps(d)  # must be plain JSON types
    back = from_dict(ScenarioConfig, d, "scenario config")
    assert back == cfg


def test_config_file_round_trip(tmp_path):
    cfg = default_scenario_config()
    path = tmp_path / "scenario.json"
    save_scenario_config(cfg, path)
    assert load_scenario_config(path) == cfg


def test_config_unknown_key_rejected():
    d = to_dict(open_config())
    d["surprise"] = 1
    with pytest.raises(ConfigurationError):
        from_dict(ScenarioConfig, d, "scenario config")
