import numpy as np
import pytest

from beamprint.scenario import (
    BuildingFootprint,
    ScenarioConfig,
    Sector,
    Site,
    build_scenario,
    default_scenario_config,
    single_site_config,
)
from beamprint.fingerprint import build_dataset, los_filter


def small_scenario_config(seed: int = 0, shadowing_sigma_db: float = 0.0) -> ScenarioConfig:
    """Two sites, two sectors each, one building. Cheap to sweep."""
    from beamprint.radio import AntennaElementParams, CodebookConfig, RadioConfig

    sites = (
        Site(
            x=0.0,
            y=20.0,
            sectors=(
                Sector(boresight_azimuth_deg=0.0, cell_id=0),
                Sector(boresight_azimuth_deg=90.0, cell_id=1),
            ),
        ),
        Site(
            x=60.0,
            y=20.0,
            sectors=(
                Sector(boresight_azimuth_deg=180.0, cell_id=2),
                Sector(boresight_azimuth_deg=270.0, cell_id=3),
            ),
        ),
    )
    buildings = (BuildingFootprint(min_x=24.0, min_y=8.0, max_x=36.0, max_y=32.0, height_m=15.0),)
    radio = RadioConfig(
        element=AntennaElementParams(),
        codebook=CodebookConfig(),
        shadowing_sigma_db=shadowing_sigma_db,
    )
    return ScenarioConfig(
        area_width_m=60.0,
        area_height_m=40.0,
        rng_seed=seed,
        sites=sites,
        buildings=buildings,
        radio=radio,
    )


@pytest.fixture(scope="session")
def small_scenario():
    return build_scenario(small_scenario_config())


@pytest.fixture(scope="session")
def small_dataset(small_scenario):
    return build_dataset(small_scenario)


@pytest.fixture(scope="session")
def single_site_scenario():
    return build_scenario(single_site_config())


@pytest.fixture(scope="session")
def single_site_dataset(single_site_scenario):
    return build_dataset(single_site_scenario)


@pytest.fixture(scope="session")
def default_scenario():
    return build_scenario(default_scenario_config())


@pytest.fixture(scope="session")
def default_dataset(default_scenario):
    return build_dataset(default_scenario)


@pytest.fixture(scope="session")
def default_los_dataset(default_dataset):
    return los_filter(default_dataset)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def triples(record):
    """A record's measurements as (cell, beam, rsrp) tuples, in row order."""
    _, _, _, _, cells, beams, rsrp = record
    return tuple(zip(cells.tolist(), beams.tolist(), rsrp.tolist()))


def row_of(dataset, i):
    """Record i of a dataset as the columns record_of gives."""
    return (
        dataset.xs[i].item(),
        dataset.ys[i].item(),
        dataset.serving[i].item(),
        dataset.los[i].item(),
        dataset.meas_cells[i],
        dataset.meas_beams[i],
        dataset.meas_rsrp[i],
    )


def record_of(triple_seq, serving=None, x=float("nan"), y=float("nan"), los=True):
    """A report as the columns the readers give, (x, y, serving, los,
    cells, beams, rsrp), from (cell, beam, rsrp) triples; serving
    defaults to the first triple's cell."""
    cells, beams, rsrp = zip(*triple_seq)
    return (
        x,
        y,
        cells[0] if serving is None else serving,
        los,
        np.array(cells, dtype=np.int32),
        np.array(beams, dtype=np.int32),
        np.array(rsrp, dtype=np.float64),
    )
