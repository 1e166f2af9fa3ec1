"""Entry points: each ``jobs/t*.py`` ``run()`` end to end at scale 0.02.

These are the functions that print the published numbers; the library
tests cover their parts, these cover the wiring.
"""
import importlib.util
from pathlib import Path

import numpy as np

from repro.culinarydb.generator import region_specs
from repro.regions import REGIONS

JOBS = Path(__file__).resolve().parent.parent / "jobs"
SCALE = 0.02
SEED = 11
CODES = {r.code for r in REGIONS}


def _job(name: str):
    spec = importlib.util.spec_from_file_location(name, JOBS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_t1_region_stats(spark):
    out = _job("t1_region_stats").run(spark, SCALE, SEED)
    specs = {s.code: s for s in region_specs(SCALE, SEED)}
    assert set(out["region"]) == CODES
    for row in out.itertuples():
        assert row.recipes == specs[row.region].n_recipes
        assert row.ingredients == len(specs[row.region].pool)


def test_t2_category_heatmap(spark):
    pdf = _job("t2_category_heatmap").run(spark, SCALE, SEED)
    assert CODES | {"WORLD"} <= set(pdf["region"])
    totals = pdf.groupby("region")["share"].sum()
    assert np.allclose(totals, 1.0)


def test_t3_size_popularity(spark):
    sizes, curve = _job("t3_size_popularity").run(spark, SCALE, SEED)
    assert CODES <= set(sizes["region"]) and CODES <= set(curve["region"])
    assert ((sizes["mean_n"] >= 2) & (sizes["mean_n"] <= 25)).all()
    rf = curve.drop(columns="region").to_numpy()
    assert ((rf > 0) & (rf <= 1)).all()


def test_t4_food_pairing(spark):
    table = _job("t4_food_pairing").run(spark, SCALE, SEED, n_rand=300)
    assert CODES <= set(table["region"])
    assert (table["sigma_random"] > 0).all()
    z = table[[c for c in table.columns if c.startswith("z_")]].to_numpy(dtype=float)
    assert np.isfinite(z).all()
    assert table["sign_ok"].dtype == bool


def test_t5_contributions(spark):
    top = _job("t5_contributions").run(spark, SCALE, SEED)
    assert set(top["region"]) == CODES
    assert top.groupby("region")["rank"].apply(list).map(lambda r: r == [1, 2, 3]).all()
    assert np.isfinite(top["chi"]).all()
