"""Corpus statistics: Table 1, Fig. 2, Fig. 3 — with oracle checks."""
import numpy as np
import pyspark.sql.functions as F
import pytest

from repro.core.stats import (
    category_shares,
    rank_frequency,
    recipe_size_histogram,
    recipe_size_summary,
    region_table,
    region_table_vs_paper,
    world_category_shares,
)
from repro.culinarydb.corpus import explode_corpus
from repro.culinarydb.generator import region_specs
from repro.oracle import assert_equivalent
from repro.regions import REGIONS


def test_region_table_matches_specs(corpus_small):
    got = {r["region"]: r for r in region_table(corpus_small).collect()}
    for s in region_specs(0.02, 11, True):
        assert got[s.code]["recipes"] == s.n_recipes
        assert got[s.code]["ingredients"] == len(s.pool)


def test_region_table_matches_oracle(corpus_small, exploded_small):
    assert_equivalent(
        region_table(corpus_small),
        """
        SELECT region,
               count(DISTINCT recipe_id) AS recipes,
               count(DISTINCT ingredient_id) AS ingredients
        FROM ex GROUP BY region
        """,
        ex=exploded_small.toPandas(),
    )


def test_region_table_vs_paper_columns(corpus_small):
    pdf = region_table_vs_paper(corpus_small)
    assert len(pdf) == 22
    assert {
        "region", "paper_recipes", "paper_ingredients",
        "recipes", "ingredients", "recipes_match", "ingredients_match",
    } <= set(pdf.columns)


def test_category_shares_sum_to_one(spark, corpus_small):
    shares = category_shares(spark, corpus_small).groupBy("region").agg(
        F.sum("share").alias("total")
    )
    for r in shares.collect():
        assert r["total"] == pytest.approx(1.0)


def test_category_shares_match_oracle(spark, corpus_small, exploded_small):
    from repro.flavordb.ingredients import ingredient_master

    cats = ingredient_master()[["ingredient_id", "category"]]
    assert_equivalent(
        category_shares(spark, corpus_small).select("region", "category", "count"),
        """
        SELECT region, category, count(*) AS count
        FROM ex JOIN cats USING (ingredient_id)
        GROUP BY region, category
        """,
        ex=exploded_small.toPandas(),
        cats=cats,
    )


def test_spice_regions_rank_spice_high(spark, corpus_mid):
    """Fig. 2: INSC / AFR / ME / CBN show predominant use of spice."""
    pdf = category_shares(spark, corpus_mid).toPandas()
    for code in ("INSC", "AFR", "ME", "CBN"):
        g = pdf[pdf["region"] == code].set_index("category")["share"]
        assert g.idxmax() == "Spice", (code, g.nlargest(3))


def test_dairy_first_regions_dairy_above_vegetable(spark, corpus_mid):
    """Fig. 2: FRA / BRI / SCND use dairy above vegetables."""
    pdf = category_shares(spark, corpus_mid).toPandas()
    for code in ("FRA", "BRI", "SCND"):
        g = pdf[pdf["region"] == code].set_index("category")["share"]
        assert g["Dairy"] > g["Vegetable"], (code, g.nlargest(5))


def test_world_top_categories(spark, corpus_mid):
    """Fig. 2 WORLD: Vegetable/Spice/Dairy/Herb/Plant/Meat/Fruit lead."""
    pdf = world_category_shares(spark, corpus_mid).toPandas()
    top7 = set(pdf.nlargest(7, "share")["category"])
    assert "Vegetable" in top7
    assert len(top7 & {"Vegetable", "Spice", "Dairy", "Herb", "Plant", "Meat", "Fruit"}) >= 5


def test_size_histogram_global(corpus_small):
    pdf = recipe_size_histogram(corpus_small).toPandas()
    assert pdf["p"].sum() == pytest.approx(1.0)
    assert pdf["n"].between(2, 25).all()


def test_size_histogram_per_region(corpus_small):
    pdf = recipe_size_histogram(corpus_small, per_region=True).toPandas()
    sums = pdf.groupby("region")["p"].sum()
    assert np.allclose(sums, 1.0)


def test_size_summary_mean_about_nine(corpus_mid):
    """Fig. 3a: average of about nine ingredients per recipe, thin tail."""
    pdf = recipe_size_summary(corpus_mid).toPandas()
    assert pdf["mean_n"].between(8.0, 10.0).all()
    assert (pdf["max_n"] <= 25).all()


def test_rank_frequency_normalized(corpus_small):
    pdf = rank_frequency(corpus_small).toPandas()
    # one row per ingredient a region uses
    assert len(pdf) == sum(len(s.pool) for s in region_specs(0.02, 11, True))
    top = pdf[pdf["rank"] == 1]
    assert (top["rel_freq"] == 1.0).all()
    assert pdf["rel_freq"].between(0, 1).all()


def test_rank_frequency_monotone_in_rank(corpus_small):
    pdf = rank_frequency(corpus_small).toPandas()
    for region, g in pdf.groupby("region"):
        g = g.sort_values("rank")
        assert (np.diff(g["count"]) <= 0).all(), region


def test_rank_frequency_matches_oracle(corpus_small, exploded_small):
    got = rank_frequency(corpus_small).select("region", "ingredient_id", "count")
    assert_equivalent(
        got,
        """
        SELECT region, ingredient_id, count(*) AS count
        FROM ex GROUP BY region, ingredient_id
        """,
        ex=exploded_small.toPandas(),
    )


def test_rank_frequency_scaling_consistent_across_regions(corpus_mid):
    """Fig. 3b: normalized popularity curves collapse across cuisines.

    Check that at matched relative ranks the normalized frequencies of
    all regions lie within a tight band (consistent scaling).
    """
    pdf = rank_frequency(corpus_mid).toPandas()
    grid = [0.1, 0.3, 0.5]
    for q in grid:
        vals = []
        for region, g in pdf.groupby("region"):
            g = g.sort_values("rel_rank")
            idx = (g["rel_rank"] - q).abs().idxmin()
            vals.append(g.loc[idx, "rel_freq"])
        vals = np.array(vals)
        assert vals.std() / vals.mean() < 0.8, (q, vals)
