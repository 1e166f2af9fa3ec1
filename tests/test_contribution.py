"""Ingredient contribution χ_i: exact decomposition vs brute force."""
import numpy as np
import pandas as pd
import pyspark.sql.functions as F
import pytest

from repro.core.contribution import ingredient_contributions, top_contributors
from repro.core.pairing import recipe_scores_fast, shared_pairs


@pytest.fixture(scope="module")
def contrib(spark, exploded_small, pairs_df):
    sub = exploded_small.where(F.col("region").isin(["KOR", "SAM"]))
    df = ingredient_contributions(sub, pairs_df).persist()
    df.count()
    yield df
    df.unpersist()


def _brute_force_ns_without(corpus_pdf: pd.DataFrame, matrix: np.ndarray, ing: int) -> float:
    """Recompute N_s^C after removing ``ing`` from every recipe."""
    scores = []
    for _, row in corpus_pdf.iterrows():
        members = [i for i in row["ingredients"] if i != ing]
        n = len(members)
        if n < 2:
            continue
        arr = np.asarray(members)
        scores.append(matrix[np.ix_(arr, arr)].sum() / (n * (n - 1)))
    return float(np.mean(scores))


def test_chi_matches_brute_force(spark, corpus_small, contrib, overlap_matrix):
    """Every ingredient of both regions against re-scoring without it."""
    for region in ("KOR", "SAM"):
        corpus_pdf = (
            corpus_small.where(F.col("region") == region)
            .select("ingredients")
            .toPandas()
        )
        got = contrib.where(F.col("region") == region).toPandas()
        assert len(got) > 0
        for _, row in got.iterrows():
            brute = _brute_force_ns_without(
                corpus_pdf, overlap_matrix, int(row["ingredient_id"])
            )
            assert row["ns_without"] == pytest.approx(brute, rel=1e-9), (
                region,
                row["ingredient_id"],
            )


def test_ns_c_matches_fast_scorer(spark, corpus_small, contrib, overlap_matrix):
    real = (
        recipe_scores_fast(
            corpus_small.where(F.col("region") == "SAM"), overlap_matrix
        )
        .agg(F.avg("score"))
        .first()[0]
    )
    ns_c = contrib.where(F.col("region") == "SAM").select("ns_c").first()[0]
    assert ns_c == pytest.approx(real, rel=1e-9)


def test_every_pool_ingredient_has_chi(contrib, exploded_small):
    uniq = (
        exploded_small.where(F.col("region").isin(["KOR", "SAM"]))
        .groupBy("region")
        .agg(F.countDistinct("ingredient_id").alias("u"))
        .collect()
    )
    counts = {r["region"]: r["u"] for r in uniq}
    got = (
        contrib.groupBy("region").agg(F.count("*").alias("c")).collect()
    )
    for r in got:
        assert r["c"] == counts[r["region"]]


def test_chi_sums_are_finite(contrib):
    pdf = contrib.toPandas()
    assert np.isfinite(pdf["chi"].dropna()).all()


def test_top_contributors_shape(contrib):
    top = top_contributors(contrib, k=3)
    assert set(top["region"]) == {"KOR", "SAM"}
    assert top.groupby("region")["rank"].apply(list).map(lambda x: x == [1, 2, 3]).all()
    assert "ingredient" in top.columns


def test_top_contributors_direction(contrib):
    """SAM (positive) tops have the largest χ; KOR (negative) the smallest."""
    pdf = contrib.toPandas()
    top = top_contributors(contrib, k=3)
    sam_best = top[top["region"] == "SAM"]["chi"].max()
    assert sam_best == pytest.approx(pdf[pdf["region"] == "SAM"]["chi"].max())
    kor_best = top[top["region"] == "KOR"]["chi"].min()
    assert kor_best == pytest.approx(pdf[pdf["region"] == "KOR"]["chi"].min())


def test_top_contributors_accepts_pandas(contrib):
    pdf = contrib.toPandas()
    a = top_contributors(pdf, k=2)
    b = top_contributors(contrib, k=2)
    pd.testing.assert_frame_equal(
        a.sort_values(["region", "rank"]).reset_index(drop=True),
        b.sort_values(["region", "rank"]).reset_index(drop=True),
    )


def test_single_member_recipe_left_out(spark):
    """A one-member recipe has no pair: χ is as if it were absent."""
    profiles = spark.createDataFrame(
        pd.DataFrame(
            {"ingredient_id": [0, 0, 0, 1, 1, 1, 2], "molecule_id": [0, 1, 2, 1, 2, 3, 9]}
        )
    )
    rows = {"recipe_id": [1, 1, 1, 2, 2], "n": [3, 3, 3, 2, 2], "ingredient_id": [0, 1, 2, 0, 1]}
    base = pd.DataFrame(rows).assign(region="X")
    single = pd.DataFrame({"recipe_id": [3], "n": [1], "ingredient_id": [2], "region": "X"})
    pairs = shared_pairs(profiles)

    def chi(pdf):
        got = ingredient_contributions(spark.createDataFrame(pdf), pairs).toPandas()
        return got.sort_values("ingredient_id").reset_index(drop=True)

    pd.testing.assert_frame_equal(chi(pd.concat([base, single])), chi(base))
