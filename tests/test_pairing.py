"""Food-pairing score N_s^R: formula, matrix gather vs join oracle vs DuckDB."""
import numpy as np
import pandas as pd
import pyspark.sql.functions as F
import pytest

from repro.core.pairing import (
    PAD_ID,
    cuisine_scores,
    pair_matrix,
    recipe_scores_fast,
    shared_matrix,
    shared_pairs,
)
from repro.flavordb.profiles import profiles_df, shared_matrix_numpy
from repro.oracle import assert_equivalent
from tests.join_path import recipe_scores_join

# --- hand-built micro fixture: 3 ingredients, known overlaps -------------
# F_0 = {0,1,2}, F_1 = {1,2,3}, F_2 = {9}
# |F_0∩F_1| = 2, |F_0∩F_2| = 0, |F_1∩F_2| = 0
_MICRO_PROFILES = pd.DataFrame(
    {
        "ingredient_id": [0, 0, 0, 1, 1, 1, 2],
        "molecule_id": [0, 1, 2, 1, 2, 3, 9],
    }
)


@pytest.fixture(scope="module")
def micro_profiles(spark):
    return spark.createDataFrame(_MICRO_PROFILES)


def test_shared_pairs_micro(spark, micro_profiles):
    got = {(r["i"], r["j"]): r["shared"] for r in shared_pairs(micro_profiles).collect()}
    assert got == {(0, 1): 2}  # zero-overlap pairs absent


def test_shared_pairs_matches_oracle(spark, micro_profiles):
    assert_equivalent(
        shared_pairs(micro_profiles),
        """
        SELECT a.ingredient_id AS i, b.ingredient_id AS j, count(*) AS shared
        FROM prof a JOIN prof b
          ON a.molecule_id = b.molecule_id AND a.ingredient_id < b.ingredient_id
        GROUP BY 1, 2
        """,
        prof=_MICRO_PROFILES,
    )


def _micro_scores(spark, micro_profiles, recipe_id, ingredients):
    """N_s^R of one recipe from the join oracle and from the matrix gather."""
    n = len(ingredients)
    exploded = spark.createDataFrame(
        pd.DataFrame(
            {"recipe_id": recipe_id, "region": "X", "n": n, "ingredient_id": ingredients}
        )
    )
    recipes = spark.createDataFrame(
        [(recipe_id, "X", n, ingredients)],
        "recipe_id long, region string, n int, ingredients array<long>",
    )
    pairs = shared_pairs(micro_profiles)
    return (
        recipe_scores_join(exploded, pairs).first()["score"],
        recipe_scores_fast(recipes, pair_matrix(pairs)).first()["score"],
    )


def test_recipe_score_formula_micro(spark, micro_profiles):
    """Recipe {0,1,2}: N_s = 2/(3·2) · (2+0+0) = 2/3."""
    for score in _micro_scores(spark, micro_profiles, 1, [0, 1, 2]):
        assert score == pytest.approx(2 / 3)


def test_recipe_score_zero_overlap_recipe(spark, micro_profiles):
    assert _micro_scores(spark, micro_profiles, 5, [0, 2]) == (0.0, 0.0)


def test_shared_matrix_matches_numpy_reference(spark, profiles):
    mat = shared_matrix(spark, profiles)
    ref = shared_matrix_numpy(profiles.toPandas())
    assert np.array_equal(mat, ref)


def test_shared_matrix_symmetric_zero_diag(overlap_matrix):
    assert (overlap_matrix == overlap_matrix.T).all()
    assert (np.diag(overlap_matrix) == 0).all()
    assert (overlap_matrix[PAD_ID] == 0).all()


def test_join_path_equals_fast_path(corpus_small, exploded_small, pairs_df, overlap_matrix):
    j = (
        recipe_scores_join(exploded_small, pairs_df)
        .select("recipe_id", "score")
        .toPandas()
        .sort_values("recipe_id")
        .reset_index(drop=True)
    )
    f = (
        recipe_scores_fast(corpus_small, overlap_matrix)
        .select("recipe_id", "score")
        .toPandas()
        .sort_values("recipe_id")
        .reset_index(drop=True)
    )
    assert len(j) == len(f) == corpus_small.count()
    assert np.abs(j["score"] - f["score"]).max() < 1e-9


def test_join_path_matches_duckdb_oracle(exploded_small, profiles):
    """Full N_s^R from raw profiles in pure SQL vs the Spark join path."""
    ex = exploded_small.limit(0).sparkSession  # noqa: F841  (fixture warm)
    sample_ids = [r["recipe_id"] for r in exploded_small.select("recipe_id").distinct().limit(60).collect()]
    sub = exploded_small.where(F.col("recipe_id").isin(sample_ids))
    got = recipe_scores_join(sub, shared_pairs(profiles)).select(
        "recipe_id", "score"
    )
    assert_equivalent(
        got,
        """
        WITH sh AS (
          SELECT a.ingredient_id AS i, b.ingredient_id AS j, count(*) AS s
          FROM prof a JOIN prof b
            ON a.molecule_id = b.molecule_id AND a.ingredient_id < b.ingredient_id
          GROUP BY 1, 2
        ),
        pairs AS (
          SELECT x.recipe_id, x.n, x.ingredient_id AS i, y.ingredient_id AS j
          FROM ex x JOIN ex y
            ON x.recipe_id = y.recipe_id AND x.ingredient_id < y.ingredient_id
        )
        SELECT recipe_id, SUM(COALESCE(s, 0)) * 2.0 / (n * (n - 1)) AS score
        FROM pairs LEFT JOIN sh USING (i, j)
        GROUP BY recipe_id, n
        """,
        ex=sub.toPandas(),
        prof=profiles.toPandas(),
    )


def test_fast_path_matches_numpy_brute_force(corpus_small, overlap_matrix):
    rows = corpus_small.orderBy("recipe_id").limit(80).collect()
    scored = (
        recipe_scores_fast(corpus_small, overlap_matrix)
        .orderBy("recipe_id")
        .limit(80)
        .collect()
    )
    for raw, got in zip(rows, scored):
        ing = np.array(raw["ingredients"])
        n = len(ing)
        brute = overlap_matrix[np.ix_(ing, ing)].sum() / (n * (n - 1))
        assert got["score"] == pytest.approx(brute)


def test_cuisine_scores_aggregation(spark):
    pdf = pd.DataFrame(
        {
            "region": ["A", "A", "A", "B"],
            "score": [1.0, 2.0, 3.0, 5.0],
        }
    )
    got = {r["region"]: r for r in cuisine_scores(spark.createDataFrame(pdf)).collect()}
    assert got["A"]["ns"] == pytest.approx(2.0)
    assert got["A"]["sigma"] == pytest.approx(np.sqrt(2 / 3))
    assert got["A"]["n_recipes"] == 3
    assert got["B"]["sigma"] == 0.0


def test_cuisine_scores_match_oracle(corpus_small, overlap_matrix):
    scored = recipe_scores_fast(corpus_small, overlap_matrix).select("region", "score")
    got = cuisine_scores(scored).select("region", "ns", "n_recipes")
    assert_equivalent(
        got,
        "SELECT region, avg(score) AS ns, count(*) AS n_recipes FROM s GROUP BY region",
        s=scored.toPandas(),
    )
