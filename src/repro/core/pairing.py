"""Food-pairing scores (paper Methodology §B).

For a recipe R with n ingredients,

    N_s^R = 2 / (n (n-1)) · Σ_{i<j ∈ R} |F_i ∩ F_j|

i.e. the mean shared-flavor-molecule count over unordered ingredient
pairs; the cuisine score N_s^C is the mean of N_s^R over recipes.

One implementation: `shared_pairs` self-joins the long-format profile
DataFrame on molecule_id to produce |F_i ∩ F_j| per pair; `pair_matrix`
collects that table into a dense (N+1)×(N+1) int32 matrix (≈3.6 MB), and
`pair_overlap_rows` gathers each recipe's sub-matrix from it.
`recipe_scores_fast` broadcasts the matrix to executors and scores recipe
batches with that gather, which is what makes 100,000-recipe randomized
cuisines per model per region tractable; `repro.core.contribution` uses
the same gather for χ_i.  The Spark pair-join scorer and the DuckDB SQL
that tests compare against live in ``tests/``.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import DoubleType, StructField, StructType

from repro.flavordb.ingredients import N_INGREDIENTS

#: Padding slot used by the vectorized scorer; row/column is all zeros.
PAD_ID = N_INGREDIENTS


def shared_pairs(profiles: DataFrame) -> DataFrame:
    """|F_i ∩ F_j| for every ingredient pair i < j with nonzero overlap.

    Columns: ``i``, ``j``, ``shared``.  Pairs that share no molecule are
    absent (consumers must treat missing as 0).
    """
    a = profiles.select(
        F.col("ingredient_id").alias("i"), F.col("molecule_id").alias("m")
    )
    b = profiles.select(
        F.col("ingredient_id").alias("j"), F.col("molecule_id").alias("m")
    )
    return (
        a.join(b, on="m")
        .where(F.col("i") < F.col("j"))
        .groupBy("i", "j")
        .agg(F.count("*").alias("shared"))
    )


def pair_matrix(pairs: DataFrame) -> np.ndarray:
    """Dense symmetric overlap matrix from a :func:`shared_pairs` table.

    Shape (N_INGREDIENTS+1, N_INGREDIENTS+1); index ``PAD_ID`` is an
    all-zero padding slot and the diagonal is zero.
    """
    pdf = pairs.toPandas()
    s = np.zeros((N_INGREDIENTS + 1, N_INGREDIENTS + 1), dtype=np.int32)
    s[pdf["i"].to_numpy(), pdf["j"].to_numpy()] = pdf["shared"].to_numpy()
    return s + s.T


def shared_matrix(spark: SparkSession, profiles: DataFrame) -> np.ndarray:
    """:func:`pair_matrix` of the profiles' :func:`shared_pairs`."""
    return pair_matrix(shared_pairs(profiles))


def pair_overlap_rows(s: np.ndarray, padded: np.ndarray) -> np.ndarray:
    """T[r, k] = Σ_j s[padded[r, k], padded[r, j]], in ``s``'s dtype.

    ``padded`` holds one recipe per row, filled out with ``PAD_ID``.
    T[r, k] is the overlap of ingredient k with the rest of recipe r
    (the diagonal and the padding slot are zero), so a row of T sums to
    twice the recipe's total pair overlap.  An overlap is at most
    N_MOLECULES (2,500), so an int32 T cannot overflow below 850k
    ingredients per recipe.
    """
    return np.einsum("rkj->rk", s[padded[:, :, None], padded[:, None, :]])


def recipe_scores_fast(recipes: DataFrame, matrix: np.ndarray) -> DataFrame:
    """N_s^R per recipe via the broadcast overlap matrix.

    ``recipes`` must carry ``ingredients`` (array) and ``n``; output is
    the input schema plus a ``score`` column.  The matrix is shipped with
    ``SparkContext.broadcast`` (one copy per executor, not per task).
    """
    spark = recipes.sparkSession
    bc = spark.sparkContext.broadcast(matrix)
    # StructType.add mutates in place — copy the field list instead of
    # appending to the input DataFrame's live schema object.
    out_schema = StructType(
        list(recipes.schema.fields) + [StructField("score", DoubleType())]
    )

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        s = bc.value
        for pdf in batches:
            if len(pdf) == 0:
                continue
            sizes = pdf["n"].to_numpy()
            max_n = int(sizes.max())
            padded = np.full((len(pdf), max_n), PAD_ID, dtype=np.int64)
            for row, ing in enumerate(pdf["ingredients"]):
                padded[row, : len(ing)] = ing
            # Each unordered pair is counted twice, so sum/(n(n-1)) is N_s^R.
            totals = pair_overlap_rows(s, padded).sum(axis=1).astype(np.float64)
            pdf = pdf.copy()
            pdf["score"] = totals / (sizes * (sizes - 1.0))
            yield pdf

    return recipes.mapInPandas(run, out_schema)


def cuisine_scores(recipe_scores: DataFrame) -> DataFrame:
    """Per-region N_s^C, recipe-score standard deviation and recipe count."""
    return recipe_scores.groupBy("region").agg(
        F.avg("score").alias("ns"),
        F.stddev_pop("score").alias("sigma"),
        F.count("*").alias("n_recipes"),
    )
