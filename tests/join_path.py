"""Reference N_s^R scorer built from Spark self-joins.

The library scores recipes with one overlap-matrix gather
(:func:`repro.core.pairing.recipe_scores_fast`); tests compare it with
this independent pure-Catalyst path and with DuckDB SQL.
"""
import pyspark.sql.functions as F
from pyspark.sql import DataFrame


def recipe_scores_join(exploded: DataFrame, shared: DataFrame) -> DataFrame:
    """N_s^R per recipe via DataFrame joins.

    ``exploded`` has (recipe_id, region, n, ingredient_id); ``shared``
    comes from :func:`repro.core.pairing.shared_pairs`.  Returns
    (recipe_id, region, n, score).  Zero-overlap pairs contribute 0 via
    the left join; recipes whose pairs all have zero overlap still appear
    (score 0) because the pair self-join always produces n(n-1)/2 rows per
    recipe.
    """
    left = exploded.select(
        "recipe_id", "region", "n", F.col("ingredient_id").alias("i")
    )
    right = exploded.select("recipe_id", F.col("ingredient_id").alias("j"))
    pairs = left.join(right, on="recipe_id").where(F.col("i") < F.col("j"))
    scored = pairs.join(shared, on=["i", "j"], how="left").withColumn(
        "shared", F.coalesce(F.col("shared"), F.lit(0))
    )
    return scored.groupBy("recipe_id", "region", "n").agg(
        (F.sum("shared") * 2.0 / (F.first("n") * (F.first("n") - 1))).alias("score")
    )
