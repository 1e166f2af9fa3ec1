"""Assemble the synthetic recipe corpus as a Spark DataFrame.

:func:`build_corpus` is one ``mapInPandas`` job over one plan row per
region.  Each region's task generates the region's recipes in fixed
slices of :data:`BATCH`; every slice is deterministic in (region, slice
start, seed), so output is identical regardless of partition placement
or recomputation.

In the same task a *coverage* step (:func:`_cover`) guarantees the
Table 1 unique-ingredient counts: ingredients of the region's pool that
random sampling never used are swapped into deterministic recipes,
replacing the most popular member (whose many other occurrences make
the distortion negligible).  It reads and changes only that region's
recipes, so no second pass over the corpus is needed.

Schema of the corpus DataFrame::

    recipe_id   long      globally unique
    region      string    region code (Table 1) or 'OTHER'
    n           int       recipe size (number of ingredients)
    ingredients array<long>  distinct ingredient ids
"""
from __future__ import annotations

from typing import Callable, Iterator

import numpy as np
import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import (
    ArrayType,
    IntegerType,
    LongType,
    StringType,
    StructField,
    StructType,
)

from repro.culinarydb.generator import RegionSpec, generate_batch, region_specs

CORPUS_SCHEMA = StructType(
    [
        StructField("recipe_id", LongType()),
        StructField("region", StringType()),
        StructField("n", IntegerType()),
        StructField("ingredients", ArrayType(LongType())),
    ]
)

#: Recipes per :func:`generate_batch` call.  Each batch start seeds its
#: RNG, so changing this value changes the corpus.
BATCH = 2000

_PLAN_SCHEMA = StructType(
    [
        StructField("code", StringType()),
        StructField("start", IntegerType()),
        StructField("count", IntegerType()),
    ]
)


def expand_plan(
    spark: SparkSession,
    plan_rows: list[tuple[str, int, int]],
    partitions: int,
    make_batch: Callable[[str, int, int], tuple[int, np.ndarray, list[np.ndarray]]],
) -> DataFrame:
    """Expand a (region code, start, count) plan into recipes via mapInPandas.

    ``make_batch(code, start, count)`` returns (first recipe id, sizes,
    ingredient-id arrays) for one plan row; it runs on the executors.
    The plan is spread over at most ``partitions`` partitions.  Output has
    :data:`CORPUS_SCHEMA`.
    """
    plan = spark.createDataFrame(plan_rows, _PLAN_SCHEMA).repartition(
        max(1, min(len(plan_rows), partitions))
    )

    def gen(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            for code, start, count in pdf.itertuples(index=False):
                first_id, sizes, recipes = make_batch(code, int(start), int(count))
                yield pd.DataFrame(
                    {
                        "recipe_id": first_id + np.arange(count),
                        "region": code,
                        "n": sizes.astype(np.int32),
                        "ingredients": [r.astype(np.int64) for r in recipes],
                    }
                )

    return plan.mapInPandas(gen, CORPUS_SCHEMA)


def _cover(spec: RegionSpec, recipes: list[np.ndarray]) -> list[np.ndarray]:
    """Swap each pool member no recipe uses into one of the region's recipes.

    Missing members, in pool order, go to recipe ``k % len(recipes)``.
    Each replaces the member of that recipe with the highest region-wide
    usage count (ties: the higher id) among those used at least twice,
    so removing one occurrence cannot orphan it; without such a member
    the recipe is left as it is.  Counts are those of the sampled
    recipes and are not updated as swaps are made, so a member swapped
    in (count 0) is never chosen as a later victim.
    """
    ids, counts = np.unique(np.concatenate(recipes), return_counts=True)
    usage = dict(zip(ids.tolist(), counts.tolist()))
    out = list(recipes)
    for k, ing in enumerate(spec.pool[~np.isin(spec.pool, ids)]):
        rec = out[k % len(out)]
        cand = [(usage[x], x) for x in rec.tolist() if usage.get(x, 0) >= 2]
        if cand:
            rec = rec.copy()
            rec[rec == max(cand)[1]] = ing
            out[k % len(out)] = rec
    return out


def build_corpus(
    spark: SparkSession,
    *,
    scale: float = 1.0,
    seed: int = 11,
    ensure_coverage: bool = True,
) -> DataFrame:
    """Build the recipe corpus at ``scale`` (1.0 → the paper's 45,772).

    One Spark job over one plan row per region, ``(code, 0, n_recipes)``,
    spread over ``defaultParallelism`` partitions.  Each row generates
    the region's recipes in :data:`BATCH`-recipe slices and, with
    ``ensure_coverage``, applies :func:`_cover` so the per-region
    unique-ingredient counts hit the Table 1 targets exactly.
    """
    specs = {s.code: s for s in region_specs(scale, seed)}

    def make_region(code: str, start: int, count: int):
        spec = specs[code]
        sizes, recipes = [], []
        for b in range(start, start + count, BATCH):
            s, r = generate_batch(spec, b, min(BATCH, start + count - b), seed)
            sizes.append(s)
            recipes += r
        if ensure_coverage:
            recipes = _cover(spec, recipes)
        return spec.recipe_offset + start, np.concatenate(sizes), recipes

    plan_rows = [(s.code, 0, s.n_recipes) for s in specs.values()]
    return expand_plan(
        spark, plan_rows, spark.sparkContext.defaultParallelism, make_region
    )


def explode_corpus(recipes: DataFrame) -> DataFrame:
    """Long format: one (recipe_id, region, n, ingredient_id) row per member."""
    return recipes.select(
        "recipe_id", "region", "n", F.explode("ingredients").alias("ingredient_id")
    )


def write_corpus(recipes: DataFrame, path: str) -> None:
    """Materialize the corpus to parquet (jobs cache)."""
    recipes.write.mode("overwrite").parquet(path)
