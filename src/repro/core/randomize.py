"""The paper's four randomized-cuisine models (Methodology §B).

All models preserve the cuisine's exact ingredient set and its recipe
size distribution; they differ in how recipe ingredients are drawn:

* ``random``    — uniformly from the cuisine's ingredient set;
* ``frequency`` — with probability ∝ observed frequency of use;
* ``category``  — preserving the category composition of a (sampled)
  real recipe, ingredients uniform within each category;
* ``freq_cat``  — category composition preserved *and* ingredients
  frequency-weighted within each category.

Model inputs (pools, frequencies, sizes, per-recipe category
compositions) are derived on the driver from the corpus collected in
``recipe_id`` order; recipe generation itself is Spark-parallel
``mapInPandas`` over a (region, batch) plan, using vectorized Gumbel
top-k weighted sampling without replacement.  Output is deterministic in
(seed, region, model, batch start) regardless of partitioning.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.culinarydb.corpus import expand_plan
from repro.culinarydb.generator import gumbel_topk_rows
from repro.flavordb.ingredients import CATEGORIES, ingredient_master

#: The four models, in the paper's order.
MODELS = ("random", "frequency", "category", "freq_cat")

#: Random recipes per plan row.  Each batch start seeds its RNG, so
#: changing this value changes the generated recipes.
BATCH = 5000


@dataclass
class RegionInputs:
    """Everything a model needs about one cuisine, all NumPy.

    ``pool``/``counts``/``cat_idx`` are aligned; ``sizes`` is one entry
    per real recipe; ``cat_comp`` is the (n_recipes × 21) matrix of real
    per-recipe category compositions.
    """

    code: str
    pool: np.ndarray
    counts: np.ndarray
    sizes: np.ndarray
    cat_idx: np.ndarray
    cat_comp: np.ndarray


def region_model_inputs(
    spark: SparkSession, corpus: DataFrame, seed: int = 7
) -> dict[str, RegionInputs]:
    """Derive per-region model inputs from the corpus.

    The corpus (≤46k rows of short arrays) is collected once and sorted by
    ``recipe_id``; each pool is ``np.unique`` of the region's ingredients
    (ascending id).  The samplers return positions into these arrays, so
    fixing their order keeps the random recipes, and every Z, independent
    of how Spark partitioned or shuffled the corpus.
    """
    recipes = (
        corpus.select("recipe_id", "region", "n", "ingredients")
        .toPandas()
        .sort_values("recipe_id")
    )
    master = ingredient_master(seed)
    cat_of = master.set_index("ingredient_id")["category"].map(
        {c: k for k, c in enumerate(CATEGORIES)}
    )
    cat_arr = np.zeros(len(master) + 1, dtype=np.int64)
    cat_arr[master["ingredient_id"].to_numpy()] = cat_of.to_numpy()

    out: dict[str, RegionInputs] = {}
    for region, rg in recipes.groupby("region"):
        members = rg["ingredients"].to_numpy()
        flat = np.concatenate(members).astype(np.int64)
        pool, counts = np.unique(flat, return_counts=True)
        rows = np.repeat(np.arange(len(rg)), [len(m) for m in members])
        comp = np.zeros((len(rg), len(CATEGORIES)), dtype=np.int16)
        np.add.at(comp, (rows, cat_arr[flat]), 1)
        out[region] = RegionInputs(
            code=region,
            pool=pool,
            counts=counts.astype(np.float64),
            sizes=rg["n"].to_numpy().astype(np.int64),
            cat_idx=cat_arr[pool],
            cat_comp=comp,
        )
    return out


def _uniform_or_freq_batch(
    rng: np.random.Generator, inp: RegionInputs, count: int, weighted: bool
) -> tuple[np.ndarray, list[np.ndarray]]:
    """`random` / `frequency` model: one Gumbel top-k per recipe."""
    sizes = rng.choice(inp.sizes, size=count)
    log_w = np.log(inp.counts) if weighted else np.zeros(len(inp.pool))
    return sizes, [inp.pool[idx] for idx in gumbel_topk_rows(rng, log_w, sizes)]


def _category_batch(
    rng: np.random.Generator, inp: RegionInputs, count: int, weighted: bool
) -> tuple[np.ndarray, list[np.ndarray]]:
    """`category` / `freq_cat` model: preserve a real recipe's composition."""
    templates = rng.integers(0, len(inp.cat_comp), size=count)
    comp = inp.cat_comp[templates]  # (count, 21)
    sizes = comp.sum(axis=1).astype(np.int64)
    picks: list[list[np.ndarray]] = [[] for _ in range(count)]
    for c in range(comp.shape[1]):
        k_vec = comp[:, c]
        rows = np.nonzero(k_vec)[0]
        if len(rows) == 0:
            continue
        members = np.nonzero(inp.cat_idx == c)[0]
        log_w = (
            np.log(inp.counts[members]) if weighted else np.zeros(len(members))
        )
        for row, idx in zip(rows, gumbel_topk_rows(rng, log_w, k_vec[rows])):
            picks[row].append(inp.pool[members[idx]])
    return sizes, [np.concatenate(p) for p in picks]


def random_recipes(
    spark: SparkSession,
    inputs: dict[str, RegionInputs],
    model: str,
    n_rand: int,
    seed: int = 17,
) -> DataFrame:
    """``n_rand`` randomized recipes per region under ``model``.

    Same schema as the real corpus, so :func:`repro.core.pairing.
    recipe_scores_fast` scores both identically.  Generation and any
    downstream mapInPandas scoring fuse into one shuffle-free stage.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
    plan_rows = [
        (code, start, min(BATCH, n_rand - start))
        for code in sorted(inputs)
        for start in range(0, n_rand, BATCH)
    ]
    bc = spark.sparkContext.broadcast(inputs)

    def make_batch(code: str, start: int, count: int):
        inp = bc.value[code]
        rng = np.random.default_rng(
            [seed, zlib.crc32(code.encode()), zlib.crc32(model.encode()), start]
        )
        if model in ("random", "frequency"):
            sizes, recs = _uniform_or_freq_batch(rng, inp, count, model == "frequency")
        else:
            sizes, recs = _category_batch(rng, inp, count, model == "freq_cat")
        return start, sizes, recs

    return expand_plan(
        spark, plan_rows, spark.sparkContext.defaultParallelism * 2, make_batch
    )
