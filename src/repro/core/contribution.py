"""Ingredient contribution χ_i to cuisine food pairing (Fig. 5).

χ_i is the percentage change of N_s^C when ingredient i is removed from
the cuisine (Methodology §C): every recipe containing i loses i (its
pairs vanish and its size drops by one; 2-ingredient recipes drop out of
the average entirely, having no pairs left).

Rather than re-scoring the cuisine once per ingredient (O(#ingredients)
passes), the removal is computed exactly in one pass:

    score'_R = 2 (S_R − T_{R,i}) / ((n−1)(n−2))     for recipes R ∋ i, n ≥ 3

where T_{R,i} is the overlap of i with the rest of R and S_R = Σ_i T_{R,i}
/ 2 is R's total pair overlap.  Both come from the same overlap-matrix
gather that scores recipes (:func:`repro.core.pairing.pair_overlap_rows`).
The exploded corpus (≤ 413k rows) is collected and the per-(region,
ingredient) sums are taken on the driver.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.pairing import PAD_ID, pair_matrix, pair_overlap_rows
from repro.flavordb.ingredients import ingredient_master


def ingredient_contributions(exploded: DataFrame, shared: DataFrame) -> DataFrame:
    """χ_i for every (region, ingredient).

    ``exploded`` has (recipe_id, region, n, ingredient_id); ``shared``
    comes from :func:`repro.core.pairing.shared_pairs`.  Returns (region,
    ingredient_id, n_containing, ns_c, ns_without, chi) where ``chi`` =
    100 · (N_s^C − N_s^{C∖i}) / N_s^C: positive χ means the ingredient
    pulls the cuisine's pairing score *up*.
    """
    pdf = exploded.select("recipe_id", "region", "n", "ingredient_id").toPandas()
    # A recipe with one member has no pair, hence no score: it is not counted.
    pdf = pdf[pdf.groupby("recipe_id")["recipe_id"].transform("size") > 1]
    recipe, _ = pd.factorize(pdf["recipe_id"])
    slot = pdf.groupby(recipe).cumcount().to_numpy()
    padded = np.full((recipe.max() + 1, slot.max() + 1), PAD_ID, dtype=np.int64)
    padded[recipe, slot] = pdf["ingredient_id"].to_numpy()
    t = pair_overlap_rows(pair_matrix(shared), padded)

    n = pdf["n"].to_numpy().astype(np.int64)
    s_r = t.sum(axis=1)[recipe] // 2
    pdf["score"] = s_r * 2.0 / (n * (n - 1))
    # A 2-ingredient recipe has no pair left without i: it leaves the cuisine.
    with np.errstate(divide="ignore", invalid="ignore"):
        adj = (s_r - t[recipe, slot]) * 2.0 / ((n - 1) * (n - 2))
    pdf["adj_score"] = np.where(n >= 3, adj, np.nan)
    pdf["dropped"] = n == 2

    per_region = (
        pdf.drop_duplicates("recipe_id")
        .groupby("region")
        .agg(total_score=("score", "sum"), n_r=("score", "size"))
    )
    out = (
        pdf.groupby(["region", "ingredient_id"])
        .agg(
            n_containing=("score", "size"),
            sum_orig=("score", "sum"),
            sum_adj=("adj_score", "sum"),
            n_dropped=("dropped", "sum"),
        )
        .reset_index()
        .join(per_region, on="region")
    )
    out["ns_c"] = out["total_score"] / out["n_r"]
    kept = out["n_r"] - out["n_dropped"]
    out["ns_without"] = (
        (out["total_score"] - out["sum_orig"] + out["sum_adj"]) / kept
    ).where(kept > 0)
    out["chi"] = (100.0 * (out["ns_c"] - out["ns_without"]) / out["ns_c"]).where(
        out["ns_c"] != 0
    )
    return exploded.sparkSession.createDataFrame(
        out[["region", "ingredient_id", "n_containing", "ns_c", "ns_without", "chi"]]
    )


def top_contributors(
    contributions: DataFrame | pd.DataFrame, k: int = 3, signs: dict[str, int] | None = None
) -> pd.DataFrame:
    """Top-k contributing ingredients per region (Fig. 5).

    For positive-pairing regions the largest χ (ingredients pulling the
    score up); for negative-pairing ones the smallest χ (pulling it
    down).  ``signs`` maps region → ±1; default = the paper's Fig. 4
    signs from :mod:`repro.regions`.  Ingredient names are joined in
    for readability.
    """
    from repro.regions import REGIONS

    pdf = (
        contributions.toPandas()
        if isinstance(contributions, DataFrame)
        else contributions.copy()
    )
    if signs is None:
        signs = {r.code: r.pairing_sign for r in REGIONS}
    names = ingredient_master().set_index("ingredient_id")["name"]
    rows = []
    for region, g in pdf.dropna(subset=["chi"]).groupby("region"):
        sign = signs.get(region, 1)
        top = g.sort_values("chi", ascending=sign < 0).head(k)
        for rank, (_, row) in enumerate(top.iterrows(), start=1):
            rows.append(
                {
                    "region": region,
                    "rank": rank,
                    "ingredient_id": int(row["ingredient_id"]),
                    "ingredient": names.loc[int(row["ingredient_id"])],
                    "chi": row["chi"],
                }
            )
    return pd.DataFrame(rows)
