"""Flavor profiles: per-ingredient sets of flavor molecules.

A basic ingredient's profile is drawn mostly (80%) from its home flavor
community's molecule pool and the rest from the shared pool, giving the
high-within / low-across overlap structure food pairing depends on.
Profile sizes are log-normal (clipped to [5, 150]), matching FlavorDB's
heavy spread of empirically-reported molecule counts per ingredient.

Compound-ingredient profiles are **pooled from constituents via a Spark
aggregation** (explode constituents → join basic profiles → distinct),
exactly the pooling rule the paper describes in Materials §C.

The four profile-less additives (Materials §B) produce no rows here.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import DataFrame, SparkSession

from repro.flavordb.ingredients import N_INGREDIENTS, ingredient_master
from repro.flavordb.molecules import (
    N_MOLECULES,
    community_molecules,
    shared_pool_molecules,
)

#: Fraction of a profile drawn from the ingredient's home community.
_COMMUNITY_FRACTION = 0.8

_MIN_PROFILE, _MAX_PROFILE = 5, 150


@lru_cache(maxsize=4)
def basic_profiles(seed: int = 7) -> pd.DataFrame:
    """Long-format (ingredient_id, molecule_id) profiles for basic ingredients.

    Deterministic in ``seed``; compound ingredients and profile-less
    additives are excluded (compounds are pooled in :func:`profiles_df`).
    """
    master = ingredient_master(seed)
    basics = master[(~master["is_compound"]) & master["has_profile"]]
    rng = np.random.default_rng(seed + 1)
    shared = shared_pool_molecules()

    ids: list[np.ndarray] = []
    mols: list[np.ndarray] = []
    for ing_id, comm in zip(basics["ingredient_id"], basics["community"]):
        size = int(np.clip(rng.lognormal(np.log(35), 0.5), _MIN_PROFILE, _MAX_PROFILE))
        pool = community_molecules(int(comm))
        n_comm = min(int(round(size * _COMMUNITY_FRACTION)), len(pool))
        n_shared = min(size - n_comm, len(shared))
        chosen = np.concatenate(
            [
                rng.choice(pool, size=n_comm, replace=False),
                rng.choice(shared, size=n_shared, replace=False),
            ]
        )
        ids.append(np.full(len(chosen), ing_id))
        mols.append(chosen)

    return pd.DataFrame(
        {
            "ingredient_id": np.concatenate(ids).astype(np.int64),
            "molecule_id": np.concatenate(mols).astype(np.int64),
        }
    )


def profiles_df(spark: SparkSession, seed: int = 7) -> DataFrame:
    """All ingredient flavor profiles as a Spark DataFrame.

    Basic profiles come from :func:`basic_profiles`; compound-ingredient
    profiles are pooled distributively: explode the constituent list,
    join to the basic profiles, and de-duplicate molecules per compound.
    """
    master = ingredient_master(seed)
    basic = spark.createDataFrame(basic_profiles(seed))

    compounds = master[master["is_compound"]][["ingredient_id", "constituents"]].copy()
    compounds["constituents"] = compounds["constituents"].map(list)
    compound_map = spark.createDataFrame(compounds).select(
        F.col("ingredient_id"),
        F.explode("constituents").alias("constituent_id"),
    )
    pooled = (
        compound_map.join(
            basic.withColumnRenamed("ingredient_id", "constituent_id"),
            on="constituent_id",
        )
        .select("ingredient_id", "molecule_id")
        .distinct()
    )
    return basic.unionByName(pooled)


def shared_matrix_numpy(profiles: pd.DataFrame) -> np.ndarray:
    """Reference dense |F_i ∩ F_j| matrix from long-format profiles.

    Pure-NumPy cross-check for the Spark join in
    :func:`repro.core.pairing.shared_pairs`: builds the binary
    ingredient × molecule incidence matrix and multiplies.  Shape is
    (N_INGREDIENTS + 1, N_INGREDIENTS + 1); the final row/column is an
    all-zero padding slot used by the vectorized recipe scorer.
    """
    b = np.zeros((N_INGREDIENTS + 1, N_MOLECULES), dtype=np.int32)
    b[profiles["ingredient_id"].to_numpy(), profiles["molecule_id"].to_numpy()] = 1
    s = b @ b.T
    np.fill_diagonal(s, 0)
    return s.astype(np.int32)
