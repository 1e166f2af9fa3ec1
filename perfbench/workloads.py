"""The benchmark's workloads: entry-point runs, traced replays, oracles.

Each workload has

* ``run(spark, seed)`` — the timed, untraced run through the public entry
  points (``jobs/t*.py`` ``run()`` and ``repro`` functions);
* ``replay(tracer, spark, seed)`` — the same calls into the layers, each
  forced under its own span; returns output of the same shape as ``run``
  and the layer counts that output yields;
* ``expect(oracle)`` — what the output must match, from implementations
  independent of the program's, computed outside every timed region;
* ``check(out, expected)`` — failure messages, empty when correct;
* ``verdicts(out)`` — how many of the paper's claims ``out`` reproduces,
  by group of claims.

The workload seed is the corpus seed; the model seed is seed + 6 (as in
``t4_food_pairing.run``) and the phrase seed seed + 12, so the default
seed 11 gives every library default.

Spans are named ``<layer>.<call>``.  A call both workloads make is
named after the workload too (``culinarydb.build_corpus-fig4_pairing``),
and one call made once per model after the model
(``randomize.random_recipes-frequency``), so that each span name belongs
to one workload.

Which end-to-end metric each layer should move, on which workload:

* ``randomize.*``, ``pairing.shared_matrix``, ``pairing.score_*``,
  ``zscore.self`` and the ``-fig4_pairing`` spans: ``first_run_s`` and
  ``wall_s`` on fig4_pairing only.  Region pools range from 198 to 612
  ingredients and the slowest task sets a stage's time, so
  ``py_task_skew`` matters there.
* ``contribution.*``, ``pairing.shared_pairs``, ``aliasing.*``,
  ``stats.*``, ``culinarydb.phrases_df`` and the ``-contrib_tables``
  spans: contrib_tables only; it builds the corpus five times.
* The session's configuration: ``setup_s`` on both.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable
from unittest import mock

import numpy as np
import pandas as pd
import pyspark.sql.functions as F

import t1_region_stats
import t2_category_heatmap
import t3_size_popularity
import t4_food_pairing
import t5_contributions
from repro.aliasing.mapper import alias_phrases
from repro.core import zscore
from repro.core.contribution import ingredient_contributions, top_contributors
from repro.core.pairing import cuisine_scores, recipe_scores_fast, shared_matrix, shared_pairs
from repro.core.randomize import MODELS, random_recipes, region_model_inputs
from repro.core.stats import (
    category_shares,
    rank_frequency,
    recipe_size_summary,
    region_table_vs_paper,
    world_category_shares,
)
from repro.culinarydb.corpus import build_corpus, explode_corpus
from repro.culinarydb.generator import region_specs
from repro.culinarydb.phrases import phrases_df
from repro.flavordb.profiles import profiles_df, shared_matrix_numpy
from repro.regions import REGIONS

#: fig4_pairing's corpus scale: 1.0 is the paper's 45,772 recipes.
FIG4_SCALE = 1.0
#: Random recipes per model per region in fig4_pairing.  The paper uses
#: 100,000.  At 1000, generating and scoring them (randomize.random_recipes
#: and pairing.score_random) take about half of a warm traced replay and a
#: third of a cold run on 4 cores; the rest is the corpus, the profiles and
#: the overlap matrix.  Their share grows slowly with n_rand, because most
#: of their time at these sizes is Spark's fixed cost per job.
N_RAND = 1000
#: contrib_tables' corpus scale.  At 1.0 its cold run takes about 90 s on
#: 4 cores, at 0.1 about 35 s, with the same calls and the same claims.
TABLES_SCALE = 0.1
MODEL_SEED_OFFSET = 6
PHRASE_SEED_OFFSET = 12
PAPER_SIGN = {r.code: r.pairing_sign for r in REGIONS}
REL_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    scale: float
    run: Callable[[Any, int], Any]
    replay: Callable[[Any, Any, int], tuple[Any, dict[str, int]]]
    expect: Callable[["Oracle"], Any]
    check: Callable[[Any, Any], list[str]]
    verdicts: Callable[[Any], dict[str, int]]


@dataclass
class Oracle:
    """The program's inputs collected for the checks, once per process.

    ``spark`` is only used the first time each input is read.
    """

    spark: Any
    seed: int
    _corpora: dict[float, pd.DataFrame] = field(default_factory=dict)

    def corpus(self, scale: float) -> pd.DataFrame:
        if scale not in self._corpora:
            self._corpora[scale] = build_corpus(self.spark, scale=scale, seed=self.seed).toPandas()
        return self._corpora[scale]

    @cached_property
    def overlap(self) -> np.ndarray:
        """|F_i ∩ F_j| from the NumPy incidence product, not the Spark join."""
        return shared_matrix_numpy(profiles_df(self.spark).toPandas())


def by_size(corpus: pd.DataFrame):
    """(row positions, (m, n) ingredient ids) for each recipe size n."""
    for n, g in corpus.groupby("n"):
        yield int(n), g.index.to_numpy(), np.stack(g["ingredients"].to_numpy())


def pair_sums(s: np.ndarray, ing: np.ndarray) -> np.ndarray:
    """Σ over ordered pairs of |F_i ∩ F_j| for each row of ``ing``."""
    return s[ing[:, :, None], ing[:, None, :]].sum(axis=(1, 2), dtype=np.int64)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


# --------------------------------------------------------------------------
# fig4_pairing: t4_food_pairing.run, the Fig. 4 Z-scores of the 4 models


def fig4_run(spark, seed):
    return t4_food_pairing.run(spark, FIG4_SCALE, seed, n_rand=N_RAND)


def fig4_replay(tr, spark, seed):
    model_seed = seed + MODEL_SEED_OFFSET
    corpus, _ = tr.force("culinarydb.build_corpus-fig4_pairing",
                         lambda: build_corpus(spark, scale=FIG4_SCALE, seed=seed))
    profiles, _ = tr.force("flavordb.profiles_df-fig4_pairing", lambda: profiles_df(spark))
    matrix = tr.collect("pairing.shared_matrix", lambda: shared_matrix(spark, profiles))
    inputs = tr.collect("randomize.region_model_inputs",
                        lambda: region_model_inputs(spark, corpus))
    stats = [tr.collect("pairing.score_real",
                        lambda: cuisine_scores(recipe_scores_fast(corpus, matrix)).toPandas())]
    generated = 0
    for model in MODELS:
        recipes, rows = tr.force(
            f"randomize.random_recipes-{model}",
            lambda: random_recipes(spark, inputs, model, N_RAND, model_seed),
        )
        stats.append(tr.collect(
            "pairing.score_random",
            lambda: cuisine_scores(recipe_scores_fast(recipes, matrix)).toPandas(),
        ))
        recipes.unpersist()
        generated += rows
    # food_pairing_table scores the real corpus, then each model in MODELS
    # order, through zscore._cuisine_stats; handing it the scores just
    # computed leaves its own work.  If that hook goes, this raises.
    scored = iter(stats)
    with mock.patch.object(zscore, "_cuisine_stats", lambda recipes, matrix: next(scored)):
        table = tr.collect("zscore.self", lambda: zscore.food_pairing_table(
            spark, corpus, matrix, n_rand=N_RAND, seed=model_seed, inputs=inputs))
    if next(scored, None) is not None:
        raise RuntimeError("food_pairing_table scored fewer cuisines than replayed")
    return table, {
        "pairing.recipes_scored": int(sum(s["n_recipes"].sum() for s in stats)),
        "randomize.recipes": generated,
    }


def fig4_expect(oracle):
    corpus = oracle.corpus(FIG4_SCALE)
    score = np.empty(len(corpus))
    for n, rows, ing in by_size(corpus):
        score[rows] = pair_sums(oracle.overlap, ing) / (n * (n - 1))
    return pd.Series(score, index=corpus.index).groupby(corpus["region"]).agg(["mean", "size"])


def fig4_check(table, expected):
    got = table.set_index("region")
    if sorted(got.index) != sorted(expected.index):
        return [f"regions {sorted(got.index)} != {sorted(expected.index)}"]
    bad = []
    for region, row in expected.iterrows():
        g = got.loc[region]
        if not close(g["ns_real"], row["mean"]):
            bad.append(f"{region}: ns_real {g['ns_real']!r} != NumPy {row['mean']!r}")
        if g["n_recipes_real"] != row["size"]:
            bad.append(f"{region}: {g['n_recipes_real']} recipes scored, corpus has {row['size']}")
    if not (table["sigma_random"] > 0).all():
        bad.append("sigma_random is not positive everywhere")
    z = table[[c for c in table.columns if c.startswith("z_")]].to_numpy(dtype=float)
    if not np.isfinite(z).all():
        bad.append("a Z-score is not finite")
    return bad


def fig4_verdicts(table):
    t = table[table["region"].isin(PAPER_SIGN)]
    sign = t["region"].map(PAPER_SIGN)
    return {
        "Z sign as the paper (of 22)": int((np.sign(t["z_real"]) == sign).sum()),
        "frequency-model Z sign as the paper (of 22)":
            int((np.sign(t["z_frequency"]) == sign).sum()),
        "category-model |Z| below 25% of real |Z| (of 22)":
            int((t["z_category"].abs() < 0.25 * t["z_real"].abs()).sum()),
    }


# --------------------------------------------------------------------------
# contrib_tables: t1, t2 and t3 run(), every corpus phrase aliased, then
# t5_contributions.run: Table 1, Figs. 2, 3 and 5


def alias_summary(aliased):
    """Phrases per aliasing status and whether the phrase's own ingredient
    was recovered; forces every phrase through the aliasing UDF."""
    recovered = F.coalesce(F.col("mapped_id") == F.col("ingredient_id"), F.lit(False))
    return aliased.groupBy("status", recovered.alias("recovered")).count().toPandas()


def tables_run(spark, seed):
    table1 = t1_region_stats.run(spark, TABLES_SCALE, seed)
    shares = t2_category_heatmap.run(spark, TABLES_SCALE, seed)
    sizes, _ = t3_size_popularity.run(spark, TABLES_SCALE, seed)
    corpus = build_corpus(spark, scale=TABLES_SCALE, seed=seed)
    phrases = phrases_df(explode_corpus(corpus), seed=seed + PHRASE_SEED_OFFSET)
    return {"table1": table1, "shares": shares, "sizes": sizes,
            "aliased": alias_summary(alias_phrases(phrases)),
            "top": t5_contributions.run(spark, TABLES_SCALE, seed)}


def tables_replay(tr, spark, seed):
    def corpus():
        return tr.force("culinarydb.build_corpus-contrib_tables",
                        lambda: build_corpus(spark, scale=TABLES_SCALE, seed=seed))[0]

    c = corpus()  # as t1_region_stats.run
    table1 = tr.collect("stats.region_table", lambda: region_table_vs_paper(c))
    c.unpersist()
    c = corpus()  # as t2_category_heatmap.run
    per_region = tr.collect("stats.category_shares",
                            lambda: category_shares(spark, c).toPandas())
    world = tr.collect("stats.world_category_shares",
                       lambda: world_category_shares(spark, c).toPandas())
    world["region"] = "WORLD"
    c.unpersist()
    c = corpus()  # as t3_size_popularity.run
    sizes = tr.collect("stats.recipe_size_summary", lambda: recipe_size_summary(c).toPandas())
    tr.collect("stats.rank_frequency", lambda: rank_frequency(c).toPandas())
    c.unpersist()
    c = corpus()
    phrases, _ = tr.force("culinarydb.phrases_df",
                          lambda: phrases_df(explode_corpus(c), seed=seed + PHRASE_SEED_OFFSET))
    aliased = tr.collect("aliasing.alias_phrases", lambda: alias_summary(alias_phrases(phrases)))
    phrases.unpersist()
    c.unpersist()

    c = corpus()  # as t5_contributions.run
    exploded = explode_corpus(c).where("region != 'OTHER'")
    profiles, _ = tr.force("flavordb.profiles_df-contrib_tables", lambda: profiles_df(spark))
    pairs, _ = tr.force("pairing.shared_pairs", lambda: shared_pairs(profiles))
    contrib, rows = tr.force("contribution.ingredient_contributions",
                             lambda: ingredient_contributions(exploded, pairs))
    top = tr.collect("contribution.top_contributors", lambda: top_contributors(contrib, k=3))

    out = {
        "table1": table1,
        "shares": pd.concat([per_region, world[["region", "category", "count", "share"]]]),
        "sizes": sizes,
        "aliased": aliased,
        "top": top,
    }
    by_status = aliased.groupby("status")["count"].sum()
    counts = {f"aliasing.{k}": int(by_status.get(k, 0)) for k in ("exact", "partial", "unmatched")}
    return out, counts | {"contribution.rows": rows}


def brute_force_chi(corpus: pd.DataFrame, s: np.ndarray) -> pd.Series:
    """χ of every (region, ingredient), removing the ingredient from each
    recipe that holds it and re-scoring the recipe's remaining pairs."""
    corpus = corpus[corpus["region"] != "OTHER"].reset_index(drop=True)
    base = np.empty(len(corpus))
    parts = []
    for n, rows, ing in by_size(corpus):
        base[rows] = pair_sums(s, ing) / (n * (n - 1))
        for p in range(n):
            # A 2-ingredient recipe has no pair left: it leaves the cuisine.
            without = (pair_sums(s, np.delete(ing, p, axis=1)) / ((n - 1) * (n - 2))
                       if n >= 3 else np.nan)
            parts.append(pd.DataFrame({"recipe": rows, "ingredient_id": ing[:, p],
                                       "without": without}))
    held = pd.concat(parts, ignore_index=True)
    held["region"] = corpus["region"].to_numpy()[held["recipe"]]
    held["base"] = base[held["recipe"]]
    g = held.groupby(["region", "ingredient_id"]).agg(
        base=("base", "sum"), without=("without", "sum"),
        holders=("base", "size"), kept=("without", "count"))
    region = pd.Series(base).groupby(corpus["region"]).agg(["sum", "size"])
    region = region.reindex(g.index.get_level_values("region"))
    total, n_r = region["sum"].to_numpy(), region["size"].to_numpy()
    ns_without = (total - g["base"] + g["without"]) / (n_r - g["holders"] + g["kept"])
    return 100.0 * (total / n_r - ns_without) / (total / n_r)


def tables_expect(oracle):
    import duckdb  # only this oracle needs it

    corpus = oracle.corpus(TABLES_SCALE)
    exploded = corpus[["recipe_id", "region", "ingredients"]].explode("ingredients")
    con = duckdb.connect()
    try:
        con.register("exploded", exploded)
        table1 = con.execute(
            "SELECT region, count(DISTINCT recipe_id) AS recipes, "
            "count(DISTINCT ingredients) AS ingredients FROM exploded GROUP BY region"
        ).fetchdf()
    finally:
        con.close()
    return {"table1": table1.set_index("region"), "phrases": len(exploded),
            "chi": brute_force_chi(corpus, oracle.overlap)}


def tables_check(out, expected):
    bad = []
    got = out["table1"].dropna(subset=["recipes"]).set_index("region")
    want = expected["table1"].drop(index="OTHER", errors="ignore")
    if sorted(got.index) != sorted(want.index):
        bad.append(f"Table 1 regions {sorted(got.index)} != DuckDB {sorted(want.index)}")
    for region, row in got.iterrows():
        w = want.loc[region]
        if (row["recipes"], row["ingredients"]) != (w["recipes"], w["ingredients"]):
            bad.append(f"{region}: Table 1 ({row['recipes']}, {row['ingredients']}) "
                       f"!= DuckDB ({w['recipes']}, {w['ingredients']})")
    al = out["aliased"]
    recovered = int(al.loc[al["recovered"], "count"].sum())
    if not int(al["count"].sum()) == recovered == expected["phrases"]:
        bad.append(f"aliasing recovered {recovered}/{int(al['count'].sum())} "
                   f"of {expected['phrases']} phrases")
    return bad + top3_check(out["top"], expected["chi"])


def top3_check(top, chi):
    """Each region's top 3 against brute-force removal."""
    regions = sorted(chi.index.get_level_values("region").unique())
    if sorted(top["region"].unique()) != regions:
        return [f"top-3 covers {sorted(top['region'].unique())}, expected {regions}"]
    bad = []
    for region, g in top.groupby("region"):
        want = chi.loc[region].sort_values(ascending=PAPER_SIGN.get(region, 1) < 0).head(3)
        got = g.sort_values("rank")
        if len(got) != len(want):
            bad.append(f"{region}: {len(got)} contributors, expected {len(want)}")
        for ing, c, w in zip(got["ingredient_id"], got["chi"], want.to_numpy()):
            brute = chi.loc[(region, ing)]
            if not (close(c, w) and close(c, brute)):
                bad.append(f"{region}: χ({ing}) = {c!r}, brute force {brute!r}, rank value {w!r}")
    return bad


def tables_verdicts(out):
    """Table 1 cells against the generator's targets (at scale 1.0 the
    paper's counts), the Fig. 2 claims, Fig. 3's mean recipe size ≈ 9,
    full aliasing recovery and the Fig. 5 signs."""
    specs = {s.code: s for s in region_specs(TABLES_SCALE)}
    table1 = sum(
        int(r.recipes == specs[r.region].n_recipes)
        + int(r.ingredients == len(specs[r.region].pool))
        for r in out["table1"].itertuples()
    )
    pivot = out["shares"].pivot_table(index="region", columns="category", values="share")
    fig2 = sum(pivot.loc[c, "Dairy"] > pivot.loc[c, "Vegetable"] for c in ("FRA", "BRI", "SCND"))
    fig2 += sum(pivot.loc[c].idxmax() == "Spice" for c in ("INSC", "AFR", "ME", "CBN"))
    sizes = out["sizes"]
    mean_size = np.average(sizes["mean_n"], weights=sizes["recipes"])
    top = out["top"][out["top"]["region"].isin(PAPER_SIGN)]
    return {
        "Table 1 cells (of 44)": int(table1),
        "Fig. 2 claims (of 7)": int(fig2),
        "Fig. 3 mean recipe size within 9 ± 0.5 (of 1)": int(abs(mean_size - 9) < 0.5),
        "every phrase aliased to its ingredient (of 1)":
            int(bool(out["aliased"]["recovered"].all())),
        "regions whose top-3 χ carry their Fig. 4 sign (of 22)": sum(
            bool((np.sign(g["chi"]) == PAPER_SIGN[region]).all())
            for region, g in top.groupby("region")
        ),
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig4_pairing", FIG4_SCALE, fig4_run, fig4_replay, fig4_expect, fig4_check,
                 fig4_verdicts),
        Workload("contrib_tables", TABLES_SCALE, tables_run, tables_replay, tables_expect,
                 tables_check, tables_verdicts),
    )
}


def coverage_swaps(oracle: Oracle, scale: float) -> int:
    """Recipes whose ingredients the coverage pass changed."""
    sampled = build_corpus(oracle.spark, scale=scale, seed=oracle.seed,
                           ensure_coverage=False).toPandas()
    covered = oracle.corpus(scale)
    if not sampled["recipe_id"].equals(covered["recipe_id"]):
        raise ValueError("the coverage pass reordered or dropped recipes")
    return sum(not np.array_equal(a, b)
               for a, b in zip(sampled["ingredients"], covered["ingredients"]))
