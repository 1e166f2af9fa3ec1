"""The paper's primary contribution: food-pairing analysis of cuisines.

* :mod:`repro.core.pairing` — shared-molecule pair statistics and the
  recipe food-pairing score ``N_s^R`` (Methodology §B), gathered from a
  broadcast overlap matrix; tests check it against a Spark pair-join
  scorer and DuckDB SQL kept in ``tests/``;
* :mod:`repro.core.randomize` — the four randomized-cuisine models
  (Random / Ingredient Frequency / Ingredient Category /
  Frequency + Category);
* :mod:`repro.core.zscore` — cuisine scores ``N_s^C`` and the Z-score of
  each cuisine and model against the Random Cuisine (Fig. 4);
* :mod:`repro.core.contribution` — ingredient contribution χ_i, exact
  removal computed from the same overlap-matrix gather (Fig. 5);
* :mod:`repro.core.stats` — corpus statistics for Table 1, Fig. 2 and
  Fig. 3.
"""
from repro.core.pairing import (
    cuisine_scores,
    recipe_scores_fast,
    shared_matrix,
    shared_pairs,
)
from repro.core.randomize import MODELS, random_recipes, region_model_inputs
from repro.core.zscore import food_pairing_table
from repro.core.contribution import ingredient_contributions, top_contributors

__all__ = [
    "MODELS",
    "cuisine_scores",
    "food_pairing_table",
    "ingredient_contributions",
    "random_recipes",
    "recipe_scores_fast",
    "region_model_inputs",
    "shared_matrix",
    "shared_pairs",
    "top_contributors",
]
