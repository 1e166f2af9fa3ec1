"""Spark pipeline: raw ingredient phrase → ingredient id.

For each phrase: normalize (``textnorm``), generate n-grams longest-first
(``ngrams``) and look them up in the normalized lexicon of ingredient
names + synonyms.  Match statuses, mirroring the paper's protocol of
explicitly labeling partial and unrecognized entries for curation:

* ``exact``     — a lexicon n-gram consumed every content token;
* ``partial``   — a lexicon n-gram matched but tokens were left over;
* ``unmatched`` — no n-gram hit; ``ingredient_id`` is null.
"""
from __future__ import annotations

from typing import Iterator

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql.types import (
    LongType,
    StringType,
    StructField,
    StructType,
)

from repro.aliasing.ngrams import ngrams
from repro.aliasing.textnorm import normalize, normalize_name, pluralize
from repro.flavordb.ingredients import lexicon


def build_lexicon(seed: int = 7) -> dict[str, int]:
    """Normalized name/synonym → ingredient_id lookup table.

    Raises if two distinct ingredients normalize to the same key — a
    lexicon collision would silently mis-map phrases.
    """
    out: dict[str, int] = {}
    for raw_name, ing_id in lexicon(seed).items():
        # Register both the singular-derived and the plural-derived key:
        # rule-based singularization is not a perfect inverse of
        # pluralization ("cheeses" → "chees" but "cheese" → "cheese"),
        # so both surface forms must resolve to the ingredient.
        for key in {normalize_name(raw_name), normalize_name(pluralize(raw_name))}:
            if key in out and out[key] != ing_id:
                raise ValueError(
                    f"lexicon collision: {raw_name!r} → {key!r} maps to both "
                    f"{out[key]} and {ing_id}"
                )
            out[key] = ing_id
    return out


def alias_one(phrase: str, lex: dict[str, int]) -> tuple[int | None, str]:
    """Map a single phrase; returns (ingredient_id or None, status)."""
    tokens = normalize(phrase)
    if not tokens:
        return None, "unmatched"
    for _start, length, gram in ngrams(tokens):
        ing_id = lex.get(gram)
        if ing_id is not None:
            return ing_id, "exact" if length == len(tokens) else "partial"
    return None, "unmatched"


def alias_phrases(phrases: DataFrame, seed: int = 7) -> DataFrame:
    """Alias the ``phrase`` column of a DataFrame.

    Returns the input columns (minus ``phrase`` duplicates) plus
    ``mapped_id`` and ``status``.  The lexicon is built on the driver and
    shipped in the task closure (a ~950-entry dict).
    """
    lex = build_lexicon(seed)
    in_schema = phrases.schema
    out_schema = StructType(
        list(in_schema.fields)
        + [StructField("mapped_id", LongType()), StructField("status", StringType())]
    )

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            mapped, status = [], []
            for phrase in pdf["phrase"]:
                ing_id, st = alias_one(phrase, lex)
                mapped.append(ing_id)
                status.append(st)
            pdf = pdf.copy()
            pdf["mapped_id"] = pd.array(mapped, dtype="Int64")
            pdf["status"] = status
            yield pdf

    return phrases.mapInPandas(run, out_schema)
