"""Fig. 4 Z-score computation and qualitative reproduction on a subset."""
import numpy as np
import pyspark.sql.functions as F
import pytest

from repro.core.zscore import food_pairing_table
from repro.regions import REGIONS, by_code

#: Two strongly-positive and two strongly-negative regions keep the
#: subset test fast while covering both regimes.
SUBSET = ("ITA", "INSC", "JPN", "EE")


@pytest.fixture(scope="module")
def table(spark, corpus_mid, overlap_matrix):
    sub = corpus_mid.where(F.col("region").isin(list(SUBSET)))
    return food_pairing_table(spark, sub, overlap_matrix, n_rand=4000, seed=17)


def test_signs_match_paper_all_regions(spark, corpus_mid, overlap_matrix):
    """At least 20 of the 22 regions carry their Fig. 4 sign (z_real needs
    only the Random Cuisine baseline)."""
    table = food_pairing_table(
        spark, corpus_mid, overlap_matrix, n_rand=5000, seed=17, models=("random",)
    ).set_index("region")
    signs = {r.code: r.pairing_sign for r in REGIONS}
    assert sum(np.sign(table.loc[c, "z_real"]) == s for c, s in signs.items()) >= 20


def test_table_shape(table):
    assert set(table["region"]) == set(SUBSET)
    for col in (
        "ns_real", "ns_random", "sigma_random", "z_real",
        "ns_frequency", "z_frequency", "ns_category", "z_category",
        "ns_freq_cat", "z_freq_cat", "pairing",
    ):
        assert col in table.columns


@pytest.mark.parametrize("region", SUBSET)
def test_signs_match_paper(table, region):
    row = table[table["region"] == region].iloc[0]
    assert np.sign(row["z_real"]) == by_code(region).pairing_sign


def test_no_cuisine_indistinguishable_from_random(table):
    """Paper: every cuisine deviates significantly from random."""
    assert (table["z_real"].abs() > 3).all()


def test_frequency_model_reproduces_pattern(table):
    """Paper: ingredient frequency accounts for the pairing pattern."""
    for _, row in table.iterrows():
        assert np.sign(row["z_frequency"]) == np.sign(row["z_real"])
        assert abs(row["z_frequency"]) > 0.5 * abs(row["z_real"])


def test_category_model_fails_to_reproduce(table):
    """Paper: category composition alone does not reproduce pairing."""
    for _, row in table.iterrows():
        assert abs(row["z_category"]) < 0.5 * abs(row["z_real"])


def test_freq_cat_model_tracks_frequency(table):
    for _, row in table.iterrows():
        assert np.sign(row["z_freq_cat"]) == np.sign(row["z_frequency"])


def test_pairing_labels(table):
    for _, row in table.iterrows():
        expected = "uniform" if row["z_real"] > 0 else "contrasting"
        assert row["pairing"] == expected


def test_z_formula_consistency(table):
    for _, row in table.iterrows():
        z = (
            np.sqrt(4000)
            * (row["ns_real"] - row["ns_random"])
            / row["sigma_random"]
        )
        assert row["z_real"] == pytest.approx(z)


def test_requires_random_baseline(spark, corpus_small, overlap_matrix):
    with pytest.raises(ValueError):
        food_pairing_table(
            spark, corpus_small, overlap_matrix, n_rand=10, models=("frequency",)
        )
