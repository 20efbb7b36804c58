"""Golden digests: the exported bytes of every shipped scenario, pinned.

Rerun equality (same inputs, same bytes) is tested elsewhere; this file
pins the bytes themselves across changes to the engine and the
exporters, and checks that importing each structured export writes it
back unchanged.  Each entry is (scenario stem, pipeline index) ->
(sha256 of export_structured, sha256 of export_tabular), run at the
scenario file's own seed.  A change to exported bytes needs a schema
doc edit and a schema_version bump, and then new digests here.
"""

import hashlib
from pathlib import Path

import pytest

from acqsim import export_structured, export_tabular, import_structured, load_scenario, run

pytestmark = pytest.mark.filterwarnings("ignore::acqsim.linkmodel.EnvelopeWarning")

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN = {
    ("classic-1mpx", 0): (
        "bdc8ae75ac158522f2a8e09566d054cc4c6f2392dcc0b905a83a46b1b790e20a",
        "14fe7e9c661e19a1a54092a8d38eaee72c95769db3d1e5bf122a691fc4114ccb",
    ),
    ("deadline-150us", 0): (
        "01c25f697383782e5b44c97f47b9f2c2ca326e239cbe0bbcdc598870e22a9f2e",
        "56256c1613277876a0b200c8824d1f445dfc8e29729f2f72250f37388dadee6f",
    ),
    ("deadline-80us", 0): (
        "897cf289628ba8afab51966d3e4ecc17bfd790cb093c75dfea14e757cdf44c5c",
        "98ffb9888defcf62df8718e308225b85591d2ff7548e152364bab358bf25d264",
    ),
    ("direct-1mpx", 0): (
        "46e668c79444960e93c11892f3e3bdc40292721cd2f5d36b88bfb9f7e234ea83",
        "4fed12bf32bc7ab95ef17a13953a942fb757aa755af39b4ffc52ae1414e8f63e",
    ),
    ("jitter-20ns", 0): (
        "7daf079943d25e234f15b387ffdf75a6d2b32ab4d9892b7896c11918c3d3b2b0",
        "02c48d459658a654a9b48c5622a46028f3d28706431d4b544c473f844b21dafe",
    ),
    ("jitter-80ns", 0): (
        "810c2a763f784183a38ebfa773545114067c4228437ef64e7082ec01954c8c50",
        "71fa4632266b8dc8f473b4e5e8702f1a0c60239ddcd2f0cd156642e007683e48",
    ),
    ("overflow-8to4", 0): (
        "e298747f6e5adce51f28019a76e1c2e5004e21f0069306dfb49af4faf6ca7f39",
        "788d42d7cb366e735a9e12f372f4980c1f6bc600f138d212151afdebb9cf8b65",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_shipped_pipeline_is_pinned():
    shipped = {
        (path.stem, i)
        for path in SCENARIOS.glob("*.json")
        for i in range(len(load_scenario(path).pipelines))
    }
    assert shipped == set(GOLDEN)


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=lambda k: f"{k[0]}-{k[1]}")
def test_export_digests(key):
    stem, index = key
    scenario = load_scenario(SCENARIOS / f"{stem}.json")
    report = run(scenario.pipelines[index], scenario.configs()[index])
    text = export_structured(report)
    assert (_sha256(text), _sha256(export_tabular(report))) == GOLDEN[key]
    assert export_structured(import_structured(text)) == text
