"""Golden digests: the exported bytes of every shipped scenario, pinned.

Rerun equality (same inputs, same bytes) is tested elsewhere; this file
pins the bytes themselves across changes to the engine and the
exporters, and checks that importing each structured export writes it
back unchanged.  Each entry is (scenario stem, pipeline index) ->
(sha256 of export_structured, sha256 of export_tabular), run at the
scenario file's own seed; the benchmark workloads are pinned the same
way, by name, at seed 1 and 2,000 frames, and the 2,000 chains of
conftest's tie_pool, whose equal-time events pin the engine's push order,
by one sha256 of all their exports.  A change to exported bytes
needs a schema doc edit and a schema_version bump, and then new digests
here.
"""

import functools
import hashlib
from pathlib import Path

import pytest

from acqsim import export_structured, export_tabular, import_structured, load_scenario, parse_scenario, run
from conftest import assert_tabular_matches_structured, benchmark_workloads

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

WORKLOAD_GOLDEN = {
    "classic-congested": (
        "cb18d7cfac902eca1b8ed13e16b42f7c26a963e11d9ec770b3ed4049a40adde3",
        "c582864920fc2398774e9c7a9cec00d5e810e2bc0ca3c9c470d4f8e08e6c7935",
    ),
    "direct-steady": (
        "84d18daa85e96c7adf02e90205db60889040bf64113bc0578a33b7e86d67cac8",
        "94b748a05c06e67a69b4accfb6e314849a5c67cf5a4d5aa0363f8082dfc2d643",
    ),
    "overload-oldest": (
        "fca462a5bc4111bd7af3e6a4e4d993d246fce04e90276ff12bbacc7991f48f97",
        "c588d495279d31854f9cab7381690e0658d558cce91dba401144e72c051971d7",
    ),
}


TIE_POOL_GOLDEN = "eef6c3adb587152d73d7449ea5949d5d38ea7877baa1691d23e3b5d5c3316835"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_shipped_pipeline_is_pinned():
    shipped = {
        (path.stem, i)
        for path in SCENARIOS.glob("*.json")
        for i in range(len(load_scenario(path).pipelines))
    }
    assert shipped == set(GOLDEN)


@functools.cache
def _exports(key) -> tuple:
    stem, index = key
    scenario = load_scenario(SCENARIOS / f"{stem}.json")
    report = run(scenario.pipelines[index], scenario.configs()[index])
    return export_structured(report), export_tabular(report)


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=lambda k: f"{k[0]}-{k[1]}")
def test_export_digests(key):
    text, tabular = _exports(key)
    assert (_sha256(text), _sha256(tabular)) == GOLDEN[key]
    assert export_structured(import_structured(text)) == text


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=lambda k: f"{k[0]}-{k[1]}")
def test_tabular_frames_match_structured(key):
    assert_tabular_matches_structured(*_exports(key))


@pytest.mark.parametrize("name", sorted(benchmark_workloads()))
def test_workload_digests(name):
    # overload-oldest meets 969 equal-time ties that decide an admission in
    # each run; its digests are what pins which way they go.
    scenario = parse_scenario(benchmark_workloads()[name](1, 2_000))
    report = run(scenario.pipelines[0], scenario.configs()[0])
    assert (_sha256(export_structured(report)), _sha256(export_tabular(report))) == WORKLOAD_GOLDEN[name]


def test_tie_pool_digest(tie_pool):
    # The tandem oracle takes the engine's outcome wherever equal-time order decides, so these bytes are
    # what pins that order across the many chains whose events meet at one nanosecond.
    digest = hashlib.sha256()
    for _, _, report in tie_pool:
        digest.update(export_structured(report).encode("utf-8"))
        digest.update(export_tabular(report).encode("utf-8"))
    assert digest.hexdigest() == TIE_POOL_GOLDEN
