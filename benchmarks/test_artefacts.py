"""Every paper artefact at seed 42: write ``out/<name>.txt``, check its claims.

``pytest benchmarks/`` runs every ``repro.harness.artefacts.ARTEFACTS`` entry
(``-k fig7`` picks one, ``-s`` shows each table), rewrites its committed text
and evaluates each of its shape claims; ``git diff benchmarks/out/`` then
shows any number that moved.
"""

import pathlib

import pytest
from conftest import BENCH_SEED

from repro.harness.artefacts import ARTEFACTS
from repro.harness.parallel import ParallelRunner

OUT = pathlib.Path(__file__).parent / "out"


@pytest.mark.parametrize("entry", ARTEFACTS, ids=lambda entry: entry.name)
def test_artefact(entry):
    data = entry.build(ParallelRunner(seed=BENCH_SEED, use_cache=False), entry.sizes)
    text = entry.render(data)
    (OUT / f"{entry.name}.txt").write_text(text + "\n")
    print(f"\n{text}")
    failed = [f"{claim.name}: {claim.quote}" for claim in entry.claims if not claim.holds(data)]
    assert not failed
