"""Spec-level parity of the single slot code path.

The slot pipeline has one memory source (plain numpy) and one gain-refresh
path (the fused block refresh); the only knobs left on it — ``sharding``
(dense vs spatially sharded kernel) and ``incremental`` (full rebuild vs
differential slot state) — change measured speed, never results.  So, on
CI-sized variants of the curated example specs:

* every (sharding, incremental) corner reproduces the dense full-rebuild
  run slot by slot with exact ``==`` (selected, assignments, values,
  payments) — the dense full-rebuild corner itself against a second fresh
  build, so no state leaks between engines;
* the vectorized greedy reproduces the scalar oracle
  (``GreedyAllocator(vectorized=False)``) through the whole engine;
* specs round-trip through ``to_dict``/``from_dict`` without emitting any
  key ``from_dict`` would reject.
"""

from __future__ import annotations

import dataclasses
import functools
from pathlib import Path

import pytest

from repro.core import GreedyAllocator
from repro.core.metrics import SimulationSummary
from repro.datasets import ScenarioSpec
from repro.experiments.replay import allocation_signature

SPEC_DIR = Path(__file__).resolve().parent.parent / "examples" / "specs"

SPEC_NAMES = ["region_storm", "stationary_churn"]

#: (sharding, incremental) corners: dense + sharded kernels crossed with
#: full-rebuild + incremental slot state.
KNOB_CORNERS = [
    (None, False),
    (None, "auto"),
    ("auto", False),
    ("auto", "auto"),
]
CORNER_IDS = ["dense-full", "dense-incremental", "sharded-full", "sharded-incremental"]


def scaled_spec(name: str, **overrides) -> ScenarioSpec:
    """A CI-sized variant of a curated example spec."""
    spec = ScenarioSpec.from_json(SPEC_DIR / f"{name}.json")
    defaults = {"n_sensors": 320, "n_slots": 2}
    return dataclasses.replace(spec, **{**defaults, **overrides})


def slot_signatures(spec: ScenarioSpec, allocator=None):
    """Per-slot exact allocation signatures from a fresh engine build of
    ``spec``; ``allocator`` replaces the spec's joint allocator."""
    engine = spec.build()
    if allocator is not None:
        engine.allocation.allocator = allocator
    summary = SimulationSummary()
    sigs = []
    for _ in range(spec.n_slots):
        engine.step(summary)
        sigs.append(allocation_signature(engine.last_result))
    return sigs


@functools.lru_cache(maxsize=None)
def reference_signatures(name: str):
    """The dense full-rebuild run every corner must reproduce."""
    return slot_signatures(scaled_spec(name, sharding=None, incremental=False))


@pytest.mark.parametrize("sharding,incremental", KNOB_CORNERS, ids=CORNER_IDS)
@pytest.mark.parametrize("spec_name", SPEC_NAMES)
def test_knob_corners_bit_identical(spec_name, sharding, incremental):
    spec = scaled_spec(spec_name, sharding=sharding, incremental=incremental)
    sigs = slot_signatures(spec)
    assert all(sig is not None for sig in sigs)
    assert any(sig[1] for sig in sigs)  # some slot assigns sensors
    assert sigs == reference_signatures(spec_name)  # exact


@pytest.mark.parametrize("sharding", [None, "auto"], ids=["dense", "sharded"])
@pytest.mark.parametrize("spec_name", SPEC_NAMES)
def test_engine_matches_scalar_greedy_oracle(spec_name, sharding):
    # the scalar oracle prices one (query, sensor) pair at a time; keep the
    # fleet and the per-slot query count small
    spec = scaled_spec(spec_name, sharding=sharding, n_sensors=160)
    streams = [
        dataclasses.replace(s, params={**s.params, "mean_queries": 16})
        for s in spec.streams
    ]
    spec = dataclasses.replace(spec, streams=streams)
    oracle = slot_signatures(spec, allocator=GreedyAllocator(vectorized=False))
    assert any(sig[1] for sig in oracle)  # some slot assigns sensors
    assert slot_signatures(spec) == oracle


@pytest.mark.parametrize("sharding,incremental", KNOB_CORNERS, ids=CORNER_IDS)
def test_spec_round_trips_slot_knobs(sharding, incremental):
    spec = scaled_spec("stationary_churn", sharding=sharding, incremental=incremental)
    payload = spec.to_dict()
    assert not {"backend", "workspace", "fused"} & set(payload)
    assert payload.get("sharding") == sharding
    assert payload.get("incremental") == incremental
    assert ScenarioSpec.from_dict(payload) == spec
