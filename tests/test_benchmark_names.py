import importlib
import json
from functools import reduce
from pathlib import Path

# per-layer names that already name no function; each reads 0 until the
# benchmark's names are repaired (ROADMAP item 3)
STALE = {"metrics.GainTable.grad_total_data", "radio.sample_fading_db",
         "allocators.ChannelSnapshot.from_scenario"}


def _resolves(name: str) -> bool:
    module, *attrs = name.split(".")
    try:
        reduce(getattr, attrs, importlib.import_module(f"railpower.{module}"))
    except (ImportError, AttributeError):
        return False
    return True


def test_benchmark_per_layer_names_resolve_to_railpower():
    # a per-layer call count or self time names a railpower function; a
    # rename in src/ would otherwise zero that figure without a failure
    spec = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    names = {entry["name"].rsplit(".", 1)[0] for entry in spec["per_layer"]
             if entry["name"].endswith((".calls", ".self_s"))}
    assert len(names) > len(STALE)
    assert {n for n in names if not _resolves(n)} <= STALE
