"""Golden outputs on the desk instance, pinned so a refactor cannot move them.

The constants were computed before the refinement stages were rewritten
around one walk. A change that alters output on purpose updates them and
says so.
"""

import hashlib

from dersizer import DispatchConfig
from dersizer.io_cli import main
from dersizer.search import SearchConfig, run_pipeline

SIZE_CSV_SHA256 = "a2690dbca839cd50c818e9b73bb1ff90b1bc26f2447759afe305fae0469a1e3a"
EXHAUSTIVE_8_CSV_SHA256 = "267261cf7dd072bd67b1a2baf3bc43876ee2ea4a586ba0d3f36b73d61e390d65"
PIPELINE_SEED = 7
PIPELINE_ALL_SIMULATED = 366
PIPELINE_STAGE_COUNTS = {
    "exhaustive": {"simulations": 121, "designs": 121, "pruned": 95, "dispatch_runs": 41},
    "binary_search": {"simulations": 244, "designs": 365, "dispatch_runs": 78},
    "local_search": {"simulations": 1, "designs": 114, "dispatch_runs": 0},
}


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_size_csv_is_golden(desk_cli_dir):
    out = desk_cli_dir / "size.csv"
    assert main(["size", "--config", str(desk_cli_dir / "config.json"), "--out", str(out)]) == 0
    assert sha256_of(out) == SIZE_CSV_SHA256


def test_exhaustive_csv_at_8_levels_is_golden(desk_cli_dir):
    out = desk_cli_dir / "exhaustive.csv"
    argv = ["exhaustive", "--config", str(desk_cli_dir / "config.json"), "--levels", "8", "--out", str(out)]
    assert main(argv) == 0
    assert sha256_of(out) == EXHAUSTIVE_8_CSV_SHA256


def test_pipeline_counts_are_golden(desk_load, desk_space):
    report = run_pipeline(desk_space, desk_load, DispatchConfig(), SearchConfig(rng_seed=PIPELINE_SEED))
    assert report.all_simulated == PIPELINE_ALL_SIMULATED
    assert report.per_stage_counts == PIPELINE_STAGE_COUNTS
