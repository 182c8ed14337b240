"""The README's examples still work: the library snippet runs and the quick-start config parses."""

import pathlib
import re

from dersizer.io_cli import parse_config

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def fenced_block(section: str, language: str) -> str:
    """The first `language` code block under the `## <section>` heading."""
    body = README.read_text(encoding="utf-8").split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", body, re.DOTALL).group(1)


def test_library_use_example_runs():
    namespace: dict = {}
    exec(fenced_block("Library use", "python"), namespace)
    assert namespace["report"].final_designs


def test_quick_start_config_parses():
    config = parse_config(fenced_block("Quick start", "json"))
    assert [d.name for d in config.ders] == ["diesel", "solar", "battery"]
    assert (config.load_path, config.output_path) == ("load.csv", "results.csv")
    assert config.search.rng_seed == 42
