"""The README's examples still work: the library snippet runs and the quick start sizes a design."""

import pathlib
import re
import shlex

from dersizer import synthetic
from dersizer.io_cli import main, parse_config, read_results_csv

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


def test_quick_start_runs_end_to_end(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    command = shlex.split(fenced_block("Quick start", "sh"))
    assert command[:3] == ["python", "-m", "dersizer.synthetic"]
    assert synthetic.main(command[3:]) == 0
    (tmp_path / "config.json").write_text(fenced_block("Quick start", "json"), encoding="utf-8")
    assert main(["size", "--config", "config.json"]) == 0
    _, _, designs = read_results_csv((tmp_path / "results.csv").read_text(encoding="utf-8"))
    assert designs
