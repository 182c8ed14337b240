"""The README's examples still work: the library snippet runs, the quick start sizes a design, its
example progress lines are what the pipeline logs, and the CLI table's `simulate` and `filter`
commands run on the quick start's files."""

import logging
import pathlib
import re
import shlex

from dersizer import DispatchConfig, synthetic
from dersizer.io_cli import DEFICIT_COLUMN, main, parse_config, read_results_csv
from dersizer.search import SearchConfig, run_pipeline

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def section_body(section: str) -> str:
    """The README text under the `## <section>` heading."""
    return README.read_text(encoding="utf-8").split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]


def fenced_block(section: str, language: str) -> str:
    """The first `language` code block under the `## <section>` heading."""
    return re.search(rf"```{language}\n(.*?)```", section_body(section), re.DOTALL).group(1)


def without_seconds(line: str) -> str:
    return re.sub(r"\d+\.\d+s$", "<seconds>", line)


def cli_usage(command: str, files: dict[str, str]) -> list[str]:
    """The arguments of `dersizer <command>` in the README's CLI table, placeholders replaced by `files`."""
    usage = re.search(rf"^\| `dersizer {command} ([^`]*)`", section_body("CLI"), re.MULTILINE).group(1)
    return [command, *(files.get(arg, arg) for arg in shlex.split(usage))]


def test_library_use_example_runs():
    namespace: dict = {}
    exec(fenced_block("Library use", "python"), namespace)
    assert namespace["report"].final_designs


def test_quick_start_config_parses():
    config = parse_config(fenced_block("Quick start", "json"))
    assert [d.name for d in config.ders] == ["diesel", "solar", "battery"]
    assert (config.load_path, config.output_path) == ("load.csv", "results.csv")
    assert config.search.rng_seed == 42


def test_progress_lines_are_the_pipeline_log_on_the_desk_day(desk_load, desk_space, caplog):
    caplog.set_level(logging.INFO, logger="dersizer")
    run_pipeline(desk_space, desk_load, DispatchConfig(), SearchConfig(fine_level_points=11, rng_seed=7))
    logged = [r.getMessage() for r in caplog.records if r.name.startswith("dersizer")]
    example = fenced_block("Quick start", "text").splitlines()
    assert [without_seconds(line) for line in example] == [without_seconds(line) for line in logged]


def test_quick_start_runs_end_to_end(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    command = shlex.split(fenced_block("Quick start", "sh"))
    assert command[:3] == ["python", "-m", "dersizer.synthetic"]
    assert synthetic.main(command[3:]) == 0
    (tmp_path / "config.json").write_text(fenced_block("Quick start", "json"), encoding="utf-8")
    assert main(["size", "--config", "config.json"]) == 0
    cap_cols, unused_cols, designs = read_results_csv((tmp_path / "results.csv").read_text(encoding="utf-8"))
    assert designs

    capsys.readouterr()
    assert main(cli_usage("simulate", {"C": "config.json"})) == 0
    printed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert printed == [*cap_cols, DEFICIT_COLUMN, *unused_cols]
    assert main(cli_usage("filter", {"RESULTS.csv": "results.csv", "PATH": "filtered.csv"})) == 0
    # the final designs are already non-dominated, so the filter keeps every row
    assert (tmp_path / "filtered.csv").read_bytes() == (tmp_path / "results.csv").read_bytes()
