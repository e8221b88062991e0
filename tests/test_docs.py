"""Doc-sync checks: the docs may not drift from the registry or the CLI.

* Every registered scenario must be documented in EXPERIMENTS.md (the
  scenario table is the contract users read before running anything).
* Every ``repro ...`` command shown in README.md and EXPERIMENTS.md must
  still parse against the real argument parser — a renamed flag or
  removed subcommand fails here before a user hits it.
* The README's promised entry points exist (`repro = repro.cli:main` in
  setup.py, ``python -m repro list`` runs).
"""

import pathlib
import re
import shlex

import pytest

from repro.analysis import rule_ids
from repro.cli import build_parser, main
from repro.experiments import scenario_names

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
EXPERIMENTS = ROOT / "EXPERIMENTS.md"
ARCHITECTURE = ROOT / "docs" / "ARCHITECTURE.md"


def cli_example_lines(path: pathlib.Path):
    """``repro``/``python -m repro`` command lines from fenced blocks."""
    commands = []
    fenced = False
    for line in path.read_text(encoding="utf-8").splitlines():
        stripped = line.strip()
        if stripped.startswith("```"):
            fenced = not fenced
            continue
        if not fenced:
            continue
        # Usage notation: trailing comments, [--optional ...] segments and
        # alternation pipes are documentation, not part of the command.
        stripped = stripped.split("#")[0].strip()
        stripped = re.sub(r"\[[^\]]*\]", "", stripped)
        if "|" in stripped or "(" in stripped:
            continue
        tokens = stripped.split()
        # Drop leading ENV=value assignments (e.g. PYTHONPATH=src).
        while tokens and "=" in tokens[0] and not tokens[0].startswith("-"):
            tokens = tokens[1:]
        if tokens[:3] == ["python", "-m", "repro"]:
            commands.append((stripped, tokens[3:]))
        elif tokens[:1] == ["repro"]:
            commands.append((stripped, tokens[1:]))
    return commands


class TestScenarioDocSync:
    def test_every_scenario_documented_in_experiments_md(self):
        text = EXPERIMENTS.read_text(encoding="utf-8")
        missing = [
            name for name in scenario_names() if f"`{name}`" not in text
        ]
        assert not missing, (
            f"scenarios missing from EXPERIMENTS.md: {missing} — "
            "add them to the scenario table"
        )

    def test_readme_figure_table_covers_every_scenario(self):
        text = README.read_text(encoding="utf-8")
        missing = [name for name in scenario_names() if f"`{name}`" not in text]
        assert not missing, (
            f"scenarios missing from README.md's figure table: {missing}"
        )


class TestLintDocSync:
    def test_every_rule_documented_in_architecture_md(self):
        """ARCHITECTURE.md §"Enforced contracts" names every registered
        rule — a rule the docs don't explain is a gate nobody can obey."""
        text = ARCHITECTURE.read_text(encoding="utf-8")
        assert "## 4. Enforced contracts" in text
        section = text.split("## 4. Enforced contracts", 1)[1]
        missing = [rid for rid in rule_ids() if f"`{rid}`" not in section]
        assert not missing, (
            f"rules missing from ARCHITECTURE.md 'Enforced contracts': "
            f"{missing}"
        )


class TestEngineDocSync:
    def test_every_engine_value_documented_in_experiments_md(self):
        """EXPERIMENTS.md documents the one value the scenarios' `engine`
        parameter accepts, in 'The group-evaluation engine'."""
        from repro.experiments.registry import WLAN_ENGINE

        text = EXPERIMENTS.read_text(encoding="utf-8")
        section = text.split("## The group-evaluation engine", 1)[1]
        section = section.split("\n## ", 1)[0]
        assert f'`engine="{WLAN_ENGINE}"`' in section, (
            f'`engine="{WLAN_ENGINE}"` missing from EXPERIMENTS.md — '
            "document it in 'The group-evaluation engine'"
        )

    def test_bench_wlan_schema_documents_columnar_fields(self):
        """The BENCH_wlan.json schema block shows the columnar fields the
        artifact actually carries (and CI gates on)."""
        text = EXPERIMENTS.read_text(encoding="utf-8")
        for field in ("speedup_columnar", "bit_identical"):
            assert f'"{field}"' in text, (
                f"EXPERIMENTS.md BENCH_wlan schema is missing {field!r}"
            )


class TestDocsExist:
    def test_front_door_files_present(self):
        assert README.is_file()
        assert EXPERIMENTS.is_file()
        assert ARCHITECTURE.is_file()

    def test_readme_links_resolve(self):
        """Relative links the README promises actually exist."""
        for target in ("EXPERIMENTS.md", "docs/ARCHITECTURE.md",
                       "BENCH_wlan.json", "BENCH_signal.json",
                       "BENCH_city.json", "BENCH_faults.json"):
            assert f"({target})" in README.read_text(encoding="utf-8")
            assert (ROOT / target).exists(), f"README links to missing {target}"

    def test_console_script_declared(self):
        assert "repro = repro.cli:main" in (ROOT / "setup.py").read_text(
            encoding="utf-8"
        )


class TestCliExamplesParse:
    @pytest.mark.parametrize(
        "doc", [README, EXPERIMENTS], ids=lambda p: p.name
    )
    def test_examples_parse(self, doc):
        commands = cli_example_lines(doc)
        assert commands, f"{doc.name} shows no runnable repro examples"
        parser = build_parser()
        for shown, argv in commands:
            argv = shlex.split(" ".join(argv))
            try:
                parser.parse_args(argv)
            except SystemExit as exc:
                # --version exits 0 by design; anything else is drift.
                assert exc.code == 0, f"example no longer parses: {shown!r}"

    def test_readme_quickstart_list_runs(self, capsys):
        """The README's first command (`repro list`) must actually work."""
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out
