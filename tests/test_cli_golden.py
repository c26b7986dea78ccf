"""Replay the CLI golden corpus: every call prints exactly what it did.

The corpus (``tests/data/cli_golden.json``) is replayed in order in one
process, so later calls run on the parser that earlier calls used.
Regenerate it with ``scripts/cli_golden.py --write``.
"""

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "cli_golden.py"
_spec = importlib.util.spec_from_file_location("cli_golden", _SCRIPT)
cli_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_golden)


def test_corpus_lists_the_script_cases():
    assert [c["argv"] for c in cli_golden.load_corpus()] == cli_golden.CASES


def test_cli_output_matches_the_golden_corpus():
    mismatched = [want["argv"] for want in cli_golden.load_corpus()
                  if cli_golden.run_case(want["argv"]) != want]
    assert mismatched == []
