"""The documented quickstarts must execute.

Runs the doctest examples embedded in ``repro/__init__.py`` and
``repro/api.py``, executes every ``python`` code block of the README
(quickstart, bound, migration-free training examples) in one shared
namespace, and parses every ``repro ...`` line of its ``bash`` blocks
with the CLI's own parser — so the docs can never drift from the API
again.  CI runs this module as the dedicated doctest job.
"""

import doctest
import pathlib
import re
import shlex

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks(text: str):
    """Every ```python fenced block, in document order."""
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


def _cli_commands(text: str):
    """The argv of every ``repro ...`` command in a ```bash fenced
    block: backslash continuations joined, ``#`` comments stripped."""
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", text, flags=re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("repro "):
                commands.append(shlex.split(line)[1:])
    return commands


def test_init_docstring_examples():
    import repro
    results = doctest.testmod(repro, verbose=False)
    assert results.attempted > 0
    assert results.failed == 0


def test_api_docstring_examples():
    import repro.api
    results = doctest.testmod(repro.api, verbose=False)
    assert results.attempted > 0
    assert results.failed == 0


def test_readme_python_blocks_execute(tmp_path, monkeypatch):
    """The README's python examples run top to bottom, for real."""
    monkeypatch.chdir(tmp_path)  # examples write small scratch files
    blocks = _python_blocks(README.read_text())
    assert len(blocks) >= 3, "README lost its python examples"
    namespace: dict = {}
    for i, block in enumerate(blocks):
        try:
            exec(compile(block, f"README.md[block {i}]", "exec"),
                 namespace)
        except Exception as exc:  # pragma: no cover - diagnostic
            pytest.fail(f"README block {i} failed: {exc}\n---\n{block}")


def test_readme_cli_lines_parse():
    """Every ``repro ...`` line of the README parses under today's
    grammar; only ``--version`` may exit (with 0)."""
    from repro.cli import build_parser
    commands = _cli_commands(README.read_text())
    assert len(commands) >= 10, "README lost its CLI block"
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit as exc:
            assert argv == ["--version"] and exc.code == 0, \
                f"README line does not parse: repro {shlex.join(argv)}"
