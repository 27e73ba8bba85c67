"""The README's examples run as written and give the results they state.

The quick tour is executed statement by statement; an expression statement
followed by a comment that opens with a quoted value must evaluate to that
value.  The ``check`` and ``simulate`` configs are run through
``python -m soladic`` and must exit 0.  The module map names every module
of the package.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

README = Path(__file__).parent.parent / "README.md"
SRC = Path(__file__).parent.parent / "src"


def fenced_block(lang: str, after: str) -> str:
    """The first ``lang`` code block that follows the first line starting with `after`."""
    text = README.read_text()
    start = next(m.end() for m in re.finditer(rf"^{re.escape(after)}.*$", text, re.M))
    match = re.compile(rf"^```{lang}\n(.*?)^```", re.M | re.S).search(text, start)
    return match.group(1)


def test_quick_tour_gives_its_stated_results():
    code = fenced_block("python", "## Library quick tour")
    lines = code.splitlines()
    namespace: dict = {}
    stated = 0
    for stmt in ast.parse(code).body:
        comment = re.search(r"#\s*'([^']*)'", lines[stmt.end_lineno - 1])
        if isinstance(stmt, ast.Expr) and comment:
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert value == comment.group(1), ast.unparse(stmt)
            stated += 1
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert stated == 4  # holds, fails, gaussian_haar, consistent


@pytest.mark.parametrize("command", ["check", "simulate"])
def test_command_line_configs_run(tmp_path, command):
    config = tmp_path / f"{command}.json"
    config.write_text(fenced_block("json", f"`{command}` config"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    env.pop("SOLADIC_SEED", None)
    run = subprocess.run(
        [sys.executable, "-m", "soladic", command, str(config)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("{")


def test_module_map_names_every_module():
    text = README.read_text()
    start = text.index("## Modules\n")
    section = text[start : text.index("\n## ", start + 1)]
    named = set(re.findall(r"`(\w+)`", section))
    modules = {path.stem for path in (SRC / "soladic").glob("*.py")}
    assert modules - named == set()
