"""The README's library example runs and prints what it documents."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example(capsys):
    text = README.read_text()
    section = text[text.index("## Library") :]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["2", "a:1 b:0 c:0", "a:1 b:1 c:1"]
    assert len(lines) == 4 and lines[3].startswith("[")
