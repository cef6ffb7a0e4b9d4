"""The README's library example runs as written and prints what it says."""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_readme_library_example_prints_its_stated_result(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    stated = re.search(r"^# prints: (.*)$", block, re.M).group(1)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out == stated + "\n"
