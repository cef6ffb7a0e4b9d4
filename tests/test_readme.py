"""The README's library example runs as written and prints what it says,
and its config table lists the keys and defaults of ``cli.SCHEMA``."""

import re
from pathlib import Path

from safemdp.cli import REQUIRED, SCHEMA

README = Path(__file__).parents[1] / "README.md"


def test_readme_library_example_prints_its_stated_result(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    stated = re.search(r"^# prints: (.*)$", block, re.M).group(1)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out == stated + "\n"


def _config_table() -> dict:
    """The README's config table: ``(section, key)`` to the default as
    written, a backticked value or text starting with "required".  A row of
    several keys gives them one default each, or one for all."""
    text = README.read_text()
    lines = text[text.index("| Section | Key | Default | Meaning |"):].splitlines()[2:]
    table, section = {}, None
    for line in lines:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.split("|")[1:4]]
        section = cells[0].strip("`[]") or section
        keys = re.findall(r"`([a-z_]+)`", cells[1])
        defaults = re.findall(r"`([^`]*)`", cells[2])
        if cells[2].startswith("required"):
            defaults = [cells[2]] * len(keys)
        elif len(defaults) == 1:
            defaults *= len(keys)
        assert keys and len(defaults) == len(keys), line
        for key, default in zip(keys, defaults):
            assert (section, key) not in table, f"{section}.{key} is listed twice"
            table[section, key] = default
    return table


def test_readme_config_table_matches_the_schema():
    table = _config_table()
    schema = {(field.section, field.key): field for field in SCHEMA}
    assert sorted(table) == sorted(schema)
    for (section, key), field in schema.items():
        written = table[section, key]
        if field.default is REQUIRED:
            assert written.startswith("required"), f"{section}.{key}: {written!r}"
        else:
            assert field.parse(f"{section}.{key}", written) == field.default, \
                f"{section}.{key}: {written!r}"
