"""The README's library example runs as written and prints what it says,
its example config ends each seed as its measured outcomes say, and its
config table lists the keys and defaults of ``cli.SCHEMA``."""

import re

import pytest

from safemdp.cli import REQUIRED, SCHEMA, main

from oracles import README, readme_example, write_config


def test_readme_library_example_prints_its_stated_result(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    stated = re.search(r"^# prints: (.*)$", block, re.M).group(1)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out == stated + "\n"


def _measured_outcomes() -> dict:
    """The README's "Measured outcomes of this example" paragraph: for each
    observation model, seed to ``(terminal_reason, key, value)``, where
    ``key`` is ``violation_step`` or ``iterations``."""
    text = README.read_text()
    start = text.index("Measured outcomes of this example")
    paragraph = " ".join(text[start:text.index("\n\n", start)].split())
    difference, heights = paragraph.split("With `observation_model = heights`")
    claim = re.compile(r"seed (\d+) ends (?:in )?`(\w+)` "
                       r"(?:at agent step (\d+)|after (\d+) iterations)")
    outcomes = {}
    for model, part in (("difference", difference), ("heights", heights)):
        outcomes[model] = {
            int(seed): (reason, "violation_step", int(step)) if step
            else (reason, "iterations", int(iterations))
            for seed, reason, step, iterations in claim.findall(part)}
    return outcomes


OUTCOMES = _measured_outcomes()


def test_readme_states_an_outcome_for_every_example_seed():
    seeds = [int(s) for s in re.search(r"^seeds = (.*)$", readme_example(), re.M)
             .group(1).split()]
    assert sorted(OUTCOMES["difference"]) == seeds
    assert OUTCOMES["heights"]


@pytest.mark.parametrize("model", sorted(OUTCOMES))
def test_readme_example_ends_as_its_measured_outcomes_say(tmp_path, model):
    claims = OUTCOMES[model]
    out = tmp_path / "out"
    config = write_config(readme_example(), tmp_path / "readme.ini", out,
                          observation_model=model, seeds=" ".join(map(str, claims)))
    assert main(["explore", str(config)]) == 0
    for seed, (reason, key, value) in claims.items():
        lines = (out / f"seed_{seed}" / "metrics.txt").read_text().splitlines()
        metrics = dict(line.split(": ", 1) for line in lines)
        assert (metrics["terminal_reason"], metrics[key]) == (reason, str(value)), seed


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
