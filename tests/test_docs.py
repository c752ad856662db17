"""README.md states the library's caps, the CLI's flags, the loss-config
parameters and the rates-spec keys as the code sets them, and its library
quick start runs as written."""

import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from qslearn import cli, data, kernels, losses
from qslearn.losses import MeanAveragePrecision, base
from qslearn.synth import MultilabelGenerator, SyntheticSpec

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

CAPS = {
    "TABLE_CELLS": base.TABLE_CELLS,
    "BLOCK_CELLS": base.BLOCK_CELLS,
    "MeanAveragePrecision.exact_limit": MeanAveragePrecision.exact_limit,
    "kernels.GEMM_MIN_ROWS": kernels.GEMM_MIN_ROWS,
    "kernels.CDIST_MAX_FEATURES": kernels.CDIST_MAX_FEATURES,
    "data.DENSE_MAX_CELLS": data.DENSE_MAX_CELLS,
}


def _stated(name: str) -> list[str]:
    """Each value the README gives the backticked name: `NAME` = v, `NAME` (v
    or `NAME` cap (v, across line breaks."""
    return re.findall(rf"`{re.escape(name)}`\s+(?:=\s*|(?:cap\s+)?\((?=\d))([^\s,;)]+)", README)


def _number(text: str) -> int:
    """2^24, 2·10^6 or 16 (a sentence's full stop dropped) as an int."""
    found = re.fullmatch(r"(\d+)(?:·(\d+))?(?:\^(\d+))?", text.rstrip("."))
    assert found, f"unreadable cap value {text!r}"
    head, factor, power = found.groups()
    if factor is not None:
        return int(head) * int(factor) ** int(power or 1)
    return int(head) ** int(power or 1)


def test_number_forms():
    assert [_number(t) for t in ("2^24", "2·10^6", "16.", "16")] == [2**24, 2 * 10**6, 16, 16]


@pytest.mark.parametrize("name", sorted(CAPS))
def test_readme_states_each_cap_as_the_code_sets_it(name):
    stated = _stated(name)
    assert stated, f"README states no value of {name}"
    assert [_number(t) for t in stated] == [CAPS[name]] * len(stated)


def test_library_quick_start_runs_as_written():
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", README, re.S)
    assert block, "README has no library quick start code block"
    generator, rng = MultilabelGenerator(SyntheticSpec(d=3, m=6)), np.random.default_rng(0)
    names = dict(zip(("X_train", "Y_train", "X_test", "Y_test"),
                     (*generator.sample(200, rng), *generator.sample(50, rng))))
    exec(block.group(1), names)
    assert len(names["preds"]) == 50 and names["preds_alpha"] == names["preds"]
    assert 0.0 <= names["risk"] <= 1.0


def _backticked(text: str, pattern: str) -> set[str]:
    return set(re.findall(rf"`({pattern})`", text))


def _flag_group(kind: str) -> set[str]:
    """The flags of README's "<kind> flags are ..." sentence, up to its first
    full stop or semicolon."""
    found = re.search(rf"{kind} flags are ([^.;]*)", README)
    assert found, f"README names no {kind.lower()} flags"
    return _backticked(found.group(1), r"--[\w-]+")


def test_readme_command_table_lists_each_commands_flags():
    table = re.search(r"^\| command \| flags \|\n\|---\|---\|\n((?:\|.*\n)+)", README, re.M)
    assert table, "README has no command table"
    rows = dict(re.findall(r"^\| `(\w+)` \| (.*) \|$", table.group(1), re.M))
    assert set(rows) == set(cli._COMMANDS)
    for command, (_, _, flags) in cli._COMMANDS.items():
        stated = set()
        for item in rows[command].split(", "):
            kind = re.fullmatch(r"(\w+) flags", item)
            stated |= _flag_group(kind.group(1).capitalize()) if kind else {item.strip("`")}
        assert stated == {name for flag in flags for name in cli._FLAGS[flag][0]}, command


def test_readme_lists_the_loss_config_parameters():
    found = re.search(r"parameters the loss takes \(([^)]*)\)", README)
    assert found, "README lists no loss-config parameters"
    taken = {name for loss in losses._LOSSES.values()
             for name in inspect.signature(loss).parameters if name != "m"}
    assert _backticked(found.group(1), r"\w+") == taken


def test_readme_lists_the_rates_spec_keys():
    found = re.search(r"fields of\s+`synth.SyntheticSpec` \(([^)]*)\) or `(\w+)`", README)
    assert found, "README lists no rates-spec keys"
    assert _backticked(found.group(1), r"\w+") | {found.group(2)} == cli._SPEC_KEYS
