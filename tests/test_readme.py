"""README's ``python`` block, run as a doctest, and the package names and
caps that README's text cites."""

import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import stirperm

_README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_runs_as_printed():
    (block,) = re.findall(r"```python\n(.*?)```", _README.read_text(), re.S)
    test = doctest.DocTestParser().get_doctest(block, {}, "README", str(_README), 0)
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    runner.run(test)
    assert runner.summarize(verbose=False) == (0, 6)


#: How README's cap sentence names each public cap of ``stirperm.cli``; a
#: value of five digits or more is printed with thousands separators
_CAP_PHRASES = {
    "TRIANGLE_ORDER_CAP": "`triangle --n-max` {}",
    "POLY_ORDER_CAP": "`poly` {}",
    "ROOTS_ORDER_CAP": "`roots` {}",
    "MODE_ORDER_CAP": "`mode` {}",
    "EXACT_DISTANCE_ORDER_CAP": "`normality` {} with the exact distance",
    "SAMPLING_ORDER_CAP": "{} with `--samples`",
    "SAMPLING_WORK_CAP": "`--samples` times the order at most {}",
    "SAMPLE_ORDER_CAP": "`sample` {}",
}


def test_readme_names_every_cap_value():
    from stirperm import cli

    caps = {name for name in vars(cli) if name.endswith("_CAP") and name[0] != "_"}
    assert caps == set(_CAP_PHRASES)
    text = " ".join(_README.read_text().split())
    start = text.index("A refusal happens before any work")
    sentence = text[start : text.index("below which it is refused", start)]
    for name, phrase in _CAP_PHRASES.items():
        cap = getattr(cli, name)
        assert phrase.format(f"{cap:,}" if cap >= 10_000 else cap) in sentence, name
    floor = cli.ROOTS_WIDTH_FLOOR
    assert floor.numerator == 1 and floor.denominator.bit_count() == 1
    assert f"floor of 2^-{floor.denominator.bit_length() - 1}" in sentence


def test_readme_dotted_names_exist():
    # a call form such as `triangle_row(1200)` is not a bare dotted name: skipped
    submodules = {info.name for info in pkgutil.iter_modules(stirperm.__path__)}
    checked = []
    for token in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", _README.read_text()):
        head, *attributes = token.split(".")
        if head == "stirperm":
            obj = stirperm
        elif head in submodules:
            obj = importlib.import_module(f"stirperm.{head}")
        elif head in stirperm.__all__:
            obj = getattr(stirperm, head)
        else:
            continue
        for attribute in attributes:
            assert hasattr(obj, attribute), token
            obj = getattr(obj, attribute)
        checked.append(token)
    assert "stirperm.rng" in checked and "triangle.row_enclosures" in checked
