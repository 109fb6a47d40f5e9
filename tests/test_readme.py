"""README's ``python`` block, run as a doctest."""

import doctest
import re
from pathlib import Path

_README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_runs_as_printed():
    (block,) = re.findall(r"```python\n(.*?)```", _README.read_text(), re.S)
    test = doctest.DocTestParser().get_doctest(block, {}, "README", str(_README), 0)
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    runner.run(test)
    assert runner.summarize(verbose=False) == (0, 6)
