"""README's library sketch runs and prints what its comments say."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_sketch_prints_what_its_comments_say(capsys):
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(code, str(README), "exec"), {})
    first, *leaves = capsys.readouterr().out.splitlines()
    power_a, power_b = ast.literal_eval(first)
    assert abs(power_a) <= 1e-12 and abs(power_b - 1.0) <= 1e-12
    powers = dict(line.rsplit(" ", 1) for line in leaves)
    assert sorted(powers) == sorted(f"{r} mod 8" for r in range(8))
    for label, power in powers.items():
        assert abs(float(power) - (label == "3 mod 8")) <= 1e-12
