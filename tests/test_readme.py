"""The README's library examples run as written and give what their
comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 4
    ns = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), ns)
    A, G, J, T, E = (ns[k] for k in ("A", "G", "J", "T", "E"))
    a, b = ns["a"], ns["b"]
    assert len(A.basis((1, 1, 1, 0))) == 4
    assert G.deriv(G.gen("x1")).is_zero()
    assert T.deriv(a) == J.deriv(a).scale(2)
    assert ns["Twisted"](T, ns["Fraction"](1, 2)).bracket(a, b) == J.bracket(a, b)
    assert E.validate().ok
