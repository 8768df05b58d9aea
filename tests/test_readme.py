"""README's code runs as written and gives the values its comments state."""

import re
from pathlib import Path

import numpy as np

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_quick_start_and_the_sampled_check_sizes():
    scope = {}
    exec(re.search(r"## Library quick start\s+```python\n(.*?)```", README, re.S).group(1), scope)
    assert np.abs(scope["pre"].effects - [np.diag([1.0, 0.3]), np.diag([0.0, 0.7])]).max() <= 1e-15
    assert max(scope["qwp"].duality_residual(scope["prog"], scope["post"], scope["rho"]).values()) <= 1e-15
    report = scope["report"]
    assert report.holds and np.abs(np.array(list(report.margins.values())) - 0.25).max() <= 1e-12
    exec(re.search(r"`(from qwp\.wp import [^`]*)`", README).group(1), scope)
    assert (scope["CERTIFYING_STATES"], scope["RESIDUAL_SAMPLE_STATES"]) == (50, 100)
