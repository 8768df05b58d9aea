import importlib
import re

from qwp.campaigns import (
    compose_campaign,
    duality_campaign,
    orders_campaign,
    run_suite,
    weakest_campaign,
)
from qwp.errors import ValidationError
from qwp.linalg import ToleranceConfig

import pytest

qwp_campaigns = importlib.import_module("qwp.campaigns")
qwp_programs = importlib.import_module("qwp.programs")

SMALL = ToleranceConfig(sample_count=50)


def test_duality_campaign_clean():
    r = duality_campaign([2, 3], 40, seed=1, tol=SMALL)
    assert r.suite == "duality"
    assert r.trials == 80
    assert r.failures == 0
    assert r.max_residual <= 1e-10
    assert r.passed


def test_weakest_campaign_clean():
    r = weakest_campaign([2], 60, seed=2, tol=SMALL)
    assert r.trials == 60
    assert r.failures == 0
    assert r.passed


def test_compose_campaign_clean():
    r = compose_campaign([3], 30, seed=3, tol=SMALL)
    assert r.trials == 30
    assert r.failures == 0
    assert r.max_residual <= 1e-10


def test_orders_campaign_clean():
    r = orders_campaign([2, 3], 30, seed=4, tol=SMALL)
    assert r.trials == 60
    assert r.failures == 0


@pytest.mark.parametrize("seed", [5, 7])
def test_orders_certifies_with_the_verdicts_slack(seed):
    # pairs accepted at lambda_min(g - f) in [-eig_tol, 0) are not failures
    r = orders_campaign((1,), 60, seed, ToleranceConfig(eig_tol=1e-3))
    assert r.max_residual > 0
    assert r.failures == 0


def test_campaigns_replay_exactly():
    a = duality_campaign([2], 25, seed=9, tol=SMALL)
    b = duality_campaign([2], 25, seed=9, tol=SMALL)
    assert a == b


def test_run_suite_all():
    results = run_suite("all", [2], 10, seed=5, tol=ToleranceConfig(sample_count=10))
    assert [r.suite for r in results] == ["duality", "weakest", "compose", "orders"]
    assert all(r.passed for r in results)


@pytest.mark.parametrize("suite", ["duality", "weakest", "compose", "orders"])
def test_every_suite_passes_where_the_blocked_kernels_run(suite):
    # from d = 17 up, _act works in row blocks and the builds block by block;
    # the command line caps --dims at 6, so only the library reaches them
    [r] = run_suite(suite, (17, 24), 4, 7)
    assert (r.suite, r.trials, r.failures) == (suite, 8, 0)


def test_run_suite_unknown():
    with pytest.raises(ValueError):
        run_suite("spectral", [2], 10, seed=0)


@pytest.mark.parametrize("campaign", [duality_campaign, compose_campaign])
def test_a_non_unitary_draw_is_refused_as_sample_program_refuses_it(campaign, monkeypatch):
    # scale the square draws, the unitary kind's, off the unitary group: |U†U - I| = 2e-6
    # passes the campaign's residual_tol but not from_unitary's default
    haar = qwp_programs._haar_isometries
    monkeypatch.setattr(
        qwp_programs, "_haar_isometries",
        lambda z: haar(z) * (1 + 1e-6) if z.shape[-2] == z.shape[-1] else haar(z),
    )
    with pytest.raises(ValidationError, match=re.escape("matrix is not unitary (|U†U - I| = 2.000e-06)")):
        campaign((2, 3), 8, 7, ToleranceConfig(residual_tol=1e-3))


def test_weakest_pairs_cycle_through_the_program_kinds(monkeypatch):
    # 760 candidates are four pairs of at most 250, one of each kind
    kinds, sample = [], qwp_campaigns.sample_program
    monkeypatch.setattr(qwp_campaigns, "sample_program", lambda kind, *args: kinds.append(kind) or sample(kind, *args))
    assert weakest_campaign([2], 760, seed=7).failures == 0
    assert kinds == ["cptp", "unitary", "transpose", "transpose_mix"]
