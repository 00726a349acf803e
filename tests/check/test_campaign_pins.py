"""Pinned campaign digests: the cross-commit identity proof.

A campaign digest is a rolling hash over every episode's outcome
summary, so it moves whenever any scheduling decision, commit, abort or
final value moves.  These values are the ones committed in
BENCH_gtm.json ``parallel_scaling``; a refactor that claims to keep
behaviour must keep them byte-for-byte.
"""

import pytest

from repro.check.fuzzer import FuzzConfig
from repro.check.runner import run_campaign

PINNED_DIGESTS = {
    "gtm": "a95d1763c9d583d2344025b5aa154fb2d1083e6cda1022da4005940558229501",
    "2pl": "e4798b8f003ba2dc0a079ebc7a75c390980310d1ce9c4723e33946a303d489e9",
    "optimistic":
        "7f8283c7cd255dbb2e70f57f7a5aff13bc30fcb198b67684fd949d532809191f",
}


@pytest.mark.parametrize("scheduler", sorted(PINNED_DIGESTS))
def test_campaign_digest_is_pinned(scheduler):
    report = run_campaign(FuzzConfig(scheduler=scheduler), seed=2008,
                          episodes=40)
    assert report.ok
    assert report.digest == PINNED_DIGESTS[scheduler]
