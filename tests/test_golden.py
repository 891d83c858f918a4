"""Pinned schedules and LP solutions: every scheduler and both LP
relaxations must reproduce these exact outputs.

Each schedule digest is the sha256 of
``json.dumps(schedule.to_dict(), sort_keys=True)`` for a fixed-seed instance,
so any change to a segment boundary, a rate, a completion or the last bit of
a float shows up.  The LP digests are the sha256 of the raw float64 bytes of
the ordering LP's relaxed completions and of the interval LP's interval
weights, pinned together with the orderings they induce.  Re-pin a digest
only for a change that is meant to alter an output, and say why.
"""

import hashlib
import json
from functools import lru_cache

import pytest

from conftest import GOLDEN_INSTANCES, golden_instance, lp_certificates

from coflowsched import schedulers
from coflowsched.relaxations import solve_interval_lp, solve_ordering_lp

GOLDEN = {
    "combined-releases": {
        "lp-ii-gb": "440cb1e0d097aed53b83500fa52925e96bc8e647c415b3cc6b53225013d3ab72",
        "lp-ov-gb": "8ba059900ad11b755270c69f7e63f8b16215e40a465cf0ad72e007b0497ea0fa",
        "lp-ov-ls": "5809c614d6a5e939f05ff4b9872ec76a11cdfe4112954c7313084419ada592cf",
        "lp-ov-ls-online": "ff320033a8b9dafce3bf4bacf05cc064923e844e248d3694e3582436f463e0f7",
        "varys": "1a13ee7d5f99eeb84fbbef857655e8fcf033b0e06cfa96c942be2e409ab3c35c",
    },
    "combined-zero": {
        "lp-ii-gb": "68a230b4b9e65b6872d6904aba9f8fd79eee6fda58943f99be54140c9dfa465f",
        "lp-ov-gb": "53f4931dc3f670db42cd831803dc5a72c33d8e8e4a6f0907463e58c066e37523",
        "lp-ov-ls": "4fc806b9685ff1a6dd60a6b182de66cf0840796f2fbf7c18d93ac313cff5eb66",
        "lp-ov-ls-online": "4fc806b9685ff1a6dd60a6b182de66cf0840796f2fbf7c18d93ac313cff5eb66",
        "varys": "a6631d536a0cdc66ec44ad9f40aae72d2dcb0046c77ef10665f6f71a1a58a6f9",
    },
    "dense-releases": {
        "lp-ii-gb": "dcb7ef8b8848b2a3a37d58680beeab3d76fd5659957bc6cfd3ab2ae76941daa4",
        "lp-ov-gb": "762336810b6b537a228548f3dd4a4b5f8d50f0e90c0fe375a6385a7e428ef2ed",
        "lp-ov-ls": "5d3fa046b76fe349f4afb82d596202d57f8fe4639b2264e4c51fb87a724411c5",
        "lp-ov-ls-online": "2b16264b9db176ced4ca9c9b80f1c673f723c4169644b70abb255e92246d86cc",
        "varys": "f6b7f75e835801065fe360cbaa961b1edc51d097011673fb2819b9a6233a5c15",
    },
    "dense-zero": {
        "lp-ii-gb": "748aeb4cdf735817dca3032a464ef69e029601cd488dbc19bd48ed883079adb0",
        "lp-ov-gb": "8f677ee984d0603ed23b3fd7d315ed5bc771703f8c0d2e3c9db4a1403523304a",
        "lp-ov-ls": "9aac9df816c71f784faf9172e6afe23147dcedff91135b0b72b84b66516ad194",
        "lp-ov-ls-online": "9aac9df816c71f784faf9172e6afe23147dcedff91135b0b72b84b66516ad194",
        "varys": "6cf69283606b31660177cbe8d193944be3ea0d10be356b24702edda8da37d39b",
    },
}


# instance -> LP -> (sha256 of the solution array's bytes, ordering)
GOLDEN_LP = {
    "combined-releases": {
        "interval": (
            "be1128dae85ca119abe23f54d11732bdc835e8a0facd6ee9464bd2c0ad3af1b3",
            [2, 7, 0, 6, 8, 10, 3, 4, 11, 1, 5, 9],
        ),
        "ordering": (
            "53fa42d5b8aa79d3e6a423adf80021811c87be3ab903a6de4a25fbd610a4cd71",
            [7, 2, 6, 0, 10, 8, 4, 3, 11, 9, 5, 1],
        ),
    },
    "combined-zero": {
        "interval": (
            "177bcf0c4967633ae5cfa60b3ff946b0dd000f60879a097bea5679c25d571499",
            [4, 5, 7, 6, 9, 1, 11, 8, 0, 2, 3, 10],
        ),
        "ordering": (
            "b7296b2466de9a0b0c97ea326c45ac107a46c6888338dca0653f8e0cf62f1eaa",
            [4, 7, 5, 9, 8, 11, 6, 1, 0, 2, 3, 10],
        ),
    },
    "dense-releases": {
        "interval": (
            "013a7ca49cbdf29505ebbcb3565a15cb7b35a6c0a68986cd1c440ce5fd2be4b8",
            [0, 7, 3, 6, 1, 4, 2, 9, 8, 5],
        ),
        "ordering": (
            "cef00eb75468dfea18c5272acb6bb65cf6ea606421eca676561884ad523d0a59",
            [7, 3, 0, 6, 1, 4, 2, 9, 8, 5],
        ),
    },
    "dense-zero": {
        "interval": (
            "43bf0d6ef3d78e0a1216bf60759b2c5ef6ae09272a7810f57b1e99cef0a4608d",
            [6, 2, 1, 7, 3, 4, 5, 8, 0, 9],
        ),
        "ordering": (
            "1004cc192bb01dd7eaf647f18a6f1cf8368d9735c918473a5c01492b4f99a65e",
            [6, 2, 1, 7, 3, 4, 5, 8, 9, 0],
        ),
    },
}


@lru_cache(maxsize=None)
def _case(name):
    instance = golden_instance(name)
    return instance, solve_ordering_lp(instance)


def schedule_digest(schedule) -> str:
    text = json.dumps(schedule.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("scheduler", sorted(schedulers.SCHEDULERS))
@pytest.mark.parametrize("instance_name", sorted(GOLDEN_INSTANCES))
def test_schedule_matches_pinned_digest(instance_name, scheduler):
    instance, lp = _case(instance_name)
    schedule = schedulers.SCHEDULERS[scheduler](instance, lp)
    assert schedule_digest(schedule) == GOLDEN[instance_name][scheduler]


@pytest.mark.parametrize("instance_name", sorted(GOLDEN_INSTANCES))
def test_lp_solutions_match_pinned_digests(instance_name):
    instance, lp = _case(instance_name)
    interval = solve_interval_lp(instance)
    got = {
        "ordering": (hashlib.sha256(lp.f_tilde.tobytes()).hexdigest(), list(lp.ordering)),
        "interval": (hashlib.sha256(interval.x.tobytes()).hexdigest(), list(interval.ordering)),
    }
    assert got == GOLDEN_LP[instance_name]


@pytest.mark.parametrize("instance_name", sorted(GOLDEN_INSTANCES))
def test_lp_duals_certify_both_optima(instance_name):
    instance, lp = _case(instance_name)
    for certificate in lp_certificates(instance, lp):
        assert certificate.ok, certificate.violations
        assert abs(certificate.gap) <= 1e-9
