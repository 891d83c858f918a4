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
    "combined-16x8-zero": {
        "lp-ii-gb": "5cbb81d3efbe5916eba2cc28946fbdfa1a3e8dc93768db6baac46b593a890911",
        "lp-ov-gb": "eb83edb1376e498b392fc3a5447e4c33438f3dfb38406c63544ff1163898b6ac",
        "lp-ov-ls": "828db1851179b5716820497f53b59c615b609b2ec084b5df3a313b85712d5b55",
        "lp-ov-ls-online": "828db1851179b5716820497f53b59c615b609b2ec084b5df3a313b85712d5b55",
        "varys": "3fb38a6d486f325b19d0bfc685661148d5f6a9413ec0103660a6f637ad744964",
    },
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
    "dense-5x8-capacity-0.37": {
        "lp-ii-gb": "955dc1ffe520635acd0810ce0e7c4678695b0e1babbe32f74ad9bcc12f2164d5",
        "lp-ov-gb": "1b4a71d0cb1365fddf8b7ad34e5994130b361c81ac0d33254cdd31b418855a3d",
        "lp-ov-ls": "8ba04a2248eb3633b9b75443665ce4c98c587e7959ba341004ba5b424d6ac063",
        "lp-ov-ls-online": "c5b3a63c2a322c4ae84102a46d4f0962126fb02fd70bdfbf852c329005fd9950",
        "varys": "71d765ef995e6a9fc283a21c9a1f793e144e6db1fe0644e5d5c8c2f8321c1dc9",
    },
    "dense-8x20-releases": {
        "lp-ii-gb": "32d0a5fcb84d93258678b88e33c2ed285af010af4eece39a5763499027dd4cfb",
        "lp-ov-gb": "d696e267b215de9d73413cd4cbf02cdd1abf4fe90828d1ad06c4fe3306a83e8d",
        "lp-ov-ls": "74a429d20501057e8f92a60f73764803c89f4afe7d302916458caf1048f7f3de",
        "lp-ov-ls-online": "5193af14a71c4d818f003b5ec3f6503c6ee4698f8f24107cb4dc624e3fac4e39",
        "varys": "6743f88a79b16a3b136a1d84af3ae6d770361479622e3960eba14d0fda73368f",
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
    "mini-trace-4": {
        "lp-ii-gb": "c2605bad568a665f9449cec6b4873334833e37224de9b3817e730ab1523a5106",
        "lp-ov-gb": "547c4e7f768f3e52435f163beb107f74f75cfd51245f666fa1655d473b653ddc",
        "lp-ov-ls": "5110c10001df97789284a0ba4ec09f01133d7b430bc55d555c787df1e16b536d",
        "lp-ov-ls-online": "5110c10001df97789284a0ba4ec09f01133d7b430bc55d555c787df1e16b536d",
        "varys": "3b08221bb791a6026f32546446996be81f88e6b4b4546cbd4e41a32994d7d7e0",
    },
}


# instance -> LP -> (sha256 of the solution array's bytes, ordering)
GOLDEN_LP = {
    "combined-16x8-zero": {
        "interval": (
            "714c91b04a0190511a47ab44b18e34a1898ea2c089171cd57520b690733dfdc7",
            [3, 5, 7, 4, 2, 0, 6, 1],
        ),
        "ordering": (
            "07ab218995c3752f1063d5c264fc9f9066e859865f3c9f3ddbd4961d78c7efe4",
            [3, 5, 4, 7, 2, 0, 6, 1],
        ),
    },
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
    "dense-5x8-capacity-0.37": {
        "interval": (
            "b6b9baebfdb8cdb5e56e8b012f913e3b9c4ea054a4f5d183dd14c4cae0901a9d",
            [2, 4, 5, 3, 6, 1, 0, 7],
        ),
        "ordering": (
            "62d5b2dca8f4c352cbc324aaa54c6c7f64334fc6066523280a2803d3ece31da1",
            [2, 5, 4, 3, 6, 1, 7, 0],
        ),
    },
    "dense-8x20-releases": {
        "interval": (
            "7c9fe2e96803e7fed5fa97a10576e4890dc3e182ce634355e75a3c07c52904cd",
            [2, 4, 5, 7, 0, 8, 13, 16, 17, 1, 19, 15, 10, 3, 9, 12, 14, 6, 11, 18],
        ),
        "ordering": (
            "5f9f57e06c1b5db01a11557a04cac73d6d855c3f5d84f9c245de5d25792b416f",
            [4, 2, 7, 5, 16, 0, 17, 8, 19, 13, 1, 9, 15, 3, 10, 12, 14, 6, 18, 11],
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
    "mini-trace-4": {
        "interval": (
            "8900639cdb883465c5c4b3a9888becddd5b18421414d7f7208012410c2f7061d",
            [0, 1, 2, 3],
        ),
        "ordering": (
            "04f8444b838626b16e81034f9c331b01fdb1fda8868121b6fcf3ff7ddb3e3345",
            [0, 1, 3, 2],
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
