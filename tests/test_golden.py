"""Pinned schedules and LP solutions: every scheduler and both LP
relaxations must reproduce these exact outputs.

Each schedule digest is the sha256 of
``json.dumps(schedule.to_dict(), sort_keys=True)`` for a fixed-seed instance,
so any change to a segment boundary, a rate, a completion or the last bit of
a float shows up.  The LP digests are the sha256 of the raw float64 bytes of
the ordering LP's relaxed completions and of the interval LP's interval
weights, pinned together with the orderings they induce.  The ordering LP's
pivot counts of both LPs are pinned too, so a solver change that alters the
simplex path shows up even when the answer does not.  Re-pin a digest or a count only
for a change that is meant to alter it, and say why.
"""

import hashlib
import json
from functools import lru_cache

import pytest

from conftest import GOLDEN_INSTANCES, golden_instance, lp_certificates

from coflowsched import cli, lpcore, schedulers
from coflowsched.model import load_instance
from coflowsched.relaxations import solve_interval_lp, solve_ordering_lp

# varys's and lp-ov-gb's digests, but for mini-trace-4's, were re-pinned when
# both began adding each coflow's flows in id order instead of the iteration
# order of a set of FlowKeys; their totals moved by at most 9e-16 relative
GOLDEN = {
    "combined-16x8-zero": {
        "lp-ii-gb": "5cbb81d3efbe5916eba2cc28946fbdfa1a3e8dc93768db6baac46b593a890911",
        "lp-ov-gb": "e2caee05f8403867b83517ce0bb61326d35a3e26d1a14e52893f37a01e60f54f",
        "lp-ov-ls": "828db1851179b5716820497f53b59c615b609b2ec084b5df3a313b85712d5b55",
        "lp-ov-ls-online": "828db1851179b5716820497f53b59c615b609b2ec084b5df3a313b85712d5b55",
        "varys": "f2d250e2a72d4d25a778ba4b6e51b221723c3d53a374b006409d2ee0b32c3ea6",
    },
    "combined-releases": {
        "lp-ii-gb": "440cb1e0d097aed53b83500fa52925e96bc8e647c415b3cc6b53225013d3ab72",
        "lp-ov-gb": "a06972ac04f3f84f84ba2a2de7100e452b51e9b545f4e6d20756891621ef5299",
        "lp-ov-ls": "5809c614d6a5e939f05ff4b9872ec76a11cdfe4112954c7313084419ada592cf",
        "lp-ov-ls-online": "ff320033a8b9dafce3bf4bacf05cc064923e844e248d3694e3582436f463e0f7",
        "varys": "77684b6612968c8ca75a0a81d21ac47d296bd8a5a8e9819b66e8e77601859cce",
    },
    "combined-zero": {
        "lp-ii-gb": "68a230b4b9e65b6872d6904aba9f8fd79eee6fda58943f99be54140c9dfa465f",
        "lp-ov-gb": "272919a55b8c5bcd1654bd6f51c927081a0869060b85e6274c2836c9f9922849",
        "lp-ov-ls": "4fc806b9685ff1a6dd60a6b182de66cf0840796f2fbf7c18d93ac313cff5eb66",
        "lp-ov-ls-online": "4fc806b9685ff1a6dd60a6b182de66cf0840796f2fbf7c18d93ac313cff5eb66",
        "varys": "a2c68744537c203f6725d0ded1725d1aef0871f506d36c12ee4f92e006ae2782",
    },
    "dense-5x8-capacity-0.37": {
        "lp-ii-gb": "955dc1ffe520635acd0810ce0e7c4678695b0e1babbe32f74ad9bcc12f2164d5",
        "lp-ov-gb": "5be03365a2f23dd08307797539bbe5f3b3aff1a6f54f5fd2f912f99a7a4d84f5",
        "lp-ov-ls": "8ba04a2248eb3633b9b75443665ce4c98c587e7959ba341004ba5b424d6ac063",
        "lp-ov-ls-online": "c5b3a63c2a322c4ae84102a46d4f0962126fb02fd70bdfbf852c329005fd9950",
        "varys": "5409cb94dcb2b9de8b7e0b59bba3158a16c73cd6ac745d4b0cb05822cd63a33f",
    },
    "dense-8x20-releases": {
        "lp-ii-gb": "32d0a5fcb84d93258678b88e33c2ed285af010af4eece39a5763499027dd4cfb",
        "lp-ov-gb": "9f794c644e8b6dedb0a74bcf786e97d8add0b0c08b199e75f6d5e4b9a4a699bb",
        "lp-ov-ls": "74a429d20501057e8f92a60f73764803c89f4afe7d302916458caf1048f7f3de",
        "lp-ov-ls-online": "5193af14a71c4d818f003b5ec3f6503c6ee4698f8f24107cb4dc624e3fac4e39",
        "varys": "304edc018a2e25bf739149288f7fa16388a7fa443e0207e7d5aec50b8b29bd26",
    },
    "dense-releases": {
        "lp-ii-gb": "dcb7ef8b8848b2a3a37d58680beeab3d76fd5659957bc6cfd3ab2ae76941daa4",
        "lp-ov-gb": "b63265f59a794535a0606e3db5b6e5cc83ea3f4eebbb7073eaaf7372120b205f",
        "lp-ov-ls": "5d3fa046b76fe349f4afb82d596202d57f8fe4639b2264e4c51fb87a724411c5",
        "lp-ov-ls-online": "2b16264b9db176ced4ca9c9b80f1c673f723c4169644b70abb255e92246d86cc",
        "varys": "71dc128512013e77b31a4a5abb1a4b35701a200df974eda4b07692c1aff74f07",
    },
    "dense-zero": {
        "lp-ii-gb": "748aeb4cdf735817dca3032a464ef69e029601cd488dbc19bd48ed883079adb0",
        "lp-ov-gb": "953c0c973380f734cd4315e8156e2aadcd76750a3e665dd2be7f948ce70bae64",
        "lp-ov-ls": "9aac9df816c71f784faf9172e6afe23147dcedff91135b0b72b84b66516ad194",
        "lp-ov-ls-online": "9aac9df816c71f784faf9172e6afe23147dcedff91135b0b72b84b66516ad194",
        "varys": "15e24064129de57e69385fe932c3c55d7c75d67482f38a9789941db662f4a101",
    },
    "mini-trace-4": {
        "lp-ii-gb": "c2605bad568a665f9449cec6b4873334833e37224de9b3817e730ab1523a5106",
        "lp-ov-gb": "547c4e7f768f3e52435f163beb107f74f75cfd51245f666fa1655d473b653ddc",
        "lp-ov-ls": "5110c10001df97789284a0ba4ec09f01133d7b430bc55d555c787df1e16b536d",
        "lp-ov-ls-online": "5110c10001df97789284a0ba4ec09f01133d7b430bc55d555c787df1e16b536d",
        "varys": "3b08221bb791a6026f32546446996be81f88e6b4b4546cbd4e41a32994d7d7e0",
    },
}


# instance -> LP -> (sha256 of the solution array's bytes, ordering).  The
# interval digests of combined-16x8-zero, combined-releases, combined-zero,
# dense-8x20-releases and dense-releases were re-pinned when the interval LP
# came to hold only the intervals a coflow can finish in: the LP is scaled
# on its own entries, so the last bits of x moved; its orderings did not
GOLDEN_LP = {
    "combined-16x8-zero": {
        "interval": (
            "5b50def7fc131cb547b5079b72525f1ba44082e3531b3f4584c7eb82748a44e5",
            [3, 5, 7, 4, 2, 0, 6, 1],
        ),
        "ordering": (
            "07ab218995c3752f1063d5c264fc9f9066e859865f3c9f3ddbd4961d78c7efe4",
            [3, 5, 4, 7, 2, 0, 6, 1],
        ),
    },
    "combined-releases": {
        "interval": (
            "fa099ab83bb1444cc36d4378b348130f0c2531ec4a3dbb82ad716b9b98f8f014",
            [2, 7, 0, 6, 8, 10, 3, 4, 11, 1, 5, 9],
        ),
        "ordering": (
            "a7f2fe1dfddd41a591e1d239828da81d0ee09d0b551b04408d9d215f75927c07",
            [7, 2, 6, 0, 10, 8, 4, 3, 11, 9, 5, 1],
        ),
    },
    "combined-zero": {
        "interval": (
            "0a05bfa12886d54311d5e784a5ddce615803cf41cb038cb4fe20af1946b8b9ab",
            [4, 5, 7, 6, 9, 1, 11, 8, 0, 2, 3, 10],
        ),
        "ordering": (
            "eb41a4a8a166320fa9301c092ce9e847149cfb15828268854007a70426999a2f",
            [4, 7, 5, 9, 8, 11, 6, 1, 0, 2, 3, 10],
        ),
    },
    # re-pinned when both load matrices came to add each port's flows in
    # flow-id order: these are the digests the dict-order builder gave after
    # a JSON round trip, which lists each coflow's flows by (source, dest)
    "dense-5x8-capacity-0.37": {
        "interval": (
            "deb99fdd6194e76d89e9d953d946f2daec8c658aee944024ddde73429c400d44",
            [2, 4, 5, 3, 6, 1, 0, 7],
        ),
        "ordering": (
            "27dd1fc621fc54ad8fa0a99b7b6969730b49b7ae364c9824857322644525830b",
            [2, 5, 4, 3, 6, 1, 7, 0],
        ),
    },
    "dense-8x20-releases": {
        "interval": (
            "15955656e032c62771de0bd5cf9ae6a3e28107075746b00c400d054ccab1a2f8",
            [2, 4, 5, 7, 0, 8, 13, 16, 17, 1, 19, 15, 10, 3, 9, 12, 14, 6, 11, 18],
        ),
        "ordering": (
            "3b92b4b674ec215b38f02af06d915a899aaebd57c304f382e592b779b3f0786f",
            [4, 2, 7, 5, 16, 0, 17, 8, 19, 13, 1, 9, 15, 3, 10, 12, 14, 6, 18, 11],
        ),
    },
    "dense-releases": {
        "interval": (
            "45fe0bcfd321d8b9715ea41157241849ae9e975e39c0aeb9752cb4272e9954ad",
            [0, 7, 3, 6, 1, 4, 2, 9, 8, 5],
        ),
        "ordering": (
            "87a039d8d76f7b5c02c06ba2e58a2c23f578e0cdb353ec8b140f0d899ff11258",
            [7, 3, 0, 6, 1, 4, 2, 9, 8, 5],
        ),
    },
    "dense-zero": {
        "interval": (
            "43bf0d6ef3d78e0a1216bf60759b2c5ef6ae09272a7810f57b1e99cef0a4608d",
            [6, 2, 1, 7, 3, 4, 5, 8, 0, 9],
        ),
        "ordering": (
            "197cf00d629dce7b386a1331f5471bb4f32cc7966450b38153579f57e45ad44c",
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


# instance -> simplex pivots of its ordering LP from the BSSI crash start
# (``SolveStats.pivots``, a count that does not depend on the machine)
GOLDEN_LP_PIVOTS = {
    "combined-16x8-zero": 6,
    "combined-releases": 27,
    "combined-zero": 17,
    "dense-5x8-capacity-0.37": 10,
    "dense-8x20-releases": 92,
    "dense-releases": 9,
    "dense-zero": 19,
    "mini-trace-4": 0,
}

# SolveStats and f~ digest of the ordering LP of `coflowsched gen --ports 8
# --coflows 40 --seed 1`: several hundred basis changes, where the largest
# golden LP above takes 92, so a path change that shows only after many
# pivots shows here
GOLDEN_8X40_LP = (
    lpcore.SolveStats(pivots=488, bound_flips=3, reinversions=6, crash_accepted=True),
    "4989ab223c05c69f656820d6a1ebceb8b2335dc69e21559db8fe79c3c570637b",
)

# instance -> lp-ov-ls-online's residual LPs: how many, their primal pivots,
# dual pivots and bound flips summed, and how many began each way
# (``SolveStats.start_use``), so a change to how a residual LP is set up
# that moves the warm path shows here even when every answer stays optimal
GOLDEN_ONLINE_LPS = {
    "combined-16x8-zero": (1, 6, 0, 0, {"primal": 1}),
    "combined-releases": (12, 7, 37, 3, {"dual-artificial": 2, "dual-flips": 5, "primal": 5}),
    "combined-zero": (1, 17, 0, 0, {"primal": 1}),
    "dense-5x8-capacity-0.37": (8, 4, 29, 3, {"dual-artificial": 2, "dual-flips": 3, "primal": 3}),
    "dense-8x20-releases": (20, 6, 96, 33, {"dual-artificial": 6, "dual-flips": 8, "primal": 6}),
    "dense-releases": (10, 1, 11, 0, {"dual-flips": 4, "primal": 6}),
    "dense-zero": (1, 19, 0, 0, {"primal": 1}),
    "mini-trace-4": (4, 0, 2, 0, {"dual-flips": 1, "primal": 3}),
}

# instance -> simplex pivots of its interval LP from the last-interval crash
# start.  dense-8x20-releases (58 before) and dense-releases (20 before) were
# re-pinned when the LP came to hold only the intervals a coflow can finish
# in: scaled on its own entries, it takes another path to the same optimum
GOLDEN_INTERVAL_PIVOTS = {
    "combined-16x8-zero": 23,
    "combined-releases": 24,
    "combined-zero": 30,
    "dense-5x8-capacity-0.37": 14,
    "dense-8x20-releases": 63,
    "dense-releases": 21,
    "dense-zero": 26,
    "mini-trace-4": 3,
}


@lru_cache(maxsize=None)
def _case(name):
    instance = golden_instance(name)
    return instance, solve_ordering_lp(instance)


@lru_cache(maxsize=None)
def _interval(name):
    return solve_interval_lp(golden_instance(name))


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
    interval = _interval(instance_name)
    got = {
        "ordering": (hashlib.sha256(lp.f_tilde.tobytes()).hexdigest(), list(lp.ordering)),
        "interval": (hashlib.sha256(interval.x.tobytes()).hexdigest(), list(interval.ordering)),
    }
    assert got == GOLDEN_LP[instance_name]


@pytest.mark.parametrize("instance_name", sorted(GOLDEN_INSTANCES))
def test_ordering_lp_pivots_match_pinned_counts(instance_name):
    _, lp = _case(instance_name)
    assert lp.solution.stats.pivots == GOLDEN_LP_PIVOTS[instance_name]


def test_8x40_ordering_lp_matches_pinned_path(tmp_path):
    path = tmp_path / "i.json"
    assert cli.main(["gen", "--ports", "8", "--coflows", "40", "--seed", "1", "--out", str(path)]) == 0
    lp = solve_ordering_lp(load_instance(path))
    assert (lp.solution.stats, hashlib.sha256(lp.f_tilde.tobytes()).hexdigest()) == GOLDEN_8X40_LP


@pytest.mark.parametrize("instance_name", sorted(GOLDEN_INSTANCES))
def test_online_residual_lps_match_pinned_counters(instance_name, monkeypatch):
    solve, stats = schedulers.solve_ordering_lp, []

    def recording(inputs, warm=None):
        result = solve(inputs, warm)
        stats.append(result.solution.stats)
        return result

    monkeypatch.setattr(schedulers, "solve_ordering_lp", recording)
    schedulers.lp_ov_ls_online(golden_instance(instance_name))
    starts = {}
    for one in stats:
        starts[one.start_use] = starts.get(one.start_use, 0) + 1
    got = (len(stats), sum(one.pivots for one in stats), sum(one.dual_pivots for one in stats),
           sum(one.bound_flips for one in stats), starts)
    assert got == GOLDEN_ONLINE_LPS[instance_name]


@pytest.mark.parametrize("instance_name", sorted(GOLDEN_INSTANCES))
def test_interval_lp_pivots_match_pinned_counts(instance_name):
    assert _interval(instance_name).solution.stats.pivots == GOLDEN_INTERVAL_PIVOTS[instance_name]


@pytest.mark.parametrize("instance_name", sorted(GOLDEN_INSTANCES))
def test_lp_duals_certify_both_optima(instance_name, monkeypatch):
    instance, lp = _case(instance_name)
    for certificate in lp_certificates(instance, lp):
        assert certificate.ok, certificate.violations
        assert abs(certificate.gap) <= 1e-9
    # and the residual LPs that lp-ov-ls-online solves at each arrival
    solve = lpcore.solve
    solved = []

    def recording(problem, start=None):
        solution = solve(problem, start)
        solved.append((problem, solution))
        return solution

    monkeypatch.setattr(lpcore, "solve", recording)
    schedulers.lp_ov_ls_online(instance)
    assert solved
    for problem, solution in solved:
        certificate = solution.certificate
        assert certificate.ok, certificate.violations
        assert abs(certificate.gap) <= 1e-9
        assert certificate.dual_bound == lpcore.certify(problem, solution.values, solution.duals).dual_bound
