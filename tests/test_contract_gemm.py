import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "bench" / "contract_gemm.py"
_SPEC = importlib.util.spec_from_file_location("contract_gemm", _PATH)
contract_gemm = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(contract_gemm)

DECLARED = [
    {"name": "checks_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "cpu_ms_per_check", "unit": "ms", "better": "lower",
     "bound": 0.25},
]
PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]


def _compare(change_rate, change_cpu):
    pairs = [{"parent": {"metrics": {"checks_per_s": p,
                                     "cpu_ms_per_check": p / 100}},
              "change": {"metrics": {"checks_per_s": r,
                                     "cpu_ms_per_check": c}}}
             for p, r, c in zip(PARENT, change_rate, change_cpu)]
    return contract_gemm.compare(pairs, DECLARED)


def test_compare_resolves_a_gain_won_in_nine_pairs_beyond_the_parent_iqr():
    """Parent median 100, IQR 99.25-101; the change is 10% faster in 9 of
    10 pairs, and its CPU per check is 10% lower in all 10."""
    rate = [p * 1.1 for p in PARENT]
    rate[0] = 99.0
    res = _compare(rate, [p / 110 for p in PARENT])
    assert res["checks_per_s"]["change_wins"] == 9
    assert res["checks_per_s"]["parent_iqr"] == 1.75
    assert res["checks_per_s"]["resolved"]
    assert res["cpu_ms_per_check"]["change_wins"] == 10
    assert res["cpu_ms_per_check"]["resolved"]


def test_compare_leaves_a_narrow_or_split_gain_unresolved():
    """10 of 10 pairs won by 1% (inside the parent's IQR of 1.75) does not
    resolve, nor do 8 of 10 pairs won by 10%; nor a loss."""
    narrow = _compare([p * 1.01 for p in PARENT], [p / 100 for p in PARENT])
    assert narrow["checks_per_s"]["change_wins"] == 10
    assert not narrow["checks_per_s"]["resolved"]
    split = [p * 1.1 for p in PARENT]
    split[:2] = [90.0, 90.0]
    res = _compare(split, [p / 90 for p in PARENT])
    assert res["checks_per_s"]["change_wins"] == 8
    assert not res["checks_per_s"]["resolved"]
    assert res["cpu_ms_per_check"]["parent_wins"] == 10
    assert not res["cpu_ms_per_check"]["resolved"]


def test_traced_spread_keeps_each_sides_runs_and_quartiles():
    """Per side and metric, the three traced runs in run order, their median
    and quartiles: a layer time that moves by a quarter between runs shows
    its spread beside the median that `traced` keeps."""
    traced = {"parent": [{"identities.eval_s": 0.10, "charts.weyl_s": 2.0},
                         {"identities.eval_s": 0.08, "charts.weyl_s": 2.0},
                         {"identities.eval_s": 0.12, "charts.weyl_s": 2.0}],
              "change": [{"identities.eval_s": 0.07, "charts.weyl_s": 1.0},
                         {"identities.eval_s": 0.05, "charts.weyl_s": 3.0},
                         {"identities.eval_s": 0.06, "charts.weyl_s": 2.0}]}
    got = contract_gemm.traced_spread(traced)
    assert set(got) == {"parent", "change"}
    parent = got["parent"]["identities.eval_s"]
    assert parent["runs"] == [0.10, 0.08, 0.12]
    assert parent["median"] == 0.10
    assert (parent["q1"], parent["q3"]) == pytest.approx((0.09, 0.11))
    change = got["change"]["identities.eval_s"]
    assert change["median"] == 0.06 and change["q3"] < parent["q1"]
    assert got["parent"]["charts.weyl_s"] == {
        "median": 2.0, "q1": 2.0, "q3": 2.0, "runs": [2.0, 2.0, 2.0]}
    assert (got["change"]["charts.weyl_s"]["q1"],
            got["change"]["charts.weyl_s"]["q3"]) == (1.5, 2.5)
