import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "paired_bench.py"
_spec = importlib.util.spec_from_file_location("paired_bench", SCRIPT)
paired_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired_bench)


def side(wall_s, failed, attempted, failed_checks=()):
    return {"wall_s": wall_s, "peak_rss_mb": 100.0, "attempted": attempted, "failed": failed,
            "failed_checks": list(failed_checks)}


def test_summary_counts_wins_and_sums_the_checks_of_every_pair():
    pairs = [{"seed": 1, "parent": side(2.0, 1, 20), "change": side(1.0, 1, 40)},
             {"seed": 2, "parent": side(2.0, 0, 20), "change": side(3.0, 1, 40)},
             {"seed": 3, "parent": side(2.0, 0, 20), "change": side(1.5, 0, 40)}]
    summary = paired_bench.summarize(pairs)
    assert summary["wall_s"]["change_wins"] == "2/3"
    assert summary["wall_s"]["change"]["median"] == 1.5 and summary["peak_rss_mb"]["parent"]["n"] == 3
    checks = summary["checks"]
    assert checks["parent"] == {"failed": 1, "attempted": 60}
    assert checks["change"] == {"failed": 2, "attempted": 120}
    assert checks["change_fails_larger_share"] == [2]  # seed 2: 1/40 > 0/20; seed 1: 1/40 < 1/20


def test_summary_flags_a_larger_failed_share_of_the_change():
    pairs = [{"seed": 1, "parent": side(2.0, 1, 60), "change": side(1.0, 3, 120)}]
    summary = paired_bench.summarize(pairs)
    assert summary["checks"]["change_fails_larger_share"] == [1]
    assert summary["wall_s"]["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0, "n": 1}


def test_summary_compares_the_failed_shares_seed_by_seed():
    # seed 7 fails one check in 21 on both sides; the faster change ran more
    # iterations there, which the pooled sums (137/30849 < 149/32424) misread
    band = ["dissipation_equality_band"]
    pairs = [{"seed": 7, "parent": side(2.0, 137, 2877, band), "change": side(1.0, 149, 3129, band)},
             {"seed": 8, "parent": side(2.0, 0, 27972), "change": side(1.0, 0, 29295)}]
    checks = paired_bench.summarize(pairs)["checks"]
    assert checks["change_fails_larger_share"] == []
    assert checks["change_only_failures"] == {}


def test_summary_names_the_seeds_where_only_the_change_fails_a_check():
    band = ["dissipation_equality_band"]
    pairs = [{"seed": 7, "parent": side(2.0, 18, 378, band), "change": side(1.0, 21, 441, band)},
             {"seed": 8, "parent": side(2.0, 0, 399), "change": side(1.0, 2, 441, ["closed_loop_l2_mismatch"])},
             {"seed": 9, "parent": side(2.0, 1, 20, band), "change": side(1.0, 0, 20)}]
    summary = paired_bench.summarize(pairs)
    assert "failed_checks" not in summary
    assert summary["checks"]["change_only_failures"] == {8: ["closed_loop_l2_mismatch"]}
