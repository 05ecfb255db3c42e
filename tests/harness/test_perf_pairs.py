"""The perf-pairs tool: seed parsing and the per-metric pair summary."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "perf_pairs",
    Path(__file__).resolve().parents[2] / "tools" / "perf_pairs.py",
)
assert _SPEC is not None and _SPEC.loader is not None
perf_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_pairs)

_CONTRACT = {
    "rate": {"name": "rate", "better": "higher", "bound": 0.25},
    "setup_s": {"name": "setup_s", "better": "lower", "bound": 0.25},
}


def _run(returncode=0, **metrics):
    return {"returncode": returncode, "metrics": metrics}


def test_parse_seeds():
    assert perf_pairs.parse_seeds("2-6") == [2, 3, 4, 5, 6]
    assert perf_pairs.parse_seeds("4242,4242") == [4242, 4242]
    assert perf_pairs.parse_seeds("1, 3-4") == [1, 3, 4]


def test_summary_counts_wins_by_direction():
    pairs = [
        (_run(rate=100.0, setup_s=1.0), _run(rate=300.0, setup_s=0.5)),
        (_run(rate=110.0, setup_s=1.1), _run(rate=320.0, setup_s=0.6)),
        (_run(rate=105.0, setup_s=1.0), _run(rate=90.0, setup_s=1.2)),
    ]
    rows = {row["metric"]: row for row in perf_pairs.summarise(pairs, _CONTRACT)}
    assert rows["rate"]["wins"] == 2 and rows["rate"]["pairs"] == 3
    assert rows["rate"]["parent"][0] == 105.0 and rows["rate"]["change"][0] == 300.0
    assert rows["setup_s"]["wins"] == 2
    assert rows["setup_s"]["ratio"] == 0.6


def test_verdicts_and_failed_runs():
    steady = [(_run(rate=100.0), _run(rate=60.0)) for _ in range(3)]
    [row] = perf_pairs.summarise(steady, _CONTRACT)
    assert row["verdict"] == "worse"
    noisy = [
        (_run(rate=parent), _run(rate=parent))
        for parent in (50.0, 100.0, 150.0)
    ]
    [row] = perf_pairs.summarise(noisy, _CONTRACT)
    assert row["verdict"] == "unresolved"
    failed = [(_run(returncode=1, rate=1.0), _run(rate=2.0))]
    assert perf_pairs.summarise(failed, _CONTRACT) == []


def test_gain_needs_nine_tenths_of_pairs_and_a_margin_over_the_parent_iqr():
    parents = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.5, 99.5]
    wins = [(_run(rate=p), _run(rate=p * 1.3)) for p in parents]
    [row] = perf_pairs.summarise(wins, _CONTRACT)
    assert row["wins"] == 10 and row["verdict"] == "gain"
    # One loss in ten still claims; a tie counts for neither side, so a
    # tie plus a loss leaves eight of ten, which does not.
    one_loss = wins[:9] + [(_run(rate=100.0), _run(rate=90.0))]
    [row] = perf_pairs.summarise(one_loss, _CONTRACT)
    assert row["verdict"] == "gain"
    tie_and_loss = wins[:8] + [
        (_run(rate=100.0), _run(rate=100.0)),
        (_run(rate=100.0), _run(rate=90.0)),
    ]
    [row] = perf_pairs.summarise(tie_and_loss, _CONTRACT)
    assert row["wins"] == 8 and row["verdict"] == "ok"
    # Lower-is-better metrics claim in their own direction.
    faster = [(_run(setup_s=p / 100), _run(setup_s=p / 200)) for p in parents]
    [row] = perf_pairs.summarise(faster, _CONTRACT)
    assert row["verdict"] == "gain"


def test_no_gain_when_the_margin_is_inside_the_parent_iqr():
    pairs = [
        (_run(rate=parent), _run(rate=parent + 1.0))
        for parent in (90.0, 95.0, 100.0, 105.0, 110.0)
    ]
    [row] = perf_pairs.summarise(pairs, _CONTRACT)
    assert row["wins"] == 5 and row["verdict"] == "ok"


def test_separated_runs_are_not_unresolved():
    # The parent spreads past the bound, but every change run beats
    # every parent run, by less than the parent's IQR: ok, not gain.
    pairs = [
        (_run(rate=parent), _run(rate=change))
        for parent, change in ((10.0, 102.0), (100.0, 103.0), (101.0, 104.0))
    ]
    [row] = perf_pairs.summarise(pairs, _CONTRACT)
    assert row["verdict"] == "ok"
    # One overlapping run keeps it unresolved.
    pairs[0] = (_run(rate=10.0), _run(rate=100.5))
    [row] = perf_pairs.summarise(pairs, _CONTRACT)
    assert row["verdict"] == "unresolved"
