"""Engine selection: the one rule list, and plan/run manifest agreement.

:func:`select_engine` is the only place a run's engine is chosen.  The
table below crosses every request flag with three system shapes (TAGE,
a local-unit repair system, a table-indexed predictor) and checks each
outcome against the rule list; then every accepted combination is
planned and executed to show the planned manifest is the run's.
"""

from __future__ import annotations

import itertools

import pytest

from repro.errors import ConfigError
from repro.harness.runner import run_matrix, run_single
from repro.harness.sampling import SamplingConfig
from repro.harness.scale import Scale
from repro.harness.scheduler import (
    BATCH,
    EXACT,
    SPECIALIZED,
    Engine,
    Scheduler,
    SimJob,
    select_engine,
)
from repro.harness.systems import resolve_system
from repro.telemetry import TELEMETRY
from repro.workloads.suite import get_workload

_SYSTEMS = ("baseline-tage", "forward-walk-coalesce", "gshare:14:12")
_PERIODIC = SamplingConfig(mode="periodic", interval=200, warmup=100, coverage=0.5)
_SAMPLINGS = {"none": None, "off": SamplingConfig(mode="off"), "periodic": _PERIODIC}
_BRANCHES = 600

_CASES = list(
    itertools.product(_SYSTEMS, _SAMPLINGS, (False, True), (False, True), (False, True))
)


def _case_id(case):
    system, sampling, batch, specialize, telemetry = case
    flags = [f"sampling={sampling}"]
    flags += [name for name, on in (("batch", batch), ("specialize", specialize),
                                    ("telemetry", telemetry)) if on]
    return "-".join([system, *flags])


def _expected(system, sampling, batch, specialize, telemetry):
    """The rule list, written out independently of the implementation."""
    if sampling == "periodic":
        if batch:
            return ConfigError
        return Engine("sampled", _PERIODIC), (
            {"specialize": "sampled run"} if specialize else {}
        )
    if telemetry:
        declined = {name: "telemetry active"
                    for name, on in (("batch", batch), ("specialize", specialize)) if on}
        return EXACT, declined
    if batch and system == "gshare:14:12":
        return BATCH, {}
    declined = {"batch": "not a table predictor"} if batch else {}
    return (SPECIALIZED if specialize else EXACT), declined


@pytest.fixture(autouse=True)
def _isolated(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
    monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)


@pytest.fixture
def telemetry_state():
    def set_state(on: bool) -> None:
        if on:
            TELEMETRY.enable()
        else:
            TELEMETRY.disable()

    yield set_state
    TELEMETRY.disable()


@pytest.mark.parametrize("case", _CASES, ids=_case_id)
def test_rule_list(case):
    system, sampling, batch, specialize, telemetry = case
    expected = _expected(*case)
    request = dict(sampling=_SAMPLINGS[sampling], batch=batch,
                   specialize=specialize, telemetry=telemetry)
    if expected is ConfigError:
        with pytest.raises(ConfigError, match="mutually exclusive"):
            select_engine(resolve_system(system), **request)
        return
    engine, declined = select_engine(resolve_system(system), **request)
    assert (engine, dict(declined)) == expected


@pytest.mark.parametrize(
    "case", [c for c in _CASES if _expected(*c) is not ConfigError], ids=_case_id
)
def test_planned_manifest_is_the_run_manifest(case, telemetry_state):
    system_name, sampling, batch, specialize, telemetry = case
    system = resolve_system(system_name)
    spec = get_workload("hpc-fft")
    telemetry_state(telemetry)
    [job] = Scheduler().plan(
        [spec], [system], _BRANCHES, sampling=_SAMPLINGS[sampling],
        batch=batch, specialize=specialize,
    )
    engine, declined = _expected(*case)
    assert job.engine == engine
    planned = job.manifest()
    [ran] = Scheduler().run([job])
    assert ran.manifest["config_hash"] == planned["config_hash"]
    assert ran.manifest.get("engine") == planned.get("engine") == engine.tag
    assert ran.manifest.get("declined", {}) == declined
    if not batch:
        direct = run_single(
            spec, system, _BRANCHES, sampling=_SAMPLINGS[sampling],
            specialize=specialize,
        )
        assert direct.manifest["config_hash"] == planned["config_hash"]
        assert direct.manifest.get("declined", {}) == declined


@pytest.mark.parametrize(
    "system,engine,config_hash",
    [
        ("baseline-tage", EXACT, "b8ae7b50aab96342"),
        ("baseline-tage", SPECIALIZED, "f8b3bfaa3a7d83ce"),
        ("baseline-tage", Engine("sampled", SamplingConfig(mode="periodic")),
         "47e95c14b842a7c3"),
        ("forward-walk-coalesce", EXACT, "259b5725475f47aa"),
        ("gshare:14:12", EXACT, "84d2491c6b7a51c9"),
        ("gshare:14:12", BATCH, "671ed2ce5feef13e"),
    ],
)
def test_config_hashes_pinned(system, engine, config_hash):
    job = SimJob(
        spec=get_workload("hpc-fft"), system=resolve_system(system),
        n_branches=_BRANCHES, engine=engine,
    )
    assert job.manifest()["config_hash"] == config_hash


def test_run_matrix_rejects_batch_with_sampling():
    scale = Scale(name="t", branches_per_workload=_BRANCHES, workloads_per_category=1)
    with pytest.raises(ConfigError, match="mutually exclusive"):
        run_matrix(
            [get_workload("hpc-fft")], [resolve_system("gshare:14:12")], scale,
            batch=True, sampling=SamplingConfig(mode="periodic"),
        )


@pytest.mark.parametrize(
    "kind,sampling",
    [("sampled", None), ("exact", _PERIODIC), ("fast", None)],
)
def test_malformed_engine_rejected(kind, sampling):
    with pytest.raises(ConfigError, match="invalid engine"):
        Engine(kind, sampling)
