"""Shared fixtures for the benchmark harness.

Every bench regenerates one paper artifact (figure or headline stat).
Expensive world builds are session-scoped; the ``benchmark`` fixture
then times the *analysis* stage (the paper's contribution), not the
substrate simulation.

Scale: benches default to a reduced world so the whole harness runs in
a couple of minutes.  Set ``REPRO_FULL_SCALE=1`` to run the paper-scale
646-AS survey and full CDN client pools.
"""

import os
from pathlib import Path

import pytest

from repro.scenarios import (
    build_exemplar_run,
    build_tokyo_case_study,
    generate_specs,
)
from repro.scenarios.worldsurvey import build_survey_world
from repro.timebase import ALL_SURVEY_PERIODS, COVID_PERIOD

FULL_SCALE = os.environ.get("REPRO_FULL_SCALE", "") == "1"

REPORT_DIR = Path(__file__).parent / "reports"


def write_report(name: str, text: str) -> None:
    """Persist a bench's paper-vs-measured table and echo it."""
    REPORT_DIR.mkdir(exist_ok=True)
    path = REPORT_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n===== {name} =====\n{text}\n")


def period_named(name: str):
    if name == "2020-04":
        return COVID_PERIOD
    return next(p for p in ALL_SURVEY_PERIODS if p.name == name)


# -- exemplar (Fig. 1/2) -------------------------------------------------

EXEMPLAR_PROBES = None if FULL_SCALE else {"ISP_DE": 60, "ISP_US": 60}


@pytest.fixture(scope="session")
def exemplar_runs():
    """ExemplarRun per period: all seven at full scale, three reduced."""
    names = (
        [p.name for p in ALL_SURVEY_PERIODS] if FULL_SCALE
        else ["2018-09", "2019-09", "2020-04"]
    )
    return {
        name: build_exemplar_run(
            period_named(name), probe_counts=EXEMPLAR_PROBES
        )
        for name in names
    }


@pytest.fixture(scope="session")
def exemplar_datasets(exemplar_runs):
    """Binned last-mile datasets per (period, ISP)."""
    return {
        (name, isp): run.dataset_for(isp)
        for name, run in exemplar_runs.items()
        for isp in ("ISP_DE", "ISP_US")
    }


# -- world survey (Fig. 3/4, headline) -----------------------------------

SURVEY_AS_COUNT = 646 if FULL_SCALE else 150
SURVEY_COUNTRIES = 98 if FULL_SCALE else 40


@pytest.fixture(scope="session")
def survey_specs():
    return generate_specs(
        num_ases=SURVEY_AS_COUNT, num_countries=SURVEY_COUNTRIES,
        seed=101,
    )


@pytest.fixture(scope="session")
def survey_period_names():
    """Longitudinal periods used by the survey benches."""
    if FULL_SCALE:
        return [p.name for p in ALL_SURVEY_PERIODS[:6]]
    return ["2018-09", "2019-03", "2019-09"]


@pytest.fixture(scope="session")
def survey_datasets(survey_specs, survey_period_names):
    """(dataset, world) per period name, including 2020-04."""
    datasets = {}
    for name in list(survey_period_names) + ["2020-04"]:
        period = period_named(name)
        world, platform = build_survey_world(
            survey_specs, lockdown=(name == "2020-04"), seed=7
        )
        datasets[name] = (
            platform.run_period_binned(period), world, period
        )
    return datasets


# -- Tokyo case study (Fig. 5–9) ------------------------------------------

TOKYO_CLIENT_SCALE = 1.0 if FULL_SCALE else 0.3


@pytest.fixture(scope="session")
def tokyo_study():
    return build_tokyo_case_study(client_scale=TOKYO_CLIENT_SCALE)


@pytest.fixture(scope="session")
def tokyo_logs(tokyo_study):
    return tokyo_study.edge.generate(tokyo_study.period)


@pytest.fixture(scope="session")
def tokyo_datasets(tokyo_study):
    return {
        name: tokyo_study.dataset_for(name)
        for name in ("ISP_A", "ISP_B", "ISP_C", "ISP_D")
    }


# -- machine-readable kernel perf trajectory (BENCH_kernels.json) --------

BENCH_KERNELS_JSON = Path(__file__).parent.parent / "BENCH_kernels.json"


def machine_block() -> dict:
    """The host a benchmark ran on: cores, CPU model, Python, numpy,
    scipy."""
    import os
    import platform
    from importlib import metadata

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def record_kernel_bench(stage: str, reference_s: float, vector_s: float):
    """Upsert one stage's reference/vector rows into BENCH_kernels.json.

    The file holds the ``machine`` the numbers were taken on and a
    flat ``stages`` list of {stage, backend, wall_ms, speedup} rows —
    the perf trajectory the ROADMAP tracks.  ``reference`` rows time
    the oracle loops of :mod:`repro.core.kernels.reference`,
    ``vector`` rows the production functions.  Rows are keyed on
    (stage, backend) so re-running any bench refreshes its own rows
    without clobbering the others'.  Returns the stage speedup.
    """
    import json

    speedup = reference_s / vector_s if vector_s > 0 else float("inf")
    rows = []
    if BENCH_KERNELS_JSON.exists():
        rows = json.loads(BENCH_KERNELS_JSON.read_text())
        if isinstance(rows, dict):
            rows = rows["stages"]
    rows = [r for r in rows if r["stage"] != stage]
    rows.append({
        "stage": stage, "backend": "reference",
        "wall_ms": round(reference_s * 1e3, 3), "speedup": 1.0,
    })
    rows.append({
        "stage": stage, "backend": "vector",
        "wall_ms": round(vector_s * 1e3, 3),
        "speedup": round(speedup, 2),
    })
    rows.sort(key=lambda r: (r["stage"], r["backend"]))
    BENCH_KERNELS_JSON.write_text(json.dumps(
        {"machine": machine_block(), "stages": rows}, indent=1
    ) + "\n")
    return speedup


# -- machine-readable serving trajectory (BENCH_serving.json) ------------

BENCH_SERVING_JSON = Path(__file__).parent.parent / "BENCH_serving.json"


def record_serving_bench(section: str, payload: dict) -> None:
    """Upsert one section of BENCH_serving.json.

    The file maps section name ("warm_lookup", "overload") to that
    bench's numbers — re-running either bench refreshes only its own
    section, mirroring the BENCH_kernels.json upsert idiom.
    """
    import json

    data = {}
    if BENCH_SERVING_JSON.exists():
        data = json.loads(BENCH_SERVING_JSON.read_text())
    data[section] = payload
    BENCH_SERVING_JSON.write_text(
        json.dumps(data, indent=1, sort_keys=True) + "\n"
    )
