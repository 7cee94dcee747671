"""The committed sweep: a reduced record is reproducible, covers every command, every group
and every piped input option, and --compare names what differs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SWEEP = ROOT / "tools" / "sweep.py"
sys.path.insert(0, str(SWEEP.parent))
import sweep  # noqa: E402

from specreason import cli  # noqa: E402


def take(record: Path, **env) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **env}
    env = {var: value for var, value in env.items() if value is not None}
    return subprocess.run([sys.executable, str(SWEEP), str(record), "--reduced"], env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep")
    for name in ("a.json", "b.json"):
        done = take(root / name, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        assert done.returncode == 0, done.stderr
    return root / "a.json", root / "b.json"


def test_reduced_sweep_twice_gives_identical_records(records):
    a, b = records
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["env"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    assert sweep.compare(str(a), str(b)) == 0


def test_reduced_sweep_runs_every_command(records):
    runs = json.loads(records[0].read_text())["runs"]
    every = next(a.choices for a in cli._build_parser()._actions if a.dest == "command")
    assert {run["argv"][0] for run in runs} == set(every)
    groups = {group for group, _, _ in sweep.groups(reduced=True)}
    assert {run["group"] for run in runs} == groups
    assert {"large", "fallback", "refusals", "repeated"} <= groups


def test_a_piped_run_differs_from_its_file_run_in_the_manifest_alone(records):
    runs = {run["argv"][-1]: run for run in json.loads(records[0].read_text())["runs"]
            if run["group"] == "pipes"}
    options = [option for _, option in sweep.piped_runs()]
    assert options == ["--graph", "--beliefs", "--filter", "--rulebase", "--rules",
                       "--model-filter", "--tasks", "--config"]
    for option in options:
        name = option.lstrip("-")
        by_file, piped = runs[f"file-{name}"], runs[f"piped-{name}"]
        assert piped["code"] == 0 and f"/dev/fd/{sweep.PIPE_FD}" in piped["argv"]
        assert piped["files"].pop("manifest.json") != by_file["files"].pop("manifest.json")
        assert {key: piped[key] for key in ("code", "stdout", "stderr", "warnings", "files")} \
            == {key: by_file[key] for key in ("code", "stdout", "stderr", "warnings", "files")}


def test_compare_names_the_runs_that_differ(records, tmp_path, capsys):
    record = json.loads(records[0].read_text())
    changed = next(run for run in record["runs"] if run["argv"][0] == "perturb")
    changed["stdout"] += "more\n"
    other = tmp_path / "other.json"
    other.write_text(json.dumps(record))
    assert sweep.compare(str(records[0]), str(other)) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"perturb / {changed['group']}: 1 differ"
    assert out[1] == "  " + " ".join(changed["argv"])
    assert out[2] == "    stdout"
    assert out[-1] == f"1 of {len(record['runs'])} runs differ"


def test_a_sweep_without_its_thread_settings_is_refused(tmp_path):
    done = take(tmp_path / "r.json", OPENBLAS_NUM_THREADS=None, OMP_NUM_THREADS="1")
    assert done.returncode == 2
    assert done.stderr.startswith("error: set OPENBLAS_NUM_THREADS")
    assert not (tmp_path / "r.json").exists()
