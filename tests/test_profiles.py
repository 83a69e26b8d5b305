"""Profile loading: built-ins are decoded once per process, profile-directory
files on every call."""

import json

import pytest

from ftqc_estimator import cli, profiles
from ftqc_estimator.errors import ConfigError
from ftqc_estimator.profiles import PROFILE_DIR_ENV, load_profile


@pytest.fixture
def reads(monkeypatch):
    """The paths ``profiles`` reads from here on, in order."""
    seen = []
    read_file = profiles.read_file

    def counted(path, what):
        seen.append(path)
        return read_file(path, what)

    monkeypatch.setattr(profiles, "read_file", counted)
    return seen


def write_profile(directory, name, clifford_error_rate):
    document = {
        "name": name,
        "qubitParams": {
            "instructionSet": "gateBased",
            "oneQubitGateTime": 10.0,
            "twoQubitGateTime": 10.0,
            "oneQubitMeasurementTime": 20.0,
            "tGateTime": 10.0,
            "cliffordErrorRate": clifford_error_rate,
            "tGateErrorRate": 1e-3,
        },
        "defaultQecScheme": "surface_code",
    }
    directory.mkdir(exist_ok=True)
    (directory / f"{name}.json").write_text(json.dumps(document))


def test_a_builtin_is_read_once_per_process(monkeypatch, reads):
    monkeypatch.delenv(PROFILE_DIR_ENV, raising=False)
    profiles._builtin.cache_clear()
    first = load_profile("qubit_gate_ns_e4")
    assert len(reads) == 1
    assert load_profile("qubit_gate_ns_e4") is first
    assert len(reads) == 1
    assert load_profile("qubit_maj_ns_e6").name == "qubit_maj_ns_e6"
    assert len(reads) == 2


def test_an_unknown_builtin_is_an_error_every_time(monkeypatch, reads):
    monkeypatch.delenv(PROFILE_DIR_ENV, raising=False)
    for _ in range(2):
        with pytest.raises(ConfigError, match="unknown hardware profile"):
            load_profile("qubit_gate_ns_e5")
    assert reads == []


def test_profile_dir_files_are_read_on_every_call(tmp_path, monkeypatch, reads):
    monkeypatch.setenv(PROFILE_DIR_ENV, str(tmp_path / "a"))
    write_profile(tmp_path / "a", "lab", 1e-3)
    assert load_profile("lab").qubit_params.clifford_error_rate == 1e-3
    write_profile(tmp_path / "a", "lab", 2e-4)
    assert load_profile("lab").qubit_params.clifford_error_rate == 2e-4
    assert len(reads) == 2


def test_switching_the_profile_dir_switches_directories(tmp_path, monkeypatch):
    write_profile(tmp_path / "a", "lab", 1e-3)
    write_profile(tmp_path / "b", "lab", 5e-4)
    monkeypatch.setenv(PROFILE_DIR_ENV, str(tmp_path / "a"))
    assert load_profile("lab").qubit_params.clifford_error_rate == 1e-3
    monkeypatch.setenv(PROFILE_DIR_ENV, str(tmp_path / "b"))
    assert load_profile("lab").qubit_params.clifford_error_rate == 5e-4
    # and unsetting it goes back to the built-ins
    monkeypatch.delenv(PROFILE_DIR_ENV)
    with pytest.raises(ConfigError, match="unknown hardware profile"):
        load_profile("lab")
    assert load_profile("qubit_gate_ns_e3").name == "qubit_gate_ns_e3"


@pytest.mark.parametrize("kind", ["name-too-long", "a-file"])
def test_a_bad_profile_dir_exits_2_with_a_short_echo(tmp_path, monkeypatch, capsys, kind):
    if kind == "a-file":
        path = tmp_path / ("x" * 200)
        path.write_text("")
    else:
        path = tmp_path / ("x" * 5000)  # the OS rejects the name
    monkeypatch.setenv(PROFILE_DIR_ENV, str(path))
    assert cli.main(["profiles"]) == 2
    err = capsys.readouterr().err
    error = json.loads(err)["error"]
    assert error["type"] == "ConfigError"
    assert error["message"].endswith("..., not a directory")
    assert len(err.encode()) < 1000
