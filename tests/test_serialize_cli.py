"""File formats and the command-line pipeline."""

import dataclasses
import json
import os
import stat
import subprocess
import sys
import zipfile

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given
from hypothesis import strategies as st

import daepencil
import daepencil.cli
import daepencil.solver
from daepencil import (
    GrowthEstimate, MatrixPencil, NanorodParams, PhPencil, PhReport, RadialityEvidence, Trajectory,
    WeierstrassDecomposition, build_nanorod,
)
from daepencil.cli import main
from daepencil.errors import OverflowRisk
from daepencil.serialize import (
    atomic_write_text,
    load_pencil,
    load_trajectory_csv,
    matrix_from_json,
    matrix_to_json,
    pencil_from_dict,
    pencil_to_dict,
    save_json,
    save_pencil,
    save_trajectory_csv,
)


class TestMatrixJson:
    def test_roundtrip(self):
        M = np.array([[1.0 + 2.0j, -0.5], [0.0, 3.5j]])
        assert np.array_equal(matrix_from_json(matrix_to_json(M)), M)

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            matrix_from_json([[1.0, 2.0]])


class TestPencilDict:
    def test_plain_roundtrip(self):
        p = MatrixPencil(np.diag([1.0, 0.0]), -np.eye(2))
        q = pencil_from_dict(pencil_to_dict(p))
        assert isinstance(q, MatrixPencil) and not isinstance(q, PhPencil)
        assert np.array_equal(q.E, p.E) and np.array_equal(q.A, p.A)

    def test_ph_roundtrip(self):
        ph = PhPencil(np.diag([1.0, 0.0]), -np.eye(2), np.diag([2.0, 1.0]))
        q = pencil_from_dict(pencil_to_dict(ph))
        assert isinstance(q, PhPencil)
        assert np.array_equal(q.Q, ph.Q)

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError):
            pencil_from_dict({"n": 2, "E": matrix_to_json(np.eye(2))})

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pencil_from_dict({"n": 3, "E": matrix_to_json(np.eye(2)), "A": matrix_to_json(np.eye(2))})


class TestTrajectoryCsv:
    def test_roundtrip_with_hamiltonian(self, tmp_path):
        times = np.linspace(0.0, 1.0, 5)
        states = (np.arange(10).reshape(5, 2) + 0.25j).astype(complex) / 3.0
        traj = Trajectory(times, states, hamiltonian=np.exp(-times))
        path = str(tmp_path / "t.csv")
        save_trajectory_csv(path, traj)
        back = load_trajectory_csv(path)
        # 17 significant digits make the round-trip exact for doubles
        assert np.array_equal(back.times, times)
        assert np.array_equal(back.states, states)
        assert np.array_equal(back.hamiltonian, np.exp(-times))

    def test_roundtrip_without_hamiltonian(self, tmp_path):
        traj = Trajectory(np.linspace(0, 1, 3), np.zeros((3, 1)))
        path = str(tmp_path / "t.csv")
        save_trajectory_csv(path, traj)
        back = load_trajectory_csv(path)
        assert back.hamiltonian is None

    def test_header_layout(self, tmp_path):
        traj = Trajectory(np.linspace(0, 1, 3), np.zeros((3, 2)))
        path = str(tmp_path / "t.csv")
        save_trajectory_csv(path, traj)
        header = open(path).readline().strip()
        assert header == "t, re(x_1), im(x_1), re(x_2), im(x_2), H"


def _jsonable(obj, written):
    """The reference conversion: save_json must write json.dumps(_jsonable(data, written), indent=2,
    sort_keys=True), where ``written`` is the parsed JSON and supplies each array's reference."""
    if dataclasses.is_dataclass(obj):
        obj = dataclasses.asdict(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v, written[k]) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v, w) for v, w in zip(obj, written, strict=True)]
    if isinstance(obj, np.ndarray):
        return written
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


def _arrays_with_references(obj, written):
    """(array, its reference in ``written``) for every ndarray of ``obj``."""
    if dataclasses.is_dataclass(obj):
        obj = dataclasses.asdict(obj)
    if isinstance(obj, np.ndarray):
        return [(obj, written)]
    if isinstance(obj, dict):
        return [pair for k, v in obj.items() for pair in _arrays_with_references(v, written[k])]
    if isinstance(obj, (list, tuple)):
        return [pair for v, w in zip(obj, written) for pair in _arrays_with_references(v, w)]
    return []


_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([-0.0, np.nan, np.inf, -np.inf])
_arrays = st.builds(
    lambda shape, cplx, vals: np.resize(np.array(vals) if cplx else np.array(vals).real, shape),
    st.sampled_from([(0, 0), (1, 0), (3,), (2, 3)]),
    st.booleans(),
    st.lists(st.complex_numbers() | _floats.map(complex), min_size=1, max_size=6),
)
_leaves = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | _floats
    | st.text()
    | st.complex_numbers(allow_nan=True)
    | _floats.map(np.float64)
    | st.floats(width=32).map(np.float32)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.booleans().map(np.bool_)
    | _arrays
)
_reports = st.dictionaries(
    st.text(),
    st.recursive(
        _leaves,
        lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(st.text(), inner, max_size=4),
        max_leaves=12,
    ),
    max_size=5,
)


@dataclasses.dataclass(frozen=True)
class _Stage:
    shift: complex
    matrix: np.ndarray


@dataclasses.dataclass(frozen=True)
class _Result:
    """A result object: its fields are reported, its property is not."""

    stage: _Stage
    matrix: np.ndarray
    mu: complex
    flags: tuple
    missing: None

    @property
    def size(self) -> int:
        return self.matrix.size


class TestSaveJson:
    @given(data=_reports)
    @example(
        data=_Result(_Stage(np.complex128(-0.0 + 1j), 1j * np.eye(2)), np.arange(3.0), 1 + 2j, (True, None), None)
    )
    @example(
        data={
            "n\u00e4me": "\u00fcn\u00efc\u00f6de \u2713",
            "scalars": [np.float64(-0.0), np.int64(3), np.bool_(False), np.float32(2.5), None, True],
            "complex": (1 + 2j, np.complex128(-0.0 + 1j), complex(np.nan, -np.inf)),
            "arrays": [np.zeros((0, 0)), np.zeros((1, 0)), np.array([1.0, np.nan, -np.inf]), np.arange(6.0).reshape(2, 3)],
            "complex arrays": {"a": np.array([1j, -0.0, np.inf * 1j]), "b": np.ones((2, 3)) * (1 - 1j)},
            "placeholders": ["\x00", "\x00\x00", 'a"\x00', {"\x00": np.eye(1)}],
            "member names": {"a.b": np.ones(1), "a": {"b": np.zeros(1)}, "c/d": [np.eye(2)], "": {"": -np.eye(1)},
                             "%2E": np.ones(2), ".": np.zeros(2), "\x00.npy": np.ones(3), "\u00e9": 1j * np.ones(1)},
        }
    )
    def test_bytes_match_json_dumps(self, tmp_path_factory, data):
        # the JSON is json.dumps of the data with each array replaced by its reference; the sidecar
        # holds every array bit for bit, once, under a member name of its own
        out = tmp_path_factory.mktemp("json")
        save_json(str(out / "out.json"), data)
        with open(out / "out.json", "rb") as fh:
            written = fh.read()
        parsed = json.loads(written)
        assert written == (json.dumps(_jsonable(data, parsed), indent=2, sort_keys=True) + "\n").encode()
        pairs = _arrays_with_references(data, parsed)
        assert os.path.exists(out / "out.npz") == bool(pairs)
        if not pairs:
            return
        with zipfile.ZipFile(out / "out.npz") as archive:
            infos = archive.infolist()
        assert [i.filename for i in infos] == sorted({ref["member"] for _, ref in pairs})
        assert len(infos) == len(pairs)
        assert {(i.compress_type, i.date_time) for i in infos} == {(zipfile.ZIP_DEFLATED, (1980, 1, 1, 0, 0, 0))}
        with np.load(out / "out.npz", allow_pickle=False) as sidecar:
            for array, ref in pairs:
                stored = sidecar[ref["member"]]
                assert (stored.dtype, stored.shape, stored.tobytes()) == (array.dtype, array.shape, array.tobytes())
                assert ref["sidecar"] == "out.npz"
                assert (ref["shape"], ref["dtype"]) == (list(array.shape), str(array.dtype))
                assert ref["frobenius_norm"] == pytest.approx(np.linalg.norm(array), rel=0, abs=0, nan_ok=True)


class TestAtomicWrite:
    def test_replaces_and_leaves_no_temp(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "first")
        atomic_write_text(path, "second")
        assert open(path).read() == "second"
        assert [f for f in os.listdir(tmp_path) if f.endswith(".tmp")] == []

    def test_mode_follows_umask(self, tmp_path):
        path = str(tmp_path / "out.txt")
        old = os.umask(0o022)
        try:
            atomic_write_text(path, "text")
        finally:
            os.umask(old)
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o644
        assert [f for f in os.listdir(tmp_path) if f.endswith(".tmp")] == []

    def test_deterministic_json_bytes(self, tmp_path):
        data = {"z": 1, "a": [1.5, 2.5], "m": np.eye(2), "c": {"x": np.arange(3) * 1j}}
        for run in ("a", "b"):
            os.mkdir(tmp_path / run)
            save_json(str(tmp_path / run / "r.json"), data)
        for name in ("r.json", "r.npz"):
            assert open(tmp_path / "a" / name, "rb").read() == open(tmp_path / "b" / name, "rb").read()
        assert sorted(os.listdir(tmp_path / "a")) == ["r.json", "r.npz"]

    def test_sidecar_replaced_and_stale_one_removed(self, tmp_path):
        path = str(tmp_path / "r.json")
        save_json(path, {"m": np.eye(2)})
        save_json(path, {"m": np.zeros(3)})
        with np.load(tmp_path / "r.npz") as sidecar:
            assert sidecar.files == ["m"] and np.array_equal(sidecar["m"], np.zeros(3))
        save_json(path, {"m": None})
        assert os.listdir(tmp_path) == ["r.json"]


@pytest.fixture
def scalar_pencil_file(tmp_path):
    path = str(tmp_path / "scalar.json")
    save_pencil(path, MatrixPencil(np.eye(1), [[-1.0]]))
    return path


class TestCliPipeline:
    def test_example_then_verify_ph(self, tmp_path):
        out = str(tmp_path)
        assert main(["example", "nanorod", "--n-grid", "10", "--output-dir", out]) == 0
        pencil_file = os.path.join(out, "nanorod.json")
        assert isinstance(load_pencil(pencil_file), PhPencil)
        assert main(["verify-ph", pencil_file, "--output-dir", out]) == 0
        report = json.load(open(os.path.join(out, "ph_report.json")))
        assert report["structure_ok"] is True

    def test_analyze_sidecar_deflated(self, tmp_path):
        # the nanorod's arrays deflate to 0.57 of their .npy bytes; a sidecar stored uncompressed reads 1.0
        out = str(tmp_path)
        assert main(["example", "nanorod", "--n-grid", "10", "--output-dir", out]) == 0
        assert main(["analyze", os.path.join(out, "nanorod.json"), "--output-dir", out, "--num-samples", "20"]) == 0
        with zipfile.ZipFile(os.path.join(out, "analyze.npz")) as archive:
            npy_bytes = sum(info.file_size for info in archive.infolist())
        assert os.path.getsize(os.path.join(out, "analyze.npz")) <= 0.65 * npy_bytes

    def test_simulate_inadmissible_exit_1(self, tmp_path):
        out = str(tmp_path)
        pencil_file = os.path.join(out, "dae.json")
        save_pencil(pencil_file, MatrixPencil(np.diag([1.0, 0.0]), np.eye(2)))
        code = main(["simulate", pencil_file, "--x0", "1,1", "--output-dir", out])
        assert code == 1
        report = json.load(open(os.path.join(out, "simulate.json")))
        assert report["failure"] == "InconsistentInitialState"
        assert report["admissible"] is False

    def test_simulate_mu_at_an_eigenvalue_exit_1(self, tmp_path, capsys):
        # mu = (3 + sqrt 5) / 2 is an eigenvalue of (I, A): R(mu) is refused before any solve, and the
        # one JSON error says which shift was tried and what its LU's condition estimate was
        pencil_file, mu = str(tmp_path / "pair.json"), (3.0 + 5.0**0.5) / 2.0
        save_pencil(pencil_file, MatrixPencil(np.eye(2), [[1.0, 1.0], [1.0, 2.0]]))
        args = ["simulate", pencil_file, "--x0", "1,0", "--mu", repr(mu), "--omega", "1", "--output-dir", str(tmp_path)]
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        error = json.loads(err)
        assert error["error"] == "SingularShift"
        assert error["message"].startswith(f"lambda = {mu!r} is outside the resolvent set: 1-norm condition estimate ")
        assert error["message"].endswith(", limit 1.000e+12")

    def test_simulate_scalar_exit_0(self, tmp_path, scalar_pencil_file):
        out = str(tmp_path)
        code = main(["simulate", scalar_pencil_file, "--x0", "1", "--output-dir", out])
        assert code == 0
        report = json.load(open(os.path.join(out, "simulate.json")))
        assert report["mild_residual"] <= 1e-6
        traj = load_trajectory_csv(os.path.join(out, "trajectory.csv"))
        assert np.max(np.abs(traj.states[:, 0] - np.exp(-traj.times))) <= 1e-6

    def test_indices_on_l2(self, tmp_path):
        out = str(tmp_path)
        assert main(["example", "l2", "--K", "8", "--output-dir", out]) == 0
        code = main(
            [
                "indices",
                os.path.join(out, "l2.json"),
                "--output-dir", out,
                "--lambda-span", "320",
                "--box-radius", "320",
                "--num-samples", "100",
            ]
        )
        assert code == 0
        report = json.load(open(os.path.join(out, "indices.json")))
        assert report["real"]["index"] == 2
        assert report["seed"] == 0 and "config" in report

    def test_zero_dyn_decompose(self, tmp_path):
        out = str(tmp_path)
        assert main(["example", "zero-dyn", "--m", "4", "--output-dir", out]) == 0
        assert main(["decompose", os.path.join(out, "zero_dyn.json"), "--output-dir", out]) == 0
        report = json.load(open(os.path.join(out, "decompose.json")))
        assert report["nilpotency_index"] == 2
        assert report["d2"] == 2

    def test_analyze_ph_input(self, tmp_path):
        out = str(tmp_path)
        assert main(["example", "nanorod", "--n-grid", "8", "--output-dir", out]) == 0
        code = main(
            [
                "analyze",
                os.path.join(out, "nanorod.json"),
                "--output-dir", out,
                "--num-samples", "50",
                "--box-radius", "100",
            ]
        )
        assert code == 0
        report = json.load(open(os.path.join(out, "analyze.json")))
        assert report["regular"] is True
        assert "decomposition" in report and "indices" in report and "ph" in report

    def test_decompose_irregular_exit_1(self, tmp_path, capsys):
        N = np.array([[0.0, 1.0], [0.0, 0.0]])
        pencil_file = str(tmp_path / "irregular.json")
        save_pencil(pencil_file, MatrixPencil(N, N))
        assert main(["decompose", pencil_file, "--output-dir", str(tmp_path)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "IrregularPencil"
        assert not os.path.exists(str(tmp_path / "decompose.json"))

    def test_analyze_irregular_exit_1(self, tmp_path, capsys):
        N = np.array([[0.0, 1.0], [0.0, 0.0]])
        pencil_file = str(tmp_path / "irregular.json")
        save_pencil(pencil_file, MatrixPencil(N, N))
        assert main(["analyze", pencil_file, "--output-dir", str(tmp_path), "--seed", "3"]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "IrregularPencil"
        assert json.load(open(tmp_path / "analyze.json")) == {"regular": False, "seed": 3}

    def test_analyze_irregular_leaves_no_stale_sidecar(self, tmp_path, capsys, scalar_pencil_file):
        out = str(tmp_path / "out")
        assert main(["analyze", scalar_pencil_file, "--output-dir", out, "--num-samples", "20"]) == 0
        assert sorted(os.listdir(out)) == ["analyze.json", "analyze.npz"]
        N = np.array([[0.0, 1.0], [0.0, 0.0]])
        pencil_file = str(tmp_path / "irregular.json")
        save_pencil(pencil_file, MatrixPencil(N, N))
        assert main(["analyze", pencil_file, "--output-dir", out]) == 1
        assert os.listdir(out) == ["analyze.json"]

    def test_decompose_has_no_omega(self, tmp_path, scalar_pencil_file):
        assert main(["decompose", scalar_pencil_file, "--omega", "2", "--output-dir", str(tmp_path)]) == 2

    def test_python_m_daepencil_runs_the_cli(self):
        src = os.path.dirname(os.path.dirname(daepencil.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "daepencil", "--help"], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0 and done.stdout.startswith("usage: daepencil")

    def test_cli_import_loads_no_public_scipy_subpackage_but_linalg(self):
        # start-up cost: mild_solution_residual has its own Simpson rule to keep scipy.integrate out
        src = os.path.dirname(os.path.dirname(daepencil.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", "import sys, daepencil.cli; print(*sys.modules)"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0
        loaded = {name.split(".")[1] for name in done.stdout.split() if name.startswith("scipy.")}
        assert {name for name in loaded if not name.startswith("_")} - {"version"} == {"linalg"}

    def test_missing_input_exit_2(self, tmp_path):
        assert main(["decompose", str(tmp_path / "nope.json"), "--output-dir", str(tmp_path)]) == 2

    def test_malformed_input_exit_2(self, tmp_path):
        bad = str(tmp_path / "bad.json")
        open(bad, "w").write("{not json")
        assert main(["decompose", bad, "--output-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "name, data, message",
        [
            ("n_not_int", {"n": [2], "E": [[[1, 0]]], "A": [[[1, 0]]]}, "pencil key 'n' is [2]"),
            ("E_not_array", {"n": 1, "E": {"x": 1}, "A": [[[1, 0]]]}, "pencil key 'E': matrix entries"),
        ],
    )
    def test_malformed_pencil_exit_2(self, tmp_path, capsys, name, data, message):
        bad = str(tmp_path / f"{name}.json")
        json.dump(data, open(bad, "w"))
        assert main(["decompose", bad, "--output-dir", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and err["message"].startswith(message)

    def test_x0_file_of_strings_exit_2(self, tmp_path, capsys, scalar_pencil_file):
        x0_file = str(tmp_path / "x0.json")
        json.dump([["1", "0"]], open(x0_file, "w"))
        assert main(["simulate", scalar_pencil_file, "--x0-file", x0_file, "--output-dir", str(tmp_path)]) == 2
        assert "must hold a list of [re, im] pairs of numbers" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("value, shown", [([1], "[1]"), (64.5, "64.5")])
    def test_config_value_of_wrong_type_exit_2(self, tmp_path, capsys, scalar_pencil_file, value, shown):
        # argparse applies an option's type only to string defaults; the config values get it too
        cfg = str(tmp_path / "cfg.json")
        json.dump({"num_points": value}, open(cfg, "w"))
        assert main(["--config", cfg, "indices", scalar_pencil_file, "--output-dir", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ConfigError", "message": f"config key 'num_points' is {shown}, not int"}

    def test_wrong_x0_length_exit_2(self, tmp_path, scalar_pencil_file):
        code = main(["simulate", scalar_pencil_file, "--x0", "1,2", "--output-dir", str(tmp_path)])
        assert code == 2

    def test_nonfinite_x0_exit_2(self, tmp_path, capsys, scalar_pencil_file):
        out = str(tmp_path / "out")
        for x0 in ("nan", "inf", "-inf", "1+infi"):
            assert main(["simulate", scalar_pencil_file, f"--x0={x0}", "--output-dir", out]) == 2
            assert json.loads(capsys.readouterr().err)["message"] == "x0 contains NaN or Inf entries"
        x0_file = str(tmp_path / "x0.json")
        with open(x0_file, "w") as fh:
            json.dump([[float("inf"), 0.0]], fh)
        assert main(["simulate", scalar_pencil_file, "--x0-file", x0_file, "--output-dir", out]) == 2
        assert not os.path.exists(os.path.join(out, "simulate.json"))

    def test_malformed_x0_entry_named_exit_2(self, tmp_path, capsys, scalar_pencil_file):
        assert main(["simulate", scalar_pencil_file, "--x0", "1+2k", "--output-dir", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err)["message"] == "--x0 entry '1+2k' is not a complex number"

    def test_simulate_hamiltonian_failure_exit_1(self, tmp_path):
        # E*Q = -1 is not positive semidefinite, so H(x) = -|x|^2 is rejected
        out = str(tmp_path)
        pencil_file = os.path.join(out, "ph.json")
        save_pencil(pencil_file, PhPencil([[1.0]], [[-1.0]], [[-1.0]]))
        assert main(["simulate", pencil_file, "--x0", "1", "--output-dir", out]) == 1
        report = json.load(open(os.path.join(out, "simulate.json")))
        assert report["failure"] == "HamiltonianFailed"
        assert "negative" in report["hamiltonian_note"]
        traj = load_trajectory_csv(os.path.join(out, "trajectory.csv"))
        assert traj.hamiltonian is None
        assert np.max(np.abs(traj.states[:, 0] - np.exp(traj.times))) <= 1e-6

    def test_simulate_keeps_contour_solve_on_overflow(self, tmp_path, monkeypatch, scalar_pencil_file):
        def overflow(*args, **kwargs):
            raise OverflowRisk("exp(M t) has entries beyond e^700")

        monkeypatch.setattr(daepencil.cli, "weierstrass_solve", overflow)
        out = str(tmp_path)
        assert main(["simulate", scalar_pencil_file, "--x0", "1", "--output-dir", out]) == 0
        report = json.load(open(os.path.join(out, "simulate.json")))
        assert report["solver_agreement"] is None
        assert "e^700" in report["weierstrass_note"]
        assert report["mild_residual"] <= 1e-6
        traj = load_trajectory_csv(os.path.join(out, "trajectory.csv"))
        assert np.max(np.abs(traj.states[:, 0] - np.exp(-traj.times))) <= 1e-6

    def test_invalid_model_params_exit_2(self, tmp_path):
        assert main(["example", "nanorod", "--n-grid", "2", "--output-dir", str(tmp_path)]) == 2

    def test_byte_identical_reruns(self, tmp_path):
        pencil_file = str(tmp_path / "dae.json")
        save_pencil(pencil_file, MatrixPencil(np.diag([1.0, 2.0, 0.0]), -np.eye(3)))
        for command in ("decompose", "analyze"):
            outs = [str(tmp_path / command / run) for run in ("a", "b")]
            extra = ["--num-samples", "20"] if command == "analyze" else []
            for out in outs:
                assert main([command, pencil_file, "--output-dir", out, *extra]) == 0
            files = sorted(os.listdir(outs[0]))
            assert files == sorted(os.listdir(outs[1])) == [f"{command}.json", f"{command}.npz"]
            for name in files:
                assert open(os.path.join(outs[0], name), "rb").read() == open(os.path.join(outs[1], name), "rb").read()

    def test_config_file_precedence(self, tmp_path, scalar_pencil_file):
        out = str(tmp_path)
        cfg = str(tmp_path / "cfg.json")
        json.dump({"num_steps": 50}, open(cfg, "w"))
        assert main(["--config", cfg, "simulate", scalar_pencil_file, "--x0", "1", "--output-dir", out]) == 0
        assert json.load(open(os.path.join(out, "simulate.json")))["config"]["num_steps"] == 50
        assert main(
            ["--config", cfg, "simulate", scalar_pencil_file, "--x0", "1", "--num-steps", "20", "--output-dir", out]
        ) == 0
        assert json.load(open(os.path.join(out, "simulate.json")))["config"]["num_steps"] == 20

    def test_bad_config_exit_2(self, tmp_path, scalar_pencil_file):
        cfg = str(tmp_path / "cfg.json")
        open(cfg, "w").write("[1,2]")
        assert main(["--config", cfg, "decompose", scalar_pencil_file]) == 2

    @pytest.mark.parametrize("args, message", [
        (["simulate", "{input}", "--x0", "-1,0"],
         "daepencil simulate: argument --x0: expected one argument; a value that starts with '-' is given as --x0=..."),
        (["indices", "{input}", "--num-points", "abc"],
         "daepencil indices: argument --num-points: invalid int value: 'abc'"),
        (["bogus"], "daepencil: argument command: invalid choice: 'bogus'"),
        ([], "daepencil: the following arguments are required: command"),
        (["--config"], "daepencil: argument --config: expected one argument"),
    ], ids=["negative-x0", "bad-int", "unknown-command", "no-command", "no-config-path"])
    def test_usage_error_is_one_json_object_exit_2(self, tmp_path, capsys, scalar_pencil_file, args, message):
        argv = [a.format(input=scalar_pencil_file) for a in args]
        assert main(argv + ["--output-dir", str(tmp_path / "out")] if argv else argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert json.loads(err)["message"].startswith(message)
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("args", [["--help"], ["simulate", "--help"]])
    def test_help_exit_0(self, capsys, args):
        assert main(args) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: daepencil") and err == ""

    def test_reports_with_a_config_record_blas_threads(self, tmp_path, monkeypatch, scalar_pencil_file):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "2")
        expected = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": "2"}
        out = str(tmp_path)
        assert main(["indices", scalar_pencil_file, "--output-dir", out, "--num-samples", "10"]) == 0
        assert main(["analyze", scalar_pencil_file, "--output-dir", out, "--num-samples", "10"]) == 0
        assert main(["simulate", scalar_pencil_file, "--x0", "1", "--output-dir", out]) == 0
        indices_report, analyze, simulate = (
            json.load(open(os.path.join(out, name))) for name in ("indices.json", "analyze.json", "simulate.json")
        )
        for config in (indices_report["config"], analyze["indices"]["config"], simulate["config"]):
            assert config["blas_threads"] == expected


def _count_calls(monkeypatch, names):
    """Count calls of daepencil functions, patched wherever they were imported."""
    counts = dict.fromkeys(names, 0)
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "daepencil"]
    for name in names:
        original = getattr(daepencil, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for mod in modules:
            if vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, counted)
    return counts


@pytest.fixture
def ph_pencil_file(tmp_path):
    path = str(tmp_path / "ph.json")
    save_pencil(path, build_nanorod(NanorodParams(n_grid=4)))
    return path


class TestAnalyzeSharesWork:
    def test_each_stage_runs_once(self, tmp_path, monkeypatch, ph_pencil_file):
        counts = _count_calls(
            monkeypatch,
            [
                "decompose",
                "reconstruct",
                "probe_regularity",
                "estimate_resolvent_index_real",
                "estimate_resolvent_index_complex",
                "resolvent_norm",
                "resolvent_norms",
            ],
        )
        shifts = []
        evaluator = daepencil.indices.resolvent_norms

        def counted(pencil, lams, *args, **kwargs):
            shifts.append(len(lams))
            return evaluator(pencil, lams, *args, **kwargs)

        monkeypatch.setattr(daepencil.indices, "resolvent_norms", counted)
        code = main(["analyze", ph_pencil_file, "--output-dir", str(tmp_path), "--num-samples", "10"])
        assert code == 0
        # one evaluator call per estimator grid, and no per-shift SVD
        assert shifts == [64, 4 * 64]
        assert counts == {
            "decompose": 1,
            "reconstruct": 1,
            "probe_regularity": 0,  # decompose's shift proves regularity
            "estimate_resolvent_index_real": 1,
            "estimate_resolvent_index_complex": 1,
            "resolvent_norm": 0,
            "resolvent_norms": 2,
        }

    @pytest.mark.parametrize(
        "model", [["nanorod", "--n-grid", "4"], ["l2", "--K", "40"], ["zero-dyn", "--m", "4"]], ids=lambda m: m[0]
    )
    def test_estimates_record_the_evaluator(self, tmp_path, model):
        out = str(tmp_path)
        assert main(["example", *model, "--output-dir", out]) == 0
        pencil_file = os.path.join(out, [f for f in os.listdir(out) if f.endswith(".json")][0])
        assert main(["indices", pencil_file, "--output-dir", out, "--num-samples", "10"]) == 0
        report = json.load(open(os.path.join(out, "indices.json")))
        for key in ("real", "complex", "radiality"):
            assert report[key]["svd_fallbacks"] == 0
            assert 1 <= report[key]["lanczos_steps"] <= 30

    def test_bad_argument_refused_before_any_estimate(self, tmp_path, monkeypatch, capsys, ph_pencil_file):
        counts = _count_calls(monkeypatch, ["resolvent_norms"])
        assert main(["indices", ph_pencil_file, "--output-dir", str(tmp_path), "--num-samples", "0"]) == 2
        assert counts == {"resolvent_norms": 0}
        assert "num_samples must be finite and > 0" in capsys.readouterr().err

    def test_ph_section_uses_estimator_flags(self, tmp_path, ph_pencil_file):
        out = str(tmp_path)
        args = ["--lambda-span", "100", "--num-points", "16", "--num-samples", "10"]
        assert main(["analyze", ph_pencil_file, "--output-dir", out, *args]) == 0
        report = json.load(open(os.path.join(out, "analyze.json")))
        assert report["ph"]["real_index"] == report["indices"]["real"]
        assert report["ph"]["complex_index"] == report["indices"]["complex"]
        assert report["ph"]["real_index"]["omega"] == report["indices"]["config"]["omega"]


class TestReportSections:
    def test_sections_are_result_fields(self, tmp_path, ph_pencil_file):
        # each section is the fields of its result object; a report of one result adds the seed
        def fields(cls):
            return {field.name for field in dataclasses.fields(cls)}

        out = str(tmp_path)
        assert main(["decompose", ph_pencil_file, "--output-dir", out]) == 0
        assert main(["verify-ph", ph_pencil_file, "--output-dir", out]) == 0
        assert main(["analyze", ph_pencil_file, "--output-dir", out, "--num-samples", "10"]) == 0
        decomposition, ph, analyze = (
            json.load(open(os.path.join(out, name))) for name in ("decompose.json", "ph_report.json", "analyze.json")
        )
        assert set(decomposition) == fields(WeierstrassDecomposition) | {"seed"}
        assert set(ph) == fields(PhReport) | {"seed"}
        assert set(analyze["decomposition"]) == fields(WeierstrassDecomposition)
        assert set(analyze["ph"]) == fields(PhReport)
        assert set(analyze["indices"]["radiality"]) == fields(RadialityEvidence)
        indices, ph_analyze = analyze["indices"], analyze["ph"]
        for estimate in (indices["real"], indices["complex"], ph["real_index"], ph["complex_index"],
                         ph_analyze["real_index"], ph_analyze["complex_index"]):
            assert set(estimate) == fields(GrowthEstimate)


class TestOneQzPerCall:
    """Each call computes one QZ form, the one cached on the pencil, which every stage shares
    (for a real pencil the complex view is derived from it); no call runs ``eig``."""

    @pytest.fixture
    def scipy_calls(self, monkeypatch):
        """Calls of scipy.linalg.qz and scipy.linalg.eig, patched wherever they were imported."""
        calls = {"qz": 0, "eig": 0}
        modules = [scipy.linalg] + [m for key, m in sys.modules.items() if key.split(".")[0] == "daepencil"]
        for name in calls:
            original = getattr(scipy.linalg, name)

            def counted(*args, _name=name, _fn=original, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            for mod in modules:
                if vars(mod).get(name) is original:
                    monkeypatch.setattr(mod, name, counted)
        return calls

    def test_analyze(self, tmp_path, scipy_calls, ph_pencil_file):
        assert main(["analyze", ph_pencil_file, "--output-dir", str(tmp_path), "--num-samples", "10"]) == 0
        assert scipy_calls == {"qz": 1, "eig": 0}

    def test_indices(self, tmp_path, scipy_calls, ph_pencil_file):
        assert main(["indices", ph_pencil_file, "--output-dir", str(tmp_path), "--num-samples", "10"]) == 0
        assert scipy_calls == {"qz": 1, "eig": 0}

    def test_indices_below_nilpotency(self, tmp_path, scipy_calls, ph_pencil_file):
        # p + 1 < k: radiality forms no shift, and the growth estimates still share the one QZ form
        assert main(["indices", ph_pencil_file, "--output-dir", str(tmp_path), "--radiality-p", "0"]) == 0
        assert scipy_calls == {"qz": 1, "eig": 0}

    def test_verify_ph(self, tmp_path, scipy_calls, ph_pencil_file):
        assert main(["verify-ph", ph_pencil_file, "--output-dir", str(tmp_path)]) == 0
        assert scipy_calls == {"qz": 1, "eig": 0}

    def test_simulate(self, tmp_path, scipy_calls, ph_pencil_file):
        pencil = load_pencil(ph_pencil_file).pencil
        # x0 in the range of the pseudo-resolvent power, hence admissible
        z = np.random.default_rng(0).standard_normal(pencil.n)
        x0 = np.linalg.matrix_power(np.linalg.solve(3.0 * pencil.E - pencil.A, pencil.E), 4) @ z
        arg = ",".join(f"{v:.17g}" for v in (x0 / np.max(np.abs(x0))).real)
        assert main(["simulate", ph_pencil_file, "--x0", arg, "--output-dir", str(tmp_path)]) == 0
        assert scipy_calls == {"qz": 1, "eig": 0}

    def test_decompose(self, tmp_path, scipy_calls, ph_pencil_file):
        assert main(["decompose", ph_pencil_file, "--output-dir", str(tmp_path)]) == 0
        assert scipy_calls == {"qz": 0, "eig": 0}

    def test_only_core_binds_qz(self):
        # the one QZ form is MatrixPencil.schur's: no other module can run a QZ of its own
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "daepencil" and key != "daepencil.core"]
        assert modules and not [m.__name__ for m in modules if scipy.linalg.qz in vars(m).values()]


class TestQuadratureRecord:
    def test_simulate_nanorod(self, tmp_path, monkeypatch, ph_pencil_file):
        nodes = []
        original = daepencil.solver.resolvent_apply

        def counted(pencil, lams, b):
            nodes.append(len(lams))
            return original(pencil, lams, b)

        monkeypatch.setattr(daepencil.solver, "resolvent_apply", counted)
        ph = load_pencil(ph_pencil_file)
        A = ph.A @ ph.Q
        # x0 = ((3E - A)^{-1} E)^4 z for a seeded complex z, scaled to max-abs 1
        rng = np.random.default_rng([1, 1])
        x0 = rng.standard_normal(ph.n) + 1j * rng.standard_normal(ph.n)
        M = np.linalg.solve(3.0 * ph.E - A, ph.E)
        for _ in range(4):
            x0 = M @ x0
            x0 = x0 / np.linalg.norm(x0)
        x0_file = str(tmp_path / "x0.json")
        with open(x0_file, "w") as fh:
            json.dump([[v.real, v.imag] for v in x0 / np.max(np.abs(x0))], fh)
        args = ["--x0-file", x0_file, "--quad-tol", "1e-8", "--t-final", "1.0", "--num-steps", "100"]
        assert main(["simulate", ph_pencil_file, "--output-dir", str(tmp_path), *args]) == 0
        record = json.load(open(tmp_path / "simulate.json"))["quadrature"]
        assert sum(nodes) == record["nodes_evaluated"] == 7168
        assert record["last_difference"] <= 1e-8
        del record["last_difference"]
        assert record == {
            "half_length": 64.0,
            "nodes_per_panel": 64,
            "nodes_evaluated": 7168,
            "truncation_refinements": 1,
            "density_refinements": 2,
            "tail_terms": 6,
        }
