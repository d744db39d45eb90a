"""Byte-stable artifacts: every file `run_experiment` writes for the shipped
configs, pinned by SHA-256 in artifact_digests.json.

Matrix products round differently under different BLAS kernels, and those
ulps carry through hundreds of training steps, so each config runs in a child
process on one fixed OpenBLAS kernel (PINNED_BLAS): AVX2 `Haswell`, which
every AVX2 x86-64 host can run, on one thread.  The file records the
environment the digests were pinned in (numpy, OpenBLAS, core type, threads,
and scipy, whose `expit` feeds the attacker fit behind `mia_efficacy`), and a
mismatch prints it next to the child's, so a host that differs there does
not read as a change of behaviour.

report.txt is hashed without its seconds column and timings.json is left out;
both hold wall times.  Next to the digests the file keeps, for each CSV column
and each checkpoint, the min, max and sum of its values, so a mismatch says
how far each moved file moved: a change in the last bits (a BLAS or host
change, or a few ulps of noise variance) reads about 1e-15 relative, a change
of behaviour far more.  After a deliberate change, re-pin with
`PYTHONPATH=src python tests/test_artifacts.py` and list the moved files.
"""

import csv
import ctypes
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from blockwise_unlearn import harness
from blockwise_unlearn import model as mdl

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).parent / "artifact_digests.json"
CONFIGS = ("blobs_random10", "blobs_classwise")
SECONDS_COLUMN = 10  # the report's last column: a space and a 9-wide field
PINNED_BLAS = {"OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1"}


def report_without_seconds(text: str) -> bytes:
    """report.txt with the seconds column cut from each row of its table (the
    lines before the first blank one)."""
    lines = text.split("\n")
    end = lines.index("") if "" in lines else len(lines)
    return "\n".join([line[:-SECONDS_COLUMN] for line in lines[:end]] + lines[end:]).encode()


def stats(values) -> list:
    return [min(values), max(values), math.fsum(values)]


def file_numbers(path: Path) -> dict | list | None:
    """min, max and sum of each numeric CSV column, or of a checkpoint's values."""
    if path.suffix == ".ckpt":
        return stats(mdl.load_params(path).values.tolist())
    if path.suffix != ".csv":
        return None
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    columns = {}
    for name in rows[0]:
        try:  # blank cells (`block` of a fine-tune step) are left out
            values = [float(row[name]) for row in rows if row[name] != ""]
        except ValueError:  # a label column such as `phase`
            continue
        if values:
            columns[name] = stats(values)
    return columns


def fingerprint(out: Path) -> dict:
    """Digest of every artifact under `out`, and the numbers of CSVs and checkpoints."""
    digests, values = {}, {}
    for path in sorted(p for p in out.iterdir() if p.name != "timings.json"):
        data = path.read_bytes()
        if path.name == "report.txt":
            data = report_without_seconds(data.decode())
        digests[path.name] = hashlib.sha256(data).hexdigest()
        if (found := file_numbers(path)) is not None:
            values[path.name] = found
    return {"sha256": digests, "numbers": values}


def largest_move(old, new) -> float:
    """Largest change among recorded statistics, relative to their magnitude."""
    scale = max(max(abs(v) for v in old), 1e-300)
    return max(abs(a - b) for a, b in zip(old, new)) / scale


def describe(expected: dict, got: dict) -> str:
    """Each added, missing or moved file, with how far its numbers moved."""
    lines = []
    names = sorted(set(expected["sha256"]) | set(got["sha256"]))
    for name in names:
        old, new = expected["sha256"].get(name), got["sha256"].get(name)
        if old == new:
            continue
        if old is None or new is None:
            lines.append(f"{name}: {'added' if old is None else 'missing'}")
            continue
        before, after = expected["numbers"].get(name), got["numbers"].get(name)
        if isinstance(before, dict):
            moves = ", ".join(
                f"{col} {largest_move(before[col], after[col]):.1e}"
                for col in before if col in after and before[col] != after[col]
            )
            lines.append(f"{name}: moved; relative change of min/max/sum: {moves or 'none'}")
        elif before is not None:
            lines.append(f"{name}: moved; relative change of min/max/sum "
                         f"{largest_move(before, after):.1e}")
        else:
            lines.append(f"{name}: moved")
    return "\n".join(lines)


def _openblas(query: str, restype):
    """The result of OpenBLAS's `openblas_<query>` in the library bundled
    with numpy, or None where there is no such library or symbol."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in (f"scipy_openblas_{query}64_", f"scipy_openblas_{query}"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = restype
                return fn()
    return None


def run_environment() -> dict:
    """numpy's version, its BLAS and that BLAS's core type and thread count
    as this process runs them, and scipy's version."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = _openblas("get_corename", ctypes.c_char_p)
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas.get('version')}",
        "core_type": core.decode() if core is not None else None,
        "threads": _openblas("get_num_threads", ctypes.c_int),
        "scipy": scipy.__version__,
    }


def run(name: str, out: Path) -> tuple[dict, dict]:
    """The environment of a child process that ran config `name` into
    `out` under PINNED_BLAS, and the fingerprint of what it wrote."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, __file__, "--child", name, str(out)],
        env={**os.environ, **PINNED_BLAS, "PYTHONPATH": path},
        capture_output=True, text=True,
    )
    if child.returncode != 0:
        pytest.fail(f"{name}: the child run failed:\n{child.stderr}")
    return json.loads(child.stdout.splitlines()[-1]), fingerprint(out)


@pytest.mark.parametrize("name", CONFIGS)
def test_artifacts_match_digests(name, tmp_path):
    pinned = json.loads(DIGESTS.read_text())
    environment, got = run(name, tmp_path)
    expected = pinned[name]
    if got != expected:
        pytest.fail(f"{name} artifacts moved:\n{describe(expected, got)}\n"
                    f"pinned in: {pinned['environment']}\n"
                    f"run in:    {environment}")


def test_report_seconds_column_cut():
    text = ("Method  UA    RTE(s)\n"
            "retrain 1.0      0.052\n"
            "cell    2.0     12.345\n"
            "\nerrors:\n  cell: DomainError: x\n")
    cut = report_without_seconds(text).decode().split("\n")
    assert cut[:3] == ["Method  UA", "retrain 1.0 ", "cell    2.0 "]
    assert cut[3:] == ["", "errors:", "  cell: DomainError: x", ""]


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        config_name, out = sys.argv[2:4]
        config = harness.load_config(ROOT / "configs" / f"{config_name}.json")
        harness.run_experiment(config, output_dir=out)
        print(json.dumps(run_environment()))
        sys.exit()
    import tempfile

    pinned = {}
    for config_name in CONFIGS:
        with tempfile.TemporaryDirectory() as tmp:
            pinned["environment"], pinned[config_name] = run(config_name, Path(tmp))
    DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
