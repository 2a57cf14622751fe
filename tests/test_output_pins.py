"""Every scientific output of every command, pinned.

`output_pins.py` runs solve, evolve with snapshots, stability, subadd and
validate in-process on the benchmark's cli_wide config and on README's
config block.  On the platform the pin file was made on, each output file
but metadata.json must keep its sha256; on any platform, the numbers each
file holds must stay within the allowances `output_pins.ALLOWANCE` takes
from `trinls.tolerances`.  A change that moves bits on purpose rewrites the
pins (`PYTHONPATH=src python tests/output_pins.py`).
"""

import json

import pytest

import output_pins


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned")
    output_pins.run_commands(root)
    return output_pins.outputs(root)


@pytest.fixture(scope="module")
def pins():
    return json.loads(output_pins.PINS.read_text())


def test_same_files(run, pins):
    assert sorted(run) == sorted(pins["files"])


def test_numbers_within_tolerances(run, pins):
    off = {name: output_pins.mismatches(pin["numbers"], run[name]["numbers"])
           for name, pin in pins["files"].items() if name in run}
    assert {name: paths for name, paths in off.items() if paths} == {}


def test_bytes_on_the_pinned_platform(run, pins):
    # the hashes rest on pocketfft, libm and the long double; on another
    # platform the numbers above are the check
    if pins["platform"] != output_pins.platform_key():
        return
    changed = [name for name, pin in pins["files"].items()
               if name in run and run[name]["sha256"] != pin["sha256"]]
    assert changed == []


@pytest.mark.parametrize("pinned, got, off", [
    ({"lambda": -1.0}, {"lambda": -1.0 - 5e-6}, []),
    ({"lambda": -1.0}, {"lambda": -1.0 - 2e-5}, [("lambda",)]),
    ({"iterations": 16}, {"iterations": 17}, []),
    ({"grid": {"n": 1024}}, {"grid": {"n": 1025}}, [("grid", "n")]),
    ({"verdicts": {"0": "bounded"}}, {"verdicts": {"0": "escaped"}}, [("verdicts", "0")]),
    ({"distances": [1e-3, 2e-3]}, {"distances": [1e-3]}, [("distances",)]),
])
def test_allowances(pinned, got, off):
    # the off-platform comparison: a listed allowance, None, or exact
    assert output_pins.mismatches(pinned, got) == off
