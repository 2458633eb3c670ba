"""Golden outputs: export bytes and verify verdicts of every preset.

The hashes and verdicts were recorded from the CLI; any change to sampling,
closed forms, singular flagging or serialization shows up here.
"""

import hashlib
import json

import numpy as np
import pytest

from mkdvsurf.cli import main

GOLDEN_N = 21

EXPORT_SHA256 = {
    "ex2": {
        "obj": "0ab1720b4e2546a67a869b7bf19a831aa6889940c70937dbfe23a97dcafa8a21",
        "csv": "44db9deb28800e8d4b533056263d5be327b3dd7e880f00ddfe5493e1bca92154",
        "json": "5be6510c1c6f20ef85a4490478e8379b35b17b2f0bc5a6c55edafb8876f7c9bd",
    },
    "ex3": {
        "obj": "d8b0a907b6c5c0884da51f0418c9b17e7336dd7221ac961dc669466b8796e4f9",
        "csv": "4d92b57a94a010939f68be7313a7f613762e00a6c2d5772f164f56da49fb3760",
        "json": "8e00222eaccd0c2ec22b82fd71d13662b53c84fc2705fd0b858235b0d9afa554",
    },
    "ex4": {
        "obj": "e896e79adb872c215b626ed8b5b3bcceeb18f2fd454d9e4517bc4916b77cda4e",
        "csv": "9a753b0f8f5ad5df6692d25cc5a4e2cff78de6bd3e5fa59ee22acb038eb8a81d",
        "json": "edd8ca5dfb41e5bd3ab7a852175ae3e716e5e981364233629ba49f1700a9af00",
    },
    "ex5": {
        "obj": "265667aae471f571c8fad12a239f6d841c453ca61769ff86eee4ea07a9dd8758",
        "csv": "c583fb3d1fca72e4b7ceca9bc785a85c20770f22b5eea22ea9db0fea73075c76",
        "json": "d7425d8a6659779ccc929a5e24599b8467ea31da46228ba923f3854c35e54e4d",
    },
    "ex6": {
        "obj": "4fa5e3cff79130f782f693b5cc512d6c630fcc11d93163d91bb21c56c32db75a",
        "csv": "33c400ef0fc1130ae1adef569e8479edd438a4a824dd72240b2a29ba814b3954",
        "json": "c7e4b07a87400c526539d30fa85326318e5a74e1477e189bac40090eb0015fc8",
    },
    "ex7": {
        "obj": "69ae813b5ac197d5cbcff3a24c6fcb9daef58f414a41bc57ffb6577474b47625",
        "csv": "e6239b6eb9e67af61f388911d7ba70fb1f7246be9934aca9ea3ad309a934236f",
        "json": "5556f63a780ff482234b999ac0896d6717fa5296571a316a0de277770c243218",
    },
    "ex8": {
        "obj": "4ef163a624ca5ecd8c06a029ae2647b67515776ec46afbba0ccd2840ac640065",
        "csv": "bcd5eb87f977fe89cff0ef7e3f03fc51375cf821eb085e06029ed752e554f6fa",
        "json": "e6eb4a34487dd74e95651b8ae5d4a10618e524348a40905eb2b72bac8db01449",
    },
}

# 101 x 97 = 9797 vertices: more than two of the writers' 4096-row blocks
# and not a multiple of one, so block boundaries are pinned as well
MULTI_BLOCK_GRID = (101, 97)
MULTI_BLOCK_SHA256 = {
    "ex4": {
        "obj": "4d6c68674ffba675de31a6f389d4ebfe7c6932169294d9f57aa463b595c318d0",
        "csv": "1b2a4d64acecbe5c448ec65c97f2030f6ba8bea8a89735e2ee4ee997eb84be87",
        "json": "88fabf6b1f968ebf89ffaae240507ab58d3d08ebe93b6a1f10215973dd53727a",
    },
    "ex7": {
        "obj": "829535eb2a93905dc55a651ae2b6341d1d015dd85f9b9da096a73fb9acdfe7cd",
        "csv": "b945f1e2b4a476d89150a7ee3ebd63f7ef7e671fab43497e88154ac083792c67",
        "json": "4c998edf40f0bd09636c1e057ac27523caf023915ca992b4e09571c177e74e3f",
    },
}



def _pins_recorded_on() -> str:
    """What the export pins were recorded on, beside this host's numpy: the
    last digits of the exported floats follow numpy's SIMD dispatch."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    found = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    avx512f = "show" if __cpu_features__.get("AVX512F") else "do not show"
    return (f"the sha256 pins were recorded with numpy 2.4.6 on AVX-512; this host has "
            f"numpy {np.__version__}, whose runtime CPU features {avx512f} AVX512F, "
            f"dispatch targets found: {found}")


# checks `verify --checks all` skips per preset; every other check passes
SKIPPED = {
    "ex2": (),
    "ex3": ("willmore", "sphere"),
    "ex4": ("willmore",),
    "ex5": ("willmore",),
    "ex6": ("weingarten", "willmore", "shape", "sphere"),
    "ex7": ("weingarten", "willmore", "shape"),
    "ex8": ("weingarten", "willmore", "shape"),
}
CHECKS = ("zerocurv", "lax", "compat", "forms", "weingarten", "willmore",
          "shape", "sphere", "consistency")


@pytest.mark.parametrize("fmt", ["obj", "csv", "json"])
@pytest.mark.parametrize("pid", sorted(EXPORT_SHA256))
def test_export_bytes(pid, fmt, tmp_path, capsys):
    out = tmp_path / f"{pid}.{fmt}"
    n = str(GOLDEN_N)
    code = main(["generate", "--preset", pid, "--nx", n, "--nt", n,
                 "--format", fmt, "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXPORT_SHA256[pid][fmt], (
        _pins_recorded_on())


@pytest.mark.parametrize("fmt", ["obj", "csv", "json"])
@pytest.mark.parametrize("pid", sorted(MULTI_BLOCK_SHA256))
def test_export_bytes_multi_block(pid, fmt, tmp_path, capsys):
    out = tmp_path / f"{pid}.{fmt}"
    nx, nt = map(str, MULTI_BLOCK_GRID)
    code = main(["generate", "--preset", pid, "--nx", nx, "--nt", nt,
                 "--format", fmt, "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == MULTI_BLOCK_SHA256[pid][fmt], (
        _pins_recorded_on())


@pytest.mark.parametrize("pid", sorted(SKIPPED))
def test_verify_verdicts(pid, capsys):
    code = main(["verify", "--preset", pid, "--checks", "all", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    got = {c["name"]: c["status"] for c in doc["checks"]}
    assert got == {name: "skip" if name in SKIPPED[pid] else "pass" for name in CHECKS}
