"""Build the package the way its own `setup.py` does, outside the tree.

The package sources are copied into a scratch directory and built there
with `python setup.py build`, so nothing the build leaves behind (build/,
*.egg-info) lands in the checkout's source tree.  Whatever extension
modules `setup.py` declares are compiled; the harness never names them.
A build is cached under a key made from the copied files, so later runs
in the same checkout reuse it and a source change rebuilds.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

TOP_FILES = ("setup.py", "pyproject.toml", "setup.cfg", "MANIFEST.in", "README.md")
SKIP_DIRS = {"__pycache__", "build"}
SKIP_SUFFIXES = (".so", ".pyd", ".o", ".pyc")


class BuildError(Exception):
    pass


def package_files(root: Path) -> list[Path]:
    """The files `setup.py` builds from, relative to root."""
    if not (root / "setup.py").is_file() or not (root / "src").is_dir():
        raise BuildError(f"no setup.py and src/ under {root}: nothing to build")
    files = [Path(f) for f in TOP_FILES if (root / f).is_file()]
    for dirpath, dirnames, filenames in os.walk(root / "src"):
        dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS and not d.endswith(".egg-info"))
        for name in sorted(filenames):
            if not name.endswith(SKIP_SUFFIXES):
                files.append(Path(dirpath, name).relative_to(root))
    return files


def build(root: Path, cache: Path) -> dict:
    """Return {"lib": path to put on PYTHONPATH, "build_s": ..., "key": ...,
    "cached": bool}, building first if this source tree has no build yet."""
    files = package_files(root)
    digest = hashlib.sha256()
    for rel in files:
        digest.update(str(rel).encode() + b"\0" + (root / rel).read_bytes() + b"\0")
    key = digest.hexdigest()[:16]
    done = cache / key
    record = done / "build.json"
    if record.is_file():
        info = json.loads(record.read_text())
        info["lib"] = str(done / info["lib"])
        info["cached"] = True
        return info

    tmp = cache / f"{key}.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    for rel in files:
        (tmp / rel).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(root / rel, tmp / rel)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build"],
        cwd=tmp, capture_output=True, text=True, timeout=850,
    )
    build_s = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BuildError(f"setup.py build failed ({proc.returncode}):\n{proc.stdout}\n{proc.stderr}")
    libs = sorted(p.parent.parent for p in tmp.glob("build/lib*/*/__init__.py"))
    if len(libs) != 1:
        raise BuildError(f"expected one built library directory, found {libs}")
    info = {"lib": str(libs[0].relative_to(tmp)), "build_s": build_s, "key": key}
    (tmp / "build.json").write_text(json.dumps(info))
    shutil.rmtree(done, ignore_errors=True)
    tmp.rename(done)
    info["lib"] = str(done / info["lib"])
    info["cached"] = False
    return info
