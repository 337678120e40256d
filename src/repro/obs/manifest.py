"""Run manifests: every report artifact describes its own provenance.

A manifest answers "what exact inputs produced this file" without
consulting anything outside the file: config hash, seed, git revision,
interpreter and numpy versions, platform, CPU count, and (optionally)
an observability summary.  Deliberately absent: wall-clock timestamps
and worker counts — both vary between byte-identical reruns, and
campaign/sweep reports are asserted byte-identical across serial vs
pooled execution.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
from typing import Dict, Optional

import numpy

MANIFEST_SCHEMA_VERSION = 1


def config_hash(config_dict: Dict[str, object]) -> str:
    """Stable sha256 of a config's sorted-keys JSON form."""
    payload = json.dumps(config_dict, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def git_revision(repo_dir: Optional[str] = None) -> Optional[str]:
    """Current git commit hash, or None outside a work tree."""
    if repo_dir is None:
        repo_dir = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_dir, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    rev = out.stdout.strip()
    return rev or None


def build_manifest(command: str,
                   config_dict: Dict[str, object],
                   seed: int,
                   obs_summary: Optional[Dict[str, object]] = None,
                   extra: Optional[Dict[str, object]] = None
                   ) -> Dict[str, object]:
    """Self-describing provenance block for one report artifact.

    ``command`` names the producing entry point (``campaign``,
    ``sweep``, ``bench``); ``extra`` merges caller-specific fields
    (e.g. which cells ran) at the top level.
    """
    manifest: Dict[str, object] = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "command": command,
        "config_hash": config_hash(config_dict),
        "seed": int(seed),
        "git_rev": git_revision(),
        "packages": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "platform": f"{platform.system()}-{platform.machine()}",
        "cpu_count": os.cpu_count(),
    }
    if obs_summary is not None:
        manifest["obs"] = obs_summary
    if extra:
        manifest.update(extra)
    return manifest
