"""Byte-identical outputs on every shipped config.

For each ``configs/*.json`` the simulated trace (``trace.to_json()``, no
manifest) and the ``swarmchain analyze --output`` report with its
manifest removed must hash to the pinned SHA-256.  A change that alters
the RNG stream, a trace byte or a report byte fails here; such a change
re-pins on purpose and says so in CHANGES.md.

Each report is pinned twice: as written (report version 2), and turned
back into report version 1 by :func:`as_version_1`, whose pins are the
version-1 reports' own.  A version-2 report that converts to the old
bytes holds every old verdict; only its layout changed.

The stdout of ``scripts/adversary_gallery.py`` is pinned too, so the
script keeps running and keeps printing what it printed.
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from swarmchain.cli import main
from swarmchain.detect import PAIRING_STATUS
from swarmchain.sim import SimConfig, run_simulation

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# name: (sha256 of the trace JSON, sha256 of the report JSON without
# manifest as version 1, the same as version 2)
PINS = {
    "collusion_n25": (
        "4424d0d71fa0d225fd05a727c4aee2218b5b668e39bab717b2cb12d0fac4be29",
        "ee5384a97cb54d498fbd034b65cb1f31c06d1346ebccda85b40eb72e558d77b6",
        "6a38577135823265e2fa4baf81683a00d2b83d7c39ba83a75089a0661772fbda",
    ),
    "disappearance_n25": (
        "a560d5419522e3f0c72cee60680649909d4b9c1777965b4c6bc6836dda274dc5",
        "4aa68ef0b7d1ab90ccaed0e049dcf1268c103524262a03db073ac021f7de7775",
        "acb658692736221d5162fae9e9ae159c7c5005525f37e46f9256a12ab6e6ce80",
    ),
    "forge_n10": (
        "0a83966caa2efa6196d0924659ab15391293053f70017f009848403991c27d4e",
        "18e88c4346c1dd544272b1301b0325f46c1a3bb24428645f8b11d994b4d60189",
        "9182fbc97626c651efb4d63a02afafc068302bd9db8f3eb81b502501a5a687be",
    ),
    "framing_n25": (
        "d9ed03ed141f73b6f8c1d359cfe96c9050a28d113b5223379f9f9a34e08193aa",
        "f4442d53a4f5297b8ce10547c178d637e9e9415c1d3ce367009295817509ad61",
        "eb1764eb088d33d0272104ee7c5d99c9aa411b22224288a1018571bde88df0ee",
    ),
    "framing_n48": (
        "340d1c789e755e8877bbd24b11f54cb5861ca4893c40cb59a08b06ea22ed917b",
        "16df718ab180648129d9f7905e55305ad75dc640013a9fbdeb76edc7ffe855cd",
        "1fd355d499b5c4fccd7d8de56ef09a08e163dafc32fe0e51bb1e42226d254b7f",
    ),
    "honest_n25": (
        "4604e93dedf083b646af51c6f827414122bb16c19461c4709a315067b714668e",
        "a5e35ae8b7b96e5b2a274a649b1b83aff33edbfa97402b12c47336e7cada0572",
        "ccd58658751cbd9e0862e40d67ff180b4fc7c645ec240d8c15c351b71a160c62",
    ),
    "honest_n48": (
        "3f82b7f6a358b7985fda5a469e45ba4803b29cdbbd44456edf0fc31f98a3f8bc",
        "01a78cfda9e810121845f7d467598ef9c4407798b17e6c1b2468e8c9009df15d",
        "dac020dba8d6b3bc41af9e3d36993e47f9e2631ac9ff97a6f23970ad0f3c2e4d",
    ),
}


def as_version_1(report: dict) -> dict:
    """A version-2 report document in the version-1 layout: each report's
    pairing columns become one object per robot, keyed by ``str(robot)``,
    holding the status name, the counts and the report's threshold (0 for
    an indeterminate row), and the report's own ``threshold`` goes."""

    def rows(suspicion: dict) -> dict:
        out = dict(suspicion)
        threshold = out.pop("threshold")
        columns = out["pairing"]
        out["pairing"] = {
            str(robot): {
                "status": PAIRING_STATUS[status],
                "paired": paired,
                "unpaired": unpaired,
                "threshold": 0 if PAIRING_STATUS[status] == "indeterminate" else threshold,
            }
            for robot, status, paired, unpaired in zip(
                columns["robot"], columns["status"], columns["paired"], columns["unpaired"]
            )
        }
        return out

    assert report["version"] == 2
    return {
        **report,
        "version": 1,
        "observers": [rows(observer) for observer in report["observers"]],
        "central": rows(report["central"]),
    }


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _dump_sha256(doc: dict) -> str:
    return _sha256(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _outputs(name: str, tmp_path: Path) -> tuple[tuple[str, str, str], set[str]]:
    """The pinned hashes of ``name``'s trace and report, and the status
    names the report's pairing columns hold."""
    config = SimConfig.from_dict(json.loads((CONFIGS / f"{name}.json").read_text()))
    trace_text = run_simulation(config).to_json()
    trace_path = tmp_path / "trace.json"
    report_path = tmp_path / "report.json"
    trace_path.write_text(trace_text)
    assert main(["analyze", "--trace", str(trace_path), "--output", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    del report["manifest"]
    hashes = _sha256(trace_text), _dump_sha256(as_version_1(report)), _dump_sha256(report)
    reports = (*report["observers"], report["central"])
    return hashes, {PAIRING_STATUS[code] for suspicion in reports for code in suspicion["pairing"]["status"]}


def test_every_config_is_pinned():
    assert sorted(PINS) == sorted(path.stem for path in CONFIGS.glob("*.json"))


# Between them the shipped configs' reports hold every status, so the
# conversion of each is pinned.
SUSPICIOUS = {"framing_n25", "framing_n48"}
NO_INDETERMINATE = {"forge_n10"}


@pytest.mark.parametrize("name", sorted(PINS))
def test_trace_and_report_bytes_are_pinned(name, tmp_path):
    hashes, statuses = _outputs(name, tmp_path)
    assert hashes == PINS[name]
    assert "trusted" in statuses
    assert ("suspicious" in statuses) == (name in SUSPICIOUS)
    assert ("indeterminate" in statuses) == (name not in NO_INDETERMINATE)


# sha256 of ``scripts/adversary_gallery.py``'s stdout at its default seed
GALLERY = "5fcb6ad5d616653f0acc92888bfaa99b1f549af4395680f9e588d1416caf4513"


def test_the_adversary_gallery_output_is_pinned():
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "adversary_gallery.py")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        check=True,
        timeout=60,
    )
    assert "pairing-suspicious: [2]" in result.stdout
    assert _sha256(result.stdout) == GALLERY
