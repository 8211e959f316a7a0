"""Byte-identical outputs on every shipped config.

For each ``configs/*.json`` the simulated trace (``trace.to_json()``, no
manifest) and the ``swarmchain analyze --output`` report with its
manifest removed must hash to the pinned SHA-256.  A change that alters
the RNG stream, a trace byte or a report byte fails here; such a change
re-pins on purpose and says so in CHANGES.md.
"""
import hashlib
import json
from pathlib import Path

import pytest

from swarmchain.cli import main
from swarmchain.sim import SimConfig, run_simulation

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# name: (sha256 of the trace JSON, sha256 of the report JSON without manifest)
PINS = {
    "collusion_n25": (
        "4424d0d71fa0d225fd05a727c4aee2218b5b668e39bab717b2cb12d0fac4be29",
        "ee5384a97cb54d498fbd034b65cb1f31c06d1346ebccda85b40eb72e558d77b6",
    ),
    "disappearance_n25": (
        "a560d5419522e3f0c72cee60680649909d4b9c1777965b4c6bc6836dda274dc5",
        "4aa68ef0b7d1ab90ccaed0e049dcf1268c103524262a03db073ac021f7de7775",
    ),
    "forge_n10": (
        "0a83966caa2efa6196d0924659ab15391293053f70017f009848403991c27d4e",
        "18e88c4346c1dd544272b1301b0325f46c1a3bb24428645f8b11d994b4d60189",
    ),
    "framing_n25": (
        "d9ed03ed141f73b6f8c1d359cfe96c9050a28d113b5223379f9f9a34e08193aa",
        "f4442d53a4f5297b8ce10547c178d637e9e9415c1d3ce367009295817509ad61",
    ),
    "framing_n48": (
        "340d1c789e755e8877bbd24b11f54cb5861ca4893c40cb59a08b06ea22ed917b",
        "16df718ab180648129d9f7905e55305ad75dc640013a9fbdeb76edc7ffe855cd",
    ),
    "honest_n25": (
        "4604e93dedf083b646af51c6f827414122bb16c19461c4709a315067b714668e",
        "a5e35ae8b7b96e5b2a274a649b1b83aff33edbfa97402b12c47336e7cada0572",
    ),
    "honest_n48": (
        "3f82b7f6a358b7985fda5a469e45ba4803b29cdbbd44456edf0fc31f98a3f8bc",
        "01a78cfda9e810121845f7d467598ef9c4407798b17e6c1b2468e8c9009df15d",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _outputs(name: str, tmp_path: Path) -> tuple[str, str]:
    config = SimConfig.from_dict(json.loads((CONFIGS / f"{name}.json").read_text()))
    trace_text = run_simulation(config).to_json()
    trace_path = tmp_path / "trace.json"
    report_path = tmp_path / "report.json"
    trace_path.write_text(trace_text)
    assert main(["analyze", "--trace", str(trace_path), "--output", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    del report["manifest"]
    return _sha256(trace_text), _sha256(json.dumps(report, indent=2, sort_keys=True) + "\n")


def test_every_config_is_pinned():
    assert sorted(PINS) == sorted(path.stem for path in CONFIGS.glob("*.json"))


@pytest.mark.parametrize("name", sorted(PINS))
def test_trace_and_report_bytes_are_pinned(name, tmp_path):
    assert _outputs(name, tmp_path) == PINS[name]
