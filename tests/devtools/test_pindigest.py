"""The CI pin-digest artifact tool must agree with the tier-1 pins."""

from __future__ import annotations

import json

import pytest

from repro.devtools.pindigest import (
    EXPECTED_PINS,
    PIN_SCHEMA,
    build_artifact,
    check_artifact,
    main,
)


def test_small_pin_matches_canonical_value():
    artifact = build_artifact(only=["small_seed55"])
    assert artifact == {
        "schema": PIN_SCHEMA,
        "pins": {"small_seed55": EXPECTED_PINS["small_seed55"]},
    }
    assert check_artifact(artifact) == []


def test_check_reports_divergence():
    artifact = {"schema": PIN_SCHEMA, "pins": {"small_seed55": "0" * 64}}
    failures = check_artifact(artifact)
    assert len(failures) == 1
    assert "small_seed55" in failures[0]
    assert EXPECTED_PINS["small_seed55"] in failures[0]


def test_unknown_pin_rejected():
    with pytest.raises(ValueError):
        build_artifact(only=["nope"])


def test_cli_writes_artifact_and_gates(tmp_path, capsys):
    out = tmp_path / "pins.json"
    code = main(["--only", "small_seed55", "--out", str(out), "--check"])
    assert code == 0
    artifact = json.loads(out.read_text())
    assert artifact["schema"] == PIN_SCHEMA
    assert artifact["pins"] == {"small_seed55": EXPECTED_PINS["small_seed55"]}
    assert "match the canonical values" in capsys.readouterr().out
