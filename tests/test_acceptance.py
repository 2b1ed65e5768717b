"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.
"""

import json
import re
import time

import pytest

import mrpower as mp
from mrpower.cli import main
from mrpower.suites import run_suite


def record(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def test_c01_example_channel_values():
    start = time.perf_counter()
    channels = mp.example_channels()
    values = {
        "c_g_channel": mp.measurement_cohering_power(channels["g"]),
        "cg_g_channel": mp.state_cohering_power(channels["g"]),
        "c_prep": mp.measurement_cohering_power(channels["prep"]),
        "cg_prep": mp.state_cohering_power(channels["prep"]),
    }
    elapsed = time.perf_counter() - start
    expected = {"c_g_channel": 1.0, "cg_g_channel": 0.0, "c_prep": 0.0, "cg_prep": 1.0}
    worst = max(abs(values[k] - expected[k]) for k in expected)
    record(
        "criterion 1: example channel powers",
        worst <= 1e-9 and elapsed < 1.0,
        f"max error {worst:.2e}, {elapsed:.2f}s",
    )


def test_c02_conversion_equality():
    start = time.perf_counter()
    reports = [
        run_suite("conversion_equality", dim=d, trials=200, seed=42, tol=1e-9)
        for d in (2, 3)
    ]
    elapsed = time.perf_counter() - start
    worst = max(r.max_violation for r in reports)
    ok = all(r.passed for r in reports) and worst <= 1e-9 and elapsed < 30.0
    record(
        "criterion 2: conversion equality (200 unitary + 200 general at d=2,3)",
        ok,
        f"max gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_c03_incoherent_structure():
    report = run_suite("structure_lemma", dim=4, trials=200, seed=42, tol=1e-10)
    record(
        "criterion 3: incoherent decomposition round trip (d<=4, n<=6)",
        report.passed,
        f"max residual {report.max_violation:.2e}",
    )


def test_c04_closed_form_vs_definition():
    start = time.perf_counter()
    report = run_suite("cm_oracle", dim=2, trials=50, seed=42, tol=1e-8)
    elapsed = time.perf_counter() - start
    record(
        "criterion 4: closed form vs the variational definition (50 POVMs)",
        report.passed and elapsed < 60.0,
        f"max gap {report.max_violation:.2e}, {elapsed:.1f}s",
    )


def test_c05_duality_sandwich_and_identity():
    reports = [run_suite("duality", dim=d, trials=200, seed=42, tol=1e-8) for d in (2, 3)]
    # identity residuals above 1e-10 are recorded as failures by the suite
    ok = all(r.passed for r in reports)
    record(
        "criterion 5: adjoint duality sandwich + exact identity (d=2,3)",
        ok,
        f"max violation {max(r.max_violation for r in reports):.2e}",
    )


def test_c06_monotone_axioms():
    monotone = [
        run_suite("power_monotone", dim=d, trials=100, seed=42, tol=1e-8) for d in (2, 3)
    ]
    convexity = [
        run_suite("power_convexity", dim=d, trials=20, seed=42, tol=1e-8) for d in (2, 3)
    ]
    ok = all(r.passed for r in monotone + convexity)
    worst = max(r.max_violation for r in monotone + convexity)
    record(
        "criterion 6: monotone axioms (faithfulness, 100 sandwiches, 20 mixtures)",
        ok,
        f"max violation {worst:.2e}",
    )


def test_c07_divergence_property_suite():
    reports = [
        run_suite("dm_properties", dim=d, trials=100, seed=42, tol=1e-8) for d in (2, 3)
    ]
    ok = all(r.passed for r in reports)
    record(
        "criterion 7: six divergence properties at d=2,3 (100 trials each)",
        ok,
        f"max violation {max(r.max_violation for r in reports):.2e}",
    )


def test_c08_sandwich_proxy_bound():
    report = run_suite("thm3_proxy", dim=2, trials=100, seed=42, tol=1e-8)
    record(
        "criterion 8: sandwiched-composite proxy stays below cohering power",
        report.passed,
        f"max excess {report.max_violation:.2e}",
    )


def test_c09_measurement_power_reduction():
    report = run_suite("thm7_reduction", dim=3, trials=100, seed=42, tol=1e-9)
    record(
        "criterion 9: measurement-as-channel power equals measurement-coherence",
        report.passed,
        f"max residual {report.max_violation:.2e}",
    )


def test_c10_report_determinism(tmp_path):
    args = ["verify", "--suite", "all", "--seed", "42"]
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    code_a = main(args + ["--out", str(first)])
    code_b = main(args + ["--out", str(second)])
    pattern = re.compile(r'"wall_time_ms": \d+')
    text_a = pattern.sub('"wall_time_ms": 0', first.read_text())
    text_b = pattern.sub('"wall_time_ms": 0', second.read_text())
    identical = text_a == text_b
    parsed = json.loads(text_a)
    record(
        "criterion 10: verify all --seed 42 reproduces byte-identical reports",
        code_a == 0 and code_b == 0 and identical and len(parsed) == 10,
        f"exit codes ({code_a}, {code_b}), identical={identical}",
    )
