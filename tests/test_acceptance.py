"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured evidence. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np
import pytest

from wavemux import (
    Allocation,
    Channel,
    RatePlan,
    Slot,
    aggregate_rate,
    allocate_bands,
    analyze,
    compare_spectra,
    count_compositions,
    demux,
    enumerate_compositions,
    frame_time,
    make_wavelet_system,
    mux,
    random_payloads,
    synthesize,
)
import wavemux.mra
from wavemux.cli import main
from oracles import (
    compositions_by_product_scan,
    compositions_by_pruned_scan,
    dense_synthesis_matrix,
)

EXPECTED_J3 = [
    (2, 0, 0), (1, 2, 0), (1, 1, 2), (1, 0, 4), (0, 4, 0),
    (0, 3, 2), (0, 2, 4), (0, 1, 6), (0, 0, 8),
]


def _pass(criterion: int, evidence: str) -> None:
    print(f"PASS criterion {criterion}: {evidence}")


def equal_rate_plan(n, j, r=64000, b=8):
    return RatePlan(n, j, r, b, tuple(Channel(f"u{i}", r) for i in range(1 << j)))


def composition_plan(comp, n, r=64000, b=8):
    j = len(comp)
    rates = []
    for tier, count in enumerate(comp, start=1):
        rates.extend([r << (j - tier)] * count)
    return RatePlan(n, j, r, b, tuple(Channel(f"u{i}", rate) for i, rate in enumerate(rates)))


def test_c1_composition_table_and_enumeration_oracle(capsys):
    """The 3-scale table is reproduced exactly and the enumerator agrees
    with independent brute-force scans up to 8 scales, within 1 second."""
    t0 = time.perf_counter()

    assert main(["compositions", "3"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l and not l.startswith("#")]
    rows = [tuple(int(v) for v in line.split(":")[1].split()) for line in lines]
    assert rows == EXPECTED_J3

    for j in range(1, 9):
        got = enumerate_compositions(j)
        assert got == compositions_by_pruned_scan(j)[::-1]
        assert len(got) == count_compositions(j)
        if j <= 5:
            assert set(got) == set(compositions_by_product_scan(j))

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.3f}s"
    _pass(1, f"9 rows exact; oracle match at 1..8 scales in {elapsed:.3f}s")


def test_c2_frame_time_numerology_exact():
    """Frame times and aggregate rates come out as exact rationals."""
    assert frame_time(equal_rate_plan(512, 3, 64000, 8)) == Fraction(8, 1000)
    assert frame_time(equal_rate_plan(64, 3, 64000, 8)) == Fraction(1, 1000)

    primary = [(256, 1), (128, 2), (64, 4), (32, 8)]
    for n, b in primary:
        plan = equal_rate_plan(n, 5, 64000, b)
        assert frame_time(plan) == Fraction(125, 1_000_000)
        assert aggregate_rate(plan) == 2_048_000
        assert frame_time(plan) * aggregate_rate(plan) == n * b
    _pass(2, "8 ms / 1 ms / 4x 125 us at 2.048 Mbps, zero tolerance")


def test_c3_perfect_reconstruction_sweep():
    """Analysis then synthesis is the identity to 1e-10 across sizes,
    depths, and both builtin wavelets, within 10 seconds."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2718)
    worst = 0.0
    for name in ("haar", "db4"):
        pair = make_wavelet_system(name)
        for n in (64, 256, 1024, 4096):
            for depth in (1, 2, 3, 4, 5):
                for _ in range(100):
                    x = rng.standard_normal(n)
                    err = float(np.max(np.abs(synthesize(analyze(x, depth, pair), depth, pair) - x)))
                    worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10, f"worst reconstruction error {worst:.3e}"
    assert elapsed < 10.0, f"criterion 3 took {elapsed:.3f}s"
    _pass(3, f"4000 frames, worst error {worst:.2e}, {elapsed:.2f}s")


def test_c4_end_to_end_digital_round_trip():
    """demux(mux(.)) is bit-exact for every composition up to 5 scales,
    both wavelets, within 30 seconds."""
    t0 = time.perf_counter()
    seed = 0
    n_plans = 0
    for j in range(1, 6):
        n = 1 << (j + 3)
        for comp in enumerate_compositions(j):
            plan = composition_plan(comp, n)
            for name in ("haar", "db4"):
                system = make_wavelet_system(name)
                seed += 1
                payloads = random_payloads(plan, seed)
                recovered = demux(plan, system, mux(plan, system, payloads))
                assert [(p.id, p.bits) for p in recovered] == [(p.id, p.bits) for p in payloads]
            n_plans += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"criterion 4 took {elapsed:.3f}s"
    _pass(4, f"{n_plans} plans x 2 wavelets bit-exact in {elapsed:.2f}s")


def test_c5_allocation_topologies():
    """The four canonical mixed-rate layouts allocate to the expected
    bands and leaves."""
    n = 64

    # two fast channels: one detail band, one leaf at level 1
    t1 = allocate_bands(composition_plan((2, 0, 0), n))
    assert t1 == Allocation(((Slot("u0", 1, 0),),), "u1") and t1.depth == 1

    # one fast + two medium: leaf moves to level 2
    t2 = allocate_bands(composition_plan((1, 2, 0), n))
    assert t2 == Allocation(((Slot("u0", 1, 0),), (Slot("u1", 1, 0),)), "u2") and t2.depth == 2

    # one fast + one medium + two basic
    t3 = allocate_bands(composition_plan((1, 1, 2), n))
    assert t3 == Allocation(((Slot("u0", 1, 0),), (Slot("u1", 1, 0),), (Slot("u2", 1, 0),)), "u3")
    assert t3.depth == 3

    # one fast + four basic: two basic channels time-share band 2
    t4 = allocate_bands(composition_plan((1, 0, 4), n))
    assert t4 == Allocation((
        (Slot("u0", 1, 0),),
        (Slot("u1", 2, 0), Slot("u2", 2, 1)),
        (Slot("u3", 1, 0),),
    ), "u4")
    assert t4.depth == 3
    _pass(5, "four mixed-rate topologies, incl. level-1 leaf and 2-phase band 2")


@pytest.mark.parametrize("j,n", [(2, 64), (2, 128), (2, 512), (2, 256), (3, 512), (4, 1024), (5, 2048)])
def test_c6_energy_and_length_properties(j, n):
    """Multiplexed and TDM signals share length and energy; Parseval
    holds for both spectra."""
    plan = equal_rate_plan(n, j)
    for name in ("haar", "db4"):
        system = make_wavelet_system(name)
        report = compare_spectra(plan, system, random_payloads(plan, seed=j * 10_000 + n))
        assert report.length == n
        rel_energy = abs(report.energy_tdm - report.energy_mrdm) / report.energy_tdm
        assert rel_energy <= 1e-9
        for mags, energy in (
            (report.mag_tdm, report.energy_tdm),
            (report.mag_mrdm, report.energy_mrdm),
        ):
            rel_parseval = abs(float(np.dot(mags, mags)) / n - energy) / energy
            assert rel_parseval <= 1e-9
    _pass(6, f"(J={j}, N={n}) equal length/energy and Parseval at 1e-9")


class _CountingNumpy:
    """NumPy as ``wavemux.mra`` sees it, counting the elements of every multiply."""

    def __init__(self) -> None:
        self.multiplies = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def multiply(self, *args, **kwargs):
        product = np.multiply(*args, **kwargs)
        self.multiplies += product.size
        return product


def test_c7_linear_complexity_scaling(monkeypatch):
    """Doubling the input at fixed filter length exactly doubles the work.

    The work is counted, not timed, so the test does not depend on the
    host: every multiply the lattice kernels ask NumPy for, element by
    element. A level of M samples costs (L/2 + 1) M multiplies (3M for
    db4, 2M for haar), so a depth-J cascade over N samples costs
    (L/2 + 1) 2N (1 - 2^-J) each way.
    """
    counter = _CountingNumpy()
    monkeypatch.setattr(wavemux.mra, "np", counter)
    rng = np.random.default_rng(31415)
    depth = 6

    def multiplies(transform, x, j, pair) -> int:
        counter.multiplies = 0
        transform(x, j, pair)
        return counter.multiplies

    for name in ("haar", "db4"):
        pair = make_wavelet_system(name)
        per_level = pair.g.size // 2 + 1
        counts = {}
        for p in range(6, 20):
            n = 1 << p
            x = rng.standard_normal(n)
            assert multiplies(analyze, x, 1, pair) == per_level * n
            counts[p] = multiplies(analyze, x, depth, pair)
            assert counts[p] == per_level * 2 * (n - (n >> depth))  # (L/2 + 1) 2N (1 - 2^-J)
            assert multiplies(synthesize, x, depth, pair) == counts[p]
        assert all(counts[p + 1] == 2 * counts[p] for p in range(6, 19))
        _pass(7, f"{name}: {per_level}N multiplies per level, {counts[19]} for a J={depth} cascade"
                 f" over N = 2^19, doubling exactly with N from 2^6")


def test_c8_dense_matrix_synthesis_oracle():
    """Synthesis agrees with an explicit dense operator on tiny frames."""
    pair = make_wavelet_system("haar")
    rng = np.random.default_rng(999)
    cases = 0
    for n in (2, 4, 8, 16):
        for depth in range(1, n.bit_length()):
            matrix = dense_synthesis_matrix(n, depth, pair.g, pair.h)
            # 20 flat coefficient vectors, one per row: synthesized as one block
            coeffs = rng.standard_normal((20, n))
            direct = synthesize(coeffs, depth, pair)
            via_matrix = coeffs @ matrix.T
            assert np.max(np.abs(direct - via_matrix)) <= 1e-12
            cases += len(coeffs)
    _pass(8, f"{cases} random frames match the dense operator at 1e-12")
