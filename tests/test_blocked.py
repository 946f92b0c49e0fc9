import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helmgrid import TilePlan, bench, blocked_poly3, poly3_smooth
from helmgrid.blocked import FLOPS_PER_POINT_PER_SWEEP, FUSED_SWEEPS
from helmgrid.grid import ComplexGrid, ConstantK, WedgeK, build_wavenumber_field
from tests.conftest import MODES, make_operator, operator_for, random_field

WEIGHTS = (0.6 + 0.1j, -1.0 + 0.5j, 1.1 + 0.2j)


class TestTilePlan:
    def test_tile_too_small_names_minimum(self):
        with pytest.raises(ValueError, match="minimum viable size is 6"):
            TilePlan(5, 8)

    def test_segments_partition_exactly(self):
        plan = TilePlan(8, 8)
        segs = plan._segments(29, 8)
        assert segs[0][0] == 0 and segs[-1][1] == 29
        for (a0, a1), (b0, b1) in zip(segs, segs[1:]):
            assert a1 == b0
        # remainder 29 - 24 = 5 < 6 joins the last tile
        assert segs[-1] == (16, 29)

    def test_tiles_cover_domain(self):
        plan = TilePlan(6, 7)
        covered = np.zeros((20, 23), dtype=int)
        for (x0, x1), (y0, y1) in plan.tiles((20, 23)):
            covered[x0:x1, y0:y1] += 1
        assert np.all(covered == 1)


class TestBlockedPoly3:
    def test_single_tile_is_bitwise_identical(self, op31):
        u = random_field((31, 31), seed=0)
        b = random_field((31, 31), seed=1)
        got = blocked_poly3(op31, u, b, WEIGHTS, TilePlan(31, 31))
        want = poly3_smooth(op31, u, b, WEIGHTS)
        assert np.all(got == want)

    def test_zero_weights_identity_any_plan(self, op31):
        u = random_field((31, 31), seed=2)
        b = random_field((31, 31), seed=3)
        got = blocked_poly3(op31, u, b, (0, 0, 0), TilePlan(8, 8))
        np.testing.assert_array_equal(got, u)

    def test_tile_ladder_matches_naive(self):
        op = make_operator(129, 40.0, sigma_max=1.0)
        u = random_field((129, 129), seed=4)
        b = random_field((129, 129), seed=5)
        want = poly3_smooth(op, u, b, WEIGHTS)
        scale = np.abs(want)
        scale[scale == 0] = 1.0
        for t in (8, 16, 32, 64, 129):
            got = blocked_poly3(op, u, b, WEIGHTS, TilePlan(t, t))
            assert np.max(np.abs(got - want) / scale) <= 1e-15

    @settings(max_examples=150)
    @given(
        nx=st.integers(1, 40),
        ny=st.integers(1, 40),
        tx=st.integers(6, 24),
        ty=st.integers(6, 24),
        mode=st.sampled_from(MODES),
        k=st.one_of(
            st.floats(0.5, 40.0).map(ConstantK),
            st.tuples(st.floats(0.5, 40.0), st.floats(0.5, 40.0), st.floats(0.5, 40.0))
            .map(lambda ks: WedgeK(*ks)),
        ),
        sigma=st.floats(0.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(nx=29, ny=40, tx=8, ty=13, mode="physical", k=WedgeK(5.0, 20.0, 40.0),
             sigma=1.0, seed=0)  # both axes end in a tile that absorbs a remainder
    @example(nx=1, ny=1, tx=6, ty=6, mode="precond_grid", k=ConstantK(2.0),
             sigma=0.5, seed=1)  # one point: in-place and out-of-place products round apart
    @example(nx=17, ny=9, tx=24, ty=20, mode="precond_csl", k=WedgeK(3.0, 9.0, 27.0),
             sigma=2.0, seed=2)  # one tile wider and taller than the grid
    def test_any_operator_and_plan_is_bitwise_identical(self, nx, ny, tx, ty, mode, k, sigma, seed):
        # non-square complex-stretched grids, every operator flavour, constant
        # and wedge k, unequal tile sides and random complex weights
        rng = np.random.default_rng(seed)
        spacing_x, spacing_y = ((1.0 + 1j * sigma * rng.random(m + 1)) / (m + 1) for m in (nx, ny))
        g = ComplexGrid(spacing_x, spacing_y)
        op = operator_for(mode, g, build_wavenumber_field(k, g))
        u, b = random_field(g.shape, seed), random_field(g.shape, seed + 1)
        w = tuple(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        got = blocked_poly3(op, u, b, w, TilePlan(tx, ty))
        assert np.array_equal(got, poly3_smooth(op, u, b, w))


class TestBench:
    def test_single_plan_single_repetition(self, op31):
        rows = bench(op31, WEIGHTS, [TilePlan(8, 8)], repetitions=1)
        assert len(rows) == 1
        assert rows[0].plan == "8x8"
        assert rows[0].time_ms > 0

    def test_flop_model_hand_count(self, op31):
        # one tile covering the domain: no halo redundancy, so flops per
        # point equal 3 x (38 stencil + 14 update) = 156 exactly
        rows = bench(op31, WEIGHTS, [TilePlan(31, 31)], repetitions=1)
        assert rows[0].flops_per_point == pytest.approx(FUSED_SWEEPS * FLOPS_PER_POINT_PER_SWEEP)

    def test_model_monotonicity_over_ladder(self):
        op = make_operator(65, 20.0)
        plans = [TilePlan(t, t) for t in (8, 16, 32, 65)]
        rows = bench(op, WEIGHTS, plans, repetitions=1)
        flops = [r.flops_per_point for r in rows]
        traffic = [r.est_bytes_per_point for r in rows]
        intensity = [r.intensity for r in rows]
        assert all(a > b for a, b in zip(flops, flops[1:]))
        assert all(a > b for a, b in zip(traffic, traffic[1:]))
        assert all(a < b for a, b in zip(intensity, intensity[1:]))

    def test_empty_plan_list_rejected(self, op31):
        with pytest.raises(ValueError, match="plan"):
            bench(op31, WEIGHTS, [], repetitions=1)

    def test_correctness_reverified_deterministically(self, op31):
        rows1 = bench(op31, WEIGHTS, [TilePlan(8, 8)], repetitions=1, rng_seed=3)
        rows2 = bench(op31, WEIGHTS, [TilePlan(8, 8)], repetitions=1, rng_seed=3)
        assert rows1[0].flops_per_point == rows2[0].flops_per_point
        assert rows1[0].est_bytes_per_point == rows2[0].est_bytes_per_point
