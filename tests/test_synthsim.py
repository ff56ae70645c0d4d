"""Forward simulator: scatterers, travel times, frames and frame IO."""

import hashlib
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from soscorr.geometry import (ImagingGrid, TransducerArray, element_position,
                              slab_clip)
from soscorr.synthsim import (
    R_MIN,
    TRACE_CHUNK,
    ChannelFrame,
    Inclusion,
    MediumSpec,
    PulseSpec,
    ScattererField,
    frame_filename,
    gen_scatterers,
    read_frame,
    read_frame_set,
    receive_travel_times,
    simulate_frame,
    travel_times,
    write_frame,
    write_frame_set,
)
from soscorr import kernels, synthsim


def make_medium(inclusions=(), background=1500.0):
    grid = ImagingGrid(x0=-0.02 + 1.5e-4, z0=1.5e-4, dx=3e-4, dz=3e-4,
                       nx=134, nz=134)
    return MediumSpec(background_sos=background, grid=grid,
                      inclusions=tuple(inclusions))


class TestScatterers:
    def grid(self):
        # 10 mm x 10 mm extent
        return ImagingGrid(x0=-4.75e-3, z0=5.25e-3, dx=5e-4, dz=5e-4,
                           nx=20, nz=20)

    def test_count_formula(self):
        field = gen_scatterers(self.grid(), density=2.0, seed=7)
        assert field.positions.shape == (200, 2)
        assert field.amplitudes.shape == (200,)

    def test_same_seed_is_bit_identical(self):
        a = gen_scatterers(self.grid(), 2.0, seed=42)
        b = gen_scatterers(self.grid(), 2.0, seed=42)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_different_seeds_differ(self):
        a = gen_scatterers(self.grid(), 2.0, seed=1)
        b = gen_scatterers(self.grid(), 2.0, seed=2)
        assert not np.array_equal(a.positions, b.positions)

    def test_positions_inside_extent(self):
        g = self.grid()
        field = gen_scatterers(g, 4.0, seed=3)
        assert np.all(field.positions[:, 0] >= g.x_min)
        assert np.all(field.positions[:, 0] <= g.x_max)
        assert np.all(field.positions[:, 1] >= g.z_min)
        assert np.all(field.positions[:, 1] <= g.z_max)

    def test_invalid_density(self):
        with pytest.raises(ValueError):
            gen_scatterers(self.grid(), 0.0, seed=1)
        with pytest.raises(ValueError, match="density must be > 0"):
            gen_scatterers(self.grid(), np.nan, seed=1)


def trapezoid_travel_times(p_from, p_to, medium, step):
    """Reference: slowness integrated by the trapezoid rule at <= step."""
    p_from, p_to = np.broadcast_arrays(np.atleast_2d(p_from),
                                       np.atleast_2d(p_to))
    delta = p_to - p_from
    dist = np.hypot(delta[..., 0], delta[..., 1])
    n = max(int(np.ceil(dist.max() / step)), 1) + 1
    t = np.linspace(0.0, 1.0, n)
    w = np.full(n, 1.0)
    w[0] = w[-1] = 0.5
    px = p_from[..., 0, None] + delta[..., 0, None] * t
    pz = p_from[..., 1, None] + delta[..., 1, None] * t
    return (1.0 / medium.sos_at(px, pz)) @ w * dist / (n - 1)


def column_crossing(inc, p, d):
    """Inclusion.crossing's earlier form: columns (t_in, t_out), each
    (n, 1), for (n, 2) rays p + t*d."""
    cx, cz = inc.center
    hx, hz = inc.half_axes
    if inc.shape == "ellipse":
        u, v = (p[:, 0] - cx) / hx, (p[:, 1] - cz) / hz
        du, dv = d[:, 0] / hx, d[:, 1] / hz
        a = du**2 + dv**2
        b = u * du + v * dv
        root = np.sqrt(np.maximum(b**2 - a * (u**2 + v**2 - 1.0), 0.0))
        a = np.where(a > 0.0, a, np.inf)
        return ((-b - root) / a)[:, None], ((-b + root) / a)[:, None]
    t_in, t_out = slab_clip(p, d, (cx - hx, cz - hz), (cx + hx, cz + hz))
    return t_in[:, None], t_out[:, None]


def sorted_block_travel_times(p_from, p_to, medium):
    """Reference: travel_times' earlier block formula, kept word for
    word. Each ray is a row of a (rays, cuts) table whose cuts np.sort
    orders and whose pieces a short axis-1 sum adds; a row's arithmetic
    does not depend on the others, so all rays go in one block."""
    p_from, p_to = np.broadcast_arrays(np.atleast_2d(p_from),
                                       np.atleast_2d(p_to))
    p = p_from.reshape(-1, 2)
    d = p_to.reshape(-1, 2) - p
    dist = np.hypot(d[:, 0], d[:, 1])
    if medium.is_homogeneous:
        times = dist / medium.background_sos
    else:
        ends = np.zeros((p.shape[0], 1))
        cuts = [ends, ends + 1.0]
        for inc in medium.inclusions:
            cuts.extend(column_crossing(inc, p, d))
        t = np.sort(np.clip(np.column_stack(cuts), 0.0, 1.0), axis=1)
        mid = 0.5 * (t[:, 1:] + t[:, :-1])
        c = medium.sos_at(p[:, 0, None] + d[:, 0, None] * mid,
                          p[:, 1, None] + d[:, 1, None] * mid)
        times = (np.diff(t, axis=1) / c).sum(axis=1) * dist
    return times.reshape(p_from.shape[:-1])


def degenerate_rays(inclusions):
    """(p, q) rays that meet each inclusion at its edge cases: zero
    length at its centre and on its edge, starting, ending or lying
    wholly inside, through its centre along x and z, tangent to an
    ellipse and along each edge of a rectangle."""
    rays = [((0.0, 0.0), (0.0, 0.0)), ((-0.01, 0.02), (-0.01, 0.02))]
    for inc in inclusions:
        (cx, cz), (hx, hz) = inc.center, inc.half_axes
        rays += [
            ((cx, cz), (cx, cz)), ((cx + hx, cz), (cx + hx, cz)),
            ((cx, cz), (cx + 0.01, 0.0)), ((cx + 0.01, 0.0), (cx, cz)),
            ((cx - hx / 2, cz - hz / 2), (cx + hx / 2, cz + hz / 2)),
            ((cx - 0.01, cz), (cx + 0.01, cz)), ((cx, 0.0), (cx, cz + 0.01)),
        ]
        for sign in (-1.0, 1.0):
            # tangent to an ellipse, along the edges of a rectangle
            rays += [((cx - 0.01, cz + sign * hz), (cx + 0.01, cz + sign * hz)),
                     ((cx + sign * hx, 0.0), (cx + sign * hx, cz + 0.01))]
    p, q = np.array(rays).transpose(1, 0, 2)
    return p, q


class TestTravelTimes:
    def test_homogeneous_vertical(self):
        m = make_medium()
        assert travel_times([0, 0], [0, 0.015], m)[0] == pytest.approx(1.0e-5)

    def test_homogeneous_3_4_5(self):
        m = make_medium(background=1540.0)
        t = travel_times([0, 0], [0.003, 0.004], m)[0]
        assert t == pytest.approx(0.005 / 1540.0)
        assert t == pytest.approx(3.2468e-6, rel=1e-4)

    def test_piecewise_vertical_ray(self):
        # 5 mm of 1500 then 5 mm of a 1550 slab
        inc = Inclusion(shape="rectangle", center=(0.0, 7.5e-3),
                        half_axes=(0.02, 2.5e-3), sos=1550.0)
        m = make_medium([inc])
        t = travel_times([0, 0], [0, 0.01], m)[0]
        expected = 0.005 / 1500.0 + 0.005 / 1550.0
        assert expected == pytest.approx(6.5591e-6, rel=1e-4)
        assert t == pytest.approx(expected, rel=1e-3)

    def test_zero_length(self):
        m = make_medium([Inclusion("ellipse", (0, 0.01), (2e-3, 2e-3), 1550.0)])
        assert travel_times([0.001, 0.001], [0.001, 0.001], m)[0] == 0.0

    def test_broadcasting(self):
        m = make_medium()
        targets = np.array([[0.0, 0.015], [0.003, 0.004]])
        t = travel_times(np.zeros((1, 2)), targets, m)
        assert t.shape == (2,)
        assert t[0] == pytest.approx(0.015 / 1500.0)

    def test_out_of_extent_raises(self):
        m = make_medium()
        with pytest.raises(ValueError):
            travel_times([0, 0], [0, 0.5], m)

    @pytest.mark.parametrize("k", [0, 1], ids=["x", "z"])
    def test_nan_point_raises(self, k):
        """A NaN coordinate is no point inside the extent: it raises,
        where the trace would only carry it into NaN times."""
        m = make_medium([Inclusion("ellipse", (0, 0.01), (2e-3, 2e-3),
                                   1550.0)])
        p = np.array([[0.0, 0.01], [1e-3, 0.02]])
        p[1, k] = np.nan
        with pytest.raises(ValueError, match="outside 2x imaging extent"):
            travel_times(p, [0.0, 0.0], m)

    def test_out_of_extent_point_in_a_broadcast_call(self):
        """Bounds are checked on the given points, before broadcasting:
        one stray scatterer of a receive table still raises."""
        m = make_medium()
        rx = np.array([[x, 0.0] for x in (-0.01, 0.0, 0.01)])
        for k in range(2):
            s = np.column_stack([np.linspace(-0.01, 0.01, 5), np.full(5, 0.01)])
            s[3, k] = 0.5
            with pytest.raises(ValueError, match="outside 2x imaging extent"):
                travel_times(s[None, :, :], rx[:, None, :], m)


class TestExactTravelTimes:
    """Chord lengths against closed forms and the trapezoid rule."""

    ELLIPSE = Inclusion("ellipse", (-2e-3, 0.015), (5e-3, 3e-3), 1540.0)
    RECTANGLE = Inclusion("rectangle", (3e-3, 0.02), (4e-3, 2.5e-3), 1460.0)

    @pytest.mark.parametrize("inc", [ELLIPSE, RECTANGLE],
                             ids=["ellipse", "rectangle"])
    def test_trapezoid_rule_converges_to_exact(self, inc):
        m = make_medium([inc])
        rng = np.random.default_rng(3)
        p_from = np.column_stack([rng.uniform(-0.015, 0.015, 300),
                                  rng.uniform(0.005, 0.03, 300)])
        p_to = np.column_stack([rng.uniform(-0.019, 0.019, 300),
                                np.zeros(300)])
        exact = travel_times(p_from, p_to, m)
        fs = PulseSpec().sampling_frequency
        jump = abs(1.0 / inc.sos - 1.0 / m.background_sos)
        errors = []
        for k in (2, 10, 40):
            step = m.grid.dx / k
            err = np.abs(trapezoid_travel_times(p_from, p_to, m, step) - exact)
            # the rule misplaces each of the two boundary crossings by at
            # most half a step
            assert np.all(err <= step * jump * (1 + 1e-6) + 1e-18)
            errors.append(err.max() * fs)
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 0.02  # samples

    def test_ellipse_chord(self):
        # vertical ray through the centre of a circle of radius 3 mm
        inc = Inclusion("ellipse", (0.0, 0.01), (3e-3, 3e-3), 1550.0)
        t = travel_times([0, 0], [0, 0.02], make_medium([inc]))[0]
        assert t == pytest.approx(0.014 / 1500.0 + 0.006 / 1550.0, rel=1e-12)

    def test_overlapping_inclusions_last_wins(self):
        outer = Inclusion("ellipse", (0, 0.01), (3e-3, 3e-3), 1550.0)
        inner = Inclusion("ellipse", (0, 0.01), (1e-3, 1e-3), 1450.0)
        t = travel_times([0, 0], [0, 0.02], make_medium([outer, inner]))[0]
        assert t == pytest.approx(
            0.014 / 1500.0 + 0.004 / 1550.0 + 0.002 / 1450.0, rel=1e-12)
        # listed the other way round, the outer one covers the inner one
        t = travel_times([0, 0], [0, 0.02], make_medium([inner, outer]))[0]
        assert t == pytest.approx(0.014 / 1500.0 + 0.006 / 1550.0, rel=1e-12)

    def test_overlapping_rectangle_and_ellipse(self):
        # horizontal ray: rectangle over x in [-2, 4] mm, then an
        # ellipse over x in [1, 7] mm listed after it
        rect = Inclusion("rectangle", (1e-3, 0.01), (3e-3, 1e-3), 1450.0)
        ell = Inclusion("ellipse", (4e-3, 0.01), (3e-3, 2e-3), 1600.0)
        t = travel_times([-0.01, 0.01], [0.01, 0.01],
                         make_medium([rect, ell]))[0]
        expected = 0.011 / 1500.0 + 0.003 / 1450.0 + 0.006 / 1600.0
        assert t == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("inc", [
        Inclusion("ellipse", (0, 0.01), (3e-3, 3e-3), 1550.0),
        Inclusion("rectangle", (0, 0.01), (3e-3, 3e-3), 1550.0),
    ], ids=["ellipse", "rectangle"])
    def test_ray_starting_or_ending_inside(self, inc):
        m = make_medium([inc])
        expected = 0.003 / 1550.0 + 0.007 / 1500.0
        out = travel_times([0, 0.01], [0, 0.02], m)[0]
        back = travel_times([0, 0.02], [0, 0.01], m)[0]
        assert out == pytest.approx(expected, rel=1e-12)
        assert back == pytest.approx(expected, rel=1e-12)
        # both ends inside
        inside = travel_times([-1e-3, 0.009], [1e-3, 0.011], m)[0]
        assert inside == pytest.approx(np.hypot(2e-3, 2e-3) / 1550.0,
                                       rel=1e-12)

    def test_vertical_and_horizontal_rays(self):
        rect = Inclusion("rectangle", (0.0, 0.02), (2e-3, 1e-3), 1540.0)
        ell = Inclusion("ellipse", (-8e-3, 0.01), (2e-3, 1e-3), 1460.0)
        m = make_medium([rect, ell])
        # horizontal through the rectangle, outside its slab, and
        # through the ellipse's long axis
        t = travel_times([[-0.005, 0.02], [-0.005, 0.0225], [-0.015, 0.01]],
                         [[0.005, 0.02], [0.005, 0.0225], [-0.001, 0.01]], m)
        assert t[0] == pytest.approx(0.006 / 1500.0 + 0.004 / 1540.0,
                                     rel=1e-12)
        assert t[1] == pytest.approx(0.010 / 1500.0, rel=1e-12)
        assert t[2] == pytest.approx(0.010 / 1500.0 + 0.004 / 1460.0,
                                     rel=1e-12)
        # vertical through both, and along x outside the rectangle
        t = travel_times([[0.0, 0.0], [-8e-3, 0.0], [0.0025, 0.0]],
                         [[0.0, 0.03], [-8e-3, 0.03], [0.0025, 0.03]], m)
        assert t[0] == pytest.approx(0.028 / 1500.0 + 0.002 / 1540.0,
                                     rel=1e-12)
        assert t[1] == pytest.approx(0.028 / 1500.0 + 0.002 / 1460.0,
                                     rel=1e-12)
        assert t[2] == pytest.approx(0.030 / 1500.0, rel=1e-12)

    def test_ray_along_rectangle_edge(self):
        # edges belong to the inclusion, as in MediumSpec.sos_at; powers
        # of two keep the edge coordinates exact
        cz, hx, hz = 2.0**-6, 2.0**-9, 2.0**-10
        rect = Inclusion("rectangle", (0.0, cz), (hx, hz), 1540.0)
        m = make_medium([rect])
        t = travel_times([[hx, 0.0], [-0.005, cz - hz]],
                         [[hx, 0.03], [0.005, cz - hz]], m)
        assert t[0] == pytest.approx((0.03 - 2 * hz) / 1500.0
                                     + 2 * hz / 1540.0, rel=1e-12)
        assert t[1] == pytest.approx((0.01 - 2 * hx) / 1500.0
                                     + 2 * hx / 1540.0, rel=1e-12)

    def test_ray_tangent_to_ellipse(self):
        inc = Inclusion("ellipse", (0.0, 0.01), (3e-3, 2e-3), 1550.0)
        m = make_medium([inc])
        # horizontal ray touching the top of the ellipse
        t = travel_times([-0.01, 0.008], [0.01, 0.008], m)[0]
        assert t == pytest.approx(0.02 / 1500.0, rel=1e-12)

    def test_zero_length_rays_in_a_batch(self):
        rect = Inclusion("rectangle", (0.0, 0.01), (2e-3, 2e-3), 1540.0)
        ell = Inclusion("ellipse", (5e-3, 0.01), (2e-3, 2e-3), 1460.0)
        m = make_medium([rect, ell])
        p = np.array([[0.0, 0.01], [5e-3, 0.01], [-0.01, 0.02], [0.0, 0.0]])
        q = np.array([[0.0, 0.01], [5e-3, 0.01], [-0.01, 0.02], [0.0, 0.02]])
        with np.errstate(all="raise"):
            t = travel_times(p, q, m)
        assert np.array_equal(t[:3], np.zeros(3))
        assert t[3] == pytest.approx(0.016 / 1500.0 + 0.004 / 1540.0,
                                     rel=1e-12)

    @pytest.mark.parametrize("chunk", [TRACE_CHUNK, 7])
    @pytest.mark.parametrize("incs", [[ELLIPSE], [RECTANGLE],
                                      [ELLIPSE, RECTANGLE]],
                             ids=["ellipse", "rectangle", "both"])
    def test_receive_tables_equal_per_element_loop(self, monkeypatch, incs,
                                                   chunk):
        """One broadcast call equals a per-element loop, byte for byte,
        also where the rays span several trace blocks. At 7 rays a block
        the block edges fall inside the rows of the table, while the loop
        traces each row in one block."""
        m = make_medium(incs)
        array = TransducerArray()
        n = TRACE_CHUNK // array.num_elements + 7
        assert n % 7 != 0
        rng = np.random.default_rng(5)
        field = ScattererField(
            positions=np.column_stack([rng.uniform(-0.019, 0.019, n),
                                       rng.uniform(0.003, 0.03, n)]),
            amplitudes=np.ones(n),
        )
        loop = np.array([
            travel_times(field.positions, np.array([[x, 0.0]]), m)
            for x in array.element_x()
        ])
        monkeypatch.setattr(synthsim, "TRACE_CHUNK", chunk)
        table = receive_travel_times(field, m, array)
        assert table.shape == (array.num_elements, n)
        assert table.tobytes() == loop.tobytes()

    def test_receive_table_memory_is_bounded(self):
        """Tracing allocates nothing of the table's size but its output:
        each block of rays copies its own end points and writes its slice
        of the one table. One quick ellipse_p40 table at one thread stays
        below that table plus a few (rays x cuts) arrays of one block."""
        from soscorr.pipeline import (PipelineConfig, apply_quick,
                                      default_phantom_set)

        cfg = apply_quick(PipelineConfig(
            inclusions=dict(default_phantom_set())["ellipse_p40"]))
        field = gen_scatterers(cfg.scatterer_grid(), cfg.scatterer_density,
                               cfg.seed)
        medium = cfg.medium()
        table = cfg.array.num_elements * field.positions.shape[0] * 8
        cuts = 2 + 2 * len(medium.inclusions)
        block = TRACE_CHUNK * cuts * 8
        tracemalloc.start()
        try:
            receive_travel_times(field, medium, cfg.array)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < table + 8 * block

    def test_receive_tables_do_not_depend_on_threads(self):
        """Three workers share the table's trace blocks, four of whole
        element rows with a shorter last one; the table keeps its bytes."""
        m = make_medium([self.ELLIPSE, self.RECTANGLE])
        array = TransducerArray()
        assert array.num_elements % 3 != 0
        n = TRACE_CHUNK // 40 + 7
        rng = np.random.default_rng(6)
        field = ScattererField(
            positions=np.column_stack([rng.uniform(-0.019, 0.019, n),
                                       rng.uniform(0.003, 0.03, n)]),
            amplitudes=np.ones(n),
        )
        one = receive_travel_times(field, m, array, threads=1)
        three = receive_travel_times(field, m, array, threads=3)
        assert three.shape == (array.num_elements, n)
        assert three.tobytes() == one.tobytes()

    def test_workers_write_their_own_blocks_of_one_table(self, monkeypatch):
        """Four workers, more than the cores, write hundreds of small
        blocks into the one table while the interpreter switches threads
        as often as it allows: no block is lost or written twice."""
        m = make_medium([self.ELLIPSE])
        array = TransducerArray()
        n = 53
        rng = np.random.default_rng(7)
        field = ScattererField(
            positions=np.column_stack([rng.uniform(-0.019, 0.019, n),
                                       rng.uniform(0.003, 0.03, n)]),
            amplitudes=np.ones(n),
        )
        one = receive_travel_times(field, m, array)
        monkeypatch.setattr(synthsim, "TRACE_CHUNK", 16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            four = receive_travel_times(field, m, array, threads=4)
        finally:
            sys.setswitchinterval(interval)
        assert four.tobytes() == one.tobytes()


class TestTraceLayout:
    """travel_times traces each block with its rays along the last axis
    and orders the cuts by a network of row minima and maxima; the times
    are the bytes of the earlier (rays, cuts) formula."""

    # powers of two keep the rectangle's edges exact
    RECT = Inclusion("rectangle", (0.0, 2.0**-6), (2.0**-9, 2.0**-10), 1540.0)
    ELLIPSE = Inclusion("ellipse", (-8e-3, 0.01), (3e-3, 2e-3), 1460.0)
    # overlapping: a rectangle, then an ellipse listed after it, then a
    # small ellipse inside both
    OVER_RECT = Inclusion("rectangle", (1e-3, 0.01), (3e-3, 1e-3), 1450.0)
    OVER_ELL = Inclusion("ellipse", (4e-3, 0.01), (3e-3, 2e-3), 1600.0)
    INNER = Inclusion("ellipse", (2e-3, 0.01), (1e-3, 5e-4), 1480.0)
    MEDIA = {
        "none": (),
        "ellipse": (ELLIPSE,),
        "rectangle": (RECT,),
        "rectangle+ellipse": (OVER_RECT, OVER_ELL),
        "three": (OVER_RECT, OVER_ELL, INNER),
    }

    def rays(self, incs, n=3000):
        rng = np.random.default_rng(11)
        p = np.column_stack([rng.uniform(-0.019, 0.019, n),
                             rng.uniform(0.0, 0.03, n)])
        q = np.column_stack([rng.uniform(-0.019, 0.019, n),
                             rng.uniform(0.0, 0.03, n)])
        dp, dq = degenerate_rays(incs)
        return np.concatenate([dp, p]), np.concatenate([dq, q])

    @pytest.mark.parametrize("chunk", [TRACE_CHUNK, 7])
    @pytest.mark.parametrize("name", list(MEDIA))
    def test_equals_sorted_block_formula(self, monkeypatch, name, chunk):
        """0 to 3 inclusions: at most 7 pieces a ray, which the earlier
        axis-1 sum added one after another too."""
        incs = self.MEDIA[name]
        m = make_medium(incs)
        p, q = self.rays(incs)
        ref = sorted_block_travel_times(p, q, m)
        # a receive-style table: rows of elements, columns of scatterers
        rx = np.column_stack([np.linspace(-0.019, 0.019, 9), np.zeros(9)])
        ref_table = sorted_block_travel_times(p[None, :, :], rx[:, None, :], m)
        monkeypatch.setattr(synthsim, "TRACE_CHUNK", chunk)
        with np.errstate(all="raise"):
            t = travel_times(p, q, m)
            table = travel_times(p[None, :, :], rx[:, None, :], m)
        assert t.tobytes() == ref.tobytes()
        assert table.tobytes() == ref_table.tobytes()
        assert not np.any(np.signbit(t))

    @pytest.mark.parametrize("count", [4, 5])
    def test_nine_or_more_pieces_are_added_in_order(self, monkeypatch, count):
        """With 4 or more inclusions NumPy's axis-1 sum of the earlier
        formula adds pairwise, so the last bit may differ from it; the
        in-order sum stays within a few ulps and does not depend on the
        block size, down to one ray a block, where an axis-0 np.sum
        would add pairwise too."""
        incs = (self.OVER_RECT, self.OVER_ELL, self.INNER, self.ELLIPSE,
                self.RECT)[:count]
        m = make_medium(incs)
        p, q = self.rays(incs)
        ref = sorted_block_travel_times(p, q, m)
        t = travel_times(p, q, m)
        assert np.allclose(t, ref, rtol=4 * np.finfo(float).eps, atol=0.0)
        for chunk, rays in ((7, slice(None)), (1, slice(0, 300))):
            monkeypatch.setattr(synthsim, "TRACE_CHUNK", chunk)
            assert travel_times(p[rays], q[rays], m).tobytes() \
                == t[rays].tobytes()


def trace_edge_cases():
    """{name: (inclusions, p, q)}: the rays of the travel_times tests'
    edge cases, and the degenerate rays of each TestTraceLayout medium."""
    E, R = TestExactTravelTimes, TestTraceLayout
    circle = Inclusion("ellipse", (0, 0.01), (3e-3, 3e-3), 1550.0)
    square = Inclusion("rectangle", (0, 0.01), (3e-3, 3e-3), 1550.0)
    inner = Inclusion("ellipse", (0, 0.01), (1e-3, 1e-3), 1450.0)
    rect = Inclusion("rectangle", (0.0, 0.01), (2e-3, 2e-3), 1540.0)
    ell = Inclusion("ellipse", (5e-3, 0.01), (2e-3, 2e-3), 1460.0)
    cz, hx, hz = 2.0**-6, 2.0**-9, 2.0**-10
    edge = Inclusion("rectangle", (0.0, cz), (hx, hz), 1540.0)
    cases = {
        "zero-length-in-a-batch": (
            (rect, ell), [[0.0, 0.01], [5e-3, 0.01], [-0.01, 0.02], [0, 0]],
            [[0.0, 0.01], [5e-3, 0.01], [-0.01, 0.02], [0.0, 0.02]]),
        "tangent-to-an-ellipse": (
            (Inclusion("ellipse", (0.0, 0.01), (3e-3, 2e-3), 1550.0),),
            [[-0.01, 0.008]], [[0.01, 0.008]]),
        "along-a-rectangle-edge": (
            (edge,), [[hx, 0.0], [-0.005, cz - hz]],
            [[hx, 0.03], [0.005, cz - hz]]),
        "vertical-and-horizontal": (
            (Inclusion("rectangle", (0.0, 0.02), (2e-3, 1e-3), 1540.0),
             Inclusion("ellipse", (-8e-3, 0.01), (2e-3, 1e-3), 1460.0)),
            [[-0.005, 0.02], [-0.005, 0.0225], [-0.015, 0.01], [0.0, 0.0],
             [-8e-3, 0.0], [0.0025, 0.0]],
            [[0.005, 0.02], [0.005, 0.0225], [-0.001, 0.01], [0.0, 0.03],
             [-8e-3, 0.03], [0.0025, 0.03]]),
        "rectangle-then-ellipse": (
            (R.OVER_RECT, E.ELLIPSE, R.OVER_ELL),
            [[-0.01, 0.01]], [[0.01, 0.01]]),
        "inner-last-wins": ((circle, inner), [[0, 0]], [[0, 0.02]]),
        "outer-last-wins": ((inner, circle), [[0, 0]], [[0, 0.02]]),
    }
    for inc in (circle, square):
        cases[f"starting-or-ending-inside-{inc.shape}"] = (
            (inc,), [[0, 0.01], [0, 0.02], [-1e-3, 0.009]],
            [[0, 0.02], [0, 0.01], [1e-3, 0.011]])
    for count in (4, 5):
        incs = (R.OVER_RECT, R.OVER_ELL, R.INNER, R.ELLIPSE, R.RECT)[:count]
        cases[f"{2 * count + 1}-pieces"] = (incs, *R().rays(incs, n=301))
    for name, incs in R.MEDIA.items():
        cases[f"degenerate-{name}"] = (incs, *degenerate_rays(incs))
    return cases


class TestTracePasses:
    """Every trace pass on the edge cases of the travel_times tests,
    byte for byte the NumPy block's times, signed zeros and infinities
    included: the scalar trace_rays and, where the host has AVX-512F,
    trace_rays_avx512, whose 8-ray steps end mid-step on most batches
    here."""

    CASES = trace_edge_cases()

    @pytest.mark.parametrize("name", ["scalar", "avx512"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_pass_equals_numpy_block(self, monkeypatch, case, name):
        lib = kernels.LIBRARY
        if lib is None or (name == "avx512" and not lib.avx512()):
            pytest.skip(f"no {name} trace on this host")
        incs, p, q = self.CASES[case]
        m = make_medium(incs)
        p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
        monkeypatch.setattr(kernels, "TRACE", None)
        ref = travel_times(p, q, m)
        table_ref = travel_times(p[None], q[::-1, None], m)
        monkeypatch.setattr(
            kernels, "TRACE",
            lib.trace_rays if name == "scalar" else lib.trace_rays_avx512)
        assert travel_times(p, q, m).tobytes() == ref.tobytes()
        assert travel_times(p[None], q[::-1, None], m).tobytes() \
            == table_ref.tobytes()


class TestNumPyTrace(TestExactTravelTimes, TestTraceLayout):
    """The trace axis: every check of those classes on the NumPy block,
    the trace that runs where no compiled kernel loads."""

    @pytest.fixture(autouse=True)
    def numpy_trace(self, monkeypatch):
        monkeypatch.setattr(kernels, "TRACE", None)


class TestMediumSpec:
    def test_last_inclusion_wins(self):
        a = Inclusion("ellipse", (0, 0.01), (3e-3, 3e-3), 1550.0)
        b = Inclusion("ellipse", (0, 0.01), (1e-3, 1e-3), 1450.0)
        m = make_medium([a, b])
        assert m.sos_at(0.0, 0.01) == 1450.0
        assert m.sos_at(0.0, 0.0125) == 1550.0
        assert m.sos_at(0.0, 0.03) == 1500.0

    def test_sanity_band(self):
        with pytest.raises(ValueError):
            make_medium(background=1200.0)
        with pytest.raises(ValueError):
            Inclusion("ellipse", (0, 0.01), (1e-3, 1e-3), 1800.0)

    @pytest.mark.parametrize("center, half_axes, message", [
        ((np.nan, 0.01), (1e-3, 1e-3), "center"),
        ((0.0, 0.01), (1e-3, np.nan), "half_axes"),
        ((0.0, 0.01), (np.nan, 1e-3), "half_axes"),
        ((0.0, 0.01), (np.inf, 1e-3), "half_axes"),
    ], ids=["nan-center", "nan-hz", "nan-hx", "inf-hx"])
    def test_non_finite_geometry_rejected(self, center, half_axes, message):
        """A NaN inclusion would contain no point and vanish silently."""
        with pytest.raises(ValueError, match=message):
            Inclusion("ellipse", center, half_axes, 1540.0)

    def test_rectangle_contains(self):
        inc = Inclusion("rectangle", (0.0, 0.02), (2e-3, 1e-3), 1540.0)
        assert inc.contains(np.array(1.9e-3), np.array(0.0205))
        assert not inc.contains(np.array(2.1e-3), np.array(0.02))


class TestPulseSpec:
    def test_duration_and_sigma(self):
        p = PulseSpec(center_frequency=5e6, half_cycles=4)
        assert p.duration == pytest.approx(4 / (2 * 5e6))
        assert p.envelope_sigma == pytest.approx(p.duration / 4)
        assert p.support_halfwidth == pytest.approx(p.duration)

    def test_waveform_odd_and_windowed(self):
        p = PulseSpec()
        t = np.linspace(-p.duration, p.duration, 101)
        w = p.waveform(t)
        assert w[50] == pytest.approx(0.0, abs=1e-12)  # sin(0)
        assert np.allclose(w, -w[::-1], atol=1e-12)
        assert np.max(np.abs(w)) <= 1.0

    def test_sampling_validation(self):
        with pytest.raises(ValueError):
            PulseSpec(center_frequency=5e6, sampling_frequency=2e7)
        for kwargs in ({"center_frequency": np.nan},
                       {"center_frequency": 0.0},
                       {"sampling_frequency": np.nan},
                       {"sampling_frequency": np.inf}):
            (key,) = kwargs
            with pytest.raises(ValueError, match=f"{key} must be finite"):
                PulseSpec(**kwargs)


class TestSimulateFrame:
    def setup_method(self):
        self.array = TransducerArray()
        self.pulse = PulseSpec()
        self.medium = make_medium()

    def one_scatterer(self, pos=(0.0, 0.02)):
        return ScattererField(
            positions=np.array([pos]), amplitudes=np.array([1.0])
        )

    def test_single_scatterer_echo_time(self):
        field = self.one_scatterer()
        frame = simulate_frame(63, field, self.medium, self.pulse, self.array)
        t_expected = 2 * np.hypot(*(np.array([0.0, 0.02])
                                    - element_position(self.array, 63)))
        t_expected /= 1500.0
        k_peak = int(np.argmax(np.abs(frame.samples[63])))
        half_cycle = 1.0 / (2 * self.pulse.center_frequency)
        assert abs(k_peak / frame.fs - t_expected) <= half_cycle

    def test_empty_field_is_zero(self, monkeypatch):
        """No scatterer: a 1-sample record of zeros on every channel,
        and no ray is traced."""
        field = ScattererField(positions=np.empty((0, 2)),
                               amplitudes=np.empty(0))
        monkeypatch.setattr(synthsim, "travel_times", None)
        frame = simulate_frame(5, field, self.medium, self.pulse, self.array,
                               noise_snr_db=20.0)
        assert frame.samples.shape == (self.array.num_elements, 1)
        assert not np.any(frame.samples)

    def test_record_ends_after_the_latest_echo(self):
        """The record is as long as its own transmit's latest echo
        needs: a deeper scatterer or a farther transmit lengthens it,
        and the last sample of every channel is silent."""
        near = self.one_scatterer((0.0, 0.01))
        far = self.one_scatterer((0.0, 0.02))
        n = {(tx, z): simulate_frame(tx, fld, self.medium, self.pulse,
                                     self.array).num_samples
             for tx in (63, 0) for z, fld in ((10, near), (20, far))}
        assert n[63, 10] < n[63, 20] < n[0, 20]
        assert n[63, 10] < n[0, 10]
        frame = simulate_frame(0, far, self.medium, self.pulse, self.array)
        assert np.any(frame.samples)
        assert not np.any(frame.samples[:, -1])

    def test_linearity_in_amplitude(self):
        field = self.one_scatterer()
        doubled = ScattererField(positions=field.positions,
                                 amplitudes=2.0 * field.amplitudes)
        a = simulate_frame(63, field, self.medium, self.pulse, self.array)
        b = simulate_frame(63, doubled, self.medium, self.pulse, self.array)
        assert np.allclose(b.samples, 2.0 * a.samples, atol=1e-6)

    @pytest.mark.parametrize("t, one", [(1e-4, False), (-1e-4, False),
                                        (np.nan, False), (np.nan, True)],
                             ids=["past-the-end", "before-the-start", "nan",
                                  "one-nan"])
    def test_echo_outside_the_record_raises(self, monkeypatch, t, one):
        """A caller's t_rx that puts an echo centre outside the record,
        or is NaN for one scatterer of three, is an error naming the
        receive channel, not a sum that drops it or writes past the
        frame: on the compiled receive channel and on the NumPy
        pulse sum, with and without the receive distances."""
        field = ScattererField(
            positions=np.array([(0.0, 0.02), (4e-3, 0.015), (-3e-3, 0.01)]),
            amplitudes=np.array([1.0, -0.5, 0.25]))
        n = simulate_frame(63, field, self.medium, self.pulse,
                           self.array).num_samples
        t_rx, r_rx = receive_travel_times(field, self.medium, self.array,
                                          lengths=True)
        assert np.isnan(t) or abs(t) * self.pulse.sampling_frequency > n
        t_rx[7, 1 if one else slice(None)] = t
        for kernel in (kernels.SYNTH, None):
            monkeypatch.setattr(kernels, "SYNTH", kernel)
            for dist in (r_rx, None):
                with pytest.raises(ValueError,
                                   match="channel 7.*outside the record"):
                    simulate_frame(63, field, self.medium, self.pulse,
                                   self.array, t_rx=t_rx, r_rx=dist)

    def test_distances_without_times_raise(self, monkeypatch):
        """r_rx without t_rx is an error naming both, on the compiled
        receive channel and on the NumPy pulse sum, rather than
        distances silently replaced by traced ones."""
        field = self.one_scatterer()
        _, r_rx = receive_travel_times(field, self.medium, self.array,
                                       lengths=True)
        for kernel in (kernels.SYNTH, None):
            monkeypatch.setattr(kernels, "SYNTH", kernel)
            with pytest.raises(ValueError, match="r_rx given without t_rx"):
                simulate_frame(63, field, self.medium, self.pulse,
                               self.array, r_rx=r_rx)

    def test_deterministic(self):
        field = self.one_scatterer((0.002, 0.015))
        a = simulate_frame(10, field, self.medium, self.pulse, self.array)
        b = simulate_frame(10, field, self.medium, self.pulse, self.array)
        assert np.array_equal(a.samples, b.samples)

    def test_noise_changes_frame_but_is_seeded(self):
        field = self.one_scatterer()
        clean = simulate_frame(63, field, self.medium, self.pulse, self.array)
        noisy1 = simulate_frame(63, field, self.medium, self.pulse, self.array,
                                noise_snr_db=20.0, noise_seed=9)
        noisy2 = simulate_frame(63, field, self.medium, self.pulse, self.array,
                                noise_snr_db=20.0, noise_seed=9)
        assert not np.array_equal(clean.samples, noisy1.samples)
        assert np.array_equal(noisy1.samples, noisy2.samples)

    @pytest.mark.parametrize("snr", [np.nan, np.inf, -np.inf])
    def test_non_finite_snr_raises(self, snr):
        """A NaN SNR would give an all-NaN frame and -inf a division by
        zero: both, and +inf, are refused before any ray is traced."""
        with pytest.raises(ValueError, match="noise_snr_db must be finite"):
            simulate_frame(63, self.one_scatterer(), self.medium, self.pulse,
                           self.array, noise_snr_db=snr)


def direct_frame(tx, field, medium, pulse, array, num_samples, t_rx):
    """Reference frame: the pulse evaluated per sample, no table."""
    fs = pulse.sampling_frequency
    s = field.positions
    tx_pos = np.array(element_position(array, tx))
    t_tx = travel_times(tx_pos[None, :], s, medium)
    r_tx = np.hypot(s[:, 0] - tx_pos[0], s[:, 1] - tx_pos[1])
    wavelength = medium.background_sos / pulse.center_frequency
    d_tx = synthsim._element_directivity(s[:, 0] - tx_pos[0], r_tx,
                                         array.pitch, wavelength)
    half = int(np.ceil(pulse.support_halfwidth * fs))
    offs = np.arange(-half, half + 1)
    out = np.zeros((array.num_elements, num_samples))
    for rx, x in enumerate(array.element_x()):
        r_rx = np.hypot(s[:, 0] - x, s[:, 1])
        weight = field.amplitudes * d_tx * synthsim._element_directivity(
            s[:, 0] - x, r_rx, array.pitch, wavelength
        ) / np.maximum(r_tx * r_rx, R_MIN**2)
        t_total = t_tx + t_rx[rx]
        idx = np.rint(t_total * fs).astype(np.int64)[:, None] + offs
        vals = weight[:, None] * pulse.waveform(idx / fs - t_total[:, None])
        valid = (idx >= 0) & (idx < num_samples)
        out[rx] = np.bincount(idx[valid], weights=vals[valid],
                              minlength=num_samples)
    return out


def table_frame(tx, field, medium, pulse, array, num_samples, t_rx):
    """Reference frame: simulate_frame's earlier receiver loop, which
    gathered and weighted two table rows per scatterer and summed the
    echoes with bincount; its receive worker is kept word for word."""
    fs = pulse.sampling_frequency
    s = field.positions
    n_sc = s.shape[0]
    samples = np.zeros((array.num_elements, num_samples), dtype=np.float64)
    tx_pos = np.array(element_position(array, tx))
    t_tx = travel_times(tx_pos[None, :], s, medium)
    r_tx = np.hypot(s[:, 0] - tx_pos[0], s[:, 1] - tx_pos[1])
    wavelength = medium.background_sos / pulse.center_frequency
    d_tx = synthsim._element_directivity(
        s[:, 0] - tx_pos[0], r_tx, array.pitch, wavelength
    )
    half = int(np.ceil(pulse.support_halfwidth * fs))
    offs = np.arange(-half, half + 1)
    steps = synthsim.PULSE_TABLE_STEPS
    frac = np.arange(steps + 1) / steps - 0.5
    table = pulse.waveform((offs[None, :] + frac[:, None]) / fs)
    ex = array.element_x()

    def receive(block):
        # (n_sc, support) sample indices, weighted pulse values and
        # upper-row values, allocated once per worker
        idx = np.empty((n_sc, offs.size), dtype=np.int64)
        vals = np.empty((n_sc, offs.size))
        upper = np.empty((n_sc, offs.size))
        for rx in block:
            rx_pos = np.array([ex[rx], 0.0])
            r_rx = np.hypot(s[:, 0] - rx_pos[0], s[:, 1] - rx_pos[1])
            spreading = 1.0 / np.maximum(r_tx * r_rx, R_MIN**2) * d_tx
            spreading *= synthsim._element_directivity(
                s[:, 0] - rx_pos[0], r_rx, array.pitch, wavelength
            )
            k_exact = (t_tx + t_rx[rx]) * fs
            k0 = np.rint(k_exact)
            pos = (k0 - k_exact + 0.5) * steps
            row = np.minimum(pos.astype(np.int64), steps - 1)
            w = pos - row
            weight = field.amplitudes * spreading
            # the pulse interpolated linearly between table rows; row
            # and row + 1 lie in [0, steps], so "clip" changes nothing
            # ("raise" copies through a buffer when given out=)
            np.add(k0.astype(np.int64)[:, None], offs[None, :], out=idx)
            np.take(table, row, axis=0, out=vals, mode="clip")
            vals *= (weight * (1.0 - w))[:, None]
            np.take(table, row + 1, axis=0, out=upper, mode="clip")
            upper *= (weight * w)[:, None]
            vals += upper
            if k0.min() - half >= 0 and k0.max() + half < num_samples:
                kept_idx, kept_vals = idx.ravel(), vals.ravel()
            else:
                valid = (idx >= 0) & (idx < num_samples)
                kept_idx, kept_vals = idx[valid], vals[valid]
            samples[rx] = np.bincount(kept_idx, weights=kept_vals,
                                      minlength=num_samples)

    receive(range(array.num_elements))
    return samples.astype(np.float32)

class TestPulseTable:
    def setup_method(self):
        self.array = TransducerArray()
        self.pulse = PulseSpec()
        self.medium = make_medium(
            [Inclusion("ellipse", (0.0, 0.012), (3e-3, 2e-3), 1540.0)])

    def frames(self, positions, tx):
        """The frame, the direct reference and the table-loop frame."""
        field = ScattererField(positions=np.array(positions),
                               amplitudes=np.linspace(1.0, -0.5,
                                                      len(positions)))
        t_rx = receive_travel_times(field, self.medium, self.array)
        frame = simulate_frame(tx, field, self.medium, self.pulse,
                               self.array, t_rx=t_rx)
        n = frame.num_samples
        ref = direct_frame(tx, field, self.medium, self.pulse, self.array,
                           n, t_rx)
        table = table_frame(tx, field, self.medium, self.pulse, self.array,
                            n, t_rx)
        return frame.samples, ref, table

    def test_matches_direct_pulse(self):
        samples, ref, table = self.frames(
            [(0.0, 0.02), (-3e-3, 0.011), (4e-3, 0.016)], tx=50)
        peak = np.abs(ref).max()
        assert np.abs(samples - ref).max() <= 1e-6 * peak
        assert samples.tobytes() == table.tobytes()

    def test_pulse_cut_at_record_start(self):
        """The cut pulse takes the filtered bincount branch; the frame
        still equals the table-based loop byte for byte."""
        # 0.2 mm below the transmit element: the echo arrives after 43
        # samples, while the pulse reaches 64 samples before its centre
        x_tx = self.array.element_x()[63]
        samples, ref, table = self.frames([(x_tx, 2e-4), (0.0, 0.02)], tx=63)
        half = int(np.ceil(self.pulse.support_halfwidth
                           * self.pulse.sampling_frequency))
        assert 2 * 2e-4 / 1500.0 * self.pulse.sampling_frequency < half
        assert samples[63, 0] != 0.0  # the record starts mid-pulse
        peak = np.abs(ref).max()
        assert np.abs(samples - ref).max() <= 1e-6 * peak
        assert samples.tobytes() == table.tobytes()


class TestThreadMap:
    """synthsim.thread_map: threads threads, the calling one included."""

    @pytest.mark.parametrize("threads", [1, 2, 3, 8])
    def test_results_keep_item_order(self, threads):
        """Each item runs once and its result lands in its place while
        the interpreter switches threads as often as it allows; the
        first items sleep longest, so they finish last."""
        ran = []

        def fn(i):
            ran.append(i)
            time.sleep(max(20 - i, 0) * 1e-4)
            return i * i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            out = synthsim.thread_map(fn, range(200), threads)
        finally:
            sys.setswitchinterval(interval)
        assert out == [i * i for i in range(200)]
        assert sorted(ran) == list(range(200))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_the_calling_thread_runs_items(self, threads):
        """At 2 threads both items must run at once (each waits for the
        other), on the caller and the one thread started; at 1 thread
        the caller runs them one after the other."""
        barrier = threading.Barrier(threads, timeout=10)
        ran = []

        def fn(i):
            ran.append(threading.get_ident())
            barrier.wait()

        synthsim.thread_map(fn, range(2), threads)
        assert threading.get_ident() in ran
        assert len(set(ran)) == threads

    @pytest.mark.parametrize("threads", [2, 3])
    def test_no_more_than_threads_calls_run_at_once(self, threads):
        lock = threading.Lock()
        active, high = [0], [0]

        def fn(i):
            with lock:
                active[0] += 1
                high[0] = max(high[0], active[0])
            time.sleep(1e-3)
            with lock:
                active[0] -= 1

        synthsim.thread_map(fn, range(30), threads)
        assert 1 <= high[0] <= threads

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_the_lowest_failed_item_reaches_the_caller(self, threads):
        """Items 3 and 6 fail, 6 first when threads run both at once;
        every item before 6 starts before it, so item 3's failure is
        raised, as in a loop."""
        def fn(i):
            if i == 3:
                time.sleep(0.05)
            if i in (3, 6):
                raise ValueError(f"item {i}")
            return i

        with pytest.raises(ValueError, match="item 3"):
            synthsim.thread_map(fn, range(10), threads)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_no_item_starts_after_a_failure(self, threads):
        """Item 0 fails at once while the others take 20 ms each, so each
        thread starts at most one item before the failure is seen."""
        lock = threading.Lock()
        started = []

        def fn(i):
            with lock:
                started.append(i)
            if i == 0:
                raise RuntimeError("first item")
            time.sleep(0.02)

        with pytest.raises(RuntimeError, match="first item"):
            synthsim.thread_map(fn, range(40), threads)
        assert 0 in started
        assert len(started) <= threads


class TestSimulateFrames:
    def cfg(self, threads):
        from soscorr.pipeline import PipelineConfig, apply_quick

        return apply_quick(PipelineConfig(
            scatterer_density=0.1, threads=threads,
            inclusions=(Inclusion("ellipse", (-2e-3, 15e-3), (4e-3, 3e-3),
                                  1540.0),),
        ))

    def test_shared_receive_tables_match_per_receiver_travel_times(self):
        """simulate_frames builds the receive tables once per field. Each
        table row must be the element's own travel_times call, and each
        frame must equal the frame simulated from those rows, byte for
        byte."""
        from soscorr.pipeline import simulate_frames

        cfg = self.cfg(threads=2)
        txs = [40, 55, 88]
        frames = simulate_frames(cfg, tx_list=txs)
        field = gen_scatterers(cfg.scatterer_grid(), cfg.scatterer_density,
                               cfg.seed)
        medium = cfg.medium()
        ex = cfg.array.element_x()
        t_rx = np.array([
            travel_times(field.positions, np.array([[x, 0.0]]), medium).ravel()
            for x in ex
        ])
        assert receive_travel_times(field, medium, cfg.array).tobytes() \
            == t_rx.tobytes()
        for tx in txs:
            alone = simulate_frame(tx, field, medium, cfg.pulse, cfg.array,
                                   noise_seed=cfg.seed + tx, t_rx=t_rx)
            assert frames[tx].samples.tobytes() == alone.samples.tobytes()

    def test_thread_count_does_not_change_frames(self):
        from soscorr.pipeline import simulate_frames

        txs = [40, 55, 88]
        one = simulate_frames(self.cfg(threads=1), tx_list=txs)
        two = simulate_frames(self.cfg(threads=2), tx_list=txs)
        assert sorted(one) == sorted(two) == txs
        for tx in txs:
            assert one[tx].samples.tobytes() == two[tx].samples.tobytes()

    def test_receiver_blocks_do_not_change_a_frame(self):
        """One transmit leaves the receivers as the only parallel axis.
        Three threads split the 128 receivers unevenly (43, 43, 42);
        a short switch interval interleaves the threads' writes into the
        shared frame as often as the interpreter allows."""
        from soscorr.pipeline import simulate_frames

        assert self.cfg(threads=1).array.num_elements % 3 != 0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runs = [simulate_frames(self.cfg(threads=t), tx_list=[55])
                    for t in (1, 2, 3, 4)]
        finally:
            sys.setswitchinterval(interval)
        one = runs[0][55].samples
        assert np.all(np.abs(one).max(axis=1) > 0)  # every channel written
        for frames in runs[1:]:
            assert frames[55].samples.tobytes() == one.tobytes()

    def test_full_config_transmit_does_not_depend_on_threads(self):
        """A full-config ellipse_p40 transmit, 5544 scatterers over 128
        receivers, is the same bytes at 1, 3 and 4 threads, each of
        which splits the receive tables and the receivers otherwise."""
        from soscorr.pipeline import (PipelineConfig, default_phantom_set,
                                      simulate_frames)

        cfg = PipelineConfig(
            inclusions=dict(default_phantom_set())["ellipse_p40"])
        one, *more = (simulate_frames(replace(cfg, threads=t),
                                      tx_list=[55])[55].samples
                      for t in (1, 3, 4))
        assert np.all(np.abs(one).max(axis=1) > 0)  # every channel written
        assert [m.tobytes() == one.tobytes() for m in more] == [True, True]

    @pytest.mark.parametrize("threads", [1, 3])
    def test_phantom_transmit_equals_table_loop(self, threads):
        """A quick ellipse_p40 transmit, all 2310 scatterers inside the
        record, equals the table-based loop byte for byte."""
        from soscorr.pipeline import (PipelineConfig, apply_quick,
                                      default_phantom_set)

        cfg = apply_quick(PipelineConfig(
            inclusions=dict(default_phantom_set())["ellipse_p40"],
            threads=threads))
        field = gen_scatterers(cfg.scatterer_grid(), cfg.scatterer_density,
                               cfg.seed)
        medium = cfg.medium()
        t_rx = receive_travel_times(field, medium, cfg.array, threads)
        frame = simulate_frame(55, field, medium, cfg.pulse, cfg.array,
                               t_rx=t_rx, threads=threads)
        ref = table_frame(55, field, medium, cfg.pulse, cfg.array,
                          frame.num_samples, t_rx)
        assert field.positions.shape[0] == 2310
        assert frame.samples.tobytes() == ref.tobytes()


class TestReceiveLoop:
    """The structure of simulate_frame's receive loop, counted."""

    def test_transmit_leg_is_traced_once_per_frame(self, monkeypatch):
        """simulate_frames traces the receive table once and each
        frame's transmit leg once, which also sets the frame's record
        length: n transmits are n + 1 travel_times calls."""
        from soscorr.pipeline import PipelineConfig, apply_quick, \
            simulate_frames

        cfg = apply_quick(PipelineConfig(
            scatterer_density=0.1,
            inclusions=(Inclusion("ellipse", (-2e-3, 15e-3), (4e-3, 3e-3),
                                  1540.0),)))
        calls = []
        trace = synthsim.travel_times

        def counting_trace(*args, **kwargs):
            calls.append(np.broadcast_shapes(np.shape(args[0]),
                                             np.shape(args[1])))
            return trace(*args, **kwargs)

        monkeypatch.setattr(synthsim, "travel_times", counting_trace)
        n_sc = gen_scatterers(cfg.scatterer_grid(), cfg.scatterer_density,
                              cfg.seed).positions.shape[0]
        for txs in ([55], [40, 55, 65, 88]):
            calls.clear()
            frames = simulate_frames(cfg, tx_list=txs)
            assert sorted(frames) == txs
            assert len(calls) == len(txs) + 1
            assert calls == [(cfg.array.num_elements, n_sc, 2)] \
                + [(n_sc, 2)] * len(txs)


class TestSciPyProducts(TestSimulateFrames, TestPulseTable, TestReceiveLoop):
    """The kernel axis: every check of those classes on the NumPy
    pulse sum, the bincount loop that runs where no compiled kernel
    loads. The class keeps the name of the SciPy products that loop
    replaced, so its inherited test ids stay."""

    @pytest.fixture(autouse=True)
    def numpy_pulse_sum(self, monkeypatch):
        monkeypatch.setattr(kernels, "SYNTH", None)


class TestSynthKernel:
    def test_pulse_sum_adds_scatterers_in_order(self):
        """synth_rx on a float64 record, where the float32 frame would
        hide most last-bit differences: 300 scatterers overlap on a
        200-sample record, so each sample adds about 100 pulses, and a
        fifth of them are closer than R_MIN to both elements. The record
        equals, byte for byte, the NumPy prelude's weights, rows and
        echo indices with each scatterer's (0 + a T[row]) + b T[row + 1]
        added in scatterer order."""
        if kernels.SYNTH is None:
            pytest.skip("no compiled kernel on this host")
        rng = np.random.default_rng(5)
        n, steps, width, num_samples, fs = 300, 256, 129, 200, 1.6e8
        table = rng.standard_normal((steps + 1, width))
        amp, sin_y = rng.standard_normal((2, n))
        d_tx, cos_t = rng.uniform(0.0, 1.0, (2, n))
        y = rng.uniform(1e-3, 3.0, n)
        r_tx, r_rx = rng.uniform(1e-4, 0.03, (2, n))
        r_tx[:60] = r_rx[:60] = 5e-4
        t_tx, t_rx = rng.uniform(0.0, (num_samples - 1) / fs / 2, (2, n))
        rec = np.zeros(num_samples + width - 1)
        ok = kernels.SYNTH(
            table.ctypes.data, width, steps,
            *(a.ctypes.data for a in (amp, r_tx, d_tx, t_tx, t_rx, r_rx,
                                      sin_y, y, cos_t)),
            n, fs, R_MIN**2, num_samples, rec.ctypes.data)
        assert ok == 0
        spreading = 1.0 / np.maximum(r_tx * r_rx, R_MIN**2) * d_tx
        spreading *= sin_y / y * cos_t
        k_exact = (t_tx + t_rx) * fs
        k0 = np.rint(k_exact)
        pos = (k0 - k_exact + 0.5) * steps
        row = np.minimum(pos.astype(np.int32), steps - 1)
        w = pos - row
        weight = amp * spreading
        w = np.column_stack([weight * (1.0 - w), weight * w])
        loop = np.zeros_like(rec)
        for i in range(n):
            k = int(k0[i])
            loop[k:k + width] += ((0.0 + w[i, 0] * table[row[i]])
                                  + w[i, 1] * table[row[i] + 1])
        assert rec.tobytes() == loop.tobytes()
        # the order shows: the same terms summed in reverse differ
        reverse = np.zeros_like(rec)
        for i in reversed(range(n)):
            k = int(k0[i])
            reverse[k:k + width] += ((0.0 + w[i, 0] * table[row[i]])
                                     + w[i, 1] * table[row[i] + 1])
        assert reverse.tobytes() != rec.tobytes()

    def test_receive_directivity_is_element_directivity(self):
        """rx_sinc's sine arguments and cosines, with np.sin between,
        give _element_directivity's bytes over a group of receivers:
        scatterers on an element's axis (a sinc of 0), at an element
        (a distance under the 1e-9 floor), at grazing incidence and in
        between, the distances the receive table's own."""
        if kernels.SINC is None:
            pytest.skip("no compiled kernel on this host")
        array = TransducerArray()
        ex = array.element_x()
        rng = np.random.default_rng(9)
        sx = np.concatenate([ex[3:6], [ex[4] + 1e-12],
                             rng.uniform(-0.02, 0.02, 200)])
        sz = np.concatenate([[0.01, 0.0, 1e-12, 0.0],
                             rng.uniform(0.0, 0.03, 200)])
        rows = slice(3, 8)
        r = receive_travel_times(
            ScattererField(np.column_stack([sx, sz]), np.ones(sx.size)),
            make_medium(), array, lengths=True)[1][rows]
        wavelength = 1500.0 / 5e6
        y, cos_t = np.empty((2,) + r.shape)
        kernels.SINC(
            sx.ctypes.data, ex[rows].ctypes.data, r.ctypes.data, r.shape[0],
            sx.size, array.pitch, wavelength, np.pi, np.finfo(float).eps,
            y.ctypes.data, cos_t.ctypes.data)
        ref = synthsim._element_directivity(sx - ex[rows, None], r,
                                            array.pitch, wavelength)
        assert (np.sin(y) / y * cos_t).tobytes() == ref.tobytes()
        assert np.any(ref == 1.0) and np.any(ref == 0.0)

    def test_noisy_frame_is_the_same_on_both_passes(self, monkeypatch):
        """With noise the frame is float64 until the noise is added; the
        compiled pulse sum and the NumPy one give the same bytes."""
        if kernels.SYNTH is None:
            pytest.skip("no compiled kernel on this host")
        medium = make_medium(
            [Inclusion("ellipse", (0.0, 0.012), (3e-3, 2e-3), 1540.0)])
        array, pulse = TransducerArray(), PulseSpec()
        field = gen_scatterers(medium.grid, 0.2, seed=4)
        t_rx = receive_travel_times(field, medium, array)

        def frame():
            return simulate_frame(40, field, medium, pulse, array,
                                  noise_snr_db=20.0, noise_seed=3,
                                  t_rx=t_rx, threads=2).samples

        compiled = frame()
        monkeypatch.setattr(kernels, "SYNTH", None)
        assert compiled.tobytes() == frame().tobytes()

    def test_failed_build_runs_numpy(self, tmp_path):
        """A compiler that fails at import leaves the library and the
        four passes kernels binds None, names each pass "numpy", logs
        one warning and raises nothing; the frame simulated then still
        equals the table-based loop byte for byte."""
        import soscorr

        script = """
import sys, sysconfig
config_var = sysconfig.get_config_var
# "false" is found on PATH and fails every build it is asked for
sysconfig.get_config_var = lambda name: (
    "false" if name == "CC" else config_var(name))
import numpy as np
from soscorr import kernels, synthsim
from soscorr.geometry import ImagingGrid, TransducerArray
from soscorr.synthsim import MediumSpec, PulseSpec, ScattererField
grid = ImagingGrid(x0=-0.02 + 1.5e-4, z0=1.5e-4, dx=3e-4, dz=3e-4,
                   nx=134, nz=134)
field = ScattererField(positions=np.array([[0.0, 0.02], [3e-3, 0.011]]),
                       amplitudes=np.array([1.0, -0.5]))
frame = synthsim.simulate_frame(50, field, MediumSpec(1500.0, grid),
                                PulseSpec(), TransducerArray())
np.save(sys.argv[1], frame.samples)
print(kernels.LIBRARY, kernels.DAS, kernels.TRACE, kernels.SYNTH, kernels.SINC,
      *kernels.passes().values())
"""
        out = tmp_path / "frame.npy"
        env = {**os.environ,
               "PYTHONPATH": str(Path(soscorr.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-c", script, str(out)],
                             capture_output=True, text=True, env=env,
                             timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["None"] * 5 + ["numpy"] * 3
        assert run.stderr.count("compiled kernels not built") == 1
        field = ScattererField(positions=np.array([[0.0, 0.02],
                                                   [3e-3, 0.011]]),
                               amplitudes=np.array([1.0, -0.5]))
        medium, array, pulse = make_medium(), TransducerArray(), PulseSpec()
        samples = np.load(out)
        ref = table_frame(50, field, medium, pulse, array, samples.shape[1],
                          receive_travel_times(field, medium, array))
        assert np.any(samples)
        assert samples.tobytes() == ref.tobytes()


class TestFrameIO:
    def frame(self):
        rng = np.random.default_rng(0)
        return ChannelFrame(
            tx_element=55,
            samples=rng.standard_normal((8, 32)).astype(np.float32),
            t0=0.0,
            fs=1.6e8,
        )

    def test_roundtrip(self, tmp_path):
        """Writer and reader both return the sha256_16 of the bytes on
        disk, each hashed from the header and the sample buffer."""
        fr = self.frame()
        path = tmp_path / frame_filename(55)
        written = write_frame(path, fr)
        back, digest = read_frame(path)
        assert back.tx_element == 55
        assert back.fs == fr.fs
        assert back.t0 == fr.t0
        assert np.array_equal(back.samples, fr.samples)
        assert written == digest \
            == hashlib.sha256(path.read_bytes()).hexdigest()[:16]

    def test_header_layout(self, tmp_path):
        path = tmp_path / "f.sosc"
        write_frame(path, self.frame())
        raw = path.read_bytes()
        assert raw[:4] == b"SOSC"
        # version 1, little endian
        assert raw[4:6] == (1).to_bytes(2, "little")

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.sosc"
        path.write_bytes(b"NOPE" + bytes(32))
        with pytest.raises(ValueError, match="not a SOSC frame"):
            read_frame(path)

    def test_frame_set_roundtrip_and_manifest(self, tmp_path):
        frames = [self.frame()]
        medium = make_medium()
        write_frame_set(tmp_path, frames, medium)
        manifest = (tmp_path / "MANIFEST.txt").read_text()
        assert "frame_tx055.sosc" in manifest
        assert "sha256_16=" in manifest
        assert "background_sos 1500.0" in manifest
        back = read_frame_set(tmp_path)
        assert list(back) == [55]
        assert np.array_equal(back[55].samples, frames[0].samples)

    def test_frame_set_requires_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_frame_set(tmp_path)

    @pytest.mark.parametrize("extra", [-4, 4, -8 * 32 * 4])
    def test_payload_size_must_match_header(self, tmp_path, extra):
        path = tmp_path / frame_filename(55)
        write_frame(path, self.frame())
        raw = path.read_bytes()
        path.write_bytes(raw[:extra] if extra < 0 else raw + bytes(extra))
        size = 8 * 32 * 4
        with pytest.raises(ValueError, match=f"{path.name}.*{size + extra} "
                           f"bytes.*8 x 32 float32 = {size}"):
            read_frame(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.sosc"
        path.write_bytes(b"SOSC" + bytes(6))
        with pytest.raises(ValueError, match="short.sosc: truncated"):
            read_frame(path)

    def big_frame(self):
        """A 2 MB frame, beside which the reader's and writer's fixed
        costs (a file buffer, the header) are small."""
        rng = np.random.default_rng(1)
        return ChannelFrame(tx_element=55, t0=0.0, fs=1.6e8,
                            samples=rng.standard_normal((64, 8192),
                                                        dtype=np.float32))

    def test_writing_a_frame_copies_no_samples(self, tmp_path):
        """write_frame_set writes and hashes the frame's own buffer. A
        bytes copy of the samples and another of header and samples
        joined would cost a frame each: a peak of 2 frames."""
        fr = self.big_frame()
        tracemalloc.start()
        try:
            write_frame_set(tmp_path, [fr], make_medium())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * fr.samples.nbytes

    def test_reading_a_frame_holds_one_copy(self, tmp_path):
        """read_frame_set reads each payload into the frame's own array
        and hashes that array: one frame, plus the quarter-frame mask of
        the finiteness check. The file's bytes and a copy of them would
        peak at 2 frames."""
        fr = self.big_frame()
        write_frame_set(tmp_path, [fr], make_medium())
        tracemalloc.start()
        try:
            back = read_frame_set(tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(back[55].samples, fr.samples)
        assert peak < 1.4 * fr.samples.nbytes

    def frame_set(self, tmp_path, txs=(40, 55, 65)):
        frames = [ChannelFrame(tx_element=tx, samples=self.frame().samples,
                               t0=0.0, fs=1.6e8) for tx in txs]
        write_frame_set(tmp_path, frames, make_medium())

    def test_frame_set_reads_only_the_transmits_asked_for(self, tmp_path):
        self.frame_set(tmp_path)
        (tmp_path / frame_filename(40)).unlink()  # not needed below
        back = read_frame_set(tmp_path, [65, 55])
        assert list(back) == [55, 65]
        assert all(fr.tx_element == tx for tx, fr in back.items())

    def test_listed_frame_that_is_absent(self, tmp_path):
        self.frame_set(tmp_path)
        (tmp_path / frame_filename(55)).unlink()
        for txs in (None, [55, 65]):
            with pytest.raises(FileNotFoundError,
                               match="frame_tx055.sosc: listed"):
                read_frame_set(tmp_path, txs)

    def test_frame_that_holds_another_transmit(self, tmp_path):
        self.frame_set(tmp_path)
        path = tmp_path / frame_filename(65)
        path.write_bytes((tmp_path / frame_filename(40)).read_bytes())
        with pytest.raises(ValueError, match="holds tx 40.*says tx 65"):
            read_frame_set(tmp_path, [65])

    def test_frame_that_differs_from_its_digest(self, tmp_path):
        self.frame_set(tmp_path)
        path = tmp_path / frame_filename(55)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0x01  # a last mantissa bit: still a finite sample
        path.write_bytes(bytes(raw))
        assert len(read_frame_set(tmp_path, [40, 65])) == 2
        with pytest.raises(ValueError,
                           match="frame_tx055.sosc: sha256 differs"):
            read_frame_set(tmp_path, [55])

    @pytest.mark.parametrize("edit, match", [
        (lambda text: text.replace(" sha256_16=", " ", 1),
         "malformed frame line"),
        (lambda text: text.replace(" tx=", " ", 1), "malformed frame line"),
        (lambda text: text.replace("frame_tx055.sosc", "../x.sosc"),
         "does not name frame_tx055.sosc"),
        (lambda text: text.replace("[medium]", text.splitlines()[4]
                                   + "\n[medium]"),
         "tx 55 is listed twice"),
    ], ids=[" sha256_16=", " tx=", "outside", "twice"])
    def test_malformed_manifest_line(self, tmp_path, edit, match):
        self.frame_set(tmp_path)
        manifest = tmp_path / "MANIFEST.txt"
        manifest.write_text(edit(manifest.read_text()))
        with pytest.raises(ValueError, match=match):
            read_frame_set(tmp_path)

    def test_unlisted_transmit(self, tmp_path):
        self.frame_set(tmp_path)
        # a frame file without a manifest line is not read
        write_frame(tmp_path / frame_filename(72), self.frame())
        assert list(read_frame_set(tmp_path)) == [40, 55, 65]
        with pytest.raises(FileNotFoundError, match=r"no frame for tx \[72\]"):
            read_frame_set(tmp_path, [55, 72])
