import numpy as np
import pytest

from helmgrid import (
    ComplexGrid,
    ConstantK,
    WavenumberField,
    WedgeK,
    build_stretched_grid,
    build_wavenumber_field,
    rotate_grid,
)
from helmgrid.grid import default_layer_width


class TestStretchedGrid:
    def test_zero_width_layer_is_uniform(self):
        g = build_stretched_grid(7, layer_width=0, sigma_max=0.5, ramp="quadratic")
        assert np.allclose(g.spacing_x, 1.0 / 8.0)
        assert np.all(g.spacing_x.imag == 0)

    def test_zero_sigma_equals_no_layer(self):
        a = build_stretched_grid(7, layer_width=2, sigma_max=0.0, ramp="linear")
        b = build_stretched_grid(7, layer_width=0, sigma_max=0.5)
        np.testing.assert_array_equal(a.spacing_x, b.spacing_x)

    def test_quadratic_ramp_values(self):
        # sigma_j = sigma_max * (j / layer_width)^2 with j counted from the
        # layer's inner edge
        g = build_stretched_grid(15, layer_width=3, sigma_max=1.0, ramp="quadratic")
        h = 1.0 / 16.0
        assert g.spacing_x[0] == pytest.approx(h * (1 + 1j))
        assert g.spacing_x[2] == pytest.approx(h * (1 + (1.0 / 9.0) * 1j))
        assert g.spacing_x[3] == pytest.approx(h)

    def test_linear_ramp(self):
        g = build_stretched_grid(15, layer_width=3, sigma_max=0.9, ramp="linear")
        assert g.spacing_x[1] == pytest.approx((1 / 16) * (1 + 0.6j))

    def test_mirror_symmetry(self):
        g = build_stretched_grid(21, layer_width=5, sigma_max=0.7)
        np.testing.assert_allclose(g.spacing_x, g.spacing_x[::-1])
        np.testing.assert_allclose(g.spacing_y, g.spacing_y[::-1])

    def test_stretch_monotone_toward_boundary(self):
        g = build_stretched_grid(31, layer_width=6, sigma_max=1.0)
        left = g.spacing_x[:6].imag
        assert np.all(np.diff(left) < 0)  # decreasing away from the boundary

    def test_rejects_overlapping_layers(self):
        with pytest.raises(ValueError, match="layer_width"):
            build_stretched_grid(15, layer_width=4, sigma_max=0.5)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError, match="sigma_max"):
            build_stretched_grid(15, layer_width=2, sigma_max=-0.1)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError, match="n >= 3"):
            build_stretched_grid(2)

    def test_default_layer_width(self):
        assert default_layer_width(63) == 7
        assert default_layer_width(127) == 15
        assert default_layer_width(15) == 3  # capped at n/4


class TestRotateGrid:
    def test_small_beta_is_near_identity(self):
        g = build_stretched_grid(9)
        r = rotate_grid(g, 1e-12)
        np.testing.assert_allclose(r.spacing_x, g.spacing_x, rtol=1e-11)

    def test_principal_square_root(self):
        g = build_stretched_grid(9)
        r = rotate_grid(g, 0.5)
        gamma = np.sqrt(1 + 0.5j)
        assert gamma == pytest.approx(1.029086 + 0.242934j, abs=1e-5)
        np.testing.assert_allclose(r.spacing_x, g.spacing_x * gamma)
        assert r.gamma == pytest.approx(gamma)

    def test_rejects_double_rotation(self):
        g = rotate_grid(build_stretched_grid(9), 0.5)
        with pytest.raises(ValueError, match="physical"):
            rotate_grid(g, 0.25)

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError, match="beta"):
            rotate_grid(build_stretched_grid(9), 0.0)

    def test_preserves_spacing_ratios(self):
        g = build_stretched_grid(17, layer_width=4, sigma_max=0.8)
        r = rotate_grid(g, 0.5)
        np.testing.assert_allclose(
            r.spacing_x / r.spacing_x[8], g.spacing_x / g.spacing_x[8], rtol=1e-14
        )


class TestWavenumberField:
    def test_constant(self):
        g = build_stretched_grid(31)
        f = build_wavenumber_field(ConstantK(40.0), g)
        assert f.values.shape == (31, 31)
        assert np.all(f.values == 40.0)

    def test_wedge_band_indexing(self):
        g = build_stretched_grid(29)
        f = build_wavenumber_field(WedgeK(10.0, 20.0, 40.0), g)
        col = f.values[0]
        assert np.all(col[:10] == 10.0)
        assert np.all(col[10:19] == 20.0)
        assert np.all(col[19:] == 40.0)

    def test_wedge_with_equal_bands_is_constant(self):
        g = build_stretched_grid(15)
        wedge = build_wavenumber_field(WedgeK(7.0, 7.0, 7.0), g)
        const = build_wavenumber_field(ConstantK(7.0), g)
        np.testing.assert_array_equal(wedge.values, const.values)

    def test_rejects_nonpositive_k(self):
        g = build_stretched_grid(9)
        with pytest.raises(ValueError, match="positive"):
            build_wavenumber_field(ConstantK(0.0), g)
        with pytest.raises(ValueError, match="positive"):
            build_wavenumber_field(WedgeK(10.0, -1.0, 40.0), g)

    @pytest.mark.parametrize(
        "spec, field",
        [
            (ConstantK(np.inf), "k0"),
            (ConstantK(np.nan), "k0"),
            (WedgeK(np.inf, 20.0, 40.0), "k_top"),
            (WedgeK(10.0, np.inf, 40.0), "k_mid"),
            (WedgeK(10.0, 20.0, np.inf), "k_bot"),
        ],
    )
    def test_rejects_non_finite_k(self, spec, field):
        # an infinite k makes the operator's diagonal NaN, and so every apply
        g = build_stretched_grid(9)
        with pytest.raises(ValueError, match=f"^{field} must be positive and finite"):
            build_wavenumber_field(spec, g)

    def test_rejects_bad_interfaces(self):
        g = build_stretched_grid(9)
        with pytest.raises(ValueError, match="interfaces"):
            build_wavenumber_field(WedgeK(1.0, 2.0, 3.0, interfaces=(0.7, 0.3)), g)


class TestComplexGrid:
    def test_positive_real_part_required(self):
        with pytest.raises(ValueError, match="positive real part"):
            ComplexGrid(np.array([0.5, -0.5]), np.array([0.5, 0.5]))


def test_field_invariants():
    with pytest.raises(ValueError):
        WavenumberField(np.zeros((3, 3)) - 1.0)
