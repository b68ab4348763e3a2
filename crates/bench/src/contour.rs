//! Level-curve extraction for the paper's figures.
//!
//! The figures show sublevel sets projected onto coordinate planes. We
//! reproduce them as point series: the set `{p(x) ≤ 0}` is sliced by the
//! plane spanned by two chosen coordinates (the remaining coordinates set to
//! zero — the sets are neighbourhoods of the origin, so the zero-slice is
//! the natural 2-D view) and the boundary is traced radially.

use cppll_json::{ObjectBuilder, ToJson, Value};
use cppll_poly::Polynomial;

/// A traced planar curve: one point per scan angle.
#[derive(Debug, Clone)]
pub struct Curve {
    /// Label, e.g. `"AI (v1, v2)"`.
    pub label: String,
    /// Index of the coordinate on the horizontal axis.
    pub x_axis: usize,
    /// Index of the coordinate on the vertical axis.
    pub y_axis: usize,
    /// Boundary points `(x, y)`.
    pub points: Vec<(f64, f64)>,
}

impl ToJson for Curve {
    fn to_json(&self) -> Value {
        ObjectBuilder::new()
            .field("label", &self.label)
            .field("x_axis", self.x_axis)
            .field("y_axis", self.y_axis)
            .field("points", &self.points)
            .build()
    }
}

impl Curve {
    /// Maximum distance of the curve from the origin.
    pub fn max_radius(&self) -> f64 {
        self.points
            .iter()
            .map(|(x, y)| (x * x + y * y).sqrt())
            .fold(0.0, f64::max)
    }

    /// Extent along the horizontal axis (max |x|).
    pub fn x_extent(&self) -> f64 {
        self.points.iter().map(|(x, _)| x.abs()).fold(0.0, f64::max)
    }

    /// Extent along the vertical axis (max |y|).
    pub fn y_extent(&self) -> f64 {
        self.points.iter().map(|(_, y)| y.abs()).fold(0.0, f64::max)
    }

    /// Renders the curve into a fixed-size ASCII grid (rows top to bottom).
    pub fn ascii_plot(&self, half_width: f64, cols: usize, rows: usize) -> Vec<String> {
        let mut grid = vec![vec![b' '; cols]; rows];
        for &(x, y) in &self.points {
            let cx = ((x / half_width + 1.0) * 0.5 * (cols as f64 - 1.0)).round();
            let cy = ((1.0 - (y / half_width + 1.0) * 0.5) * (rows as f64 - 1.0)).round();
            if cx >= 0.0 && cy >= 0.0 && (cx as usize) < cols && (cy as usize) < rows {
                grid[cy as usize][cx as usize] = b'*';
            }
        }
        grid.into_iter()
            .map(|row| String::from_utf8(row).expect("ascii"))
            .collect()
    }
}

/// Traces the boundary of `{p ≤ 0}` in the plane of coordinates
/// `(x_axis, y_axis)` (other coordinates zero) by radial bisection.
///
/// `angles` scan directions are used; rays on which the set is empty (the
/// origin itself is outside) or unbounded (no crossing below `r_max`) yield
/// no point.
///
/// # Panics
///
/// Panics if the axes coincide or exceed the polynomial's variable count.
pub fn trace_sublevel_boundary(
    p: &Polynomial,
    x_axis: usize,
    y_axis: usize,
    angles: usize,
    r_max: f64,
    label: impl Into<String>,
) -> Curve {
    let n = p.nvars();
    assert!(x_axis < n && y_axis < n && x_axis != y_axis, "bad axes");
    let mut points = Vec::with_capacity(angles);
    for k in 0..angles {
        let phi = 2.0 * std::f64::consts::PI * (k as f64) / (angles as f64);
        let dir = (phi.cos(), phi.sin());
        let eval_at = |r: f64| {
            let mut x = vec![0.0; n];
            x[x_axis] = r * dir.0;
            x[y_axis] = r * dir.1;
            p.eval(&x)
        };
        if eval_at(0.0) > 0.0 || eval_at(r_max) <= 0.0 {
            continue; // origin outside, or set unbounded along this ray
        }
        let mut lo = 0.0;
        let mut hi = r_max;
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if eval_at(mid) <= 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        points.push((lo * dir.0, lo * dir.1));
    }
    Curve {
        label: label.into(),
        x_axis,
        y_axis,
        points,
    }
}

/// Traces the certified/uncertified boundary of a sweep atlas grid as a
/// point series: one point at the midpoint of every grid edge whose two
/// cells disagree on certification.
///
/// `xs`/`ys` are the axis values by index and `certified` the row-major
/// (`iy·nx + ix`) mask. 1-D sweeps pass `ys = &[0.0]`. The resulting curve
/// uses axis indices 0/1 (the sweep's own axes, not state coordinates).
///
/// # Panics
///
/// Panics when `certified.len() != xs.len() * ys.len()`.
pub fn grid_verdict_boundary(
    xs: &[f64],
    ys: &[f64],
    certified: &[bool],
    label: impl Into<String>,
) -> Curve {
    let (nx, ny) = (xs.len(), ys.len());
    assert_eq!(certified.len(), nx * ny, "mask does not match the grid");
    let mut points = Vec::new();
    for iy in 0..ny {
        for ix in 0..nx {
            let here = certified[iy * nx + ix];
            if ix + 1 < nx && certified[iy * nx + ix + 1] != here {
                points.push((0.5 * (xs[ix] + xs[ix + 1]), ys[iy]));
            }
            if iy + 1 < ny && certified[(iy + 1) * nx + ix] != here {
                points.push((xs[ix], 0.5 * (ys[iy] + ys[iy + 1])));
            }
        }
    }
    Curve {
        label: label.into(),
        x_axis: 0,
        y_axis: 1,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_circle_contour() {
        let p = &Polynomial::norm_squared(3) - &Polynomial::constant(3, 1.0);
        let c = trace_sublevel_boundary(&p, 0, 1, 64, 5.0, "circle");
        assert_eq!(c.points.len(), 64);
        for (x, y) in &c.points {
            let r = (x * x + y * y).sqrt();
            assert!((r - 1.0).abs() < 1e-9, "r = {r}");
        }
        assert!((c.max_radius() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ellipse_extents() {
        // x²/4 + y² ≤ 1 in the (0, 1) plane.
        let p = Polynomial::from_terms(2, &[(&[2, 0], 0.25), (&[0, 2], 1.0), (&[0, 0], -1.0)]);
        let c = trace_sublevel_boundary(&p, 0, 1, 128, 10.0, "ellipse");
        assert!((c.x_extent() - 2.0).abs() < 1e-6);
        assert!((c.y_extent() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn empty_ray_skipped() {
        // Set {x ≥ 1} ∩ slice… p = 1 − x: origin has p = 1 > 0 ⇒ no points.
        let p = &Polynomial::constant(2, 1.0) - &Polynomial::var(2, 0);
        let c = trace_sublevel_boundary(&p, 0, 1, 16, 5.0, "halfplane");
        assert!(c.points.is_empty());
    }

    #[test]
    fn grid_boundary_traces_a_vertical_line() {
        // 3×2 grid, left column certified: two vertical-edge crossings at
        // the midpoint between x = 0 and x = 1.
        let xs = [0.0, 1.0, 2.0];
        let ys = [0.0, 1.0];
        let certified = [true, false, false, true, false, false];
        let c = grid_verdict_boundary(&xs, &ys, &certified, "lock region");
        assert_eq!(c.points, vec![(0.5, 0.0), (0.5, 1.0)]);
        // Uniform mask ⇒ no boundary.
        let all = [true; 6];
        assert!(grid_verdict_boundary(&xs, &ys, &all, "none")
            .points
            .is_empty());
    }

    #[test]
    fn ascii_plot_dimensions() {
        let p = &Polynomial::norm_squared(2) - &Polynomial::constant(2, 1.0);
        let c = trace_sublevel_boundary(&p, 0, 1, 64, 5.0, "circle");
        let art = c.ascii_plot(2.0, 40, 20);
        assert_eq!(art.len(), 20);
        assert!(art.iter().all(|l| l.len() == 40));
        assert!(art.iter().any(|l| l.contains('*')));
    }
}
