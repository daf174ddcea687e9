//! Output projections beyond the pinhole.
//!
//! Dewarping products built on this kernel offer more than perspective
//! views: a **cylindrical** panorama (straight verticals, wide
//! horizontal sweep — the "corridor view") and a full
//! **equirectangular** panorama (texture for VR viewers). Both are
//! just different `pixel → ray` functions; the map builder and the
//! correction kernel are unchanged.

use crate::vec3::{Mat3, Vec3};
use crate::view::{PerspectiveView, ViewRays};

/// A corrected-output camera: any mapping from output pixels to
/// camera-frame rays.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum OutputProjection {
    /// Rectilinear pinhole (the paper's view).
    Perspective(PerspectiveView),
    /// Cylinder around the vertical axis: x ↦ azimuth (linear),
    /// y ↦ tan(elevation) (so vertical lines stay straight).
    Cylindrical {
        /// Horizontal angular span, radians.
        h_span: f64,
        /// Vertical half field of view, radians.
        v_half_fov: f64,
        /// Pan offset of the cylinder center, radians.
        pan: f64,
        /// Output width, pixels.
        width: u32,
        /// Output height, pixels.
        height: u32,
    },
    /// Equirectangular panorama: x ↦ azimuth, y ↦ elevation, both
    /// linear.
    Equirectangular {
        /// Horizontal angular span, radians (2π = full turn).
        h_span: f64,
        /// Vertical angular span, radians (π = pole to pole).
        v_span: f64,
        /// Output width, pixels.
        width: u32,
        /// Output height, pixels.
        height: u32,
    },
}

impl OutputProjection {
    /// A 180°-wide cylindrical panorama with the given output size.
    pub fn cylinder_180(width: u32, height: u32, v_half_fov_deg: f64) -> Self {
        OutputProjection::Cylindrical {
            h_span: std::f64::consts::PI,
            v_half_fov: v_half_fov_deg.to_radians(),
            pan: 0.0,
            width,
            height,
        }
    }

    /// A hemisphere equirectangular panorama (180°×90°).
    pub fn equirect_hemisphere(width: u32, height: u32) -> Self {
        OutputProjection::Equirectangular {
            h_span: std::f64::consts::PI,
            v_span: std::f64::consts::FRAC_PI_2,
            width,
            height,
        }
    }

    /// Output dimensions.
    pub fn dims(&self) -> (u32, u32) {
        match *self {
            OutputProjection::Perspective(v) => (v.width, v.height),
            OutputProjection::Cylindrical { width, height, .. } => (width, height),
            OutputProjection::Equirectangular { width, height, .. } => (width, height),
        }
    }

    /// The camera-frame unit ray through output pixel `(x, y)`.
    ///
    /// A loop over many pixels should build [`OutputProjection::rays`]
    /// once and call [`ProjectionRays::ray`].
    pub fn pixel_ray(&self, x: f64, y: f64) -> Vec3 {
        self.rays().ray(x, y)
    }

    /// This projection's ray generator, with its per-view constants
    /// (a perspective view's focal length and rotation, a cylinder's
    /// half height) computed once.
    pub fn rays(&self) -> ProjectionRays {
        ProjectionRays(match *self {
            OutputProjection::Perspective(v) => Rays::Perspective(v.rays()),
            OutputProjection::Cylindrical {
                h_span,
                v_half_fov,
                pan,
                width,
                height,
            } => Rays::Cylindrical {
                h_span,
                half_h: v_half_fov.tan(),
                pan,
                width: width as f64,
                height: height as f64,
            },
            OutputProjection::Equirectangular {
                h_span,
                v_span,
                width,
                height,
            } => Rays::Equirectangular {
                h_span,
                v_span,
                width: width as f64,
                height: height as f64,
            },
        })
    }

    /// Short label for reports.
    pub fn name(&self) -> &'static str {
        match self {
            OutputProjection::Perspective(_) => "perspective",
            OutputProjection::Cylindrical { .. } => "cylindrical",
            OutputProjection::Equirectangular { .. } => "equirectangular",
        }
    }
}

/// An [`OutputProjection`] compiled for per-pixel ray tracing (see
/// [`OutputProjection::rays`]); [`ProjectionRays::ray`] is the one
/// definition of each projection's pixel ray.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ProjectionRays(Rays);

#[derive(Clone, Copy, PartialEq, Debug)]
enum Rays {
    Perspective(ViewRays),
    /// `half_h` is the cylinder's half height, `tan(v_half_fov)`.
    Cylindrical {
        h_span: f64,
        half_h: f64,
        pan: f64,
        width: f64,
        height: f64,
    },
    Equirectangular {
        h_span: f64,
        v_span: f64,
        width: f64,
        height: f64,
    },
}

impl ProjectionRays {
    /// The camera-frame unit ray through output pixel `(x, y)`.
    #[inline]
    pub fn ray(&self, x: f64, y: f64) -> Vec3 {
        match self.0 {
            Rays::Perspective(v) => v.ray(x, y),
            Rays::Cylindrical {
                h_span,
                half_h,
                pan,
                width,
                height,
            } => {
                let azimuth = (x / width - 0.5) * h_span + pan;
                // y maps linearly onto the cylinder height = tan(elev)
                let cy = (0.5 - y / height) * 2.0 * half_h;
                let dir = Mat3::rot_y(azimuth) * Vec3::new(0.0, -cy, 1.0);
                dir.normalized()
            }
            Rays::Equirectangular {
                h_span,
                v_span,
                width,
                height,
            } => {
                let azimuth = (x / width - 0.5) * h_span;
                let elevation = (0.5 - y / height) * v_span;
                let (se, ce) = elevation.sin_cos();
                let (sa, ca) = azimuth.sin_cos();
                // y-down convention: positive elevation looks up (−Y)
                Vec3::new(ce * sa, -se, ce * ca)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn perspective_delegates() {
        let v = PerspectiveView::centered(64, 48, 90.0);
        let p = OutputProjection::Perspective(v);
        assert_eq!(p.dims(), (64, 48));
        let a = p.pixel_ray(32.0, 24.0);
        let b = v.pixel_ray(32.0, 24.0);
        assert!((a - b).norm() < 1e-15);
        assert_eq!(p.name(), "perspective");
    }

    #[test]
    fn cylinder_center_looks_ahead() {
        let c = OutputProjection::cylinder_180(360, 120, 30.0);
        let ray = c.pixel_ray(180.0, 60.0);
        assert!((ray - Vec3::AXIS_Z).norm() < 1e-9, "{ray:?}");
    }

    #[test]
    fn cylinder_edges_at_half_span() {
        let c = OutputProjection::cylinder_180(360, 120, 30.0);
        let left = c.pixel_ray(0.0, 60.0);
        let right = c.pixel_ray(360.0, 60.0);
        // ±90° azimuth
        assert!((left.x - -1.0).abs() < 1e-9, "{left:?}");
        assert!((right.x - 1.0).abs() < 1e-9, "{right:?}");
        assert!(left.z.abs() < 1e-9);
    }

    #[test]
    fn cylinder_keeps_verticals_straight() {
        // all rays in one output column share the same azimuth
        let c = OutputProjection::cylinder_180(360, 120, 40.0);
        let azimuth = |ray: Vec3| ray.x.atan2(ray.z);
        let a0 = azimuth(c.pixel_ray(100.0, 10.0));
        let a1 = azimuth(c.pixel_ray(100.0, 60.0));
        let a2 = azimuth(c.pixel_ray(100.0, 110.0));
        assert!((a0 - a1).abs() < 1e-12 && (a1 - a2).abs() < 1e-12);
    }

    #[test]
    fn cylinder_top_looks_up() {
        let c = OutputProjection::cylinder_180(360, 120, 30.0);
        let top = c.pixel_ray(180.0, 0.0);
        assert!(top.y < -0.3, "top of frame looks up (−y): {top:?}");
        let bottom = c.pixel_ray(180.0, 120.0);
        assert!(bottom.y > 0.3, "{bottom:?}");
    }

    #[test]
    fn equirect_linear_in_both_axes() {
        let e = OutputProjection::equirect_hemisphere(360, 180);
        // center
        let c = e.pixel_ray(180.0, 90.0);
        assert!((c - Vec3::AXIS_Z).norm() < 1e-12);
        // quarter to the right = azimuth π/4
        let q = e.pixel_ray(270.0, 90.0);
        assert!((q.x.atan2(q.z) - PI / 4.0).abs() < 1e-12);
        // top edge = elevation +π/4 (v_span/2)
        let t = e.pixel_ray(180.0, 0.0);
        let elev = (-t.y).atan2((t.x * t.x + t.z * t.z).sqrt());
        assert!((elev - FRAC_PI_2 / 2.0).abs() < 1e-12, "elev {elev}");
    }

    #[test]
    fn all_rays_unit_length() {
        let projections = [
            OutputProjection::cylinder_180(90, 30, 35.0),
            OutputProjection::equirect_hemisphere(90, 45),
        ];
        for p in projections {
            let (w, h) = p.dims();
            for (x, y) in [
                (0.5, 0.5),
                (w as f64 - 0.5, h as f64 - 0.5),
                (w as f64 / 2.0, 1.0),
            ] {
                let r = p.pixel_ray(x, y);
                assert!((r.norm() - 1.0).abs() < 1e-12, "{} at ({x},{y})", p.name());
            }
        }
    }

    #[test]
    fn cylinder_pan_shifts_view() {
        let mut c = OutputProjection::cylinder_180(360, 120, 30.0);
        if let OutputProjection::Cylindrical { ref mut pan, .. } = c {
            *pan = FRAC_PI_2;
        }
        let ray = c.pixel_ray(180.0, 60.0);
        assert!((ray.x - 1.0).abs() < 1e-9, "panned 90°: {ray:?}");
    }
}
