//! The corrected output camera (virtual pinhole with pan/tilt/zoom).
//!
//! The application's operator steers a *virtual perspective camera*
//! inside the fisheye hemisphere: the correction engine renders what a
//! conventional (rectilinear) camera pointed at (pan, tilt) with the
//! chosen zoom would have seen. One [`PerspectiveView`] fully
//! determines the remap LUT; the LUT must be regenerated whenever the
//! view changes (experiment F9 measures that trade-off).

use crate::vec3::{Mat3, Vec3};

/// A virtual pinhole camera: orientation + intrinsics + output size.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PerspectiveView {
    /// Pan (yaw) in radians, positive to the right (about image Y).
    pub pan: f64,
    /// Tilt (pitch) in radians, positive looks up.
    pub tilt: f64,
    /// Roll in radians about the viewing axis.
    pub roll: f64,
    /// Horizontal field of view of the *output* image, radians.
    pub h_fov: f64,
    /// Output width, pixels.
    pub width: u32,
    /// Output height, pixels.
    pub height: u32,
}

impl PerspectiveView {
    /// A straight-ahead view with the given output size and horizontal
    /// field of view in degrees.
    pub fn centered(width: u32, height: u32, h_fov_deg: f64) -> Self {
        PerspectiveView {
            pan: 0.0,
            tilt: 0.0,
            roll: 0.0,
            h_fov: h_fov_deg.to_radians(),
            width,
            height,
        }
    }

    /// Returns a copy panned/tilted by the given angles (degrees) —
    /// convenience for PTZ examples.
    pub fn look(mut self, pan_deg: f64, tilt_deg: f64) -> Self {
        self.pan = pan_deg.to_radians();
        self.tilt = tilt_deg.to_radians();
        self
    }

    /// Focal length of the virtual pinhole, in output pixels.
    #[inline]
    pub fn focal_px(&self) -> f64 {
        (self.width as f64 / 2.0) / (self.h_fov / 2.0).tan()
    }

    /// Rotation taking view-frame rays to camera-frame rays.
    ///
    /// Applied as pan (about Y) ∘ tilt (about X) ∘ roll (about Z). With
    /// the y-down image convention, positive tilt must rotate the view
    /// axis upward (toward −Y), hence `rot_x(tilt)` with our matrix
    /// convention mapping +Z toward −Y for positive angles.
    pub fn rotation(&self) -> Mat3 {
        Mat3::rot_y(self.pan) * Mat3::rot_x(self.tilt) * Mat3::rot_z(self.roll)
    }

    /// The camera-frame unit ray through output pixel `(x, y)`
    /// (pixel centers at half-integer offsets).
    ///
    /// Recomputes the view's focal length and rotation on every call;
    /// a loop over many pixels of one view should build
    /// [`PerspectiveView::rays`] once and call [`ViewRays::ray`].
    pub fn pixel_ray(&self, x: f64, y: f64) -> Vec3 {
        self.rays().ray(x, y)
    }

    /// This view's ray generator: the per-view constants (focal
    /// length, rotation, image center) computed once, so tracing a
    /// pixel costs no trigonometry and no matrix product.
    pub fn rays(&self) -> ViewRays {
        ViewRays {
            rot: self.rotation(),
            focal: self.focal_px(),
            half_w: self.width as f64 / 2.0,
            half_h: self.height as f64 / 2.0,
        }
    }

    /// Project a camera-frame ray into this view's pixel coordinates;
    /// `None` when the ray is behind the view plane.
    pub fn project(&self, ray: Vec3) -> Option<(f64, f64)> {
        let v = self.rotation().transpose() * ray;
        if v.z <= 0.0 {
            return None;
        }
        let f = self.focal_px();
        Some((
            v.x / v.z * f + self.width as f64 / 2.0,
            v.y / v.z * f + self.height as f64 / 2.0,
        ))
    }

    /// Vertical field of view implied by the aspect ratio, radians.
    pub fn v_fov(&self) -> f64 {
        2.0 * ((self.height as f64 / 2.0) / self.focal_px()).atan()
    }
}

/// A [`PerspectiveView`] compiled for per-pixel ray tracing (see
/// [`PerspectiveView::rays`]). [`ViewRays::ray`] is the one definition
/// of a perspective pixel's ray: `pixel_ray` calls it too.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ViewRays {
    /// View-to-camera rotation ([`PerspectiveView::rotation`]).
    rot: Mat3,
    /// Focal length in output pixels ([`PerspectiveView::focal_px`]).
    focal: f64,
    /// Horizontal image center, output pixels.
    half_w: f64,
    /// Vertical image center, output pixels.
    half_h: f64,
}

impl ViewRays {
    /// The camera-frame unit ray through output pixel `(x, y)`.
    #[inline]
    pub fn ray(&self, x: f64, y: f64) -> Vec3 {
        let f = self.focal;
        let vx = x - self.half_w;
        let vy = y - self.half_h;
        let v = Vec3::new(vx / f, vy / f, 1.0).normalized();
        self.rot * v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_2;

    #[test]
    fn focal_from_fov_90_degrees() {
        let v = PerspectiveView::centered(640, 480, 90.0);
        // tan(45°)=1 -> f = 320
        assert!((v.focal_px() - 320.0).abs() < 1e-9);
    }

    #[test]
    fn center_pixel_is_view_axis() {
        let v = PerspectiveView::centered(640, 480, 90.0);
        let ray = v.pixel_ray(320.0, 240.0);
        assert!((ray - Vec3::AXIS_Z).norm() < 1e-12);
    }

    #[test]
    fn pan_rotates_view_axis() {
        let v = PerspectiveView::centered(640, 480, 90.0).look(90.0, 0.0);
        let ray = v.pixel_ray(320.0, 240.0);
        assert!((ray - Vec3::new(1.0, 0.0, 0.0)).norm() < 1e-12, "{ray:?}");
    }

    #[test]
    fn positive_tilt_looks_up() {
        // y-down convention: "up" in the scene is -Y
        let v = PerspectiveView::centered(640, 480, 90.0).look(0.0, 45.0);
        let ray = v.pixel_ray(320.0, 240.0);
        assert!(ray.y < -0.5, "tilt up should give negative y: {ray:?}");
        assert!(ray.z > 0.5);
    }

    #[test]
    fn pixel_ray_project_roundtrip() {
        let v = PerspectiveView::centered(800, 600, 100.0).look(30.0, -20.0);
        for (x, y) in [(400.0, 300.0), (10.0, 10.0), (790.0, 590.0), (123.0, 456.0)] {
            let ray = v.pixel_ray(x, y);
            let (bx, by) = v.project(ray).expect("in front");
            assert!((bx - x).abs() < 1e-9, "x {x} -> {bx}");
            assert!((by - y).abs() < 1e-9, "y {y} -> {by}");
        }
    }

    #[test]
    fn project_rejects_behind_camera() {
        let v = PerspectiveView::centered(640, 480, 90.0);
        assert!(v.project(Vec3::new(0.0, 0.0, -1.0)).is_none());
    }

    #[test]
    fn right_edge_at_half_hfov() {
        let v = PerspectiveView::centered(640, 480, 90.0);
        let ray = v.pixel_ray(640.0, 240.0);
        let angle = Vec3::AXIS_Z.angle_to(ray);
        assert!((angle - FRAC_PI_2 / 2.0).abs() < 1e-12);
    }

    #[test]
    fn v_fov_matches_aspect() {
        let v = PerspectiveView::centered(640, 480, 90.0);
        // vfov = 2 atan(240/320) ≈ 73.74°
        assert!((v.v_fov().to_degrees() - 73.7397952917).abs() < 1e-6);
    }

    #[test]
    fn roll_spins_image_plane() {
        let mut v = PerspectiveView::centered(640, 640, 90.0);
        v.roll = FRAC_PI_2;
        // pixel to the right of center maps to where a pixel below
        // center would have been with no roll
        let r1 = v.pixel_ray(640.0, 320.0);
        let mut v0 = v;
        v0.roll = 0.0;
        let r2 = v0.pixel_ray(320.0, 640.0);
        assert!((r1 - r2).norm() < 1e-12, "{r1:?} vs {r2:?}");
    }

    #[test]
    fn rays_are_unit_length() {
        let v = PerspectiveView::centered(320, 240, 120.0).look(15.0, 40.0);
        for (x, y) in [(0.0, 0.0), (319.0, 239.0), (160.0, 120.0)] {
            assert!((v.pixel_ray(x, y).norm() - 1.0).abs() < 1e-12);
        }
    }
}
