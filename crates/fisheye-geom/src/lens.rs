//! Radially symmetric fisheye lens models.
//!
//! A fisheye lens maps the angle θ between an incoming ray and the
//! optical axis to a radial distance on the sensor. The four classical
//! projection functions are supported; the paper's camera is an
//! **equidistant** (`r = f·θ`) design, the most common for 180°
//! surveillance lenses.

use crate::vec3::Vec3;

/// The radial projection function of a fisheye lens.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum LensModel {
    /// `r = f·θ` — the paper's lens; linear in angle.
    Equidistant,
    /// `r = 2f·sin(θ/2)` — constant solid-angle-to-area ratio.
    Equisolid,
    /// `r = 2f·tan(θ/2)` — conformal; unbounded as θ→π.
    Stereographic,
    /// `r = f·sin(θ)` — only defined for θ ≤ π/2.
    Orthographic,
}

impl LensModel {
    /// All models, for sweeps and tests.
    pub const ALL: [LensModel; 4] = [
        LensModel::Equidistant,
        LensModel::Equisolid,
        LensModel::Stereographic,
        LensModel::Orthographic,
    ];

    /// Human-readable name used in experiment reports.
    pub fn name(self) -> &'static str {
        match self {
            LensModel::Equidistant => "equidistant",
            LensModel::Equisolid => "equisolid",
            LensModel::Stereographic => "stereographic",
            LensModel::Orthographic => "orthographic",
        }
    }

    /// Normalized mapping `r/f` for angle θ (radians).
    #[inline]
    pub fn theta_to_r_over_f(self, theta: f64) -> f64 {
        match self {
            LensModel::Equidistant => theta,
            LensModel::Equisolid => 2.0 * (theta / 2.0).sin(),
            LensModel::Stereographic => 2.0 * (theta / 2.0).tan(),
            LensModel::Orthographic => theta.min(std::f64::consts::FRAC_PI_2).sin(),
        }
    }

    /// Inverse mapping: angle θ for normalized radius `r/f`.
    /// Values beyond the lens's physical range are clamped.
    #[inline]
    pub fn r_over_f_to_theta(self, q: f64) -> f64 {
        match self {
            LensModel::Equidistant => q,
            LensModel::Equisolid => 2.0 * (q / 2.0).clamp(-1.0, 1.0).asin(),
            LensModel::Stereographic => 2.0 * (q / 2.0).atan(),
            LensModel::Orthographic => q.clamp(-1.0, 1.0).asin(),
        }
    }

    /// Largest θ the model can represent (π for equidistant &
    /// stereographic in principle; we cap at π which is a full sphere).
    pub fn max_theta(self) -> f64 {
        match self {
            LensModel::Equidistant => std::f64::consts::PI,
            LensModel::Equisolid => std::f64::consts::PI,
            LensModel::Stereographic => std::f64::consts::PI * 0.999,
            LensModel::Orthographic => std::f64::consts::FRAC_PI_2,
        }
    }
}

/// A concrete fisheye camera: model + focal length + principal point +
/// field of view.
///
/// ```
/// use fisheye_geom::{FisheyeLens, Vec3};
///
/// let lens = FisheyeLens::equidistant_fov(640, 480, 180.0);
/// // the optical axis lands on the principal point
/// assert_eq!(lens.project(Vec3::AXIS_Z), Some((320.0, 240.0)));
/// // unproject inverts project
/// let ray = lens.unproject(400.0, 300.0).unwrap();
/// let (px, py) = lens.project(ray).unwrap();
/// assert!((px - 400.0).abs() < 1e-9 && (py - 300.0).abs() < 1e-9);
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct FisheyeLens {
    /// Projection function.
    pub model: LensModel,
    /// Focal length in pixels (the `f` in `r = f·θ`).
    pub focal_px: f64,
    /// Principal point (image center), pixels.
    pub cx: f64,
    /// Principal point (image center), pixels.
    pub cy: f64,
    /// Half field-of-view in radians (rays with θ beyond this are
    /// outside the image circle).
    pub max_theta: f64,
}

impl FisheyeLens {
    /// An equidistant lens whose 2·`fov_deg`° field of view exactly
    /// fills a `width`×`height` sensor's inscribed circle — the
    /// standard "180° fisheye filling the short axis" setup.
    pub fn equidistant_fov(width: u32, height: u32, fov_deg: f64) -> Self {
        let half_fov = fov_deg.to_radians() / 2.0;
        let radius = width.min(height) as f64 / 2.0;
        // r(half_fov) = radius  =>  f = radius / map(half_fov)
        let f = radius / LensModel::Equidistant.theta_to_r_over_f(half_fov);
        FisheyeLens {
            model: LensModel::Equidistant,
            focal_px: f,
            cx: width as f64 / 2.0,
            cy: height as f64 / 2.0,
            max_theta: half_fov,
        }
    }

    /// Same construction for an arbitrary model.
    pub fn with_model_fov(model: LensModel, width: u32, height: u32, fov_deg: f64) -> Self {
        let half_fov = (fov_deg.to_radians() / 2.0).min(model.max_theta());
        let radius = width.min(height) as f64 / 2.0;
        let f = radius / model.theta_to_r_over_f(half_fov);
        FisheyeLens {
            model,
            focal_px: f,
            cx: width as f64 / 2.0,
            cy: height as f64 / 2.0,
            max_theta: half_fov,
        }
    }

    /// The same lens observed at a different raster scale (e.g. 0.5
    /// for the half-resolution chroma planes of a 4:2:0 frame): focal
    /// length and principal point scale together, angles are
    /// unchanged.
    pub fn scaled(&self, factor: f64) -> FisheyeLens {
        assert!(factor > 0.0, "scale factor must be positive");
        FisheyeLens {
            model: self.model,
            focal_px: self.focal_px * factor,
            cx: self.cx * factor,
            cy: self.cy * factor,
            max_theta: self.max_theta,
        }
    }

    /// Radius of the image circle in pixels.
    pub fn image_circle_radius(&self) -> f64 {
        self.focal_px * self.model.theta_to_r_over_f(self.max_theta)
    }

    /// Project a camera-frame ray (need not be normalized, must not be
    /// the zero vector) to fisheye pixel coordinates. Returns `None`
    /// when the ray's θ exceeds the lens field of view.
    #[inline]
    pub fn project(&self, ray: Vec3) -> Option<(f64, f64)> {
        // θ = atan2(|ẑ × ray|, ẑ · ray), as `Vec3::angle_to` computes
        // it, with the cross-product norm kept as ρ, the ray's distance
        // from the optical axis. That norm equals `sqrt(x² + y²)` bit
        // for bit: ẑ × ray is `(−y, x, ±0)` (the zero multiplies are
        // exact), so its squared norm sums `y² + x²` (IEEE addition is
        // commutative) and then adds `+0`, which is exact for the
        // non-negative sum.
        let rho = Vec3::AXIS_Z.cross(ray).norm();
        let theta = rho.atan2(Vec3::AXIS_Z.dot(ray));
        if theta > self.max_theta {
            return None;
        }
        let r = self.focal_px * self.model.theta_to_r_over_f(theta);
        if rho == 0.0 {
            // on-axis ray maps to the principal point
            return Some((self.cx, self.cy));
        }
        Some((self.cx + r * ray.x / rho, self.cy + r * ray.y / rho))
    }

    /// Unproject fisheye pixel coordinates to a unit camera-frame ray.
    /// Returns `None` outside the image circle.
    pub fn unproject(&self, px: f64, py: f64) -> Option<Vec3> {
        let dx = px - self.cx;
        let dy = py - self.cy;
        let r = (dx * dx + dy * dy).sqrt();
        let theta = self.model.r_over_f_to_theta(r / self.focal_px);
        if theta > self.max_theta {
            return None;
        }
        if r == 0.0 {
            return Some(Vec3::AXIS_Z);
        }
        let (st, ct) = theta.sin_cos();
        Some(Vec3::new(st * dx / r, st * dy / r, ct))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};

    #[test]
    fn model_names_unique() {
        let names: Vec<_> = LensModel::ALL.iter().map(|m| m.name()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
    }

    #[test]
    fn equidistant_is_linear() {
        let m = LensModel::Equidistant;
        assert_eq!(m.theta_to_r_over_f(0.0), 0.0);
        assert_eq!(m.theta_to_r_over_f(1.0), 1.0);
        assert_eq!(m.theta_to_r_over_f(FRAC_PI_2), FRAC_PI_2);
    }

    #[test]
    fn forward_inverse_roundtrip_all_models() {
        for m in LensModel::ALL {
            let max = m.max_theta().min(FRAC_PI_2 * 1.8);
            for i in 0..50 {
                let theta = max * i as f64 / 50.0;
                let q = m.theta_to_r_over_f(theta);
                let back = m.r_over_f_to_theta(q);
                assert!(
                    (back - theta).abs() < 1e-10,
                    "{}: θ={theta} -> q={q} -> {back}",
                    m.name()
                );
            }
        }
    }

    #[test]
    fn mapping_is_monotone_in_theta() {
        for m in LensModel::ALL {
            let max = m.max_theta().min(3.0);
            let mut prev = -1.0;
            for i in 0..=100 {
                let q = m.theta_to_r_over_f(max * i as f64 / 100.0);
                assert!(q >= prev, "{} not monotone", m.name());
                prev = q;
            }
        }
    }

    #[test]
    fn known_values_at_90_degrees() {
        // θ=π/2: equidistant -> π/2; equisolid -> 2 sin(π/4)=√2;
        // stereographic -> 2 tan(π/4)=2; orthographic -> 1
        assert!((LensModel::Equidistant.theta_to_r_over_f(FRAC_PI_2) - FRAC_PI_2).abs() < 1e-12);
        assert!((LensModel::Equisolid.theta_to_r_over_f(FRAC_PI_2) - 2f64.sqrt()).abs() < 1e-12);
        assert!((LensModel::Stereographic.theta_to_r_over_f(FRAC_PI_2) - 2.0).abs() < 1e-12);
        assert!((LensModel::Orthographic.theta_to_r_over_f(FRAC_PI_2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fov_construction_fills_circle() {
        let lens = FisheyeLens::equidistant_fov(640, 480, 180.0);
        assert_eq!(lens.cx, 320.0);
        assert_eq!(lens.cy, 240.0);
        assert!((lens.max_theta - FRAC_PI_2).abs() < 1e-12);
        // the image circle radius equals the short half-axis
        assert!((lens.image_circle_radius() - 240.0).abs() < 1e-9);
        // focal = 240/(π/2)
        assert!((lens.focal_px - 240.0 / FRAC_PI_2).abs() < 1e-9);
    }

    #[test]
    fn project_on_axis_hits_center() {
        let lens = FisheyeLens::equidistant_fov(640, 480, 180.0);
        let (x, y) = lens.project(Vec3::AXIS_Z).unwrap();
        assert_eq!((x, y), (320.0, 240.0));
    }

    #[test]
    fn project_90deg_hits_circle_edge() {
        let lens = FisheyeLens::equidistant_fov(480, 480, 180.0);
        // ray along +X is exactly at θ = π/2 = max_theta
        let (x, y) = lens.project(Vec3::new(1.0, 0.0, 1e-15)).unwrap();
        assert!((x - 480.0).abs() < 1e-6, "x = {x}");
        assert!((y - 240.0).abs() < 1e-6, "y = {y}");
    }

    #[test]
    fn project_rejects_outside_fov() {
        let lens = FisheyeLens::equidistant_fov(480, 480, 160.0);
        // θ = 85° is inside; θ = 95° (z < 0) is outside
        let inside = Vec3::new(FRAC_PI_4.sin(), 0.0, FRAC_PI_4.cos());
        assert!(lens.project(inside).is_some());
        let outside = Vec3::new(1.0, 0.0, -0.2);
        assert!(lens.project(outside).is_none());
    }

    #[test]
    fn unproject_project_roundtrip() {
        let lens = FisheyeLens::equidistant_fov(640, 480, 180.0);
        for (px, py) in [
            (320.0, 240.0),
            (400.0, 240.0),
            (320.0, 100.0),
            (450.0, 300.0),
        ] {
            let ray = lens.unproject(px, py).expect("inside circle");
            assert!((ray.norm() - 1.0).abs() < 1e-12, "unit ray");
            let (bx, by) = lens.project(ray).expect("inside fov");
            assert!((bx - px).abs() < 1e-9 && (by - py).abs() < 1e-9);
        }
    }

    #[test]
    fn unproject_rejects_outside_circle() {
        let lens = FisheyeLens::equidistant_fov(480, 480, 180.0);
        // corner of the square sensor lies beyond the inscribed circle
        assert!(lens.unproject(0.0, 0.0).is_none());
        assert!(lens.unproject(240.0, 240.0).is_some());
    }

    #[test]
    fn project_roundtrip_all_models() {
        for m in LensModel::ALL {
            let lens = FisheyeLens::with_model_fov(
                m,
                512,
                512,
                170.0_f64.min(m.max_theta().to_degrees() * 2.0 - 1.0),
            );
            let ray = Vec3::new(0.3, -0.2, 0.9).normalized();
            let (px, py) = lens
                .project(ray)
                .unwrap_or_else(|| panic!("{} project", m.name()));
            let back = lens.unproject(px, py).unwrap();
            assert!(
                (back - ray).norm() < 1e-9,
                "{}: {ray:?} -> ({px},{py}) -> {back:?}",
                m.name()
            );
        }
    }

    #[test]
    fn azimuth_preserved() {
        // radial symmetry: projecting a ray keeps its image azimuth
        let lens = FisheyeLens::equidistant_fov(1000, 1000, 180.0);
        let phi = 1.1f64;
        let theta = 0.7f64;
        let ray = Vec3::new(
            theta.sin() * phi.cos(),
            theta.sin() * phi.sin(),
            theta.cos(),
        );
        let (x, y) = lens.project(ray).unwrap();
        let got_phi = (y - lens.cy).atan2(x - lens.cx);
        assert!((got_phi - phi).abs() < 1e-12);
    }

    #[test]
    fn max_theta_of_orthographic_is_quarter_turn() {
        assert_eq!(LensModel::Orthographic.max_theta(), FRAC_PI_2);
        assert_eq!(LensModel::Equidistant.max_theta(), PI);
    }
}
