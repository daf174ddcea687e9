//! Synthetic fisheye capture — the camera substitute.
//!
//! The paper's input is footage from a physical 180° fisheye camera.
//! We reproduce the optics in software instead: a `pixmap` scene is
//! placed in the world, and each fisheye sensor pixel integrates the
//! scene along its (un-distorted) ray. Two world models are provided:
//!
//! * **Planar**: the scene is painted on the image plane of a
//!   reference [`PerspectiveView`]. Correcting the captured frame with
//!   that same view must reproduce the scene exactly (up to
//!   interpolation), which gives every accuracy experiment an exact
//!   ground truth.
//! * **Spherical**: the scene is an equirectangular environment map
//!   covering the full sphere, so even 180°+ lenses have content at
//!   every pixel (used by the visual examples).
//!
//! Supersampling (`ss` × `ss` rays per pixel) antialiases the capture,
//! mimicking a real sensor's area integration.

use fisheye_geom::{FisheyeLens, PerspectiveView, Vec3};
use pixmap::scene::Scene;
use pixmap::{Gray8, GrayF32, Image};

/// How the scene is embedded in the world.
#[derive(Clone, Copy, Debug)]
pub enum World<'a> {
    /// Painted on the image plane of this reference view; rays that
    /// miss the plane (or are behind it) read black.
    Planar(&'a PerspectiveView),
    /// Wrapped around the full sphere as an equirectangular map:
    /// u = azimuth/2π, v = polar/π.
    Spherical,
}

/// Sample the scene along a camera-frame ray.
fn shade(scene: &dyn Scene, world: &World, ray: Vec3) -> f32 {
    match world {
        World::Planar(view) => match view.project(ray) {
            Some((px, py)) => {
                let u = px / view.width as f64;
                let v = py / view.height as f64;
                if (0.0..1.0).contains(&u) && (0.0..1.0).contains(&v) {
                    scene.sample(u, v)
                } else {
                    0.0
                }
            }
            None => 0.0,
        },
        World::Spherical => {
            let azimuth = ray.x.atan2(ray.z); // [-π, π], 0 = straight ahead
            let polar = ray.y.atan2((ray.x * ray.x + ray.z * ray.z).sqrt()); // [-π/2, π/2]
            let u = azimuth / std::f64::consts::TAU + 0.5;
            let v = polar / std::f64::consts::PI + 0.5;
            scene.sample(u, v)
        }
    }
}

/// Render the frame a fisheye camera would capture of `scene`.
///
/// `ss` is the supersampling grid per pixel axis (1 = point sampling,
/// 2 = 4 rays/pixel, …). Pixels outside the lens's image circle are
/// black, exactly like a real sensor behind a circular image.
pub fn capture_fisheye(
    scene: &dyn Scene,
    world: World,
    lens: &FisheyeLens,
    width: u32,
    height: u32,
    ss: u32,
) -> Image<Gray8> {
    capture_fisheye_f32(scene, world, lens, width, height, ss).map(Gray8::from)
}

/// Float-precision variant of [`capture_fisheye`].
pub fn capture_fisheye_f32(
    scene: &dyn Scene,
    world: World,
    lens: &FisheyeLens,
    width: u32,
    height: u32,
    ss: u32,
) -> Image<GrayF32> {
    assert!(ss >= 1, "supersampling factor must be >= 1");
    let inv = 1.0 / ss as f64;
    let norm = 1.0 / (ss * ss) as f32;
    Image::from_fn(width, height, |x, y| {
        let mut acc = 0.0f32;
        for sy in 0..ss {
            for sx in 0..ss {
                let px = x as f64 + (sx as f64 + 0.5) * inv;
                let py = y as f64 + (sy as f64 + 0.5) * inv;
                // outside the image circle contributes black
                if let Some(ray) = lens.unproject(px, py) {
                    acc += shade(scene, &world, ray);
                }
            }
        }
        GrayF32(acc * norm)
    })
}

/// Render the planar YCbCr 4:2:0 frame a fisheye camera would capture
/// of a three-channel scene: `luma` drives the full-resolution Y
/// plane, `cb`/`cr` drive the chroma planes captured at
/// `ceil(dim/2)` resolution through the half-scaled lens
/// ([`FisheyeLens::scaled`]`(0.5)`) — the exact plane geometry the
/// frame layer's `HalfChroma` class corrects. The same `world` works
/// for both resolutions because planar shading normalizes by view
/// dimensions.
#[allow(clippy::too_many_arguments)]
pub fn capture_fisheye_yuv(
    luma: &dyn Scene,
    cb: &dyn Scene,
    cr: &dyn Scene,
    world: World,
    lens: &FisheyeLens,
    width: u32,
    height: u32,
    ss: u32,
) -> pixmap::yuv::Yuv420 {
    let half = lens.scaled(0.5);
    let (cw, ch) = (width.div_ceil(2), height.div_ceil(2));
    pixmap::yuv::Yuv420 {
        y: capture_fisheye(luma, world, lens, width, height, ss),
        cb: capture_fisheye(cb, world, &half, cw, ch, ss),
        cr: capture_fisheye(cr, world, &half, cw, ch, ss),
    }
}

/// Render the exact ground-truth corrected frame: the scene as seen by
/// `view` directly (no fisheye in the loop). Comparing a corrected
/// capture against this isolates the correction error.
pub fn ground_truth(
    scene: &dyn Scene,
    world: World,
    view: &PerspectiveView,
    ss: u32,
) -> Image<Gray8> {
    assert!(ss >= 1, "supersampling factor must be >= 1");
    let inv = 1.0 / ss as f64;
    let norm = 1.0 / (ss * ss) as f32;
    let rays = view.rays();
    Image::from_fn(view.width, view.height, |x, y| {
        let mut acc = 0.0f32;
        for sy in 0..ss {
            for sx in 0..ss {
                let px = x as f64 + (sx as f64 + 0.5) * inv;
                let py = y as f64 + (sy as f64 + 0.5) * inv;
                let ray = rays.ray(px, py);
                acc += shade(scene, &world, ray);
            }
        }
        Gray8::from(GrayF32(acc * norm))
    })
}

/// The standard experiment input bundle: a lens, a captured distorted
/// frame, a view, and the matching ground truth.
pub struct TestCase {
    /// The simulated camera.
    pub lens: FisheyeLens,
    /// The distorted capture (experiment input).
    pub distorted: Image<Gray8>,
    /// The corrected-output camera.
    pub view: PerspectiveView,
    /// What a perfect correction would produce.
    pub truth: Image<Gray8>,
}

/// Build the standard test case used across experiments: a 180°
/// equidistant lens capturing `scene` painted on the plane of `view`.
pub fn standard_case(
    scene: &dyn Scene,
    src_w: u32,
    src_h: u32,
    view: PerspectiveView,
    ss: u32,
) -> TestCase {
    let lens = FisheyeLens::equidistant_fov(src_w, src_h, 180.0);
    let world = World::Planar(&view);
    let distorted = capture_fisheye(scene, world, &lens, src_w, src_h, ss);
    let truth = ground_truth(scene, world, &view, ss);
    TestCase {
        lens,
        distorted,
        view,
        truth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{correct, Interpolator, RemapMap};
    use pixmap::metrics::psnr;
    use pixmap::scene::{Checkerboard, RadialGradient};

    #[test]
    fn capture_has_black_outside_image_circle() {
        let lens = FisheyeLens::equidistant_fov(64, 64, 180.0);
        let view = PerspectiveView::centered(64, 64, 90.0);
        let img = capture_fisheye(&RadialGradient, World::Planar(&view), &lens, 64, 64, 1);
        // corners are outside the inscribed circle
        assert_eq!(img.pixel(0, 0), Gray8(0));
        assert_eq!(img.pixel(63, 63), Gray8(0));
        // center sees the gradient's bright middle
        assert!(img.pixel(32, 32).0 > 200);
    }

    #[test]
    fn correction_recovers_scene() {
        // the headline closed loop: scene -> fisheye capture ->
        // correction -> compare with direct rendering
        let scene = Checkerboard { cells: 6 };
        let view = PerspectiveView::centered(96, 96, 80.0);
        let case = standard_case(&scene, 192, 192, view, 2);
        let map = RemapMap::build(&case.lens, &case.view, 192, 192);
        let corrected = correct(&case.distorted, &map, Interpolator::Bilinear);
        // binary edges resampled twice cap PSNR in the high teens; a
        // broken mapping lands below 10 dB
        let q = psnr(&corrected, &case.truth);
        assert!(q > 16.0, "PSNR {q} dB too low — correction failed");
    }

    #[test]
    fn correction_of_smooth_scene_is_nearly_exact() {
        let scene = RadialGradient;
        let view = PerspectiveView::centered(96, 96, 80.0);
        let case = standard_case(&scene, 192, 192, view, 2);
        let map = RemapMap::build(&case.lens, &case.view, 192, 192);
        let corrected = correct(&case.distorted, &map, Interpolator::Bilinear);
        let q = psnr(&corrected, &case.truth);
        assert!(q > 35.0, "PSNR {q} dB too low for smooth content");
    }

    #[test]
    fn supersampling_reduces_alias_error() {
        let scene = Checkerboard { cells: 10 };
        let view = PerspectiveView::centered(64, 64, 80.0);
        let world = World::Planar(&view);
        let lens = FisheyeLens::equidistant_fov(128, 128, 180.0);
        let ss1 = capture_fisheye(&scene, world, &lens, 128, 128, 1);
        let ss3 = capture_fisheye(&scene, world, &lens, 128, 128, 3);
        // supersampled capture has intermediate gray at edges
        let has_gray = ss3.pixels().iter().any(|p| p.0 > 30 && p.0 < 225);
        assert!(has_gray, "antialiased capture should have gray edges");
        // and differs from the point-sampled one
        assert_ne!(ss1, ss3);
    }

    #[test]
    fn spherical_world_fills_the_circle() {
        let lens = FisheyeLens::equidistant_fov(64, 64, 180.0);
        let img = capture_fisheye(&RadialGradient, World::Spherical, &lens, 64, 64, 1);
        // inside the circle nothing is forced to black by geometry —
        // probe a few points well inside
        for (x, y) in [(32u32, 32u32), (20, 32), (32, 10), (45, 45)] {
            // gradient covers the whole sphere; only exact scene zeros
            // are black, which the gradient has only at its rim
            let _ = img.pixel(x, y); // must not panic
        }
        assert!(img.pixel(32, 32).0 > 0);
    }

    #[test]
    fn ground_truth_matches_scene_rasterization() {
        // for the reference view itself, ground truth == rasterized
        // scene (the plane *is* the view plane)
        use pixmap::scene::Scene as _;
        let scene = Checkerboard { cells: 4 };
        let view = PerspectiveView::centered(64, 64, 90.0);
        let truth = ground_truth(&scene, World::Planar(&view), &view, 1);
        let raster = scene.rasterize(64, 64);
        assert_eq!(truth, raster);
    }

    #[test]
    fn panned_view_ground_truth_differs() {
        let scene = Checkerboard { cells: 4 };
        let base = PerspectiveView::centered(64, 64, 90.0);
        let truth0 = ground_truth(&scene, World::Planar(&base), &base, 1);
        let panned = base.look(20.0, 0.0);
        let truth1 = ground_truth(&scene, World::Planar(&base), &panned, 1);
        assert_ne!(truth0, truth1);
    }

    #[test]
    #[should_panic(expected = "supersampling")]
    fn zero_supersampling_rejected() {
        let lens = FisheyeLens::equidistant_fov(8, 8, 180.0);
        let view = PerspectiveView::centered(8, 8, 90.0);
        let _ = capture_fisheye(&RadialGradient, World::Planar(&view), &lens, 8, 8, 0);
    }
}
