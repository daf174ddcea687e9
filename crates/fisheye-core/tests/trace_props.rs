//! Bit-exact oracle suite for the map trace (phase 1).
//!
//! The builders compile a view once per build
//! ([`PerspectiveView::rays`], [`OutputProjection::rays`]) and call an
//! inlined lens projection per pixel. The oracle here is the per-pixel
//! formula written out longhand: the view's focal length (`tan`) and
//! rotation (three `sin_cos`, two matrix products) recomputed for every
//! pixel, the cylinder's `tan` per pixel, and the lens projection
//! taking θ from `angle_to` and the off-axis distance from a separate
//! `sqrt(x² + y²)`. The compiled rays and the projection must match
//! the oracle's `f64` bit patterns pixel for pixel, and every
//! `MapEntry` of every builder must match the oracle's entry — a
//! reordered division or a fused reciprocal anywhere in the trace
//! shows up as a difference here, where a comparison of two builds of
//! the new code could not see it.
//!
//! Inputs: all four lens models at random fields of view; random pan,
//! tilt, roll and output field of view, including views that leave the
//! lens's field of view and odd output sizes whose center pixel lies
//! exactly on the optical axis (`rho == 0`).

use fisheye_core::correct::correct_direct;
use fisheye_core::engine::execute_direct;
use fisheye_core::{Interpolator, MapEntry, RemapMap};
use fisheye_geom::{FisheyeLens, LensModel, Mat3, OutputProjection, PerspectiveView, Vec3};
use par_runtime::{Schedule, ThreadPool};
use pixmap::{GrayF32, Image};
use proputil::{ensure, Gen};

const CASES: u32 = 48;

// ---------------------------------------------------------------------
// The oracle: the per-pixel trace, longhand
// ---------------------------------------------------------------------

fn oracle_view_ray(view: &PerspectiveView, x: f64, y: f64) -> Vec3 {
    let f = (view.width as f64 / 2.0) / (view.h_fov / 2.0).tan();
    let vx = x - view.width as f64 / 2.0;
    let vy = y - view.height as f64 / 2.0;
    let v = Vec3::new(vx / f, vy / f, 1.0).normalized();
    let rot = Mat3::rot_y(view.pan) * Mat3::rot_x(view.tilt) * Mat3::rot_z(view.roll);
    rot * v
}

fn oracle_projection_ray(proj: &OutputProjection, x: f64, y: f64) -> Vec3 {
    match *proj {
        OutputProjection::Perspective(v) => oracle_view_ray(&v, x, y),
        OutputProjection::Cylindrical {
            h_span,
            v_half_fov,
            pan,
            width,
            height,
        } => {
            let azimuth = (x / width as f64 - 0.5) * h_span + pan;
            let half_h = v_half_fov.tan();
            let cy = (0.5 - y / height as f64) * 2.0 * half_h;
            let dir = Mat3::rot_y(azimuth) * Vec3::new(0.0, -cy, 1.0);
            dir.normalized()
        }
        OutputProjection::Equirectangular {
            h_span,
            v_span,
            width,
            height,
        } => {
            let azimuth = (x / width as f64 - 0.5) * h_span;
            let elevation = (0.5 - y / height as f64) * v_span;
            let (se, ce) = elevation.sin_cos();
            let (sa, ca) = azimuth.sin_cos();
            Vec3::new(ce * sa, -se, ce * ca)
        }
    }
}

fn oracle_project(lens: &FisheyeLens, ray: Vec3) -> Option<(f64, f64)> {
    let theta = Vec3::AXIS_Z.angle_to(ray);
    if theta > lens.max_theta {
        return None;
    }
    let r = lens.focal_px * lens.model.theta_to_r_over_f(theta);
    let rho = (ray.x * ray.x + ray.y * ray.y).sqrt();
    if rho == 0.0 {
        return Some((lens.cx, lens.cy));
    }
    Some((lens.cx + r * ray.x / rho, lens.cy + r * ray.y / rho))
}

fn oracle_entry(src: Option<(f64, f64)>, sw: f64, sh: f64) -> MapEntry {
    match src {
        Some((sx, sy)) if sx >= 0.0 && sx < sw && sy >= 0.0 && sy < sh => MapEntry {
            sx: sx as f32,
            sy: sy as f32,
        },
        _ => MapEntry::INVALID,
    }
}

/// The oracle map of `proj` over a `sw × sh` sensor.
fn oracle_map(lens: &FisheyeLens, proj: &OutputProjection, sw: u32, sh: u32) -> Vec<MapEntry> {
    let (w, h) = proj.dims();
    let mut out = Vec::with_capacity(w as usize * h as usize);
    for y in 0..h {
        for x in 0..w {
            let ray = oracle_projection_ray(proj, x as f64 + 0.5, y as f64 + 0.5);
            out.push(oracle_entry(
                oracle_project(lens, ray),
                sw as f64,
                sh as f64,
            ));
        }
    }
    out
}

/// The oracle half-resolution chroma map: the luma ray at the chroma
/// pixel's luma-space center, validated against the luma sensor, then
/// halved.
fn oracle_half_chroma(
    lens: &FisheyeLens,
    view: &PerspectiveView,
    sw: u32,
    sh: u32,
) -> Vec<MapEntry> {
    let (w, h) = (view.width.div_ceil(2), view.height.div_ceil(2));
    let (cw, ch) = (sw.div_ceil(2) as f64, sh.div_ceil(2) as f64);
    let mut out = Vec::with_capacity(w as usize * h as usize);
    for y in 0..h {
        for x in 0..w {
            let (fx, fy) = (x as f64 + 0.5, y as f64 + 0.5);
            let ray = oracle_view_ray(view, 2.0 * fx, 2.0 * fy);
            let src = oracle_project(lens, ray).and_then(|(sx, sy)| {
                (sx >= 0.0 && sx < sw as f64 && sy >= 0.0 && sy < sh as f64)
                    .then_some((sx * 0.5, sy * 0.5))
            });
            out.push(oracle_entry(src, cw, ch));
        }
    }
    out
}

// ---------------------------------------------------------------------
// Comparison and generators
// ---------------------------------------------------------------------

/// The `f64` bit patterns of a ray.
fn ray_bits(v: Vec3) -> [u64; 3] {
    [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]
}

/// The `f64` bit patterns of a projection result.
fn src_bits(p: Option<(f64, f64)>) -> Option<(u64, u64)> {
    p.map(|(x, y)| (x.to_bits(), y.to_bits()))
}

fn same_entries(what: &str, got: &RemapMap, want: &[MapEntry]) -> Result<(), String> {
    ensure!(
        got.entries().len() == want.len(),
        "{what}: entry count differs"
    );
    let w = got.width().max(1) as usize;
    for (i, (g, o)) in got.entries().iter().zip(want).enumerate() {
        let (gb, ob) = (
            (g.sx.to_bits(), g.sy.to_bits()),
            (o.sx.to_bits(), o.sy.to_bits()),
        );
        ensure!(
            gb == ob,
            "{what}: entry ({}, {}) is {:?}, oracle {:?}",
            i % w,
            i / w,
            g,
            o
        );
    }
    Ok(())
}

fn same_pixels(what: &str, got: &Image<GrayF32>, want: &Image<GrayF32>) -> Result<(), String> {
    ensure!(got.dims() == want.dims(), "{what}: dims differ");
    let w = got.width().max(1) as usize;
    for (i, (g, o)) in got.pixels().iter().zip(want.pixels()).enumerate() {
        ensure!(
            g.0.to_bits() == o.0.to_bits(),
            "{what}: pixel ({}, {}) is {}, oracle {}",
            i % w,
            i / w,
            g.0,
            o.0
        );
    }
    Ok(())
}

/// A lens of any model over a random sensor (odd sizes included).
fn arb_lens(g: &mut Gen) -> (FisheyeLens, u32, u32) {
    let model = *g.pick(&LensModel::ALL);
    let (sw, sh) = (g.u32_in(17, 97), g.u32_in(13, 81));
    let max_fov = model.max_theta().to_degrees() * 2.0;
    let fov = g.f64_in(100.0, max_fov.min(220.0));
    (FisheyeLens::with_model_fov(model, sw, sh, fov), sw, sh)
}

/// A random PTZ view; one case in four is a straight-ahead view with
/// odd dimensions, whose center pixel traces the optical axis itself.
fn arb_view(g: &mut Gen) -> PerspectiveView {
    let h_fov = g.f64_in(20.0, 170.0);
    if g.usize_in(0, 4) == 0 {
        let (w, h) = (2 * g.u32_in(2, 30) + 1, 2 * g.u32_in(2, 24) + 1);
        return PerspectiveView::centered(w, h, h_fov);
    }
    let mut view = PerspectiveView::centered(g.u32_in(3, 61), g.u32_in(3, 49), h_fov)
        .look(g.f64_in(-120.0, 120.0), g.f64_in(-100.0, 100.0));
    view.roll = g.f64_in(-180.0, 180.0).to_radians();
    view
}

fn arb_projection(g: &mut Gen, view: PerspectiveView) -> OutputProjection {
    let (w, h) = (g.u32_in(3, 61), g.u32_in(3, 49));
    match g.usize_in(0, 3) {
        0 => OutputProjection::Perspective(view),
        1 => OutputProjection::Cylindrical {
            h_span: g.f64_in(0.5, 6.2),
            v_half_fov: g.f64_in(0.1, 1.4),
            pan: g.f64_in(-3.0, 3.0),
            width: w,
            height: h,
        },
        _ => OutputProjection::Equirectangular {
            h_span: g.f64_in(0.5, 6.3),
            v_span: g.f64_in(0.3, 3.1),
            width: w,
            height: h,
        },
    }
}

const SCHEDULES: [Schedule; 2] = [
    Schedule::Static { chunk: None },
    Schedule::Dynamic { chunk: 1 },
];

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

#[test]
fn compiled_rays_and_projection_match_the_oracle_in_f64() {
    // a map entry rounds to f32, which hides a one-ulp drift in the f64
    // trace on all but a few pixels; the trace itself must match bit
    // for bit before that rounding
    proputil::check(
        "compiled_rays_and_projection_match_the_oracle_in_f64",
        CASES,
        |g| {
            let (lens, _, _) = arb_lens(g);
            let view = arb_view(g);
            let proj = arb_projection(g, view);
            let (vrays, prays) = (view.rays(), proj.rays());
            let (pw, ph) = proj.dims();
            for y in 0..view.height.max(ph) {
                for x in 0..view.width.max(pw) {
                    let (fx, fy) = (x as f64 + 0.5, y as f64 + 0.5);
                    let want = oracle_view_ray(&view, fx, fy);
                    let got = vrays.ray(fx, fy);
                    ensure!(
                        ray_bits(got) == ray_bits(want),
                        "view ray ({x}, {y}): {got:?}, oracle {want:?}"
                    );
                    ensure!(
                        ray_bits(view.pixel_ray(fx, fy)) == ray_bits(want),
                        "pixel_ray ({x}, {y}) differs from the oracle"
                    );
                    let (got_src, want_src) = (lens.project(got), oracle_project(&lens, want));
                    ensure!(
                        src_bits(got_src) == src_bits(want_src),
                        "project ({x}, {y}): {got_src:?}, oracle {want_src:?}"
                    );
                    let want = oracle_projection_ray(&proj, fx, fy);
                    let got = prays.ray(fx, fy);
                    ensure!(
                        ray_bits(got) == ray_bits(want),
                        "{} ray ({x}, {y}): {got:?}, oracle {want:?}",
                        proj.name()
                    );
                    ensure!(
                        src_bits(lens.project(got)) == src_bits(oracle_project(&lens, want)),
                        "{} project ({x}, {y}) differs from the oracle",
                        proj.name()
                    );
                }
            }
            Ok(())
        },
    );
}

#[test]
fn perspective_builds_match_the_per_pixel_oracle() {
    let pool = ThreadPool::new(2);
    proputil::check(
        "perspective_builds_match_the_per_pixel_oracle",
        CASES,
        |g| {
            let (lens, sw, sh) = arb_lens(g);
            let view = arb_view(g);
            let want = oracle_map(&lens, &OutputProjection::Perspective(view), sw, sh);
            same_entries("build", &RemapMap::build(&lens, &view, sw, sh), &want)?;
            for schedule in SCHEDULES {
                let got = RemapMap::build_parallel(&lens, &view, sw, sh, &pool, schedule);
                same_entries(&format!("build_parallel {schedule:?}"), &got, &want)?;
            }
            Ok(())
        },
    );
}

#[test]
fn half_chroma_builds_match_the_per_pixel_oracle() {
    let pool = ThreadPool::new(2);
    proputil::check(
        "half_chroma_builds_match_the_per_pixel_oracle",
        CASES,
        |g| {
            let (lens, sw, sh) = arb_lens(g);
            let view = arb_view(g);
            let want = oracle_half_chroma(&lens, &view, sw, sh);
            let serial = RemapMap::build_half_chroma(&lens, &view, sw, sh, None);
            same_entries("half chroma serial", &serial, &want)?;
            for schedule in SCHEDULES {
                let got =
                    RemapMap::build_half_chroma(&lens, &view, sw, sh, Some((&pool, schedule)));
                same_entries(&format!("half chroma {schedule:?}"), &got, &want)?;
            }
            Ok(())
        },
    );
}

#[test]
fn projection_builds_match_the_per_pixel_oracle() {
    let pool = ThreadPool::new(2);
    proputil::check("projection_builds_match_the_per_pixel_oracle", CASES, |g| {
        let (lens, sw, sh) = arb_lens(g);
        let view = arb_view(g);
        let proj = arb_projection(g, view);
        let want = oracle_map(&lens, &proj, sw, sh);
        let what = proj.name();
        same_entries(
            what,
            &RemapMap::build_projection(&lens, &proj, sw, sh),
            &want,
        )?;
        let schedule = *g.pick(&SCHEDULES);
        let got = RemapMap::build_projection_parallel(&lens, &proj, sw, sh, &pool, schedule);
        same_entries(&format!("{what} {schedule:?}"), &got, &want)
    });
}

#[test]
fn direct_correction_matches_the_per_pixel_oracle() {
    proputil::check(
        "direct_correction_matches_the_per_pixel_oracle",
        CASES,
        |g| {
            let (lens, sw, sh) = arb_lens(g);
            let view = arb_view(g);
            let interp = *g.pick(&[
                Interpolator::Nearest,
                Interpolator::Bilinear,
                Interpolator::Bicubic,
            ]);
            let base = pixmap::scene::random_gray(sw, sh, g.u64_any());
            let src = Image::from_fn(sw, sh, |x, y| GrayF32(base.pixel(x, y).0 as f32 / 255.0));
            let want = Image::from_fn(view.width, view.height, |x, y| {
                let ray = oracle_view_ray(&view, x as f64 + 0.5, y as f64 + 0.5);
                let e = oracle_entry(oracle_project(&lens, ray), sw as f64, sh as f64);
                if e.is_valid() {
                    interp.sample(&src, e.sx, e.sy)
                } else {
                    GrayF32(0.0)
                }
            });
            same_pixels(
                "correct_direct",
                &correct_direct(&src, &lens, &view, interp),
                &want,
            )?;
            let mut out = Image::new(view.width, view.height);
            execute_direct(interp, &src, &lens, &view, &mut out).map_err(|e| e.to_string())?;
            same_pixels("execute_direct", &out, &want)
        },
    );
}

#[test]
fn on_axis_pixel_lands_on_the_principal_point() {
    // odd output sizes put a pixel center on the view axis; straight
    // ahead, its ray is exactly +Z and the projection's rho == 0 branch
    // returns the principal point
    for model in LensModel::ALL {
        let lens = FisheyeLens::with_model_fov(model, 64, 48, 170.0);
        let view = PerspectiveView::centered(33, 25, 90.0);
        assert_eq!(view.rays().ray(16.5, 12.5), Vec3::AXIS_Z);
        let map = RemapMap::build(&lens, &view, 64, 48);
        let e = map.entry(16, 12);
        assert_eq!(
            (e.sx, e.sy),
            (lens.cx as f32, lens.cy as f32),
            "{}",
            model.name()
        );
        let want = oracle_map(&lens, &OutputProjection::Perspective(view), 64, 48);
        if let Err(e) = same_entries(model.name(), &map, &want) {
            panic!("{e}");
        }
    }
}

#[test]
fn views_outside_the_lens_field_are_invalid_like_the_oracle() {
    // a narrow lens looked at from behind: no pixel traces into the
    // field of view, and the map agrees with the oracle entry for entry
    let lens = FisheyeLens::with_model_fov(LensModel::Equisolid, 80, 60, 120.0);
    let view = PerspectiveView::centered(31, 23, 60.0).look(180.0, 0.0);
    let map = RemapMap::build(&lens, &view, 80, 60);
    assert_eq!(map.coverage(), 0.0);
    let want = oracle_map(&lens, &OutputProjection::Perspective(view), 80, 60);
    if let Err(e) = same_entries("behind", &map, &want) {
        panic!("{e}");
    }
}
