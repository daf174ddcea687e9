//! Property-based tests of the bilinear corner plane: every host
//! backend that samples bilinear through a plan's corner rows (serial,
//! smp, simd where the pixel type has it, and `correct_plan_into`)
//! must match the branchy reference [`correct`] bit for bit, single
//! and composite, on `Gray8`, `GrayF32` and `Rgb8` frames (composites
//! on the two types with a blend datapath, `Gray8` and `GrayF32`).
//!
//! The maps are chosen to stress exactly what the corner plane
//! changes: coordinates that clamp on each of the four source borders
//! (and sit a hair inside them), 1×N and N×1 sources with no interior
//! footprint at all, odd output widths, and a source wider than
//! `u16::MAX`, which compiles to an all-`EDGE` plane.
//!
//! Runs on the in-tree `proputil` harness (seeded cases, halving
//! shrinker) — see DESIGN.md §5 for why no external property-test
//! crate is used.

use std::sync::Arc;

use fisheye_core::composite::{compose_layers, CompositePlan};
use fisheye_core::engine::{EngineSpec, HostEnv};
use fisheye_core::plan::{correct_plan_into, Corner, PlanOptions, RemapPlan};
use fisheye_core::{
    correct, execute_composite_host, CompositePixel, EnginePixel, Interpolator, MapEntry, RemapMap,
};
use fisheye_geom::{FisheyeLens, PerspectiveView};
use par_runtime::{Schedule, ThreadPool};
use pixmap::{Gray8, GrayF32, Image, Pixel, Rgb8};
use proputil::{ensure, Gen};

const CASES: u32 = 64;

/// Every channel's bit pattern: byte-for-byte equality for the 8-bit
/// types, and `-0.0`/NaN-exact equality for `GrayF32`.
fn bits<P: Pixel>(img: &Image<P>) -> Vec<u32> {
    img.pixels()
        .iter()
        .flat_map(|p| (0..P::CHANNELS).map(move |c| p.channel_f32(c).to_bits()))
        .collect()
}

fn same<P: Pixel>(what: &str, got: &Image<P>, want: &Image<P>) -> Result<(), String> {
    ensure!(got.dims() == want.dims(), "{what}: dims differ");
    let (g, w) = (bits(got), bits(want));
    if let Some(i) = g.iter().zip(&w).position(|(a, b)| a != b) {
        let px = i / P::CHANNELS;
        let wd = got.width().max(1) as usize;
        return Err(format!(
            "{what}: first difference at pixel ({}, {}) channel {}: {:#x} vs {:#x}",
            px % wd,
            px / wd,
            i % P::CHANNELS,
            g[i],
            w[i]
        ));
    }
    Ok(())
}

/// A source coordinate on one axis of a `dim`-texel source, biased
/// toward the places where the corner plane's interior test flips:
/// both borders, a hair inside and outside them, and beyond.
fn arb_coord(g: &mut Gen, dim: u32) -> f32 {
    let d = dim as f32;
    match g.usize_in(0, 9) {
        0 => 0.5,
        1 => 0.5 - f32::EPSILON,
        2 => d - 0.5,
        3 => d - 0.5 - 1e-3,
        4 => d - 1.5,
        5 => g.f64_in(-3.0, 0.5) as f32,
        6 => g.f64_in(d as f64 - 0.5, d as f64 + 3.0) as f32,
        7 => g.u32_in(0, dim) as f32 + 0.5,
        _ => g.f64_in(0.0, d as f64) as f32,
    }
}

/// A hand-built map over a `sw × sh` source whose coordinates clamp
/// on all four borders, with a sprinkling of invalid entries.
fn arb_clamp_map(g: &mut Gen, ow: u32, oh: u32, sw: u32, sh: u32) -> RemapMap {
    let entries = (0..ow as usize * oh as usize)
        .map(|_| {
            if g.usize_in(0, 15) == 0 {
                MapEntry::INVALID
            } else {
                MapEntry {
                    sx: arb_coord(g, sw),
                    sy: arb_coord(g, sh),
                }
            }
        })
        .collect();
    RemapMap::from_entries(ow, oh, sw, sh, entries)
}

/// A traced fisheye map: real geometry, with invalid borders when the
/// view is wider than the lens.
fn arb_lens_map(g: &mut Gen, ow: u32, oh: u32, sw: u32, sh: u32) -> RemapMap {
    let lens = FisheyeLens::equidistant_fov(sw, sh, g.f64_in(100.0, 200.0));
    let view = PerspectiveView::centered(ow, oh, g.f64_in(40.0, 170.0))
        .look(g.f64_in(-30.0, 30.0), g.f64_in(-20.0, 20.0));
    RemapMap::build(&lens, &view, sw, sh)
}

/// Source dimensions: mostly ordinary, sometimes one texel wide or
/// tall (no interior footprint on that axis).
fn arb_src_dims(g: &mut Gen) -> (u32, u32) {
    match g.usize_in(0, 5) {
        0 => (1, g.u32_in(1, 40)),
        1 => (g.u32_in(1, 40), 1),
        _ => (g.u32_in(2, 48), g.u32_in(2, 48)),
    }
}

/// An odd or even output width, biased odd.
fn arb_out_dims(g: &mut Gen) -> (u32, u32) {
    let w = g.u32_in(1, 40);
    (if g.bool() { w | 1 } else { w }, g.u32_in(1, 24))
}

fn arb_map(g: &mut Gen) -> RemapMap {
    let (sw, sh) = arb_src_dims(g);
    let (ow, oh) = arb_out_dims(g);
    if sw >= 8 && sh >= 8 && g.bool() {
        arb_lens_map(g, ow, oh, sw, sh)
    } else {
        arb_clamp_map(g, ow, oh, sw, sh)
    }
}

/// Random frames of each type. `GrayF32` carries values outside
/// `[0, 1]` and signed zeros, which the float path passes through.
trait ArbFrame: EnginePixel {
    fn frame(g: &mut Gen, w: u32, h: u32) -> Image<Self>;
}

impl ArbFrame for Gray8 {
    fn frame(g: &mut Gen, w: u32, h: u32) -> Image<Gray8> {
        pixmap::scene::random_gray(w, h, g.u64_any())
    }
}

impl ArbFrame for Rgb8 {
    fn frame(g: &mut Gen, w: u32, h: u32) -> Image<Rgb8> {
        pixmap::scene::random_rgb(w, h, g.u64_any())
    }
}

impl ArbFrame for GrayF32 {
    fn frame(g: &mut Gen, w: u32, h: u32) -> Image<GrayF32> {
        let seed = g.u64_any();
        let base = pixmap::scene::random_gray(w, h, seed);
        Image::from_fn(w, h, |x, y| {
            let v = base.pixel(x, y).0;
            GrayF32(match v % 16 {
                0 => -0.0,
                1 => 0.0,
                2 => 3.5,
                3 => -1.25,
                _ => v as f32 / 255.0,
            })
        })
    }
}

fn pool() -> ThreadPool {
    ThreadPool::new(2)
}

/// The float host backends for `P`: serial, smp and (where offered)
/// simd.
fn specs<P: EnginePixel>() -> Vec<EngineSpec> {
    let mut specs = vec![
        EngineSpec::Serial,
        EngineSpec::Smp {
            schedule: Schedule::Dynamic { chunk: 3 },
        },
    ];
    if P::HAS_SIMD {
        specs.push(EngineSpec::Simd);
    }
    specs
}

/// Every bilinear host path over one plan against [`correct`].
fn single_matches<P: ArbFrame>(
    map: &RemapMap,
    src: &Image<P>,
    pool: &ThreadPool,
) -> Result<(), String> {
    let plan = RemapPlan::compile(map, PlanOptions::default());
    let reference = correct(src, map, Interpolator::Bilinear);
    let mut out = Image::new(map.width(), map.height());
    correct_plan_into(src, &plan, Interpolator::Bilinear, &mut out);
    same("correct_plan_into", &out, &reference)?;
    let env = HostEnv {
        pool: Some(pool),
        ..HostEnv::default()
    };
    for spec in specs::<P>() {
        let mut out = Image::new(map.width(), map.height());
        fisheye_core::engine::execute_host(
            &spec,
            Interpolator::Bilinear,
            src,
            &plan,
            None,
            &env,
            &mut out,
        )
        .map_err(|e| format!("{}: {e}", spec.name()))?;
        same(&spec.name(), &out, &reference)?;
    }
    Ok(())
}

/// Every bilinear host path over a composite of `maps` (one shared
/// output surface) against [`compose_layers`] over [`correct`] layers.
fn composite_matches<P: ArbFrame + CompositePixel>(
    g: &mut Gen,
    maps: &[RemapMap],
    pool: &ThreadPool,
) -> Result<(), String> {
    let (ow, oh) = (maps[0].width(), maps[0].height());
    let frames: Vec<Image<P>> = maps
        .iter()
        .map(|m| {
            let (sw, sh) = m.src_dims();
            P::frame(g, sw, sh)
        })
        .collect();
    let plans: Vec<Arc<RemapPlan>> = maps
        .iter()
        .map(|m| Arc::new(RemapPlan::compile(m, PlanOptions::default())))
        .collect();
    // random scores with zeros: exclusive runs, blend runs and gaps
    let scores: Vec<Vec<f32>> = maps
        .iter()
        .map(|_| {
            (0..ow as usize * oh as usize)
                .map(|_| {
                    if g.usize_in(0, 3) == 0 {
                        0.0
                    } else {
                        g.f64_in(0.0, 1.0) as f32
                    }
                })
                .collect()
        })
        .collect();
    let plan = CompositePlan::assemble(plans, &scores);
    let layers: Vec<Image<P>> = maps
        .iter()
        .zip(&frames)
        .map(|(m, f)| correct(f, m, Interpolator::Bilinear))
        .collect();
    let reference = compose_layers(&plan, &layers.iter().collect::<Vec<_>>());
    let srcs: Vec<&Image<P>> = frames.iter().collect();
    let env = HostEnv {
        pool: Some(pool),
        ..HostEnv::default()
    };
    for spec in specs::<P>() {
        let mut out = Image::new(ow, oh);
        execute_composite_host(
            &spec,
            Interpolator::Bilinear,
            &srcs,
            &plan,
            None,
            &env,
            &mut out,
        )
        .map_err(|e| format!("composite {}: {e}", spec.name()))?;
        same(&format!("composite {}", spec.name()), &out, &reference)?;
    }
    Ok(())
}

#[test]
fn corner_sampler_bit_exact_with_correct_on_every_host_backend() {
    let pool = pool();
    proputil::check(
        "corner_sampler_bit_exact_with_correct_on_every_host_backend",
        CASES,
        |g| {
            let map = arb_map(g);
            let (sw, sh) = map.src_dims();
            let gray = Gray8::frame(g, sw, sh);
            single_matches(&map, &gray, &pool).map_err(|e| format!("gray8: {e}"))?;
            let f32s = GrayF32::frame(g, sw, sh);
            single_matches(&map, &f32s, &pool).map_err(|e| format!("grayf32: {e}"))?;
            let rgb = Rgb8::frame(g, sw, sh);
            single_matches(&map, &rgb, &pool).map_err(|e| format!("rgb8: {e}"))
        },
    );
}

#[test]
fn composite_corner_sampler_bit_exact_with_correct_layers() {
    let pool = pool();
    proputil::check(
        "composite_corner_sampler_bit_exact_with_correct_layers",
        CASES,
        |g| {
            let (ow, oh) = arb_out_dims(g);
            let n = g.usize_in(1, 3);
            let maps: Vec<RemapMap> = (0..n)
                .map(|_| {
                    let (sw, sh) = arb_src_dims(g);
                    arb_clamp_map(g, ow, oh, sw, sh)
                })
                .collect();
            composite_matches::<Gray8>(g, &maps, &pool).map_err(|e| format!("gray8: {e}"))?;
            composite_matches::<GrayF32>(g, &maps, &pool).map_err(|e| format!("grayf32: {e}"))
        },
    );
}

#[test]
fn source_wider_than_u16_compiles_to_all_edge_and_stays_exact() {
    // 65 600 × 3: every corner is EDGE, so the whole frame takes the
    // clamping path, and still matches the reference on every backend
    let (sw, sh) = (65_600u32, 3u32);
    let mut g = Gen::from_seed(0x5eed_0c0e);
    let map = arb_clamp_map(&mut g, 33, 4, sw, sh);
    let plan = RemapPlan::compile(&map, PlanOptions::default());
    for y in 0..map.height() {
        assert!(
            plan.row_corners(y).iter().all(|&c| c == Corner::EDGE),
            "row {y}"
        );
    }
    let pool = pool();
    let check = |r: Result<(), String>| {
        if let Err(e) = r {
            panic!("{e}");
        }
    };
    check(single_matches(&map, &Gray8::frame(&mut g, sw, sh), &pool));
    check(single_matches(&map, &GrayF32::frame(&mut g, sw, sh), &pool));
    check(single_matches(&map, &Rgb8::frame(&mut g, sw, sh), &pool));
    check(composite_matches::<Gray8>(
        &mut g,
        std::slice::from_ref(&map),
        &pool,
    ));
}
