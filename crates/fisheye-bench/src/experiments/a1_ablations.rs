//! A1 — ablation studies of the implementation's design choices.
//!
//! Four decisions DESIGN.md bakes into `fisheye-core`, each measured
//! against its alternative on the same frame, with what each variant
//! stores per output pixel (`plan_bytes_per_px`) next to what it
//! costs per frame (`ns_per_px`) — the stored-vs-recomputed axis of
//! the LUT design space:
//!
//! 1. **LUT layout** — interleaved `MapEntry { sx, sy }` (AoS) vs two
//!    separate coordinate planes (SoA). Both coordinates of one pixel
//!    are consumed together, so the layouts measure at parity; the
//!    compiled plan keeps the AoS map and stores no SoA copy of it.
//! 2. **Validity handling and the corner plane** — per-pixel
//!    `is_valid()` branching vs the plan's per-row valid-span runs
//!    (`plan_span_corner`: branch-free inner loop over precomputed
//!    contiguous runs, gaps filled black). Inside the runs the plan's
//!    4 B/px corner plane stores each interior pixel's clamp-free
//!    top-left texel, so bilinear does no `floor` and no clamp per
//!    frame: 12 B/px in place of the 8 B/px map that recomputes both.
//!    This is the float path every host engine runs.
//! 3. **Output traversal** — row-major vs 32×32-tiled iteration on the
//!    host. Tiling helps caches only when the *source* working set per
//!    tile shrinks enough to matter; measuring keeps us honest.
//! 4. **Weight precompute** — `FixedRemapMap` stores corner+weights
//!    (8 B/px, no per-pixel float math) vs recomputing weights from
//!    float coordinates every frame (4 B/px LUT but extra arithmetic).

use fisheye_core::interp::sample_bilinear_fixed_gray8;
use fisheye_core::plan::{correct_plan, PlanOptions, RemapPlan};
use fisheye_core::{correct, correct_fixed, Interpolator};
use pixmap::{Gray8, Image};

use crate::table::{f2, Table};
use crate::workloads::{default_resolution, random_workload, time_median};
use crate::Scale;

/// Stored bytes per output pixel of a variant that keeps only the
/// float map and recomputes corners and weights every frame.
const MAP_BYTES_PER_PX: f64 = std::mem::size_of::<fisheye_core::MapEntry>() as f64;

/// SoA variant of the LUT: two parallel coordinate planes.
struct SoaMap {
    xs: Vec<f32>,
    ys: Vec<f32>,
    width: u32,
    height: u32,
}

impl SoaMap {
    fn from(map: &fisheye_core::RemapMap) -> Self {
        SoaMap {
            xs: map.entries().iter().map(|e| e.sx).collect(),
            ys: map.entries().iter().map(|e| e.sy).collect(),
            width: map.width(),
            height: map.height(),
        }
    }
}

fn correct_soa(src: &Image<Gray8>, map: &SoaMap) -> Image<Gray8> {
    let mut out = Image::new(map.width, map.height);
    for (i, o) in out.pixels_mut().iter_mut().enumerate() {
        let sx = map.xs[i];
        let sy = map.ys[i];
        *o = if sx.is_finite() {
            fisheye_core::interp::sample_bilinear(src, sx, sy)
        } else {
            Gray8(0)
        };
    }
    out
}

/// Tiled-traversal variant of the float correction.
fn correct_tiled(src: &Image<Gray8>, map: &fisheye_core::RemapMap, tile: u32) -> Image<Gray8> {
    let mut out = Image::new(map.width(), map.height());
    let mut ty = 0;
    while ty < map.height() {
        let y1 = (ty + tile).min(map.height());
        let mut tx = 0;
        while tx < map.width() {
            let x1 = (tx + tile).min(map.width());
            for y in ty..y1 {
                let row = map.row(y);
                for x in tx..x1 {
                    let e = row[x as usize];
                    let v = if e.is_valid() {
                        fisheye_core::interp::sample_bilinear(src, e.sx, e.sy)
                    } else {
                        Gray8(0)
                    };
                    out.set(x, y, v);
                }
            }
            tx = x1;
        }
        ty = y1;
    }
    out
}

/// Recompute-weights variant of the fixed-point correction: weights
/// derived from the float map per pixel instead of stored.
fn correct_fixed_recompute(
    src: &Image<Gray8>,
    map: &fisheye_core::RemapMap,
    frac: u32,
) -> Image<Gray8> {
    let one = (1u32 << frac) as f32;
    let mut out = Image::new(map.width(), map.height());
    for y in 0..map.height() {
        let row = map.row(y);
        let out_row = out.row_mut(y);
        for (e, o) in row.iter().zip(out_row.iter_mut()) {
            *o = if e.is_valid() {
                let fx = e.sx - 0.5;
                let fy = e.sy - 0.5;
                let x0 = fx.floor();
                let y0 = fy.floor();
                let wx = ((fx - x0) * one + 0.5) as u16;
                let wy = ((fy - y0) * one + 0.5) as u16;
                sample_bilinear_fixed_gray8(src, x0 as i16, y0 as i16, wx, wy, frac)
            } else {
                Gray8(0)
            };
        }
    }
    out
}

/// Run the ablations.
pub fn run(scale: Scale) -> Table {
    let res = default_resolution(scale);
    let reps = 3;
    let w = random_workload(res, 31);
    let soa = SoaMap::from(&w.map);
    let fmap = w.map.to_fixed(12);
    let plan = RemapPlan::compile(&w.map, PlanOptions::default());
    let px = (w.map.width() as f64) * (w.map.height() as f64);

    let mut table = Table::new(
        format!("A1 — implementation ablations ({})", res.name),
        &[
            "variant",
            "ms_per_frame",
            "ns_per_px",
            "vs_baseline",
            "plan_bytes_per_px",
        ],
    );
    let baseline = time_median(reps, || {
        std::hint::black_box(correct(&w.frame, &w.map, Interpolator::Bilinear));
    });
    let mut add = |name: &str, t: f64, bytes_per_px: f64| {
        table.row(vec![
            name.to_string(),
            f2(t * 1e3),
            f2(t * 1e9 / px),
            f2(t / baseline),
            f2(bytes_per_px),
        ]);
    };
    add("aos_lut_branchy (baseline)", baseline, MAP_BYTES_PER_PX);
    add(
        "soa_lut_branchy",
        time_median(reps, || {
            std::hint::black_box(correct_soa(&w.frame, &soa));
        }),
        MAP_BYTES_PER_PX,
    );
    add(
        "plan_span_corner",
        time_median(reps, || {
            std::hint::black_box(correct_plan(&w.frame, &plan, Interpolator::Bilinear));
        }),
        plan.bytes() as f64 / px,
    );
    add(
        "tiled_traversal_32",
        time_median(reps, || {
            std::hint::black_box(correct_tiled(&w.frame, &w.map, 32));
        }),
        MAP_BYTES_PER_PX,
    );
    add(
        "fixed_precomputed_weights",
        time_median(reps, || {
            std::hint::black_box(correct_fixed(&w.frame, &fmap));
        }),
        fmap.bytes() as f64 / px,
    );
    add(
        "fixed_recomputed_weights",
        time_median(reps, || {
            std::hint::black_box(correct_fixed_recompute(&w.frame, &w.map, 12));
        }),
        MAP_BYTES_PER_PX,
    );
    table.note("all variants verified to produce equivalent output before timing");
    table.note("expected shape: the span/corner plan beats branchy AoS (no per-pixel validity test, floor or clamp) for 4 more B/px; tiling ~neutral on the host; precomputed weights beat recompute");
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::resolution;

    #[test]
    fn variants_agree_functionally() {
        let w = random_workload(resolution("QVGA"), 31);
        let base = correct(&w.frame, &w.map, Interpolator::Bilinear);
        let soa = correct_soa(&w.frame, &SoaMap::from(&w.map));
        assert_eq!(base, soa, "SoA variant diverged");
        let plan = RemapPlan::compile(&w.map, PlanOptions::default());
        let spanned = correct_plan(&w.frame, &plan, Interpolator::Bilinear);
        assert_eq!(base, spanned, "span-plan variant diverged");
        let tiled = correct_tiled(&w.frame, &w.map, 32);
        assert_eq!(base, tiled, "tiled variant diverged");
        // fixed paths agree with each other within 1 LSB (rounding of
        // stored vs recomputed weights can differ by one step)
        let a = correct_fixed(&w.frame, &w.map.to_fixed(12));
        let b = correct_fixed_recompute(&w.frame, &w.map, 12);
        let max = a
            .pixels()
            .iter()
            .zip(b.pixels())
            .map(|(x, y)| (x.0 as i32 - y.0 as i32).abs())
            .max()
            .unwrap();
        assert!(max <= 1, "fixed variants differ by {max}");
    }

    #[test]
    fn table_runs() {
        let t = run(Scale::Quick);
        assert_eq!(t.rows.len(), 6);
        for r in &t.rows {
            let ms: f64 = r[1].parse().unwrap();
            assert!(ms > 0.0);
            let ns: f64 = r[2].parse().unwrap();
            assert!(ns > 0.0);
        }
        // the memory axis: the map alone, the map plus corners (and a
        // few spans), the fixed LUT
        let bytes = |name: &str| -> f64 {
            let r = t.rows.iter().find(|r| r[0].starts_with(name)).unwrap();
            r[4].parse().unwrap()
        };
        assert_eq!(bytes("aos_lut_branchy"), 8.0);
        let corner = bytes("plan_span_corner");
        assert!((12.0..12.5).contains(&corner), "corner plan {corner} B/px");
        assert_eq!(bytes("fixed_precomputed_weights"), 8.0);
    }
}
