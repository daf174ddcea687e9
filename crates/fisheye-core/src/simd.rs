//! SIMD-structured bilinear sampler.
//!
//! The paper's SPE and SSE ports restructure the inner loop to process
//! four output pixels at once with structure-of-arrays weights, so the
//! four multiply-accumulate chains vectorize. Stable Rust has no
//! portable-SIMD API, but writing the kernel over fixed `[f32; 4]`
//! lanes gives LLVM the same shape to autovectorize — and gives the
//! ablation study (A1/bench) a faithful "SIMDized" variant to measure
//! against the scalar kernel. Results are bit-exact with the scalar
//! float path.
//!
//! `Lanes` is the `simd` backend's span sampler for the shared span
//! walker ([`crate::walk`]): coordinates come straight from the plan's
//! SoA planes, and because the walker only hands it valid runs, the
//! 4-lane gather carries no validity mask at all. Taps are read from
//! the frame's own pixel type (`Gray8` or `GrayF32`) through the same
//! `channel_f32` conversion the scalar kernel uses, so the lanes match
//! it bit for bit and a frame needs no float copy of its source or
//! output.

use std::borrow::Borrow;

use pixmap::{Image, Pixel};

use crate::interp::sample_bilinear;
use crate::plan::RemapPlan;
use crate::walk::{PostOp, Sampler, Sources};

/// Number of lanes processed together.
pub const LANES: usize = 4;

/// The 4-lane bilinear span sampler for single-channel pixel types.
/// Single pixels (blend runs) go through `sample_bilinear`, which the
/// lanes match bit for bit.
pub(crate) struct Lanes<'a, P: Pixel, R> {
    pub sources: Sources<'a, P, R>,
}

impl<P: Pixel, R: Borrow<RemapPlan> + Sync> Sampler<P> for Lanes<'_, P, R> {
    #[inline]
    fn span<Q: PostOp<P>>(&self, source: usize, y: u32, start: usize, out: &mut [P], post: &Q) {
        let (src, sx, sy) = self.sources.row(source, y);
        let r = start..start + out.len();
        lanes_span(src, &sx[r.clone()], &sy[r], post, (start, y), out);
    }

    #[inline]
    fn pixel(&self, source: usize, y: u32, x: usize) -> P {
        let (src, sx, sy) = self.sources.row(source, y);
        sample_bilinear(src, sx[x], sy[x])
    }
}

/// The 4-lane kernel over one span, kept out of line with the frame,
/// coordinates and output as plain (non-aliasing) arguments: whole
/// lanes through [`gather4`], the scalar tail through
/// `sample_bilinear`, then `post` over the span while it is still in
/// L1 — a post lookup inside the lane loop would split the lane math.
#[inline(never)]
fn lanes_span<P: Pixel, Q: PostOp<P>>(
    src: &Image<P>,
    sx: &[f32],
    sy: &[f32],
    post: &Q,
    (start, y): (usize, u32),
    out: &mut [P],
) {
    debug_assert_eq!(P::CHANNELS, 1, "the lane kernel gathers one channel");
    let whole = out.len() / LANES * LANES;
    let (body, tail) = out.split_at_mut(whole);
    for (k, o4) in body.chunks_exact_mut(LANES).enumerate() {
        let x = k * LANES;
        let cx: &[f32; LANES] = sx[x..x + LANES].try_into().unwrap();
        let cy: &[f32; LANES] = sy[x..x + LANES].try_into().unwrap();
        for (o, v) in o4.iter_mut().zip(gather4(src, cx, cy)) {
            *o = P::from_channels_f32(&[v]);
        }
    }
    for (i, o) in tail.iter_mut().enumerate() {
        let x = whole + i;
        *o = sample_bilinear(src, sx[x], sy[x]);
    }
    for (i, o) in out.iter_mut().enumerate() {
        *o = post.apply(*o, start + i, y);
    }
}

/// The 4-lane gather + interpolate over four valid coordinates. All
/// arithmetic is expressed as independent per-lane arrays so the
/// compiler can keep each step in one vector register. No validity
/// handling: span iteration guarantees every lane is valid.
#[inline(always)]
fn gather4<P: Pixel>(src: &Image<P>, cx: &[f32; LANES], cy: &[f32; LANES]) -> [f32; LANES] {
    let mut fx = [0f32; LANES];
    let mut fy = [0f32; LANES];
    for i in 0..LANES {
        fx[i] = cx[i] - 0.5;
        fy[i] = cy[i] - 0.5;
    }
    let mut x0 = [0f32; LANES];
    let mut y0 = [0f32; LANES];
    let mut wx = [0f32; LANES];
    let mut wy = [0f32; LANES];
    for i in 0..LANES {
        x0[i] = fx[i].floor();
        y0[i] = fy[i].floor();
        wx[i] = fx[i] - x0[i];
        wy[i] = fy[i] - y0[i];
    }
    // the gather itself cannot vectorize on scalar hardware — neither
    // can it on an SPE, which is exactly why the paper's kernels are
    // memory-bound here
    let mut p00 = [0f32; LANES];
    let mut p10 = [0f32; LANES];
    let mut p01 = [0f32; LANES];
    let mut p11 = [0f32; LANES];
    for i in 0..LANES {
        let xi = x0[i] as i64;
        let yi = y0[i] as i64;
        p00[i] = src.pixel_clamped(xi, yi).channel_f32(0);
        p10[i] = src.pixel_clamped(xi + 1, yi).channel_f32(0);
        p01[i] = src.pixel_clamped(xi, yi + 1).channel_f32(0);
        p11[i] = src.pixel_clamped(xi + 1, yi + 1).channel_f32(0);
    }
    let mut out = [0f32; LANES];
    for i in 0..LANES {
        let top = p00[i] * (1.0 - wx[i]) + p10[i] * wx[i];
        let bot = p01[i] * (1.0 - wx[i]) + p11[i] * wx[i];
        out[i] = top * (1.0 - wy[i]) + bot * wy[i];
    }
    out
}

#[cfg(test)]
mod tests {
    use pixmap::{GrayF32, Image};

    use crate::engine::{execute_host, EngineSpec, HostEnv};
    use crate::map::RemapMap;
    use crate::plan::{PlanOptions, RemapPlan};
    use crate::{correct, Interpolator};
    use fisheye_geom::{FisheyeLens, PerspectiveView};

    fn setup(out_w: u32) -> (RemapMap, RemapPlan, Image<GrayF32>) {
        let lens = FisheyeLens::equidistant_fov(160, 120, 180.0);
        let view = PerspectiveView::centered(out_w, 60, 90.0);
        let map = RemapMap::build(&lens, &view, 160, 120);
        let plan = RemapPlan::compile(&map, PlanOptions::default());
        let src = pixmap::scene::random_gray(160, 120, 77).map(GrayF32::from);
        (map, plan, src)
    }

    fn simd<P: crate::EnginePixel>(src: &Image<P>, plan: &RemapPlan) -> Image<P> {
        let mut out = Image::new(plan.width(), plan.height());
        execute_host(
            &EngineSpec::Simd,
            Interpolator::Bilinear,
            src,
            plan,
            None,
            &HostEnv::default(),
            &mut out,
        )
        .unwrap();
        out
    }

    #[test]
    fn bit_exact_vs_scalar() {
        let (map, plan, src) = setup(80);
        let scalar = correct(&src, &map, Interpolator::Bilinear);
        assert_eq!(scalar, simd(&src, &plan));
    }

    #[test]
    fn handles_non_multiple_of_four_width() {
        for w in [77u32, 78, 79, 81] {
            let (map, plan, src) = setup(w);
            let scalar = correct(&src, &map, Interpolator::Bilinear);
            assert_eq!(scalar, simd(&src, &plan), "width {w}");
        }
    }

    #[test]
    fn invalid_regions_render_black_without_masking() {
        // narrow lens behind a wide view: the span index excludes the
        // invalid border, so the gather never even sees those pixels
        let lens = FisheyeLens::equidistant_fov(160, 120, 100.0);
        let view = PerspectiveView::centered(80, 60, 160.0);
        let map = RemapMap::build(&lens, &view, 160, 120);
        let plan = RemapPlan::compile(&map, PlanOptions::default());
        assert!(plan.invalid_pixels() > 0);
        let src = pixmap::Image::filled(160, 120, GrayF32(1.0));
        let out = simd(&src, &plan);
        assert_eq!(out.pixel(0, 0), GrayF32(0.0));
        assert_eq!(out.pixel(40, 30), GrayF32(1.0));
        // and it still matches the branchy scalar reference exactly
        assert_eq!(out, correct(&src, &map, Interpolator::Bilinear));
    }
}
