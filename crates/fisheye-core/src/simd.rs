//! The `simd` backend.
//!
//! The paper's SPE and SSE ports restructure the inner loop to process
//! four output pixels at once, so that the multiply-accumulate chains
//! vectorize. This backend used to do the same: four lanes of
//! `floor`, weights, clamped gathers and lerps per step. What that
//! loop actually paid for was the per-pixel `floor` (a libm call per
//! coordinate), the saturating casts and eight clamps. None of those
//! depends on the frame, so they now live in the compiled plan: its
//! corner plane ([`crate::plan::Corner`]) stores the clamp-free
//! top-left texel of every interior pixel.
//!
//! `simd` now runs the corner sampler (`sample_bilinear_corner`)
//! through the shared span walker ([`crate::walk`]) — the same
//! sampler `serial`, `smp` and [`crate::plan::correct_plan_into`] run
//! for bilinear. What remains
//! specific to `simd` is its contract: bilinear only, on the
//! single-channel types (`Gray8`, `GrayF32`), frame-concurrent, and
//! bit-exact with the scalar float path. The tests below pin that
//! contract through [`crate::engine::execute_host`].

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
