//! The end-to-end correction pipeline with per-phase timing.
//!
//! Owns the lens, the current view, the (lazily recompiled)
//! [`RemapPlan`], and an optional thread pool, and exposes the
//! per-frame entry point the video layer calls. Phase 2 is routed
//! through the engine layer ([`crate::engine`]): the pipeline holds an
//! [`EngineSpec`] instead of hardcoded serial/parallel/direct
//! branches, so every host backend — `serial`, `smp`, `direct`,
//! `fixed`, `simd` — runs through one dispatch point and every frame
//! produces a [`FrameReport`] that the stats absorb. Accumulates the
//! phase timings the experiments report (map-generation + plan-compile
//! time vs correction time — the paper's central measurement).
//!
//! The pipeline is the plan's owner: engines are stateless with
//! respect to the map, and the single compiled plan here is the only
//! per-view artifact in the whole stack. For a zero-allocation steady
//! state, pair [`CorrectionPipeline::try_process_pooled`] with a
//! primed [`FramePool`] — every output frame is then a recycled
//! buffer, and the frame report carries the pool's hit/miss counters.

use std::time::{Duration, Instant};

use fisheye_geom::{FisheyeLens, PerspectiveView};
use par_runtime::{Schedule, ThreadPool};
use pixmap::{FramePool, Image, PooledFrame};

use crate::engine::{
    execute_direct, execute_host, EngineError, EnginePixel, EngineSpec, FrameReport, HostEnv,
};
use crate::interp::Interpolator;
use crate::map::RemapMap;
use crate::plan::{PlanOptions, RemapPlan};

/// Pipeline configuration.
#[derive(Clone, Copy, Debug)]
pub struct PipelineConfig {
    /// Interpolation kernel for phase 2.
    pub interp: Interpolator,
    /// Execution path for phase 2. Host specs only — the accelerator
    /// models (`cell`, `gpu`) are driven through the facade crate's
    /// boxed engines, not the host pipeline.
    pub engine: EngineSpec,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            interp: Interpolator::Bilinear,
            engine: EngineSpec::Serial,
        }
    }
}

/// Accumulated phase timings and counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct PipelineStats {
    /// Number of LUT (re)builds.
    pub map_builds: u64,
    /// Total time spent building LUTs.
    pub map_time: Duration,
    /// Total time spent compiling plans from built LUTs (span
    /// indexing, corner derivation, fixed-point quantization). Like
    /// `map_time` this is per-view work, not per-frame work.
    pub plan_time: Duration,
    /// Frames corrected.
    pub frames: u64,
    /// Total time spent in phase 2.
    pub correct_time: Duration,
    /// Total output pixels with no valid source mapping (summed over
    /// all corrected frames).
    pub invalid_pixels: u64,
}

impl PipelineStats {
    /// Mean per-frame correction time.
    ///
    /// Contract: with **zero** corrected frames there is no mean, and
    /// this returns `Duration::ZERO` rather than dividing by zero —
    /// callers printing per-frame numbers before the first frame get
    /// a silent 0, not a panic. With one frame it equals
    /// `correct_time` exactly.
    pub fn correct_per_frame(&self) -> Duration {
        if self.frames == 0 {
            Duration::ZERO
        } else {
            self.correct_time / self.frames as u32
        }
    }

    /// Throughput in frames per second over the corrected frames.
    ///
    /// Contract: with zero corrected frames (or a zero accumulated
    /// correction time, which includes the zero-frame case) the
    /// throughput is undefined and this returns `0.0` rather than
    /// NaN/inf — a 0 fps readout means "no data", not "slow".
    pub fn fps(&self) -> f64 {
        let s = self.correct_time.as_secs_f64();
        if s == 0.0 {
            0.0
        } else {
            self.frames as f64 / s
        }
    }

    /// Fold one frame's execution report into the accumulated stats.
    pub fn absorb(&mut self, report: &FrameReport) {
        self.frames += 1;
        self.correct_time += report.correct_time;
        self.invalid_pixels += report.invalid_pixels;
    }
}

/// A stateful correction pipeline for a fixed lens and source size.
pub struct CorrectionPipeline<'p> {
    lens: FisheyeLens,
    view: PerspectiveView,
    src_w: u32,
    src_h: u32,
    config: PipelineConfig,
    pool: Option<&'p ThreadPool>,
    plan: Option<RemapPlan>,
    stats: PipelineStats,
}

impl<'p> CorrectionPipeline<'p> {
    /// Create a pipeline for `lens` over `src_w`×`src_h` input frames,
    /// initially rendering `view`.
    pub fn new(
        lens: FisheyeLens,
        view: PerspectiveView,
        src_w: u32,
        src_h: u32,
        config: PipelineConfig,
    ) -> Self {
        CorrectionPipeline {
            lens,
            view,
            src_w,
            src_h,
            config,
            pool: None,
            plan: None,
            stats: PipelineStats::default(),
        }
    }

    /// Attach a thread pool; `smp` engines run on it, and LUT builds
    /// parallelize over it.
    pub fn with_pool(mut self, pool: &'p ThreadPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// The active view.
    pub fn view(&self) -> &PerspectiveView {
        &self.view
    }

    /// The lens.
    pub fn lens(&self) -> &FisheyeLens {
        &self.lens
    }

    /// The configured engine spec.
    pub fn engine(&self) -> &EngineSpec {
        &self.config.engine
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &PipelineStats {
        &self.stats
    }

    /// Reset statistics (e.g. after warmup).
    pub fn reset_stats(&mut self) {
        self.stats = PipelineStats::default();
    }

    /// Change the view (PTZ command). Invalidates the plan; the next
    /// frame pays the map rebuild and plan recompile.
    pub fn set_view(&mut self, view: PerspectiveView) {
        if view != self.view {
            self.view = view;
            self.plan = None;
        }
    }

    fn map_schedule(&self) -> Schedule {
        match self.config.engine {
            EngineSpec::Smp { schedule } => schedule,
            _ => Schedule::default_static(),
        }
    }

    /// Ensure the compiled plan exists, rebuilding the map and
    /// recompiling if the view changed. Returns a reference to it.
    /// Public so platform models and the video layer can run on the
    /// same plan the host pipeline uses.
    pub fn ensure_plan(&mut self) -> &RemapPlan {
        if self.plan.is_none() {
            let t0 = Instant::now();
            let schedule = self.map_schedule();
            let map = match self.pool {
                Some(pool) => RemapMap::build_parallel(
                    &self.lens, &self.view, self.src_w, self.src_h, pool, schedule,
                ),
                None => RemapMap::build(&self.lens, &self.view, self.src_w, self.src_h),
            };
            self.stats.map_time += t0.elapsed();
            self.stats.map_builds += 1;
            let t1 = Instant::now();
            let opts = PlanOptions::for_spec(&self.config.engine, self.config.interp);
            self.plan = Some(RemapPlan::compile(&map, opts));
            self.stats.plan_time += t1.elapsed();
        }
        self.plan.as_ref().unwrap()
    }

    /// Ensure the LUT exists (compiling the plan around it) and return
    /// a reference to it. Kept for callers that only care about the
    /// raw map — the plan is the owner, the map lives inside it.
    pub fn ensure_map(&mut self) -> &RemapMap {
        self.ensure_plan().map()
    }

    /// Correct one frame into a caller-provided output buffer (its
    /// dimensions must match the view). This is the allocation-free
    /// entry point: with the plan already compiled, no heap allocation
    /// happens on this path.
    pub fn try_process_into<P: EnginePixel>(
        &mut self,
        frame: &Image<P>,
        out: &mut Image<P>,
    ) -> Result<FrameReport, EngineError> {
        assert_eq!(
            frame.dims(),
            (self.src_w, self.src_h),
            "frame does not match configured source size"
        );
        // `direct` is the one path that needs no LUT at all — that is
        // its entire point (the F9 comparison mode).
        if self.config.engine == EngineSpec::Direct {
            let report = execute_direct(self.config.interp, frame, &self.lens, &self.view, out)?;
            self.stats.absorb(&report);
            return Ok(report);
        }
        self.ensure_plan();
        let plan = self.plan.as_ref().unwrap();
        let env = HostEnv {
            pool: self.pool,
            geometry: Some((&self.lens, &self.view)),
        };
        let report = execute_host(
            &self.config.engine,
            self.config.interp,
            frame,
            plan,
            None,
            &env,
            out,
        )?;
        self.stats.absorb(&report);
        Ok(report)
    }

    /// Correct one frame through the configured engine, returning the
    /// output and its execution report (already absorbed into the
    /// stats).
    pub fn try_process<P: EnginePixel>(
        &mut self,
        frame: &Image<P>,
    ) -> Result<(Image<P>, FrameReport), EngineError> {
        let mut out = Image::new(self.view.width, self.view.height);
        let report = self.try_process_into(frame, &mut out)?;
        Ok((out, report))
    }

    /// Correct one frame into a recycled buffer from `frames`. In
    /// steady state (pool primed or warmed up) the per-frame path
    /// performs **zero** heap allocations. The report gains the
    /// pool's cumulative `pool_hits` / `pool_misses` counters.
    pub fn try_process_pooled<P: EnginePixel>(
        &mut self,
        frame: &Image<P>,
        frames: &FramePool<P>,
    ) -> Result<(PooledFrame<P>, FrameReport), EngineError> {
        let mut out = frames.acquire();
        let mut report = self.try_process_into(frame, &mut out)?;
        report.kv("pool_hits", frames.hits() as f64);
        report.kv("pool_misses", frames.misses() as f64);
        Ok((out, report))
    }

    /// Correct one frame.
    ///
    /// Panics if the configured engine cannot run here (an
    /// accelerator spec, `smp` without an attached pool, `simd` with
    /// a non-bilinear interpolator, …) — use [`Self::try_process`]
    /// for a recoverable error.
    pub fn process<P: EnginePixel>(&mut self, frame: &Image<P>) -> Image<P> {
        match self.try_process(frame) {
            Ok((out, _)) => out,
            Err(e) => panic!("pipeline engine '{}': {e}", self.config.engine.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixmap::scene::random_gray;
    use pixmap::Gray8;

    fn mk(engine: EngineSpec) -> CorrectionPipeline<'static> {
        let lens = FisheyeLens::equidistant_fov(160, 120, 180.0);
        let view = PerspectiveView::centered(80, 60, 90.0);
        CorrectionPipeline::new(
            lens,
            view,
            160,
            120,
            PipelineConfig {
                engine,
                ..Default::default()
            },
        )
    }

    #[test]
    fn processes_frames_and_counts() {
        let mut p = mk(EngineSpec::Serial);
        let frame = random_gray(160, 120, 1);
        let out = p.process(&frame);
        assert_eq!(out.dims(), (80, 60));
        let _ = p.process(&frame);
        assert_eq!(p.stats().frames, 2);
        assert_eq!(p.stats().map_builds, 1, "plan compiled once for two frames");
    }

    #[test]
    fn view_change_rebuilds_map() {
        let mut p = mk(EngineSpec::Serial);
        let frame = random_gray(160, 120, 2);
        let _ = p.process(&frame);
        p.set_view(PerspectiveView::centered(80, 60, 90.0).look(30.0, 0.0));
        let _ = p.process(&frame);
        assert_eq!(p.stats().map_builds, 2);
        // same view again: no rebuild
        p.set_view(*p.view());
        let _ = p.process(&frame);
        assert_eq!(p.stats().map_builds, 2);
    }

    #[test]
    fn direct_mode_never_builds_map() {
        let mut p = mk(EngineSpec::Direct);
        let frame = random_gray(160, 120, 3);
        let _ = p.process(&frame);
        let _ = p.process(&frame);
        assert_eq!(p.stats().map_builds, 0);
        assert_eq!(p.stats().frames, 2);
    }

    #[test]
    fn direct_and_lut_agree() {
        let mut a = mk(EngineSpec::Serial);
        let mut b = mk(EngineSpec::Direct);
        let frame = random_gray(160, 120, 4);
        let out_lut = a.process(&frame);
        let out_direct = b.process(&frame);
        assert_eq!(out_lut, out_direct, "direct recomputation must match LUT");
    }

    #[test]
    fn pooled_pipeline_matches_serial() {
        let pool = ThreadPool::new(3);
        let frame = random_gray(160, 120, 5);
        let mut serial = mk(EngineSpec::Serial);
        let mut parallel = mk(EngineSpec::Smp {
            schedule: Schedule::default_static(),
        })
        .with_pool(&pool);
        assert_eq!(serial.process(&frame), parallel.process(&frame));
    }

    #[test]
    fn fixed_engine_reuses_quantized_lut() {
        let mut p = mk(EngineSpec::FixedPoint { frac_bits: 12 });
        let frame = random_gray(160, 120, 8);
        let (a, r1) = p.try_process(&frame).unwrap();
        let (b, r2) = p.try_process(&frame).unwrap();
        assert_eq!(a, b);
        assert_eq!(p.stats().frames, 2);
        // the plan carries the prequantized LUT: neither frame fell
        // back to on-the-fly quantization
        assert_eq!(r1.model.get("plan_miss"), None);
        assert_eq!(r2.model.get("plan_miss"), None);
        // reference: quantize the same map once
        let map = p.ensure_map().clone();
        assert_eq!(a, crate::correct::correct_fixed(&frame, &map.to_fixed(12)));
    }

    #[test]
    fn simd_engine_matches_serial() {
        let frame = random_gray(160, 120, 9);
        let mut serial = mk(EngineSpec::Serial);
        let mut simd = mk(EngineSpec::Simd);
        assert_eq!(serial.process(&frame), simd.process(&frame));
    }

    #[test]
    fn process_into_matches_allocating_path() {
        let frame = random_gray(160, 120, 14);
        let mut a = mk(EngineSpec::Serial);
        let mut b = mk(EngineSpec::Serial);
        let (out_alloc, _) = a.try_process(&frame).unwrap();
        let mut out: Image<Gray8> = Image::new(80, 60);
        let _ = b.try_process_into(&frame, &mut out).unwrap();
        assert_eq!(out_alloc, out);
    }

    #[test]
    fn pooled_frames_recycle_with_full_hit_rate() {
        let frames: FramePool<Gray8> = FramePool::new(80, 60);
        frames.prime(1);
        let mut p = mk(EngineSpec::Serial);
        let frame = random_gray(160, 120, 15);
        let reference = mk(EngineSpec::Serial).process(&frame);
        for _ in 0..8 {
            let (out, report) = p.try_process_pooled(&frame, &frames).unwrap();
            assert_eq!(*out, reference);
            assert_eq!(report.model["pool_misses"], 0.0);
            // `out` drops here, returning the buffer to the pool
        }
        assert_eq!(frames.misses(), 0);
        assert_eq!(frames.hits(), 8);
        assert!((frames.hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn smp_without_pool_is_a_recoverable_error() {
        let mut p = mk(EngineSpec::Smp {
            schedule: Schedule::default_static(),
        });
        let frame = random_gray(160, 120, 10);
        assert!(matches!(
            p.try_process(&frame),
            Err(EngineError::Unsupported { .. })
        ));
    }

    #[test]
    fn reports_accumulate_invalid_pixels() {
        // view wider than the lens: black corners on every frame
        let lens = FisheyeLens::equidistant_fov(160, 120, 120.0);
        let view = PerspectiveView::centered(80, 60, 140.0);
        let mut p = CorrectionPipeline::new(lens, view, 160, 120, PipelineConfig::default());
        let frame = random_gray(160, 120, 11);
        let (_, r1) = p.try_process(&frame).unwrap();
        let _ = p.process(&frame);
        assert!(r1.invalid_pixels > 0);
        assert_eq!(p.stats().invalid_pixels, 2 * r1.invalid_pixels);
    }

    #[test]
    fn stats_throughput_math() {
        let mut s = PipelineStats {
            frames: 10,
            correct_time: Duration::from_millis(500),
            ..Default::default()
        };
        assert_eq!(s.correct_per_frame(), Duration::from_millis(50));
        assert!((s.fps() - 20.0).abs() < 1e-9);
        s.frames = 0;
        s.correct_time = Duration::ZERO;
        assert_eq!(s.fps(), 0.0);
        assert_eq!(s.correct_per_frame(), Duration::ZERO);
    }

    #[test]
    fn stats_zero_frames_contract() {
        // fresh stats: no frames corrected → both readouts are a
        // silent zero, never a division panic or NaN
        let s = PipelineStats::default();
        assert_eq!(s.correct_per_frame(), Duration::ZERO);
        assert_eq!(s.fps(), 0.0);
        // zero frames but nonzero accumulated time (absorb never
        // produces this, but the fields are public)
        let s = PipelineStats {
            correct_time: Duration::from_millis(5),
            ..Default::default()
        };
        assert_eq!(s.correct_per_frame(), Duration::ZERO);
        assert_eq!(s.fps(), 0.0);
    }

    #[test]
    fn stats_single_frame_contract() {
        // with exactly one frame the mean is the total, and fps is
        // its reciprocal
        let mut s = PipelineStats::default();
        let mut r = FrameReport::new("serial");
        r.correct_time = Duration::from_millis(20);
        r.invalid_pixels = 3;
        s.absorb(&r);
        assert_eq!(s.frames, 1);
        assert_eq!(s.correct_per_frame(), Duration::from_millis(20));
        assert!((s.fps() - 50.0).abs() < 1e-9);
        assert_eq!(s.invalid_pixels, 3);
    }

    #[test]
    #[should_panic(expected = "does not match configured source size")]
    fn wrong_frame_size_caught() {
        let mut p = mk(EngineSpec::Serial);
        let frame: Image<Gray8> = Image::new(10, 10);
        let _ = p.process(&frame);
    }

    #[test]
    #[should_panic(expected = "pipeline engine 'cell'")]
    fn accelerator_spec_panics_in_process() {
        let mut p = mk(EngineSpec::parse("cell").unwrap());
        let frame = random_gray(160, 120, 12);
        let _ = p.process(&frame);
    }

    #[test]
    fn reset_stats_clears() {
        let mut p = mk(EngineSpec::Serial);
        let frame = random_gray(160, 120, 6);
        let _ = p.process(&frame);
        p.reset_stats();
        assert_eq!(p.stats().frames, 0);
        assert_eq!(p.stats().map_builds, 0);
    }
}
