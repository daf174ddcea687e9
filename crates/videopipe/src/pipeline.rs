//! The capture → correct → sink pipeline.
//!
//! Three stage groups connected by bounded queues:
//!
//! ```text
//! [capture thread] → q_in → [N corrector workers] → q_out → [sink]
//! ```
//!
//! All corrector workers share one immutable [`RemapPlan`], so adding
//! workers scales the memory-bound phase-2 kernel exactly as the
//! paper's multicore port does — but across *frames* instead of rows
//! (frame-level parallelism, the natural choice for a pipeline). The
//! plan is compiled by the caller, once per view: workers do no
//! quantization, no span indexing, no per-map setup of any kind.
//!
//! Output buffers come from an internal [`FramePool`] primed with the
//! maximum number of frames that can be in flight at once, so the
//! steady-state per-frame path allocates **nothing**: each worker
//! recycles a buffer the sink already released. The sink hands each
//! [`PooledFrame`] to `on_frame` *by value* — dropping it returns the
//! buffer to the pool (the zero-copy common case), while
//! [`PooledFrame::detach`] keeps the image and lets the pool replace
//! the buffer. The report carries the pool's hit/miss counters; a
//! steady-state run reports a 100 % hit rate.
//!
//! Per-frame latency is measured from capture to sink; the report
//! carries the distribution summary the F10 experiment prints.

use std::time::{Duration, Instant};

use fisheye_core::engine::{execute_host, Capabilities, EngineSpec, HostEnv};
use fisheye_core::frame::{FrameCorrector, ViewPlan};
use fisheye_core::plan::RemapPlan;
use fisheye_core::Interpolator;
use pixmap::{FramePool, Gray8, Image, PlanePool, PooledFrame};

use crate::channel::{BoundedQueue, Credits};
use crate::source::{FramePacket, FrameSource, VideoFrame, VideoSource};

/// Pipeline configuration.
#[derive(Clone, Copy, Debug)]
pub struct PipeConfig {
    /// Corrector worker threads.
    pub workers: usize,
    /// Queue capacity between stages (frames in flight bound).
    pub queue_capacity: usize,
    /// Interpolation kernel.
    pub interp: Interpolator,
    /// Per-frame execution path inside each worker. Workers already
    /// provide the frame-level parallelism, so only the
    /// single-threaded LUT engines are valid here: `serial`, `fixed`
    /// and `simd` (the quantized LUT must already be in the plan —
    /// compile it with `PlanOptions::for_spec`).
    pub engine: EngineSpec,
    /// When `Some(window)`, the sink reorders frames through a
    /// [`crate::Resequencer`] with that buffer capacity, delivering
    /// `on_frame` calls strictly in sequence. Capture then admits a
    /// frame only against a credit the sink returns on delivery, so at
    /// most `window` frames are in flight and the buffer can never
    /// overflow: however the workers are scheduled, no frame is
    /// skipped ([`PipeReport::dropped`] stays 0).
    pub resequence: Option<usize>,
    /// Per-frame latency budget, capture → sink. Frames over budget
    /// are still delivered — a corrected late frame beats a gap — but
    /// are counted in [`PipeReport::deadline_missed`], the overload
    /// signal the serving layer's degradation controller consumes.
    pub frame_deadline: Option<Duration>,
}

impl Default for PipeConfig {
    fn default() -> Self {
        PipeConfig {
            workers: 1,
            queue_capacity: 4,
            interp: Interpolator::Bilinear,
            engine: EngineSpec::Serial,
            resequence: None,
            frame_deadline: None,
        }
    }
}

/// End-of-run measurements.
#[derive(Clone, Debug)]
pub struct PipeReport {
    /// Frames that reached the sink.
    pub frames: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// End-to-end throughput.
    pub fps: f64,
    /// Mean capture→sink latency.
    pub mean_latency: Duration,
    /// Median capture→sink latency.
    pub p50_latency: Duration,
    /// 95th-percentile capture→sink latency.
    pub p95_latency: Duration,
    /// Worst capture→sink latency.
    pub max_latency: Duration,
    /// Input-queue high-water mark (backlog indicator).
    pub in_queue_high_water: usize,
    /// Frames that arrived at the sink out of order (frame-parallel
    /// correction reorders; consumers needing order must resequence).
    pub out_of_order: u64,
    /// Frames dropped by the resequencer (0 when resequencing is off).
    pub dropped: u64,
    /// Frames whose capture→sink latency exceeded
    /// [`PipeConfig::frame_deadline`] (0 when no deadline is set).
    pub deadline_missed: u64,
    /// Total correction-kernel time summed over all sunk frames (CPU
    /// work, as opposed to the queue-inclusive latency percentiles).
    pub kernel_time: Duration,
    /// Output pixels with no valid source mapping, summed over all
    /// sunk frames.
    pub invalid_pixels: u64,
    /// Output-buffer acquisitions served by the frame pool's free
    /// list (no allocation).
    pub pool_hits: u64,
    /// Output-buffer acquisitions that had to allocate. The pool is
    /// primed for the maximum number of in-flight frames, so this
    /// stays 0 unless the sink detaches frames from the pool.
    pub pool_misses: u64,
    /// Per-plane kernel time summed over all sunk frames, labelled in
    /// plane order (`y`/`cb`/`cr`, `r`/`g`/`b`, …). Filled by
    /// [`run_frame_pipeline`]; empty for the single-plane
    /// [`run_pipeline`], whose whole kernel cost is already
    /// [`kernel_time`](Self::kernel_time).
    pub plane_kernel: Vec<(String, Duration)>,
}

impl PipeReport {
    /// Mean per-frame kernel time (`Duration::ZERO` when no frames
    /// reached the sink — same zero-frame contract as
    /// `PipelineStats`).
    pub fn kernel_per_frame(&self) -> Duration {
        if self.frames == 0 {
            Duration::ZERO
        } else {
            self.kernel_time / self.frames as u32
        }
    }

    /// Fraction of output buffers served without allocating, or 1.0
    /// for a run with no frames (nothing was ever requested).
    pub fn pool_hit_rate(&self) -> f64 {
        let total = self.pool_hits + self.pool_misses;
        if total == 0 {
            1.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }
}

/// A corrected frame arriving at the sink.
struct CorrectedFrame {
    seq: u64,
    captured_at: Instant,
    image: PooledFrame<Gray8>,
    kernel_time: Duration,
    invalid_pixels: u64,
}

/// The capability gate for the worker pool, shared by both pipeline
/// entry points. Workers run the engine's host datapath concurrently
/// over one shared plan, so admission is exactly the capability
/// triple `host_executable && supports_frame_concurrency &&
/// uses_plan` — derived from [`EngineSpec::capabilities`], not an
/// engine name allow-list, so a new engine that declares the right
/// capabilities is admitted without an edit here. Returns the
/// capabilities so callers can apply the engine's LUT requirement to
/// their plan shape.
fn check_worker_engine(spec: &EngineSpec, interp: Interpolator) -> Capabilities {
    let caps = spec.capabilities();
    assert!(
        caps.host_executable && caps.supports_frame_concurrency && caps.uses_plan,
        "videopipe workers support engines that are host-executable, \
         frame-concurrent plan consumers; '{}' is not",
        spec.name()
    );
    if let Some(locked) = caps.interp_locked {
        assert!(
            interp == locked,
            "the {} engine implements {} only",
            spec.name(),
            locked.name()
        );
    }
    caps
}

/// Take an admission credit (when resequencing), then capture the
/// next frame.
fn admitted<T>(credits: &Option<Credits>, capture: impl FnOnce() -> Option<T>) -> Option<T> {
    if let Some(c) = credits {
        c.acquire();
    }
    capture()
}

/// Offer a corrected frame to the resequencer and hand back one credit
/// per frame that left it: each one delivered in order, and the frame
/// itself if it arrived too late for its slot. With admission bounded
/// by the window no frame is ever late, but a leaked credit would
/// stall capture, so a late one is returned too.
fn resequence<T>(
    r: &mut crate::Resequencer<T>,
    credits: &Option<Credits>,
    seq: u64,
    item: T,
) -> Vec<(u64, T)> {
    let late = seq < r.next_seq();
    let ready = r.push(seq, item);
    if let Some(c) = credits {
        c.release(ready.len() + late as usize);
    }
    ready
}

/// Drive `source` through the correction pipeline to exhaustion and
/// return the measurements. `on_frame` is invoked at the sink for
/// every corrected frame, receiving the pooled output **by value**:
/// drop it to recycle the buffer, or [`PooledFrame::detach`] it to
/// keep the image (pass `|_, _| {}` to discard).
///
/// Panics if `config.engine` is not one of the worker-compatible
/// specs (see [`PipeConfig::engine`]), conflicts with the
/// interpolator, or needs a fixed-point LUT the plan was not compiled
/// with — engine/plan compatibility is a configuration error, caught
/// before any thread starts.
pub fn run_pipeline(
    mut source: Box<dyn VideoSource>,
    plan: &RemapPlan,
    config: PipeConfig,
    mut on_frame: impl FnMut(u64, PooledFrame<Gray8>) + Send,
) -> PipeReport {
    assert!(config.workers >= 1, "need at least one worker");
    let caps = check_worker_engine(&config.engine, config.interp);
    if let Some(frac_bits) = caps.requires_lut {
        assert!(
            plan.fixed(frac_bits).is_some(),
            "plan was not compiled with a {frac_bits}-bit LUT for engine '{}' — \
             compile it with PlanOptions::for_spec",
            config.engine.name()
        );
    }
    let q_in: BoundedQueue<VideoFrame> = BoundedQueue::new(config.queue_capacity);
    let q_out: BoundedQueue<CorrectedFrame> = BoundedQueue::new(config.queue_capacity);
    // one output buffer per possible in-flight frame: q_out slots,
    // one per worker, the resequencer's window, one in the sink's
    // hands — primed up front, the per-frame path never allocates
    let pool: FramePool<Gray8> = FramePool::new(plan.width(), plan.height());
    pool.prime(config.queue_capacity + config.workers + config.resequence.unwrap_or(0) + 1);
    let credits = config.resequence.map(Credits::new);

    let started = Instant::now();
    let mut frames = 0u64;
    let mut latency = crate::latency::LatencyStats::new();
    let mut out_of_order = 0u64;
    let mut dropped = 0u64;
    let mut deadline_missed = 0u64;
    let mut kernel_time = Duration::ZERO;
    let mut invalid_pixels = 0u64;
    let mut last_seq: Option<u64> = None;

    std::thread::scope(|s| {
        // capture stage: with resequencing, a credit per frame before
        // it is captured (so credit waits stay out of its latency)
        let q_in_prod = q_in.clone();
        let admit = credits.clone();
        s.spawn(move || {
            while let Some(frame) = admitted(&admit, || source.next_frame()) {
                if q_in_prod.push(frame).is_err() {
                    break;
                }
            }
            q_in_prod.close();
        });
        // corrector workers — every frame goes through the engine
        // layer's host dispatcher, so the per-worker execution path is
        // exactly the named backend
        let worker_handles: Vec<_> = (0..config.workers)
            .map(|_| {
                let q_in = q_in.clone();
                let q_out = q_out.clone();
                let pool = pool.clone();
                let interp = config.interp;
                let spec = config.engine;
                s.spawn(move || {
                    let env = HostEnv::default();
                    while let Some(frame) = q_in.pop() {
                        let mut image = pool.acquire();
                        let report =
                            execute_host(&spec, interp, &frame.image, plan, None, &env, &mut image)
                                .expect("engine validated before workers started");
                        let done = CorrectedFrame {
                            seq: frame.seq,
                            captured_at: frame.captured_at,
                            image,
                            kernel_time: report.correct_time,
                            invalid_pixels: report.invalid_pixels,
                        };
                        if q_out.push(done).is_err() {
                            break;
                        }
                    }
                })
            })
            .collect();
        // closer: when all workers exit, close the output queue
        {
            let q_out = q_out.clone();
            s.spawn(move || {
                for h in worker_handles {
                    let _ = h.join();
                }
                q_out.close();
            });
        }
        // sink (this thread)
        let mut reseq = config
            .resequence
            .map(crate::resequencer::Resequencer::<CorrectedFrame>::new);
        while let Some(done) = q_out.pop() {
            let lat = done.captured_at.elapsed();
            latency.record(lat);
            if config.frame_deadline.is_some_and(|d| lat > d) {
                deadline_missed += 1;
            }
            kernel_time += done.kernel_time;
            invalid_pixels += done.invalid_pixels;
            if let Some(prev) = last_seq {
                if done.seq < prev {
                    out_of_order += 1;
                }
            }
            last_seq = Some(done.seq.max(last_seq.unwrap_or(0)));
            match reseq.as_mut() {
                Some(r) => {
                    for (seq, f) in resequence(r, &credits, done.seq, done) {
                        on_frame(seq, f.image);
                        frames += 1;
                    }
                }
                None => {
                    on_frame(done.seq, done.image);
                    frames += 1;
                }
            }
        }
        if let Some(r) = reseq.as_mut() {
            for (seq, f) in r.flush() {
                on_frame(seq, f.image);
                frames += 1;
            }
            dropped = r.dropped();
        }
    });

    let elapsed = started.elapsed();
    PipeReport {
        frames,
        elapsed,
        fps: if elapsed.as_secs_f64() > 0.0 {
            frames as f64 / elapsed.as_secs_f64()
        } else {
            0.0
        },
        mean_latency: latency.mean(),
        p50_latency: latency.percentile(0.5),
        p95_latency: latency.percentile(0.95),
        max_latency: latency.max(),
        in_queue_high_water: q_in.high_water(),
        out_of_order,
        dropped,
        deadline_missed,
        kernel_time,
        invalid_pixels,
        pool_hits: pool.hits(),
        pool_misses: pool.misses(),
        plane_kernel: Vec::new(),
    }
}

/// A corrected multi-plane frame arriving at the sink.
struct CorrectedPlanes {
    seq: u64,
    captured_at: Instant,
    planes: Vec<PooledFrame<Gray8>>,
    kernel_time: Duration,
    plane_times: Vec<Duration>,
    invalid_pixels: u64,
}

/// The format-aware counterpart of [`run_pipeline`]: drive a
/// multi-plane [`FrameSource`] through the correction pipeline to
/// exhaustion. Every worker owns a sequential
/// [`FrameCorrector`] over the shared [`ViewPlan`] (frame-level
/// parallelism is already provided by the workers, so planes run in
/// line inside each worker rather than stacking a second pool per
/// worker). Output planes come from a primed [`PlanePool`] — the
/// steady-state path allocates nothing per frame, exactly like the
/// gray pipeline — and `on_frame` receives the pooled planes in plane
/// order, by value. The report's
/// [`plane_kernel`](PipeReport::plane_kernel) carries per-plane kernel
/// time totals; [`kernel_time`](PipeReport::kernel_time) is their sum.
///
/// Panics under the same up-front configuration rules as
/// [`run_pipeline`] (engine must be `serial`/`fixed`/`simd`, LUTs
/// must be pre-compiled into **every** plane class's plan), plus the
/// source format must have byte planes (every format except
/// `grayf32`).
pub fn run_frame_pipeline(
    mut source: Box<dyn FrameSource>,
    plan: &ViewPlan,
    config: PipeConfig,
    mut on_frame: impl FnMut(u64, Vec<PooledFrame<Gray8>>) + Send,
) -> PipeReport {
    assert!(config.workers >= 1, "need at least one worker");
    let format = source.format();
    assert!(
        format.has_u8_planes(),
        "the frame pipeline corrects byte planes; '{format}' has none"
    );
    let caps = check_worker_engine(&config.engine, config.interp);
    if let Some(frac_bits) = caps.requires_lut {
        for class_plan in plan.plans() {
            assert!(
                class_plan.fixed(frac_bits).is_some(),
                "a plane plan was not compiled with a {frac_bits}-bit LUT for engine \
                 '{}' — compile the ViewPlan with PlanOptions::for_spec",
                config.engine.name()
            );
        }
    }
    let labels = format.plane_labels();
    let q_in: BoundedQueue<FramePacket> = BoundedQueue::new(config.queue_capacity);
    let q_out: BoundedQueue<CorrectedPlanes> = BoundedQueue::new(config.queue_capacity);
    // same in-flight bound as the gray pipeline, per plane
    let pool: PlanePool<Gray8> = PlanePool::new(&plan.plane_dims());
    pool.prime(config.queue_capacity + config.workers + config.resequence.unwrap_or(0) + 1);
    let credits = config.resequence.map(Credits::new);

    let started = Instant::now();
    let mut frames = 0u64;
    let mut latency = crate::latency::LatencyStats::new();
    let mut out_of_order = 0u64;
    let mut dropped = 0u64;
    let mut deadline_missed = 0u64;
    let mut kernel_time = Duration::ZERO;
    let mut plane_times = vec![Duration::ZERO; labels.len()];
    let mut invalid_pixels = 0u64;
    let mut last_seq: Option<u64> = None;

    std::thread::scope(|s| {
        // capture stage, credit-bounded like the gray pipeline
        let q_in_prod = q_in.clone();
        let admit = credits.clone();
        s.spawn(move || {
            while let Some(packet) = admitted(&admit, || source.next_frame()) {
                if q_in_prod.push(packet).is_err() {
                    break;
                }
            }
            q_in_prod.close();
        });
        // corrector workers — one sequential frame corrector each over
        // the shared per-class plans
        let worker_handles: Vec<_> = (0..config.workers)
            .map(|_| {
                let q_in = q_in.clone();
                let q_out = q_out.clone();
                let pool = pool.clone();
                let interp = config.interp;
                let spec = config.engine;
                let plan = plan.clone();
                s.spawn(move || {
                    let fc = FrameCorrector::host_sequential(format, plan, &spec, interp, 1)
                        .expect("engine validated before workers started");
                    while let Some(packet) = q_in.pop() {
                        let srcs = packet
                            .frame
                            .u8_planes()
                            .expect("format validated to have u8 planes");
                        let mut planes = pool.acquire();
                        let mut refs: Vec<&mut Image<Gray8>> =
                            planes.iter_mut().map(|p| &mut **p).collect();
                        let report = fc
                            .correct_u8_planes_into(&srcs, &mut refs)
                            .expect("engine validated before workers started");
                        let per_plane = labels
                            .iter()
                            .map(|label| {
                                let ms = report
                                    .model
                                    .get(&format!("{label}.correct_ms"))
                                    .copied()
                                    .unwrap_or(0.0);
                                Duration::from_secs_f64(ms / 1e3)
                            })
                            .collect();
                        let done = CorrectedPlanes {
                            seq: packet.seq,
                            captured_at: packet.captured_at,
                            planes,
                            kernel_time: report.correct_time,
                            plane_times: per_plane,
                            invalid_pixels: report.invalid_pixels,
                        };
                        if q_out.push(done).is_err() {
                            break;
                        }
                    }
                })
            })
            .collect();
        // closer: when all workers exit, close the output queue
        {
            let q_out = q_out.clone();
            s.spawn(move || {
                for h in worker_handles {
                    let _ = h.join();
                }
                q_out.close();
            });
        }
        // sink (this thread)
        let mut reseq = config
            .resequence
            .map(crate::resequencer::Resequencer::<CorrectedPlanes>::new);
        while let Some(done) = q_out.pop() {
            let lat = done.captured_at.elapsed();
            latency.record(lat);
            if config.frame_deadline.is_some_and(|d| lat > d) {
                deadline_missed += 1;
            }
            kernel_time += done.kernel_time;
            for (acc, t) in plane_times.iter_mut().zip(&done.plane_times) {
                *acc += *t;
            }
            invalid_pixels += done.invalid_pixels;
            if let Some(prev) = last_seq {
                if done.seq < prev {
                    out_of_order += 1;
                }
            }
            last_seq = Some(done.seq.max(last_seq.unwrap_or(0)));
            match reseq.as_mut() {
                Some(r) => {
                    for (seq, f) in resequence(r, &credits, done.seq, done) {
                        on_frame(seq, f.planes);
                        frames += 1;
                    }
                }
                None => {
                    on_frame(done.seq, done.planes);
                    frames += 1;
                }
            }
        }
        if let Some(r) = reseq.as_mut() {
            for (seq, f) in r.flush() {
                on_frame(seq, f.planes);
                frames += 1;
            }
            dropped = r.dropped();
        }
    });

    let elapsed = started.elapsed();
    PipeReport {
        frames,
        elapsed,
        fps: if elapsed.as_secs_f64() > 0.0 {
            frames as f64 / elapsed.as_secs_f64()
        } else {
            0.0
        },
        mean_latency: latency.mean(),
        p50_latency: latency.percentile(0.5),
        p95_latency: latency.percentile(0.95),
        max_latency: latency.max(),
        in_queue_high_water: q_in.high_water(),
        out_of_order,
        dropped,
        deadline_missed,
        kernel_time,
        invalid_pixels,
        pool_hits: pool.hits(),
        pool_misses: pool.misses(),
        plane_kernel: labels
            .iter()
            .map(|l| l.to_string())
            .zip(plane_times)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{CycledFrames, ShiftVideo};
    use fisheye_core::frame::{Frame, FrameFormat};
    use fisheye_core::plan::PlanOptions;
    use fisheye_core::{correct, correct_fixed, correct_plan, RemapMap};
    use fisheye_geom::{FisheyeLens, PerspectiveView};
    use pixmap::scene::random_gray;
    use pixmap::yuv::Yuv420;

    fn test_plan_for(spec: &EngineSpec) -> RemapPlan {
        let lens = FisheyeLens::equidistant_fov(128, 96, 180.0);
        let view = PerspectiveView::centered(64, 48, 90.0);
        let map = RemapMap::build(&lens, &view, 128, 96);
        RemapPlan::compile(&map, PlanOptions::for_spec(spec, Interpolator::Bilinear))
    }

    fn test_plan() -> RemapPlan {
        test_plan_for(&EngineSpec::Serial)
    }

    fn yuv_test_plan_for(spec: &EngineSpec) -> ViewPlan {
        let lens = FisheyeLens::equidistant_fov(128, 96, 180.0);
        let view = PerspectiveView::centered(64, 48, 90.0);
        ViewPlan::compile(
            FrameFormat::Yuv420,
            &lens,
            &view,
            128,
            96,
            &PlanOptions::for_spec(spec, Interpolator::Bilinear),
        )
    }

    fn yuv_frame(seed: u64) -> Frame {
        Frame::Yuv420(Yuv420 {
            y: random_gray(128, 96, seed),
            cb: random_gray(64, 48, seed + 100),
            cr: random_gray(64, 48, seed + 200),
        })
    }

    #[test]
    fn all_frames_reach_sink() {
        let plan = test_plan();
        let src = Box::new(ShiftVideo::new(random_gray(128, 96, 1), 2, 25));
        let mut seen = Vec::new();
        let report = run_pipeline(src, &plan, PipeConfig::default(), |seq, img| {
            assert_eq!(img.dims(), (64, 48));
            seen.push(seq);
        });
        assert_eq!(report.frames, 25);
        seen.sort_unstable();
        let expect: Vec<u64> = (0..25).collect();
        assert_eq!(seen, expect);
        assert!(report.fps > 0.0);
        assert!(report.mean_latency <= report.max_latency);
    }

    #[test]
    fn single_worker_preserves_order() {
        let plan = test_plan();
        let src = Box::new(ShiftVideo::new(random_gray(128, 96, 2), 1, 15));
        let report = run_pipeline(src, &plan, PipeConfig::default(), |_, _| {});
        assert_eq!(report.out_of_order, 0);
    }

    #[test]
    fn multiple_workers_process_everything() {
        let plan = test_plan();
        let src = Box::new(ShiftVideo::new(random_gray(128, 96, 3), 1, 40));
        let config = PipeConfig {
            workers: 4,
            ..Default::default()
        };
        let mut count = 0u64;
        let report = run_pipeline(src, &plan, config, |_, _| count += 1);
        assert_eq!(report.frames, 40);
        assert_eq!(count, 40);
    }

    #[test]
    fn output_matches_offline_correction() {
        let plan = test_plan();
        let base = random_gray(128, 96, 4);
        let src = Box::new(ShiftVideo::new(base.clone(), 0, 1));
        let mut got = None;
        let _ = run_pipeline(src, &plan, PipeConfig::default(), |_, img| {
            got = Some(img.detach());
        });
        let expect = correct(&base, plan.map(), Interpolator::Bilinear);
        assert_eq!(got.unwrap(), expect);
    }

    #[test]
    fn steady_state_recycles_every_output_buffer() {
        // frames dropped at the sink go straight back to the pool:
        // after the primed warmup, no acquisition ever allocates
        let plan = test_plan();
        let src = Box::new(ShiftVideo::new(random_gray(128, 96, 11), 1, 60));
        let config = PipeConfig {
            workers: 4,
            ..Default::default()
        };
        let report = run_pipeline(src, &plan, config, |_, _| {});
        assert_eq!(report.frames, 60);
        assert_eq!(report.pool_misses, 0, "steady state must never allocate");
        assert_eq!(report.pool_hits, 60);
        assert!((report.pool_hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_source_yields_empty_report() {
        let plan = test_plan();
        let src = Box::new(ShiftVideo::new(random_gray(128, 96, 5), 1, 0));
        let report = run_pipeline(src, &plan, PipeConfig::default(), |_, _| {});
        assert_eq!(report.frames, 0);
        assert_eq!(report.fps, 0.0);
        assert_eq!(report.mean_latency, Duration::ZERO);
        assert_eq!(report.pool_hit_rate(), 1.0);
    }

    #[test]
    fn resequencer_restores_order_with_many_workers() {
        let plan = test_plan();
        let src = Box::new(ShiftVideo::new(random_gray(128, 96, 7), 1, 50));
        let config = PipeConfig {
            workers: 4,
            resequence: Some(16),
            ..Default::default()
        };
        let mut seqs = Vec::new();
        let report = run_pipeline(src, &plan, config, |seq, _| seqs.push(seq));
        // delivered strictly in order, nothing dropped with a deep
        // enough buffer
        let expect: Vec<u64> = (0..report.frames).collect();
        assert_eq!(seqs, expect);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.frames, 50);
    }

    #[test]
    fn fixed_engine_matches_offline_fixed_reference() {
        let spec = EngineSpec::FixedPoint { frac_bits: 12 };
        let plan = test_plan_for(&spec);
        let base = random_gray(128, 96, 8);
        let src = Box::new(ShiftVideo::new(base.clone(), 0, 1));
        let config = PipeConfig {
            engine: spec,
            ..Default::default()
        };
        let mut got = None;
        let report = run_pipeline(src, &plan, config, |_, img| got = Some(img.detach()));
        assert_eq!(got.unwrap(), correct_fixed(&base, &plan.map().to_fixed(12)));
        assert!(report.kernel_time > Duration::ZERO);
        assert_eq!(report.kernel_per_frame(), report.kernel_time);
    }

    #[test]
    fn simd_engine_matches_serial_through_pipeline() {
        let plan = test_plan();
        let base = random_gray(128, 96, 9);
        let src = Box::new(ShiftVideo::new(base.clone(), 0, 1));
        let config = PipeConfig {
            engine: EngineSpec::Simd,
            workers: 2,
            ..Default::default()
        };
        let mut got = None;
        let _ = run_pipeline(src, &plan, config, |_, img| got = Some(img.detach()));
        assert_eq!(
            got.unwrap(),
            correct(&base, plan.map(), Interpolator::Bilinear)
        );
    }

    #[test]
    fn registry_admission_follows_capabilities() {
        // The worker-pool gate is the capability triple, not an
        // engine allow-list: walking the whole registry, every spec
        // whose capabilities say host-executable + frame-concurrent +
        // plan-consuming runs frames, and every other spec panics
        // up front with the admission message. A new engine is
        // admitted (or refused) here purely by what it declares.
        for spec in EngineSpec::registry() {
            let caps = spec.capabilities();
            let admitted =
                caps.host_executable && caps.supports_frame_concurrency && caps.uses_plan;
            let name = spec.name();
            let outcome = std::panic::catch_unwind(|| {
                let plan = test_plan_for(&spec);
                let base = random_gray(128, 96, 21);
                let src = Box::new(ShiftVideo::new(base, 1, 2));
                let config = PipeConfig {
                    engine: spec,
                    ..Default::default()
                };
                run_pipeline(src, &plan, config, |_, _| {}).frames
            });
            match outcome {
                Ok(frames) => {
                    assert!(admitted, "{name}: capabilities say reject, pipeline ran");
                    assert_eq!(frames, 2, "{name}");
                }
                Err(payload) => {
                    assert!(
                        !admitted,
                        "{name}: capabilities say admit, pipeline panicked"
                    );
                    let msg = payload
                        .downcast_ref::<String>()
                        .cloned()
                        .unwrap_or_default();
                    assert!(
                        msg.contains("videopipe workers support engines"),
                        "{name}: unexpected panic: {msg}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "videopipe workers support engines")]
    fn accelerator_engine_rejected_up_front() {
        let plan = test_plan();
        let src = Box::new(ShiftVideo::new(random_gray(128, 96, 10), 1, 3));
        let config = PipeConfig {
            engine: EngineSpec::parse("gpu").unwrap(),
            ..Default::default()
        };
        let _ = run_pipeline(src, &plan, config, |_, _| {});
    }

    #[test]
    #[should_panic(expected = "plan was not compiled with a 12-bit LUT")]
    fn fixed_engine_without_plan_lut_rejected_up_front() {
        // the plan below was compiled for the serial engine only — a
        // fixed-point worker pool on it is a configuration error, not
        // a silent per-frame requantization on every worker
        let plan = test_plan();
        let src = Box::new(ShiftVideo::new(random_gray(128, 96, 12), 1, 3));
        let config = PipeConfig {
            engine: EngineSpec::FixedPoint { frac_bits: 12 },
            ..Default::default()
        };
        let _ = run_pipeline(src, &plan, config, |_, _| {});
    }

    #[test]
    fn deadline_misses_are_counted_and_bounded() {
        // a zero deadline makes every sunk frame a deterministic miss:
        // the overload case. Misses are *counted*, never dropped, and
        // backpressure still bounds the queue — overload degrades
        // latency accounting, not memory.
        let plan = test_plan();
        let src = Box::new(ShiftVideo::new(random_gray(128, 96, 13), 1, 30));
        let config = PipeConfig {
            queue_capacity: 2,
            frame_deadline: Some(Duration::ZERO),
            ..Default::default()
        };
        let report = run_pipeline(src, &plan, config, |_, _| {});
        assert_eq!(report.frames, 30, "late frames are delivered, not lost");
        assert_eq!(report.deadline_missed, 30);
        assert!(
            report.in_queue_high_water <= 2,
            "no queue growth under overload"
        );
    }

    #[test]
    fn generous_deadline_misses_nothing() {
        let plan = test_plan();
        let src = Box::new(ShiftVideo::new(random_gray(128, 96, 14), 1, 10));
        let config = PipeConfig {
            frame_deadline: Some(Duration::from_secs(3600)),
            ..Default::default()
        };
        let report = run_pipeline(src, &plan, config, |_, _| {});
        assert_eq!(report.frames, 10);
        assert_eq!(report.deadline_missed, 0);
    }

    #[test]
    fn yuv_frames_reach_sink_and_match_offline() {
        let plan = yuv_test_plan_for(&EngineSpec::Serial);
        let frame = yuv_frame(21);
        let srcs = frame.u8_planes().unwrap();
        let expect: Vec<_> = srcs
            .iter()
            .enumerate()
            .map(|(i, src)| correct_plan(src, plan.plane_plan(i), Interpolator::Bilinear))
            .collect();
        let src = Box::new(CycledFrames::new(vec![frame.clone()], 1));
        let mut got = None;
        let report = run_frame_pipeline(src, &plan, PipeConfig::default(), |_, planes| {
            got = Some(
                planes
                    .into_iter()
                    .map(|p| p.detach())
                    .collect::<Vec<Image<Gray8>>>(),
            );
        });
        let got = got.unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].dims(), (64, 48), "luma at full view resolution");
        assert_eq!(got[1].dims(), (32, 24), "chroma at half resolution");
        assert_eq!(got, expect, "pipeline output matches offline per-plane");
        assert_eq!(report.frames, 1);
        let labels: Vec<&str> = report
            .plane_kernel
            .iter()
            .map(|(l, _)| l.as_str())
            .collect();
        assert_eq!(labels, ["y", "cb", "cr"]);
    }

    #[test]
    fn frame_pipeline_steady_state_recycles_every_plane() {
        let plan = yuv_test_plan_for(&EngineSpec::Serial);
        let frames = vec![yuv_frame(31), yuv_frame(32)];
        let src = Box::new(CycledFrames::new(frames, 40));
        let config = PipeConfig {
            workers: 4,
            ..Default::default()
        };
        let report = run_frame_pipeline(src, &plan, config, |_, _| {});
        assert_eq!(report.frames, 40);
        assert_eq!(report.pool_misses, 0, "steady state must never allocate");
        assert_eq!(report.pool_hits, 40 * 3, "three plane buffers per frame");
        assert!(report.kernel_time > Duration::ZERO);
        let plane_sum: Duration = report.plane_kernel.iter().map(|(_, t)| *t).sum();
        assert!(
            plane_sum <= report.kernel_time * 2 && plane_sum * 2 >= report.kernel_time,
            "per-plane kernel times sum to the same order as the total \
             ({plane_sum:?} vs {:?})",
            report.kernel_time
        );
    }

    #[test]
    fn frame_pipeline_resequences_in_order() {
        let plan = yuv_test_plan_for(&EngineSpec::Simd);
        let src = Box::new(CycledFrames::new(vec![yuv_frame(41)], 30));
        let config = PipeConfig {
            workers: 4,
            engine: EngineSpec::Simd,
            resequence: Some(16),
            ..Default::default()
        };
        let mut seqs = Vec::new();
        let report = run_frame_pipeline(src, &plan, config, |seq, _| seqs.push(seq));
        let expect: Vec<u64> = (0..report.frames).collect();
        assert_eq!(seqs, expect);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.frames, 30);
    }

    #[test]
    fn oversubscribed_workers_never_outrun_the_resequence_window() {
        // 8 workers on a small box, a 4-frame window and a deep input
        // queue: without credit-bounded admission a descheduled worker
        // lets the others push the reorder buffer past its window and
        // its frame is skipped
        let plan = test_plan();
        let src = Box::new(ShiftVideo::new(random_gray(128, 96, 12), 1, 500));
        let config = PipeConfig {
            workers: 8,
            queue_capacity: 16,
            resequence: Some(4),
            ..Default::default()
        };
        let mut seqs = Vec::new();
        let report = run_pipeline(src, &plan, config, |seq, _| seqs.push(seq));
        assert_eq!(report.dropped, 0);
        assert_eq!(report.frames, 500);
        assert_eq!(seqs, (0..500).collect::<Vec<u64>>());
    }

    #[test]
    fn oversubscribed_frame_pipeline_never_outruns_the_window() {
        let plan = yuv_test_plan_for(&EngineSpec::Serial);
        let src = Box::new(CycledFrames::new(vec![yuv_frame(43), yuv_frame(44)], 200));
        let config = PipeConfig {
            workers: 8,
            queue_capacity: 16,
            resequence: Some(4),
            ..Default::default()
        };
        let mut seqs = Vec::new();
        let report = run_frame_pipeline(src, &plan, config, |seq, _| seqs.push(seq));
        assert_eq!(report.dropped, 0);
        assert_eq!(report.frames, 200);
        assert_eq!(seqs, (0..200).collect::<Vec<u64>>());
    }

    #[test]
    fn frame_pipeline_fixed_engine_matches_offline() {
        let spec = EngineSpec::FixedPoint { frac_bits: 12 };
        let plan = yuv_test_plan_for(&spec);
        let frame = yuv_frame(51);
        let srcs = frame.u8_planes().unwrap();
        let expect: Vec<_> = srcs
            .iter()
            .enumerate()
            .map(|(i, src)| correct_fixed(src, plan.plane_plan(i).fixed(12).unwrap()))
            .collect();
        let src = Box::new(CycledFrames::new(vec![frame.clone()], 1));
        let config = PipeConfig {
            engine: spec,
            ..Default::default()
        };
        let mut got = None;
        let _ = run_frame_pipeline(src, &plan, config, |_, planes| {
            got = Some(
                planes
                    .into_iter()
                    .map(|p| p.detach())
                    .collect::<Vec<Image<Gray8>>>(),
            );
        });
        assert_eq!(got.unwrap(), expect);
    }

    #[test]
    #[should_panic(expected = "has none")]
    fn frame_pipeline_rejects_float_frames() {
        let plan = yuv_test_plan_for(&EngineSpec::Serial);
        let src = Box::new(CycledFrames::new(
            vec![Frame::new(FrameFormat::GrayF32, 128, 96)],
            3,
        ));
        let _ = run_frame_pipeline(src, &plan, PipeConfig::default(), |_, _| {});
    }

    #[test]
    #[should_panic(expected = "a plane plan was not compiled with a 12-bit LUT")]
    fn frame_pipeline_fixed_without_lut_rejected_up_front() {
        let plan = yuv_test_plan_for(&EngineSpec::Serial);
        let src = Box::new(CycledFrames::new(vec![yuv_frame(61)], 3));
        let config = PipeConfig {
            engine: EngineSpec::FixedPoint { frac_bits: 12 },
            ..Default::default()
        };
        let _ = run_frame_pipeline(src, &plan, config, |_, _| {});
    }

    #[test]
    fn backpressure_bounds_queue() {
        let plan = test_plan();
        let src = Box::new(ShiftVideo::new(random_gray(128, 96, 6), 1, 30));
        let config = PipeConfig {
            queue_capacity: 2,
            ..Default::default()
        };
        let report = run_pipeline(src, &plan, config, |_, _| {});
        assert!(report.in_queue_high_water <= 2);
        assert_eq!(report.frames, 30);
    }
}
