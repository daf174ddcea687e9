//! W2 `ptz_720p_yuv420`: one caller, `Corrector` on `simd`, 1280x720
//! yuv420 with the `warm` grade, two threads. Every step points the
//! corrector at the next pose of a seeded pan/tilt walk and corrects
//! one frame there.
//!
//! The plan layer is used the other way round from W1: it is written
//! on every step (map trace, delta recompile of both plane classes,
//! engine rebuild), and the ~9 MB plan no longer fits the per-core
//! L2, so the kernel runs out of L3.

use std::sync::Arc;
use std::time::Instant;

use fisheye::{Corrector, CorrectorBuilder};
use fisheye_core::{EngineSpec, Frame, FrameFormat, Interpolator, Lut3d};
use fisheye_geom::{FisheyeLens, PerspectiveView};
use fisheye_serve::CameraFeed;
use pixmap::rng::Xoshiro256pp;
use pixmap::Gray8;

use crate::closed::{self, ClosedLoop};
use crate::report::Outcome;
use crate::trace::{Tracer, NONE};
use crate::{stats, sys, Args};

const W: u32 = 1280;
const H: u32 = 720;
const PX: f64 = (W * H) as f64;
/// At or below `nproc` on the reference box (the builder's default of
/// 4 would oversubscribe it).
const THREADS: usize = 2;
/// A check is a cold build plus a frame (~3 steps): check one in 16.
const CHECK_EVERY: u64 = 16;
/// Pan/tilt limits of the walk and the largest move per step, degrees.
const PAN_LIMIT: f64 = 40.0;
const TILT_LIMIT: f64 = 25.0;
const PAN_STEP: f64 = 4.0;
const TILT_STEP: f64 = 3.0;

struct Ptz {
    feed: CameraFeed,
    lens: FisheyeLens,
    warm: Arc<Lut3d>,
    rng: Xoshiro256pp,
    pose: (f64, f64),
    view: PerspectiveView,
    corrector: Option<Corrector<Gray8>>,
    src: Arc<Frame>,
    out: Frame,
    want: Frame,
    setups: u64,
}

impl Ptz {
    fn builder(&self, view: PerspectiveView) -> CorrectorBuilder<Gray8> {
        Corrector::<Gray8>::builder()
            .lens(self.lens)
            .view(view)
            .format(FrameFormat::Yuv420)
            .backend(EngineSpec::Simd)
            .interp(Interpolator::Bilinear)
            .grade(Arc::clone(&self.warm), 1.0)
            .threads(THREADS)
    }

    /// The next pose of the seeded walk; never the current one.
    fn next_view(&mut self) -> PerspectiveView {
        let (pan, tilt) = self.pose;
        let mut step = |limit: f64, at: f64, max: f64| {
            let d = (self.rng.next_f64() * 2.0 - 1.0) * max;
            let d = if d.abs() < 0.05 { max / 2.0 } else { d };
            if (at + d).abs() > limit {
                at - d
            } else {
                at + d
            }
        };
        let pan = step(PAN_LIMIT, pan, PAN_STEP);
        let tilt = step(TILT_LIMIT, tilt, TILT_STEP);
        self.pose = (pan, tilt);
        PerspectiveView::centered(W, H, 90.0).look(pan, tilt)
    }
}

impl ClosedLoop for Ptz {
    fn setup(&mut self, tr: &mut Tracer) -> Result<(), String> {
        self.src = self.feed.next_frame_in(FrameFormat::Yuv420);
        let req = u64::MAX - self.setups;
        self.setups += 1;
        self.corrector = None;
        let root = tr.open("setup", NONE, req);
        let c = self
            .builder(self.view)
            .build()
            .map_err(|e| format!("build: {e}"))?;
        c.correct_frame_into(&self.src, &mut self.out)
            .map_err(|e| format!("first frame: {e}"))?;
        tr.close(root);
        self.corrector = Some(c);
        Ok(())
    }

    fn step(&mut self, i: u64, tr: &mut Tracer) -> Result<f64, String> {
        self.src = self.feed.next_frame_in(FrameFormat::Yuv420);
        self.view = self.next_view();
        let c = self.corrector.as_mut().ok_or("not set up")?;
        let root = tr.open("step", NONE, i);
        let t0 = Instant::now();
        let sv = tr.open("set_view", root, i);
        let r = c.set_view(self.view);
        tr.close(sv);
        // set_view covers map, plan and frame rebuild; the public
        // getters split it
        tr.record("map", sv, i, t0, c.map_time().as_nanos() as u64);
        let plan_ns = c.plan_time().as_nanos() as u64;
        tr.record("plan", sv, i, t0 + c.map_time(), plan_ns);
        r.map_err(|e| format!("set_view: {e}"))?;
        let engine = tr.open("engine", root, i);
        let r = c.correct_frame_into(&self.src, &mut self.out);
        tr.close(engine);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        tr.close(root);
        r.map_err(|e| format!("correct: {e}"))?;
        Ok(ms)
    }

    fn check(&mut self, _i: u64) -> Result<Option<String>, String> {
        let cold = self
            .builder(self.view)
            .build()
            .map_err(|e| format!("cold build: {e}"))?;
        cold.correct_frame_into(&self.src, &mut self.want)
            .map_err(|e| format!("cold correct: {e}"))?;
        Ok((self.out != self.want).then(|| {
            format!(
                "frame at pan {:.3} tilt {:.3} differs from a cold-built corrector",
                self.pose.0, self.pose.1
            )
        }))
    }

    fn check_every(&self) -> u64 {
        CHECK_EVERY
    }
}

pub fn run(args: &Args, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut feed = CameraFeed::new(W, H, args.seed);
    let src = feed.next_frame_in(FrameFormat::Yuv420);
    let mut rng = Xoshiro256pp::seed_from_u64(args.seed ^ 0x7072_7a70_6174_6821);
    let pose = (
        (rng.next_f64() * 2.0 - 1.0) * PAN_LIMIT / 2.0,
        (rng.next_f64() * 2.0 - 1.0) * TILT_LIMIT / 2.0,
    );
    let mut w = Ptz {
        feed,
        lens: FisheyeLens::equidistant_fov(W, H, 180.0),
        warm: Arc::new(Lut3d::builtin("warm").ok_or("no builtin warm LUT")?),
        rng,
        pose,
        view: PerspectiveView::centered(W, H, 90.0).look(pose.0, pose.1),
        corrector: None,
        src,
        out: Frame::new(FrameFormat::Yuv420, W, H),
        want: Frame::new(FrameFormat::Yuv420, W, H),
        setups: 0,
    };
    let mut out = Outcome::new();
    let s = closed::drive(&mut w, args, tr, &mut out)?;
    s.put_end_to_end(&mut out, ["view_change_ms_p50", "view_change_ms_p90"], 0.9);
    if tr.enabled() {
        let c = w.corrector.as_ref().ok_or("not set up")?;
        let vp = c.view_plan();
        let n = tr.durations_ms("step").len();
        let engine_ms = stats::median(&tr.durations_ms("engine"));
        let bytes: f64 = (0..FrameFormat::Yuv420.planes())
            .map(|p| sys::computed_gather_bytes(vp.plane_plan(p)))
            .sum();
        out.put("engine.ns_per_px", engine_ms * 1e6 / PX, "ns", n);
        out.put("engine.computed_gbps", bytes / (engine_ms * 1e6), "GB/s", n);
        // the map trace covers every plane class (luma and chroma)
        let traced_px: f64 = vp
            .plans()
            .iter()
            .map(|p| f64::from(p.width()) * f64::from(p.height()))
            .sum();
        let map_ms = stats::median(&tr.durations_ms("map"));
        out.put("map.build_ms", map_ms, "ms", n);
        out.put("map.ns_per_px", map_ms * 1e6 / traced_px, "ns", n);
        out.put(
            "plan.compile_ms",
            stats::median(&tr.durations_ms("plan")),
            "ms",
            n,
        );
        out.put("plan.bytes_per_px", vp.bytes() as f64 / PX, "B", 0);
        out.put(
            "frame.rebuild_ms",
            stats::median(&tr.self_ms("set_view")),
            "ms",
            n,
        );
        out.put("trace.covered_share", tr.covered_share("step"), "ratio", n);
    }
    Ok(out)
}
