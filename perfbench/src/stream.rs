//! W1 `stream_vga_gray8`: one caller, `Corrector<Gray8>` on `simd`,
//! bilinear, 640x480 in and out, a fixed view, frames back to back.
//!
//! Nearly all of the time is the engine's gather+sample: the plan
//! (2.4 MB of coordinates) plus source and output stay within the
//! 4 MiB per-core L2, and map, plan compile and the whole serving
//! layer are off the path. Kernel work shows here; serving work must
//! leave it flat.

use std::sync::Arc;
use std::time::Instant;

use fisheye::Corrector;
use fisheye_core::{EngineSpec, Interpolator};
use fisheye_geom::{FisheyeLens, PerspectiveView};
use fisheye_serve::CameraFeed;
use pixmap::{Gray8, Image};

use crate::closed::{self, ClosedLoop};
use crate::report::Outcome;
use crate::trace::{Tracer, NONE};
use crate::{stats, sys, Args};

const W: u32 = 640;
const H: u32 = 480;
const PX: f64 = (W * H) as f64;
/// A serial reference pass is ~4x a simd frame: check one in 32.
const CHECK_EVERY: u64 = 32;

struct Stream {
    feed: CameraFeed,
    lens: FisheyeLens,
    view: PerspectiveView,
    corrector: Option<Corrector<Gray8>>,
    reference: Corrector<Gray8>,
    src: Arc<Image<Gray8>>,
    out: Image<Gray8>,
    want: Image<Gray8>,
    setups: u64,
}

impl Stream {
    fn build(&self, backend: EngineSpec) -> Result<Corrector<Gray8>, String> {
        Corrector::<Gray8>::builder()
            .lens(self.lens)
            .view(self.view)
            .backend(backend)
            .interp(Interpolator::Bilinear)
            .build()
            .map_err(|e| format!("build {}: {e}", backend.name()))
    }

    fn corrector(&self) -> Result<&Corrector<Gray8>, String> {
        self.corrector
            .as_ref()
            .ok_or_else(|| "not set up".to_string())
    }
}

impl ClosedLoop for Stream {
    fn setup(&mut self, tr: &mut Tracer) -> Result<(), String> {
        self.src = self.feed.next_frame();
        let req = u64::MAX - self.setups;
        self.setups += 1;
        let root = tr.open("setup", NONE, req);
        self.corrector = None;
        let t0 = Instant::now();
        let build = tr.open("setup.build", root, req);
        let c = self.build(EngineSpec::Simd)?;
        tr.close(build);
        let map_ns = c.map_time().as_nanos() as u64;
        tr.record("setup.map", build, req, t0, map_ns);
        let plan_start = t0 + c.map_time();
        tr.record(
            "setup.plan",
            build,
            req,
            plan_start,
            c.plan_time().as_nanos() as u64,
        );
        let first = tr.open("setup.first", root, req);
        c.correct_into(&self.src, &mut self.out)
            .map_err(|e| format!("first frame: {e}"))?;
        tr.close(first);
        tr.close(root);
        self.corrector = Some(c);
        Ok(())
    }

    fn step(&mut self, i: u64, tr: &mut Tracer) -> Result<f64, String> {
        self.src = self.feed.next_frame();
        let c = self.corrector.as_ref().ok_or("not set up")?;
        let root = tr.open("frame", NONE, i);
        let t0 = Instant::now();
        let engine = tr.open("engine", root, i);
        let r = c.correct_into(&self.src, &mut self.out);
        tr.close(engine);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        tr.close(root);
        r.map_err(|e| e.to_string())?;
        Ok(ms)
    }

    fn check(&mut self, _i: u64) -> Result<Option<String>, String> {
        self.reference
            .correct_into(&self.src, &mut self.want)
            .map_err(|e| format!("serial reference: {e}"))?;
        let diff = self
            .out
            .pixels()
            .iter()
            .zip(self.want.pixels())
            .filter(|(a, b)| a != b)
            .count();
        Ok((diff > 0).then(|| format!("simd differs from serial at {diff} pixels")))
    }

    fn check_every(&self) -> u64 {
        CHECK_EVERY
    }
}

pub fn run(args: &Args, tr: &mut Tracer) -> Result<Outcome, String> {
    let lens = FisheyeLens::equidistant_fov(W, H, 180.0);
    let view = PerspectiveView::centered(W, H, 90.0);
    let reference = Corrector::<Gray8>::builder()
        .lens(lens)
        .view(view)
        .backend(EngineSpec::Serial)
        .interp(Interpolator::Bilinear)
        .build()
        .map_err(|e| format!("build serial reference: {e}"))?;
    let mut feed = CameraFeed::new(W, H, args.seed);
    let src = feed.next_frame();
    let mut w = Stream {
        feed,
        lens,
        view,
        corrector: None,
        reference,
        src,
        out: Image::new(W, H),
        want: Image::new(W, H),
        setups: 0,
    };
    let mut out = Outcome::new();
    let s = closed::drive(&mut w, args, tr, &mut out)?;
    s.put_end_to_end(&mut out, ["frame_ms_p50", "frame_ms_p99"], 0.99);
    if tr.enabled() {
        let c = w.corrector()?;
        let engine_ms = stats::median(&tr.durations_ms("engine"));
        let n = tr.durations_ms("engine").len();
        let bytes = sys::computed_gather_bytes(c.plan());
        out.put("engine.ns_per_px", engine_ms * 1e6 / PX, "ns", n);
        out.put("engine.computed_gbps", bytes / (engine_ms * 1e6), "GB/s", n);
        let map_ms = stats::median(&tr.durations_ms("setup.map"));
        out.put("map.build_ms", map_ms, "ms", closed::SETUP_REPS as usize);
        out.put(
            "map.ns_per_px",
            map_ms * 1e6 / PX,
            "ns",
            closed::SETUP_REPS as usize,
        );
        let plan_ms = stats::median(&tr.durations_ms("setup.plan"));
        out.put(
            "plan.compile_ms",
            plan_ms,
            "ms",
            closed::SETUP_REPS as usize,
        );
        out.put(
            "plan.bytes_per_px",
            c.view_plan().bytes() as f64 / PX,
            "B",
            0,
        );
        let rebuild = stats::median(&tr.self_ms("setup.build"));
        out.put(
            "frame.rebuild_ms",
            rebuild,
            "ms",
            closed::SETUP_REPS as usize,
        );
        out.put("trace.covered_share", tr.covered_share("frame"), "ratio", n);
    }
    Ok(out)
}
