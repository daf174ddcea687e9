//! W4 `panorama_dual_vga`: one caller, `CompositeFrameCorrector` on
//! `simd` over a symmetric dual-fisheye rig, two 480x480 sensors onto
//! a 960x480 equirectangular surface, gray8.
//!
//! The only workload that runs the composite segment walker and its
//! blend band; the other three never reach `fisheye-core::composite`.

use std::sync::Arc;
use std::time::Instant;

use fisheye_core::composite::{
    compose_two_pass, panorama_camera_map, CompositeFrameCorrector, CompositePlan,
    CompositeViewPlan,
};
use fisheye_core::plan::{correct_plan_into, PlanOptions, RemapPlan};
use fisheye_core::{EngineSpec, Frame, FrameFormat, Interpolator};
use fisheye_geom::CameraRig;
use fisheye_serve::CameraFeed;
use pixmap::{Gray8, Image};

use crate::closed::{self, ClosedLoop};
use crate::report::Outcome;
use crate::trace::{Tracer, NONE};
use crate::{stats, sys, Args};

const S: u32 = 480;
const OW: u32 = 2 * S;
const OH: u32 = S;
const PX: f64 = (OW * OH) as f64;
const FOV_DEG: f64 = 195.0;
/// The two-pass reference is ~3 bundles: check one in 16.
const CHECK_EVERY: u64 = 16;

struct Pano {
    rig: CameraRig,
    opts: PlanOptions,
    feeds: [CameraFeed; 2],
    srcs: [Arc<Frame>; 2],
    corrector: Option<CompositeFrameCorrector>,
    out: Frame,
    /// Per-camera layers for the traced per-camera baseline.
    layers: [Image<Gray8>; 2],
    setups: u64,
}

fn gray(f: &Frame) -> Result<&Image<Gray8>, String> {
    match f {
        Frame::Gray8(img) => Ok(img),
        other => Err(format!("expected a gray8 frame, got {}", other.format())),
    }
}

impl Pano {
    fn next_sources(&mut self) {
        let [a, b] = &mut self.feeds;
        self.srcs = [
            a.next_frame_in(FrameFormat::Gray8),
            b.next_frame_in(FrameFormat::Gray8),
        ];
    }

    fn bundle(&mut self) -> Result<(), String> {
        let c = self.corrector.as_ref().ok_or("not set up")?;
        let [a, b] = &self.srcs;
        let (out, _) = c
            .correct_frames(&[a.as_ref(), b.as_ref()])
            .map_err(|e| format!("composite: {e}"))?;
        self.out = out;
        Ok(())
    }

    /// The per-camera baseline: each camera's own plan over the same
    /// surface through `correct_plan_into`, one span per camera.
    fn per_camera(&mut self, i: u64, tr: &mut Tracer) -> Result<(), String> {
        let c = self.corrector.as_ref().ok_or("not set up")?;
        let plan = &c.plan().class_plans()[0];
        let root = tr.open("percam_sum", NONE, i);
        for ((sp, src), layer) in plan.sources().iter().zip(&self.srcs).zip(&mut self.layers) {
            let span = tr.open("percam", root, i);
            correct_plan_into(gray(src)?, sp, Interpolator::Bilinear, layer);
            tr.close(span);
        }
        tr.close(root);
        Ok(())
    }
}

impl ClosedLoop for Pano {
    fn setup(&mut self, tr: &mut Tracer) -> Result<(), String> {
        self.next_sources();
        let req = u64::MAX - self.setups;
        self.setups += 1;
        self.corrector = None;
        let root = tr.open("setup", NONE, req);
        let plan =
            CompositeViewPlan::compile_panorama(&self.rig, FrameFormat::Gray8, OW, OH, &self.opts);
        let c = CompositeFrameCorrector::host(EngineSpec::Simd, Interpolator::Bilinear, plan, 1)
            .map_err(|e| format!("composite corrector: {e}"))?;
        self.corrector = Some(c);
        self.bundle()?;
        tr.close(root);
        Ok(())
    }

    fn step(&mut self, i: u64, tr: &mut Tracer) -> Result<f64, String> {
        self.next_sources();
        let root = tr.open("bundle", NONE, i);
        let t0 = Instant::now();
        let span = tr.open("composite", root, i);
        let r = self.bundle();
        tr.close(span);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        tr.close(root);
        r?;
        if tr.enabled() {
            self.per_camera(i, tr)?;
        }
        Ok(ms)
    }

    fn check(&mut self, _i: u64) -> Result<Option<String>, String> {
        let c = self.corrector.as_ref().ok_or("not set up")?;
        let plan = &c.plan().class_plans()[0];
        let [a, b] = &self.srcs;
        let want = compose_two_pass(&[gray(a)?, gray(b)?], plan, Interpolator::Bilinear);
        let got = gray(&self.out)?;
        let diff = got
            .pixels()
            .iter()
            .zip(want.pixels())
            .filter(|(x, y)| x != y)
            .count();
        Ok((diff > 0).then(|| format!("composite differs from compose_two_pass at {diff} pixels")))
    }

    fn check_every(&self) -> u64 {
        CHECK_EVERY
    }
}

/// Traced runs only: compile the panorama again through its public
/// pieces so the map trace and the plan compile can be timed apart
/// (`compile_panorama` is one call over both).
fn probe_compile(rig: &CameraRig, opts: &PlanOptions, tr: &mut Tracer, out: &mut Outcome) {
    let reps = closed::SETUP_REPS as usize;
    let (mut map_ms, mut plan_ms) = (Vec::new(), Vec::new());
    let mut bytes = 0usize;
    for _ in 0..reps {
        let t0 = Instant::now();
        let maps: Vec<_> = rig
            .cameras()
            .iter()
            .map(|cam| panorama_camera_map(cam, OW, OH))
            .collect();
        let t1 = Instant::now();
        let sources: Vec<Arc<RemapPlan>> = maps
            .iter()
            .map(|m| Arc::new(RemapPlan::compile(m, opts.clone())))
            .collect();
        let t2 = Instant::now();
        let plan = CompositePlan::from_rig_plans(rig, sources, OW, OH);
        let t3 = Instant::now();
        tr.record("probe.map", NONE, 0, t0, (t1 - t0).as_nanos() as u64);
        tr.record("probe.plan", NONE, 0, t1, (t2 - t1).as_nanos() as u64);
        tr.record("probe.assemble", NONE, 0, t2, (t3 - t2).as_nanos() as u64);
        map_ms.push((t1 - t0).as_secs_f64() * 1e3);
        plan_ms.push((t2 - t1).as_secs_f64() * 1e3);
        bytes = plan.bytes() + plan.sources().iter().map(|p| p.bytes()).sum::<usize>();
    }
    let map = stats::median(&map_ms);
    out.put("map.build_ms", map, "ms", reps);
    out.put(
        "map.ns_per_px",
        map * 1e6 / (rig.len() as f64 * PX),
        "ns",
        reps,
    );
    out.put("plan.compile_ms", stats::median(&plan_ms), "ms", reps);
    out.put("plan.bytes_per_px", bytes as f64 / PX, "B", 0);
}

pub fn run(args: &Args, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut feeds = [
        CameraFeed::new(S, S, args.seed),
        CameraFeed::new(S, S, args.seed ^ 0x9e37_79b9_7f4a_7c15),
    ];
    let srcs = [
        feeds[0].next_frame_in(FrameFormat::Gray8),
        feeds[1].next_frame_in(FrameFormat::Gray8),
    ];
    let mut w = Pano {
        rig: CameraRig::symmetric(S, S, FOV_DEG),
        opts: PlanOptions::for_spec(&EngineSpec::Simd, Interpolator::Bilinear),
        feeds,
        srcs,
        corrector: None,
        out: Frame::new(FrameFormat::Gray8, OW, OH),
        layers: [Image::new(OW, OH), Image::new(OW, OH)],
        setups: 0,
    };
    let mut out = Outcome::new();
    let s = closed::drive(&mut w, args, tr, &mut out)?;
    s.put_end_to_end(&mut out, ["frame_ms_p50", "frame_ms_p99"], 0.99);
    if tr.enabled() {
        let n = tr.durations_ms("bundle").len();
        let composite = stats::median(&tr.durations_ms("composite"));
        let percam = stats::median(&tr.durations_ms("percam_sum"));
        out.put("composite.ratio_to_percam", composite / percam, "ratio", n);
        let c = w.corrector.as_ref().ok_or("not set up")?;
        let plan = &c.plan().class_plans()[0];
        let engine_ms = stats::median(&tr.durations_ms("percam"));
        let bytes = stats::median(
            &plan
                .sources()
                .iter()
                .map(|p| sys::computed_gather_bytes(p))
                .collect::<Vec<_>>(),
        );
        out.put("engine.ns_per_px", engine_ms * 1e6 / PX, "ns", 2 * n);
        out.put(
            "engine.computed_gbps",
            bytes / (engine_ms * 1e6),
            "GB/s",
            2 * n,
        );
        out.put(
            "trace.covered_share",
            tr.covered_share("bundle"),
            "ratio",
            n,
        );
        probe_compile(&w.rig, &w.opts, tr, &mut out);
    }
    Ok(out)
}
