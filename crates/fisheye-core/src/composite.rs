//! Composite plans: N source cameras → one output surface
//! (DESIGN.md §2.9).
//!
//! A panorama stitched from a multi-fisheye rig and a rectified stereo
//! pair are both, at execution time, plain remap workloads: gather
//! source pixels through precompiled coordinates. What distinguishes
//! them from the single-camera path is *which* camera each output
//! pixel reads and how overlap regions mix. [`CompositePlan`] bakes
//! exactly that into a plan artifact, compiled once from rig geometry:
//!
//! * one full [`RemapPlan`] per source camera over the shared output
//!   surface (so each camera's coordinates keep their own span index,
//!   digest, lazy fixed-point LUTs, and the
//!   [`RemapPlan::recompile`] delta seam);
//! * a per-row run-length program of segments — `Exclusive` runs
//!   where one camera wins outright and `Blend` runs in overlap
//!   regions — plus per-pixel per-source blend weights prequantized to
//!   `u8` so the hot loop never renormalizes;
//! * a digest mixing the per-source plan digests with the segment
//!   program, keyed with the same FNV-1a constants as
//!   [`plan_request_digest`](crate::plan::plan_request_digest) so
//!   composites share the serve layer's two-tier cache.
//!
//! [`execute_composite_host`] mirrors
//! [`execute_host`](crate::engine::execute_host): the segment program
//! is the general row program of the one span walker
//! ([`crate::walk`]), so serial, smp, simd and fixed run the same walk
//! as a single plan with their own sampler (reusing the per-source map
//! and corner rows and fixed LUTs), the post stage fused into the
//! traversal.
//! Every backend is bit-exact against
//! [`compose_layers`] applied to per-camera corrections from the
//! matching single-plan backend — the "two-pass" reference the
//! property tests pin. The SIMT backend does not lower composites:
//! its kernel ISA gathers from a single bound source plane, and a
//! multi-source indirect gather op would cost more than the batch
//! interpreter saves, so the spec returns `Unsupported` and serve's
//! degradation ladder keeps composites on host backends.

// Composite execution runs inside serving sessions; a panic here takes
// streams down, so the panicking escape hatches are denied outright.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::f64::consts::{PI, TAU};
use std::fmt;
use std::sync::Arc;

use fisheye_geom::{
    CameraRig, FisheyeLens, Mat3, MountedLens, OutputProjection, RectifiedPair, StereoRig,
};
use par_runtime::ThreadPool;
use pixmap::{Gray8, GrayF32, Image, Pixel};

use crate::engine::{
    active_post, EngineError, EnginePixel, EngineSpec, FrameReport, HostEnv, HostRoute,
};
use crate::frame::{Frame, FrameFormat};
use crate::interp::Interpolator;
use crate::map::{MapEntry, RemapMap};
use crate::plan::{correct_plan, Fnv, PlanOptions, RemapPlan};
use crate::post::{PostPixel, PostPlan, PostStage};
use crate::walk::{NoPost, PostOp, Program, Sampler, Seg, Sources};

// ---------------------------------------------------------------------
// Geometry tracing
// ---------------------------------------------------------------------

/// Sensor dimensions implied by a lens's principal point — the same
/// convention the legacy stitcher used (`cx`/`cy` at the sensor
/// center).
fn sensor_dims(lens: &FisheyeLens) -> (u32, u32) {
    (
        (lens.cx * 2.0).round() as u32,
        (lens.cy * 2.0).round() as u32,
    )
}

/// The full-sphere equirectangular output surface every panorama
/// composite renders: x ↦ azimuth over 2π, y ↦ elevation pole to pole.
fn panorama_projection(width: u32, height: u32) -> OutputProjection {
    OutputProjection::Equirectangular {
        h_span: TAU,
        v_span: PI,
        width,
        height,
    }
}

/// Trace one rig camera's remap map over the shared equirectangular
/// panorama surface: for every output pixel, follow the panorama ray
/// into the camera ([`MountedLens::project_world`]) and record the
/// source coordinate, invalid where the ray leaves the camera's field
/// of view or sensor.
pub fn panorama_camera_map(cam: &MountedLens, width: u32, height: u32) -> RemapMap {
    let rays = panorama_projection(width, height).rays();
    // `project_world` with the world-to-camera rotation hoisted
    let world_to_cam = cam.cam_to_world.transpose();
    let (sw, sh) = sensor_dims(&cam.lens);
    let (fw, fh) = (sw as f64, sh as f64);
    let mut entries = Vec::with_capacity(width as usize * height as usize);
    for y in 0..height {
        for x in 0..width {
            let ray = rays.ray(x as f64 + 0.5, y as f64 + 0.5);
            let e = match cam.lens.project(world_to_cam * ray) {
                Some((sx, sy)) if (0.0..fw).contains(&sx) && (0.0..fh).contains(&sy) => MapEntry {
                    sx: sx as f32,
                    sy: sy as f32,
                },
                _ => MapEntry::INVALID,
            };
            entries.push(e);
        }
    }
    RemapMap::from_entries(width, height, sw, sh, entries)
}

/// Per-camera blend scores over the panorama surface, one plane per
/// rig camera in camera order ([`CameraRig::score`] evaluated at every
/// output pixel's ray). [`CompositePlan::assemble`] normalizes these
/// into the quantized per-pixel weights.
pub fn panorama_scores(rig: &CameraRig, width: u32, height: u32) -> Vec<Vec<f32>> {
    let rays = panorama_projection(width, height).rays();
    let mut scores = vec![vec![0f32; width as usize * height as usize]; rig.len()];
    for y in 0..height {
        for x in 0..width {
            let ray = rays.ray(x as f64 + 0.5, y as f64 + 0.5);
            let idx = y as usize * width as usize + x as usize;
            for (i, plane) in scores.iter_mut().enumerate() {
                plane[idx] = rig.score(i, ray) as f32;
            }
        }
    }
    scores
}

/// Trace one stereo eye's remap map over a rectified surface: every
/// output pixel's epipolar-grid direction ([`RectifiedPair`]) is
/// projected into the eye's fisheye. The two eye maps of a pair are
/// row-aligned by construction.
pub fn rectified_camera_map(pair: &RectifiedPair, eye: &MountedLens) -> RemapMap {
    let (sw, sh) = sensor_dims(&eye.lens);
    let (fw, fh) = (sw as f64, sh as f64);
    let mut entries = Vec::with_capacity(pair.width as usize * pair.height as usize);
    for y in 0..pair.height {
        for x in 0..pair.width {
            let e = match pair.source_pixel(eye, x as f64 + 0.5, y as f64 + 0.5) {
                Some((sx, sy)) if (0.0..fw).contains(&sx) && (0.0..fh).contains(&sy) => MapEntry {
                    sx: sx as f32,
                    sy: sy as f32,
                },
                _ => MapEntry::INVALID,
            };
            entries.push(e);
        }
    }
    RemapMap::from_entries(pair.width, pair.height, sw, sh, entries)
}

// ---------------------------------------------------------------------
// Cache digests
// ---------------------------------------------------------------------

fn mix_lens(h: &mut Fnv, lens: &FisheyeLens) {
    use std::hash::Hash;
    lens.model.hash(h);
    h.mix(lens.focal_px.to_bits());
    h.mix(lens.cx.to_bits());
    h.mix(lens.cy.to_bits());
    h.mix(lens.max_theta.to_bits());
}

fn mix_mat(h: &mut Fnv, m: &Mat3) {
    for row in &m.m {
        for v in row {
            h.mix(v.to_bits());
        }
    }
}

fn mix_opts(h: &mut Fnv, opts: &PlanOptions) {
    h.mix(opts.frac_bits.len() as u64);
    for &b in &opts.frac_bits {
        h.mix(b as u64);
    }
    h.mix(opts.tiles.len() as u64);
    for &(tw, th) in &opts.tiles {
        h.mix(((tw as u64) << 32) | th as u64);
    }
    h.mix(opts.interp as u64);
}

/// Cache key for one camera's panorama source plan — the composite
/// analogue of [`plan_request_digest`](crate::plan::plan_request_digest):
/// intrinsics, rig orientation, output surface, sensor dims and plan
/// options, FNV-1a folded. A view change on one camera changes only
/// that camera's digest, which is what makes per-camera delta
/// recompilation a pure cache workload.
pub fn panorama_camera_digest(
    cam: &MountedLens,
    width: u32,
    height: u32,
    opts: &PlanOptions,
) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.mix(0x7061_6e6f); // "pano"
    mix_lens(&mut h, &cam.lens);
    mix_mat(&mut h, &cam.cam_to_world);
    h.mix(((width as u64) << 32) | height as u64);
    let (sw, sh) = sensor_dims(&cam.lens);
    h.mix(((sw as u64) << 32) | sh as u64);
    mix_opts(&mut h, opts);
    h.0
}

/// Cache key for one stereo eye's rectified plan: the rectified grid
/// (frame, dims, angular ranges), the eye's intrinsics and mount, and
/// the plan options.
pub fn rectified_camera_digest(pair: &RectifiedPair, eye: &MountedLens, opts: &PlanOptions) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.mix(0x7265_6374); // "rect"
    mix_mat(&mut h, &pair.rect_to_world);
    h.mix(((pair.width as u64) << 32) | pair.height as u64);
    h.mix(pair.h_range.to_bits());
    h.mix(pair.v_range.to_bits());
    mix_lens(&mut h, &eye.lens);
    mix_mat(&mut h, &eye.cam_to_world);
    let (sw, sh) = sensor_dims(&eye.lens);
    h.mix(((sw as u64) << 32) | sh as u64);
    mix_opts(&mut h, opts);
    h.0
}

// ---------------------------------------------------------------------
// CompositePlan
// ---------------------------------------------------------------------

/// A compiled N-source composite: per-camera [`RemapPlan`]s over a
/// shared output surface plus the per-row segment program selecting
/// and blending between them. Everything the hot loop needs is baked
/// at compile time; the per-frame cost is gathers plus, in overlap
/// runs, one integer (or float) weighted accumulation.
#[derive(Clone)]
pub struct CompositePlan {
    sources: Vec<Arc<RemapPlan>>,
    segs: Vec<Seg>,
    /// `row_offsets[y] .. row_offsets[y + 1]` indexes `segs`.
    row_offsets: Vec<u32>,
    /// Quantized per-pixel per-source weights of blend runs, `n`
    /// bytes per pixel, summing to 255 at every pixel.
    weights: Vec<u8>,
    width: u32,
    height: u32,
    covered: u64,
    multi_covered: u64,
    blend_pixels: u64,
    digest: u64,
}

impl CompositePlan {
    /// Assemble a composite from per-source plans (each rendering the
    /// full output surface from its own camera) and per-source score
    /// planes ([`panorama_scores`] or any caller-supplied weighting).
    ///
    /// Per pixel: sources that are valid there and score > 0 are
    /// candidates; their scores normalize to weights, quantized to
    /// `u8` by cumulative rounding so they always sum to 255 exactly.
    /// If valid sources exist but all score 0, they share uniformly.
    /// A single surviving candidate (or a quantization that gives one
    /// source the full 255) becomes an `Exclusive` run — for
    /// the symmetric dual-fisheye rig this reproduces the legacy
    /// stitcher's byte weights exactly.
    pub fn assemble(sources: Vec<Arc<RemapPlan>>, scores: &[Vec<f32>]) -> CompositePlan {
        assert!(!sources.is_empty(), "a composite needs at least one source");
        assert!(
            sources.len() <= u16::MAX as usize,
            "composite sources are indexed by u16"
        );
        let (width, height) = (sources[0].width(), sources[0].height());
        for s in &sources {
            assert_eq!(
                (s.width(), s.height()),
                (width, height),
                "every source plan must render the shared output surface"
            );
        }
        assert_eq!(scores.len(), sources.len(), "one score plane per source");
        let pixels = width as usize * height as usize;
        for plane in scores {
            assert_eq!(plane.len(), pixels, "score plane must cover the surface");
        }

        let n = sources.len();
        let w = width as usize;
        let mut segs: Vec<Seg> = Vec::new();
        let mut row_offsets: Vec<u32> = Vec::with_capacity(height as usize + 1);
        let mut weights: Vec<u8> = Vec::new();
        let (mut covered, mut multi_covered, mut blend_pixels) = (0u64, 0u64, 0u64);

        // per-pixel scratch
        let mut wbuf = vec![0f64; n];
        let mut qbuf = vec![0u8; n];
        let mut masks = vec![vec![false; w]; n];

        // pixel classification of the current run
        #[derive(Clone, Copy, PartialEq, Eq)]
        enum Px {
            Gap,
            Excl(u16),
            Blend,
        }

        for y in 0..height {
            row_offsets.push(segs.len() as u32);
            for (mask, src) in masks.iter_mut().zip(&sources) {
                mask.fill(false);
                for sp in src.spans(y) {
                    mask[sp.start as usize..sp.end as usize].fill(true);
                }
            }
            let mut run = Px::Gap;
            let mut run_start = 0u32;
            let mut run_woff = 0u32;
            let flush = |run: Px, start: u32, end: u32, woff: u32, segs: &mut Vec<Seg>| {
                if start == end {
                    return;
                }
                match run {
                    Px::Gap => {}
                    Px::Excl(source) => segs.push(Seg::Exclusive { source, start, end }),
                    Px::Blend => segs.push(Seg::Blend { start, end, woff }),
                }
            };
            for x in 0..width {
                let idx = y as usize * w + x as usize;
                let mut nvalid = 0u32;
                let mut sum = 0f64;
                for i in 0..n {
                    if masks[i][x as usize] {
                        nvalid += 1;
                        wbuf[i] = (scores[i][idx] as f64).max(0.0);
                        sum += wbuf[i];
                    } else {
                        wbuf[i] = 0.0;
                    }
                }
                let px = if nvalid == 0 {
                    Px::Gap
                } else {
                    covered += 1;
                    if nvalid >= 2 {
                        multi_covered += 1;
                    }
                    if sum <= 0.0 {
                        // valid sources that all scored 0 share evenly
                        let uniform = 1.0 / nvalid as f64;
                        for (wv, mask) in wbuf.iter_mut().zip(&masks) {
                            *wv = if mask[x as usize] { uniform } else { 0.0 };
                        }
                    } else {
                        for wv in wbuf.iter_mut() {
                            *wv /= sum;
                        }
                    }
                    // cumulative rounding: weights always sum to 255
                    let mut cum = 0f64;
                    let mut prev = 0u32;
                    let mut winner: Option<u16> = None;
                    for (i, (&wv, q)) in wbuf.iter().zip(qbuf.iter_mut()).enumerate() {
                        cum += wv;
                        let c = ((cum * 255.0).round() as u32).min(255);
                        *q = (c - prev) as u8;
                        if *q == 255 {
                            winner = Some(i as u16);
                        }
                        prev = c;
                    }
                    match winner {
                        Some(source) => Px::Excl(source),
                        None => Px::Blend,
                    }
                };
                if px != run {
                    flush(run, run_start, x, run_woff, &mut segs);
                    run = px;
                    run_start = x;
                    run_woff = weights.len() as u32;
                }
                if px == Px::Blend {
                    blend_pixels += 1;
                    weights.extend_from_slice(&qbuf);
                }
            }
            flush(run, run_start, width, run_woff, &mut segs);
        }
        row_offsets.push(segs.len() as u32);

        // digest: same FNV-1a constants as plan_request_digest, plus a
        // composite discriminator, the per-source plan digests and the
        // full segment/weight program
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        h.mix(0x636f_6d70_6f73_6974); // "composit"
        h.mix(((width as u64) << 32) | height as u64);
        h.mix(n as u64);
        for s in &sources {
            h.mix(s.digest());
            let (sw, sh) = s.src_dims();
            h.mix(((sw as u64) << 32) | sh as u64);
        }
        h.mix(segs.len() as u64);
        for seg in &segs {
            match *seg {
                Seg::Exclusive { source, start, end } => {
                    h.mix(1);
                    h.mix(((source as u64) << 32) | start as u64);
                    h.mix(end as u64);
                }
                Seg::Blend { start, end, woff } => {
                    h.mix(2);
                    h.mix(((start as u64) << 32) | end as u64);
                    h.mix(woff as u64);
                }
            }
        }
        h.mix(weights.len() as u64);
        for chunk in weights.chunks(8) {
            let mut v = [0u8; 8];
            v[..chunk.len()].copy_from_slice(chunk);
            h.mix(u64::from_le_bytes(v));
        }

        CompositePlan {
            sources,
            segs,
            row_offsets,
            weights,
            width,
            height,
            covered,
            multi_covered,
            blend_pixels,
            digest: h.0,
        }
    }

    /// Compile a panorama composite directly from rig geometry: one
    /// traced + compiled [`RemapPlan`] per camera, then
    /// [`CompositePlan::assemble`] with the rig's blend scores. The
    /// cache-aware path resolves the per-camera plans through
    /// [`panorama_camera_digest`] keys and calls
    /// [`CompositePlan::from_rig_plans`] instead.
    pub fn compile_panorama(
        rig: &CameraRig,
        width: u32,
        height: u32,
        opts: &PlanOptions,
    ) -> CompositePlan {
        let sources = rig
            .cameras()
            .iter()
            .map(|cam| {
                Arc::new(RemapPlan::compile(
                    &panorama_camera_map(cam, width, height),
                    opts.clone(),
                ))
            })
            .collect();
        CompositePlan::from_rig_plans(rig, sources, width, height)
    }

    /// Assemble a panorama composite from per-camera plans resolved
    /// elsewhere (a shared plan cache): computes the rig's blend
    /// scores and runs [`CompositePlan::assemble`]. `sources` must be
    /// in rig camera order.
    pub fn from_rig_plans(
        rig: &CameraRig,
        sources: Vec<Arc<RemapPlan>>,
        width: u32,
        height: u32,
    ) -> CompositePlan {
        assert_eq!(sources.len(), rig.len(), "one source plan per rig camera");
        CompositePlan::assemble(sources, &panorama_scores(rig, width, height))
    }

    /// Output width, pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Output height, pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The per-source plans, in camera order.
    pub fn sources(&self) -> &[Arc<RemapPlan>] {
        &self.sources
    }

    /// Output pixels not covered by any source (rendered black).
    pub fn uncovered_pixels(&self) -> u64 {
        self.width as u64 * self.height as u64 - self.covered
    }

    /// Output pixels blending two or more sources.
    pub fn blend_pixels(&self) -> u64 {
        self.blend_pixels
    }

    /// Fraction of output pixels seen by ≥ 2 sources — the legacy
    /// stitcher's `overlap_fraction`.
    pub fn overlap_fraction(&self) -> f64 {
        self.multi_covered as f64 / (self.width as f64 * self.height as f64)
    }

    /// Digest over the per-source plan digests and the full segment /
    /// weight program (same FNV-1a constants as the single-plan
    /// digests) — the composite's identity in a shared plan cache.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Bytes owned by the composite program itself (segments +
    /// weights); the per-source plans report their own
    /// [`RemapPlan::bytes`] and are typically cache-shared.
    pub fn bytes(&self) -> usize {
        self.segs.len() * std::mem::size_of::<Seg>()
            + self.row_offsets.len() * 4
            + self.weights.len()
    }

    /// The quantized per-source weights at output pixel `(x, y)`:
    /// `Some` (length = source count, summing to 255) where the pixel
    /// is covered — exclusive pixels report 255 for their source —
    /// `None` in gaps. Inspection/property-test surface, not the hot
    /// path.
    pub fn weights_at(&self, x: u32, y: u32) -> Option<Vec<u8>> {
        if x >= self.width || y >= self.height {
            return None;
        }
        let n = self.sources.len();
        for seg in self.row_segs(y) {
            match *seg {
                Seg::Exclusive { source, start, end } if (start..end).contains(&x) => {
                    let mut q = vec![0u8; n];
                    q[source as usize] = 255;
                    return Some(q);
                }
                Seg::Blend { start, end, woff } if (start..end).contains(&x) => {
                    let at = woff as usize + (x - start) as usize * n;
                    return Some(self.weights[at..at + n].to_vec());
                }
                _ => {}
            }
        }
        None
    }

    fn row_segs(&self, y: u32) -> &[Seg] {
        let a = self.row_offsets[y as usize] as usize;
        let b = self.row_offsets[y as usize + 1] as usize;
        &self.segs[a..b]
    }
}

impl fmt::Debug for CompositePlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompositePlan")
            .field("sources", &self.sources.len())
            .field("out_dims", &(self.width, self.height))
            .field("segments", &self.segs.len())
            .field("blend_pixels", &self.blend_pixels)
            .field("uncovered_pixels", &self.uncovered_pixels())
            .field("digest", &self.digest)
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------
// StereoPlan
// ---------------------------------------------------------------------

/// The coupled plan pair of a rectified fisheye stereo rig: one
/// [`RemapPlan`] per eye over the shared epipolar-aligned surface
/// ([`StereoRig::rectify`]). Both plans are ordinary cache citizens
/// ([`rectified_camera_digest`]); the pair exists so callers correct
/// both eyes with one object and one digest.
#[derive(Clone)]
pub struct StereoPlan {
    /// The rectified surface both eyes render.
    pub pair: RectifiedPair,
    /// Left-eye plan.
    pub left: Arc<RemapPlan>,
    /// Right-eye plan.
    pub right: Arc<RemapPlan>,
}

impl StereoPlan {
    /// Rectify `rig` onto a `width × height` grid spanning
    /// `h_fov_deg × v_fov_deg` and compile both eye plans.
    pub fn compile(
        rig: &StereoRig,
        width: u32,
        height: u32,
        h_fov_deg: f64,
        v_fov_deg: f64,
        opts: &PlanOptions,
    ) -> StereoPlan {
        let pair = rig.rectify(width, height, h_fov_deg, v_fov_deg);
        let left = Arc::new(RemapPlan::compile(
            &rectified_camera_map(&pair, &rig.left),
            opts.clone(),
        ));
        let right = Arc::new(RemapPlan::compile(
            &rectified_camera_map(&pair, &rig.right),
            opts.clone(),
        ));
        StereoPlan { pair, left, right }
    }

    /// Digest over both eye plans (pair identity in a shared cache).
    pub fn digest(&self) -> u64 {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        h.mix(0x7374_6572_656f); // "stereo"
        h.mix(self.left.digest());
        h.mix(self.right.digest());
        h.0
    }
}

impl fmt::Debug for StereoPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StereoPlan")
            .field("out_dims", &(self.pair.width, self.pair.height))
            .field("left", &self.left.digest())
            .field("right", &self.right.digest())
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------
// CompositePixel: blend arithmetic + the walker's row program
// ---------------------------------------------------------------------

/// Pixel types the composite executor can blend. The accumulator and
/// finish rule define the overlap arithmetic each element type uses —
/// integer `(Σ vᵢ·qᵢ + 127) / 255` for `u8` planes (the legacy
/// stitcher's exact rounding), float `Σ vᵢ·(qᵢ/255)` for `f32`. Which
/// sampler produces the `vᵢ` is the backend's business, not the
/// pixel type's: every host backend runs the composite through the
/// same span walker as a single plan.
pub trait CompositePixel: EnginePixel + PostPixel {
    /// Weighted-blend accumulator.
    type Acc: Copy;

    /// The zero accumulator.
    fn acc_zero() -> Self::Acc;

    /// Accumulate one source sample with quantized weight `q`.
    fn acc_add(acc: &mut Self::Acc, v: Self, q: u8);

    /// Finish the accumulator into an output pixel. With a single
    /// `q = 255` contribution this is exact (identity), so exclusive
    /// runs and blend runs share one arithmetic definition.
    fn acc_finish(acc: Self::Acc) -> Self;
}

impl CompositePixel for Gray8 {
    type Acc = u32;

    fn acc_zero() -> u32 {
        0
    }

    fn acc_add(acc: &mut u32, v: Gray8, q: u8) {
        *acc += v.0 as u32 * q as u32;
    }

    fn acc_finish(acc: u32) -> Gray8 {
        Gray8(((acc + 127) / 255) as u8)
    }
}

impl CompositePixel for GrayF32 {
    type Acc = f32;

    fn acc_zero() -> f32 {
        0.0
    }

    fn acc_add(acc: &mut f32, v: GrayF32, q: u8) {
        *acc += v.0 * (q as f32 / 255.0);
    }

    fn acc_finish(acc: f32) -> GrayF32 {
        GrayF32(acc)
    }
}

/// Blend-run pixels gathered per pass over the sources: small enough
/// for the taps and accumulators to stay on the stack.
const BLEND_CHUNK: usize = 64;

/// The composite's segment program is the general row program of the
/// span walker: exclusive runs sample one source, blend runs mix every
/// source with a nonzero quantized weight (a nonzero weight implies
/// the source is valid at that pixel).
impl<P: CompositePixel> Program<P> for CompositePlan {
    #[inline]
    fn runs(&self, y: u32) -> impl Iterator<Item = Seg> + '_ {
        self.row_segs(y).iter().copied()
    }

    /// Source by source over chunks of the run, each chunk gathered by
    /// the sampler's span kernel. A source may be invalid where its
    /// weight is 0; sampling it there is harmless (an invalid entry
    /// samples a clamped border texel) and the tap is never used.
    /// Every pixel sums its sources in source order, exactly as
    /// [`compose_layers`] does.
    fn blend_run<S: Sampler<P>, Q: PostOp<P>>(
        &self,
        sampler: &S,
        post: &Q,
        (start, y): (usize, u32),
        woff: usize,
        out: &mut [P],
    ) {
        let n = self.sources.len();
        let mut taps = [P::BLACK; BLEND_CHUNK];
        for (c, chunk) in out.chunks_mut(BLEND_CHUNK).enumerate() {
            let first = start + c * BLEND_CHUNK;
            let weights = &self.weights[woff + c * BLEND_CHUNK * n..][..chunk.len() * n];
            let taps = &mut taps[..chunk.len()];
            let mut acc = [P::acc_zero(); BLEND_CHUNK];
            for source in 0..n {
                sampler.span(source, y, first, taps, &NoPost);
                for ((a, w), &v) in acc.iter_mut().zip(weights.chunks_exact(n)).zip(&*taps) {
                    if w[source] > 0 {
                        P::acc_add(a, v, w[source]);
                    }
                }
            }
            for (i, (o, a)) in chunk.iter_mut().zip(acc).enumerate() {
                *o = post.apply(P::acc_finish(a), first + i, y);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Two-pass reference
// ---------------------------------------------------------------------

/// The blend half of the two-pass reference: given per-camera
/// corrected layers (each rendering the full output surface), apply
/// the composite's segment program and quantized weights per pixel.
/// [`execute_composite_host`] must match `compose_layers` over layers
/// produced by the matching per-camera backend, byte for byte.
pub fn compose_layers<P: CompositePixel>(plan: &CompositePlan, layers: &[&Image<P>]) -> Image<P> {
    assert_eq!(layers.len(), plan.sources.len(), "one layer per source");
    for l in layers {
        assert_eq!(
            l.dims(),
            (plan.width, plan.height),
            "layer dimensions must match the composite surface"
        );
    }
    let n = layers.len();
    let mut out = Image::new(plan.width, plan.height);
    for y in 0..plan.height {
        let out_row = out.row_mut(y);
        let mut cursor = 0usize;
        for seg in plan.row_segs(y) {
            match *seg {
                Seg::Exclusive { source, start, end } => {
                    out_row[cursor..start as usize].fill(P::BLACK);
                    let r = start as usize..end as usize;
                    for (off, o) in out_row[r.clone()].iter_mut().enumerate() {
                        *o = layers[source as usize].pixel((r.start + off) as u32, y);
                    }
                    cursor = r.end;
                }
                Seg::Blend { start, end, woff } => {
                    out_row[cursor..start as usize].fill(P::BLACK);
                    let r = start as usize..end as usize;
                    let mut wo = woff as usize;
                    for (off, o) in out_row[r.clone()].iter_mut().enumerate() {
                        let x = (r.start + off) as u32;
                        let mut acc = P::acc_zero();
                        for (i, &q) in plan.weights[wo..wo + n].iter().enumerate() {
                            if q > 0 {
                                P::acc_add(&mut acc, layers[i].pixel(x, y), q);
                            }
                        }
                        *o = P::acc_finish(acc);
                        wo += n;
                    }
                    cursor = r.end;
                }
            }
        }
        out_row[cursor..].fill(P::BLACK);
    }
    out
}

/// The full two-pass reference: correct every camera independently
/// through [`correct_plan`] (the serial float/byte sampler), then
/// blend with [`compose_layers`].
pub fn compose_two_pass<P: CompositePixel>(
    srcs: &[&Image<P>],
    plan: &CompositePlan,
    interp: Interpolator,
) -> Image<P> {
    assert_eq!(srcs.len(), plan.sources.len(), "one frame per source");
    let layers: Vec<Image<P>> = plan
        .sources
        .iter()
        .zip(srcs)
        .map(|(sp, s)| correct_plan(s, sp, interp))
        .collect();
    let refs: Vec<&Image<P>> = layers.iter().collect();
    compose_layers(plan, &refs)
}

// ---------------------------------------------------------------------
// Engine execution
// ---------------------------------------------------------------------

fn check_composite_dims<P: Pixel>(
    name: &str,
    srcs: &[&Image<P>],
    plan: &CompositePlan,
    out: &Image<P>,
) -> Result<(), EngineError> {
    if out.dims() != (plan.width, plan.height) {
        return Err(EngineError::backend(
            name,
            format!(
                "output {:?} does not match composite {:?}",
                out.dims(),
                (plan.width, plan.height)
            ),
        ));
    }
    if srcs.len() != plan.sources.len() {
        return Err(EngineError::backend(
            name,
            format!(
                "composite has {} sources, got {} source frames",
                plan.sources.len(),
                srcs.len()
            ),
        ));
    }
    for (i, (s, sp)) in srcs.iter().zip(&plan.sources).enumerate() {
        if s.dims() != sp.src_dims() {
            return Err(EngineError::backend(
                name,
                format!(
                    "source frame {i} is {:?}, its plan reads {:?}",
                    s.dims(),
                    sp.src_dims()
                ),
            ));
        }
    }
    Ok(())
}

/// Execute a composite on a host backend — the multi-source analogue
/// of [`execute_host`](crate::engine::execute_host), sharing its spec
/// resolution, report conventions and span walker: serial, smp, simd
/// and fixed walk the segment program with their sampler (the
/// per-source map and corner rows, or the per-source fixed LUTs) and
/// fuse the post stage into the traversal (`fused=1`). `direct` and the
/// accelerator specs (cell/gpu/simt) are `Unsupported`: in particular
/// the SIMT kernel ISA has no multi-source gather operand, so
/// composites stay on host backends.
pub fn execute_composite_host<P: CompositePixel>(
    spec: &EngineSpec,
    interp: Interpolator,
    srcs: &[&Image<P>],
    plan: &CompositePlan,
    post: Option<&PostPlan>,
    env: &HostEnv<'_>,
    out: &mut Image<P>,
) -> Result<FrameReport, EngineError> {
    if let EngineSpec::Simt { .. } = spec {
        return Err(EngineError::unsupported(
            spec.name(),
            "the SIMT kernel ISA gathers from a single bound source plane; \
             composites need a per-pixel multi-source gather and run on host backends",
        ));
    }
    let route = HostRoute::resolve::<P>(spec, interp, env)?;
    check_composite_dims(route.name(), srcs, plan, out)?;
    let post = active_post::<P>(route.name(), post)?;
    let sources = Sources {
        frames: srcs,
        plans: &plan.sources,
    };
    let mut report = route.run(plan, sources, post, out);
    report.rows = plan.height as u64;
    report.invalid_pixels = plan.uncovered_pixels();
    report.kv("sources", plan.sources.len() as f64);
    report.kv("blend_pixels", plan.blend_pixels as f64);
    Ok(report)
}

// ---------------------------------------------------------------------
// Frame-level composites (multi-plane formats)
// ---------------------------------------------------------------------

/// The multi-source analogue of [`crate::ViewPlan`]: one compiled
/// [`CompositePlan`] per distinct plane class of a [`FrameFormat`], so
/// multi-plane frames (yuv420 panoramas, RGB panoramas) composite
/// plane by plane. Chroma-class plans are traced from the
/// class-scaled rig ([`CameraRig::scaled`]) at class-scaled output
/// dimensions — the same convention [`crate::PlaneRequest`] applies to
/// single-camera plans.
#[derive(Clone, Debug)]
pub struct CompositeViewPlan {
    format: FrameFormat,
    /// One plan per entry of [`FrameFormat::classes`], in order.
    plans: Vec<CompositePlan>,
    width: u32,
    height: u32,
}

impl CompositeViewPlan {
    /// Compile the panorama composite of every plane class of
    /// `format` at full resolution `width × height`.
    pub fn compile_panorama(
        rig: &CameraRig,
        format: FrameFormat,
        width: u32,
        height: u32,
        opts: &PlanOptions,
    ) -> CompositeViewPlan {
        let plans = format
            .classes()
            .iter()
            .map(|&class| {
                let (pw, ph) = class.apply((width, height));
                let class_rig = if class.scale() == 1.0 {
                    rig.clone()
                } else {
                    rig.scaled(class.scale())
                };
                CompositePlan::compile_panorama(&class_rig, pw, ph, opts)
            })
            .collect();
        CompositeViewPlan {
            format,
            plans,
            width,
            height,
        }
    }

    /// Assemble from per-class plans compiled elsewhere (a shared plan
    /// cache); `plans` must follow [`FrameFormat::classes`] order and
    /// carry class-scaled output dimensions.
    pub fn from_plans(
        format: FrameFormat,
        plans: Vec<CompositePlan>,
        width: u32,
        height: u32,
    ) -> Result<CompositeViewPlan, String> {
        let classes = format.classes();
        if plans.len() != classes.len() {
            return Err(format!(
                "format {format} needs {} class plans, got {}",
                classes.len(),
                plans.len()
            ));
        }
        for (class, plan) in classes.iter().zip(&plans) {
            let want = class.apply((width, height));
            if (plan.width(), plan.height()) != want {
                return Err(format!(
                    "{} plan is {:?}, class dimensions are {want:?}",
                    class.name(),
                    (plan.width(), plan.height()),
                ));
            }
        }
        Ok(CompositeViewPlan {
            format,
            plans,
            width,
            height,
        })
    }

    /// The frame format this plan composites.
    pub fn format(&self) -> FrameFormat {
        self.format
    }

    /// Full-resolution output dimensions.
    pub fn out_dims(&self) -> (u32, u32) {
        (self.width, self.height)
    }

    /// The plan of one distinct class (same order as
    /// [`FrameFormat::classes`]).
    pub fn class_plans(&self) -> &[CompositePlan] {
        &self.plans
    }

    /// Output dimensions of every plane, in plane order — the pool
    /// sizing surface, mirroring [`crate::ViewPlan::plane_dims`].
    pub fn plane_dims(&self) -> Vec<(u32, u32)> {
        (0..self.format.planes())
            .map(|p| {
                let plan = self.plane_plan(p);
                (plan.width(), plan.height())
            })
            .collect()
    }

    /// The plan plane `p` composites through.
    pub fn plane_plan(&self, p: usize) -> &CompositePlan {
        let class = self.format.plane_classes()[p];
        let at = self
            .format
            .classes()
            .iter()
            .position(|&c| c == class)
            .unwrap_or(0);
        &self.plans[at]
    }

    /// Digest over the format and every class plan.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        h.mix(0x6672_616d_6563_6f6d); // "framecom"
        h.mix(self.format as u64);
        h.mix(((self.width as u64) << 32) | self.height as u64);
        for p in &self.plans {
            h.mix(p.digest());
        }
        h.0
    }

    /// Bytes across the class plans' own programs (not the shared
    /// per-source plans).
    pub fn bytes(&self) -> usize {
        self.plans.iter().map(CompositePlan::bytes).sum()
    }
}

/// Executes a [`CompositeViewPlan`] over multi-source [`Frame`]s: one
/// frame per rig camera in, one composited frame out, every plane
/// through [`execute_composite_host`] on the configured backend. The
/// frame-level analogue of [`crate::FrameCorrector`] for composite
/// workloads.
pub struct CompositeFrameCorrector {
    spec: EngineSpec,
    interp: Interpolator,
    plan: CompositeViewPlan,
    pool: Option<ThreadPool>,
    /// Compiled post plan per plane (None = no post stage).
    post: Vec<Option<PostPlan>>,
}

impl CompositeFrameCorrector {
    /// Build a corrector on a host backend. `threads` sizes the pool
    /// the smp spec requires (ignored by the others).
    pub fn host(
        spec: EngineSpec,
        interp: Interpolator,
        plan: CompositeViewPlan,
        threads: usize,
    ) -> Result<CompositeFrameCorrector, EngineError> {
        if !spec.is_host() {
            return Err(EngineError::unsupported(
                spec.name(),
                "composite frames run on host backends",
            ));
        }
        let pool = match spec {
            EngineSpec::Smp { .. } => Some(ThreadPool::new(threads.max(1))),
            _ => None,
        };
        let planes = plan.format.planes();
        Ok(CompositeFrameCorrector {
            spec,
            interp,
            plan,
            pool,
            post: vec![None; planes],
        })
    }

    /// Attach a post stage, compiled per plane channel (chroma planes
    /// get the curve-exempt compilation, exactly as the single-camera
    /// frame corrector does).
    pub fn set_post(&mut self, stage: &PostStage) {
        self.post = self
            .plan
            .format
            .plane_channels()
            .iter()
            .map(|&ch| Some(stage.compile(ch)))
            .collect();
    }

    /// The plan this corrector executes.
    pub fn plan(&self) -> &CompositeViewPlan {
        &self.plan
    }

    /// Composite one output frame from `srcs` (one frame per rig
    /// camera, every one in the plan's format at its camera's sensor
    /// dimensions).
    pub fn correct_frames(&self, srcs: &[&Frame]) -> Result<(Frame, FrameReport), EngineError> {
        let name = self.spec.name();
        let format = self.plan.format;
        for (i, f) in srcs.iter().enumerate() {
            if f.format() != format {
                return Err(EngineError::backend(
                    &name,
                    format!("source frame {i} is {}, plan is {format}", f.format()),
                ));
            }
        }
        let env = HostEnv {
            pool: self.pool.as_ref(),
            ..HostEnv::default()
        };
        let mut out = Frame::new(format, self.plan.width, self.plan.height);
        let mut merged = FrameReport::new(&name);
        let labels = format.plane_labels();
        if format.has_u8_planes() {
            let plane_sets: Vec<Vec<&Image<Gray8>>> = srcs
                .iter()
                .map(|f| {
                    f.u8_planes()
                        .ok_or_else(|| EngineError::backend(&name, "u8 format without u8 planes"))
                })
                .collect::<Result<_, _>>()?;
            let mut out_planes = match out.u8_planes_mut() {
                Some(p) => p,
                None => return Err(EngineError::backend(&name, "u8 format without u8 planes")),
            };
            for (p, out_plane) in out_planes.iter_mut().enumerate() {
                let plane_srcs: Vec<&Image<Gray8>> = plane_sets.iter().map(|set| set[p]).collect();
                let report = execute_composite_host(
                    &self.spec,
                    self.interp,
                    &plane_srcs,
                    self.plan.plane_plan(p),
                    self.post[p].as_ref(),
                    &env,
                    out_plane,
                )?;
                merge_plane_report(&mut merged, labels[p], &report);
            }
        } else {
            let plane_srcs: Vec<&Image<GrayF32>> = srcs
                .iter()
                .map(|f| match f {
                    Frame::GrayF32(img) => Ok(img),
                    _ => Err(EngineError::backend(&name, "float format mismatch")),
                })
                .collect::<Result<_, _>>()?;
            let out_img = match &mut out {
                Frame::GrayF32(img) => img,
                _ => return Err(EngineError::backend(&name, "float format mismatch")),
            };
            let report = execute_composite_host(
                &self.spec,
                self.interp,
                &plane_srcs,
                self.plan.plane_plan(0),
                self.post[0].as_ref(),
                &env,
                out_img,
            )?;
            merge_plane_report(&mut merged, labels[0], &report);
        }
        merged.kv("planes", format.planes() as f64);
        merged.kv("sources", srcs.len() as f64);
        Ok((out, merged))
    }
}

/// Fold one plane's report into the frame-level report: times and row
/// counts sum, per-plane statistics keep their identity under a
/// `label.` prefix — the same convention the single-camera frame
/// corrector's merged reports use.
fn merge_plane_report(merged: &mut FrameReport, label: &str, report: &FrameReport) {
    merged.rows += report.rows;
    merged.invalid_pixels += report.invalid_pixels;
    merged.correct_time += report.correct_time;
    for (k, v) in &report.model {
        merged.kv(&format!("{label}.{k}"), *v);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::synth::{capture_fisheye, World};
    use par_runtime::{Schedule, ThreadPool};
    use pixmap::metrics::psnr;
    use pixmap::scene::{RadialGradient, Scene, SinusoidField};

    /// The legacy back-camera capture trick: the back fisheye sees the
    /// spherical scene shifted by half a turn in azimuth.
    struct Rotated<'a>(&'a dyn Scene);

    impl Scene for Rotated<'_> {
        fn sample(&self, u: f64, v: f64) -> f32 {
            self.0.sample((u + 0.5).rem_euclid(1.0), v)
        }
    }

    fn rig_and_captures(scene: &dyn Scene, fov: f64) -> (CameraRig, Image<Gray8>, Image<Gray8>) {
        let rig = CameraRig::symmetric(256, 256, fov);
        let lens = rig.cameras()[0].lens;
        let front = capture_fisheye(scene, World::Spherical, &lens, 256, 256, 2);
        let back = capture_fisheye(&Rotated(scene), World::Spherical, &lens, 256, 256, 2);
        (rig, front, back)
    }

    fn pano(rig: &CameraRig, w: u32, h: u32) -> CompositePlan {
        CompositePlan::compile_panorama(rig, w, h, &PlanOptions::default())
    }

    #[test]
    fn full_sphere_is_covered() {
        let rig = CameraRig::symmetric(256, 256, 190.0);
        let plan = pano(&rig, 128, 64);
        assert_eq!(plan.uncovered_pixels(), 0, "holes in the panorama");
        let f = plan.overlap_fraction();
        assert!((0.01..0.2).contains(&f), "overlap fraction {f}");
    }

    #[test]
    fn stitched_panorama_matches_scene() {
        let scene = SinusoidField { max_freq: 25.0 };
        let (rig, front, back) = rig_and_captures(&scene, 190.0);
        let plan = pano(&rig, 128, 64);
        let mut out = Image::new(128, 64);
        execute_composite_host(
            &EngineSpec::Serial,
            Interpolator::Bilinear,
            &[&front, &back],
            &plan,
            None,
            &HostEnv::default(),
            &mut out,
        )
        .expect("serial composite");
        let ideal = Image::from_fn(128, 64, |x, y| {
            Gray8::from(GrayF32(
                scene.sample((x as f64 + 0.5) / 128.0, (y as f64 + 0.5) / 64.0),
            ))
        });
        let p = psnr(&ideal, &out);
        assert!(p > 22.0, "panorama PSNR {p}");
    }

    #[test]
    fn seam_is_smooth() {
        let (rig, front, back) = rig_and_captures(&RadialGradient, 195.0);
        let plan = pano(&rig, 160, 80);
        let mut out = Image::new(160, 80);
        execute_composite_host(
            &EngineSpec::Serial,
            Interpolator::Bilinear,
            &[&front, &back],
            &plan,
            None,
            &HostEnv::default(),
            &mut out,
        )
        .expect("serial composite");
        // the front/back seam runs along two vertical lines; crossing
        // them must not jump
        for x in [40u32, 120u32] {
            for y in 10..70u32 {
                let a = out.pixel(x, y).0 as i32;
                let b = out.pixel(x, y - 1).0 as i32;
                assert!((a - b).abs() < 28, "seam jump at ({x},{y}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn blend_weights_respect_exclusive_zones() {
        let rig = CameraRig::symmetric(256, 256, 190.0);
        let plan = pano(&rig, 128, 64);
        // equator, panorama center: straight into the front camera
        assert_eq!(plan.weights_at(64, 32), Some(vec![255, 0]));
        // equator, panorama edge: straight into the back camera
        assert_eq!(plan.weights_at(0, 32), Some(vec![0, 255]));
    }

    #[test]
    fn blend_weights_partition_to_unity() {
        let rig = CameraRig::symmetric(256, 256, 200.0);
        let plan = pano(&rig, 128, 64);
        assert!(plan.blend_pixels() > 0, "200° rig must have a blend band");
        for y in 0..64 {
            for x in 0..128 {
                if let Some(q) = plan.weights_at(x, y) {
                    let sum: u32 = q.iter().map(|&v| v as u32).sum();
                    assert_eq!(sum, 255, "weights at ({x},{y}) sum to {sum}");
                }
            }
        }
    }

    #[test]
    fn frame_sizes_checked() {
        let rig = CameraRig::symmetric(256, 256, 190.0);
        let plan = pano(&rig, 64, 32);
        let small = Image::<Gray8>::new(64, 64);
        let ok = Image::<Gray8>::new(256, 256);
        let mut out = Image::new(64, 32);
        let err = execute_composite_host(
            &EngineSpec::Serial,
            Interpolator::Bilinear,
            &[&small, &ok],
            &plan,
            None,
            &HostEnv::default(),
            &mut out,
        );
        assert!(err.is_err(), "mismatched source frame must be rejected");
        let err = execute_composite_host(
            &EngineSpec::Serial,
            Interpolator::Bilinear,
            &[&ok],
            &plan,
            None,
            &HostEnv::default(),
            &mut out,
        );
        assert!(err.is_err(), "missing source frame must be rejected");
    }

    #[test]
    fn single_source_composite_is_plain_remap() {
        // a 1-camera rig degenerates to the camera's own RemapPlan
        let rig = CameraRig::new(vec![MountedLens::with_rotation(
            FisheyeLens::equidistant_fov(128, 128, 180.0),
            Mat3::IDENTITY,
        )]);
        let plan = pano(&rig, 96, 48);
        let src = pixmap::scene::random_gray(128, 128, 9);
        let mut out = Image::new(96, 48);
        execute_composite_host(
            &EngineSpec::Serial,
            Interpolator::Bilinear,
            &[&src],
            &plan,
            None,
            &HostEnv::default(),
            &mut out,
        )
        .expect("serial composite");
        let direct = correct_plan(&src, &plan.sources()[0], Interpolator::Bilinear);
        assert_eq!(out, direct);
    }

    #[test]
    fn serial_and_smp_match_two_pass_reference() {
        let (rig, front, back) = rig_and_captures(&RadialGradient, 195.0);
        let plan = pano(&rig, 96, 48);
        let srcs = [&front, &back];
        let reference = compose_two_pass(&srcs, &plan, Interpolator::Bilinear);
        let pool = ThreadPool::new(3);
        for spec in [
            EngineSpec::Serial,
            EngineSpec::Smp {
                schedule: Schedule::Static { chunk: None },
            },
        ] {
            let mut out = Image::new(96, 48);
            let env = HostEnv {
                pool: Some(&pool),
                ..HostEnv::default()
            };
            let report = execute_composite_host(
                &spec,
                Interpolator::Bilinear,
                &srcs,
                &plan,
                None,
                &env,
                &mut out,
            )
            .expect("composite");
            assert_eq!(out, reference, "{} diverges from two-pass", spec.name());
            assert_eq!(report.model.get("sources"), Some(&2.0));
        }
    }

    #[test]
    fn simd_matches_its_per_camera_two_pass() {
        let (rig, front, back) = rig_and_captures(&RadialGradient, 195.0);
        let plan = pano(&rig, 96, 48);
        let srcs = [&front, &back];
        let layers: Vec<Image<Gray8>> = plan
            .sources()
            .iter()
            .zip(srcs)
            .map(|(sp, s)| {
                let mut l = Image::new(96, 48);
                crate::engine::execute_host(
                    &EngineSpec::Simd,
                    Interpolator::Bilinear,
                    s,
                    sp,
                    None,
                    &HostEnv::default(),
                    &mut l,
                )
                .expect("per-camera simd");
                l
            })
            .collect();
        let refs: Vec<&Image<Gray8>> = layers.iter().collect();
        let reference = compose_layers(&plan, &refs);
        let mut out = Image::new(96, 48);
        execute_composite_host(
            &EngineSpec::Simd,
            Interpolator::Bilinear,
            &srcs,
            &plan,
            None,
            &HostEnv::default(),
            &mut out,
        )
        .expect("simd composite");
        assert_eq!(out, reference);
    }

    #[test]
    fn fixed_matches_its_per_camera_two_pass() {
        let (rig, front, back) = rig_and_captures(&RadialGradient, 195.0);
        let opts = PlanOptions {
            frac_bits: vec![10],
            ..PlanOptions::default()
        };
        let plan = CompositePlan::compile_panorama(&rig, 96, 48, &opts);
        let srcs = [&front, &back];
        let layers: Vec<Image<Gray8>> = plan
            .sources()
            .iter()
            .zip(srcs)
            .map(|(sp, s)| {
                let lut = sp.fixed(10).expect("eager LUT");
                let mut l = Image::new(96, 48);
                crate::correct_fixed_into(s, lut, &mut l);
                l
            })
            .collect();
        let refs: Vec<&Image<Gray8>> = layers.iter().collect();
        let reference = compose_layers(&plan, &refs);
        let mut out = Image::new(96, 48);
        let report = execute_composite_host(
            &EngineSpec::FixedPoint { frac_bits: 10 },
            Interpolator::Bilinear,
            &srcs,
            &plan,
            None,
            &HostEnv::default(),
            &mut out,
        )
        .expect("fixed composite");
        assert_eq!(out, reference);
        assert_eq!(report.model.get("frac_bits"), Some(&10.0));
    }

    #[test]
    fn simt_is_unsupported_for_composites() {
        let rig = CameraRig::symmetric(64, 64, 190.0);
        let plan = pano(&rig, 32, 16);
        let a = Image::<Gray8>::new(64, 64);
        let b = Image::<Gray8>::new(64, 64);
        let mut out = Image::new(32, 16);
        let err = execute_composite_host(
            &EngineSpec::Simt { workgroup: 64 },
            Interpolator::Bilinear,
            &[&a, &b],
            &plan,
            None,
            &HostEnv::default(),
            &mut out,
        );
        assert!(matches!(err, Err(EngineError::Unsupported { .. })));
    }

    #[test]
    fn composite_digest_tracks_geometry_and_weights() {
        let rig = CameraRig::symmetric(128, 128, 190.0);
        let a = pano(&rig, 64, 32);
        let b = pano(&rig, 64, 32);
        assert_eq!(a.digest(), b.digest(), "same geometry, same digest");
        let wider = CameraRig::symmetric(128, 128, 200.0);
        assert_ne!(a.digest(), pano(&wider, 64, 32).digest());
        assert_ne!(a.digest(), pano(&rig, 64, 34).digest());
        // per-camera cache keys: moving one camera changes only its key
        let opts = PlanOptions::default();
        let moved = rig.with_camera_rotation(1, Mat3::rot_y(1.0));
        let k0: Vec<u64> = rig
            .cameras()
            .iter()
            .map(|c| panorama_camera_digest(c, 64, 32, &opts))
            .collect();
        let k1: Vec<u64> = moved
            .cameras()
            .iter()
            .map(|c| panorama_camera_digest(c, 64, 32, &opts))
            .collect();
        assert_eq!(k0[0], k1[0], "unmoved camera keeps its cache key");
        assert_ne!(k0[1], k1[1], "moved camera gets a new cache key");
    }

    #[test]
    fn stereo_plan_compiles_row_aligned_eyes() {
        let lens = FisheyeLens::equidistant_fov(256, 256, 180.0);
        let rig = StereoRig::side_by_side(lens, 0.1);
        let sp = StereoPlan::compile(&rig, 96, 72, 80.0, 60.0, &PlanOptions::default());
        assert_eq!((sp.left.width(), sp.left.height()), (96, 72));
        assert_eq!((sp.right.width(), sp.right.height()), (96, 72));
        // a pure-translation rig rectifies both eyes through the same
        // map (rays are directions): one cached plan serves both eyes
        assert_eq!(sp.left.digest(), sp.right.digest());
        assert_eq!(
            rectified_camera_digest(&sp.pair, &rig.left, &PlanOptions::default()),
            rectified_camera_digest(&sp.pair, &rig.right, &PlanOptions::default()),
        );
        // a verged (rotated) eye gets its own cache identity
        let mut verged = rig.clone();
        verged.right.cam_to_world = Mat3::rot_y(0.05);
        assert_ne!(
            rectified_camera_digest(&sp.pair, &verged.right, &PlanOptions::default()),
            rectified_camera_digest(&sp.pair, &rig.right, &PlanOptions::default()),
        );
        // the central region must be visible to both eyes
        assert!(sp.left.invalid_pixels() < (96 * 72) / 2);
        assert!(sp.right.invalid_pixels() < (96 * 72) / 2);
    }

    #[test]
    fn yuv420_panorama_composites_every_plane() {
        use crate::synth::capture_fisheye_yuv;
        struct UField;
        impl Scene for UField {
            fn sample(&self, u: f64, _v: f64) -> f32 {
                u as f32
            }
        }
        struct VField;
        impl Scene for VField {
            fn sample(&self, _u: f64, v: f64) -> f32 {
                v as f32
            }
        }
        let rig = CameraRig::symmetric(128, 128, 195.0);
        let lens = rig.cameras()[0].lens;
        let (luma, cb, cr) = (RadialGradient, VField, UField);
        let front = capture_fisheye_yuv(&luma, &cb, &cr, World::Spherical, &lens, 128, 128, 2);
        let back = capture_fisheye_yuv(
            &Rotated(&luma),
            &Rotated(&cb),
            &Rotated(&cr),
            World::Spherical,
            &lens,
            128,
            128,
            2,
        );
        let plan = CompositeViewPlan::compile_panorama(
            &rig,
            FrameFormat::Yuv420,
            96,
            48,
            &PlanOptions::default(),
        );
        // chroma plans live at half resolution with zero holes too
        assert_eq!(plan.class_plans().len(), 2);
        assert_eq!(
            (
                plan.class_plans()[1].width(),
                plan.class_plans()[1].height()
            ),
            (48, 24)
        );
        assert_eq!(plan.class_plans()[1].uncovered_pixels(), 0);
        let corr = CompositeFrameCorrector::host(
            EngineSpec::Serial,
            Interpolator::Bilinear,
            plan.clone(),
            1,
        )
        .expect("corrector");
        let (out, report) = corr
            .correct_frames(&[&Frame::Yuv420(front.clone()), &Frame::Yuv420(back.clone())])
            .expect("yuv composite");
        assert_eq!(out.format(), FrameFormat::Yuv420);
        assert_eq!(out.dims(), (96, 48));
        assert_eq!(report.model.get("planes"), Some(&3.0));
        // each plane must match the plane-wise serial composite
        let (front_f, back_f) = (Frame::Yuv420(front), Frame::Yuv420(back));
        let (front_p, back_p) = (front_f.u8_planes().unwrap(), back_f.u8_planes().unwrap());
        let out_planes = out.u8_planes().unwrap();
        for p in 0..3 {
            let pp = plan.plane_plan(p);
            let mut want = Image::new(pp.width(), pp.height());
            execute_composite_host(
                &EngineSpec::Serial,
                Interpolator::Bilinear,
                &[front_p[p], back_p[p]],
                pp,
                None,
                &HostEnv::default(),
                &mut want,
            )
            .expect("plane composite");
            assert_eq!(*out_planes[p], want, "plane {p}");
        }
    }

    #[test]
    fn fused_post_matches_two_pass_post() {
        use crate::post::{PostChannel, PostStage, ToneMap};
        let (rig, front, back) = rig_and_captures(&RadialGradient, 195.0);
        let plan = pano(&rig, 96, 48);
        let srcs = [&front, &back];
        let stage = PostStage::identity().with_tone_map(ToneMap::McFace);
        let pp = stage.compile(PostChannel::Luma);
        let pool = ThreadPool::new(2);
        let env = HostEnv {
            pool: Some(&pool),
            ..HostEnv::default()
        };
        for spec in [
            EngineSpec::Serial,
            EngineSpec::Smp {
                schedule: Schedule::Static { chunk: None },
            },
            EngineSpec::Simd,
            EngineSpec::FixedPoint { frac_bits: 12 },
        ] {
            let mut fused = Image::new(96, 48);
            let report = execute_composite_host(
                &spec,
                Interpolator::Bilinear,
                &srcs,
                &plan,
                Some(&pp),
                &env,
                &mut fused,
            )
            .expect("fused composite");
            assert_eq!(report.model.get("fused"), Some(&1.0), "{}", spec.name());
            // reference: composite without post, then the row-wise post
            let mut plain = Image::new(96, 48);
            execute_composite_host(
                &spec,
                Interpolator::Bilinear,
                &srcs,
                &plan,
                None,
                &env,
                &mut plain,
            )
            .expect("plain composite");
            for y in 0..48u32 {
                let row = plain.row_mut(y);
                <Gray8 as PostPixel>::post_row(row, y, &pp);
            }
            assert_eq!(fused, plain, "{}", spec.name());
        }
    }
}
