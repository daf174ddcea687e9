//! The correction-engine layer: one interface over every execution
//! path.
//!
//! The paper's central move is running *one* undistortion kernel on
//! several platforms (serial host, SMP, Cell SPEs, GPU) and comparing
//! them. This module gives the repo the same shape: an [`EngineSpec`]
//! names an execution path, a [`CorrectionEngine`] runs frames through
//! it, and every run returns a [`FrameReport`] — a uniform
//! observability payload (phase timing, rows/tiles processed, invalid
//! pixels, and backend-specific model statistics folded into one
//! key/value section) that `PipelineStats`, the videopipe latency
//! accounting and the bench CSV emission all consume.
//!
//! Host paths (`serial`, `smp`, `direct`, `fixed`, `simd`) are
//! implemented here, as one boxed host engine over one dispatcher
//! ([`execute_host`]): every plan-walking host spec runs the same span
//! walker ([`crate::walk`]) and differs only in its span sampler
//! (float over the plan's map and corner rows, or fixed-point LUT),
//! with the post stage fused into the walk. The accelerator models
//! (`cell` in `cellsim`, `gpu` in `gpusim`) implement
//! [`CorrectionEngine`] in their own crates, and the `fisheye` facade
//! crate's `engine` module resolves *any* spec to a boxed engine.
//! Adding the next backend means
//! implementing the trait in one file and registering its spec — no
//! consumer changes.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::fmt;
use std::time::{Duration, Instant};

use fisheye_geom::{FisheyeLens, PerspectiveView};
use par_runtime::{Schedule, ThreadPool};
use pixmap::{Gray8, GrayF32, Image, Pixel};

use crate::interp::{sample_bilinear_fixed_gray8, Interpolator};
use crate::map::FixedMapEntry;
use crate::plan::RemapPlan;
use crate::post::{PostPixel, PostPlan};
use crate::walk::{
    walk_frame, walk_scalar, Fixed, Lut, NoPost, PostOp, Program, Sources, TablePost,
};

/// Default fractional weight bits for the quantized (fixed-point)
/// paths — the accuracy knee of experiment F7.
pub const DEFAULT_FRAC_BITS: u32 = 12;
/// Default Cell tile size (the F4 sweet spot for the default config).
pub const DEFAULT_TILE: (u32, u32) = (32, 16);
/// Default GPU threads per block.
pub const DEFAULT_GPU_BLOCK: usize = 256;
/// Default SIMT interpreter workgroup size (threads per workgroup;
/// 32-lane warps, so 256 threads = a 32x8 output tile — the same
/// geometry `gpusim` models with its default block).
pub const DEFAULT_SIMT_WG: usize = 256;

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Why an engine could not be built or could not run a frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The (spec, pixel type, context) combination has no
    /// implementation — e.g. the integer datapath on float pixels, or
    /// an accelerator spec handed to the host-only builder.
    Unsupported {
        /// Canonical backend name.
        backend: String,
        /// What is missing.
        reason: String,
    },
    /// The backend exists but failed on this frame (dimension
    /// mismatch, local-store overflow, …).
    Backend {
        /// Canonical backend name.
        backend: String,
        /// Failure description.
        message: String,
    },
}

impl EngineError {
    /// Convenience constructor for [`EngineError::Unsupported`].
    pub fn unsupported(backend: impl Into<String>, reason: impl Into<String>) -> Self {
        EngineError::Unsupported {
            backend: backend.into(),
            reason: reason.into(),
        }
    }

    /// Convenience constructor for [`EngineError::Backend`].
    pub fn backend(backend: impl Into<String>, message: impl Into<String>) -> Self {
        EngineError::Backend {
            backend: backend.into(),
            message: message.into(),
        }
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Unsupported { backend, reason } => {
                write!(f, "backend '{backend}' unsupported here: {reason}")
            }
            EngineError::Backend { backend, message } => {
                write!(f, "backend '{backend}' failed: {message}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

// ---------------------------------------------------------------------
// FrameReport
// ---------------------------------------------------------------------

/// Per-frame execution report — the one observability type every
/// consumer reads.
///
/// The fixed fields cover what every backend can report; anything
/// platform-specific (DMA bytes, cache hit rates, modeled cycles)
/// goes into the uniform [`FrameReport::model`] key/value section so
/// downstream code (stats accumulation, CSV emission) never needs a
/// per-backend type.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FrameReport {
    /// Canonical spec name of the engine that produced the frame.
    pub backend: String,
    /// Wall-clock time of the correction phase on this machine (for
    /// modeled platforms this is the functional simulation time; the
    /// modeled frame time is in `model["frame_cycles"]`).
    pub correct_time: Duration,
    /// Output rows processed.
    pub rows: u64,
    /// Tiles/blocks processed (0 for row-oriented paths).
    pub tiles: u64,
    /// Output pixels with no valid source mapping (rendered black).
    pub invalid_pixels: u64,
    /// Backend-specific statistics, flattened to `name -> value`.
    pub model: BTreeMap<String, f64>,
}

impl FrameReport {
    /// Empty report for a backend.
    pub fn new(backend: impl Into<String>) -> Self {
        FrameReport {
            backend: backend.into(),
            ..Default::default()
        }
    }

    /// Insert a model statistic.
    pub fn kv(&mut self, key: &str, value: f64) {
        self.model.insert(key.to_string(), value);
    }

    /// The model section as sorted `key=value` strings (CSV/report
    /// emission).
    pub fn model_pairs(&self) -> Vec<String> {
        self.model
            .iter()
            .map(|(k, v)| format!("{k}={v:.6}"))
            .collect()
    }
}

// ---------------------------------------------------------------------
// EngineSpec: naming + parsing + registry
// ---------------------------------------------------------------------

/// Numeric class of a backend: what serial reference its output must
/// be bit-exact with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NumericClass {
    /// Float arithmetic — reference is [`crate::correct()`](fn@crate::correct) with the
    /// same interpolator.
    Float,
    /// Integer datapath through a quantized LUT — reference is
    /// [`crate::correct_fixed`] with the same weight width.
    Fixed {
        /// Fractional weight bits of the quantized LUT.
        frac_bits: u32,
    },
}

/// A named execution path. `spec.name()` and [`EngineSpec::parse`]
/// round-trip, and [`EngineSpec::registry`] lists one canonical spec
/// per backend — the same names `fisheye-cli --backend` accepts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EngineSpec {
    /// Single-threaded host reference (`serial`).
    Serial,
    /// Multicore host path over a thread pool (`smp`,
    /// `smp:dynamic:2`, …).
    Smp {
        /// Row-distribution policy.
        schedule: Schedule,
    },
    /// LUT-free per-pixel recomputation (`direct`, the F9 comparison
    /// mode). Needs lens + view geometry.
    Direct,
    /// Integer-only host path through a quantized LUT (`fixed`,
    /// `fixed:10`).
    FixedPoint {
        /// Fractional weight bits.
        frac_bits: u32,
    },
    /// The plan's corner bilinear sampler (`simd`) on the single
    /// channel types. Bilinear only.
    Simd,
    /// Cell/B.E. tiled local-store model (`cell`, `cell:64x32`,
    /// `cell:32x16:single`, `cell:q10`). Implemented in `cellsim`.
    Cell {
        /// Tile width in output pixels.
        tile_w: u32,
        /// Tile height in output pixels.
        tile_h: u32,
        /// Overlap DMA with compute.
        double_buffer: bool,
        /// Fractional weight bits of the SPE integer kernel.
        frac_bits: u32,
    },
    /// SIMT GPU model (`gpu`, `gpu:512`). Implemented in `gpusim`.
    Gpu {
        /// Threads per block.
        block_threads: usize,
    },
    /// SIMT batch interpreter executing the codegen layer's
    /// WGSL-shaped kernel in-process (`simt`, `simt:64`). Implemented
    /// in `fisheye-codegen`; unlike `gpu` it produces real output
    /// while counting warp divergence and line coalescing.
    Simt {
        /// Threads per workgroup (32-lane warps; the workgroup maps
        /// to a `32 x workgroup/32` output tile).
        workgroup: usize,
    },
}

/// What an execution path can and cannot do — the one source of truth
/// consumers (videopipe, fisheye-serve, the CLI) query instead of
/// hard-coding per-backend rejection lists. Returned by
/// [`EngineSpec::capabilities`]; every registry spec's answers are
/// pinned by a registry-loop test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Capabilities {
    /// The spec declares post fusion: its correction traversal fuses
    /// a compiled post stage (`fused=1`) and its lowered kernel
    /// carries a post op (the codegen IR keys on this flag). Engines
    /// without it fall back to the two-pass [`post_pass`] — except on
    /// the host, where the span walker fuses post for every
    /// plan-walking spec: `simd` and `fixed` report `fused=1` while
    /// keeping `false` here, so their emitted kernels stay post-free.
    pub fused_post: bool,
    /// The engine needs the plan compiled with a quantized LUT of
    /// this width (`PlanOptions::frac_bits`); running without one
    /// still works but requantizes per plan (`plan_miss=1`).
    pub requires_lut: Option<u32>,
    /// The engine wants the plan compiled with this tile geometry
    /// (`PlanOptions::tiles`); absent tiles are derived lazily.
    pub requires_tiles: Option<(u32, u32)>,
    /// Distinct frames may be corrected concurrently through one
    /// engine instance without oversubscription — false for engines
    /// that own a thread pool (`smp`) or model one device (`cell`,
    /// `gpu`).
    pub supports_frame_concurrency: bool,
    /// The spec is built and run by this module's host builder;
    /// false means the facade crate resolves it (accelerator models
    /// and the SIMT interpreter).
    pub host_executable: bool,
    /// The engine consumes a compiled [`RemapPlan`] (everything but
    /// `direct`, which recomputes the projection per pixel).
    pub uses_plan: bool,
    /// The engine implements exactly one interpolator; requesting any
    /// other is a build error (`simd` is bilinear only).
    pub interp_locked: Option<Interpolator>,
}

impl EngineSpec {
    /// Canonical name. Default parameters are omitted so the registry
    /// names stay short (`cell`, not `cell:32x16:double:q12`).
    pub fn name(&self) -> String {
        match *self {
            EngineSpec::Serial => "serial".into(),
            EngineSpec::Smp { schedule } => match schedule {
                Schedule::Static { chunk: None } => "smp".into(),
                Schedule::Static { chunk: Some(c) } => format!("smp:static:{c}"),
                Schedule::Dynamic { chunk } => format!("smp:dynamic:{chunk}"),
                Schedule::Guided { min_chunk } => format!("smp:guided:{min_chunk}"),
            },
            EngineSpec::Direct => "direct".into(),
            EngineSpec::FixedPoint { frac_bits } => {
                if frac_bits == DEFAULT_FRAC_BITS {
                    "fixed".into()
                } else {
                    format!("fixed:{frac_bits}")
                }
            }
            EngineSpec::Simd => "simd".into(),
            EngineSpec::Cell {
                tile_w,
                tile_h,
                double_buffer,
                frac_bits,
            } => {
                let mut s = "cell".to_string();
                if (tile_w, tile_h) != DEFAULT_TILE {
                    s.push_str(&format!(":{tile_w}x{tile_h}"));
                }
                if !double_buffer {
                    s.push_str(":single");
                }
                if frac_bits != DEFAULT_FRAC_BITS {
                    s.push_str(&format!(":q{frac_bits}"));
                }
                s
            }
            EngineSpec::Gpu { block_threads } => {
                if block_threads == DEFAULT_GPU_BLOCK {
                    "gpu".into()
                } else {
                    format!("gpu:{block_threads}")
                }
            }
            EngineSpec::Simt { workgroup } => {
                if workgroup == DEFAULT_SIMT_WG {
                    "simt".into()
                } else {
                    format!("simt:{workgroup}")
                }
            }
        }
    }

    /// One canonical spec per backend, in report order. Every entry
    /// here is exercised by `tests/platform_consistency.rs` and
    /// selectable via `fisheye-cli --backend <name>`.
    pub fn registry() -> Vec<EngineSpec> {
        vec![
            EngineSpec::Serial,
            EngineSpec::Smp {
                schedule: Schedule::default_static(),
            },
            EngineSpec::Direct,
            EngineSpec::FixedPoint {
                frac_bits: DEFAULT_FRAC_BITS,
            },
            EngineSpec::Simd,
            EngineSpec::Cell {
                tile_w: DEFAULT_TILE.0,
                tile_h: DEFAULT_TILE.1,
                double_buffer: true,
                frac_bits: DEFAULT_FRAC_BITS,
            },
            EngineSpec::Gpu {
                block_threads: DEFAULT_GPU_BLOCK,
            },
            EngineSpec::Simt {
                workgroup: DEFAULT_SIMT_WG,
            },
        ]
    }

    /// Parse a spec name. Accepts everything [`EngineSpec::name`]
    /// emits plus parameterized forms:
    /// `smp[:static[:C]|:dynamic[:C]|:guided[:M]]`, `fixed[:BITS]`,
    /// `cell[:WxH][:single|:double][:qBITS]`, `gpu[:THREADS]`,
    /// `simt[:THREADS]`.
    pub fn parse(s: &str) -> Result<EngineSpec, String> {
        let mut parts = s.split(':');
        let head = parts.next().unwrap_or("");
        let rest: Vec<&str> = parts.collect();
        let no_params = |rest: &[&str], name: &str| -> Result<(), String> {
            if rest.is_empty() {
                Ok(())
            } else {
                Err(format!("backend '{name}' takes no parameters"))
            }
        };
        match head {
            "serial" => {
                no_params(&rest, "serial")?;
                Ok(EngineSpec::Serial)
            }
            "direct" => {
                no_params(&rest, "direct")?;
                Ok(EngineSpec::Direct)
            }
            "simd" => {
                no_params(&rest, "simd")?;
                Ok(EngineSpec::Simd)
            }
            "smp" => {
                let schedule = match rest.as_slice() {
                    [] | ["static"] => Schedule::Static { chunk: None },
                    ["static", c] => Schedule::Static {
                        chunk: Some(parse_num(c, "static chunk")?),
                    },
                    ["dynamic"] => Schedule::Dynamic { chunk: 1 },
                    ["dynamic", c] => Schedule::Dynamic {
                        chunk: parse_num(c, "dynamic chunk")?,
                    },
                    ["guided"] => Schedule::Guided { min_chunk: 1 },
                    ["guided", m] => Schedule::Guided {
                        min_chunk: parse_num(m, "guided min chunk")?,
                    },
                    _ => return Err(format!("bad smp schedule in '{s}'")),
                };
                Ok(EngineSpec::Smp { schedule })
            }
            "fixed" => {
                let frac_bits = match rest.as_slice() {
                    [] => DEFAULT_FRAC_BITS,
                    [b] => parse_num(b, "fixed frac bits")?,
                    _ => return Err(format!("bad fixed spec '{s}'")),
                };
                if !(1..=15).contains(&frac_bits) {
                    return Err(format!("fixed frac bits must be 1..=15, got {frac_bits}"));
                }
                Ok(EngineSpec::FixedPoint { frac_bits })
            }
            "cell" => {
                let (mut tile_w, mut tile_h) = DEFAULT_TILE;
                let mut double_buffer = true;
                let mut frac_bits = DEFAULT_FRAC_BITS;
                for tok in rest {
                    if tok == "single" {
                        double_buffer = false;
                    } else if tok == "double" {
                        double_buffer = true;
                    } else if let Some(b) = tok.strip_prefix('q') {
                        frac_bits = parse_num(b, "cell frac bits")?;
                    } else if let Some((w, h)) = tok.split_once('x') {
                        tile_w = parse_num(w, "cell tile width")?;
                        tile_h = parse_num(h, "cell tile height")?;
                        if tile_w == 0 || tile_h == 0 {
                            return Err("cell tile dimensions must be positive".into());
                        }
                    } else {
                        return Err(format!("bad cell parameter '{tok}' in '{s}'"));
                    }
                }
                if !(1..=15).contains(&frac_bits) {
                    return Err(format!("cell frac bits must be 1..=15, got {frac_bits}"));
                }
                Ok(EngineSpec::Cell {
                    tile_w,
                    tile_h,
                    double_buffer,
                    frac_bits,
                })
            }
            "gpu" => {
                let block_threads = match rest.as_slice() {
                    [] => DEFAULT_GPU_BLOCK,
                    [t] => parse_num(t, "gpu block threads")?,
                    _ => return Err(format!("bad gpu spec '{s}'")),
                };
                if block_threads == 0 || block_threads % 32 != 0 {
                    return Err(format!(
                        "gpu block threads must be a positive multiple of 32, got {block_threads}"
                    ));
                }
                Ok(EngineSpec::Gpu { block_threads })
            }
            "simt" => {
                let workgroup = match rest.as_slice() {
                    [] => DEFAULT_SIMT_WG,
                    [t] => parse_num(t, "simt workgroup")?,
                    _ => return Err(format!("bad simt spec '{s}'")),
                };
                if workgroup == 0 || workgroup % 32 != 0 {
                    return Err(format!(
                        "simt workgroup must be a positive multiple of 32, got {workgroup}"
                    ));
                }
                Ok(EngineSpec::Simt { workgroup })
            }
            other => {
                let names: Vec<String> = EngineSpec::registry().iter().map(|s| s.name()).collect();
                Err(format!(
                    "unknown backend '{other}' (registered: {})",
                    names.join(" ")
                ))
            }
        }
    }

    /// Which serial reference this backend's output must match
    /// bit-exactly.
    pub fn numeric_class(&self) -> NumericClass {
        match *self {
            EngineSpec::FixedPoint { frac_bits } | EngineSpec::Cell { frac_bits, .. } => {
                NumericClass::Fixed { frac_bits }
            }
            _ => NumericClass::Float,
        }
    }

    /// True when this spec is one of the host paths this module can
    /// execute itself (the accelerator models live in `cellsim` /
    /// `gpusim`, the SIMT interpreter in `fisheye-codegen`).
    pub fn is_host(&self) -> bool {
        !matches!(
            self,
            EngineSpec::Cell { .. } | EngineSpec::Gpu { .. } | EngineSpec::Simt { .. }
        )
    }

    /// What this execution path can do — the one answer consumers
    /// query instead of maintaining their own per-backend rejection
    /// lists. See [`Capabilities`] for field semantics.
    pub fn capabilities(&self) -> Capabilities {
        // the conservative baseline: a plan-consuming engine with no
        // fused post, no artifact requirements and no concurrency or
        // host guarantees — each arm widens what it actually supports
        let base = Capabilities {
            fused_post: false,
            requires_lut: None,
            requires_tiles: None,
            supports_frame_concurrency: false,
            host_executable: true,
            uses_plan: true,
            interp_locked: None,
        };
        match *self {
            EngineSpec::Serial => Capabilities {
                fused_post: true,
                supports_frame_concurrency: true,
                ..base
            },
            // smp owns its thread pool: concurrent frames through one
            // instance oversubscribe the machine
            EngineSpec::Smp { .. } => Capabilities {
                fused_post: true,
                ..base
            },
            EngineSpec::Direct => Capabilities {
                uses_plan: false,
                supports_frame_concurrency: true,
                ..base
            },
            EngineSpec::FixedPoint { frac_bits } => Capabilities {
                requires_lut: Some(frac_bits),
                supports_frame_concurrency: true,
                ..base
            },
            EngineSpec::Simd => Capabilities {
                interp_locked: Some(Interpolator::Bilinear),
                supports_frame_concurrency: true,
                ..base
            },
            EngineSpec::Cell {
                tile_w,
                tile_h,
                frac_bits,
                ..
            } => Capabilities {
                requires_lut: Some(frac_bits),
                requires_tiles: Some((tile_w, tile_h)),
                host_executable: false,
                ..base
            },
            EngineSpec::Gpu { .. } => Capabilities {
                host_executable: false,
                ..base
            },
            EngineSpec::Simt { workgroup } => Capabilities {
                fused_post: true,
                requires_tiles: Some(simt_tile(workgroup)),
                supports_frame_concurrency: true,
                host_executable: false,
                ..base
            },
        }
    }
}

/// Output tile geometry of a `simt` workgroup: one 32-lane warp per
/// tile row, `workgroup / 32` rows.
pub fn simt_tile(workgroup: usize) -> (u32, u32) {
    (32, (workgroup / 32).max(1) as u32)
}

/// `Display` prints [`EngineSpec::name`], so `format!("{spec}")` and
/// `spec.parse()` round-trip losslessly: for every spec the registry
/// can produce, `s.to_string().parse() == Ok(s)`.
impl fmt::Display for EngineSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// `FromStr` delegates to [`EngineSpec::parse`]; the error is the
/// same human-readable message.
impl std::str::FromStr for EngineSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<EngineSpec, String> {
        EngineSpec::parse(s)
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("{what}: cannot parse '{s}'"))
}

// ---------------------------------------------------------------------
// The engine trait and pixel-capability plumbing
// ---------------------------------------------------------------------

/// One execution path, prepared and ready to correct frames.
///
/// Implementations must be bit-exact with the serial reference of
/// their [`NumericClass`]: the engine layer may route any consumer's
/// frames through any backend, so "simulate" and "compute" must be
/// indistinguishable functionally.
///
/// Engines are stateless with respect to the map: everything derived
/// from it (quantized LUTs, tile plans, span indices) lives in the
/// caller's compiled [`RemapPlan`]. An engine handed a plan missing an
/// artifact it needs derives it on the fly and sets `plan_miss=1` in
/// the report's model section — functional, but the caller is leaving
/// per-frame work on the table.
pub trait CorrectionEngine<P: EnginePixel>: Send + Sync {
    /// Canonical spec name ([`EngineSpec::name`]).
    fn name(&self) -> String;

    /// Correct `src` through the compiled `plan` into `out`
    /// (dimensions must match the plan) and report what happened.
    fn correct_frame(
        &self,
        src: &Image<P>,
        plan: &RemapPlan,
        out: &mut Image<P>,
    ) -> Result<FrameReport, EngineError>;

    /// [`CorrectionEngine::correct_frame`] with an optional compiled
    /// post stage. The default runs the correction and then a second
    /// pass of [`EnginePixel::post_row`] over the output (reported as
    /// `post_ms` with `fused=0`) — correct for every backend,
    /// including the accelerator models that cannot fuse; the host
    /// engine overrides this to fuse post into the span walk
    /// (`fused=1`, post cost inside `correct_time`). Both paths are
    /// bit-exact with each other by construction.
    fn correct_frame_post(
        &self,
        src: &Image<P>,
        plan: &RemapPlan,
        post: Option<&PostPlan>,
        out: &mut Image<P>,
    ) -> Result<FrameReport, EngineError> {
        let mut report = self.correct_frame(src, plan, out)?;
        post_pass::<P>(&self.name(), post, out, &mut report)?;
        Ok(report)
    }
}

/// Reject an active post stage on a pixel type with no post
/// datapath; strip inert stages so engines skip them entirely.
pub(crate) fn active_post<'a, P: EnginePixel>(
    name: &str,
    post: Option<&'a PostPlan>,
) -> Result<Option<&'a PostPlan>, EngineError> {
    match post.filter(|p| !p.is_noop()) {
        Some(_) if !P::HAS_POST => Err(EngineError::unsupported(
            name,
            "no post-stage datapath for this pixel type",
        )),
        other => Ok(other),
    }
}

/// The two-pass post application: a full extra traversal of `out`,
/// measured into `post_ms` with `fused=0`. This is the golden
/// reference the fused path must match byte for byte, and the only
/// path available to engines that cannot fuse.
pub fn post_pass<P: EnginePixel>(
    name: &str,
    post: Option<&PostPlan>,
    out: &mut Image<P>,
    report: &mut FrameReport,
) -> Result<(), EngineError> {
    let Some(pp) = active_post::<P>(name, post)? else {
        return Ok(());
    };
    let w = (out.dims().0 as usize).max(1);
    let t0 = Instant::now();
    for (y, row) in out.pixels_mut().chunks_mut(w).enumerate() {
        P::post_row(row, y as u32, pp);
    }
    report.kv("post_ms", t0.elapsed().as_secs_f64() * 1e3);
    report.kv("fused", 0.0);
    Ok(())
}

/// Pixel types the engine layer can route: the scalar samplers work
/// for every [`Pixel`], while the integer, `simd` and post datapaths
/// exist only for specific types. The capability flags let builders
/// reject unsupported (spec, pixel) pairs up front; the per-pixel hooks
/// below only ever run behind them.
pub trait EnginePixel: Pixel {
    /// An integer (quantized-LUT) datapath exists for this type.
    const HAS_FIXED: bool = false;
    /// The `simd` backend is offered for this type.
    const HAS_SIMD: bool = false;
    /// The post-correction color stage exists for this type.
    const HAS_POST: bool = false;

    /// Integer bilinear sample through one quantized LUT entry
    /// (bit-exact with [`crate::correct_fixed`]). Called only behind
    /// [`EnginePixel::HAS_FIXED`]; the default is black.
    fn sample_fixed(_src: &Image<Self>, _e: &FixedMapEntry, _frac_bits: u32) -> Self {
        Self::BLACK
    }

    /// Apply the post stage to one pixel at output `(x, y)` — what the
    /// span walker fuses into its traversal. Called only behind
    /// [`EnginePixel::HAS_POST`]; the default is the identity.
    fn post_pixel(self, _post: &PostPlan, _x: u32, _y: u32) -> Self {
        self
    }

    /// [`EnginePixel::post_pixel`] for a plan without dither, which
    /// makes the result independent of the pixel's position. Called
    /// only behind [`EnginePixel::HAS_POST`] and `post.dither()` being
    /// `None`; the default defers to `post_pixel`.
    fn post_table(self, post: &PostPlan) -> Self {
        self.post_pixel(post, 0, 0)
    }

    /// Apply the post stage over an already-corrected row (the
    /// two-pass reference, [`post_pass`]). No-op by default, guarded
    /// like [`EnginePixel::post_pixel`].
    fn post_row(_row: &mut [Self], _y: u32, _post: &PostPlan) {}
}

impl EnginePixel for Gray8 {
    const HAS_FIXED: bool = true;
    const HAS_SIMD: bool = true;
    const HAS_POST: bool = true;

    #[inline(always)]
    fn sample_fixed(src: &Image<Self>, e: &FixedMapEntry, frac_bits: u32) -> Self {
        sample_bilinear_fixed_gray8(src, e.x0, e.y0, e.wx, e.wy, frac_bits)
    }

    #[inline(always)]
    fn post_pixel(self, post: &PostPlan, x: u32, y: u32) -> Self {
        PostPixel::post(self, post, x, y)
    }

    #[inline(always)]
    fn post_table(self, post: &PostPlan) -> Self {
        Gray8(post.table_u8()[self.0 as usize])
    }

    fn post_row(row: &mut [Self], y: u32, post: &PostPlan) {
        <Gray8 as PostPixel>::post_row(row, y, post);
    }
}

impl EnginePixel for GrayF32 {
    const HAS_SIMD: bool = true;
    const HAS_POST: bool = true;

    #[inline(always)]
    fn post_pixel(self, post: &PostPlan, x: u32, y: u32) -> Self {
        PostPixel::post(self, post, x, y)
    }

    fn post_row(row: &mut [Self], y: u32, post: &PostPlan) {
        <GrayF32 as PostPixel>::post_row(row, y, post);
    }
}

impl EnginePixel for pixmap::Gray16 {}
impl EnginePixel for pixmap::Rgb8 {}
impl EnginePixel for pixmap::RgbF32 {}

// ---------------------------------------------------------------------
// Host execution
// ---------------------------------------------------------------------

/// Shared resources a host execution may borrow from its caller. The
/// boxed host engine owns its resources; callers that already hold
/// a pool / geometry (e.g. `CorrectionPipeline`) pass them here
/// instead so nothing is rebuilt per frame. Map-derived state
/// (quantized LUTs, span indices) comes from the compiled
/// [`RemapPlan`], never from here.
#[derive(Clone, Copy, Default)]
pub struct HostEnv<'a> {
    /// Thread pool for `smp` (required by that spec).
    pub pool: Option<&'a ThreadPool>,
    /// Lens + view for `direct` (required by that spec).
    pub geometry: Option<(&'a FisheyeLens, &'a PerspectiveView)>,
}

fn check_frame_dims<P: Pixel>(
    name: &str,
    src: &Image<P>,
    plan: &RemapPlan,
    out: &Image<P>,
) -> Result<(), EngineError> {
    if out.dims() != (plan.width(), plan.height()) {
        return Err(EngineError::backend(
            name,
            format!(
                "output {:?} does not match plan {:?}",
                out.dims(),
                (plan.width(), plan.height())
            ),
        ));
    }
    if src.dims() != plan.src_dims() {
        return Err(EngineError::backend(
            name,
            format!(
                "source {:?} does not match plan source {:?}",
                src.dims(),
                plan.src_dims()
            ),
        ));
    }
    Ok(())
}

/// The span sampler a host spec runs its row program with.
#[derive(Clone, Copy)]
enum HostSampler {
    /// `serial`/`smp`/`simd`: the interpolator's float kernel.
    Scalar(Interpolator),
    /// `fixed`: integer bilinear through quantized LUTs of this width.
    Fixed(u32),
}

/// A host spec resolved for one pixel type: its span sampler and, for
/// `smp`, the pool its rows are distributed over. The single-plan and
/// composite executors share it, so both run exactly the same
/// datapath checks and the same walk.
pub(crate) struct HostRoute<'e> {
    name: String,
    sampler: HostSampler,
    pool: Option<(&'e ThreadPool, Schedule)>,
}

impl<'e> HostRoute<'e> {
    /// Resolve `spec` for pixel type `P`: the `simd` and integer
    /// datapaths exist only where `P` has them, `simd` is bilinear
    /// only, and `smp` needs a pool. `direct` (no plan to walk) and
    /// the accelerator models resolve to [`EngineError::Unsupported`].
    pub(crate) fn resolve<P: EnginePixel>(
        spec: &EngineSpec,
        interp: Interpolator,
        env: &HostEnv<'e>,
    ) -> Result<HostRoute<'e>, EngineError> {
        let name = spec.name();
        let unsupported = |reason: String| Err(EngineError::unsupported(&name, reason));
        let (sampler, pool) = match *spec {
            EngineSpec::Serial => (HostSampler::Scalar(interp), None),
            EngineSpec::Smp { schedule } => match env.pool {
                Some(pool) => (HostSampler::Scalar(interp), Some((pool, schedule))),
                None => return unsupported("smp needs a thread pool (HostEnv::pool)".into()),
            },
            EngineSpec::Simd if !P::HAS_SIMD => {
                return unsupported("simd is offered for single-channel types only".into())
            }
            EngineSpec::Simd if interp != Interpolator::Bilinear => {
                return unsupported(format!(
                    "simd implements bilinear only, not {}",
                    interp.name()
                ))
            }
            EngineSpec::Simd => (HostSampler::Scalar(Interpolator::Bilinear), None),
            EngineSpec::FixedPoint { .. } if !P::HAS_FIXED => {
                return unsupported("no integer datapath for this pixel type".into())
            }
            EngineSpec::FixedPoint { frac_bits } => (HostSampler::Fixed(frac_bits), None),
            EngineSpec::Direct => {
                return unsupported("direct recomputes the projection and walks no plan".into())
            }
            EngineSpec::Cell { .. } | EngineSpec::Gpu { .. } | EngineSpec::Simt { .. } => {
                return unsupported(
                    "accelerator model — build it via the facade crate's engine module".into(),
                )
            }
        };
        Ok(HostRoute {
            name,
            sampler,
            pool,
        })
    }

    /// Canonical name of the resolved spec.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Walk `program` over `sources` into `out` with this route's
    /// sampler, `post` fused into the traversal. The report carries
    /// the backend's timing and statistics; the caller adds what its
    /// program knows (rows, invalid pixels).
    pub(crate) fn run<P, G, R>(
        &self,
        program: &G,
        sources: Sources<'_, P, R>,
        post: Option<&PostPlan>,
        out: &mut Image<P>,
    ) -> FrameReport
    where
        P: EnginePixel,
        G: Program<P>,
        R: Borrow<RemapPlan> + Sync,
    {
        let mut report = FrameReport::new(&self.name);
        // per-source LUTs: the compiled width when present, otherwise
        // derived once through the plan's memo (a cache-shared source
        // plan derives it once for every consumer)
        let mut luts = Vec::new();
        if let HostSampler::Fixed(frac_bits) = self.sampler {
            let (mut misses, mut derive_ms) = (0u32, 0f64);
            for plan in sources.plans {
                let (lut, miss) = plan.borrow().lut(frac_bits);
                if let Some(ms) = miss {
                    misses += 1;
                    derive_ms += ms;
                }
                luts.push(lut);
            }
            if misses > 0 {
                report.kv("plan_miss", misses as f64);
                report.kv("plan_derive_ms", derive_ms);
            }
            report.kv("frac_bits", frac_bits as f64);
        }
        let t0 = Instant::now();
        // what the post stage does is resolved here, once per frame
        match post {
            None => self.walk(program, sources, &luts, &NoPost, out),
            Some(pp) if pp.dither().is_none() => {
                self.walk(program, sources, &luts, &TablePost(pp), out)
            }
            Some(pp) => self.walk(program, sources, &luts, pp, out),
        }
        report.correct_time = t0.elapsed();
        if post.is_some() {
            report.kv("fused", 1.0);
        }
        if let Some((pool, _)) = self.pool {
            report.kv("threads", pool.threads() as f64);
        }
        report
    }

    /// The walk itself, monomorphized per sampler and post operation.
    fn walk<P, G, R, Q>(
        &self,
        program: &G,
        sources: Sources<'_, P, R>,
        luts: &[Lut<'_>],
        post: &Q,
        out: &mut Image<P>,
    ) where
        P: EnginePixel,
        G: Program<P>,
        R: Borrow<RemapPlan> + Sync,
        Q: PostOp<P>,
    {
        match self.sampler {
            HostSampler::Scalar(interp) => {
                walk_scalar(program, sources, interp, post, self.pool, out)
            }
            HostSampler::Fixed(frac_bits) => {
                let sampler = Fixed {
                    frames: sources.frames,
                    luts,
                    frac_bits,
                };
                walk_frame(program, &sampler, post, self.pool, out)
            }
        }
    }
}

/// Execute a host spec over a compiled plan, with an optional compiled
/// post stage. This is the single dispatch point the boxed host
/// engine, `CorrectionPipeline` and videopipe all share. `serial`,
/// `smp`, `simd` and `fixed` walk the plan's valid spans through the
/// one span walker ([`crate::walk`]) with their sampler, fusing the
/// post stage into the traversal (`fused=1`, cost inside
/// `correct_time`); `fixed` reads the plan's prequantized LUT,
/// requantizing (and reporting `plan_miss=1`) only when the plan was
/// compiled without the requested width. `direct` walks no plan: it
/// recomputes the projection per pixel and grades with the two-pass
/// [`post_pass`] (`fused=0`). All paths are bit-exact with each other.
pub fn execute_host<P: EnginePixel>(
    spec: &EngineSpec,
    interp: Interpolator,
    src: &Image<P>,
    plan: &RemapPlan,
    post: Option<&PostPlan>,
    env: &HostEnv,
    out: &mut Image<P>,
) -> Result<FrameReport, EngineError> {
    if *spec == EngineSpec::Direct {
        let name = spec.name();
        check_frame_dims(&name, src, plan, out)?;
        let (lens, view) = env.geometry.ok_or_else(|| {
            EngineError::unsupported(&name, "direct needs lens+view (HostEnv::geometry)")
        })?;
        if (view.width, view.height) != (plan.width(), plan.height()) {
            return Err(EngineError::backend(
                &name,
                "view dimensions do not match the plan",
            ));
        }
        let mut report = execute_direct(interp, src, lens, view, out)?;
        post_pass::<P>(&name, post, out, &mut report)?;
        return Ok(report);
    }
    let route = HostRoute::resolve::<P>(spec, interp, env)?;
    check_frame_dims(route.name(), src, plan, out)?;
    let post = active_post::<P>(route.name(), post)?;
    let sources = Sources {
        frames: std::slice::from_ref(&src),
        plans: std::slice::from_ref(&plan),
    };
    let mut report = route.run(plan, sources, post, out);
    report.rows = plan.height() as u64;
    report.invalid_pixels = plan.invalid_pixels();
    Ok(report)
}

/// Execute the LUT-free `direct` path — the one host spec that needs
/// no [`crate::RemapMap`] at all (the F9 comparison mode). `out` must match
/// the view's dimensions.
pub fn execute_direct<P: Pixel>(
    interp: Interpolator,
    src: &Image<P>,
    lens: &FisheyeLens,
    view: &PerspectiveView,
    out: &mut Image<P>,
) -> Result<FrameReport, EngineError> {
    let name = EngineSpec::Direct.name();
    if out.dims() != (view.width, view.height) {
        return Err(EngineError::backend(
            &name,
            format!(
                "output {:?} does not match view {:?}",
                out.dims(),
                (view.width, view.height)
            ),
        ));
    }
    let mut report = FrameReport::new(&name);
    report.rows = view.height as u64;
    let (sw, sh) = src.dims();
    let mut invalid = 0u64;
    let t0 = Instant::now();
    let rays = view.rays();
    for y in 0..view.height {
        for x in 0..view.width {
            let ray = rays.ray(x as f64 + 0.5, y as f64 + 0.5);
            let v = match lens.project(ray) {
                Some((sx, sy)) if sx >= 0.0 && sx < sw as f64 && sy >= 0.0 && sy < sh as f64 => {
                    interp.sample(src, sx as f32, sy as f32)
                }
                _ => {
                    invalid += 1;
                    P::BLACK
                }
            };
            out.set(x, y, v);
        }
    }
    report.correct_time = t0.elapsed();
    report.invalid_pixels = invalid;
    Ok(report)
}

// ---------------------------------------------------------------------
// Boxed host engines
// ---------------------------------------------------------------------

/// Build context for [`build_host`]: the interpolator every engine
/// uses, the pool size `smp` engines allocate, and the geometry the
/// `direct` engine captures.
#[derive(Clone, Copy)]
pub struct HostCtx<'a> {
    /// Interpolation kernel.
    pub interp: Interpolator,
    /// Worker threads for `smp` engines.
    pub threads: usize,
    /// Lens + view, required by `direct`.
    pub geometry: Option<(&'a FisheyeLens, &'a PerspectiveView)>,
}

impl Default for HostCtx<'_> {
    fn default() -> Self {
        HostCtx {
            interp: Interpolator::Bilinear,
            threads: 4,
            geometry: None,
        }
    }
}

/// Build a boxed host engine for `spec`, validated through the same
/// resolution [`execute_host`] runs. Accelerator specs return
/// [`EngineError::Unsupported`]; the `fisheye` facade crate resolves
/// those.
pub fn build_host<P: EnginePixel>(
    spec: &EngineSpec,
    ctx: &HostCtx,
) -> Result<Box<dyn CorrectionEngine<P>>, EngineError> {
    let engine = HostEngine {
        spec: *spec,
        interp: ctx.interp,
        pool: matches!(spec, EngineSpec::Smp { .. }).then(|| ThreadPool::new(ctx.threads.max(1))),
        geometry: ctx.geometry.map(|(lens, view)| (*lens, *view)),
    };
    if *spec == EngineSpec::Direct {
        if engine.geometry.is_none() {
            return Err(EngineError::unsupported(
                spec.name(),
                "direct needs lens+view (HostCtx::geometry)",
            ));
        }
    } else {
        HostRoute::resolve::<P>(spec, ctx.interp, &engine.env())?;
    }
    Ok(Box::new(engine))
}

/// The boxed host engine: one struct for every host spec, owning what
/// its spec needs (the `smp` pool, the `direct` geometry) and
/// forwarding every frame to [`execute_host`].
struct HostEngine {
    spec: EngineSpec,
    interp: Interpolator,
    pool: Option<ThreadPool>,
    geometry: Option<(FisheyeLens, PerspectiveView)>,
}

impl HostEngine {
    fn env(&self) -> HostEnv<'_> {
        HostEnv {
            pool: self.pool.as_ref(),
            geometry: self.geometry.as_ref().map(|(lens, view)| (lens, view)),
        }
    }
}

impl<P: EnginePixel> CorrectionEngine<P> for HostEngine {
    fn name(&self) -> String {
        self.spec.name()
    }

    fn correct_frame(
        &self,
        src: &Image<P>,
        plan: &RemapPlan,
        out: &mut Image<P>,
    ) -> Result<FrameReport, EngineError> {
        execute_host(&self.spec, self.interp, src, plan, None, &self.env(), out)
    }

    fn correct_frame_post(
        &self,
        src: &Image<P>,
        plan: &RemapPlan,
        post: Option<&PostPlan>,
        out: &mut Image<P>,
    ) -> Result<FrameReport, EngineError> {
        execute_host(&self.spec, self.interp, src, plan, post, &self.env(), out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correct::{correct, correct_fixed};
    use crate::map::RemapMap;
    use crate::plan::PlanOptions;

    fn workload() -> (FisheyeLens, PerspectiveView, RemapMap, Image<Gray8>) {
        let lens = FisheyeLens::equidistant_fov(160, 120, 180.0);
        let view = PerspectiveView::centered(80, 60, 90.0);
        let map = RemapMap::build(&lens, &view, 160, 120);
        let src = pixmap::scene::random_gray(160, 120, 42);
        (lens, view, map, src)
    }

    /// Compile a plan covering every registry spec's needs.
    fn plan_for(map: &RemapMap) -> RemapPlan {
        RemapPlan::compile(
            map,
            PlanOptions::for_specs(&EngineSpec::registry(), Interpolator::Bilinear),
        )
    }

    #[test]
    fn names_round_trip_through_parse() {
        for spec in EngineSpec::registry() {
            let name = spec.name();
            let parsed = EngineSpec::parse(&name).unwrap();
            assert_eq!(parsed, spec, "{name}");
        }
        // parameterized forms too
        for s in [
            "smp:dynamic:4",
            "smp:guided:2",
            "smp:static:8",
            "fixed:10",
            "cell:64x32",
            "cell:16x16:single:q8",
            "gpu:512",
            "simt:64",
        ] {
            let spec = EngineSpec::parse(s).unwrap();
            assert_eq!(EngineSpec::parse(&spec.name()).unwrap(), spec, "{s}");
        }
    }

    #[test]
    fn display_from_str_round_trip_is_lossless() {
        let mut specs = EngineSpec::registry();
        specs.extend([
            EngineSpec::Smp {
                schedule: Schedule::Dynamic { chunk: 3 },
            },
            EngineSpec::FixedPoint { frac_bits: 9 },
            EngineSpec::Cell {
                tile_w: 16,
                tile_h: 8,
                double_buffer: false,
                frac_bits: 7,
            },
            EngineSpec::Gpu { block_threads: 128 },
            EngineSpec::Simt { workgroup: 64 },
        ]);
        for spec in specs {
            let shown = spec.to_string();
            assert_eq!(shown, spec.name(), "Display must print the canonical name");
            let parsed: EngineSpec = shown.parse().unwrap();
            assert_eq!(parsed, spec, "{shown}");
        }
        assert!("warp-drive".parse::<EngineSpec>().is_err());
    }

    #[test]
    fn parse_rejects_nonsense() {
        assert!(EngineSpec::parse("warp-drive").is_err());
        assert!(EngineSpec::parse("serial:4").is_err());
        assert!(EngineSpec::parse("fixed:0").is_err());
        assert!(EngineSpec::parse("fixed:16").is_err());
        assert!(EngineSpec::parse("gpu:100").is_err());
        assert!(EngineSpec::parse("cell:0x8").is_err());
        assert!(EngineSpec::parse("cell:wat").is_err());
        assert!(EngineSpec::parse("simt:0").is_err());
        assert!(EngineSpec::parse("simt:100").is_err());
        assert!(EngineSpec::parse("simt:64:64").is_err());
    }

    #[test]
    fn registry_capabilities_are_pinned() {
        // the one-source-of-truth contract: every consumer that used
        // to hard-code a backend list now reads these answers, so a
        // change here is a change to videopipe/serve/CLI behavior and
        // must be deliberate
        let expect = |name: &str| match name {
            "serial" => (true, None, None, true, true, true, None),
            "smp" => (true, None, None, false, true, true, None),
            "direct" => (false, None, None, true, true, false, None),
            "fixed" => (false, Some(12), None, true, true, true, None),
            "simd" => (
                false,
                None,
                None,
                true,
                true,
                true,
                Some(Interpolator::Bilinear),
            ),
            "cell" => (false, Some(12), Some((32, 16)), false, false, true, None),
            "gpu" => (false, None, None, false, false, true, None),
            "simt" => (true, None, Some((32, 8)), true, false, true, None),
            other => panic!("registry grew '{other}' without pinning its capabilities"),
        };
        for spec in EngineSpec::registry() {
            let name = spec.name();
            let c = spec.capabilities();
            let (fused, lut, tiles, conc, host, plan, locked) = expect(&name);
            assert_eq!(c.fused_post, fused, "{name} fused_post");
            assert_eq!(c.requires_lut, lut, "{name} requires_lut");
            assert_eq!(c.requires_tiles, tiles, "{name} requires_tiles");
            assert_eq!(c.supports_frame_concurrency, conc, "{name} concurrency");
            assert_eq!(c.host_executable, host, "{name} host_executable");
            assert_eq!(c.host_executable, spec.is_host(), "{name} is_host agrees");
            assert_eq!(c.uses_plan, plan, "{name} uses_plan");
            assert_eq!(c.interp_locked, locked, "{name} interp_locked");
        }
    }

    #[test]
    fn parameterized_capabilities_follow_their_parameters() {
        let c = EngineSpec::parse("fixed:9").unwrap().capabilities();
        assert_eq!(c.requires_lut, Some(9));
        let c = EngineSpec::parse("cell:64x32:q10").unwrap().capabilities();
        assert_eq!(c.requires_lut, Some(10));
        assert_eq!(c.requires_tiles, Some((64, 32)));
        let c = EngineSpec::parse("simt:64").unwrap().capabilities();
        assert_eq!(c.requires_tiles, Some((32, 2)));
    }

    #[test]
    fn registry_names_are_unique() {
        let names: Vec<String> = EngineSpec::registry().iter().map(|s| s.name()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "{names:?}");
    }

    #[test]
    fn host_engines_match_serial_reference_gray8() {
        // odd and even widths, on and off any 4-pixel grid: every
        // backend must stay byte-equal to its reference
        let (lens, _, _, src) = workload();
        for out_w in [80u32, 77, 78, 79, 81] {
            let view = PerspectiveView::centered(out_w, 60, 90.0);
            let map = RemapMap::build(&lens, &view, 160, 120);
            let plan = plan_for(&map);
            let reference = correct(&src, &map, Interpolator::Bilinear);
            let ctx = HostCtx {
                geometry: Some((&lens, &view)),
                ..Default::default()
            };
            for spec in EngineSpec::registry().iter().filter(|s| s.is_host()) {
                let engine = build_host::<Gray8>(spec, &ctx).unwrap();
                let mut out = Image::new(map.width(), map.height());
                let report = engine.correct_frame(&src, &plan, &mut out).unwrap();
                let name = spec.name();
                assert_eq!(report.backend, name);
                assert_eq!(report.rows, 60);
                match spec.numeric_class() {
                    NumericClass::Float => {
                        assert_eq!(out, reference, "{name} width {out_w}");
                    }
                    NumericClass::Fixed { frac_bits } => {
                        let fixed_ref = correct_fixed(&src, &map.to_fixed(frac_bits));
                        assert_eq!(out, fixed_ref, "{name} width {out_w}");
                        assert!(
                            !report.model.contains_key("plan_miss"),
                            "registry plan must satisfy {name}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn accelerator_specs_rejected_by_host_builder() {
        let ctx = HostCtx::default();
        for s in ["cell", "gpu", "simt"] {
            let spec = EngineSpec::parse(s).unwrap();
            assert!(matches!(
                build_host::<Gray8>(&spec, &ctx),
                Err(EngineError::Unsupported { .. })
            ));
        }
    }

    #[test]
    fn fixed_engine_unsupported_on_float_pixels() {
        let spec = EngineSpec::FixedPoint { frac_bits: 12 };
        assert!(matches!(
            build_host::<GrayF32>(&spec, &HostCtx::default()),
            Err(EngineError::Unsupported { .. })
        ));
    }

    #[test]
    fn simd_engine_bit_exact_on_f32() {
        let (_, _, map, src) = workload();
        let plan = plan_for(&map);
        let srcf: Image<GrayF32> = src.map(GrayF32::from);
        let reference = correct(&srcf, &map, Interpolator::Bilinear);
        let engine = build_host::<GrayF32>(&EngineSpec::Simd, &HostCtx::default()).unwrap();
        let mut out = Image::new(map.width(), map.height());
        engine.correct_frame(&srcf, &plan, &mut out).unwrap();
        assert_eq!(out, reference);
    }

    #[test]
    fn simd_rejects_non_bilinear() {
        let ctx = HostCtx {
            interp: Interpolator::Bicubic,
            ..Default::default()
        };
        assert!(build_host::<GrayF32>(&EngineSpec::Simd, &ctx).is_err());
    }

    #[test]
    fn direct_needs_geometry() {
        assert!(matches!(
            build_host::<Gray8>(&EngineSpec::Direct, &HostCtx::default()),
            Err(EngineError::Unsupported { .. })
        ));
    }

    #[test]
    fn dimension_mismatch_is_an_error_not_a_panic() {
        let (_, _, map, src) = workload();
        let plan = plan_for(&map);
        let engine = build_host::<Gray8>(&EngineSpec::Serial, &HostCtx::default()).unwrap();
        let mut wrong: Image<Gray8> = Image::new(10, 10);
        assert!(matches!(
            engine.correct_frame(&src, &plan, &mut wrong),
            Err(EngineError::Backend { .. })
        ));
    }

    #[test]
    fn report_counts_invalid_pixels() {
        // a view wider than the lens: black corners
        let lens = FisheyeLens::equidistant_fov(160, 120, 120.0);
        let view = PerspectiveView::centered(80, 60, 140.0);
        let map = RemapMap::build(&lens, &view, 160, 120);
        let src = pixmap::scene::random_gray(160, 120, 7);
        let ctx = HostCtx {
            geometry: Some((&lens, &view)),
            ..Default::default()
        };
        let expect = map.entries().iter().filter(|e| !e.is_valid()).count() as u64;
        assert!(expect > 0);
        let plan = plan_for(&map);
        assert_eq!(plan.invalid_pixels(), expect);
        for spec in EngineSpec::registry().iter().filter(|s| s.is_host()) {
            let engine = build_host::<Gray8>(spec, &ctx).unwrap();
            let mut out = Image::new(80, 60);
            let report = engine.correct_frame(&src, &plan, &mut out).unwrap();
            assert_eq!(report.invalid_pixels, expect, "{}", spec.name());
        }
    }

    #[test]
    fn fixed_engine_follows_the_plan_it_is_handed() {
        // engines hold no map-derived state: swapping plans swaps the
        // quantized LUT with them, with nothing stale in between
        let (lens, view, map, src) = workload();
        let engine = build_host::<Gray8>(
            &EngineSpec::FixedPoint { frac_bits: 12 },
            &HostCtx::default(),
        )
        .unwrap();
        let mut out = Image::new(80, 60);
        engine
            .correct_frame(&src, &plan_for(&map), &mut out)
            .unwrap();
        let first = out.clone();
        let map2 = RemapMap::build(&lens, &view.look(25.0, 0.0), 160, 120);
        engine
            .correct_frame(&src, &plan_for(&map2), &mut out)
            .unwrap();
        assert_eq!(out, correct_fixed(&src, &map2.to_fixed(12)));
        assert_ne!(out, first);
    }

    #[test]
    fn fixed_engine_survives_a_plan_miss() {
        // a plan compiled without the fixed LUT still works — the
        // engine requantizes per frame and flags it
        let (_, _, map, src) = workload();
        let bare = RemapPlan::compile(&map, PlanOptions::default());
        let engine = build_host::<Gray8>(
            &EngineSpec::FixedPoint { frac_bits: 12 },
            &HostCtx::default(),
        )
        .unwrap();
        let mut out = Image::new(80, 60);
        let report = engine.correct_frame(&src, &bare, &mut out).unwrap();
        assert_eq!(out, correct_fixed(&src, &map.to_fixed(12)));
        assert_eq!(report.model.get("plan_miss"), Some(&1.0));
    }

    #[test]
    fn frame_report_model_pairs_sorted() {
        let mut r = FrameReport::new("x");
        r.kv("zeta", 1.0);
        r.kv("alpha", 2.0);
        let pairs = r.model_pairs();
        assert!(pairs[0].starts_with("alpha=") && pairs[1].starts_with("zeta="));
    }
}
