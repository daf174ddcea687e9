//! The compiled remap plan — the explicit **compile** phase between
//! map generation and frame correction.
//!
//! The paper's performance argument rests on the map-gen / correction
//! asymmetry: the LUT changes only when the view changes, so anything
//! derivable from it should be paid once per view, never per frame.
//! Before this module, that derived state (quantized LUTs, tile plans)
//! was recomputed and cached privately inside each engine behind a map
//! fingerprint; the hot gather also branched on NaN validity for every
//! pixel of every frame. [`RemapPlan::compile`] moves all of it into
//! one immutable artifact:
//!
//! * **The bilinear corner plane** — one 4-byte [`Corner`] per output
//!   pixel: the top-left source texel of the pixel's 2×2 bilinear
//!   footprint when all four taps lie inside the source, or
//!   [`Corner::EDGE`] when the footprint touches or crosses a border.
//!   The float bilinear sampler reads `(MapEntry, Corner)` per pixel,
//!   so an interior pixel costs two subtractions for its weights and
//!   four unclamped loads — no `floor`, no clamp, no saturating cast
//!   per frame — while `EDGE` pixels take the clamping
//!   [`crate::interp::sample_bilinear`]. Either way the output is
//!   bit-identical with it (see `interp::sample_bilinear_corner`).
//!   With the map's 8 B/px the plan stores 12 B/px plus spans.
//! * **Per-row valid spans** — run-length encoding of the contiguous
//!   valid regions of each row. Engines iterate spans and fill the
//!   gaps black, eliminating the per-pixel `is_valid()` branch from
//!   the inner loop (a fisheye map's invalid region is a border, not
//!   salt-and-pepper, so rows have very few spans).
//! * **Prequantized fixed-point LUTs** for every `frac_bits` the
//!   caller requests ([`PlanOptions::frac_bits`]).
//! * **Tile plans** with source footprints for every requested tile
//!   geometry ([`PlanOptions::tiles`]) — what the Cell model DMAs.
//! * The original [`RemapMap`] itself: the coordinates every float
//!   sampler reads (bilinear next to the corner plane, nearest and
//!   bicubic alone), and the entry order the GPU cache model and the
//!   SIMT interpreter replay.
//!
//! Execution contract: every [`crate::engine::CorrectionEngine`]
//! consumes `&RemapPlan`. Whoever owns the view owns the plan —
//! `CorrectionPipeline` recompiles on `set_view`, videopipe and the
//! CLI compile once up front — and engines hold **no** derived state
//! of their own. An engine asked for an artifact the plan was not
//! compiled with (a missing `frac_bits` width, a missing tile
//! geometry) derives it on the fly and flags the report with
//! `plan_miss=1`, keeping execution functional while making the
//! compiled path the fast one. Every host backend executes a plan
//! through the one span walker in [`crate::walk`]: the valid spans
//! are the row program, and the backend only picks the span sampler
//! (the float kernels over map and corner rows, or the fixed-point
//! LUT).
//!
//! Compilation is deterministic: the same map and options produce a
//! byte-identical plan (see [`RemapPlan::digest`]), which is what
//! makes plans safe to share across threads and compare in tests.

use std::sync::Arc;

use fisheye_geom::{FisheyeLens, PerspectiveView};
use par_runtime::sync::Mutex;
use pixmap::{Image, Pixel};

use crate::engine::EngineSpec;
use crate::interp::Interpolator;
use crate::map::{FixedRemapMap, MapEntry, RemapMap};
use crate::tile::TilePlan;
use crate::walk::{walk_scalar, Lut, NoPost, Sources};

/// What [`RemapPlan::compile`] should prederive beyond the corner
/// plane and valid spans (which are always built).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanOptions {
    /// Fractional weight widths to prequantize ([`RemapPlan::fixed`]).
    pub frac_bits: Vec<u32>,
    /// Tile geometries `(tile_w, tile_h)` to preplan
    /// ([`RemapPlan::tile_plan`]).
    pub tiles: Vec<(u32, u32)>,
    /// Interpolator whose margin inflates tile source footprints.
    pub interp: Interpolator,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            frac_bits: Vec::new(),
            tiles: Vec::new(),
            interp: Interpolator::Bilinear,
        }
    }
}

impl PlanOptions {
    /// The options one engine spec needs to run without plan misses.
    pub fn for_spec(spec: &EngineSpec, interp: Interpolator) -> PlanOptions {
        PlanOptions::for_specs(std::slice::from_ref(spec), interp)
    }

    /// The union of what several specs need — compile one plan, run
    /// every backend on it.
    pub fn for_specs(specs: &[EngineSpec], interp: Interpolator) -> PlanOptions {
        let mut opts = PlanOptions {
            interp,
            ..Default::default()
        };
        for spec in specs {
            let caps = spec.capabilities();
            if let Some(frac_bits) = caps.requires_lut {
                opts.frac_bits.push(frac_bits);
            }
            if let Some(tile) = caps.requires_tiles {
                opts.tiles.push(tile);
            }
        }
        opts.frac_bits.sort_unstable();
        opts.frac_bits.dedup();
        opts.tiles.sort_unstable();
        opts.tiles.dedup();
        opts
    }
}

/// Order-sensitive FNV-1a digest of a *plan request* — everything
/// that determines what [`RemapPlan::compile`] would produce: the
/// lens, the view, the source frame dimensions and the
/// [`PlanOptions`]. Unlike [`RemapPlan::digest`] this is computable
/// *before* compiling, which is what a plan cache needs for its key:
/// two sessions asking for the same view hash to the same slot and
/// the map is traced once. Floats are hashed by bit pattern, so any
/// parameter change — however small — changes the digest.
pub fn plan_request_digest(
    lens: &FisheyeLens,
    view: &PerspectiveView,
    src_w: u32,
    src_h: u32,
    opts: &PlanOptions,
) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    lens.model.hash(&mut h);
    for v in [lens.focal_px, lens.cx, lens.cy, lens.max_theta] {
        h.mix(v.to_bits());
    }
    for v in [view.pan, view.tilt, view.roll, view.h_fov] {
        h.mix(v.to_bits());
    }
    h.mix(((view.width as u64) << 32) | view.height as u64);
    h.mix(((src_w as u64) << 32) | src_h as u64);
    h.mix(opts.frac_bits.len() as u64);
    for &b in &opts.frac_bits {
        h.mix(b as u64);
    }
    h.mix(opts.tiles.len() as u64);
    for &(tw, th) in &opts.tiles {
        h.mix(((tw as u64) << 32) | th as u64);
    }
    h.mix(opts.interp as u64);
    h.finish()
}

/// FNV-1a accumulator behind [`plan_request_digest`]; implements
/// `Hasher` so `Hash`-deriving types (the lens model enum) can feed it.
/// Crate-visible so the composite layer keys its digests with the
/// same constants.
pub(crate) struct Fnv(pub(crate) u64);

impl Fnv {
    #[inline]
    pub(crate) fn mix(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

impl std::hash::Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(b as u64);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One contiguous run of valid LUT entries within a row:
/// `[start, end)` in output-pixel x coordinates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ValidSpan {
    /// First valid x (inclusive).
    pub start: u32,
    /// One past the last valid x.
    pub end: u32,
}

impl ValidSpan {
    /// Pixels covered.
    #[inline]
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the span is empty (never produced by compilation).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// The top-left source texel of one output pixel's bilinear
/// footprint, precomputed so the per-frame sampler needs no `floor`
/// and no clamp. An entry is interior when `0 ≤ s − 0.5 < dim − 1`
/// on both axes: there `floor == trunc` and all four taps
/// `(x..=x+1, y..=y+1)` are inside the source. Every other entry —
/// invalid, clamping at any of the four borders, or in a source
/// wider or taller than `u16::MAX` — is [`Corner::EDGE`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Corner {
    /// Left tap column.
    pub x: u16,
    /// Top tap row.
    pub y: u16,
}

impl Corner {
    /// The marker for a footprint the sampler must clamp: never an
    /// interior corner, whose `x + 1` and `y + 1` fit in `u16`.
    pub const EDGE: Corner = Corner {
        x: u16::MAX,
        y: u16::MAX,
    };

    /// The corner of map entry `e` in a `src_w × src_h` source.
    #[inline]
    pub fn of(e: MapEntry, (src_w, src_h): (u32, u32)) -> Corner {
        let fx = e.sx - 0.5;
        let fy = e.sy - 0.5;
        // NaN (invalid) fails every comparison; dimensions up to
        // u16::MAX convert to f32 exactly
        let interior = src_w <= u16::MAX as u32
            && src_h <= u16::MAX as u32
            && fx >= 0.0
            && fx < src_w.saturating_sub(1) as f32
            && fy >= 0.0
            && fy < src_h.saturating_sub(1) as f32;
        if interior {
            Corner {
                x: fx as u16,
                y: fy as u16,
            }
        } else {
            Corner::EDGE
        }
    }
}

/// The compiled, immutable execution artifact for one remap map. See
/// the module docs for the compile/execute contract.
///
/// Quantized LUTs and tile plans come in two flavors: the ones the
/// plan was *compiled with* (eagerly materialized per
/// [`PlanOptions`], visible through [`RemapPlan::fixed`] /
/// [`RemapPlan::tile_plan`]) and ones an engine derives *on demand*
/// through [`RemapPlan::fixed_lazy`] / [`RemapPlan::tile_plan_lazy`],
/// which are memoized so a plan-miss costs one derivation per plan,
/// not one per frame. Neither flavor affects [`RemapPlan::digest`]:
/// the digest covers the map and the compile *parameters*, so two
/// plans that differ only in which artifacts happen to be
/// materialized still hash identically.
pub struct RemapPlan {
    map: RemapMap,
    corners: Vec<Corner>,
    spans: Vec<ValidSpan>,
    /// `row_offsets[y]..row_offsets[y+1]` indexes `spans` for row `y`.
    row_offsets: Vec<u32>,
    invalid_pixels: u64,
    /// Per-row FNV digest of the map's coordinate bit patterns; what
    /// [`RemapPlan::recompile`] reuses for unchanged rows.
    row_digests: Vec<u64>,
    /// Cached full digest (map rows + compile parameters).
    digest: u64,
    /// Options the plan was compiled with (eager artifact set +
    /// interpolator); reused verbatim by [`RemapPlan::recompile`].
    opts: PlanOptions,
    fixed: Vec<FixedRemapMap>,
    tiles: Vec<TilePlan>,
    /// Lazily derived LUTs/tile plans an engine asked for beyond the
    /// compiled set (plan misses), memoized for subsequent frames.
    fixed_memo: Mutex<Vec<Arc<FixedRemapMap>>>,
    tile_memo: Mutex<Vec<Arc<TilePlan>>>,
}

impl Clone for RemapPlan {
    fn clone(&self) -> Self {
        RemapPlan {
            map: self.map.clone(),
            corners: self.corners.clone(),
            spans: self.spans.clone(),
            row_offsets: self.row_offsets.clone(),
            invalid_pixels: self.invalid_pixels,
            row_digests: self.row_digests.clone(),
            digest: self.digest,
            opts: self.opts.clone(),
            fixed: self.fixed.clone(),
            tiles: self.tiles.clone(),
            fixed_memo: Mutex::new(self.fixed_memo.lock().clone()),
            tile_memo: Mutex::new(self.tile_memo.lock().clone()),
        }
    }
}

impl std::fmt::Debug for RemapPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemapPlan")
            .field("width", &self.width())
            .field("height", &self.height())
            .field("src_dims", &self.src_dims())
            .field("span_count", &self.spans.len())
            .field("invalid_pixels", &self.invalid_pixels)
            .field("digest", &self.digest)
            .field("opts", &self.opts)
            .finish_non_exhaustive()
    }
}

/// Scan one map row: append its valid spans to `spans` and return
/// `(invalid pixels, row digest)`. The digest covers every
/// coordinate's bit pattern, so it distinguishes NaN-invalid entries
/// and any sub-ulp coordinate change.
fn scan_row(row: &[crate::map::MapEntry], spans: &mut Vec<ValidSpan>) -> (u64, u64) {
    let w = row.len();
    let mut invalid = 0u64;
    let mut x = 0usize;
    while x < w {
        if row[x].is_valid() {
            let start = x;
            while x < w && row[x].is_valid() {
                x += 1;
            }
            spans.push(ValidSpan {
                start: start as u32,
                end: x as u32,
            });
        } else {
            invalid += 1;
            x += 1;
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for e in row {
        h.mix(((e.sx.to_bits() as u64) << 32) | e.sy.to_bits() as u64);
    }
    (invalid, h.0)
}

/// Whether two map rows are bit-identical (NaN-aware: invalid entries
/// with the same bit pattern compare equal, unlike `f32` equality).
fn rows_bit_equal(a: &[crate::map::MapEntry], b: &[crate::map::MapEntry]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.sx.to_bits() == y.sx.to_bits() && x.sy.to_bits() == y.sy.to_bits())
}

impl RemapPlan {
    /// Compile `map` into an execution plan. Always builds the corner
    /// plane and valid-span index; additionally prequantizes one
    /// fixed-point LUT per requested `frac_bits` and one tile plan per
    /// requested geometry.
    ///
    /// Deterministic: the same map and options yield a byte-identical
    /// plan (same [`RemapPlan::digest`]).
    pub fn compile(map: &RemapMap, opts: PlanOptions) -> RemapPlan {
        Self::build_plan(map.clone(), opts, true)
    }

    /// Shared constructor behind [`RemapPlan::compile`] (eager) and
    /// the dimension-mismatch path of [`RemapPlan::recompile`] (lazy:
    /// LUTs and tile plans are left to on-demand derivation).
    fn build_plan(map: RemapMap, opts: PlanOptions, eager: bool) -> RemapPlan {
        let entries = map.entries();
        let src = map.src_dims();
        let mut corners = Vec::with_capacity(entries.len());
        let w = map.width() as usize;
        let h = map.height() as usize;
        let mut spans = Vec::new();
        let mut row_offsets = Vec::with_capacity(h + 1);
        row_offsets.push(0u32);
        let mut row_digests = Vec::with_capacity(h);
        let mut invalid = 0u64;
        // one streaming pass: each row's corners are derived and its
        // spans scanned while it is still hot in cache
        for y in 0..h {
            let row = &entries[y * w..][..w];
            corners.extend(row.iter().map(|&e| Corner::of(e, src)));
            let (inv, rd) = scan_row(row, &mut spans);
            invalid += inv;
            row_digests.push(rd);
            row_offsets.push(spans.len() as u32);
        }
        let (fixed, tiles) = if eager {
            (
                opts.frac_bits.iter().map(|&b| map.to_fixed(b)).collect(),
                opts.tiles
                    .iter()
                    .map(|&(tw, th)| TilePlan::build(&map, tw, th, opts.interp))
                    .collect(),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        let digest = Self::digest_of(&map, &row_digests, invalid, &opts);
        RemapPlan {
            map,
            corners,
            spans,
            row_offsets,
            invalid_pixels: invalid,
            row_digests,
            digest,
            opts,
            fixed,
            tiles,
            fixed_memo: Mutex::new(Vec::new()),
            tile_memo: Mutex::new(Vec::new()),
        }
    }

    /// Recompile this plan for a new map of the same view geometry —
    /// the cheap path behind an interactive view change.
    ///
    /// Rows whose coordinates are bit-identical to the previous map
    /// reuse their corners, span index and row digest; changed rows
    /// are rescanned. Quantized LUTs and tile plans are *not* eagerly
    /// rebuilt — a backend that needs one derives and memoizes it on
    /// first use (reported as a plan miss). The result is bit-exact
    /// against `RemapPlan::compile(&map, self.opts())` — same
    /// coordinates, spans, lazily-derived artifacts and
    /// [`RemapPlan::digest`] — so a digest-keyed cache can never
    /// confuse delta-compiled and cold-compiled plans.
    pub fn recompile(&self, map: RemapMap) -> RemapPlan {
        if map.width() != self.width()
            || map.height() != self.height()
            || map.src_dims() != self.src_dims()
        {
            return Self::build_plan(map, self.opts.clone(), false);
        }
        let entries = map.entries();
        let old = self.map.entries();
        let src = map.src_dims();
        let mut corners = Vec::with_capacity(entries.len());
        let w = map.width() as usize;
        let h = map.height() as usize;
        let mut spans = Vec::with_capacity(self.spans.len());
        let mut row_offsets = Vec::with_capacity(h + 1);
        row_offsets.push(0u32);
        let mut row_digests = Vec::with_capacity(h);
        let mut invalid = 0u64;
        // same single-pass row loop as `build_plan`, plus the reuse
        // check against the previous map while the row is cache-hot
        for y in 0..h {
            let row = &entries[y * w..][..w];
            if rows_bit_equal(row, &old[y * w..][..w]) {
                corners.extend_from_slice(&self.corners[y * w..][..w]);
                let a = self.row_offsets[y] as usize;
                let b = self.row_offsets[y + 1] as usize;
                let reused = &self.spans[a..b];
                invalid += w as u64 - reused.iter().map(|s| s.len() as u64).sum::<u64>();
                spans.extend_from_slice(reused);
                row_digests.push(self.row_digests[y]);
            } else {
                corners.extend(row.iter().map(|&e| Corner::of(e, src)));
                let (inv, rd) = scan_row(row, &mut spans);
                invalid += inv;
                row_digests.push(rd);
            }
            row_offsets.push(spans.len() as u32);
        }
        let digest = Self::digest_of(&map, &row_digests, invalid, &self.opts);
        RemapPlan {
            map,
            corners,
            spans,
            row_offsets,
            invalid_pixels: invalid,
            row_digests,
            digest,
            opts: self.opts.clone(),
            fixed: Vec::new(),
            tiles: Vec::new(),
            fixed_memo: Mutex::new(Vec::new()),
            tile_memo: Mutex::new(Vec::new()),
        }
    }

    /// Output width.
    #[inline]
    pub fn width(&self) -> u32 {
        self.map.width()
    }

    /// Output height.
    #[inline]
    pub fn height(&self) -> u32 {
        self.map.height()
    }

    /// Source frame dimensions the plan was compiled for.
    #[inline]
    pub fn src_dims(&self) -> (u32, u32) {
        self.map.src_dims()
    }

    /// The AoS map the plan was compiled from.
    #[inline]
    pub fn map(&self) -> &RemapMap {
        &self.map
    }

    /// Interpolator the tile footprints were inflated for.
    #[inline]
    pub fn interp(&self) -> Interpolator {
        self.opts.interp
    }

    /// Row `y` of the bilinear corner plane.
    #[inline]
    pub fn row_corners(&self, y: u32) -> &[Corner] {
        let w = self.map.width() as usize;
        &self.corners[(y as usize) * w..][..w]
    }

    /// Valid spans of row `y`, left to right.
    #[inline]
    pub fn spans(&self, y: u32) -> &[ValidSpan] {
        let a = self.row_offsets[y as usize] as usize;
        let b = self.row_offsets[y as usize + 1] as usize;
        &self.spans[a..b]
    }

    /// Total number of valid spans across all rows.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Output pixels with no valid source mapping (precomputed at
    /// compile time — engines report it without rescanning the map).
    #[inline]
    pub fn invalid_pixels(&self) -> u64 {
        self.invalid_pixels
    }

    /// The prequantized LUT for `frac_bits`, if one was requested at
    /// compile time.
    pub fn fixed(&self, frac_bits: u32) -> Option<&FixedRemapMap> {
        self.fixed.iter().find(|f| f.frac_bits() == frac_bits)
    }

    /// All prequantized LUTs, in ascending `frac_bits` order.
    pub fn fixed_luts(&self) -> &[FixedRemapMap] {
        &self.fixed
    }

    /// The precomputed tile plan for `(tile_w, tile_h)`, if one was
    /// requested at compile time.
    pub fn tile_plan(&self, tile_w: u32, tile_h: u32) -> Option<&TilePlan> {
        self.tiles
            .iter()
            .find(|t| t.tile_dims() == (tile_w, tile_h))
    }

    /// Total plan size in bytes (map + corner plane + spans +
    /// quantized LUTs); what a view change costs in memory.
    pub fn bytes(&self) -> usize {
        self.map.bytes()
            + self.corners.len() * std::mem::size_of::<Corner>()
            + self.spans.len() * std::mem::size_of::<ValidSpan>()
            + self.fixed.iter().map(|f| f.bytes()).sum::<usize>()
    }

    /// The options the plan was compiled with (eager artifact set and
    /// interpolator). [`RemapPlan::recompile`] carries these forward.
    #[inline]
    pub fn opts(&self) -> &PlanOptions {
        &self.opts
    }

    /// Derive (or fetch the memoized) quantized LUT for a `frac_bits`
    /// the plan was *not* compiled with — the plan-miss path. Returns
    /// the LUT plus `Some(milliseconds)` if this call materialized it
    /// (`None` = memo hit; later frames pay nothing). Callers should
    /// try [`RemapPlan::fixed`] first: widths in the compiled set are
    /// already materialized and borrowable for free.
    pub fn fixed_lazy(&self, frac_bits: u32) -> (Arc<FixedRemapMap>, Option<f64>) {
        let mut memo = self.fixed_memo.lock();
        if let Some(f) = memo.iter().find(|f| f.frac_bits() == frac_bits) {
            return (Arc::clone(f), None);
        }
        let t0 = std::time::Instant::now();
        let f = Arc::new(self.map.to_fixed(frac_bits));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        memo.push(Arc::clone(&f));
        (f, Some(ms))
    }

    /// The quantized LUT for `frac_bits` as a sampler uses it: borrowed
    /// from the compiled set when present, otherwise through
    /// [`RemapPlan::fixed_lazy`] (with its derivation time when this
    /// call materialized it — a plan miss).
    pub(crate) fn lut(&self, frac_bits: u32) -> (Lut<'_>, Option<f64>) {
        match self.fixed(frac_bits) {
            Some(l) => (Lut::Compiled(l), None),
            None => {
                let (l, ms) = self.fixed_lazy(frac_bits);
                (Lut::Derived(l), ms)
            }
        }
    }

    /// Derive (or fetch the memoized) tile plan for a geometry the
    /// plan was *not* compiled with — the plan-miss path, memoized
    /// like [`RemapPlan::fixed_lazy`]. The footprint margin uses the
    /// plan's compiled interpolator.
    pub fn tile_plan_lazy(&self, tile_w: u32, tile_h: u32) -> (Arc<TilePlan>, Option<f64>) {
        let mut memo = self.tile_memo.lock();
        if let Some(t) = memo.iter().find(|t| t.tile_dims() == (tile_w, tile_h)) {
            return (Arc::clone(t), None);
        }
        let t0 = std::time::Instant::now();
        let t = Arc::new(TilePlan::build(&self.map, tile_w, tile_h, self.opts.interp));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        memo.push(Arc::clone(&t));
        (t, Some(ms))
    }

    /// Order-sensitive FNV-1a digest of the plan's *content*: the map
    /// dimensions, every coordinate bit pattern (via per-row digests)
    /// and the compile parameters (eager `frac_bits` set, tile
    /// geometries, interpolator). Cached at compile time — reading it
    /// is free.
    ///
    /// Two compilations of the same map with the same options produce
    /// the same digest — including a [`RemapPlan::recompile`] against
    /// a cold compile — while plans differing in quantization or tile
    /// parameters never collide. Artifacts materialized lazily after
    /// compilation deliberately do **not** affect the digest: they
    /// are pure functions of state already covered by it. (A derived
    /// `PartialEq` would be wrong here: NaN coordinates of invalid
    /// entries compare unequal to themselves.)
    #[inline]
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Compute the digest stored by every constructor. Folds in the
    /// parameters of every *derivable* artifact (quantization widths,
    /// tile geometries, interpolator margin) rather than the artifact
    /// bytes, so materialization state cannot affect the hash.
    fn digest_of(map: &RemapMap, row_digests: &[u64], invalid: u64, opts: &PlanOptions) -> u64 {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        h.mix(map.width() as u64);
        h.mix(map.height() as u64);
        let (sw, sh) = map.src_dims();
        h.mix(sw as u64);
        h.mix(sh as u64);
        for &rd in row_digests {
            h.mix(rd);
        }
        h.mix(invalid);
        h.mix(opts.frac_bits.len() as u64);
        for &b in &opts.frac_bits {
            h.mix(b as u64);
        }
        h.mix(opts.tiles.len() as u64);
        for &(tw, th) in &opts.tiles {
            h.mix(((tw as u64) << 32) | th as u64);
        }
        h.mix(opts.interp as u64);
        h.0
    }
}

/// Serial span-based correction into a pre-allocated output image:
/// the shared span walker ([`crate::walk`]) with the scalar sampler
/// and no post stage. Bit-exact with [`crate::correct::correct_into`].
pub fn correct_plan_into<P: Pixel>(
    src: &Image<P>,
    plan: &RemapPlan,
    interp: Interpolator,
    out: &mut Image<P>,
) {
    assert_eq!(
        out.dims(),
        (plan.width(), plan.height()),
        "output dimensions must match the plan"
    );
    assert_eq!(
        src.dims(),
        plan.src_dims(),
        "source dimensions must match the plan"
    );
    let sources = Sources {
        frames: std::slice::from_ref(&src),
        plans: std::slice::from_ref(&plan),
    };
    walk_scalar(plan, sources, interp, &NoPost, None, out);
}

/// Serial span-based correction, allocating the output.
pub fn correct_plan<P: Pixel>(src: &Image<P>, plan: &RemapPlan, interp: Interpolator) -> Image<P> {
    let mut out = Image::new(plan.width(), plan.height());
    correct_plan_into(src, plan, interp, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correct::{correct, correct_fixed};
    use fisheye_geom::{FisheyeLens, PerspectiveView};
    use pixmap::scene::random_gray;

    fn setup(fov_lens: f64, fov_view: f64) -> (RemapMap, Image<pixmap::Gray8>) {
        let lens = FisheyeLens::equidistant_fov(160, 120, fov_lens);
        let view = PerspectiveView::centered(80, 60, fov_view);
        let map = RemapMap::build(&lens, &view, 160, 120);
        (map, random_gray(160, 120, 17))
    }

    #[test]
    fn full_coverage_map_compiles_to_one_span_per_row() {
        let (map, _) = setup(180.0, 90.0);
        let plan = RemapPlan::compile(&map, PlanOptions::default());
        assert_eq!(plan.span_count(), 60);
        for y in 0..60 {
            assert_eq!(plan.spans(y), &[ValidSpan { start: 0, end: 80 }]);
        }
        assert_eq!(plan.invalid_pixels(), 0);
    }

    #[test]
    fn border_invalid_map_spans_cover_exactly_the_valid_pixels() {
        let (map, _) = setup(120.0, 140.0);
        let plan = RemapPlan::compile(&map, PlanOptions::default());
        let mut covered = 0u64;
        for y in 0..map.height() {
            for s in plan.spans(y) {
                assert!(!s.is_empty());
                covered += s.len() as u64;
                for x in s.start..s.end {
                    assert!(map.entry(x, y).is_valid(), "({x},{y}) inside span");
                }
            }
        }
        let valid = map.entries().iter().filter(|e| e.is_valid()).count() as u64;
        assert_eq!(covered, valid);
        assert_eq!(
            plan.invalid_pixels(),
            map.entries().len() as u64 - valid,
            "invalid count is the complement of span coverage"
        );
    }

    #[test]
    fn span_execution_bit_exact_with_correct() {
        for (lens_fov, view_fov) in [(180.0, 90.0), (120.0, 140.0)] {
            let (map, src) = setup(lens_fov, view_fov);
            let plan = RemapPlan::compile(&map, PlanOptions::default());
            for interp in Interpolator::ALL {
                let reference = correct(&src, &map, interp);
                let via_plan = correct_plan(&src, &plan, interp);
                assert_eq!(reference, via_plan, "{}", interp.name());
            }
        }
    }

    #[test]
    fn prequantized_luts_match_direct_quantization() {
        let (map, src) = setup(180.0, 90.0);
        let plan = RemapPlan::compile(
            &map,
            PlanOptions {
                frac_bits: vec![8, 12],
                ..Default::default()
            },
        );
        assert!(plan.fixed(10).is_none(), "unrequested width absent");
        for bits in [8u32, 12] {
            let f = plan.fixed(bits).expect("requested width present");
            assert_eq!(f.frac_bits(), bits);
            assert_eq!(
                correct_fixed(&src, f),
                correct_fixed(&src, &map.to_fixed(bits))
            );
        }
        assert_eq!(plan.fixed_luts().len(), 2);
    }

    #[test]
    fn tile_plans_match_direct_builds() {
        let (map, _) = setup(180.0, 90.0);
        let plan = RemapPlan::compile(
            &map,
            PlanOptions {
                tiles: vec![(32, 16)],
                ..Default::default()
            },
        );
        assert!(plan.tile_plan(8, 8).is_none());
        let t = plan.tile_plan(32, 16).unwrap();
        let direct = TilePlan::build(&map, 32, 16, Interpolator::Bilinear);
        assert_eq!(t.jobs, direct.jobs);
    }

    #[test]
    fn options_for_specs_union_and_dedup() {
        let specs = [
            EngineSpec::Serial,
            EngineSpec::FixedPoint { frac_bits: 12 },
            EngineSpec::Cell {
                tile_w: 32,
                tile_h: 16,
                double_buffer: true,
                frac_bits: 12,
            },
            EngineSpec::Cell {
                tile_w: 32,
                tile_h: 16,
                double_buffer: false,
                frac_bits: 8,
            },
        ];
        let opts = PlanOptions::for_specs(&specs, Interpolator::Bilinear);
        assert_eq!(opts.frac_bits, vec![8, 12]);
        assert_eq!(opts.tiles, vec![(32, 16)]);
    }

    #[test]
    fn compilation_is_deterministic() {
        let (map, _) = setup(120.0, 140.0);
        let opts = PlanOptions {
            frac_bits: vec![12],
            tiles: vec![(32, 16)],
            interp: Interpolator::Bilinear,
        };
        let a = RemapPlan::compile(&map, opts.clone());
        let b = RemapPlan::compile(&map, opts);
        assert_eq!(a.digest(), b.digest());
        // and the digest does distinguish different maps
        let (map2, _) = setup(180.0, 90.0);
        let c = RemapPlan::compile(&map2, PlanOptions::default());
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn plan_bytes_cover_all_artifacts() {
        let (map, _) = setup(180.0, 90.0);
        let bare = RemapPlan::compile(&map, PlanOptions::default());
        let loaded = RemapPlan::compile(
            &map,
            PlanOptions {
                frac_bits: vec![12],
                ..Default::default()
            },
        );
        assert!(loaded.bytes() > bare.bytes());
        assert!(bare.bytes() > map.bytes());
    }

    #[test]
    fn full_coverage_plan_is_twelve_bytes_per_pixel_plus_spans() {
        // the 8 B/px map plus the 4 B/px corner plane, and one span
        // per row
        let (map, _) = setup(180.0, 90.0);
        let plan = RemapPlan::compile(&map, PlanOptions::default());
        assert_eq!(plan.invalid_pixels(), 0);
        let px = 80 * 60;
        let spans = 60 * std::mem::size_of::<ValidSpan>();
        assert_eq!(std::mem::size_of::<Corner>(), 4);
        assert_eq!(plan.bytes(), 12 * px + spans);
    }

    #[test]
    fn corners_are_interior_exactly_where_no_tap_clamps() {
        let at = |sx: f32, sy: f32, dims| Corner::of(crate::map::MapEntry { sx, sy }, dims);
        let d = (10, 6);
        assert_eq!(at(0.5, 0.5, d), Corner { x: 0, y: 0 });
        assert_eq!(at(5.25, 3.75, d), Corner { x: 4, y: 3 });
        // the last interior footprint starts at (dim - 2)
        assert_eq!(at(9.49, 5.49, d), Corner { x: 8, y: 4 });
        // touching or crossing any of the four borders
        for (sx, sy) in [(0.49, 3.0), (9.5, 3.0), (5.0, 0.49), (5.0, 5.5)] {
            assert_eq!(at(sx, sy, d), Corner::EDGE, "({sx}, {sy})");
        }
        assert_eq!(at(f32::NAN, f32::NAN, d), Corner::EDGE);
        assert_eq!(at(f32::INFINITY, 1.0, d), Corner::EDGE);
        // 1-wide and 1-tall sources have no interior footprint
        assert_eq!(at(0.5, 2.0, (1, 6)), Corner::EDGE);
        assert_eq!(at(2.0, 0.5, (10, 1)), Corner::EDGE);
        // a source dimension past u16::MAX falls back to EDGE everywhere
        assert_eq!(at(5.0, 3.0, (70_000, 6)), Corner::EDGE);
        assert_eq!(at(5.0, 3.0, (10, 70_000)), Corner::EDGE);
        assert_eq!(at(5.0, 3.0, (65_535, 6)), Corner { x: 4, y: 2 });
    }

    #[test]
    fn request_digest_is_deterministic_and_parameter_sensitive() {
        let lens = FisheyeLens::equidistant_fov(64, 48, 180.0);
        let view = PerspectiveView::centered(32, 24, 90.0);
        let opts = PlanOptions::default();
        let base = plan_request_digest(&lens, &view, 64, 48, &opts);
        assert_eq!(base, plan_request_digest(&lens, &view, 64, 48, &opts));

        let mut panned = view;
        panned.pan += 1e-9; // any bit flip must re-key
        assert_ne!(base, plan_request_digest(&lens, &panned, 64, 48, &opts));
        assert_ne!(base, plan_request_digest(&lens, &view, 65, 48, &opts));
        let loaded = PlanOptions {
            frac_bits: vec![12],
            ..Default::default()
        };
        assert_ne!(base, plan_request_digest(&lens, &view, 64, 48, &loaded));
        let nearest = PlanOptions {
            interp: Interpolator::Nearest,
            ..Default::default()
        };
        assert_ne!(base, plan_request_digest(&lens, &view, 64, 48, &nearest));
    }
}
