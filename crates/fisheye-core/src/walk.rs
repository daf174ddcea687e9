//! The span walker: the one row traversal every host backend runs.
//!
//! The paper ports *one* undistortion kernel to every platform, so
//! the host backends differ only in what they plug into this walk:
//!
//! * a **row program** (`Program`) — which runs make up each output
//!   row. A `RemapPlan`'s valid spans are the one-source case (every
//!   span an exclusive run of source 0); a composite plan's
//!   exclusive/blend segments are the general case. Gaps between runs
//!   fill black.
//! * a **span sampler** (`Sampler`) — how one source is gathered
//!   over a run: the float kernels (`Scalar`) or the fixed-point LUT
//!   kernel (`Fixed`). The float kernels read each plan's map row
//!   and, for bilinear, its corner row: `serial`, `smp` and `simd`
//!   all run the one corner sampler
//!   (`sample_bilinear_corner`), which needs no `floor` and no
//!   clamp for an interior pixel. Nearest and bicubic read the map
//!   row alone.
//! * a **post operation** (`PostOp`) applied to every pixel as it is
//!   produced — sampled runs and gap fill alike. No post, a
//!   dither-free post (one byte-table load) and a dithered post are
//!   separate monomorphizations chosen once per frame, so no walk
//!   carries a per-pixel test of what the post stage does.
//!
//! Every exclusive run is valid by construction (the span index
//! excludes invalid map entries, and a quantized LUT marks an entry
//! invalid exactly when its float entry is), so no sampler checks
//! validity per pixel. A blend run gathers each source over the whole
//! run, including pixels where that source has weight 0 and may be
//! invalid: every sampler reads an invalid entry as a clamped border
//! texel, and the blend never uses it.

use std::borrow::Borrow;
use std::ops::Deref;
use std::sync::Arc;

use par_runtime::{Schedule, ThreadPool};
use pixmap::{Image, Pixel};

use crate::engine::EnginePixel;
use crate::interp::{sample_bicubic, sample_bilinear_corner, sample_nearest, Interpolator};
use crate::map::{FixedMapEntry, FixedRemapMap, MapEntry};
use crate::plan::{Corner, RemapPlan};
use crate::post::PostPlan;

/// One run of output pixels within a row program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Seg {
    /// Every pixel in `[start, end)` reads exactly one source.
    Exclusive { source: u16, start: u32, end: u32 },
    /// Every pixel in `[start, end)` blends ≥ 2 sources with the
    /// quantized weights at `weights[woff + (x − start) · n ..][..n]`.
    Blend { start: u32, end: u32, woff: u32 },
}

/// The run program of an output surface: the runs of each row and how
/// its blend runs mix their sources.
pub(crate) trait Program<P: Pixel>: Sync {
    /// Row `y`'s runs, left to right, non-overlapping.
    fn runs(&self, y: u32) -> impl Iterator<Item = Seg> + '_;

    /// Fill `out`, the blend run of row `y` starting at output column
    /// `start` (`at = (start, y)`) whose weights start at `woff`,
    /// passing each pixel through `post`.
    fn blend_run<S: Sampler<P>, Q: PostOp<P>>(
        &self,
        sampler: &S,
        post: &Q,
        at: (usize, u32),
        woff: usize,
        out: &mut [P],
    );
}

/// A plan's valid spans: exclusive runs of source 0, no blends.
impl<P: Pixel> Program<P> for RemapPlan {
    #[inline]
    fn runs(&self, y: u32) -> impl Iterator<Item = Seg> + '_ {
        self.spans(y).iter().map(|s| Seg::Exclusive {
            source: 0,
            start: s.start,
            end: s.end,
        })
    }

    fn blend_run<S: Sampler<P>, Q: PostOp<P>>(
        &self,
        _: &S,
        post: &Q,
        (start, y): (usize, u32),
        _: usize,
        out: &mut [P],
    ) {
        // a single plan never emits a blend run
        fill(post, y, start, out);
    }
}

/// How one source is gathered over a run.
pub(crate) trait Sampler<P: Pixel>: Sync {
    /// Sample source `source` at row `y`'s map entries for output
    /// columns `start .. start + out.len()`, passing each sample
    /// through `post` as it is stored.
    fn span<Q: PostOp<P>>(&self, source: usize, y: u32, start: usize, out: &mut [P], post: &Q);
}

/// The per-pixel post operation the walk applies as it stores.
pub(crate) trait PostOp<P: Pixel>: Sync {
    /// Post-process the value produced for output pixel `(x, y)`.
    fn apply(&self, v: P, x: usize, y: u32) -> P;
}

/// No post stage: the identity, compiled away.
pub(crate) struct NoPost;

impl<P: Pixel> PostOp<P> for NoPost {
    #[inline(always)]
    fn apply(&self, v: P, _: usize, _: u32) -> P {
        v
    }
}

/// A compiled post stage with dither: the full per-pixel transfer.
impl<P: EnginePixel> PostOp<P> for PostPlan {
    #[inline(always)]
    fn apply(&self, v: P, x: usize, y: u32) -> P {
        v.post_pixel(self, x as u32, y)
    }
}

/// A compiled post stage without dither: coordinate-free, so a byte
/// plane costs one table load per pixel and no dither test.
pub(crate) struct TablePost<'a>(pub &'a PostPlan);

impl<P: EnginePixel> PostOp<P> for TablePost<'_> {
    #[inline(always)]
    fn apply(&self, v: P, _: usize, _: u32) -> P {
        v.post_table(self.0)
    }
}

/// The sources a sampler gathers from: one frame and one compiled
/// plan per source, in program source order.
pub(crate) struct Sources<'a, P: Pixel, R> {
    pub frames: &'a [&'a Image<P>],
    pub plans: &'a [R],
}

impl<P: Pixel, R> Clone for Sources<'_, P, R> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<P: Pixel, R> Copy for Sources<'_, P, R> {}

impl<'a, P: Pixel, R: Borrow<RemapPlan>> Sources<'a, P, R> {
    /// Source `source`'s frame and its plan's map and corner rows `y`.
    #[inline]
    pub fn row(&self, source: usize, y: u32) -> (&'a Image<P>, &'a [MapEntry], &'a [Corner]) {
        let plan: &'a RemapPlan = self.plans[source].borrow();
        (self.frames[source], plan.map().row(y), plan.row_corners(y))
    }
}

/// A float kernel: one sample per map entry and its corner.
pub(crate) trait Kernel<P: Pixel>: Sync {
    fn sample(&self, src: &Image<P>, e: MapEntry, c: Corner) -> P;
}

/// Nearest at the entry's coordinates.
pub(crate) struct Nearest;

/// The corner bilinear ([`sample_bilinear_corner`]).
pub(crate) struct Bilinear;

/// Bicubic at the entry's coordinates.
pub(crate) struct Bicubic;

// `inline(always)`: each span loop must see its kernel's body, not a
// call per pixel

impl<P: Pixel> Kernel<P> for Nearest {
    #[inline(always)]
    fn sample(&self, src: &Image<P>, e: MapEntry, _: Corner) -> P {
        sample_nearest(src, e.sx, e.sy)
    }
}

impl<P: Pixel> Kernel<P> for Bilinear {
    #[inline(always)]
    fn sample(&self, src: &Image<P>, e: MapEntry, c: Corner) -> P {
        sample_bilinear_corner(src, e, c)
    }
}

impl<P: Pixel> Kernel<P> for Bicubic {
    #[inline(always)]
    fn sample(&self, src: &Image<P>, e: MapEntry, _: Corner) -> P {
        sample_bicubic(src, e.sx, e.sy)
    }
}

/// The float sampler: one kernel over the plans' map and corner rows.
pub(crate) struct Scalar<'a, P: Pixel, R, K> {
    pub sources: Sources<'a, P, R>,
    pub kernel: K,
}

impl<P, R, K> Sampler<P> for Scalar<'_, P, R, K>
where
    P: Pixel,
    R: Borrow<RemapPlan> + Sync,
    K: Kernel<P>,
{
    #[inline]
    fn span<Q: PostOp<P>>(&self, source: usize, y: u32, start: usize, out: &mut [P], post: &Q) {
        let (src, entries, corners) = self.sources.row(source, y);
        let r = start..start + out.len();
        scalar_span(
            &self.kernel,
            src,
            &entries[r.clone()],
            &corners[r],
            post,
            (start, y),
            out,
        );
    }
}

/// A quantized LUT either borrowed from a plan's compiled set or
/// derived on demand through the plan's memo.
pub(crate) enum Lut<'a> {
    Compiled(&'a FixedRemapMap),
    Derived(Arc<FixedRemapMap>),
}

impl Deref for Lut<'_> {
    type Target = FixedRemapMap;

    fn deref(&self) -> &FixedRemapMap {
        match self {
            Lut::Compiled(l) => l,
            Lut::Derived(l) => l,
        }
    }
}

/// The fixed-point sampler: integer bilinear through one quantized LUT
/// per source.
pub(crate) struct Fixed<'a, P: Pixel> {
    pub frames: &'a [&'a Image<P>],
    pub luts: &'a [Lut<'a>],
    pub frac_bits: u32,
}

impl<P: EnginePixel> Sampler<P> for Fixed<'_, P> {
    #[inline]
    fn span<Q: PostOp<P>>(&self, source: usize, y: u32, start: usize, out: &mut [P], post: &Q) {
        let lut = &self.luts[source].row(y)[start..start + out.len()];
        fixed_span(
            self.frames[source],
            lut,
            self.frac_bits,
            post,
            (start, y),
            out,
        );
    }
}

// The span kernels: each sampler's inner loop, kept out of line with
// the frame, coordinates and output as plain arguments so the
// optimizer sees them as non-aliasing for the whole loop.

/// Float kernel over one span starting at output pixel `(start, y)`.
#[inline(never)]
fn scalar_span<P: Pixel, K: Kernel<P>, Q: PostOp<P>>(
    kernel: &K,
    src: &Image<P>,
    entries: &[MapEntry],
    corners: &[Corner],
    post: &Q,
    (start, y): (usize, u32),
    out: &mut [P],
) {
    // zipped iterators: the span is the bulk of the surface and must
    // not pay per-pixel bounds checks
    for (i, ((e, c), o)) in entries.iter().zip(corners).zip(out).enumerate() {
        *o = post.apply(kernel.sample(src, *e, *c), start + i, y);
    }
}

/// Fixed-point kernel over one span of quantized LUT entries.
#[inline(never)]
fn fixed_span<P: EnginePixel, Q: PostOp<P>>(
    src: &Image<P>,
    lut: &[FixedMapEntry],
    frac_bits: u32,
    post: &Q,
    (start, y): (usize, u32),
    out: &mut [P],
) {
    for (i, (e, o)) in lut.iter().zip(out).enumerate() {
        *o = post.apply(P::sample_fixed(src, e, frac_bits), start + i, y);
    }
}

/// Walk one output row: fill the gaps, sample the exclusive runs,
/// blend the blend runs, all through `post` in one traversal.
#[inline]
pub(crate) fn walk_row<P, G, S, Q>(program: &G, sampler: &S, post: &Q, y: u32, out_row: &mut [P])
where
    P: Pixel,
    G: Program<P>,
    S: Sampler<P>,
    Q: PostOp<P>,
{
    let mut cursor = 0usize;
    for run in program.runs(y) {
        let (start, end) = match run {
            Seg::Exclusive { start, end, .. } | Seg::Blend { start, end, .. } => {
                (start as usize, end as usize)
            }
        };
        fill(post, y, cursor, &mut out_row[cursor..start]);
        match run {
            Seg::Exclusive { source, .. } => {
                sampler.span(source as usize, y, start, &mut out_row[start..end], post)
            }
            Seg::Blend { woff, .. } => program.blend_run(
                sampler,
                post,
                (start, y),
                woff as usize,
                &mut out_row[start..end],
            ),
        }
        cursor = end;
    }
    let len = out_row.len();
    fill(post, y, cursor, &mut out_row[cursor..len]);
}

/// Gap fill: black through post (dither makes even the fill
/// coordinate-dependent).
#[inline]
pub(crate) fn fill<P: Pixel, Q: PostOp<P>>(post: &Q, y: u32, from: usize, out: &mut [P]) {
    for (i, o) in out.iter_mut().enumerate() {
        *o = post.apply(P::BLACK, from + i, y);
    }
}

/// Walk every row of `out`, serially or distributed over a pool.
pub(crate) fn walk_frame<P, G, S, Q>(
    program: &G,
    sampler: &S,
    post: &Q,
    pool: Option<(&ThreadPool, Schedule)>,
    out: &mut Image<P>,
) where
    P: Pixel,
    G: Program<P>,
    S: Sampler<P>,
    Q: PostOp<P>,
{
    let w = (out.dims().0 as usize).max(1);
    match pool {
        None => {
            for (y, row) in out.pixels_mut().chunks_mut(w).enumerate() {
                walk_row(program, sampler, post, y as u32, row);
            }
        }
        Some((pool, schedule)) => pool.parallel_rows(out.pixels_mut(), w, schedule, &|y, row| {
            walk_row(program, sampler, post, y as u32, row)
        }),
    }
}

/// [`walk_frame`] with the float sampler for `interp`: the kernel
/// dispatch is hoisted out of the pixel loop, one monomorphization per
/// kernel.
pub(crate) fn walk_scalar<P, G, R, Q>(
    program: &G,
    sources: Sources<'_, P, R>,
    interp: Interpolator,
    post: &Q,
    pool: Option<(&ThreadPool, Schedule)>,
    out: &mut Image<P>,
) where
    P: Pixel,
    G: Program<P>,
    R: Borrow<RemapPlan> + Sync,
    Q: PostOp<P>,
{
    match interp {
        Interpolator::Nearest => {
            let kernel = Nearest;
            walk_frame(program, &Scalar { sources, kernel }, post, pool, out)
        }
        Interpolator::Bilinear => {
            let kernel = Bilinear;
            walk_frame(program, &Scalar { sources, kernel }, post, pool, out)
        }
        Interpolator::Bicubic => {
            let kernel = Bicubic;
            walk_frame(program, &Scalar { sources, kernel }, post, pool, out)
        }
    }
}
