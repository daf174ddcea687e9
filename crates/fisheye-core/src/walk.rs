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
//!   over a run: the scalar nearest/bilinear/bicubic kernels
//!   (`Scalar`), the 4-lane bilinear kernel (`simd::Lanes`) or the
//!   fixed-point LUT kernel (`Fixed`).
//! * a **post operation** (`PostOp`) applied to every pixel as it is
//!   produced — sampled runs and gap fill alike. No post and a
//!   compiled `PostPlan` are separate monomorphizations, so the
//!   plain walk carries no per-pixel branch.
//!
//! Every run inside a program is valid by construction (the span index
//! excludes invalid map entries, and a quantized LUT marks an entry
//! invalid exactly when its float entry is), so no sampler checks
//! validity per pixel.

use std::borrow::Borrow;
use std::ops::Deref;
use std::sync::Arc;

use par_runtime::{Schedule, ThreadPool};
use pixmap::{Image, Pixel};

use crate::engine::EnginePixel;
use crate::interp::{sample_bicubic, sample_bilinear, sample_nearest, Interpolator};
use crate::map::{FixedMapEntry, FixedRemapMap};
use crate::plan::RemapPlan;
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

    /// The value of output pixel `x` (the `i`-th pixel) of a blend run
    /// of row `y` whose weights start at `woff`.
    fn blend<S: Sampler<P>>(&self, sampler: &S, y: u32, x: usize, woff: usize, i: usize) -> P;
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

    fn blend<S: Sampler<P>>(&self, _: &S, _: u32, _: usize, _: usize, _: usize) -> P {
        // a single plan never emits a blend run
        P::BLACK
    }
}

/// How one source is gathered over a run.
pub(crate) trait Sampler<P: Pixel>: Sync {
    /// Sample source `source` at row `y`'s coordinates for output
    /// columns `start .. start + out.len()`, passing each sample
    /// through `post` as it is stored.
    fn span<Q: PostOp<P>>(&self, source: usize, y: u32, start: usize, out: &mut [P], post: &Q);

    /// One sample of source `source` at output pixel `(x, y)`.
    fn pixel(&self, source: usize, y: u32, x: usize) -> P;
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

impl<P: EnginePixel> PostOp<P> for PostPlan {
    #[inline(always)]
    fn apply(&self, v: P, x: usize, y: u32) -> P {
        v.post_pixel(self, x as u32, y)
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
    /// Source `source`'s frame and its plan's coordinate rows `y`.
    #[inline]
    pub fn row(&self, source: usize, y: u32) -> (&'a Image<P>, &'a [f32], &'a [f32]) {
        let plan: &'a RemapPlan = self.plans[source].borrow();
        (self.frames[source], plan.row_sx(y), plan.row_sy(y))
    }
}

/// The scalar float sampler: any per-coordinate kernel
/// (`sample_nearest`, `sample_bilinear`, `sample_bicubic`) over the
/// plans' SoA coordinate planes.
pub(crate) struct Scalar<'a, P: Pixel, R, K> {
    pub sources: Sources<'a, P, R>,
    pub kernel: K,
}

impl<P, R, K> Sampler<P> for Scalar<'_, P, R, K>
where
    P: Pixel,
    R: Borrow<RemapPlan> + Sync,
    K: Fn(&Image<P>, f32, f32) -> P + Sync,
{
    #[inline]
    fn span<Q: PostOp<P>>(&self, source: usize, y: u32, start: usize, out: &mut [P], post: &Q) {
        let (src, sx, sy) = self.sources.row(source, y);
        let r = start..start + out.len();
        scalar_span(
            &self.kernel,
            src,
            &sx[r.clone()],
            &sy[r],
            post,
            (start, y),
            out,
        );
    }

    #[inline]
    fn pixel(&self, source: usize, y: u32, x: usize) -> P {
        let (src, sx, sy) = self.sources.row(source, y);
        (self.kernel)(src, sx[x], sy[x])
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

    #[inline]
    fn pixel(&self, source: usize, y: u32, x: usize) -> P {
        let e = &self.luts[source].row(y)[x];
        P::sample_fixed(self.frames[source], e, self.frac_bits)
    }
}

// The span kernels: each sampler's inner loop, kept out of line with
// the frame, coordinates and output as plain arguments so the
// optimizer sees them as non-aliasing for the whole loop.

/// Scalar kernel over one span starting at output pixel `(start, y)`.
#[inline(never)]
fn scalar_span<P: Pixel, K: Fn(&Image<P>, f32, f32) -> P, Q: PostOp<P>>(
    kernel: &K,
    src: &Image<P>,
    sx: &[f32],
    sy: &[f32],
    post: &Q,
    (start, y): (usize, u32),
    out: &mut [P],
) {
    // zipped iterators: the span is the bulk of the surface and must
    // not pay per-pixel bounds checks
    for (i, ((cx, cy), o)) in sx.iter().zip(sy).zip(out).enumerate() {
        *o = post.apply(kernel(src, *cx, *cy), start + i, y);
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
            Seg::Blend { woff, .. } => {
                for (i, o) in out_row[start..end].iter_mut().enumerate() {
                    let x = start + i;
                    *o = post.apply(program.blend(sampler, y, x, woff as usize, i), x, y);
                }
            }
        }
        cursor = end;
    }
    let len = out_row.len();
    fill(post, y, cursor, &mut out_row[cursor..len]);
}

/// Gap fill: black through post (dither makes even the fill
/// coordinate-dependent).
#[inline]
fn fill<P: Pixel, Q: PostOp<P>>(post: &Q, y: u32, from: usize, out: &mut [P]) {
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

/// [`walk_frame`] with the scalar sampler for `interp`: the kernel
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
            let kernel = sample_nearest::<P>;
            walk_frame(program, &Scalar { sources, kernel }, post, pool, out)
        }
        Interpolator::Bilinear => {
            let kernel = sample_bilinear::<P>;
            walk_frame(program, &Scalar { sources, kernel }, post, pool, out)
        }
        Interpolator::Bicubic => {
            let kernel = sample_bicubic::<P>;
            walk_frame(program, &Scalar { sources, kernel }, post, pool, out)
        }
    }
}
