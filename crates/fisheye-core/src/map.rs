//! Remap LUT generation — phase 1 of the application.
//!
//! For every output pixel the LUT stores where in the distorted source
//! frame its value comes from. Building the LUT costs one ray trace and
//! one lens projection per output pixel (trig-heavy, compute-bound);
//! applying it costs a few loads and multiplies (memory-bound). The
//! paper exploits exactly this asymmetry: the LUT is rebuilt only when
//! the view changes, and both phases are parallelized independently.
//!
//! Every builder compiles its view once per build
//! ([`PerspectiveView::rays`], [`fisheye_geom::OutputProjection::rays`]):
//! the focal length's `tan`, the pan/tilt/roll `sin_cos` and the
//! rotation's matrix products are per view. What is left per pixel of
//! a perspective view on an equidistant lens is one `atan2`, two
//! `sqrt` and five divisions (other lens models add their `sin`, `tan`
//! or `asin` of θ).

use fisheye_geom::{BrownConrady, FisheyeLens, PerspectiveView};
use par_runtime::{Schedule, ThreadPool};

/// One LUT entry: source coordinates in the distorted frame, or
/// invalid (output pixel looks outside the lens's field of view).
///
/// Invalid entries are encoded as NaN coordinates so the struct stays
/// 8 bytes — the same compact layout a DMA-based implementation ships
/// to accelerator local stores.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MapEntry {
    /// Source x in pixels (NaN when invalid).
    pub sx: f32,
    /// Source y in pixels (NaN when invalid).
    pub sy: f32,
}

impl MapEntry {
    /// The invalid marker.
    pub const INVALID: MapEntry = MapEntry {
        sx: f32::NAN,
        sy: f32::NAN,
    };

    /// Whether this entry maps to a real source location.
    #[inline]
    pub fn is_valid(&self) -> bool {
        self.sx.is_finite()
    }
}

/// A float remap LUT for one (lens, view) pair.
///
/// ```
/// use fisheye_core::{RemapMap, correct, Interpolator};
/// use fisheye_geom::{FisheyeLens, PerspectiveView};
///
/// let lens = FisheyeLens::equidistant_fov(160, 120, 180.0);
/// let view = PerspectiveView::centered(80, 60, 90.0);
/// let map = RemapMap::build(&lens, &view, 160, 120);
/// assert_eq!((map.width(), map.height()), (80, 60));
/// assert_eq!(map.coverage(), 1.0); // 90° view fits a 180° lens
///
/// let frame = pixmap::scene::random_gray(160, 120, 1);
/// let out = correct(&frame, &map, Interpolator::Bilinear);
/// assert_eq!(out.dims(), (80, 60));
/// ```
#[derive(Clone, Debug)]
pub struct RemapMap {
    width: u32,
    height: u32,
    src_width: u32,
    src_height: u32,
    entries: Vec<MapEntry>,
}

impl RemapMap {
    /// Build serially (the single-core baseline of experiment F1).
    pub fn build(lens: &FisheyeLens, view: &PerspectiveView, src_w: u32, src_h: u32) -> Self {
        Self::build_pooled(lens, view, src_w, src_h, None)
    }

    /// Build on a thread pool under the given schedule (phase-1
    /// multicore kernel of experiments F1/F2).
    pub fn build_parallel(
        lens: &FisheyeLens,
        view: &PerspectiveView,
        src_w: u32,
        src_h: u32,
        pool: &ThreadPool,
        schedule: Schedule,
    ) -> Self {
        Self::build_pooled(lens, view, src_w, src_h, Some((pool, schedule)))
    }

    /// Shared perspective builder: serial when `pool` is `None`,
    /// row-parallel otherwise. Both run the same row fill, so the two
    /// paths cannot drift apart numerically.
    pub fn build_pooled(
        lens: &FisheyeLens,
        view: &PerspectiveView,
        src_w: u32,
        src_h: u32,
        pool: Option<(&ThreadPool, Schedule)>,
    ) -> Self {
        let m = Self::empty(view.width, view.height, src_w, src_h);
        let rays = view.rays();
        m.fill_rows(pool, &|fx, fy| lens.project(rays.ray(fx, fy)))
    }

    /// Build for an arbitrary output projection (perspective,
    /// cylindrical, equirectangular — see
    /// [`fisheye_geom::OutputProjection`]).
    pub fn build_projection(
        lens: &FisheyeLens,
        proj: &fisheye_geom::OutputProjection,
        src_w: u32,
        src_h: u32,
    ) -> Self {
        Self::build_projection_pooled(lens, proj, src_w, src_h, None)
    }

    /// Parallel variant of [`RemapMap::build_projection`].
    pub fn build_projection_parallel(
        lens: &FisheyeLens,
        proj: &fisheye_geom::OutputProjection,
        src_w: u32,
        src_h: u32,
        pool: &ThreadPool,
        schedule: Schedule,
    ) -> Self {
        Self::build_projection_pooled(lens, proj, src_w, src_h, Some((pool, schedule)))
    }

    /// Shared projection builder: serial when `pool` is `None`,
    /// row-parallel otherwise.
    pub fn build_projection_pooled(
        lens: &FisheyeLens,
        proj: &fisheye_geom::OutputProjection,
        src_w: u32,
        src_h: u32,
        pool: Option<(&ThreadPool, Schedule)>,
    ) -> Self {
        let (w, h) = proj.dims();
        let m = Self::empty(w, h, src_w, src_h);
        let rays = proj.rays();
        m.fill_rows(pool, &|fx, fy| lens.project(rays.ray(fx, fy)))
    }

    /// Build the half-resolution chroma map of a 4:2:0 frame by
    /// tracing the *full-resolution* geometry and halving the source
    /// coordinates.
    ///
    /// A chroma pixel `(x, y)` covers the 2×2 luma block whose center
    /// sits at luma coordinate `(2x+1, 2y+1)`, so its ray is the
    /// full-res view's ray at that coordinate and its source location
    /// is exactly half the luma source location. Deriving a scaled
    /// lens plus an integer half-size view instead (the previous
    /// approach) is only equivalent when the full-res dimensions are
    /// even: `ceil(d/2)` plane dimensions shift the implicit view
    /// center by a quarter chroma pixel — half a luma pixel — and
    /// inflate the focal length on odd-sized frames. Building from
    /// the luma geometry keeps chroma aligned for every parity.
    pub fn build_half_chroma(
        lens: &FisheyeLens,
        view: &PerspectiveView,
        src_w: u32,
        src_h: u32,
        pool: Option<(&ThreadPool, Schedule)>,
    ) -> Self {
        let m = Self::empty(
            view.width.div_ceil(2),
            view.height.div_ceil(2),
            src_w.div_ceil(2),
            src_h.div_ceil(2),
        );
        let (sw, sh) = (src_w as f64, src_h as f64);
        let rays = view.rays();
        m.fill_rows(pool, &|fx, fy| {
            // validity is decided against the luma frame: the ceil'd
            // chroma plane may carry a padding column/row that no
            // luma pixel backs
            let (sx, sy) = lens.project(rays.ray(2.0 * fx, 2.0 * fy))?;
            (sx >= 0.0 && sx < sw && sy >= 0.0 && sy < sh).then_some((sx * 0.5, sy * 0.5))
        })
    }

    /// Run the single row-fill implementation over every row of this
    /// map — serially, or on `pool` under its schedule.
    fn fill_rows(
        mut self,
        pool: Option<(&ThreadPool, Schedule)>,
        project: &(impl Fn(f64, f64) -> Option<(f64, f64)> + Sync),
    ) -> Self {
        let w = self.width as usize;
        let (src_w, src_h) = (self.src_width, self.src_height);
        match pool {
            Some((pool, schedule)) => {
                pool.parallel_rows(&mut self.entries, w, schedule, &|row, slice| {
                    fill_row(project, src_w, src_h, row as u32, slice);
                });
            }
            None => {
                for y in 0..self.height {
                    let row = &mut self.entries[(y as usize) * w..][..w];
                    fill_row(project, src_w, src_h, y, row);
                }
            }
        }
        self
    }

    /// Build from the Brown–Conrady baseline model instead of the
    /// exact lens inverse: output pixels are treated as undistorted
    /// normalized coordinates, the polynomial maps them to distorted
    /// coordinates in the same frame. `focal_px` scales normalized
    /// units to pixels around the frame centers.
    pub fn build_brown_conrady(
        bc: &BrownConrady,
        focal_px: f64,
        out_w: u32,
        out_h: u32,
        src_w: u32,
        src_h: u32,
    ) -> Self {
        let mut m = Self::empty(out_w, out_h, src_w, src_h);
        let cx_o = out_w as f64 / 2.0;
        let cy_o = out_h as f64 / 2.0;
        let cx_s = src_w as f64 / 2.0;
        let cy_s = src_h as f64 / 2.0;
        for y in 0..out_h {
            for x in 0..out_w {
                let nx = (x as f64 + 0.5 - cx_o) / focal_px;
                let ny = (y as f64 + 0.5 - cy_o) / focal_px;
                let (dx, dy) = bc.distort(nx, ny);
                let sx = dx * focal_px + cx_s;
                let sy = dy * focal_px + cy_s;
                let e = if sx >= 0.0 && sx < src_w as f64 && sy >= 0.0 && sy < src_h as f64 {
                    MapEntry {
                        sx: sx as f32,
                        sy: sy as f32,
                    }
                } else {
                    MapEntry::INVALID
                };
                m.entries[(y * out_w + x) as usize] = e;
            }
        }
        m
    }

    /// Assemble a map from precomputed entries (row-major). Used by
    /// alternative map generators (e.g. the `streamsim` fixed-point
    /// datapath) so they can share this type's quantizer and the
    /// correction kernels.
    pub fn from_entries(
        width: u32,
        height: u32,
        src_width: u32,
        src_height: u32,
        entries: Vec<MapEntry>,
    ) -> Self {
        assert_eq!(
            entries.len(),
            width as usize * height as usize,
            "entry count does not match dimensions"
        );
        RemapMap {
            width,
            height,
            src_width,
            src_height,
            entries,
        }
    }

    fn empty(width: u32, height: u32, src_width: u32, src_height: u32) -> Self {
        RemapMap {
            width,
            height,
            src_width,
            src_height,
            entries: vec![MapEntry::INVALID; width as usize * height as usize],
        }
    }

    /// Output width.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Output height.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Source frame dimensions this map was built for.
    #[inline]
    pub fn src_dims(&self) -> (u32, u32) {
        (self.src_width, self.src_height)
    }

    /// Entry for output pixel `(x, y)`.
    #[inline]
    pub fn entry(&self, x: u32, y: u32) -> MapEntry {
        self.entries[(y * self.width + x) as usize]
    }

    /// All entries, row-major.
    #[inline]
    pub fn entries(&self) -> &[MapEntry] {
        &self.entries
    }

    /// One output row of entries.
    #[inline]
    pub fn row(&self, y: u32) -> &[MapEntry] {
        &self.entries[(y as usize) * self.width as usize..][..self.width as usize]
    }

    /// Fraction of output pixels with a valid source.
    pub fn coverage(&self) -> f64 {
        let valid = self.entries.iter().filter(|e| e.is_valid()).count();
        valid as f64 / self.entries.len().max(1) as f64
    }

    /// Size in bytes of the LUT (what phase 2 must stream per frame in
    /// addition to the pixels).
    pub fn bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<MapEntry>()
    }

    /// Quantize to a fixed-point map with `frac_bits` fractional
    /// weight bits (experiment F7 sweeps this).
    pub fn to_fixed(&self, frac_bits: u32) -> FixedRemapMap {
        assert!(
            (1..=15).contains(&frac_bits),
            "weights are u16: 1..=15 bits"
        );
        let scale = (1u32 << frac_bits) as f32;
        let entries = self
            .entries
            .iter()
            .map(|e| {
                if !e.is_valid() {
                    return FixedMapEntry::INVALID;
                }
                // bilinear decomposition: integer corner + fractional weight
                let fx = e.sx - 0.5;
                let fy = e.sy - 0.5;
                let x0 = fx.floor();
                let y0 = fy.floor();
                let wx = ((fx - x0) * scale + 0.5) as u16;
                let wy = ((fy - y0) * scale + 0.5) as u16;
                // weights live in [0, 2^frac] inclusive; the
                // interpolator treats 2^frac as exactly 1.0
                FixedMapEntry {
                    x0: x0 as i16,
                    y0: y0 as i16,
                    wx: wx.min(scale as u16),
                    wy: wy.min(scale as u16),
                }
            })
            .collect();
        FixedRemapMap {
            width: self.width,
            height: self.height,
            src_width: self.src_width,
            src_height: self.src_height,
            frac_bits,
            entries,
        }
    }
}

/// Compute one output row of LUT entries. This is the single row-fill
/// implementation behind every builder (perspective, projection, half
/// chroma) in both serial and pooled form, so the variants cannot
/// drift apart numerically. `project` maps an output pixel-center
/// coordinate to a source coordinate (`None` = no ray / off-sensor);
/// the shared source-rectangle bounds policy lives here. Builders
/// hand it a closure over a ray generator compiled once per build, so
/// `project` carries only per-pixel work: the ray's normalization
/// (one `sqrt`, three divisions) and the lens projection (`atan2` of
/// the off-axis distance, one `sqrt`, two divisions).
///
/// The row is processed in fixed-width lanes: the trig-heavy
/// projection fills small staging arrays, and the branch-light
/// bounds-check + f32 conversion over those arrays is left in a shape
/// the compiler can vectorize. The scalar remainder applies the same
/// per-pixel operations in the same order, keeping the lane split
/// bit-exact.
fn fill_row(
    project: &(impl Fn(f64, f64) -> Option<(f64, f64)> + Sync),
    src_w: u32,
    src_h: u32,
    y: u32,
    row: &mut [MapEntry],
) {
    const LANES: usize = 4;
    let (sw, sh) = (src_w as f64, src_h as f64);
    let fy = y as f64 + 0.5;
    let mut x0 = 0usize;
    let mut chunks = row.chunks_exact_mut(LANES);
    for chunk in &mut chunks {
        let mut sx = [0.0f64; LANES];
        let mut sy = [0.0f64; LANES];
        let mut ok = [false; LANES];
        for lane in 0..LANES {
            if let Some((px, py)) = project((x0 + lane) as f64 + 0.5, fy) {
                sx[lane] = px;
                sy[lane] = py;
                ok[lane] = true;
            }
        }
        for lane in 0..LANES {
            let valid =
                ok[lane] && sx[lane] >= 0.0 && sx[lane] < sw && sy[lane] >= 0.0 && sy[lane] < sh;
            chunk[lane] = if valid {
                MapEntry {
                    sx: sx[lane] as f32,
                    sy: sy[lane] as f32,
                }
            } else {
                MapEntry::INVALID
            };
        }
        x0 += LANES;
    }
    for (i, e) in chunks.into_remainder().iter_mut().enumerate() {
        *e = match project((x0 + i) as f64 + 0.5, fy) {
            Some((px, py)) if px >= 0.0 && px < sw && py >= 0.0 && py < sh => MapEntry {
                sx: px as f32,
                sy: py as f32,
            },
            _ => MapEntry::INVALID,
        };
    }
}

/// A fixed-point LUT entry for hardware bilinear interpolation:
/// top-left source texel plus Q0.`frac` weights. 8 bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FixedMapEntry {
    /// Top-left texel x (may be −1 at the border; `i16::MIN` = invalid).
    pub x0: i16,
    /// Top-left texel y.
    pub y0: i16,
    /// Horizontal weight, Q0.frac.
    pub wx: u16,
    /// Vertical weight, Q0.frac.
    pub wy: u16,
}

impl FixedMapEntry {
    /// The invalid marker.
    pub const INVALID: FixedMapEntry = FixedMapEntry {
        x0: i16::MIN,
        y0: i16::MIN,
        wx: 0,
        wy: 0,
    };

    /// Whether this entry maps to a real source location.
    #[inline]
    pub fn is_valid(&self) -> bool {
        self.x0 != i16::MIN
    }
}

/// A quantized remap LUT (integer corners + Q0.n weights).
#[derive(Clone, Debug)]
pub struct FixedRemapMap {
    width: u32,
    height: u32,
    src_width: u32,
    src_height: u32,
    frac_bits: u32,
    entries: Vec<FixedMapEntry>,
}

impl FixedRemapMap {
    /// Output width.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Output height.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Source frame dimensions.
    #[inline]
    pub fn src_dims(&self) -> (u32, u32) {
        (self.src_width, self.src_height)
    }

    /// Fractional weight bits.
    #[inline]
    pub fn frac_bits(&self) -> u32 {
        self.frac_bits
    }

    /// Entry for output pixel `(x, y)`.
    #[inline]
    pub fn entry(&self, x: u32, y: u32) -> FixedMapEntry {
        self.entries[(y * self.width + x) as usize]
    }

    /// All entries, row-major.
    #[inline]
    pub fn entries(&self) -> &[FixedMapEntry] {
        &self.entries
    }

    /// One output row of entries.
    #[inline]
    pub fn row(&self, y: u32) -> &[FixedMapEntry] {
        &self.entries[(y as usize) * self.width as usize..][..self.width as usize]
    }

    /// LUT bytes per frame.
    pub fn bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<FixedMapEntry>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fisheye_geom::{FisheyeLens, PerspectiveView};

    fn setup() -> (FisheyeLens, PerspectiveView) {
        (
            FisheyeLens::equidistant_fov(320, 240, 180.0),
            PerspectiveView::centered(160, 120, 90.0),
        )
    }

    #[test]
    fn center_maps_to_center() {
        let (lens, view) = setup();
        let m = RemapMap::build(&lens, &view, 320, 240);
        let e = m.entry(80, 60); // output center
        assert!(e.is_valid());
        assert!((e.sx - 160.0).abs() < 1.0, "sx {}", e.sx);
        assert!((e.sy - 120.0).abs() < 1.0, "sy {}", e.sy);
    }

    #[test]
    fn straight_ahead_map_is_symmetric() {
        let (lens, view) = setup();
        let m = RemapMap::build(&lens, &view, 320, 240);
        for (a, b) in [((10u32, 60u32), (149u32, 60u32)), ((80, 10), (80, 109))] {
            let ea = m.entry(a.0, a.1);
            let eb = m.entry(b.0, b.1);
            assert!(ea.is_valid() && eb.is_valid());
            // horizontal mirror: sx reflects about source center
            assert!(
                (ea.sx + eb.sx - 320.0).abs() < 1e-3 || (ea.sy + eb.sy - 240.0).abs() < 1e-3,
                "{a:?}/{b:?}: ({},{}) vs ({},{})",
                ea.sx,
                ea.sy,
                eb.sx,
                eb.sy
            );
        }
    }

    #[test]
    fn barrel_compression_toward_edges() {
        // equidistant fisheye compresses edges: the source distance
        // covered by the outer half of the output row is smaller than
        // that covered by the inner half
        let (lens, view) = setup();
        let m = RemapMap::build(&lens, &view, 320, 240);
        let c = m.entry(80, 60).sx;
        let mid = m.entry(120, 60).sx;
        let edge = m.entry(159, 60).sx;
        let inner = mid - c;
        let outer = edge - mid;
        assert!(inner > 0.0 && outer > 0.0);
        assert!(
            outer < inner,
            "outer {outer} should compress vs inner {inner}"
        );
    }

    #[test]
    fn parallel_matches_serial_all_schedules() {
        let (lens, view) = setup();
        let serial = RemapMap::build(&lens, &view, 320, 240);
        let pool = ThreadPool::new(4);
        for sched in [
            Schedule::Static { chunk: None },
            Schedule::Static { chunk: Some(5) },
            Schedule::Dynamic { chunk: 3 },
            Schedule::Guided { min_chunk: 2 },
        ] {
            let par = RemapMap::build_parallel(&lens, &view, 320, 240, &pool, sched);
            assert_eq!(serial.entries(), par.entries(), "{sched:?}");
        }
    }

    #[test]
    fn wide_view_has_invalid_corners() {
        let lens = FisheyeLens::equidistant_fov(320, 240, 140.0);
        // a 150° output view looks beyond a 140° lens
        let view = PerspectiveView::centered(160, 120, 150.0);
        let m = RemapMap::build(&lens, &view, 320, 240);
        assert!(!m.entry(0, 0).is_valid(), "corner should be outside");
        assert!(m.entry(80, 60).is_valid());
        let cov = m.coverage();
        assert!(cov > 0.3 && cov < 1.0, "coverage {cov}");
    }

    #[test]
    fn narrow_view_fully_covered() {
        let (lens, _) = setup();
        let view = PerspectiveView::centered(160, 120, 60.0);
        let m = RemapMap::build(&lens, &view, 320, 240);
        assert_eq!(m.coverage(), 1.0);
    }

    #[test]
    fn panned_view_shifts_source_window() {
        let (lens, view) = setup();
        let m0 = RemapMap::build(&lens, &view, 320, 240);
        let m1 = RemapMap::build(&lens, &view.look(40.0, 0.0), 320, 240);
        // panning right moves the sampled region right
        let c0 = m0.entry(80, 60);
        let c1 = m1.entry(80, 60);
        assert!(c1.sx > c0.sx + 20.0, "{} vs {}", c1.sx, c0.sx);
    }

    #[test]
    fn map_bytes_and_dims() {
        let (lens, view) = setup();
        let m = RemapMap::build(&lens, &view, 320, 240);
        assert_eq!(m.width(), 160);
        assert_eq!(m.height(), 120);
        assert_eq!(m.src_dims(), (320, 240));
        assert_eq!(m.bytes(), 160 * 120 * 8);
        assert_eq!(m.row(5).len(), 160);
    }

    #[test]
    fn brown_conrady_identity_map_is_near_identity() {
        let bc = BrownConrady::default();
        let m = RemapMap::build_brown_conrady(&bc, 100.0, 64, 64, 64, 64);
        for (x, y) in [(32u32, 32u32), (10, 50), (60, 5)] {
            let e = m.entry(x, y);
            assert!(e.is_valid());
            assert!((e.sx - (x as f32 + 0.5)).abs() < 1e-4);
            assert!((e.sy - (y as f32 + 0.5)).abs() < 1e-4);
        }
    }

    #[test]
    fn brown_conrady_barrel_shrinks_field() {
        let bc = BrownConrady::radial(-0.3, 0.0, 0.0);
        let m = RemapMap::build_brown_conrady(&bc, 60.0, 64, 64, 64, 64);
        // barrel: corners map inside the source frame (valid), and
        // the corner source is closer to center than the corner itself
        let e = m.entry(0, 0);
        assert!(e.is_valid());
        let d_out = ((0.5f32 - 32.0).powi(2) + (0.5f32 - 32.0).powi(2)).sqrt();
        let d_src = ((e.sx - 32.0).powi(2) + (e.sy - 32.0).powi(2)).sqrt();
        assert!(d_src < d_out);
    }

    #[test]
    fn fixed_map_reconstructs_coordinates() {
        let (lens, view) = setup();
        let m = RemapMap::build(&lens, &view, 320, 240);
        let fm = m.to_fixed(8);
        assert_eq!(fm.frac_bits(), 8);
        assert_eq!(fm.bytes(), 160 * 120 * 8);
        let step = 1.0f32 / 256.0;
        for (x, y) in [(80u32, 60u32), (10, 10), (150, 110)] {
            let e = m.entry(x, y);
            let f = fm.entry(x, y);
            assert!(f.is_valid());
            let rx = f.x0 as f32 + f.wx as f32 * step + 0.5;
            let ry = f.y0 as f32 + f.wy as f32 * step + 0.5;
            assert!((rx - e.sx).abs() <= step, "x: {rx} vs {}", e.sx);
            assert!((ry - e.sy).abs() <= step, "y: {ry} vs {}", e.sy);
        }
    }

    #[test]
    fn fixed_map_preserves_invalid() {
        let lens = FisheyeLens::equidistant_fov(320, 240, 140.0);
        let view = PerspectiveView::centered(160, 120, 150.0);
        let m = RemapMap::build(&lens, &view, 320, 240);
        let fm = m.to_fixed(12);
        for y in 0..120 {
            for x in 0..160 {
                assert_eq!(m.entry(x, y).is_valid(), fm.entry(x, y).is_valid());
            }
        }
    }

    #[test]
    #[should_panic(expected = "1..=15")]
    fn fixed_map_rejects_wide_weights() {
        let (lens, view) = setup();
        let m = RemapMap::build(&lens, &view, 320, 240);
        let _ = m.to_fixed(16);
    }

    #[test]
    fn projection_map_perspective_matches_view_builder() {
        let (lens, view) = setup();
        let a = RemapMap::build(&lens, &view, 320, 240);
        let proj = fisheye_geom::OutputProjection::Perspective(view);
        let b = RemapMap::build_projection(&lens, &proj, 320, 240);
        assert_eq!(a.entries(), b.entries());
    }

    #[test]
    fn cylindrical_map_covers_wide_sweep() {
        let (lens, _) = setup();
        let proj = fisheye_geom::OutputProjection::cylinder_180(240, 80, 30.0);
        let m = RemapMap::build_projection(&lens, &proj, 320, 240);
        assert_eq!((m.width(), m.height()), (240, 80));
        // a 180° sweep stays inside a 180° lens: full coverage
        assert!(m.coverage() > 0.99, "coverage {}", m.coverage());
        // far-left output samples the left edge of the image circle
        let e = m.entry(0, 40);
        assert!(e.is_valid());
        assert!(e.sx < 90.0, "left sweep should sample left: sx {}", e.sx);
    }

    #[test]
    fn projection_parallel_matches_serial() {
        let (lens, _) = setup();
        let proj = fisheye_geom::OutputProjection::equirect_hemisphere(120, 60);
        let serial = RemapMap::build_projection(&lens, &proj, 320, 240);
        let pool = ThreadPool::new(3);
        let par = RemapMap::build_projection_parallel(
            &lens,
            &proj,
            320,
            240,
            &pool,
            Schedule::Dynamic { chunk: 4 },
        );
        assert_eq!(serial.entries(), par.entries());
    }

    #[test]
    fn invalid_entry_flag() {
        assert!(!MapEntry::INVALID.is_valid());
        assert!(MapEntry { sx: 3.0, sy: 4.0 }.is_valid());
        assert!(!FixedMapEntry::INVALID.is_valid());
    }
}
