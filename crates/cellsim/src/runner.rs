//! Scheduling tiles across SPEs and assembling the frame-level model.

use fisheye_core::map::FixedRemapMap;
use fisheye_core::{TileJob, TilePlan};
use pixmap::{Gray8, Image};

use crate::dma::{DmaEngine, DmaStats};
use crate::localstore::{LocalStore, LsOverflow};
use crate::spe::SpeKernel;
use crate::CellConfig;

/// Per-SPE utilization from one frame.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpeUsage {
    /// Tiles processed.
    pub tiles: usize,
    /// Modeled compute cycles.
    pub compute_cycles: f64,
    /// Modeled DMA cycles (not all on the critical path when double
    /// buffered).
    pub dma_cycles: f64,
    /// Modeled wall-clock cycles for this SPE's timeline.
    pub busy_cycles: f64,
}

/// The frame-level model output.
#[derive(Clone, Debug)]
pub struct CellReport {
    /// Frame latency = slowest SPE timeline, cycles.
    pub frame_cycles: f64,
    /// Modeled frames per second at the configured clock.
    pub fps: f64,
    /// Per-SPE breakdown.
    pub per_spe: Vec<SpeUsage>,
    /// Aggregate DMA statistics across SPEs.
    pub dma: DmaStats,
    /// Largest local-store occupancy reached by any SPE.
    pub ls_high_water: usize,
    /// Source bytes fetched ÷ source frame bytes.
    pub redundancy: f64,
}

impl CellReport {
    /// Compute-to-DMA cycle ratio (>1: compute bound).
    pub fn compute_to_dma(&self) -> f64 {
        let c: f64 = self.per_spe.iter().map(|s| s.compute_cycles).sum();
        if self.dma.cycles == 0.0 {
            f64::INFINITY
        } else {
            c / self.dma.cycles
        }
    }
}

/// Executes correction frames on the modeled Cell.
pub struct CellRunner {
    config: CellConfig,
    kernel: SpeKernel,
}

impl CellRunner {
    /// Runner for a machine configuration.
    pub fn new(config: CellConfig) -> Self {
        CellRunner {
            kernel: SpeKernel::new(config.correct_cycles_per_pixel),
            config,
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &CellConfig {
        &self.config
    }

    /// Check one tile's local-store working set against the budget.
    /// LUT entries are 8 bytes; pixels 1 byte (Gray8).
    fn tile_working_set(job: &TileJob) -> usize {
        job.src_bytes(1) + job.out_bytes(1) + job.out.area() as usize * 8
    }

    /// Run one frame through the modeled machine.
    ///
    /// Functional result is bit-exact with the host fixed-point
    /// reference ([`fisheye_core::correct_fixed`]); timing comes from
    /// the DMA/compute models. Errors if any tile's (double-)buffered
    /// working set exceeds the local store data budget.
    pub fn correct_frame(
        &self,
        src: &Image<Gray8>,
        map: &FixedRemapMap,
        plan: &TilePlan,
    ) -> Result<(Image<Gray8>, CellReport), LsOverflow> {
        let n = self.config.n_spes;
        let mut out = Image::new(map.width(), map.height());
        let mut per_spe = vec![SpeUsage::default(); n];
        let mut dma_total = DmaStats::default();
        let mut ls_high = 0usize;
        let buffers = if self.config.double_buffer { 2 } else { 1 };

        for (spe, usage) in per_spe.iter_mut().enumerate() {
            let mut ls = LocalStore::new(self.config.data_budget());
            let mut dma = DmaEngine::new(
                self.config.dma_latency_cycles,
                self.config.dma_bytes_per_cycle,
            );
            // static round-robin tile assignment (the paper's SPE
            // dispatch; tiles are uniform in output size)
            let jobs: Vec<&TileJob> = plan.jobs.iter().skip(spe).step_by(n).collect();
            let mut in_cycles = Vec::with_capacity(jobs.len());
            let mut comp_cycles = Vec::with_capacity(jobs.len());
            let mut out_cycles = Vec::with_capacity(jobs.len());
            for job in &jobs {
                // capacity check: all simultaneously-resident buffers
                ls.reset();
                for _ in 0..buffers {
                    ls.alloc(Self::tile_working_set(job))?;
                }
                // DMA in: footprint + LUT slice
                let (local, mut cin) = if job.src.is_empty() {
                    (Image::new(1, 1), 0.0)
                } else {
                    dma.get_rect(src, job.src)
                };
                cin += dma.get_bytes(job.out.area() as usize * 8);
                // compute
                let (tile, cc) = self.kernel.run_tile(job, &local, map);
                // DMA out
                let cout = dma.put_rect(&tile, &mut out, job.out);
                in_cycles.push(cin);
                comp_cycles.push(cc);
                out_cycles.push(cout);
            }
            // timeline model
            let busy = if self.config.double_buffer {
                double_buffered_timeline(&in_cycles, &comp_cycles, &out_cycles)
            } else {
                in_cycles.iter().sum::<f64>()
                    + comp_cycles.iter().sum::<f64>()
                    + out_cycles.iter().sum::<f64>()
            };
            usage.tiles = jobs.len();
            usage.compute_cycles = comp_cycles.iter().sum();
            usage.dma_cycles = dma.stats().cycles;
            usage.busy_cycles = busy;
            let s = dma.stats();
            dma_total.commands += s.commands;
            dma_total.elements += s.elements;
            dma_total.bytes_in += s.bytes_in;
            dma_total.bytes_out += s.bytes_out;
            dma_total.cycles += s.cycles;
            ls_high = ls_high.max(ls.high_water());
        }

        let frame_cycles = per_spe.iter().map(|s| s.busy_cycles).fold(0.0f64, f64::max);
        let (sw, sh) = map.src_dims();
        let report = CellReport {
            frame_cycles,
            fps: if frame_cycles > 0.0 {
                self.config.clock_hz / frame_cycles
            } else {
                0.0
            },
            per_spe,
            dma: dma_total,
            ls_high_water: ls_high,
            redundancy: dma_total.bytes_in as f64 / (sw as f64 * sh as f64),
        };
        Ok((out, report))
    }

    /// Run map generation on the modeled SPEs: row bands are computed
    /// in local-store-sized batches and DMA'd out. Functional result is
    /// identical to [`fisheye_core::RemapMap::build`]; returns the map plus the
    /// modeled frame cycles (max over SPE timelines).
    ///
    /// `rows_per_batch` bounds the local-store output buffer: a batch
    /// of `rows_per_batch × out_w` 8-byte entries must fit the data
    /// budget (double-buffered when configured).
    pub fn generate_map(
        &self,
        lens: &fisheye_geom::FisheyeLens,
        view: &fisheye_geom::PerspectiveView,
        src_w: u32,
        src_h: u32,
        rows_per_batch: u32,
    ) -> Result<(fisheye_core::RemapMap, f64), LsOverflow> {
        use fisheye_core::map::MapEntry;
        assert!(rows_per_batch >= 1, "need at least one row per batch");
        let (out_w, out_h) = (view.width, view.height);
        let buffers = if self.config.double_buffer { 2 } else { 1 };
        let batch_bytes = rows_per_batch as usize * out_w as usize * 8;
        {
            // capacity check once — all batches are the same size
            let mut ls = LocalStore::new(self.config.data_budget());
            for _ in 0..buffers {
                ls.alloc(batch_bytes)?;
            }
        }
        let mut entries = vec![MapEntry::INVALID; out_w as usize * out_h as usize];
        let rays = view.rays();
        let n = self.config.n_spes;
        let mut spe_times = vec![0.0f64; n];
        let batches: Vec<u32> = (0..out_h).step_by(rows_per_batch as usize).collect();
        for (b, &y0) in batches.iter().enumerate() {
            let spe = b % n;
            let y1 = (y0 + rows_per_batch).min(out_h);
            // functional: compute the rows exactly as the host builder
            for y in y0..y1 {
                for x in 0..out_w {
                    let ray = rays.ray(x as f64 + 0.5, y as f64 + 0.5);
                    entries[(y * out_w + x) as usize] = match lens.project(ray) {
                        Some((sx, sy))
                            if sx >= 0.0 && sx < src_w as f64 && sy >= 0.0 && sy < src_h as f64 =>
                        {
                            MapEntry {
                                sx: sx as f32,
                                sy: sy as f32,
                            }
                        }
                        _ => MapEntry::INVALID,
                    };
                }
            }
            // timing: compute + DMA-out of the batch
            let pixels = (y1 - y0) as f64 * out_w as f64;
            let compute = pixels * self.config.mapgen_cycles_per_pixel;
            let dma = self.config.dma_latency_cycles as f64
                + pixels * 8.0 / self.config.dma_bytes_per_cycle;
            spe_times[spe] += if self.config.double_buffer {
                compute.max(dma)
            } else {
                compute + dma
            };
        }
        let frame_cycles = spe_times.iter().cloned().fold(0.0f64, f64::max);
        let map = fisheye_core::RemapMap::from_entries(out_w, out_h, src_w, src_h, entries);
        Ok((map, frame_cycles))
    }

    /// Modeled cycles for the map-generation phase on the SPEs
    /// (compute-bound: trig per entry, one put per row band).
    pub fn mapgen_cycles(&self, out_w: u32, out_h: u32) -> f64 {
        let pixels = out_w as f64 * out_h as f64;
        let compute = pixels * self.config.mapgen_cycles_per_pixel / self.config.n_spes as f64;
        // writing the LUT back: 8 bytes per entry over all SPEs
        let dma = self.config.dma_latency_cycles as f64 * out_h as f64 / self.config.n_spes as f64
            + pixels * 8.0 / self.config.dma_bytes_per_cycle / self.config.n_spes as f64;
        compute + dma
    }
}

/// Pipeline timeline with double buffering: the DMA of tile *i+1* (in)
/// and tile *i−1* (out) overlaps the compute of tile *i*.
fn double_buffered_timeline(ins: &[f64], comps: &[f64], outs: &[f64]) -> f64 {
    let n = ins.len();
    if n == 0 {
        return 0.0;
    }
    let mut t = ins[0];
    for i in 0..n {
        let next_in = if i + 1 < n { ins[i + 1] } else { 0.0 };
        let prev_out = if i > 0 { outs[i - 1] } else { 0.0 };
        t += comps[i].max(next_in + prev_out);
    }
    t + outs[n - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use fisheye_core::{correct_fixed, Interpolator, RemapMap};
    use fisheye_geom::{FisheyeLens, PerspectiveView};

    fn setup(out_w: u32, out_h: u32) -> (RemapMap, FixedRemapMap, Image<Gray8>) {
        let lens = FisheyeLens::equidistant_fov(320, 240, 180.0);
        let view = PerspectiveView::centered(out_w, out_h, 90.0);
        let map = RemapMap::build(&lens, &view, 320, 240);
        let fmap = map.to_fixed(12);
        let src = pixmap::scene::random_gray(320, 240, 77);
        (map, fmap, src)
    }

    #[test]
    fn functional_output_bit_exact() {
        let (map, fmap, src) = setup(128, 96);
        let reference = correct_fixed(&src, &fmap);
        let plan = TilePlan::build(&map, 32, 16, Interpolator::Bilinear);
        let runner = CellRunner::new(CellConfig::default());
        let (out, report) = runner.correct_frame(&src, &fmap, &plan).unwrap();
        assert_eq!(out, reference);
        assert!(report.frame_cycles > 0.0);
        assert!(report.fps > 0.0);
    }

    #[test]
    fn spe_scaling_improves_fps() {
        let (map, fmap, src) = setup(128, 96);
        let plan = TilePlan::build(&map, 32, 16, Interpolator::Bilinear);
        let mut prev_fps = 0.0;
        for n in [1, 2, 4, 6] {
            let runner = CellRunner::new(CellConfig {
                n_spes: n,
                ..Default::default()
            });
            let (_, report) = runner.correct_frame(&src, &fmap, &plan).unwrap();
            assert!(
                report.fps > prev_fps,
                "{n} SPEs: {} fps, prev {prev_fps}",
                report.fps
            );
            prev_fps = report.fps;
        }
    }

    #[test]
    fn double_buffering_beats_single() {
        let (map, fmap, src) = setup(128, 96);
        let plan = TilePlan::build(&map, 32, 16, Interpolator::Bilinear);
        let double = CellRunner::new(CellConfig::default());
        let single = CellRunner::new(CellConfig {
            double_buffer: false,
            ..Default::default()
        });
        let (_, rd) = double.correct_frame(&src, &fmap, &plan).unwrap();
        let (_, rs) = single.correct_frame(&src, &fmap, &plan).unwrap();
        assert!(
            rd.frame_cycles < rs.frame_cycles,
            "double {} vs single {}",
            rd.frame_cycles,
            rs.frame_cycles
        );
        // both produce identical frames
    }

    #[test]
    fn oversized_tiles_overflow_local_store() {
        let (map, fmap, src) = setup(512, 384);
        // 512x384 output in one tile: working set far beyond 256 KB
        let plan = TilePlan::build(&map, 512, 384, Interpolator::Bilinear);
        let runner = CellRunner::new(CellConfig::default());
        let err = runner.correct_frame(&src, &fmap, &plan).unwrap_err();
        assert!(err.requested > err.available);
    }

    #[test]
    fn single_buffering_fits_where_double_does_not() {
        let (map, fmap, src) = setup(256, 192);
        // pick a tile size whose working set is between budget/2 and budget
        let budget = CellConfig::default().data_budget();
        let mut chosen = None;
        for t in [160u32, 128, 96, 64] {
            let plan = TilePlan::build(&map, t, t, Interpolator::Bilinear);
            let ws = plan
                .jobs
                .iter()
                .map(CellRunner::tile_working_set)
                .max()
                .unwrap();
            if ws * 2 > budget && ws <= budget {
                chosen = Some(plan);
                break;
            }
        }
        let plan = chosen.expect("no tile size in the gap — adjust test");
        let double = CellRunner::new(CellConfig::default());
        assert!(double.correct_frame(&src, &fmap, &plan).is_err());
        let single = CellRunner::new(CellConfig {
            double_buffer: false,
            ..Default::default()
        });
        assert!(single.correct_frame(&src, &fmap, &plan).is_ok());
    }

    #[test]
    fn report_accounting_consistent() {
        let (map, fmap, src) = setup(96, 64);
        let plan = TilePlan::build(&map, 16, 16, Interpolator::Bilinear);
        let runner = CellRunner::new(CellConfig::default());
        let (_, report) = runner.correct_frame(&src, &fmap, &plan).unwrap();
        let tiles: usize = report.per_spe.iter().map(|s| s.tiles).sum();
        assert_eq!(tiles, plan.jobs.len());
        // all output bytes were DMA'd out exactly once
        assert_eq!(report.dma.bytes_out, (96 * 64) as u64);
        // ls high water below capacity
        assert!(report.ls_high_water <= CellConfig::default().data_budget());
        assert!(report.redundancy > 0.0);
        assert!(report.compute_to_dma() > 0.0);
    }

    #[test]
    fn timeline_model_properties() {
        // equal compute/DMA: double buffering hides all but ends
        let ins = vec![10.0, 10.0, 10.0];
        let comps = vec![10.0, 10.0, 10.0];
        let outs = vec![10.0, 10.0, 10.0];
        let t = double_buffered_timeline(&ins, &comps, &outs);
        // fill(10) + 3 steps of max(comp=10, dma<=20) + drain(10)
        assert!(t < 10.0 + 10.0 + 20.0 + 20.0 + 10.0 + 1.0);
        assert!(t >= 50.0);
        assert_eq!(double_buffered_timeline(&[], &[], &[]), 0.0);
        // compute-bound: dma vanishes from steady state
        let t2 = double_buffered_timeline(&[1.0, 1.0], &[100.0, 100.0], &[1.0, 1.0]);
        assert!((t2 - (1.0 + 100.0 + 100.0 + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn generate_map_functionally_exact() {
        let lens = FisheyeLens::equidistant_fov(320, 240, 180.0);
        let view = PerspectiveView::centered(96, 72, 90.0);
        let host = RemapMap::build(&lens, &view, 320, 240);
        let runner = CellRunner::new(CellConfig::default());
        let (map, cycles) = runner.generate_map(&lens, &view, 320, 240, 8).unwrap();
        assert_eq!(host.entries(), map.entries());
        assert!(cycles > 0.0);
    }

    #[test]
    fn generate_map_scales_with_spes() {
        let lens = FisheyeLens::equidistant_fov(320, 240, 180.0);
        let view = PerspectiveView::centered(128, 96, 90.0);
        let c1 = CellRunner::new(CellConfig {
            n_spes: 1,
            ..Default::default()
        })
        .generate_map(&lens, &view, 320, 240, 4)
        .unwrap()
        .1;
        let c6 = CellRunner::new(CellConfig::default())
            .generate_map(&lens, &view, 320, 240, 4)
            .unwrap()
            .1;
        assert!(c1 / c6 > 4.0, "1 SPE {c1} vs 6 SPEs {c6}");
    }

    #[test]
    fn generate_map_respects_local_store() {
        let lens = FisheyeLens::equidistant_fov(320, 240, 180.0);
        // 4096-wide output: 4096*8 = 32 KB per row; 1000 rows/batch
        // cannot fit 256 KB
        let view = PerspectiveView::centered(4096, 8, 90.0);
        let runner = CellRunner::new(CellConfig::default());
        assert!(runner.generate_map(&lens, &view, 320, 240, 1000).is_err());
        assert!(runner.generate_map(&lens, &view, 320, 240, 2).is_ok());
    }

    #[test]
    fn mapgen_cycles_scale_inverse_with_spes() {
        let r1 = CellRunner::new(CellConfig {
            n_spes: 1,
            ..Default::default()
        });
        let r6 = CellRunner::new(CellConfig::default());
        let c1 = r1.mapgen_cycles(1920, 1080);
        let c6 = r6.mapgen_cycles(1920, 1080);
        assert!(c1 / c6 > 5.0, "{c1} vs {c6}");
    }
}
