//! Host-speed probe. The reference box is two vCPUs of a shared host,
//! and other tenants slow a core down by up to ~1.9x in spells that
//! come and go over seconds; a median over a run lands anywhere in
//! between. The probe is a fixed scalar bilinear gather written here,
//! not in the program, so no change to the program can move it; timed
//! between the workload's own steps it says how fast the core is right
//! now, at the same kind of work. Dividing a step's time by the probe
//! time around it (and multiplying by `REF_MS`, the probe's time on an
//! uncontended core of the reference box) gives the step's time in
//! reference milliseconds: the slow spells cancel, the program's own
//! speed does not.

use std::hint::black_box;
use std::time::Instant;

use pixmap::rng::Xoshiro256pp;

use crate::stats;

/// The probe's median time on an uncontended core of the reference
/// box (Xeon, Sapphire Rapids, KVM guest), ms.
pub const REF_MS: f64 = 0.34;
/// Source side, pixels; the working set stays well inside L2.
const SIDE: usize = 256;
const TAPS: usize = 32 * 1024;
/// Probes within this distance of a step set its factor, s.
const HALF_WINDOW_S: f64 = 0.5;

pub struct Probe {
    src: Vec<u8>,
    sx: Vec<f32>,
    sy: Vec<f32>,
    out: Vec<u8>,
    /// (start, ms) of every probe run, in time order.
    runs: Vec<(f64, f64)>,
}

impl Probe {
    pub fn new() -> Probe {
        let mut rng = Xoshiro256pp::seed_from_u64(0x7072_6f62_6521);
        let span = (SIDE - 2) as f64;
        Probe {
            src: (0..SIDE * SIDE).map(|_| rng.next_u8()).collect(),
            sx: (0..TAPS).map(|_| (rng.next_f64() * span) as f32).collect(),
            sy: (0..TAPS).map(|_| (rng.next_f64() * span) as f32).collect(),
            out: vec![0; TAPS],
            runs: Vec::new(),
        }
    }

    /// Time one probe pass that starts `at_s` into the measurement.
    pub fn run(&mut self, at_s: f64) {
        let t0 = Instant::now();
        gather(black_box(&self.src), &self.sx, &self.sy, &mut self.out);
        black_box(&self.out);
        self.runs.push((at_s, t0.elapsed().as_secs_f64() * 1e3));
    }

    /// Probe three times now and return `REF_MS` over their median:
    /// the factor for work about to start (a set-up).
    pub fn factor_now(&mut self, at_s: f64) -> f64 {
        let from = self.runs.len();
        for _ in 0..3 {
            self.run(at_s);
        }
        let ms: Vec<f64> = self.runs[from..].iter().map(|r| r.1).collect();
        REF_MS / stats::median(&ms)
    }

    pub fn last_at(&self) -> Option<f64> {
        self.runs.last().map(|r| r.0)
    }

    /// Median probe time of the whole measurement, ms.
    pub fn median_ms(&self) -> f64 {
        stats::median(&self.runs.iter().map(|r| r.1).collect::<Vec<_>>())
    }

    /// `REF_MS` over the median probe time within `HALF_WINDOW_S` of
    /// `at_s` (the nearest probe when none is that close).
    pub fn factor(&self, at_s: f64) -> f64 {
        let near: Vec<f64> = self
            .runs
            .iter()
            .filter(|r| (r.0 - at_s).abs() <= HALF_WINDOW_S)
            .map(|r| r.1)
            .collect();
        let ms = if near.is_empty() {
            self.runs
                .iter()
                .min_by(|a, b| (a.0 - at_s).abs().total_cmp(&(b.0 - at_s).abs()))
                .map_or(REF_MS, |r| r.1)
        } else {
            stats::median(&near)
        };
        REF_MS / ms
    }
}

fn gather(src: &[u8], sx: &[f32], sy: &[f32], out: &mut [u8]) {
    let tap = |x: usize, y: usize| f32::from(src[y * SIDE + x]);
    for ((o, &x), &y) in out.iter_mut().zip(sx).zip(sy) {
        let (x0, y0) = (x as usize, y as usize);
        let (fx, fy) = (x - x0 as f32, y - y0 as f32);
        let top = tap(x0, y0) * (1.0 - fx) + tap(x0 + 1, y0) * fx;
        let bottom = tap(x0, y0 + 1) * (1.0 - fx) + tap(x0 + 1, y0 + 1) * fx;
        *o = (top * (1.0 - fy) + bottom * fy) as u8;
    }
}
