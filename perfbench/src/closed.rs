//! The closed loop shared by the one-caller workloads: one
//! caller asks for the next output only after the previous one came
//! back, so a slower system simply receives less work.

use std::time::{Duration, Instant};

use crate::probe::Probe;
use crate::report::Outcome;
use crate::stats;
use crate::trace::Tracer;
use crate::Args;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: u64 = 5;
/// Step errors tolerated before the run is abandoned.
const MAX_FAILURES: u64 = 8;
/// The host-speed probe runs between steps at most this often, s.
const PROBE_EVERY_S: f64 = 0.05;

pub trait ClosedLoop {
    /// Build the system from nothing and produce its first output.
    fn setup(&mut self, tr: &mut Tracer) -> Result<(), String>;
    /// Produce output `i` and return its latency in ms, timed around
    /// the public calls only (input generation is not timed).
    fn step(&mut self, i: u64, tr: &mut Tracer) -> Result<f64, String>;
    /// Compare the latest output with its reference, outside any
    /// timed window; `Some(reason)` on a mismatch.
    fn check(&mut self, i: u64) -> Result<Option<String>, String>;
    /// Check every n-th step (and always the set-up outputs).
    fn check_every(&self) -> u64;
}

pub struct Samples {
    /// Set-up times, s.
    pub setup_s: Vec<f64>,
    /// The same in reference s (see `probe`).
    pub ref_setup_s: Vec<f64>,
    /// Step latencies of the untraced measurement, ms.
    pub ms: Vec<f64>,
    /// The same in reference ms (see `probe`).
    pub ref_ms: Vec<f64>,
    /// Median host speed over the measurement: `REF_MS` / probe time.
    pub host_speed: f64,
    /// Step latencies of the traced half of a `--trace 1` run, in
    /// reference ms (raw halves would compare two host speeds).
    pub traced_ref_ms: Vec<f64>,
}

/// Set up `SETUP_REPS` times, then step for `--seconds` (split into an
/// untraced and a traced half when tracing), checking outputs and
/// probing the host's speed as it goes. Counts attempts, failures and
/// mismatches into `out`.
pub fn drive(
    w: &mut dyn ClosedLoop,
    args: &Args,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<Samples, String> {
    let traced = tr.enabled();
    let mut probe = Probe::new();
    let mut setup_s = Vec::new();
    let mut ref_setup_s = Vec::new();
    for rep in 0..SETUP_REPS {
        let factor = probe.factor_now(0.0);
        let t0 = Instant::now();
        w.setup(tr)?;
        let s = t0.elapsed().as_secs_f64();
        setup_s.push(s);
        ref_setup_s.push(s * factor);
        out.attempted += 1;
        if let Some(why) = w.check(rep)? {
            out.mismatch(format!("set-up {rep}: {why}"));
        }
    }
    let secs = Duration::from_secs_f64(args.seconds);
    let mut next = 0u64;
    let mut probe_loop = Probe::new();
    let probe = &mut probe_loop;
    let start = Instant::now();
    let (timed, traced_timed) = if traced {
        tr.set_enabled(false);
        let plain = steps(w, start, secs / 2, &mut next, tr, probe, out)?;
        tr.set_enabled(true);
        let with = steps(w, start, secs / 2, &mut next, tr, probe, out)?;
        (plain, with)
    } else {
        (
            steps(w, start, secs, &mut next, tr, probe, out)?,
            Vec::new(),
        )
    };
    Ok(Samples {
        setup_s,
        ref_setup_s,
        ms: timed.iter().map(|s| s.1).collect(),
        ref_ms: timed
            .iter()
            .map(|&(at, ms)| ms * probe.factor(at))
            .collect(),
        host_speed: crate::probe::REF_MS / probe.median_ms(),
        traced_ref_ms: traced_timed
            .iter()
            .map(|&(at, ms)| ms * probe.factor(at))
            .collect(),
    })
}

/// Step for `secs`; returns (start, latency ms) of every good step.
fn steps(
    w: &mut dyn ClosedLoop,
    origin: Instant,
    secs: Duration,
    next: &mut u64,
    tr: &mut Tracer,
    probe: &mut Probe,
    out: &mut Outcome,
) -> Result<Vec<(f64, f64)>, String> {
    let mut timed = Vec::new();
    let end = Instant::now() + secs;
    let every = w.check_every().max(1);
    while Instant::now() < end {
        let at = origin.elapsed().as_secs_f64();
        if probe.last_at().is_none_or(|t| at - t >= PROBE_EVERY_S) {
            probe.run(at);
        }
        let i = *next;
        *next += 1;
        out.attempted += 1;
        match w.step(i, tr) {
            Ok(t) => {
                timed.push((at, t));
                if i.is_multiple_of(every) {
                    if let Some(why) = w.check(i)? {
                        out.mismatch(format!("step {i}: {why}"));
                    }
                }
            }
            Err(e) => {
                out.failed += 1;
                out.note(format!("step {i} failed: {e}"));
                if out.failed >= MAX_FAILURES {
                    return Err(format!("{} steps failed; last: {e}", out.failed));
                }
            }
        }
    }
    Ok(timed)
}

/// Outputs per second of `ms`-long steps back to back.
fn rate(ms: &[f64]) -> f64 {
    ms.len() as f64 / (stats::sum(ms) / 1e3)
}

impl Samples {
    /// Put the end-to-end metrics every closed-loop workload shares:
    /// the gate's `setup_s`, `fps` and `latency_ms_p50` in reference
    /// time, and the workload's own named raw figures (`names`: median,
    /// tail at `tail_q`) beside them.
    pub fn put_end_to_end(&self, out: &mut Outcome, names: [&'static str; 2], tail_q: f64) {
        let [p50, tail] = names;
        let n = self.ms.len();
        let reps = self.setup_s.len();
        out.put("setup_s", stats::median(&self.ref_setup_s), "s", reps);
        out.put("fps", rate(&self.ref_ms), "1/s", n);
        out.put("latency_ms_p50", stats::median(&self.ref_ms), "ms", n);
        out.put("host_speed", self.host_speed, "ratio", n);
        out.put("setup_s_raw", stats::median(&self.setup_s), "s", reps);
        out.put("fps_raw", rate(&self.ms), "1/s", n);
        out.put(p50, stats::median(&self.ms), "ms", n);
        out.put(tail, stats::percentile(&self.ms, tail_q), "ms", n);
        let beyond = stats::beyond(&self.ms, tail_q);
        if beyond < 10 {
            out.note(format!(
                "{tail}: only {beyond} samples beyond the percentile (want >= 10)"
            ));
        }
        if !self.traced_ref_ms.is_empty() {
            out.put(
                "trace.overhead_share",
                stats::median(&self.traced_ref_ms) / stats::median(&self.ref_ms) - 1.0,
                "ratio",
                self.traced_ref_ms.len(),
            );
        }
    }
}
