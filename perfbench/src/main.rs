//! `perfbench` — the repository's benchmark: four seeded workloads,
//! end-to-end metrics with tracing off and per-layer metrics from a
//! separate traced run. See README.md for the workloads, the metric
//! map and what is out of scope.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable lines go first; the last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.

mod closed;
mod net;
mod pano;
mod poll;
mod probe;
mod ptz;
mod report;
mod stats;
mod stream;
mod sys;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Outcome;
use trace::Tracer;

const USAGE: &str = "usage: perfbench --workload <stream_vga_gray8|ptz_720p_yuv420|\
net_qvga_pair|panorama_dual_vga> --seed <n> --seconds <s> --trace <0|1>";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut out = match args.workload.as_str() {
        "stream_vga_gray8" => stream::run(args, tr)?,
        "ptz_720p_yuv420" => ptz::run(args, tr)?,
        "net_qvga_pair" => net::run(args, tr)?,
        "panorama_dual_vga" => pano::run(args, tr)?,
        other => return Err(format!("unknown workload {other}\n{USAGE}")),
    };
    let failed_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    out.put(
        "failed_ratio",
        failed_ratio,
        "ratio",
        out.attempted as usize,
    );
    if args.trace {
        // the roofline leg: measured after the workload so its arrays
        // never share the address space with the measured loop
        let copy = sys::copy_gbps();
        out.put("mem.copy_gbps", copy, "GB/s", 0);
        out.note(format!(
            "mem.copy_gbps: 2 arrays of {} MiB (LLC {} MiB), read + write bytes",
            sys::COPY_ARRAY_BYTES >> 20,
            sys::LLC_BYTES >> 20
        ));
        if let Some(computed) = out.get("engine.computed_gbps") {
            out.put("engine.bw_share", computed / copy, "ratio", 0);
        }
    } else if out.get("peak_rss_mb").is_none() {
        out.put("peak_rss_mb", sys::peak_rss_mb()?, "MB", 0);
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut tr = Tracer::new(args.trace);
    let out = match run(&args, &mut tr) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        let path = PathBuf::from(".bench_out")
            .join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        match tr.write(&path) {
            Ok(()) => println!("spans: {} -> {}", tr.spans().len(), path.display()),
            Err(e) => {
                eprintln!("perfbench: write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in out.lines() {
        println!("{line}");
    }
    match out.json(args.trace) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
