//! Process and machine measurements: peak resident memory and the
//! copy bandwidth the roofline leg compares the kernels against; and
//! CPU pinning, for the workload whose threads must share one core.

use std::hint::black_box;
use std::time::Instant;

use crate::stats;

/// Last-level cache of the reference box (`lscpu`: L3 105 MiB, one
/// instance). The copy arrays are sized from it so they cannot stay
/// cache-resident.
pub const LLC_BYTES: usize = 105 << 20;
/// Each of the two copy arrays; together they are >= 4x the LLC.
pub const COPY_ARRAY_BYTES: usize = 2 * LLC_BYTES + (14 << 20);
const COPY_REPS: usize = 5;

/// Peak resident set (`VmHWM`) of this process, MB (10^6 bytes).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("parse VmHWM: {e}"))?;
    Ok(kb * 1024.0 / 1e6)
}

/// Median `memcpy` bandwidth between two `COPY_ARRAY_BYTES` arrays,
/// GB/s, counting the bytes read plus the bytes written.
pub fn copy_gbps() -> f64 {
    let src = vec![0x5au8; COPY_ARRAY_BYTES];
    let mut dst = vec![0u8; COPY_ARRAY_BYTES];
    // first touch faults the destination's pages in outside the timing
    dst.copy_from_slice(&src);
    let mut rates = Vec::with_capacity(COPY_REPS);
    for _ in 0..COPY_REPS {
        let t0 = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        let s = t0.elapsed().as_secs_f64();
        rates.push(2.0 * COPY_ARRAY_BYTES as f64 / s / 1e9);
    }
    stats::median(&rates)
}

/// Bytes one bilinear byte-plane gather through `plan` moves, computed
/// rather than measured: per valid pixel the two f32 source
/// coordinates and four u8 taps, per output pixel one u8 store.
pub fn computed_gather_bytes(plan: &fisheye_core::RemapPlan) -> f64 {
    let px = u64::from(plan.width()) * u64::from(plan.height());
    let valid = px - plan.invalid_pixels().min(px);
    (valid * (8 + 4) + px) as f64
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Words of a `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

/// Restrict the calling thread, and every thread it starts from now
/// on, to the first CPU it may run on; returns that CPU's index.
pub fn pin_to_first_cpu() -> Result<usize, String> {
    let mut mask = [0u64; CPU_SET_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, exclusively borrowed buffer of exactly
    // `size` bytes; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..CPU_SET_WORDS * 64)
        .find(|&i| mask[i / 64] >> (i % 64) & 1 == 1)
        .ok_or("the CPU affinity mask is empty")?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; `one` outlives the call and is only read.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_ARENA_MAX`.
const M_ARENA_MAX: i32 = -8;

/// Make every thread of the process allocate from one malloc arena.
/// With an arena per thread, which arenas the threads of a restarted
/// server land in varies from run to run, and so does the peak
/// resident set.
pub fn single_malloc_arena() -> Result<(), String> {
    // SAFETY: mallopt only sets an allocator parameter; it is called
    // before this process starts any thread.
    if unsafe { mallopt(M_ARENA_MAX, 1) } == 1 {
        Ok(())
    } else {
        Err("mallopt(M_ARENA_MAX, 1) failed".into())
    }
}
