//! Readiness wait for the load generator: `ppoll(2)` over its
//! non-blocking sockets, so the generator thread sleeps instead of
//! spinning while nothing is due and nothing has arrived (a spinning
//! client would take the core the server's shard thread needs).
//! Linux only, like the rest of the benchmark (`/proc/self/status`).

use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: std::ffi::c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Block for at most `timeout` until one of `streams` is readable (or,
/// where its flag is set, writable). Interrupts and errors return
/// early; the caller re-checks its sockets either way.
pub fn wait(streams: &[(&TcpStream, bool)], timeout: Duration) {
    let mut fds: Vec<PollFd> = streams
        .iter()
        .map(|(s, want_write)| PollFd {
            fd: s.as_raw_fd(),
            events: POLLIN | if *want_write { POLLOUT } else { 0 },
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a live, exclusively borrowed array of exactly
    // `fds.len()` pollfd records whose fds stay open for the call (the
    // streams are borrowed); `ts` outlives the call; a null sigmask
    // leaves the signal mask unchanged.
    unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as std::ffi::c_ulong,
            &ts,
            std::ptr::null(),
        );
    }
}
