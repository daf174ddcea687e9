//! W3 `net_qvga_pair`: a `NetServer` on loopback with one shard, and
//! one generator thread driving two connections of 320x240 gray8
//! frames (`simd`, bilinear). Views come from a small seeded pool, so
//! plans are shared through the plan cache; light churn (seeded
//! `SetView`s, one reconnect) keeps the cache and the session rebuild
//! on the path, with never more than two connections open.
//!
//! Small frames make the per-frame fixed costs a large share: the
//! shard loop's idle sleep, wire encode/decode, registry updates,
//! queue wait and plan compiles that run inline on the shard thread.
//! Four phases:
//!
//! * `idle` — closed loop, one connection, one frame outstanding;
//! * `peak` — closed loop, both connections keeping `PEAK_DEPTH`
//!   frames in flight each, so the shard is never short of work: the
//!   rate it sustains;
//! * `load` — open loop, both connections on fixed schedules at
//!   `LOAD_FPS`;
//! * `ramp` — a fixed ladder of open-loop rates, climbed until a step
//!   misses the latency limit, sheds, degrades or builds a backlog.
//!
//! The whole process (generator, acceptor and shard threads) runs on
//! one CPU, so the host-speed probe, timed on the generator thread
//! while nothing is in flight, measures the core the shard runs on.
//! The gated figures come from `peak`, where the shard never sleeps,
//! in reference time like the closed-loop workloads' (`probe.rs`);
//! the idle RTT holds ~0.5 ms of shard sleep and wake-up that does
//! not scale with the core's speed, so it is printed, not gated.
//!
//! The generator owns its client: non-blocking sockets and the public
//! `wire` functions, polled without sleeping, because the library
//! `Client` waits at least 1 ms per empty poll. Open-loop latency runs
//! from the time a frame was due, so a stalled generator shows.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fisheye::Corrector;
use fisheye_core::{EngineSpec, Frame, FrameFormat, Interpolator};
use fisheye_geom::{FisheyeLens, PerspectiveView};
use fisheye_serve::wire::{self, Message, SessionDesc};
use fisheye_serve::{CameraFeed, DegradeLevel, NetServer, NetServerConfig, ServerConfig};
use pixmap::rng::Xoshiro256pp;
use pixmap::Gray8;

use crate::closed::SETUP_REPS;
use crate::poll;
use crate::probe::Probe;
use crate::report::Outcome;
use crate::trace::{SpanId, Tracer, NONE};
use crate::{stats, sys, Args};

const W: u32 = 320;
const H: u32 = 240;
const PX: f64 = (W * H) as f64;
const BACKEND: &str = "simd";
const CONNS: usize = 2;
/// Views in the seeded pool the sessions move between.
const VIEWS: usize = 4;
/// Distinct source frames cycled through.
const RING: usize = 8;
/// `load` phase rate over both connections, frozen at about half the
/// capacity the ladder measured when this workload ran on two cores;
/// on its one core now, under half of `peak` even in a slow spell
/// (see README.md).
const LOAD_FPS: f64 = 200.0;
/// The `ramp` ladder: `RAMP_FIRST_FPS * RAMP_RATIO^k`, k < RAMP_STEPS
/// (300 to ~1390 frames/s; the load rate itself is proven by `load`).
const RAMP_FIRST_FPS: f64 = 300.0;
const RAMP_RATIO: f64 = 1.04;
const RAMP_STEPS: usize = 40;
/// How long each ramp step offers its rate. The ladder is climbed
/// again and again for the whole `ramp` share; `max_rate_fps` is the
/// best climb, since other tenants of the host only ever cut capacity.
const RAMP_WINDOW_S: f64 = 0.1;
/// Per-session queue: deep enough that a host pause of ~150 ms at the
/// load rate does not overflow it (the default is 4).
const QUEUE_DEPTH: usize = 16;
/// Frames each connection keeps in flight in `peak`: enough that the
/// shard always has the next frame queued, few enough that queue wait
/// stays far below the deadline (no miss, so no degradation).
const PEAK_DEPTH: usize = 2;
/// Frames per `peak` window. Each window starts from an empty
/// pipeline, with a probe run before it.
const PEAK_WINDOW: usize = 48;
/// A ramp step whose mean in-flight count grows by more than this
/// from its first half to its second is building a backlog.
const MAX_BACKLOG_GROWTH: f64 = 1.0;
/// The server's default `frame_deadline`: the latency limit.
const DEADLINE_MS: f64 = 33.0;
/// Shares of `--seconds` for the four phases.
const IDLE_SHARE: f64 = 0.25;
const PEAK_SHARE: f64 = 0.3;
const LOAD_SHARE: f64 = 0.25;
const RAMP_SHARE: f64 = 0.2;
/// The host-speed probe runs between closed-loop frames at most this
/// often, s.
const PROBE_EVERY_S: f64 = 0.05;
/// Every n-th completed frame is checked against a reference.
const CHECK_EVERY: u64 = 16;
/// A connection sends a `SetView` after this many frames plus a
/// seeded share of `CHURN_SPAN`.
const CHURN_MIN: u64 = 48;
const CHURN_SPAN: u64 = 48;
/// A frame not answered within this is lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(2);
/// Longest single readiness wait, so deadlines are re-checked.
const WAIT_SLICE: Duration = Duration::from_millis(5);
/// The open loop stops sleeping this long before a frame is due and
/// spins the rest, so sends leave on time despite wake-up latency.
const SPIN_AHEAD: Duration = Duration::from_micros(150);

/// What one phase (or ramp step) saw, from the client's side.
#[derive(Default)]
struct Tally {
    sent: u64,
    done: u64,
    shed: u64,
    lost: u64,
    late: u64,
    degraded: u64,
    /// Due (or send, closed loop) to reply decoded, ms.
    rtt_ms: Vec<f64>,
    /// When each `rtt_ms` reply landed, s into the run (for `Probe::factor`).
    at_s: Vec<f64>,
    /// `FrameDone.latency_us`, ms.
    server_ms: Vec<f64>,
    /// Send time minus due time, ms.
    lag_ms: Vec<f64>,
    /// Frames in flight at each send.
    in_flight: Vec<f64>,
}

impl Tally {
    fn p(&self, q: f64) -> f64 {
        stats::percentile(&self.rtt_ms, q)
    }

    /// How much the mean backlog grew from the first half of the sends
    /// to the second, frames.
    fn backlog_growth(&self) -> f64 {
        let (a, b) = self.in_flight.split_at(self.in_flight.len() / 2);
        let mean = |s: &[f64]| stats::sum(s) / s.len().max(1) as f64;
        mean(b) - mean(a)
    }

    fn summary(&self, phase: &str) -> String {
        format!(
            "{phase}: sent {} done {} shed {} lost {} late {} degraded {}",
            self.sent, self.done, self.shed, self.lost, self.late, self.degraded
        )
    }
}

struct Pending {
    due: Instant,
    epoch: u32,
    frame: usize,
    span: SpanId,
}

struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    session: u64,
    view: usize,
    /// Bumped on every `SetView`: a reply whose frame was sent in the
    /// current epoch was certainly rendered at `view`.
    epoch: u32,
    pending: BTreeMap<u64, Pending>,
    next_seq: u64,
    eof: bool,
    until_churn: u64,
}

#[derive(Default)]
struct WireTally {
    encode_ns: u64,
    encode_bytes: u64,
    decode_ns: u64,
    decode_bytes: u64,
}

struct Gen<'t> {
    addr: SocketAddr,
    lens: FisheyeLens,
    conns: Vec<Conn>,
    ring: Vec<Arc<Frame>>,
    views: Vec<PerspectiveView>,
    rng: Xoshiro256pp,
    tally: Tally,
    /// What the in-process corrector makes of ring frame `f` at pool
    /// view `v`, at `[v * RING + f]`: computed before anything is timed,
    /// so a sampled reply is checked with one compare, and the memory
    /// the checks hold does not grow with the number of replies.
    want: Vec<Vec<u8>>,
    completed: u64,
    checked: u64,
    mismatches: Vec<String>,
    /// Check the next reply regardless of `CHECK_EVERY`.
    check_next: bool,
    wire: WireTally,
    view_changes: u64,
    connects: u64,
    /// Replies the protocol does not expect (unknown seq, `Shed` of
    /// no frame): counted as failures.
    stray: u64,
    tr: &'t mut Tracer,
    root: &'static str,
    probe: Probe,
    origin: Instant,
}

fn io(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

impl Gen<'_> {
    fn desc(&self, view: usize) -> SessionDesc<'static> {
        SessionDesc {
            lens: self.lens,
            view: self.views[view],
            source: (W, H),
            format: FrameFormat::Gray8,
            interp: Interpolator::Bilinear,
            deadline_us: 0,
            backend: BACKEND,
        }
    }

    /// Open a connection and queue its handshake; `await_sessions`
    /// completes it.
    fn open(&mut self, view: usize, next_seq: u64, epoch: u32) -> Result<Conn, String> {
        let stream = TcpStream::connect(self.addr).map_err(io("connect"))?;
        stream.set_nodelay(true).map_err(io("nodelay"))?;
        stream.set_nonblocking(true).map_err(io("nonblocking"))?;
        let mut wbuf = Vec::new();
        let hello = Message::Hello {
            version: wire::WIRE_VERSION,
            session: 0,
        };
        hello.encode_into(&mut wbuf).map_err(|e| e.to_string())?;
        Message::Connect(self.desc(view))
            .encode_into(&mut wbuf)
            .map_err(|e| e.to_string())?;
        self.connects += 1;
        let until_churn = CHURN_MIN + self.rng.below(CHURN_SPAN);
        Ok(Conn {
            stream,
            rbuf: Vec::new(),
            wbuf,
            session: 0,
            view,
            epoch,
            pending: BTreeMap::new(),
            next_seq,
            eof: false,
            until_churn,
        })
    }

    fn await_sessions(&mut self) -> Result<(), String> {
        let end = Instant::now() + REPLY_TIMEOUT;
        while self.conns.iter().any(|c| c.session == 0) {
            if Instant::now() > end {
                return Err("handshake timed out".into());
            }
            if self.conns.iter().any(|c| c.eof) {
                return Err("server closed during the handshake".into());
            }
            if !self.pump()? {
                self.wait(WAIT_SLICE);
            }
        }
        Ok(())
    }

    /// Sleep until a connection has something to read (or can take
    /// queued bytes), for at most `timeout`.
    fn wait(&self, timeout: Duration) {
        let streams: Vec<(&TcpStream, bool)> = self
            .conns
            .iter()
            .filter(|c| !c.eof)
            .map(|c| (&c.stream, !c.wbuf.is_empty()))
            .collect();
        poll::wait(&streams, timeout);
    }

    fn send(&mut self, c: usize, due: Instant) -> Result<(), String> {
        let in_flight = self.in_flight() as f64;
        self.tally.in_flight.push(in_flight);
        let conn = &mut self.conns[c];
        let seq = conn.next_seq;
        conn.next_seq += 1;
        let frame = (seq as usize + 3 * c) % RING;
        let req = ((c as u64) << 40) | seq;
        let span = self.tr.record(self.root, NONE, req, due, 0);
        let before = conn.wbuf.len();
        let t0 = Instant::now();
        wire::encode_submit(seq, &self.ring[frame], &mut conn.wbuf)
            .map_err(|e| format!("encode_submit: {e}"))?;
        let enc = t0.elapsed();
        self.tr
            .record("wire.encode", span, req, t0, enc.as_nanos() as u64);
        self.wire.encode_ns += enc.as_nanos() as u64;
        self.wire.encode_bytes += (conn.wbuf.len() - before) as u64;
        conn.pending.insert(
            seq,
            Pending {
                due,
                epoch: conn.epoch,
                frame,
                span,
            },
        );
        self.tally.sent += 1;
        self.tally
            .lag_ms
            .push(t0.saturating_duration_since(due).as_secs_f64() * 1e3);
        flush(conn)?;
        conn.until_churn -= 1;
        if conn.until_churn == 0 {
            self.set_view(c)?;
        }
        Ok(())
    }

    fn set_view(&mut self, c: usize) -> Result<(), String> {
        let step = 1 + self.rng.below(VIEWS as u64 - 1) as usize;
        let conn = &mut self.conns[c];
        conn.view = (conn.view + step) % VIEWS;
        conn.epoch += 1;
        conn.until_churn = CHURN_MIN + self.rng.below(CHURN_SPAN);
        Message::SetView(self.views[conn.view])
            .encode_into(&mut conn.wbuf)
            .map_err(|e| e.to_string())?;
        self.view_changes += 1;
        flush(conn)
    }

    /// One pass over both connections: write, read, decode, handle.
    /// Returns whether anything moved.
    fn pump(&mut self) -> Result<bool, String> {
        let mut progress = false;
        for c in 0..self.conns.len() {
            let conn = &mut self.conns[c];
            flush(conn)?;
            if !conn.eof {
                let mut chunk = [0u8; 64 * 1024];
                loop {
                    match conn.stream.read(&mut chunk) {
                        Ok(0) => {
                            conn.eof = true;
                            break;
                        }
                        Ok(n) => {
                            progress = true;
                            conn.rbuf.extend_from_slice(&chunk[..n]);
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(e) => return Err(format!("read: {e}")),
                    }
                }
            }
            let rbuf = std::mem::take(&mut self.conns[c].rbuf);
            let mut used = 0;
            loop {
                let t0 = Instant::now();
                let Some((msg, n)) =
                    wire::decode_frame(&rbuf[used..]).map_err(|e| format!("decode_frame: {e}"))?
                else {
                    break;
                };
                let t1 = Instant::now();
                used += n;
                self.handle(c, msg, n, t0, t1)?;
            }
            let conn = &mut self.conns[c];
            conn.rbuf = rbuf;
            conn.rbuf.drain(..used);
        }
        Ok(progress)
    }

    fn handle(
        &mut self,
        c: usize,
        msg: Message<'_>,
        len: usize,
        t0: Instant,
        t1: Instant,
    ) -> Result<(), String> {
        let conn = &mut self.conns[c];
        match msg {
            Message::Hello { session, .. } => conn.session = session,
            Message::FrameDone {
                seq,
                latency_us,
                missed,
                level,
                frame,
            } => {
                let Some(p) = conn.pending.remove(&seq) else {
                    self.stray += 1;
                    return Ok(());
                };
                let req = ((c as u64) << 40) | seq;
                let decode = (t1 - t0).as_nanos() as u64;
                self.wire.decode_ns += decode;
                self.wire.decode_bytes += len as u64;
                let server = Duration::from_micros(u64::from(latency_us));
                let rtt = (t1 - p.due).as_secs_f64() * 1e3;
                self.tally.done += 1;
                self.tally.rtt_ms.push(rtt);
                self.tally.at_s.push((t1 - self.origin).as_secs_f64());
                self.tally.server_ms.push(server.as_secs_f64() * 1e3);
                if missed || rtt > DEADLINE_MS {
                    self.tally.late += 1;
                }
                let full = level == DegradeLevel::Normal;
                if !full {
                    self.tally.degraded += 1;
                }
                if self.tr.enabled() {
                    let start = t0.checked_sub(server).unwrap_or(t0);
                    self.tr
                        .record("server", p.span, req, start, server.as_nanos() as u64);
                    self.tr.record("wire.decode", p.span, req, t0, decode);
                    self.tr.end_at(p.span, t1);
                }
                self.completed += 1;
                let due_check = self.check_next || self.completed.is_multiple_of(CHECK_EVERY);
                // only replies whose view is certain: no `SetView` since
                // the frame was sent
                if due_check && full && p.epoch == conn.epoch {
                    self.check_next = false;
                    self.checked += 1;
                    let got = frame.planes().first().copied().unwrap_or_default();
                    if got != self.want[conn.view * RING + p.frame].as_slice() {
                        self.mismatches.push(format!(
                            "{}: reply for view {} frame {} differs from the in-process corrector",
                            self.root, conn.view, p.frame
                        ));
                    }
                }
            }
            Message::Shed { seq, .. } => {
                if conn.pending.remove(&seq).is_some() {
                    self.tally.shed += 1;
                } else {
                    self.stray += 1;
                }
            }
            Message::Goodbye => conn.eof = true,
            Message::Connect(_) | Message::SubmitFrame { .. } | Message::SetView(_) => {
                return Err("server sent a client-only message".into());
            }
        }
        Ok(())
    }

    fn in_flight(&self) -> usize {
        self.conns.iter().map(|c| c.pending.len()).sum()
    }

    /// Pump until nothing is in flight; what is still missing after
    /// `REPLY_TIMEOUT` is lost. With `spin` the wait polls without
    /// sleeping, so a reply is seen the moment it lands (the closed
    /// loop's RTT); otherwise it sleeps in `ppoll`.
    fn drain(&mut self, spin: bool) -> Result<(), String> {
        let end = Instant::now() + REPLY_TIMEOUT;
        while self.in_flight() > 0 && Instant::now() < end {
            if !self.pump()? {
                if spin {
                    std::thread::yield_now();
                } else {
                    self.wait(WAIT_SLICE);
                }
            }
        }
        for conn in &mut self.conns {
            self.tally.lost += conn.pending.len() as u64;
            conn.pending.clear();
        }
        Ok(())
    }

    /// Run the host-speed probe if `PROBE_EVERY_S` has passed since
    /// the last run. Call it only with nothing in flight, so the
    /// probe has the core to itself.
    fn probe_if_due(&mut self) {
        let at = self.origin.elapsed().as_secs_f64();
        if self.probe.last_at().is_none_or(|t| at - t >= PROBE_EVERY_S) {
            self.probe.run(at);
        }
    }

    /// `ms` timed at `at_s`, in reference ms (see `probe`).
    fn reference_ms(&self, ms: &[f64], at_s: &[f64]) -> Vec<f64> {
        ms.iter()
            .zip(at_s)
            .map(|(&ms, &at)| ms * self.probe.factor(at))
            .collect()
    }

    /// Closed loop on connection 0: send, wait for the reply, repeat.
    fn closed_loop(&mut self, secs: f64) -> Result<Tally, String> {
        self.tally = Tally::default();
        let end = Instant::now() + Duration::from_secs_f64(secs);
        while Instant::now() < end {
            self.probe_if_due();
            self.send(0, Instant::now())?;
            self.drain(true)?;
        }
        Ok(std::mem::take(&mut self.tally))
    }

    /// Closed loop at full occupancy, in windows of `PEAK_WINDOW`
    /// frames: each connection keeps `PEAK_DEPTH` frames in flight
    /// until the window's frames are all sent, then the pipeline
    /// drains and the probe runs. Returns the phase's tally and every
    /// window's rate in frames per second, raw and in reference time.
    fn peak(&mut self, secs: f64) -> Result<(Tally, Vec<f64>, Vec<f64>), String> {
        self.tally = Tally::default();
        let end = Instant::now() + Duration::from_secs_f64(secs);
        let mut windows = Vec::new();
        while Instant::now() < end {
            self.probe_if_due();
            let t0 = Instant::now();
            let mut left = PEAK_WINDOW;
            while left > 0 {
                for c in 0..CONNS {
                    while left > 0 && self.conns[c].pending.len() < PEAK_DEPTH {
                        self.send(c, Instant::now())?;
                        left -= 1;
                    }
                }
                if !self.pump()? {
                    self.wait(WAIT_SLICE);
                }
            }
            self.drain(false)?;
            windows.push(((t0 - self.origin).as_secs_f64(), t0.elapsed().as_secs_f64()));
        }
        let raw = windows
            .iter()
            .map(|&(_, s)| PEAK_WINDOW as f64 / s)
            .collect();
        let reference = windows
            .iter()
            .map(|&(at, s)| PEAK_WINDOW as f64 / (s * self.probe.factor(at)))
            .collect();
        Ok((std::mem::take(&mut self.tally), raw, reference))
    }

    /// The gap to a connection's next frame: the period for `Even`
    /// arrivals, an exponential draw with that mean for `Poisson`.
    fn gap(&mut self, period: Duration, arrivals: Arrivals) -> Duration {
        match arrivals {
            Arrivals::Even => period,
            Arrivals::Poisson => period.mul_f64(-(1.0 - self.rng.next_f64()).ln()),
        }
    }

    /// Open loop over both connections at `fps` in total, each on its
    /// own schedule drawn from the seed. With `reconnect`, the second
    /// connection drains, says goodbye and reconnects once, that share
    /// into the phase; frames due while it is away are skipped, not
    /// sent late.
    fn open_loop(
        &mut self,
        fps: f64,
        secs: f64,
        arrivals: Arrivals,
        reconnect: Option<f64>,
    ) -> Result<Tally, String> {
        self.tally = Tally::default();
        let period = Duration::from_secs_f64(CONNS as f64 / fps);
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(secs);
        let mut due = Vec::with_capacity(CONNS);
        for c in 0..CONNS {
            let first = match arrivals {
                // evenly interleaved, with a little seeded jitter
                Arrivals::Even => {
                    let slot = (c as f64 + 0.1 * self.rng.next_f64()) / CONNS as f64;
                    period.mul_f64(slot)
                }
                Arrivals::Poisson => self.gap(period, arrivals),
            };
            due.push(start + first);
        }
        let mut link = Link::Up;
        let mut reconnect_at = reconnect.map(|f| start + Duration::from_secs_f64(secs * f));
        loop {
            let now = Instant::now();
            if now >= end {
                break;
            }
            if reconnect_at.is_some_and(|t| now >= t) {
                reconnect_at = None;
                link = Link::Draining;
            }
            link = self.step_reconnect(link)?;
            for (c, d) in due.iter_mut().enumerate() {
                // while away, the slots that fall due are skipped
                let away = c == 1 && link != Link::Up;
                while *d <= now {
                    if !away {
                        self.send(c, *d)?;
                    }
                    *d += self.gap(period, arrivals);
                }
            }
            if !self.pump()? {
                let next = due.iter().min().copied().unwrap_or(end);
                let sleep = next.saturating_duration_since(Instant::now() + SPIN_AHEAD);
                if sleep.is_zero() {
                    std::thread::yield_now();
                } else {
                    self.wait(sleep.min(WAIT_SLICE));
                }
            }
        }
        if link != Link::Up {
            return Err(format!("reconnect still {link:?} at the end of the phase"));
        }
        self.drain(false)?;
        Ok(std::mem::take(&mut self.tally))
    }

    fn step_reconnect(&mut self, link: Link) -> Result<Link, String> {
        Ok(match link {
            Link::Up => link,
            Link::Draining if self.conns[1].pending.is_empty() => {
                let conn = &mut self.conns[1];
                Message::Goodbye
                    .encode_into(&mut conn.wbuf)
                    .map_err(|e| e.to_string())?;
                flush(conn)?;
                conn.stream
                    .shutdown(Shutdown::Write)
                    .map_err(io("shutdown"))?;
                Link::Closing
            }
            Link::Closing if self.conns[1].eof => {
                let old = &self.conns[1];
                let (view, seq, epoch) = (old.view, old.next_seq, old.epoch + 1);
                self.conns[1] = self.open(view, seq, epoch)?;
                Link::Connecting
            }
            Link::Connecting if self.conns[1].session != 0 => Link::Up,
            other => other,
        })
    }

    fn say_goodbye(&mut self) {
        for conn in &mut self.conns {
            if Message::Goodbye.encode_into(&mut conn.wbuf).is_ok() {
                let _ = flush(conn);
            }
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        self.conns.clear();
    }
}

/// How an open loop spaces a connection's frames.
#[derive(Clone, Copy, Debug)]
enum Arrivals {
    /// A fixed period, the connections evenly interleaved.
    Even,
    /// Exponential gaps: independent arrivals, so queueing shows.
    Poisson,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Link {
    Up,
    Draining,
    Closing,
    Connecting,
}

fn flush(conn: &mut Conn) -> Result<(), String> {
    while !conn.wbuf.is_empty() {
        match conn.stream.write(&conn.wbuf) {
            Ok(0) => return Err("write: connection closed".into()),
            Ok(n) => {
                conn.wbuf.drain(..n);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("write: {e}")),
        }
    }
    Ok(())
}

pub fn run(args: &Args, tr: &mut Tracer) -> Result<Outcome, String> {
    // before any thread starts: the server's threads inherit the mask
    let cpu = sys::pin_to_first_cpu()?;
    // one core, so per-thread arenas buy nothing here, and they made
    // the peak resident set vary by ~4 MB from run to run
    sys::single_malloc_arena()?;
    let lens = FisheyeLens::equidistant_fov(W, H, 180.0);
    let mut rng = Xoshiro256pp::seed_from_u64(args.seed ^ 0x6e65_745f_7176_6761);
    let views: Vec<PerspectiveView> = (0..VIEWS)
        .map(|_| {
            let pan = (rng.next_f64() * 2.0 - 1.0) * 30.0;
            let tilt = (rng.next_f64() * 2.0 - 1.0) * 20.0;
            PerspectiveView::centered(W, H, 90.0).look(pan, tilt)
        })
        .collect();
    let mut feed = CameraFeed::new(W, H, args.seed);
    let ring: Vec<Arc<Frame>> = (0..RING)
        .map(|_| feed.next_frame_in(FrameFormat::Gray8))
        .collect();
    // the reference for every reply: an in-process corrector built
    // from the same session description
    let refs = views
        .iter()
        .map(|v| {
            Corrector::<Gray8>::builder()
                .lens(lens)
                .view(*v)
                .source(W, H)
                .backend(EngineSpec::Simd)
                .interp(Interpolator::Bilinear)
                .build()
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("reference corrector: {e}"))?;
    let mut want = Vec::with_capacity(VIEWS * RING);
    let mut img = pixmap::Image::<Gray8>::new(W, H);
    for r in &refs {
        for f in &ring {
            let Frame::Gray8(src) = f.as_ref() else {
                return Err("ring frame is not gray8".into());
            };
            r.correct_into(src, &mut img)
                .map_err(|e| format!("reference: {e}"))?;
            want.push(img.pixels().iter().map(|p| p.0).collect());
        }
    }
    let cfg = NetServerConfig {
        server: ServerConfig {
            capacity: CONNS,
            queue_depth: QUEUE_DEPTH,
            ..ServerConfig::default()
        },
        shards: 1,
        ..NetServerConfig::default()
    };
    let traced = tr.enabled();
    let reconnect_at = 0.3 + 0.4 * rng.next_f64();
    let mut g = Gen {
        addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        lens,
        conns: Vec::new(),
        ring,
        views,
        rng,
        tally: Tally::default(),
        want,
        completed: 0,
        checked: 0,
        mismatches: Vec::new(),
        check_next: false,
        wire: WireTally::default(),
        view_changes: 0,
        connects: 0,
        stray: 0,
        tr,
        root: "rtt.setup",
        probe: Probe::new(),
        origin: Instant::now(),
    };
    let mut out = Outcome::new();
    let mut failed = 0u64;
    let mut sent = 0u64;

    // set-up: bind, both handshakes (each compiles its view's plan on
    // the shard thread), the first frame back
    let mut setup_s = Vec::new();
    let mut ref_setup_s = Vec::new();
    let mut server: Option<NetServer> = None;
    for _ in 0..SETUP_REPS {
        if let Some(mut old) = server.take() {
            g.say_goodbye();
            old.shutdown();
        }
        let factor = g.probe.factor_now(g.origin.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let srv = NetServer::bind("127.0.0.1:0", cfg).map_err(|e| format!("bind: {e}"))?;
        g.addr = srv.addr();
        let c0 = g.open(0, 0, 0)?;
        let c1 = g.open(1, 0, 0)?;
        g.conns = vec![c0, c1];
        g.await_sessions()?;
        g.check_next = true;
        g.send(0, Instant::now())?;
        g.drain(true)?;
        let s = t0.elapsed().as_secs_f64();
        setup_s.push(s);
        ref_setup_s.push(s * factor);
        let t = std::mem::take(&mut g.tally);
        sent += t.sent;
        failed += t.sent - t.done;
        server = Some(srv);
    }
    let server = server.ok_or("no set-up ran")?;
    out.note(format!("every thread pinned to CPU {cpu}"));
    let reps = setup_s.len();
    out.put("setup_s", stats::median(&ref_setup_s), "s", reps);
    out.put("setup_s_raw", stats::median(&setup_s), "s", reps);

    let secs = args.seconds;
    if !traced {
        g.root = "rtt.idle";
        let idle = g.closed_loop(secs * IDLE_SHARE)?;
        g.root = "rtt.peak";
        let (peak, peak_raw, peak_ref) = g.peak(secs * PEAK_SHARE)?;
        // read before the open loops: what they leave queued depends on
        // the host's speed while they run, not only on the program
        out.put("peak_rss_mb", sys::peak_rss_mb()?, "MB", 0);
        g.root = "rtt.load";
        let load = g.open_loop(
            LOAD_FPS,
            secs * LOAD_SHARE,
            Arrivals::Poisson,
            Some(reconnect_at),
        )?;
        let n_load = load.rtt_ms.len();
        let n_idle = idle.rtt_ms.len();
        let n_peak = peak.rtt_ms.len();
        let peak_rtt_ref = g.reference_ms(&peak.rtt_ms, &peak.at_s);
        out.put("latency_ms_p50", stats::median(&peak_rtt_ref), "ms", n_peak);
        out.put("fps", stats::median(&peak_ref), "1/s", peak_ref.len());
        let host_speed = crate::probe::REF_MS / g.probe.median_ms();
        out.put("host_speed", host_speed, "ratio", 0);
        out.put("idle_rtt_ms_p50", stats::median(&idle.rtt_ms), "ms", n_idle);
        out.put("peak_rtt_ms_p50", stats::median(&peak.rtt_ms), "ms", n_peak);
        out.put("peak_fps", stats::median(&peak_raw), "1/s", peak_raw.len());
        out.put("rtt_ms_p50", load.p(0.5), "ms", n_load);
        out.put("rtt_ms_p99", load.p(0.99), "ms", n_load);
        if stats::beyond(&load.rtt_ms, 0.99) < 10 {
            out.note(format!(
                "rtt_ms_p99: only {} samples beyond p99",
                stats::beyond(&load.rtt_ms, 0.99)
            ));
        }
        out.put(
            "loadgen.lag_ms_p99",
            stats::percentile(&load.lag_ms, 0.99),
            "ms",
            load.lag_ms.len(),
        );
        let load_sent = load.sent.max(1) as f64;
        out.put(
            "deadline_miss_ratio",
            (load.late + load.shed + load.lost) as f64 / load_sent,
            "ratio",
            load.sent as usize,
        );
        let done = (idle.done + peak.done + load.done).max(1) as f64;
        out.put(
            "degraded_ratio",
            (idle.degraded + peak.degraded + load.degraded) as f64 / done,
            "ratio",
            done as usize,
        );
        for (t, phase) in [(&idle, "idle"), (&peak, "peak"), (&load, "load")] {
            sent += t.sent;
            failed += t.lost + t.shed;
            out.note(t.summary(phase));
        }

        g.root = "rtt.ramp";
        let ramp_end = Instant::now() + Duration::from_secs_f64(secs * RAMP_SHARE);
        let mut max_rate = 0.0f64;
        let mut climbs = 0;
        while climbs == 0 || Instant::now() < ramp_end {
            climbs += 1;
            let mut top = 0.0;
            for k in 0..RAMP_STEPS {
                let fps = RAMP_FIRST_FPS * RAMP_RATIO.powi(k as i32);
                let t = g.open_loop(fps, RAMP_WINDOW_S, Arrivals::Even, None)?;
                sent += t.sent;
                failed += t.lost;
                if t.lost > 0 {
                    out.note(format!("ramp at {fps:.1} fps lost {} frames", t.lost));
                }
                let p99 = t.p(0.99);
                let growth = t.backlog_growth();
                let ok = p99 <= DEADLINE_MS
                    && t.shed == 0
                    && t.lost == 0
                    && t.degraded == 0
                    && growth <= MAX_BACKLOG_GROWTH;
                if !ok {
                    out.note(format!(
                        "climb {climbs} stops: {} p99 {p99:.3} ms backlog growth {growth:.2}",
                        t.summary(&format!("{fps:.1} fps"))
                    ));
                    break;
                }
                top = fps;
                if k + 1 == RAMP_STEPS {
                    out.note(format!("climb {climbs} reached the top of the ladder"));
                }
            }
            max_rate = max_rate.max(top);
        }
        out.put("max_rate_fps", max_rate, "1/s", climbs);
        out.put("peak_rss_mb_whole_run", sys::peak_rss_mb()?, "MB", 0);
    } else {
        g.root = "rtt.idle";
        g.tr.set_enabled(false);
        let plain = g.closed_loop(secs * 0.25)?;
        g.tr.set_enabled(true);
        let idle = g.closed_loop(secs * 0.25)?;
        let before = server.metrics_snapshot();
        g.root = "rtt.load";
        let load = g.open_loop(LOAD_FPS, secs * 0.5, Arrivals::Poisson, Some(reconnect_at))?;
        let snap = server.metrics_snapshot();
        for (t, phase) in [(&plain, "idle untraced"), (&idle, "idle"), (&load, "load")] {
            sent += t.sent;
            failed += t.lost + t.shed;
            out.note(t.summary(phase));
        }
        let tr = &*g.tr;
        let n_idle = idle.rtt_ms.len();
        let enc = stats::median(&tr.durations_ms("wire.encode")) * 1e3;
        let dec = stats::median(&tr.durations_ms("wire.decode")) * 1e3;
        out.put(
            "wire.encode_us",
            enc,
            "us",
            tr.durations_ms("wire.encode").len(),
        );
        out.put(
            "wire.decode_us",
            dec,
            "us",
            tr.durations_ms("wire.decode").len(),
        );
        let w = &g.wire;
        let wire_bytes = (w.encode_bytes + w.decode_bytes) as f64;
        out.put(
            "wire.gbps",
            wire_bytes / (w.encode_ns + w.decode_ns).max(1) as f64,
            "GB/s",
            0,
        );
        let net = tr.self_ms("rtt.idle");
        out.put("net.overhead_ms_p50", stats::median(&net), "ms", net.len());
        out.put(
            "net.overhead_ms_p99",
            stats::percentile(&net, 0.99),
            "ms",
            net.len(),
        );
        let n_load = load.server_ms.len();
        out.put(
            "server.latency_ms_p50",
            stats::median(&load.server_ms),
            "ms",
            n_load,
        );
        out.put(
            "server.latency_ms_p99",
            stats::percentile(&load.server_ms, 0.99),
            "ms",
            n_load,
        );
        out.put(
            "server.shed",
            (plain.shed + idle.shed + load.shed) as f64,
            "count",
            0,
        );
        let degraded = plain.degraded + idle.degraded + load.degraded;
        out.put("server.degraded", degraded as f64, "count", 0);
        let escalations = snap.counter("serve.degrade.escalations");
        out.put("server.escalations", escalations as f64, "count", 0);
        let gauge = |name: &str| snap.gauge_value(name).unwrap_or(0.0);
        out.put("cache.hit_ratio", gauge("serve.cache.hit_rate"), "ratio", 0);
        out.put(
            "cache.compiles",
            gauge("serve.cache.cold.misses"),
            "count",
            0,
        );
        out.put(
            "cache.resident_bytes",
            server.resident_plan_bytes() as f64,
            "B",
            0,
        );
        let (hits, misses) = (
            snap.counter("serve.pool.hits"),
            snap.counter("serve.pool.misses"),
        );
        out.put(
            "pool.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
            0,
        );
        out.put(
            "loadgen.lag_ms_p99",
            stats::percentile(&load.lag_ms, 0.99),
            "ms",
            load.lag_ms.len(),
        );
        let all = [&plain, &idle, &load];
        out.put(
            "loadgen.sent",
            all.iter().map(|t| t.sent).sum::<u64>() as f64,
            "count",
            0,
        );
        let received: u64 = all.iter().map(|t| t.done + t.shed).sum();
        out.put("loadgen.received", received as f64, "count", 0);
        // the engine as the server saw it during the load phase
        let engine = snap
            .histogram("serve.engine.correct_us")
            .map(|h| match before.histogram("serve.engine.correct_us") {
                Some(b) => h.diff(&b),
                None => h,
            })
            .ok_or("server reported no engine timings")?;
        let engine_ns = engine.mean().as_nanos() as f64;
        out.put(
            "engine.ns_per_px",
            engine_ns / PX,
            "ns",
            engine.count() as usize,
        );
        let bytes = sys::computed_gather_bytes(refs[0].plan());
        out.put(
            "engine.computed_gbps",
            bytes / engine_ns,
            "GB/s",
            engine.count() as usize,
        );
        // what a cache miss compiles inline on the shard thread
        let map_ms: Vec<f64> = refs
            .iter()
            .map(|c| c.map_time().as_secs_f64() * 1e3)
            .collect();
        let plan_ms: Vec<f64> = refs
            .iter()
            .map(|c| c.plan_time().as_secs_f64() * 1e3)
            .collect();
        out.put("map.build_ms", stats::median(&map_ms), "ms", VIEWS);
        out.put(
            "map.ns_per_px",
            stats::median(&map_ms) * 1e6 / PX,
            "ns",
            VIEWS,
        );
        out.put("plan.compile_ms", stats::median(&plan_ms), "ms", VIEWS);
        out.put(
            "plan.bytes_per_px",
            refs[0].view_plan().bytes() as f64 / PX,
            "B",
            0,
        );
        let rtt = stats::median(&idle.rtt_ms);
        out.put(
            "trace.overhead_share",
            rtt / stats::median(&plain.rtt_ms) - 1.0,
            "ratio",
            n_idle,
        );
        let parts = stats::median(&net) + stats::median(&idle.server_ms) + (enc + dec) / 1e3;
        out.put("trace.covered_share", parts / rtt, "ratio", n_idle);
    }
    out.note(format!(
        "connects {} view changes {} stray replies {} replies checked {}",
        g.connects, g.view_changes, g.stray, g.checked
    ));
    for m in std::mem::take(&mut g.mismatches) {
        out.mismatch(m);
    }
    out.attempted = sent + g.connects + g.view_changes;
    out.failed = failed + g.stray;
    g.say_goodbye();
    drop(server);
    Ok(out)
}
