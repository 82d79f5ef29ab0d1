//! Load generation over a line transport: an open loop at a fixed
//! arrival schedule and a closed window of pipelined requests.
//!
//! The open loop sends each request when it is due, whether or not
//! earlier answers have arrived, and times it from its due time. A stall
//! anywhere (server, network, or this generator) is therefore charged to
//! every request queued behind it instead of being hidden by a client
//! that politely waited (no coordinated omission). How late the generator
//! itself sent each request is recorded too, so a stalled generator
//! shows up as lateness rather than as a quiet server.

use crate::trace::line_key;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One request/response line channel. Responses arrive in request order.
pub trait Transport {
    /// Sends one request line (without its newline).
    fn send(&mut self, line: &str) -> io::Result<()>;
    /// Waits up to `wait` for the next response line; `Ok(None)` on timeout.
    fn recv(&mut self, wait: Duration) -> io::Result<Option<String>>;
}

/// A [`Transport`] over one TCP connection to the line-protocol server.
///
/// The socket is nonblocking and waits go through `ppoll`, whose timeout
/// has the timer's microsecond precision; a socket read timeout would be
/// rounded up to a whole scheduler tick (several milliseconds), which
/// would make an open-loop generator run late by that much.
pub struct TcpTransport {
    stream: TcpStream,
    buf: Vec<u8>,
    /// How far `buf` has been searched for a newline.
    scanned: usize,
}

impl TcpTransport {
    pub fn connect(addr: std::net::SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(TcpTransport {
            stream,
            buf: Vec::with_capacity(1 << 16),
            scanned: 0,
        })
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, line: &str) -> io::Result<()> {
        let mut data = Vec::with_capacity(line.len() + 1);
        data.extend_from_slice(line.as_bytes());
        data.push(b'\n');
        let mut rest = data.as_slice();
        while !rest.is_empty() {
            match self.stream.write(rest) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    poll::wait(&self.stream, poll::WRITABLE, STALL_LIMIT)?;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    fn recv(&mut self, wait: Duration) -> io::Result<Option<String>> {
        let deadline = Instant::now() + wait;
        let mut chunk = [0u8; 1 << 16];
        loop {
            if let Some(pos) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                let end = self.scanned + pos;
                let line = String::from_utf8_lossy(&self.buf[..end]).into_owned();
                self.buf.drain(..=end);
                self.scanned = 0;
                return Ok(Some(line));
            }
            self.scanned = self.buf.len();
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() || !poll::wait(&self.stream, poll::READABLE, left)? {
                        return Ok(None);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Microsecond-precision readiness waits on one socket.
mod poll {
    use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
    use std::io;
    use std::net::TcpStream;
    use std::os::fd::AsRawFd;
    use std::time::Duration;

    pub const READABLE: c_short = 0x001; // POLLIN
    pub const WRITABLE: c_short = 0x004; // POLLOUT

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }

    /// Waits up to `wait` for `events` on `stream`; `Ok(false)` on timeout
    /// or an interrupted wait.
    pub fn wait(stream: &TcpStream, events: c_short, wait: Duration) -> io::Result<bool> {
        let mut fd = PollFd {
            fd: stream.as_raw_fd(),
            events,
            revents: 0,
        };
        let timeout = Timespec {
            tv_sec: wait.as_secs().min(c_long::MAX as u64) as c_long,
            tv_nsec: c_long::from(wait.subsec_nanos() as i32),
        };
        // SAFETY: `fd` and `timeout` are live, aligned locals for the
        // whole call; `nfds` is 1, matching the single `PollFd`; the file
        // descriptor is owned by `stream`, which outlives the call; a null
        // signal mask leaves the thread's mask unchanged.
        let ready = unsafe { ppoll(&mut fd, 1, &timeout, std::ptr::null()) };
        if ready < 0 {
            let e = io::Error::last_os_error();
            return if e.kind() == io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            };
        }
        Ok(ready > 0)
    }
}

/// One request of a schedule: its due offset from the run start and its
/// wire line.
#[derive(Clone, Copy, Debug)]
pub struct Scheduled<'a> {
    pub due: Duration,
    pub line: &'a str,
}

/// One completed request.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Index of the request in the schedule or line list it came from.
    pub index: usize,
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
    /// The response line, or empty when the caller asked for its digest
    /// only (which keeps a long run's memory to a few bytes per request).
    pub response: String,
    /// [`line_key`] of the response line.
    pub digest: u64,
    /// Whether the server refused the request (`error ...`).
    pub refused: bool,
}

/// Builds a sample, keeping the response text only when asked to.
fn sample(
    index: usize,
    due: Instant,
    sent: Instant,
    done: Instant,
    response: String,
    keep: bool,
) -> Sample {
    Sample {
        index,
        due,
        sent,
        done,
        digest: line_key(&response),
        refused: response.starts_with("error"),
        response: if keep { response } else { String::new() },
    }
}

impl Sample {
    /// Latency from due time to response, in seconds.
    pub fn latency_s(&self) -> f64 {
        self.done.duration_since(self.due).as_secs_f64()
    }

    /// How late the generator sent the request, in seconds.
    pub fn late_s(&self) -> f64 {
        self.sent.duration_since(self.due).as_secs_f64()
    }

    /// Round trip from the actual send to the response, in seconds.
    pub fn round_trip_s(&self) -> f64 {
        self.done.duration_since(self.sent).as_secs_f64()
    }
}

/// How long any wait for a response may take before the run is declared
/// hung.
const STALL_LIMIT: Duration = Duration::from_secs(60);

/// Below this, the generator sends instead of waiting for a response.
const MIN_WAIT: Duration = Duration::from_micros(20);

/// Drives `schedule` (ascending due offsets) open-loop over `transport`,
/// starting at `start`. Every request is sent at its due time or as soon
/// after as the generator can; every sample is timed from its due time.
/// `keep` keeps each response's text next to its digest.
pub fn open_loop<T: Transport>(
    transport: &mut T,
    start: Instant,
    schedule: &[Scheduled<'_>],
    keep: bool,
) -> io::Result<Vec<Sample>> {
    let mut samples = Vec::with_capacity(schedule.len());
    let mut in_flight: VecDeque<(usize, Instant, Instant)> = VecDeque::new();
    let mut next = 0;
    let mut last_progress = Instant::now();
    loop {
        let now = Instant::now();
        while next < schedule.len() && start + schedule[next].due <= now {
            transport.send(schedule[next].line)?;
            last_progress = Instant::now();
            in_flight.push_back((next, start + schedule[next].due, last_progress));
            next += 1;
        }
        if next == schedule.len() && in_flight.is_empty() {
            return Ok(samples);
        }
        let wait = if next < schedule.len() {
            (start + schedule[next].due).saturating_duration_since(Instant::now())
        } else {
            STALL_LIMIT
        };
        if in_flight.is_empty() || wait < MIN_WAIT {
            if wait >= MIN_WAIT {
                std::thread::sleep(wait);
            }
            continue;
        }
        match transport.recv(wait)? {
            Some(response) => {
                let done = Instant::now();
                let (index, due, sent) = in_flight
                    .pop_front()
                    .expect("a response implies a request in flight");
                samples.push(sample(index, due, sent, done, response, keep));
                last_progress = done;
            }
            None if last_progress.elapsed() > STALL_LIMIT => {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "no response within the stall limit",
                ))
            }
            None => {}
        }
    }
}

/// Drives `lines` closed-loop with `window` requests pipelined in flight:
/// the next line is sent as soon as any answer returns. Each sample's due
/// time is its send time. `keep` as for [`open_loop`].
pub fn windowed<T: Transport>(
    transport: &mut T,
    window: usize,
    lines: &[&str],
    keep: bool,
) -> io::Result<Vec<Sample>> {
    let mut samples = Vec::with_capacity(lines.len());
    let mut in_flight: VecDeque<(usize, Instant)> = VecDeque::new();
    let mut next = 0;
    while next < lines.len().min(window.max(1)) {
        transport.send(lines[next])?;
        in_flight.push_back((next, Instant::now()));
        next += 1;
    }
    while let Some(&(index, sent)) = in_flight.front() {
        let response = transport.recv(STALL_LIMIT)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::TimedOut,
                "no response within the stall limit",
            )
        })?;
        let done = Instant::now();
        in_flight.pop_front();
        samples.push(sample(index, sent, sent, done, response, keep));
        if next < lines.len() {
            transport.send(lines[next])?;
            in_flight.push_back((next, Instant::now()));
            next += 1;
        }
    }
    Ok(samples)
}

/// A fixed-rate schedule of `count` arrivals, `1 / rate` seconds apart,
/// starting `lead` after the run start.
pub fn fixed_rate(count: usize, rate: f64, lead: Duration) -> Vec<Duration> {
    (0..count)
        .map(|i| lead + Duration::from_secs_f64(i as f64 / rate))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{quantile, sorted};
    use std::sync::Arc;

    /// An in-memory transport whose server answers synchronously inside
    /// `send`, stalling once for `stall` on request `stall_at`.
    struct StallOnce {
        sent: usize,
        stall_at: usize,
        stall: Duration,
        ready: VecDeque<String>,
    }

    impl Transport for StallOnce {
        fn send(&mut self, line: &str) -> io::Result<()> {
            if self.sent == self.stall_at {
                std::thread::sleep(self.stall);
            }
            self.sent += 1;
            self.ready.push_back(format!("echo {line}"));
            Ok(())
        }

        fn recv(&mut self, _wait: Duration) -> io::Result<Option<String>> {
            Ok(self.ready.pop_front())
        }
    }

    fn lines(count: usize) -> Vec<String> {
        (0..count).map(|i| format!("r{i}")).collect()
    }

    fn schedule(lines: &[String], rate: f64) -> Vec<Scheduled<'_>> {
        fixed_rate(lines.len(), rate, Duration::ZERO)
            .into_iter()
            .zip(lines)
            .map(|(due, line)| Scheduled { due, line })
            .collect()
    }

    #[test]
    fn a_stalled_generator_is_charged_and_reported_late() {
        // 1000 req/s for 0.4 s; request 100 blocks the sender for 100 ms,
        // so the ~100 requests due during the stall go out late.
        let stall = Duration::from_millis(100);
        let mut t = StallOnce {
            sent: 0,
            stall_at: 100,
            stall,
            ready: VecDeque::new(),
        };
        let lines = lines(400);
        let sched = schedule(&lines, 1000.0);
        let samples = open_loop(&mut t, Instant::now(), &sched, true).unwrap();
        assert_eq!(samples.len(), 400);
        let by_index = |i: usize| samples.iter().find(|s| s.index == i).unwrap();
        // The request due right after the stall began waited ~the stall.
        assert!(
            by_index(101).latency_s() >= 0.09,
            "{}",
            by_index(101).latency_s()
        );
        assert!(by_index(101).late_s() >= 0.09);
        // Lateness decays across the queue: a request due 50 ms into the
        // stall is still charged the remaining ~50 ms.
        assert!(by_index(150).latency_s() >= 0.04);
        let late = sorted(&samples.iter().map(Sample::late_s).collect::<Vec<_>>());
        assert!(quantile(&late, 1.0).unwrap() >= 0.09);
        // Well after the stall the generator is back on schedule.
        assert!(by_index(399).late_s() < 0.05);
        // The stall shows in the tail: p99 of 400 has 4 samples beyond it
        // and about 100 requests were delayed.
        let lat = sorted(&samples.iter().map(Sample::latency_s).collect::<Vec<_>>());
        assert!(quantile(&lat, 0.9).unwrap() >= 0.01);
    }

    /// A line server over real TCP whose handler stalls once.
    struct StallingHandler {
        calls: std::sync::atomic::AtomicUsize,
        stall_at: usize,
        stall: Duration,
    }

    impl privpath_serve::RequestHandler for StallingHandler {
        fn handle(&self, line: &str) -> String {
            let n = self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            if n == self.stall_at {
                std::thread::sleep(self.stall);
            }
            format!("echo {line}")
        }
    }

    #[test]
    fn a_stalled_server_is_charged_to_the_requests_queued_behind_it() {
        let handler = Arc::new(StallingHandler {
            calls: Default::default(),
            stall_at: 50,
            stall: Duration::from_millis(150),
        });
        let server = privpath_serve::Server::bind_handler("127.0.0.1:0", handler)
            .unwrap()
            .with_threads(1)
            .spawn()
            .unwrap();
        let mut t = TcpTransport::connect(server.addr()).unwrap();
        let lines = lines(300);
        let sched = schedule(&lines, 1000.0);
        let samples = open_loop(&mut t, Instant::now(), &sched, true).unwrap();
        drop(t);
        server.shutdown().unwrap();
        assert_eq!(samples.len(), 300);
        for s in &samples {
            assert_eq!(s.response, format!("echo r{}", s.index));
        }
        // Requests due during the stall were sent on time (the socket
        // buffers them) but answered only after it: their latency from
        // due time carries the rest of the stall.
        let s = &samples[100];
        assert!(s.late_s() < 0.05, "generator late {}", s.late_s());
        assert!(s.latency_s() >= 0.08, "latency {}", s.latency_s());
        let lat = sorted(&samples.iter().map(Sample::latency_s).collect::<Vec<_>>());
        assert!(quantile(&lat, 0.75).unwrap() >= 0.01);
    }

    #[test]
    fn windowed_keeps_order_and_answers_every_line() {
        let mut t = StallOnce {
            sent: 0,
            stall_at: usize::MAX,
            stall: Duration::ZERO,
            ready: VecDeque::new(),
        };
        let owned: Vec<String> = (0..50).map(|i| format!("q{i}")).collect();
        let lines: Vec<&str> = owned.iter().map(String::as_str).collect();
        let samples = windowed(&mut t, 4, &lines, true).unwrap();
        assert_eq!(samples.len(), 50);
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(s.index, i);
            assert_eq!(s.response, format!("echo q{i}"));
        }
    }
}
