//! The load generator: an open loop on one connection (the sparse phase) and
//! a closed loop on a few (the sat phase), both over real loopback TCP.

use crate::rng::Rng;
use crate::wire::{is_correct, Splitter};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One request as it goes on the wire, and the body a correct reply carries.
pub struct Prepared {
    pub bytes: Vec<u8>,
    pub expected: Vec<u8>,
}

/// What a phase sends: `order` indexes `requests` and is walked cyclically.
pub struct Plan {
    pub requests: Vec<Prepared>,
    pub order: Vec<usize>,
}

impl Plan {
    fn nth(&self, k: usize) -> &Prepared {
        &self.requests[self.order[k % self.order.len()]]
    }
}

/// One correct exchange. Times are nanoseconds since the `epoch` the phase
/// was given; `start_ns` is the due time in an open loop.
#[derive(Clone, Copy)]
pub struct Exchange {
    pub start_ns: u64,
    pub end_ns: u64,
    pub segment: usize,
}

pub struct Phase {
    /// When the first segment began, nanoseconds since the epoch.
    pub start_ns: u64,
    pub segment_len: Duration,
    pub segments: usize,
    pub exchanges: Vec<Exchange>,
    /// Open loop only: how long after its due time each request was written.
    pub late_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// What went wrong first, when something did.
    pub first_failure: Option<String>,
}

impl Phase {
    fn note_failure(&mut self, what: impl FnOnce() -> String) {
        if self.first_failure.is_none() {
            self.first_failure = Some(what());
        }
    }

    /// Latencies of the correct exchanges, by segment.
    pub fn latencies(&self) -> Vec<Vec<u64>> {
        let mut out = vec![Vec::new(); self.segments];
        for x in &self.exchanges {
            out[x.segment].push(x.end_ns - x.start_ns);
        }
        out
    }

    /// Correct exchanges per second, by segment.
    pub fn rates(&self) -> Vec<f64> {
        let mut counts = vec![0u64; self.segments];
        for x in &self.exchanges {
            counts[x.segment] += 1;
        }
        let secs = self.segment_len.as_secs_f64();
        counts.iter().map(|&c| c as f64 / secs).collect()
    }
}

/// A reply that takes longer than this is a failed operation. Long enough
/// that a guest the host paused for some seconds has slow operations, not
/// failed ones.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

/// How long before a due time the sender stops sleeping and spins: above the
/// kernel's 50 µs timer slack, so requests leave on time and lateness
/// measures stalls, not `nanosleep`.
const SPIN: Duration = Duration::from_micros(120);

/// A connection as every client of the benchmark makes it.
pub fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, REPLY_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    Ok(stream)
}

fn wait_until(due: Instant) {
    loop {
        let left = due.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// A wrong reply, short enough for one line of a log.
fn describe(k: usize, status: u16, body: &[u8]) -> String {
    let shown = String::from_utf8_lossy(&body[..body.len().min(80)]);
    format!(
        "reply to request {k}: status {status}, {} body bytes {shown:?}",
        body.len()
    )
}

fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

/// A schedule fixed before the first request: `rate` per second for
/// `segments` × `segment_len`, one request per slot of `1/rate` seconds, at an
/// offset within its slot drawn from `jitter_seed`.
///
/// The offsets are there because the program polls on fixed periods (100 µs
/// and 50 µs sleeps): arrivals on an exact grid alias with those periods, and
/// the median then depends on where in a poll cycle the grid happens to fall,
/// which differs from run to run by tens of µs.
struct Schedule {
    t0: Instant,
    interval: Duration,
    per_segment: usize,
    /// Due time of each request, in slots since `t0`.
    offsets: Vec<f64>,
}

impl Schedule {
    fn new(rate: f64, segment_len: Duration, segments: usize, jitter_seed: u64) -> Self {
        let per_segment = ((rate * segment_len.as_secs_f64()).round() as usize).max(1);
        let mut rng = Rng::new(jitter_seed);
        Schedule {
            t0: Instant::now() + Duration::from_millis(2),
            interval: segment_len.div_f64(per_segment as f64),
            per_segment,
            offsets: (0..per_segment * segments)
                .map(|k| k as f64 + rng.unit())
                .collect(),
        }
    }

    fn total(&self) -> usize {
        self.offsets.len()
    }

    fn due(&self, k: usize) -> Instant {
        self.t0 + self.interval.mul_f64(self.offsets[k])
    }

    fn phase(&self, epoch: Instant, segment_len: Duration, segments: usize) -> Phase {
        Phase {
            start_ns: ns_since(epoch, self.t0),
            segment_len,
            segments,
            exchanges: Vec::with_capacity(self.total()),
            late_ns: Vec::new(),
            attempted: self.total() as u64,
            failed: 0,
            first_failure: None,
        }
    }

    /// Record request `k`, due on schedule and answered correctly at `end`.
    fn record(&self, phase: &mut Phase, epoch: Instant, k: usize, end: Instant) {
        phase.exchanges.push(Exchange {
            start_ns: ns_since(epoch, self.due(k)),
            end_ns: ns_since(epoch, end),
            segment: k / self.per_segment,
        });
    }
}

/// Open loop over one connection on a [`Schedule`]. A request goes out at its
/// due time whether or not earlier replies are back (so a stall pipelines the
/// requests behind it), and its latency runs from the due time, which charges
/// a stall to every request it delayed.
pub fn open_loop(
    addr: SocketAddr,
    plan: &Plan,
    rate: f64,
    segment_len: Duration,
    segments: usize,
    epoch: Instant,
    jitter_seed: u64,
) -> io::Result<Phase> {
    let mut reader = connect(addr)?;
    let mut writer = reader.try_clone()?;
    let schedule = Schedule::new(rate, segment_len, segments, jitter_seed);
    let total = schedule.total();
    let mut phase = schedule.phase(epoch, segment_len, segments);

    // Due requests whose reply has not been read, oldest first. The sender
    // queues before it writes, so the reader never sees an unannounced reply.
    let in_flight: Mutex<VecDeque<usize>> = Mutex::new(VecDeque::new());

    let late_ns = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut late = Vec::with_capacity(total);
            for k in 0..total {
                let due = schedule.due(k);
                wait_until(due);
                late.push(ns_since(due, Instant::now()));
                in_flight.lock().expect("reader panicked").push_back(k);
                if writer.write_all(&plan.nth(k).bytes).is_err() {
                    break;
                }
            }
            late
        });

        let mut splitter = Splitter::new();
        let mut scratch = vec![0u8; 1 << 16];
        let mut done = 0;
        'read: while done < total {
            let n = match reader.read(&mut scratch) {
                Ok(0) => {
                    phase.note_failure(|| format!("peer closed after {done} of {total} replies"));
                    break;
                }
                Ok(n) => n,
                // Silence for a whole `REPLY_TIMEOUT`. While the sender still
                // has requests to write that is a quiet schedule (or a stall
                // that held it up too); once it has written them all, a reply
                // is missing.
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if sender.is_finished() {
                        phase.note_failure(|| format!("no reply to request {done} of {total}"));
                        break;
                    }
                    continue;
                }
                Err(e) => {
                    phase.note_failure(|| format!("read after {done} replies: {e}"));
                    break;
                }
            };
            let now = Instant::now();
            splitter.feed(&scratch[..n]);
            loop {
                let Ok(next) = splitter.next_response() else {
                    phase.note_failure(|| format!("reply {done} is not HTTP"));
                    break 'read;
                };
                let Some((status, body)) = next else { break };
                let Some(k) = in_flight.lock().expect("sender panicked").pop_front() else {
                    phase.note_failure(|| format!("reply {done} answers no request"));
                    break 'read;
                };
                done += 1;
                if is_correct(status, body, &plan.nth(k).expected) {
                    schedule.record(&mut phase, epoch, k, now);
                } else {
                    phase.note_failure(|| describe(k, status, body));
                }
            }
        }
        // Unblocks a sender stuck in `write_all` against a dead peer.
        let _ = reader.shutdown(std::net::Shutdown::Both);
        sender.join().expect("sender panicked")
    });
    phase.late_ns = late_ns;
    phase.failed = phase.attempted - phase.exchanges.len() as u64;
    Ok(phase)
}

/// Calls instead of requests on a [`Schedule`]: `call` runs at each due time,
/// or at once if the one before overran it, and is timed from the due time.
/// `prepare` makes its input ahead of the due time. `call` returns whether
/// its result was correct.
pub fn paced_calls<S>(
    rate: f64,
    segment_len: Duration,
    segments: usize,
    epoch: Instant,
    jitter_seed: u64,
    mut prepare: impl FnMut() -> S,
    mut call: impl FnMut(S) -> bool,
) -> Phase {
    let schedule = Schedule::new(rate, segment_len, segments, jitter_seed);
    let mut phase = schedule.phase(epoch, segment_len, segments);
    for k in 0..schedule.total() {
        let input = prepare();
        let due = schedule.due(k);
        wait_until(due);
        phase.late_ns.push(ns_since(due, Instant::now()));
        if call(input) {
            schedule.record(&mut phase, epoch, k, Instant::now());
        } else {
            phase.note_failure(|| format!("call {k} returned a wrong result"));
        }
    }
    phase.failed = phase.attempted - phase.exchanges.len() as u64;
    phase
}

/// Closed loop: `conns` connections, each sending its next request once the
/// previous reply has been read and checked and a think time has passed. An
/// exchange belongs to the segment it completed in.
///
/// The think time is drawn (from `jitter_seed`) between 0 and half the
/// previous exchange's latency. Without it a caller locks onto the program's
/// poll cycle: a reply leaves right after a poll, so the next request arrives
/// right after one, and a whole run then sits in a lucky or an unlucky phase
/// (4.5k to 9.7k req/s for the same code here). Half a latency covers a poll
/// period now and shrinks with the latency, so the loop stays a closed loop
/// at any speed of the program.
pub fn closed_loop(
    addr: SocketAddr,
    plan: &Plan,
    conns: usize,
    segment_len: Duration,
    segments: usize,
    epoch: Instant,
    jitter_seed: u64,
) -> io::Result<Phase> {
    let streams = (0..conns)
        .map(|_| connect(addr))
        .collect::<io::Result<Vec<_>>>()?;
    let t0 = Instant::now();
    let end = t0 + segment_len * segments as u32;
    let per_conn: Vec<(Vec<Exchange>, u64, Option<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(c, mut stream)| {
                s.spawn(move || {
                    let mut exchanges = Vec::new();
                    let mut attempted = 0u64;
                    let mut splitter = Splitter::new();
                    let mut scratch = vec![0u8; 1 << 16];
                    // Connections start on different routes.
                    let mut k = c * plan.order.len() / conns;
                    let mut rng = Rng::new(jitter_seed.wrapping_add(c as u64));
                    let mut latency = Duration::ZERO;
                    // Ends with the phase, or at the first failure: after one
                    // the stream's framing is no longer trusted.
                    let failure = loop {
                        std::thread::sleep(latency.mul_f64(rng.unit() / 2.0));
                        let start = Instant::now();
                        if start >= end {
                            break None;
                        }
                        let request = plan.nth(k);
                        k += 1;
                        attempted += 1;
                        if let Err(e) = stream.write_all(&request.bytes) {
                            break Some(format!("connection {c}: write: {e}"));
                        }
                        let wrong = loop {
                            match splitter.next_response() {
                                Ok(Some((status, body))) => {
                                    let ok = is_correct(status, body, &request.expected);
                                    break (!ok).then(|| describe(k - 1, status, body));
                                }
                                Ok(None) => {}
                                Err(_) => break Some("reply is not HTTP".to_string()),
                            }
                            match stream.read(&mut scratch) {
                                Ok(0) => break Some("peer closed".to_string()),
                                Ok(n) => splitter.feed(&scratch[..n]),
                                Err(e) => break Some(format!("read: {e}")),
                            }
                        };
                        if let Some(what) = wrong {
                            break Some(format!("connection {c}: {what}"));
                        }
                        let done = Instant::now();
                        latency = done - start;
                        let segment = (ns_since(t0, done) / segment_len.as_nanos() as u64) as usize;
                        if segment < segments {
                            exchanges.push(Exchange {
                                start_ns: ns_since(epoch, start),
                                end_ns: ns_since(epoch, done),
                                segment,
                            });
                        } else {
                            // Completed after the phase ended: not an operation
                            // of this phase.
                            attempted -= 1;
                        }
                    };
                    (exchanges, attempted, failure)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client panicked"))
            .collect()
    });
    let mut phase = Phase {
        start_ns: ns_since(epoch, t0),
        segment_len,
        segments,
        exchanges: Vec::new(),
        late_ns: Vec::new(),
        attempted: 0,
        failed: 0,
        first_failure: None,
    };
    for (exchanges, attempted, failure) in per_conn {
        phase.attempted += attempted;
        phase.exchanges.extend(exchanges);
        phase.first_failure = phase.first_failure.or(failure);
    }
    phase.failed = phase.attempted - phase.exchanges.len() as u64;
    Ok(phase)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    const REQUEST: &[u8] = b"GET /x HTTP/1.1\r\n\r\n";
    const REPLY: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\n.";

    fn plan() -> Plan {
        Plan {
            requests: vec![Prepared {
                bytes: REQUEST.to_vec(),
                expected: b".".to_vec(),
            }],
            order: vec![0],
        }
    }

    /// A peer that answers each `REQUEST`-sized run of bytes with `reply`,
    /// but sits on request number `stall_at` for `stall` first.
    fn stub(
        reply: &'static [u8],
        stall_at: usize,
        stall: Duration,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            let (mut pending, mut served) = (0usize, 0usize);
            loop {
                match conn.read(&mut buf) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => pending += n,
                }
                while pending >= REQUEST.len() {
                    pending -= REQUEST.len();
                    if served == stall_at {
                        std::thread::sleep(stall);
                    }
                    served += 1;
                    if conn.write_all(reply).is_err() {
                        return;
                    }
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn open_loop_times_from_the_due_time_and_pipelines_through_a_stall() {
        // 100 req/s for 0.5 s; the peer stalls 100 ms on request 10, so the
        // ~10 requests due during the stall are written while it is silent.
        let stall = Duration::from_millis(100);
        let (addr, peer) = stub(REPLY, 10, stall);
        let epoch = Instant::now();
        let phase = open_loop(
            addr,
            &plan(),
            100.0,
            Duration::from_millis(100),
            5,
            epoch,
            1,
        )
        .unwrap();
        peer.join().unwrap();

        assert_eq!((phase.attempted, phase.failed), (50, 0));
        assert_eq!(phase.exchanges.len(), 50);
        // Segments are assigned by due time: ten requests each.
        for seg in 0..5 {
            assert_eq!(
                phase.exchanges.iter().filter(|x| x.segment == seg).count(),
                10
            );
        }
        // Due times are one per 10 ms slot whatever the peer did, and the
        // same seed gives the same schedule.
        let offset = |k: usize| phase.exchanges[k].start_ns - phase.start_ns;
        for k in 0..50 {
            let slot = k as u64 * 10_000_000;
            assert!(
                (slot..slot + 10_000_000).contains(&offset(k)),
                "request {k} at {}",
                offset(k)
            );
        }
        let first = Rng::new(1).unit();
        assert!((offset(0) as f64 - first * 1e7).abs() < 1_000.0);
        let lat = |k: usize| phase.exchanges[k].end_ns - phase.exchanges[k].start_ns;
        // The stalled request pays the stall; one due 40-50 ms into the stall
        // pays what was left of it, although the peer answered it at once.
        assert!(lat(10) >= stall.as_nanos() as u64);
        assert!(
            lat(14) >= 35_000_000,
            "queued request was timed from its send, not its due time"
        );
        assert!(lat(5) < 20_000_000 && lat(40) < 20_000_000);
        // The sender kept to its schedule through the stall: that is the
        // pipelining, and lateness is the generator's own.
        assert_eq!(phase.late_ns.len(), 50);
        assert!(
            phase.late_ns.iter().all(|&l| l < 5_000_000),
            "{:?}",
            phase.late_ns
        );
    }

    #[test]
    fn a_wrong_body_is_a_failed_operation_in_both_loops() {
        const WRONG: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\n!";
        let (addr, peer) = stub(WRONG, usize::MAX, Duration::ZERO);
        let phase = open_loop(
            addr,
            &plan(),
            200.0,
            Duration::from_millis(50),
            2,
            Instant::now(),
            1,
        )
        .unwrap();
        peer.join().unwrap();
        assert_eq!((phase.attempted, phase.failed), (20, 20));

        let (addr, peer) = stub(WRONG, usize::MAX, Duration::ZERO);
        let phase = closed_loop(
            addr,
            &plan(),
            1,
            Duration::from_millis(50),
            2,
            Instant::now(),
            1,
        )
        .unwrap();
        peer.join().unwrap();
        assert_eq!((phase.attempted, phase.failed), (1, 1));
    }

    #[test]
    fn closed_loop_counts_completions_per_segment() {
        let (addr, peer) = stub(REPLY, usize::MAX, Duration::ZERO);
        let phase = closed_loop(
            addr,
            &plan(),
            1,
            Duration::from_millis(50),
            4,
            Instant::now(),
            1,
        )
        .unwrap();
        peer.join().unwrap();
        assert_eq!(phase.failed, 0);
        assert_eq!(phase.attempted, phase.exchanges.len() as u64);
        let rates = phase.rates();
        assert_eq!(rates.len(), 4);
        assert!(rates.iter().all(|&r| r > 0.0));
        let per_segment: Vec<usize> = phase.latencies().iter().map(Vec::len).collect();
        assert_eq!(per_segment.iter().sum::<usize>(), phase.exchanges.len());
    }
}
