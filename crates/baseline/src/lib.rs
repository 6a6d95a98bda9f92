//! The Nuclio-style baseline: a container+process-per-invocation serverless
//! model, used as the comparison system for the paper's Figures 6–8 and
//! Table 3.
//!
//! The paper's Nuclio deployment keeps a warm container per tenant whose
//! "serverless management" shell forks a process per invocation (Figure 1c),
//! tuned to `maxWorker = 16` concurrent processes. This crate reproduces
//! that execution model with real OS processes:
//!
//! * [`ProcessPool`] — a dispatcher plus a bounded set of *invocation slots*;
//!   each request spawns a real process (`fork + exec` via `std::process`),
//!   ships the request body over the child's stdin pipe, and reads the
//!   response from its stdout pipe — the same copy-across-the-kernel
//!   boundaries the paper attributes Nuclio's overheads to.
//! * [`ThreadPool`] — an in-process thread-per-request variant, used as an
//!   ablation point between Sledge and the process model.
//! * [`fork_exec_wait`] — the Table 3 churn measurement primitive.
//!
//! Child processes re-execute the *current* binary with
//! `SLEDGE_BASELINE_WORKER=<fn>` set; call [`worker_child_main`] early in
//! `main` of any binary that drives this pool (the benches and tests do).

use std::io::{Read, Write};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Environment variable selecting worker-child mode.
pub const WORKER_ENV: &str = "SLEDGE_BASELINE_WORKER";

/// A native function the baseline can serve: body in, body out.
pub type NativeFn = fn(&[u8]) -> Vec<u8>;

/// A named function table for the baseline (the "deployed functions" of the
/// tenant container).
#[derive(Clone, Default)]
pub struct FunctionTable {
    entries: Vec<(String, NativeFn)>,
}

impl FunctionTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a function under `name`.
    pub fn register(&mut self, name: impl Into<String>, f: NativeFn) -> &mut Self {
        self.entries.push((name.into(), f));
        self
    }

    /// Look up a function.
    pub fn get(&self, name: &str) -> Option<NativeFn> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, f)| *f)
    }
}

/// If this process was spawned as a worker child, run the function over
/// stdin/stdout and exit. Call first thing in `main`.
///
/// Protocol: the parent writes the entire request body to stdin and closes
/// it; the child writes the entire response to stdout and exits.
pub fn worker_child_main(table: &FunctionTable) {
    let Ok(name) = std::env::var(WORKER_ENV) else {
        return;
    };
    let mut body = Vec::new();
    std::io::stdin()
        .read_to_end(&mut body)
        .expect("worker child: read stdin");
    let out = match table.get(&name) {
        Some(f) => f(&body),
        None => b"unknown function".to_vec(),
    };
    std::io::stdout()
        .write_all(&out)
        .expect("worker child: write stdout");
    std::process::exit(0);
}

/// Result of one baseline invocation.
#[derive(Debug)]
pub struct BaselineCompletion {
    /// Response body (empty on failure).
    pub body: Vec<u8>,
    /// Whether the invocation succeeded.
    pub ok: bool,
    /// Arrival → completion.
    pub total: Duration,
    /// Time spent creating the process (the "cold start of process
    /// creation" the paper describes for Nuclio).
    pub spawn: Duration,
}

/// Handle for one pending baseline invocation.
pub struct BaselineHandle {
    rx: Receiver<BaselineCompletion>,
}

impl BaselineHandle {
    /// Wait for the invocation to finish.
    pub fn wait(self) -> Option<BaselineCompletion> {
        self.rx.recv().ok()
    }
}

/// The next job for one of a pool's threads, which take turns at the one
/// receiver. The lock is held for the receive alone — never while the job
/// runs — and a poisoned one is recovered: a receiver has no state to corrupt.
fn next_job<T>(jobs: &Mutex<Receiver<T>>) -> Option<T> {
    jobs.lock()
        .unwrap_or_else(PoisonError::into_inner)
        .recv()
        .ok()
}

struct Job {
    function: String,
    body: Vec<u8>,
    tx: SyncSender<BaselineCompletion>,
    arrival: Instant,
}

/// The process-per-invocation pool (Nuclio's shell function processor).
pub struct ProcessPool {
    jobs: SyncSender<Job>,
    threads: Vec<JoinHandle<()>>,
    rejected: AtomicU64,
}

impl ProcessPool {
    /// Create a pool with `max_workers` concurrent invocation slots (the
    /// paper tunes Nuclio to 16) and a bounded backlog.
    ///
    /// `exe` is the binary to spawn for children; pass
    /// `std::env::current_exe()` in binaries that call
    /// [`worker_child_main`].
    pub fn new(exe: std::path::PathBuf, max_workers: usize, backlog: usize) -> Self {
        let (tx, rx) = sync_channel::<Job>(backlog);
        let rx = Arc::new(Mutex::new(rx));
        let mut threads = Vec::new();
        for _ in 0..max_workers {
            let rx = Arc::clone(&rx);
            let exe = exe.clone();
            threads.push(std::thread::spawn(move || {
                while let Some(job) = next_job(&rx) {
                    let completion = run_in_child(&exe, &job);
                    let _ = job.tx.send(completion);
                }
            }));
        }
        ProcessPool {
            jobs: tx,
            threads,
            rejected: AtomicU64::new(0),
        }
    }

    /// Submit a request; returns a handle. If the backlog is full the
    /// handle resolves immediately to a failed completion (the 503 path).
    pub fn invoke(&self, function: &str, body: impl Into<Vec<u8>>) -> BaselineHandle {
        let (tx, rx) = sync_channel(1);
        let job = Job {
            function: function.to_string(),
            body: body.into(),
            tx,
            arrival: Instant::now(),
        };
        if let Err(TrySendError::Full(job) | TrySendError::Disconnected(job)) =
            self.jobs.try_send(job)
        {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            let _ = job.tx.send(BaselineCompletion {
                body: Vec::new(),
                ok: false,
                total: Duration::ZERO,
                spawn: Duration::ZERO,
            });
        }
        BaselineHandle { rx }
    }

    /// Number of rejected (overloaded) requests.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Stop accepting work and join the slots.
    pub fn shutdown(self) {
        drop(self.jobs);
        for t in self.threads {
            let _ = t.join();
        }
    }
}

fn run_in_child(exe: &std::path::Path, job: &Job) -> BaselineCompletion {
    let spawn_start = Instant::now();
    let child = Command::new(exe)
        .env(WORKER_ENV, &job.function)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn();
    let mut child: Child = match child {
        Ok(c) => c,
        Err(_) => {
            return BaselineCompletion {
                body: Vec::new(),
                ok: false,
                total: job.arrival.elapsed(),
                spawn: spawn_start.elapsed(),
            }
        }
    };
    let spawn = spawn_start.elapsed();

    // Ship the request body (copy #1: parent → kernel pipe → child). For
    // large payloads the child may block writing its response before we
    // finish writing the request, so drain stdout on a helper thread.
    let mut stdin = child.stdin.take();
    let mut stdout = child.stdout.take();
    let mut body = Vec::new();
    let (ok_in, ok_out) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            stdin
                .take()
                .map(|mut s| s.write_all(&job.body).is_ok())
                .unwrap_or(false)
        });
        let ok_out = stdout
            .take()
            .map(|mut s| s.read_to_end(&mut body).is_ok())
            .unwrap_or(false);
        (writer.join().unwrap_or(false), ok_out)
    });
    let status_ok = child.wait().map(|s| s.success()).unwrap_or(false);

    BaselineCompletion {
        ok: ok_in && ok_out && status_ok,
        body,
        total: job.arrival.elapsed(),
        spawn,
    }
}

/// Measure one `fork + exec + wait` of a trivial child — the native churn
/// cost of Table 3. Uses the given program (e.g. `/bin/true`).
///
/// # Errors
///
/// Propagates spawn errors.
pub fn fork_exec_wait(program: &str) -> std::io::Result<Duration> {
    let start = Instant::now();
    let mut child = Command::new(program)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()?;
    let _ = child.wait()?;
    Ok(start.elapsed())
}

type ThreadJob = (NativeFn, Vec<u8>, SyncSender<BaselineCompletion>, Instant);

/// An in-process thread-per-request executor: the "shared container,
/// process amortized" ablation point between full process churn and Sledge.
pub struct ThreadPool {
    jobs: Sender<ThreadJob>,
    threads: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Create a pool with `workers` threads.
    pub fn new(workers: usize) -> Self {
        let (tx, rx) = channel::<ThreadJob>();
        let rx = Arc::new(Mutex::new(rx));
        let mut threads = Vec::new();
        for _ in 0..workers {
            let rx = Arc::clone(&rx);
            threads.push(std::thread::spawn(move || {
                while let Some((f, body, tx, arrival)) = next_job(&rx) {
                    let out = f(&body);
                    let _ = tx.send(BaselineCompletion {
                        body: out,
                        ok: true,
                        total: arrival.elapsed(),
                        spawn: Duration::ZERO,
                    });
                }
            }));
        }
        ThreadPool { jobs: tx, threads }
    }

    /// Submit a request.
    pub fn invoke(&self, f: NativeFn, body: impl Into<Vec<u8>>) -> BaselineHandle {
        let (tx, rx) = sync_channel(1);
        let _ = self.jobs.send((f, body.into(), tx, Instant::now()));
        BaselineHandle { rx }
    }

    /// Stop and join.
    pub fn shutdown(self) {
        drop(self.jobs);
        for t in self.threads {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fork_exec_wait_measures_something() {
        let d = fork_exec_wait("/bin/true").unwrap();
        assert!(d > Duration::ZERO);
        assert!(d < Duration::from_secs(2));
    }

    #[test]
    fn thread_pool_round_trips() {
        fn upper(b: &[u8]) -> Vec<u8> {
            b.to_ascii_uppercase()
        }
        let pool = ThreadPool::new(4);
        let hs: Vec<_> = (0..50)
            .map(|i| pool.invoke(upper, format!("req{i}").into_bytes()))
            .collect();
        for (i, h) in hs.into_iter().enumerate() {
            let c = h.wait().unwrap();
            assert!(c.ok);
            assert_eq!(c.body, format!("REQ{i}").to_ascii_uppercase().into_bytes());
        }
        pool.shutdown();
    }

    #[test]
    fn function_table_lookup() {
        fn f(_: &[u8]) -> Vec<u8> {
            vec![1]
        }
        let mut t = FunctionTable::new();
        t.register("a", f);
        assert!(t.get("a").is_some());
        assert!(t.get("b").is_none());
    }
}
