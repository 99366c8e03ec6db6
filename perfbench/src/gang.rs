//! Runs the load threads of a timed window in lock step with the process
//! counters: every thread starts after the opening `/proc` sample and is
//! held after finishing until the closing sample, so the context switches
//! of the load threads themselves are counted. A thread that panics
//! outside the workload's own catch, or that has not finished by the
//! cut-off, is reported by index instead of hanging the benchmark.

use crate::procfs::ProcSample;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Why a load thread produced no result.
#[derive(Debug, Clone)]
pub enum Lost {
    /// It panicked; the payload's message.
    Panicked(String),
    /// It was still running at the cut-off.
    Hung,
}

/// The outcome of one timed window.
pub struct Gang<T> {
    pub results: Vec<Result<T, Lost>>,
    /// When the threads were released.
    pub started: Instant,
    /// Process counters over the window.
    pub proc: ProcSample,
}

/// Text of a panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Run `body(index, start)` on `n` threads and wait for them until
/// `start + cut_off`. Threads still running then are left detached; the
/// caller reports them and ends the process with `std::process::exit`.
pub fn run<T, F>(n: usize, cut_off: Duration, body: F) -> Gang<T>
where
    T: Send + 'static,
    F: Fn(usize, Instant) -> T + Send + Sync + 'static,
{
    let body = Arc::new(body);
    let (done_tx, done_rx) = mpsc::channel();
    let mut go = Vec::new();
    let mut release = Vec::new();
    let mut handles: Vec<Option<JoinHandle<()>>> = Vec::new();
    for i in 0..n {
        let (go_tx, go_rx) = mpsc::channel::<Instant>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (body, done_tx) = (Arc::clone(&body), done_tx.clone());
        let handle = std::thread::Builder::new()
            .name(format!("perfbench-load-{i}"))
            .spawn(move || {
                let Ok(start) = go_rx.recv() else { return };
                let result = catch_unwind(AssertUnwindSafe(|| body(i, start)))
                    .map_err(|p| Lost::Panicked(panic_message(&*p)));
                let _ = done_tx.send((i, result));
                let _ = release_rx.recv();
            })
            .expect("spawn load thread");
        go.push(go_tx);
        release.push(release_tx);
        handles.push(Some(handle));
    }
    drop(done_tx);

    let before = ProcSample::now();
    let started = Instant::now();
    for g in &go {
        g.send(started).expect("load thread waits for its start");
    }
    let mut results: Vec<Result<T, Lost>> = (0..n).map(|_| Err(Lost::Hung)).collect();
    let mut pending = n;
    while pending > 0 {
        let left = (started + cut_off).saturating_duration_since(Instant::now());
        match done_rx.recv_timeout(left) {
            Ok((i, r)) => {
                results[i] = r;
                pending -= 1;
            }
            Err(_) => break,
        }
    }
    let proc = before.until(&ProcSample::now());
    drop(release);
    for (i, h) in handles.iter_mut().enumerate() {
        if !matches!(results[i], Err(Lost::Hung)) {
            if let Some(h) = h.take() {
                let _ = h.join();
            }
        }
    }
    Gang {
        results,
        started,
        proc,
    }
}
