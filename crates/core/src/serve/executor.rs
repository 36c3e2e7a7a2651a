//! The executor: one thread owning the session, FIFO over a bounded
//! MPSC queue.

use super::protocol::{overload_envelope, shutdown_envelope, EXECUTOR_STACK_BYTES, RETRY_AFTER_MS};
use super::session::{ExecShared, Session};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// One queued request: the raw JSON line plus the channel the serialized
/// response goes back on.
pub struct ServeJob {
    /// Raw request line (one JSON object).
    pub line: String,
    /// Reply channel for the serialized response envelope.
    pub reply: mpsc::Sender<String>,
    /// When the job entered the queue; the executor derives the
    /// queue-wait histogram and access-log field from it.
    pub enqueued: std::time::Instant,
}

impl ServeJob {
    /// A job stamped with the current time as its enqueue instant.
    pub fn new(line: String, reply: mpsc::Sender<String>) -> ServeJob {
        ServeJob {
            line,
            reply,
            enqueued: std::time::Instant::now(),
        }
    }
}

/// How one submission to the executor resolved.
enum Submit {
    /// The executor answered.
    Reply(String),
    /// Admission control shed the request (queue full).
    Shed,
    /// The executor is gone (shut down or crashed).
    Closed,
}

/// Handle to a running executor. Cloneable across client threads; every
/// clone feeds the same bounded FIFO queue.
#[derive(Clone)]
pub struct ExecutorHandle {
    pub(super) tx: mpsc::SyncSender<ServeJob>,
    pub(super) shared: Arc<ExecShared>,
}

impl ExecutorHandle {
    fn submit(&self, line: &str) -> Submit {
        let (reply_tx, reply_rx) = mpsc::channel();
        let job = ServeJob::new(line.to_string(), reply_tx);
        match self.tx.try_send(job) {
            Ok(()) => match reply_rx.recv() {
                Ok(resp) => Submit::Reply(resp),
                Err(_) => Submit::Closed,
            },
            Err(mpsc::TrySendError::Full(_)) => {
                self.shared.shed.fetch_add(1, Ordering::Relaxed);
                Submit::Shed
            }
            Err(mpsc::TrySendError::Disconnected(_)) => Submit::Closed,
        }
    }

    /// Submits one request line and blocks for its response. A full
    /// queue is shed immediately with an [`EXIT_OVERLOAD`](crate::serve::EXIT_OVERLOAD) envelope
    /// carrying a `retry_after_ms` hint — admission control never makes
    /// a client hang — and a shut-down executor answers a synthesized
    /// usage-error envelope.
    pub fn request(&self, line: &str) -> String {
        self.request_with_retry(line, 0)
    }

    /// Like [`ExecutorHandle::request`], but retries a shed submission
    /// up to `retries` times with capped exponential backoff
    /// ([`RETRY_AFTER_MS`] doubled per attempt, capped at 1 s). Returns
    /// the overload envelope if every attempt is shed.
    pub fn request_with_retry(&self, line: &str, retries: u32) -> String {
        let mut attempt: u32 = 0;
        loop {
            match self.submit(line) {
                Submit::Reply(r) => return r,
                Submit::Closed => return shutdown_envelope(line),
                Submit::Shed if attempt < retries => {
                    self.shared.retries.fetch_add(1, Ordering::Relaxed);
                    let backoff = (RETRY_AFTER_MS << attempt.min(5)).min(1_000);
                    std::thread::sleep(Duration::from_millis(backoff));
                    attempt += 1;
                }
                Submit::Shed => return overload_envelope(line),
            }
        }
    }

    /// True once the executor has processed a `shutdown` request (or
    /// exited); connection loops poll this instead of parsing response
    /// JSON on the hot path.
    pub fn is_shut_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// The shed/retry/shutdown accounting shared with the executor.
    pub fn shared(&self) -> Arc<ExecShared> {
        Arc::clone(&self.shared)
    }

    /// The raw job queue, for callers managing their own reply channels.
    /// A full queue blocks (no shedding) on this path.
    pub fn sender(&self) -> mpsc::SyncSender<ServeJob> {
        self.tx.clone()
    }
}

/// Spawns the executor thread owning `session`. Requests are processed
/// strictly in arrival order; each wake-up drains everything queued
/// (the batch) before sleeping, and batch sizes are recorded in the
/// session statistics. The queue is bounded by the session's
/// [`Session::set_queue_capacity`] — a submission against a full queue
/// is shed by [`ExecutorHandle::request`], never blocked. The thread
/// exits — returning the session — when a `shutdown` request is
/// processed or every handle is dropped. Its stack is
/// [`EXECUTOR_STACK_BYTES`].
pub fn spawn_executor(session: Session) -> (ExecutorHandle, std::thread::JoinHandle<Session>) {
    let shared = session.shared();
    let (tx, rx) = mpsc::sync_channel::<ServeJob>(session.queue_capacity.max(1));
    let exec_shared = Arc::clone(&shared);
    let executor = std::thread::Builder::new().stack_size(EXECUTOR_STACK_BYTES);
    let thread = executor.spawn(move || {
        let mut session = session;
        'outer: loop {
            let first = match rx.recv() {
                Ok(j) => j,
                Err(_) => break,
            };
            let mut batch = vec![first];
            while let Ok(j) = rx.try_recv() {
                batch.push(j);
            }
            session.note_batch(batch.len());
            let mut stop = false;
            for job in batch {
                let queue_micros = job.enqueued.elapsed().as_micros() as u64;
                let (resp, shutdown) = session.handle_line_timed(&job.line, queue_micros);
                if shutdown {
                    // Flip the flag before replying so a connection
                    // thread that sees the response also sees the flag.
                    exec_shared.shutdown.store(true, Ordering::SeqCst);
                }
                let _ = job.reply.send(resp);
                stop = stop || shutdown;
            }
            if stop {
                break 'outer;
            }
        }
        exec_shared.shutdown.store(true, Ordering::SeqCst);
        session
    });
    let thread = thread.expect("failed to spawn the serve executor thread");
    (ExecutorHandle { tx, shared }, thread)
}
