//! The per-loop job runner: where long verbs execute.
//!
//! An event loop multiplexes many connections on one thread, so a verb
//! that runs for a sweep-length (`SWEEP`, `TICK`, `SAVE`, `LOAD`) cannot
//! execute *on* it without stalling every other client of that loop. Each
//! loop therefore owns one long-lived runner thread (`jigsaw-job-<i>`) fed
//! by a FIFO queue: the connection moves its session into a closure,
//! [`JobQueue::submit`]s it and keeps pumping; the runner executes jobs one
//! at a time, hands `(session, response)` back through the job's slot and
//! unparks its loop.
//!
//! One runner per loop keeps long-verb concurrency what it was when those
//! verbs ran inline: at most `conn_threads` at once, in per-loop arrival
//! order. A job that panics is answered `ERR exec` and costs its
//! connection the session (the closure owned it); the runner lives on.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::Thread;
use std::time::Instant;

use jigsaw_obs::{Gauge, Histogram};
use jigsaw_pdb::worlds::panic_message;

use crate::conn::Session;
use crate::protocol::{ErrorCode, Response};
use crate::server::ServerState;

/// A long verb, ready to run: owns the connection's session for the
/// duration and returns it beside the response.
pub(crate) type Job = Box<dyn FnOnce() -> (Session, Response) + Send>;

/// What comes back through a job's slot. `session` is `None` when the job
/// panicked (the session unwound with it).
pub(crate) struct Finished {
    pub(crate) session: Option<Session>,
    pub(crate) response: Response,
}

/// The receiving half of a job's slot, held by the submitting connection.
/// Dropping it (the client went away) discards the result; the job still
/// runs to completion, so the store it warms stays warm.
pub(crate) type Slot = Receiver<Finished>;

struct Queued {
    job: Job,
    slot: Sender<Finished>,
    queued_at: Instant,
}

/// The submitting half of one loop's queue, owned by that loop. Dropping it
/// (the loop exited) lets the runner drain and stop.
pub(crate) struct JobQueue {
    tx: Sender<Queued>,
    /// `jigsaw_jobs_inflight{loop}`: jobs submitted and not yet finished.
    inflight: Gauge,
}

/// The runner's half: see [`Runner::run`].
pub(crate) struct Runner {
    rx: Receiver<Queued>,
    inflight: Gauge,
    /// `jigsaw_job_queue_wait_us`: enqueue → runner start.
    queue_wait: Histogram,
}

/// The queue and runner halves for event loop `loop_ix`.
pub(crate) fn job_channel(loop_ix: usize) -> (JobQueue, Runner) {
    let g = jigsaw_obs::global();
    let inflight = g.gauge("jigsaw_jobs_inflight", &[("loop", &loop_ix.to_string())]);
    let queue_wait = g.histogram("jigsaw_job_queue_wait_us", &[]);
    let (tx, rx) = channel();
    (JobQueue { tx, inflight: inflight.clone() }, Runner { rx, inflight, queue_wait })
}

impl JobQueue {
    /// Queue `job` behind whatever this loop's runner is doing. A runner
    /// that is gone drops the job at once, which the caller reads from the
    /// slot as a disconnect.
    pub(crate) fn submit(&self, job: Job) -> Slot {
        let (slot, done) = channel();
        self.inflight.add(1);
        if self.tx.send(Queued { job, slot, queued_at: Instant::now() }).is_err() {
            self.inflight.add(-1);
        }
        done
    }
}

impl Runner {
    /// The runner thread's body: execute jobs in arrival order until the
    /// loop drops its [`JobQueue`], unparking `wake` (the loop's thread)
    /// after each. Once the server is shutting down, jobs still queued are
    /// dropped unrun — only the one already executing finishes.
    pub(crate) fn run(self, wake: Thread, state: &ServerState) {
        while let Ok(Queued { job, slot, queued_at }) = self.rx.recv() {
            if !state.is_shutting_down() {
                self.queue_wait.record_duration(queued_at.elapsed());
                let finished = match catch_unwind(AssertUnwindSafe(job)) {
                    Ok((session, response)) => Finished { session: Some(session), response },
                    Err(payload) => Finished {
                        session: None,
                        response: Response::Error {
                            code: ErrorCode::Exec,
                            message: format!("job panicked: {}", panic_message(payload)),
                        },
                    },
                };
                // A submitter that went away just loses the result.
                let _ = slot.send(finished);
            }
            self.inflight.add(-1);
            wake.unpark();
        }
    }
}
