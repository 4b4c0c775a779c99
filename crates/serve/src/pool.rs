//! A fixed-size worker pool for connection handling.
//!
//! `std::sync::mpsc` with a shared receiver: the accept loop pushes
//! jobs, `threads` workers pop and run them. No async runtime — the
//! repo's no-dependency discipline — and deliberately tiny: the only
//! lifecycle is "submit until dropped, then drain and join".
//!
//! The handoff queue holds at most two jobs per worker thread: once it
//! is full, `execute` blocks, so a saturated server stops accepting and
//! leaves waiting connections in the kernel's listen backlog instead of
//! queueing them in memory without bound.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Queued (not yet running) jobs allowed per worker thread.
const QUEUE_PER_THREAD: usize = 2;

/// A fixed pool of worker threads consuming closures in FIFO order.
pub struct ThreadPool {
    tx: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawn `threads` workers (clamped to at least 1).
    pub fn new(threads: usize, name: &str) -> ThreadPool {
        let threads = threads.max(1);
        let (tx, rx) = sync_channel::<Job>(QUEUE_PER_THREAD * threads);
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..threads)
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || worker_loop(&rx))
                    .unwrap_or_else(|e| panic!("cannot spawn pool worker: {e}"))
            })
            .collect();
        ThreadPool {
            tx: Some(tx),
            workers,
        }
    }

    /// Enqueue a job, blocking while the queue is full. Jobs submitted
    /// before drop are all executed.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        if let Some(tx) = &self.tx {
            // Send fails only when every worker has exited, which only
            // happens after drop; dropping the job then is correct.
            let _ = tx.send(Box::new(job));
        }
    }
}

fn worker_loop(rx: &Arc<Mutex<Receiver<Job>>>) {
    loop {
        let job = {
            let guard = rx.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            guard.recv()
        };
        match job {
            Ok(job) => job(),
            Err(_) => return, // sender dropped: pool shutting down
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.tx.take(); // close the channel; workers drain then exit
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn executes_all_jobs_before_shutdown() {
        let done = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::new(4, "test");
            for _ in 0..64 {
                let done = Arc::clone(&done);
                pool.execute(move || {
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
        } // drop joins the workers after the queue drains
        assert_eq!(done.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn a_full_queue_blocks_the_submitter() {
        let (events_tx, events) = std::sync::mpsc::channel::<&str>();
        let (started_tx, started) = sync_channel::<()>(0);
        let (release, release_rx) = sync_channel::<()>(0);
        let pool = ThreadPool::new(1, "test");
        let freed = events_tx.clone();
        pool.execute(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
            freed.send("worker freed").unwrap();
        });
        started.recv().unwrap(); // the only worker is now busy
        pool.execute(|| {});
        pool.execute(|| {}); // the queue (2 × 1 thread) is now full
        let (submitting_tx, submitting) = sync_channel::<()>(0);
        let submitter = std::thread::spawn(move || {
            submitting_tx.send(()).unwrap();
            pool.execute(|| {});
            events_tx.send("fourth submitted").unwrap();
            pool
        });
        submitting.recv().unwrap();
        release.send(()).unwrap();
        drop(submitter.join().unwrap());
        let order: Vec<&str> = events.try_iter().collect();
        assert_eq!(order, ["worker freed", "fourth submitted"]);
    }
}
