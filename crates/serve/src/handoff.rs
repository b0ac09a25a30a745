//! The gateway's thread hand-off: one bounded job [`Queue`] per shard
//! and a one-shot reply ([`Promise`] → [`Pending`]) per submission.
//!
//! Both are built for exactly this job, many submitters feeding one
//! worker, and spend nothing a shard does not need:
//!
//! - A wake-up is a system call, so it is issued only when the other
//!   side is known to be parked. Whoever is about to wait says so
//!   under the lock; whoever makes progress reads that flag in the
//!   same critical section, so a wake-up is never lost and never
//!   sent to nobody.
//! - The bound is exact: the job in the worker's hands still counts
//!   against it until the worker comes back for the next one, and so
//!   does a [`Claim`] (a submitter running its job itself on an idle
//!   shard), so at most `capacity` jobs are accepted and unfinished at
//!   any time, whatever the timing.
//! - A shard runs one job at a time, whoever runs it: while a claim is
//!   held the worker takes no job and pushes do not wake it; releasing
//!   the claim does, if anything was queued meanwhile.
//! - Shutdown is explicit: [`Queue::close`] refuses new jobs and lets
//!   the worker drain what was accepted; [`Queue::abandon`] (worker
//!   exit) additionally drops what is still queued, which resolves
//!   those jobs' replies.

use std::collections::VecDeque;
use std::sync::{
    Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

/// The crate's one lock policy: a poisoned lock is recovered, never
/// passed on (DESIGN §11). Nothing that can panic runs under the
/// hand-off's locks (jobs and values are dropped outside them), and
/// the crate's other locks guard plain values — an engine handle, a
/// report, a sample buffer — that a panicking holder cannot leave half
/// written, so a poisoned lock still guards valid data.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`lock`] for the shared side of a reader–writer lock.
pub(crate) fn read<T>(rwlock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    rwlock.read().unwrap_or_else(PoisonError::into_inner)
}

/// [`lock`] for the exclusive side of a reader–writer lock.
pub(crate) fn write<T>(rwlock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    rwlock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Bounded multi-submitter, single-worker FIFO.
pub(crate) struct Queue<T> {
    state: Mutex<State<T>>,
    /// The worker parks here while nothing is queued.
    work: Condvar,
    /// Blocking submitters park here at the bound.
    space: Condvar,
    capacity: usize,
}

struct State<T> {
    jobs: VecDeque<T>,
    /// The worker holds a job it took and has not finished.
    busy: bool,
    /// A submitter holds the shard through a [`Claim`].
    claimed: bool,
    worker_parked: bool,
    parked_submitters: usize,
    closed: bool,
}

impl<T> Queue<T> {
    pub(crate) fn new(capacity: usize) -> Queue<T> {
        let capacity = capacity.max(1);
        Queue {
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                busy: false,
                claimed: false,
                worker_parked: false,
                parked_submitters: 0,
                closed: false,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues `job`, waiting for space at the bound. Returns the
    /// number of jobs now queued, or the job once the queue is closed.
    pub(crate) fn push(&self, job: T) -> Result<usize, T> {
        self.admit(job, true)
    }

    /// Enqueues `job` unless the queue is at its bound or closed.
    pub(crate) fn try_push(&self, job: T) -> Result<usize, T> {
        self.admit(job, false)
    }

    fn admit(&self, job: T, wait: bool) -> Result<usize, T> {
        let mut state = lock(&self.state);
        while !state.closed && state.occupied() >= self.capacity {
            if !wait {
                return Err(job);
            }
            state.parked_submitters += 1;
            state = self
                .space
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.parked_submitters -= 1;
        }
        if state.closed {
            return Err(job);
        }
        state.jobs.push_back(job);
        let queued = state.jobs.len();
        // Clearing the flag here keeps later pushes from repeating the
        // wake-up before the worker has run. A claimed shard's worker
        // stays parked: releasing the claim wakes it.
        let wake = !state.claimed && std::mem::take(&mut state.worker_parked);
        drop(state);
        if wake {
            self.work.notify_one();
        }
        Ok(queued)
    }

    /// Worker side: declares the previous job finished and waits for
    /// the next (oldest first). Returns it with the number of jobs left
    /// queued, or `None` once the queue is closed and drained.
    pub(crate) fn take(&self) -> Option<(T, usize)> {
        let mut state = lock(&self.state);
        // The finished job's slot is free again, whether or not another
        // job is there to take. Under the lock, but only at the bound
        // with a submitter blocked: not on the path that has to be cheap.
        if std::mem::take(&mut state.busy) && state.parked_submitters > 0 {
            self.space.notify_one();
        }
        loop {
            if !state.claimed {
                if let Some(job) = state.jobs.pop_front() {
                    state.busy = true;
                    return Some((job, state.jobs.len()));
                }
                if state.closed {
                    return None;
                }
            }
            state.worker_parked = true;
            state = self
                .work
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Takes the shard for the caller to run one job itself: succeeds
    /// only while the queue is open and empty and the worker holds no
    /// job. Until the [`Claim`] drops, the worker takes nothing and the
    /// claim counts against the bound like a job in the worker's hands.
    pub(crate) fn claim(&self) -> Option<Claim<'_, T>> {
        let mut state = lock(&self.state);
        if !state.idle() {
            return None;
        }
        state.claimed = true;
        Some(Claim { queue: self })
    }

    /// Whether [`claim`](Queue::claim) would succeed right now: the
    /// shard is open, nothing is queued and nobody runs a job on it. A
    /// snapshot, stale as soon as the lock drops.
    pub(crate) fn idle(&self) -> bool {
        lock(&self.state).idle()
    }

    /// Refuses further pushes; the worker drains what was accepted and
    /// then gets `None`.
    pub(crate) fn close(&self) {
        self.shut(false);
    }

    /// The worker is gone: refuses further pushes and drops every job
    /// still queued.
    pub(crate) fn abandon(&self) {
        self.shut(true);
    }

    fn shut(&self, drop_queued: bool) {
        let mut state = lock(&self.state);
        state.closed = true;
        let orphans = if drop_queued {
            std::mem::take(&mut state.jobs)
        } else {
            VecDeque::new()
        };
        drop(state);
        self.work.notify_all();
        self.space.notify_all();
        // Jobs may run arbitrary code when dropped: only now, unlocked.
        drop(orphans);
    }
}

impl<T> State<T> {
    /// Open, nothing queued, and nobody running a job.
    fn idle(&self) -> bool {
        !self.closed && !self.claimed && !self.busy && self.jobs.is_empty()
    }

    /// Jobs accepted and not finished: queued, in the worker's hands,
    /// or run by the claim's holder.
    fn occupied(&self) -> usize {
        self.jobs.len() + usize::from(self.busy) + usize::from(self.claimed)
    }
}

/// A submitter's hold on an idle shard (see [`Queue::claim`]). Dropping
/// it hands the shard back: the worker wakes if jobs were queued or the
/// queue closed meanwhile, and a submitter parked at the bound wakes.
pub(crate) struct Claim<'a, T> {
    queue: &'a Queue<T>,
}

impl<T> Drop for Claim<'_, T> {
    fn drop(&mut self) {
        let queue = self.queue;
        let mut state = lock(&queue.state);
        state.claimed = false;
        let wake_worker =
            (state.closed || !state.jobs.is_empty()) && std::mem::take(&mut state.worker_parked);
        let wake_submitter = state.parked_submitters > 0;
        drop(state);
        if wake_worker {
            queue.work.notify_one();
        }
        if wake_submitter {
            queue.space.notify_one();
        }
    }
}

struct Slot<T> {
    state: Mutex<SlotState<T>>,
    ready: Condvar,
}

struct SlotState<T> {
    value: Option<T>,
    /// The promise is gone: `value` is final, `None` if never fulfilled.
    done: bool,
    parked: bool,
}

/// The writing half of a one-shot reply. Dropping it unfulfilled
/// resolves the [`Pending`] half to `None`.
pub(crate) struct Promise<T> {
    slot: Arc<Slot<T>>,
    value: Option<T>,
}

/// The reading half of a one-shot reply.
pub(crate) struct Pending<T> {
    slot: Arc<Slot<T>>,
}

/// A connected one-shot reply pair: one allocation.
pub(crate) fn promise<T>() -> (Promise<T>, Pending<T>) {
    let slot = Arc::new(Slot {
        state: Mutex::new(SlotState {
            value: None,
            done: false,
            parked: false,
        }),
        ready: Condvar::new(),
    });
    let promise = Promise {
        slot: Arc::clone(&slot),
        value: None,
    };
    (promise, Pending { slot })
}

impl<T> Promise<T> {
    /// Resolves the pending half to `Some(value)`.
    pub(crate) fn fulfil(mut self, value: T) {
        // Delivered by `drop`, the one place a reply resolves.
        self.value = Some(value);
    }
}

impl<T> Drop for Promise<T> {
    fn drop(&mut self) {
        let mut state = lock(&self.slot.state);
        state.value = self.value.take();
        state.done = true;
        let wake = state.parked;
        drop(state);
        if wake {
            self.slot.ready.notify_one();
        }
    }
}

impl<T> Pending<T> {
    /// Blocks until the promise is fulfilled (`Some`) or dropped
    /// (`None`).
    pub(crate) fn wait(self) -> Option<T> {
        let mut state = lock(&self.slot.state);
        while !state.done {
            state.parked = true;
            state = self
                .slot
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.value.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
    use std::thread;
    use std::time::Duration;

    /// How long a test waits for a wake-up that must come: a lost one
    /// fails the test instead of hanging it.
    const SOON: Duration = Duration::from_secs(10);

    /// Spins until `seen` holds of the queue's state: the tests force
    /// their interleavings by observing the parked flags themselves.
    fn until<T>(queue: &Queue<T>, seen: impl Fn(&State<T>) -> bool) {
        while !seen(&lock(&queue.state)) {
            thread::yield_now();
        }
    }

    #[test]
    fn jobs_come_out_fifo_and_the_bound_counts_the_one_the_worker_holds() {
        let queue = Queue::new(3);
        for i in 0..3 {
            assert_eq!(queue.try_push(i), Ok(i as usize + 1), "reports the depth");
        }
        assert_eq!(queue.try_push(3), Err(3));
        // A gated worker: it took a job and has not come back.
        assert_eq!(queue.take(), Some((0, 2)), "oldest first, two left queued");
        assert_eq!(queue.try_push(3), Err(3), "3 accepted, none finished");
        // Coming back finishes that job: room for exactly one more.
        assert_eq!(queue.take(), Some((1, 1)));
        assert_eq!(queue.try_push(3), Ok(2));
        assert_eq!(queue.try_push(4), Err(4));
        assert_eq!(Queue::<u32>::new(0).capacity, 1, "clamped like the config");
    }

    #[test]
    fn push_parks_at_the_bound_and_wakes_on_progress() {
        for capacity in [1, 2, 5] {
            let queue = Arc::new(Queue::new(capacity));
            for i in 0..capacity as u32 {
                queue.push(i).expect("below the bound");
            }
            let submitter = {
                let queue = Arc::clone(&queue);
                thread::spawn(move || queue.push(99))
            };
            until(&queue, |state| state.parked_submitters == 1);
            // Taking a job frees no slot; coming back for the next does.
            assert_eq!(queue.take(), Some((0, capacity - 1)));
            until(&queue, |state| state.parked_submitters == 1);
            let seen: Vec<u32> = (0..capacity)
                .map(|_| queue.take().expect("open").0)
                .collect();
            assert!(submitter.join().expect("submitter").is_ok());
            assert_eq!(seen.last(), Some(&99), "capacity {capacity}");
        }
    }

    #[test]
    fn a_claim_counts_against_the_bound() {
        let queue = Queue::new(3);
        let claim = queue.claim().expect("open, empty, worker idle");
        assert_eq!(queue.try_push(0), Ok(1));
        assert_eq!(queue.try_push(1), Ok(2));
        assert_eq!(queue.try_push(2), Err(2), "claim + 2 queued = 3");
        drop(claim);
        assert_eq!(queue.try_push(2), Ok(3), "the released slot is free");
    }

    #[test]
    fn claim_is_refused_while_a_job_is_queued_or_held_and_after_close() {
        let queue = Queue::new(4);
        queue.push(0).expect("open");
        assert!(queue.claim().is_none(), "a job is queued");
        assert_eq!(queue.take(), Some((0, 0)));
        assert!(queue.claim().is_none(), "the worker holds a job");
        queue.push(1).expect("open");
        assert_eq!(queue.take(), Some((1, 0)), "finishes 0, holds 1");
        assert!(queue.claim().is_none(), "still holding one");

        let idle = Queue::<u32>::new(4);
        let claim = idle.claim().expect("idle");
        assert!(idle.claim().is_none(), "one claim at a time");
        drop(claim);
        idle.close();
        assert!(idle.claim().is_none(), "closed");
    }

    /// A worker that forwards every job it takes, and ends when the
    /// queue is closed and drained.
    fn forwarding_worker(queue: &Arc<Queue<u32>>) -> (thread::JoinHandle<()>, Receiver<u32>) {
        let (sent, taken) = mpsc::channel();
        let queue = Arc::clone(queue);
        let worker = thread::spawn(move || {
            while let Some((job, _)) = queue.take() {
                sent.send(job).expect("test alive");
            }
        });
        (worker, taken)
    }

    #[test]
    fn jobs_pushed_during_a_claim_wait_for_its_release() {
        let queue = Arc::new(Queue::new(4));
        let (worker, taken) = forwarding_worker(&queue);
        until(&queue, |state| state.worker_parked);
        let claim = queue.claim().expect("idle");
        queue.push(1).expect("open");
        queue.push(2).expect("open");
        {
            // A push to an unclaimed shard would have taken the flag to
            // wake the worker; these left it parked.
            let state = lock(&queue.state);
            assert!(state.worker_parked, "pushes woke a claimed shard");
            assert_eq!(state.jobs.len(), 2);
        }
        drop(claim);
        // Only the release can wake it now: nothing else will.
        assert_eq!(taken.recv_timeout(SOON), Ok(1), "oldest first");
        assert_eq!(taken.recv_timeout(SOON), Ok(2));
        queue.close();
        worker.join().expect("worker");
    }

    #[test]
    fn close_during_a_claim_drains_after_the_release_then_stops() {
        let queue = Arc::new(Queue::new(4));
        let (worker, taken) = forwarding_worker(&queue);
        until(&queue, |state| state.worker_parked);
        let claim = queue.claim().expect("idle");
        queue.push(1).expect("open");
        // Close wakes every waiter; the worker must go back to sleep.
        queue.close();
        until(&queue, |state| state.worker_parked);
        assert_eq!(
            taken.recv_timeout(Duration::from_millis(50)),
            Err(RecvTimeoutError::Timeout),
            "the worker ran a job while the shard was claimed"
        );
        assert_eq!(lock(&queue.state).jobs.len(), 1);
        drop(claim);
        assert_eq!(taken.recv_timeout(SOON), Ok(1), "drained after the release");
        // Drained and closed: `take` returns `None` and the worker ends,
        // dropping its end of the channel.
        assert_eq!(
            taken.recv_timeout(SOON),
            Err(RecvTimeoutError::Disconnected)
        );
        worker.join().expect("worker");
    }

    #[test]
    fn close_drains_what_was_accepted_then_stops() {
        let queue = Arc::new(Queue::new(2));
        for i in 0..2 {
            queue.push(i).expect("open");
        }
        let blocked = {
            let queue = Arc::clone(&queue);
            thread::spawn(move || queue.push(2))
        };
        until(&queue, |state| state.parked_submitters == 1);
        queue.close();
        assert_eq!(blocked.join().expect("submitter"), Err(2), "woken, refused");
        assert_eq!(queue.try_push(3), Err(3));
        assert_eq!(queue.take(), Some((0, 1)));
        assert_eq!(queue.take(), Some((1, 0)));
        assert_eq!(queue.take(), None);
    }

    #[test]
    fn abandon_resolves_the_replies_of_queued_jobs() {
        let queue = Queue::new(4);
        let (queued, reply) = promise::<u32>();
        queue.push(queued).ok().expect("open");
        queue.abandon();
        assert_eq!(reply.wait(), None, "dropped with the queue's contents");
        assert!(queue.try_push(promise().0).is_err(), "dead shards refuse");
    }

    #[test]
    fn a_dropped_promise_wakes_a_parked_waiter_with_none() {
        let (promise, pending) = promise::<u32>();
        let slot = Arc::clone(&promise.slot);
        let waiter = thread::spawn(move || pending.wait());
        while !lock(&slot.state).parked {
            thread::yield_now();
        }
        drop(promise);
        assert_eq!(waiter.join().expect("waiter"), None);
    }

    #[test]
    fn no_reply_is_lost_when_fulfil_races_the_waiter_parking() {
        // Nothing orders `fulfil` against `wait` here, so over 100 000
        // rounds it lands before, during and after the waiter parks.
        let queue = Arc::new(Queue::<(u32, Promise<u32>)>::new(2));
        let worker = {
            let queue = Arc::clone(&queue);
            thread::spawn(move || {
                while let Some(((i, reply), _)) = queue.take() {
                    reply.fulfil(i);
                }
            })
        };
        for i in 0..100_000 {
            let (promise, pending) = promise();
            queue.push((i, promise)).ok().expect("open");
            assert_eq!(pending.wait(), Some(i));
        }
        queue.close();
        worker.join().expect("worker");
    }

    #[test]
    fn eight_submitters_are_each_answered_once_and_in_their_order() {
        const SUBMITTERS: u32 = 8;
        const EACH: u32 = 2_000;
        // A job is (submitter, sequence number, reply to echo both on).
        let queue = Arc::new(Queue::<(u32, u32, Promise<u32>)>::new(16));
        let worker = {
            let queue = Arc::clone(&queue);
            thread::spawn(move || {
                let mut next = [0u32; SUBMITTERS as usize];
                while let Some(((who, i, reply), _)) = queue.take() {
                    assert_eq!(next[who as usize], i, "submitter {who} reordered");
                    next[who as usize] += 1;
                    reply.fulfil(who * EACH + i);
                }
                next
            })
        };
        let submitters: Vec<_> = (0..SUBMITTERS)
            .map(|who| {
                let queue = Arc::clone(&queue);
                thread::spawn(move || {
                    // A window of replies in flight, like the gateway's
                    // pipelining callers.
                    let mut inflight = VecDeque::new();
                    for i in 0..EACH {
                        let (promise, pending) = promise();
                        queue.push((who, i, promise)).ok().expect("open");
                        inflight.push_back((i, pending));
                        if inflight.len() == 4 {
                            let (i, pending) = inflight.pop_front().expect("window");
                            assert_eq!(pending.wait(), Some(who * EACH + i));
                        }
                    }
                    for (i, pending) in inflight {
                        assert_eq!(pending.wait(), Some(who * EACH + i));
                    }
                })
            })
            .collect();
        for submitter in submitters {
            submitter.join().expect("submitter");
        }
        queue.close();
        assert_eq!(worker.join().expect("worker"), [EACH; SUBMITTERS as usize]);
    }
}
