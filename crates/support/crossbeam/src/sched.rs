//! A pluggable schedule hook for systematic concurrency testing.
//!
//! Every queue operation in [`crate::deque`] and [`crate::channel`] passes
//! through [`yield_point`] before it touches shared state.  A loom-style
//! explorer (see `sem_serve::explore`) hands its [`Scheduler`] to the pool
//! it owns, and each worker of that pool registers with [`controlled`]:
//! from then on the thread parks at every yield point until the scheduler
//! grants it the next step, so the explorer can serialize the pool and
//! drive it through chosen interleavings.
//!
//! There is no process-wide hook: registration is per thread and names its
//! scheduler explicitly.  Threads of any other pool — production runs,
//! unrelated tests in the same process — never register, and their yield
//! points cost one thread-local check.

use std::cell::RefCell;
use std::sync::Arc;

/// The shared-state operation a controlled thread is about to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SchedOp {
    /// `Injector::push`.
    InjectorPush,
    /// `Injector::steal`.
    InjectorSteal,
    /// `Worker::push`.
    WorkerPush,
    /// `Worker::pop` (owner side).
    WorkerPop,
    /// `Stealer::steal` (thief side).
    WorkerSteal,
    /// `channel::Sender::send`.
    ChannelSend,
    /// `channel::Receiver::recv` / `try_recv`.
    ChannelRecv,
}

impl SchedOp {
    /// Short stable mnemonic (used in schedule traces).
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            SchedOp::InjectorPush => "ip",
            SchedOp::InjectorSteal => "is",
            SchedOp::WorkerPush => "wp",
            SchedOp::WorkerPop => "wo",
            SchedOp::WorkerSteal => "ws",
            SchedOp::ChannelSend => "cs",
            SchedOp::ChannelRecv => "cr",
        }
    }
}

/// A schedule controller for a pool of cooperating threads.
///
/// Implementations typically *block* inside [`Scheduler::thread_started`] and
/// [`Scheduler::yield_point`] until they decide it is the calling thread's
/// turn, which serializes the pool and makes the interleaving a pure function
/// of the controller's choices.
pub trait Scheduler: Send + Sync {
    /// A controlled thread came up and identifies as `index`.  Called once
    /// per thread, before any yield point from that thread.
    fn thread_started(&self, index: usize);

    /// A controlled thread is about to perform `op`.  Returning hands the
    /// thread one step: it runs until its next yield point (or until it
    /// finishes).
    fn yield_point(&self, index: usize, op: SchedOp);

    /// A controlled thread is done: it will reach no further yield points.
    fn thread_finished(&self, index: usize);

    /// Whether the steal operation `op` the controlled thread `index` is
    /// about to perform should observe simulated contention
    /// ([`crate::deque::Steal::Retry`]) instead of touching the queue.
    ///
    /// Called *after* [`Scheduler::yield_point`] grants the step, so the
    /// decision rides the granted step rather than adding one.  The
    /// default — no contention, ever — preserves the vendored deque's
    /// uncontended behaviour; explorers override it to drive the
    /// contended-sweep paths that a mutex-backed deque can otherwise
    /// never reach.
    fn steal_contended(&self, index: usize, op: SchedOp) -> bool {
        let _ = (index, op);
        false
    }
}

thread_local! {
    /// This thread's control registration: its pool index plus the
    /// scheduler it was handed.
    static CONTROL: RefCell<Option<(usize, Arc<dyn Scheduler>)>> = const { RefCell::new(None) };
}

/// Register the calling thread as pool member `index` of `scheduler` for
/// the lifetime of the returned guard.  With `None` — every pool that no
/// explorer owns — the guard is inert.
///
/// # Panics
/// Panics if the thread is already registered (a controlled thread belongs
/// to exactly one pool).
#[must_use]
pub fn controlled(index: usize, scheduler: Option<&Arc<dyn Scheduler>>) -> ControlGuard {
    let Some(scheduler) = scheduler else {
        return ControlGuard { registered: false };
    };
    CONTROL.with(|cell| {
        let mut slot = cell.borrow_mut();
        assert!(slot.is_none(), "thread is already under schedule control");
        *slot = Some((index, Arc::clone(scheduler)));
    });
    scheduler.thread_started(index);
    ControlGuard { registered: true }
}

/// RAII registration of a controlled thread (see [`controlled`]).
#[derive(Debug)]
pub struct ControlGuard {
    registered: bool,
}

impl Drop for ControlGuard {
    fn drop(&mut self) {
        if !self.registered {
            return;
        }
        CONTROL.with(|cell| {
            if let Some((index, scheduler)) = cell.borrow_mut().take() {
                scheduler.thread_finished(index);
            }
        });
    }
}

/// This thread's registration, if it is controlled.
fn control() -> Option<(usize, Arc<dyn Scheduler>)> {
    CONTROL.with(|cell| {
        cell.borrow()
            .as_ref()
            .map(|(index, scheduler)| (*index, Arc::clone(scheduler)))
    })
}

/// The instrumentation point every queue operation passes through: a
/// scheduling decision when the calling thread is controlled, nothing
/// otherwise.
#[inline]
pub(crate) fn yield_point(op: SchedOp) {
    if let Some((index, scheduler)) = control() {
        scheduler.yield_point(index, op);
    }
}

/// Ask the calling thread's scheduler whether the steal `op` it is about to
/// perform should fail with simulated contention.  Always false for
/// uncontrolled threads.
#[inline]
pub(crate) fn simulate_contention(op: SchedOp) -> bool {
    control().is_some_and(|(index, scheduler)| scheduler.steal_contended(index, op))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A recorder that never blocks: counts events per phase.
    struct Recorder {
        started: AtomicUsize,
        yields: AtomicUsize,
        finished: AtomicUsize,
    }

    impl Scheduler for Recorder {
        fn thread_started(&self, _index: usize) {
            self.started.fetch_add(1, Ordering::SeqCst);
        }
        fn yield_point(&self, _index: usize, _op: SchedOp) {
            self.yields.fetch_add(1, Ordering::SeqCst);
        }
        fn thread_finished(&self, _index: usize) {
            self.finished.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn uncontrolled_threads_pass_through_without_a_scheduler() {
        // No scheduler: ops run normally and the guard is inert.
        let guard = controlled(0, None);
        let injector = crate::deque::Injector::new();
        injector.push(1);
        assert_eq!(injector.steal().success(), Some(1));
        drop(guard);
    }

    #[test]
    fn only_threads_handed_the_scheduler_report_to_it() {
        let recorder = Arc::new(Recorder {
            started: AtomicUsize::new(0),
            yields: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
        });
        let scheduler = Arc::clone(&recorder) as Arc<dyn Scheduler>;
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _guard = controlled(3, Some(&scheduler));
                let worker = crate::deque::Worker::new_fifo();
                worker.push(7);
                assert_eq!(worker.pop(), Some(7));
            });
            // A sibling thread of the same process that was not handed the
            // scheduler stays invisible to it.
            scope.spawn(|| {
                let _guard = controlled(4, None);
                let injector = crate::deque::Injector::new();
                injector.push(1);
                assert_eq!(injector.steal().success(), Some(1));
            });
        });
        assert_eq!(recorder.started.load(Ordering::SeqCst), 1);
        assert_eq!(recorder.finished.load(Ordering::SeqCst), 1);
        // Exactly the controlled thread's two deque ops passed the hook.
        assert_eq!(recorder.yields.load(Ordering::SeqCst), 2);
        // Once the guard is gone the thread is uncontrolled again.
        let injector = crate::deque::Injector::new();
        injector.push(1);
        assert_eq!(recorder.yields.load(Ordering::SeqCst), 2);
    }

    /// Grants every step; injects contention into the first `budget`
    /// injector steals.
    struct Contender {
        budget: AtomicUsize,
    }

    impl Scheduler for Contender {
        fn thread_started(&self, _index: usize) {}
        fn yield_point(&self, _index: usize, _op: SchedOp) {}
        fn thread_finished(&self, _index: usize) {}
        fn steal_contended(&self, _index: usize, op: SchedOp) -> bool {
            if op != SchedOp::InjectorSteal {
                return false;
            }
            self.budget
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |left| {
                    left.checked_sub(1)
                })
                .is_ok()
        }
    }

    #[test]
    fn a_scheduler_can_inject_retry_into_controlled_steals() {
        let scheduler = Arc::new(Contender {
            budget: AtomicUsize::new(2),
        }) as Arc<dyn Scheduler>;
        let injector = crate::deque::Injector::new();
        injector.push(9);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _guard = controlled(0, Some(&scheduler));
                // The first two steals see simulated contention, the third
                // lands; worker-deque steals are untouched.
                assert!(injector.steal().is_retry());
                assert!(injector.steal().is_retry());
                assert_eq!(injector.steal().success(), Some(9));
            });
        });
        // Uncontrolled threads never see injected contention.
        injector.push(4);
        assert_eq!(injector.steal().success(), Some(4));
    }
}
