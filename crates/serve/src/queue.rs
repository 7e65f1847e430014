//! A bounded MPMC job queue with typed rejection and drain-on-close.
//!
//! Submission ([`BoundedQueue::push`]) never blocks: a full queue is a
//! [`SubmitError::Full`] the router turns into `429 Too Many Requests`,
//! which is the service's backpressure contract — load is shed at
//! admission, not absorbed into unbounded memory. Consumption
//! ([`BoundedQueue::pop`]) blocks on a condvar. Closing the queue rejects
//! new submissions but lets workers drain what was already accepted,
//! which is exactly the graceful-shutdown semantics `swip serve` needs.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Condvar, Mutex};

/// A typed submission rejection.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SubmitError {
    /// The queue is at capacity (HTTP 429).
    Full,
    /// The queue was closed for shutdown (HTTP 503).
    Closed,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Full => write!(f, "job queue is full"),
            SubmitError::Closed => write!(f, "job queue is closed (server draining)"),
        }
    }
}

impl std::error::Error for SubmitError {}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer FIFO.
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    cond: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` pending items. It starts empty
    /// and grows as items arrive, so any `capacity` is accepted.
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            cond: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues `item` without blocking.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Closed`] after [`close`](Self::close),
    /// [`SubmitError::Full`] at capacity.
    pub fn push(&self, item: T) -> Result<(), SubmitError> {
        let mut s = self.state.lock().unwrap();
        if s.closed {
            return Err(SubmitError::Closed);
        }
        if s.items.len() >= self.capacity {
            return Err(SubmitError::Full);
        }
        s.items.push_back(item);
        drop(s);
        self.cond.notify_one();
        Ok(())
    }

    /// Dequeues the oldest item, blocking while the queue is open and
    /// empty. Returns `None` once the queue is closed **and** drained —
    /// the worker-thread exit signal.
    pub fn pop(&self) -> Option<T> {
        let mut s = self.state.lock().unwrap();
        loop {
            if let Some(item) = s.items.pop_front() {
                return Some(item);
            }
            if s.closed {
                return None;
            }
            s = self.cond.wait(s).unwrap();
        }
    }

    /// Closes the queue: new pushes fail with [`SubmitError::Closed`],
    /// already-queued items remain poppable. Idempotent.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.cond.notify_all();
    }

    /// Number of items currently queued (racy by nature; metrics only).
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The fixed capacity this queue was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn rejects_typed_when_full_or_closed() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.push(1), Ok(()));
        assert_eq!(q.push(2), Ok(()));
        assert_eq!(q.push(3), Err(SubmitError::Full));
        assert_eq!(q.len(), 2);
        q.close();
        assert_eq!(q.push(4), Err(SubmitError::Closed));
        // Close drains, it does not drop.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None); // and stays terminal
    }

    #[test]
    fn usize_max_capacity_pushes_and_pops_in_order() {
        let q = BoundedQueue::<u64>::new(usize::MAX);
        for i in 0..3 {
            assert_eq!(q.push(i), Ok(()));
        }
        assert_eq!(q.capacity(), usize::MAX);
        assert_eq!((q.pop(), q.pop(), q.pop()), (Some(0), Some(1), Some(2)));
        assert!(q.is_empty());
    }

    #[test]
    fn blocking_pop_sees_later_push() {
        let q = Arc::new(BoundedQueue::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = q.pop() {
                    got.push(v);
                }
                got
            })
        };
        for i in 0..4 {
            while q.push(i).is_err() {
                std::thread::yield_now();
            }
        }
        q.close();
        let got = consumer.join().unwrap();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }
}
