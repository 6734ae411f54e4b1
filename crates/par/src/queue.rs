//! Bounded multi-producer multi-consumer queue with load-shed semantics.
//!
//! The serving front-end needs **backpressure**: when requests arrive
//! faster than the batcher drains them, the queue must not grow without
//! bound — excess work is refused immediately ([`BoundedQueue::try_push`]
//! returns [`TryPushError::Full`]) so the caller can surface a typed
//! overload error while the engine keeps serving what it already
//! accepted. Built on `Mutex` + `Condvar` (the same primitives as the
//! worker pool), so it stays std-only.
//!
//! Closing the queue ([`BoundedQueue::close`]) wakes every blocked
//! consumer; items already accepted remain poppable (graceful drain),
//! while further pushes fail with [`TryPushError::Closed`].

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a [`BoundedQueue::try_push`] was refused; the item is handed back.
#[derive(Debug, PartialEq, Eq)]
pub enum TryPushError<T> {
    /// The queue is at capacity — shed load or retry later.
    Full(T),
    /// The queue has been closed and accepts nothing more.
    Closed(T),
}

/// Outcome of a pop attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum Pop<T> {
    /// An item was dequeued.
    Item(T),
    /// Nothing queued right now (queue still open).
    Empty,
    /// The queue is closed and fully drained — no item will ever come.
    Closed,
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC queue: producers shed load instead of blocking,
/// consumers block until an item or close.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        // A panicking producer/consumer must not wedge the queue for every
        // other thread: the guarded state (a VecDeque + a flag) is valid
        // after any partial operation, so recover the guard instead of
        // propagating the poison.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueues without blocking; a full or closed queue refuses the item.
    ///
    /// # Errors
    ///
    /// [`TryPushError::Full`] at capacity, [`TryPushError::Closed`] after
    /// [`BoundedQueue::close`]. Both return the rejected item.
    pub fn try_push(&self, item: T) -> Result<(), TryPushError<T>> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(TryPushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(TryPushError::Full(item));
        }
        inner.items.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues without blocking.
    pub fn try_pop(&self) -> Pop<T> {
        let mut inner = self.lock();
        match inner.items.pop_front() {
            Some(item) => Pop::Item(item),
            None if inner.closed => Pop::Closed,
            None => Pop::Empty,
        }
    }

    /// Blocks until an item arrives or the queue closes empty. Never
    /// returns [`Pop::Empty`].
    pub fn pop(&self) -> Pop<T> {
        let mut inner = self.lock();
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Pop::Item(item);
            }
            if inner.closed {
                return Pop::Closed;
            }
            inner = self
                .not_empty
                .wait(inner)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Closes the queue: wakes all blocked consumers, refuses new pushes.
    /// Items already queued stay poppable. Idempotent.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
    }

    /// True once [`BoundedQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Items currently queued (racy outside a quiescent queue; a gauge,
    /// not a synchronization primitive).
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// True when nothing is queued right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bound this queue was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl<T> std::fmt::Debug for BoundedQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundedQueue")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("closed", &self.is_closed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn fifo_order_and_capacity() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.capacity(), 2);
        q.try_push(1).expect("fits");
        q.try_push(2).expect("fits");
        assert_eq!(q.try_push(3), Err(TryPushError::Full(3)));
        assert_eq!(q.try_pop(), Pop::Item(1));
        q.try_push(3).expect("slot freed");
        assert_eq!(q.try_pop(), Pop::Item(2));
        assert_eq!(q.try_pop(), Pop::Item(3));
        assert_eq!(q.try_pop(), Pop::Empty);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let q = BoundedQueue::new(0);
        assert_eq!(q.capacity(), 1);
        q.try_push(7).expect("one slot");
        assert_eq!(q.try_push(8), Err(TryPushError::Full(8)));
    }

    #[test]
    fn close_wakes_blocked_consumer_and_drains() {
        let q = Arc::new(BoundedQueue::new(4));
        q.try_push(10).expect("fits");
        let popper = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let first = q.pop();
                let second = q.pop();
                (first, second)
            })
        };
        // Give the popper a chance to drain the item and block, then close.
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        let (first, second) = popper.join().expect("no panic");
        assert_eq!(first, Pop::Item(10));
        assert_eq!(second, Pop::Closed);
        assert_eq!(q.try_push(11), Err(TryPushError::Closed(11)));
        q.close(); // idempotent
    }

    #[test]
    fn concurrent_producers_never_exceed_capacity() {
        let q = Arc::new(BoundedQueue::new(8));
        let mut accepted = 0usize;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let q = Arc::clone(&q);
                    s.spawn(move || {
                        let mut ok = 0usize;
                        for i in 0..100 {
                            if q.try_push(t * 1000 + i).is_ok() {
                                ok += 1;
                            }
                        }
                        ok
                    })
                })
                .collect();
            for h in handles {
                accepted += h.join().expect("no panic");
            }
        });
        assert!(q.len() <= 8, "queue over capacity: {}", q.len());
        assert_eq!(accepted, q.len(), "every accepted item is queued");
    }
}
