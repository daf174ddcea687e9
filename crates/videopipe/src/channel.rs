//! A bounded blocking queue (the inter-stage channel) and the credit
//! pool that bounds frames in flight across stages.
//!
//! Classic mutex + two condvars design (cf. *Rust Atomics and Locks*
//! ch. 5): producers block when full (back-pressure), consumers block
//! when empty, and closing wakes everyone. MPMC so the correction
//! stage can run several workers off one input queue.

use std::collections::VecDeque;
use std::sync::Arc;

use par_runtime::sync::{Condvar, Mutex};

struct Inner<T> {
    queue: Mutex<ChannelState<T>>,
    not_full: Condvar,
    not_empty: Condvar,
}

struct ChannelState<T> {
    items: VecDeque<T>,
    closed: bool,
    /// High-water mark of queue occupancy (for the report).
    high_water: usize,
}

/// A bounded blocking MPMC queue. Clone to share between threads.
///
/// ```
/// use videopipe::BoundedQueue;
///
/// let q = BoundedQueue::new(2);
/// q.push(1).unwrap();
/// q.push(2).unwrap();
/// q.close();
/// assert_eq!(q.pop(), Some(1));   // drains after close...
/// assert_eq!(q.pop(), Some(2));
/// assert_eq!(q.pop(), None);      // ...then reports end of stream
/// assert_eq!(q.push(3), Err(3));  // producers fail fast when closed
/// ```
pub struct BoundedQueue<T> {
    inner: Arc<Inner<T>>,
    capacity: usize,
}

impl<T> Clone for BoundedQueue<T> {
    fn clone(&self) -> Self {
        BoundedQueue {
            inner: Arc::clone(&self.inner),
            capacity: self.capacity,
        }
    }
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (must be ≥ 1).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "capacity must be at least 1");
        BoundedQueue {
            inner: Arc::new(Inner {
                queue: Mutex::new(ChannelState {
                    items: VecDeque::with_capacity(capacity),
                    closed: false,
                    high_water: 0,
                }),
                not_full: Condvar::new(),
                not_empty: Condvar::new(),
            }),
            capacity,
        }
    }

    /// Blocking push. Returns `Err(item)` if the queue is closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut st = self.inner.queue.lock();
        loop {
            if st.closed {
                return Err(item);
            }
            if st.items.len() < self.capacity {
                st.items.push_back(item);
                let n = st.items.len();
                st.high_water = st.high_water.max(n);
                drop(st);
                self.inner.not_empty.notify_one();
                return Ok(());
            }
            self.inner.not_full.wait(&mut st);
        }
    }

    /// Blocking pop. Returns `None` once the queue is closed *and*
    /// drained.
    pub fn pop(&self) -> Option<T> {
        let mut st = self.inner.queue.lock();
        loop {
            if let Some(item) = st.items.pop_front() {
                drop(st);
                self.inner.not_full.notify_one();
                return Some(item);
            }
            if st.closed {
                return None;
            }
            self.inner.not_empty.wait(&mut st);
        }
    }

    /// Non-blocking pop.
    pub fn try_pop(&self) -> Option<T> {
        let mut st = self.inner.queue.lock();
        let item = st.items.pop_front();
        if item.is_some() {
            self.inner.not_full.notify_one();
        }
        item
    }

    /// Close the queue: producers fail fast, consumers drain then get
    /// `None`.
    pub fn close(&self) {
        let mut st = self.inner.queue.lock();
        st.closed = true;
        drop(st);
        self.inner.not_empty.notify_all();
        self.inner.not_full.notify_all();
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.inner.queue.lock().items.len()
    }

    /// True when empty (racy, informational).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Largest occupancy observed.
    pub fn high_water(&self) -> usize {
        self.inner.queue.lock().high_water
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// A counting semaphore for credit-based admission: a producer takes
/// one credit per item it admits, blocking while none is left, and
/// the consumer hands credits back as items leave. Bounds the items
/// in flight across every stage between the two, which per-stage
/// queue capacities alone do not. Clone to share between threads.
#[derive(Clone)]
pub struct Credits {
    inner: Arc<(Mutex<usize>, Condvar)>,
}

impl Credits {
    /// A pool of `n` credits (must be ≥ 1).
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "need at least 1 credit");
        Credits {
            inner: Arc::new((Mutex::new(n), Condvar::new())),
        }
    }

    /// Take one credit, blocking until one is free.
    pub fn acquire(&self) {
        let (free, freed) = &*self.inner;
        let mut free = free.lock();
        while *free == 0 {
            freed.wait(&mut free);
        }
        *free -= 1;
    }

    /// Return `n` credits.
    pub fn release(&self, n: usize) {
        if n == 0 {
            return;
        }
        let (free, freed) = &*self.inner;
        *free.lock() += n;
        freed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fifo_order() {
        let q = BoundedQueue::new(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.push(3).unwrap();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn close_drains_then_none() {
        let q = BoundedQueue::new(4);
        q.push(7).unwrap();
        q.close();
        assert_eq!(q.pop(), Some(7));
        assert_eq!(q.pop(), None);
        assert_eq!(q.push(8), Err(8));
    }

    #[test]
    fn push_blocks_until_pop() {
        let q = BoundedQueue::new(1);
        q.push(1).unwrap();
        let q2 = q.clone();
        let t = std::thread::spawn(move || {
            q2.push(2).unwrap(); // blocks until main pops
            q2.push(3).unwrap();
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.len(), 1, "producer must be blocked");
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        t.join().unwrap();
    }

    #[test]
    fn pop_blocks_until_push() {
        let q: BoundedQueue<u32> = BoundedQueue::new(2);
        let q2 = q.clone();
        let t = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(20));
        q.push(42).unwrap();
        assert_eq!(t.join().unwrap(), Some(42));
    }

    #[test]
    fn close_wakes_blocked_consumer() {
        let q: BoundedQueue<u32> = BoundedQueue::new(2);
        let q2 = q.clone();
        let t = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(t.join().unwrap(), None);
    }

    #[test]
    fn mpmc_consumes_everything_exactly_once() {
        let q = BoundedQueue::new(8);
        let n = 1000u32;
        let producers = 3;
        let consumers = 4;
        let collected = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            let producer_handles: Vec<_> = (0..producers)
                .map(|p| {
                    let q = q.clone();
                    s.spawn(move || {
                        for i in 0..n {
                            q.push(p * n + i).unwrap();
                        }
                    })
                })
                .collect();
            let consumer_handles: Vec<_> = (0..consumers)
                .map(|_| {
                    let q = q.clone();
                    let collected = &collected;
                    s.spawn(move || {
                        let mut local = Vec::new();
                        while let Some(v) = q.pop() {
                            local.push(v);
                        }
                        collected.lock().unwrap().extend(local);
                    })
                })
                .collect();
            for h in producer_handles {
                h.join().unwrap();
            }
            q.close();
            for h in consumer_handles {
                h.join().unwrap();
            }
        });
        let mut got = collected.into_inner().unwrap();
        got.sort_unstable();
        let expect: Vec<u32> = (0..producers * n).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn high_water_tracks_occupancy() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        q.pop();
        q.pop();
        assert_eq!(q.high_water(), 5);
        assert_eq!(q.len(), 3);
        assert_eq!(q.capacity(), 8);
    }

    #[test]
    fn credits_block_until_released() {
        let c = Credits::new(2);
        c.acquire();
        c.acquire();
        let c2 = c.clone();
        let t = std::thread::spawn(move || c2.acquire());
        std::thread::sleep(Duration::from_millis(20));
        assert!(!t.is_finished(), "acquire must block with no credit free");
        c.release(1);
        t.join().unwrap();
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_rejected() {
        let _: BoundedQueue<u8> = BoundedQueue::new(0);
    }
}
