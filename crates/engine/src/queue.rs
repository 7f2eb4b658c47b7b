//! The shard command queue: a bounded FIFO between the engine's callers
//! and one shard worker, a `Mutex<VecDeque<T>>` with two `Condvar`s.
//!
//! What it adds over a plain bounded channel is when it wakes a thread;
//! it pays its wake-ups per drain, not per command:
//!
//! * **Producers.** A producer parked on a full queue is notified once
//!   the worker has popped the queue down to `cap / 2` slots, not on
//!   every pop, so a blocking producer refills about `cap / 2` slots per
//!   wake-up instead of one.
//! * **The worker** is notified only while it is parked, and the
//!   producer that notifies clears the flag, so a burst of sends into an
//!   idle shard costs one wake-up.
//! * **No overtaking.** While any producer is parked, no other slot
//!   taker is admitted: [`Sender::try_send`] reports `Full` and a new
//!   [`Sender::send`] parks too. So a parked send is admitted after at
//!   most `⌈cap/2⌉` pops (as long as no more than `⌈cap/2⌉` sends are
//!   parked with it), however hard other callers retry.
//!
//! **Only ingest batches take a slot.** Items sent with `send` or
//! `try_send` — the engine's ingest batches, which the cap exists to
//! shed — hold one of the `cap` slots until popped. Every other command
//! goes in through [`Sender::append`]: at once, behind everything
//! queued, never parked and never refused, so the event loop never
//! blocks on a full shard. Their callers bound them (the TCP server's
//! per-connection in-flight cap).
//!
//! The rest is a bounded channel's contract: FIFO order, never more than
//! `cap` slots taken, `try_send` refusing at `cap`, the receiver draining
//! what is queued after the sender drops and only then reporting `Err`,
//! and a dropped receiver failing every send, parked ones included, and
//! dropping what was queued, reply sinks of commands no worker will run
//! included. The mutex is held for one push or one pop; the
//! shard's state stays owned by its worker and takes no lock.

use std::collections::VecDeque;
use std::sync::mpsc::{RecvError, SendError, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// A bounded FIFO of `cap` slots (at least 1, as the engine's config
/// clamps it): the sending half goes to the engine, the receiving half
/// to the shard worker.
pub(crate) fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    let queue = Arc::new(Queue {
        state: Mutex::new(State {
            items: VecDeque::with_capacity(cap),
            slots: 0,
            parked: 0,
            wake_owed: false,
            worker_parked: false,
            sender_gone: false,
            receiver_gone: false,
        }),
        cap,
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (Sender(Arc::clone(&queue)), Receiver(queue))
}

struct Queue<T> {
    state: Mutex<State<T>>,
    cap: usize,
    /// The worker waits here for an item.
    not_empty: Condvar,
    /// Producers wait here for room.
    not_full: Condvar,
}

struct State<T> {
    /// Queued items, oldest first, each with whether it holds a slot.
    items: VecDeque<(T, bool)>,
    /// Queued items that hold a slot: at most `cap`.
    slots: usize,
    /// Producers inside [`Sender::send`]'s wait. While any is, nothing
    /// else is admitted.
    parked: usize,
    /// A producer went to wait after the last half-drain notification:
    /// the next pop that leaves `slots <= cap / 2` owes one.
    wake_owed: bool,
    /// The worker waits on `not_empty`; cleared by whoever notifies it.
    worker_parked: bool,
    sender_gone: bool,
    receiver_gone: bool,
}

impl<T> Queue<T> {
    /// Every update under the lock is one step that leaves the state
    /// valid, and none runs code that can panic midway, so a poisoned
    /// lock still guards a consistent state.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, cv: &Condvar, st: MutexGuard<'a, State<T>>) -> MutexGuard<'a, State<T>> {
        cv.wait(st).unwrap_or_else(PoisonError::into_inner)
    }

    /// Append `item`, holding a slot or not, and wake the worker if it
    /// is parked, notifying after the lock is released so it does not
    /// wake into a held mutex. Returns the slots now taken.
    fn push(&self, mut st: MutexGuard<'_, State<T>>, item: T, slot: bool) -> usize {
        st.items.push_back((item, slot));
        st.slots += usize::from(slot);
        let (slots, wake) = (st.slots, std::mem::take(&mut st.worker_parked));
        drop(st);
        if wake {
            self.not_empty.notify_one();
        }
        slots
    }
}

/// The engine's half: admits commands in FIFO order.
pub(crate) struct Sender<T>(Arc<Queue<T>>);

impl<T> Sender<T> {
    /// Enqueue without waiting: `Full` at `cap` slots taken, or while any
    /// blocking [`Sender::send`] is parked (it goes first). Returns the
    /// slots now taken.
    pub(crate) fn try_send(&self, item: T) -> Result<usize, TrySendError<T>> {
        let q = &*self.0;
        let st = q.lock();
        if st.receiver_gone {
            return Err(TrySendError::Disconnected(item));
        }
        if st.parked > 0 || st.slots >= q.cap {
            return Err(TrySendError::Full(item));
        }
        Ok(q.push(st, item, true))
    }

    /// Enqueue, parking while the queue is full or another send is
    /// parked. Fails only once the receiver is gone; returns the slots
    /// now taken.
    pub(crate) fn send(&self, item: T) -> Result<usize, SendError<T>> {
        let q = &*self.0;
        let mut st = q.lock();
        if !st.receiver_gone && (st.parked > 0 || st.slots >= q.cap) {
            st.parked += 1;
            loop {
                st.wake_owed = true;
                st = q.wait(&q.not_full, st);
                if st.receiver_gone || st.slots < q.cap {
                    break;
                }
            }
            st.parked -= 1;
        }
        if st.receiver_gone {
            return Err(SendError(item));
        }
        Ok(q.push(st, item, true))
    }

    /// Enqueue at once behind everything queued, taking no slot: never
    /// parks, never refused. Once the receiver is gone, `item` is
    /// dropped.
    pub(crate) fn append(&self, item: T) {
        let st = self.0.lock();
        if !st.receiver_gone {
            self.0.push(st, item, false);
        }
    }
}

impl<T> Drop for Sender<T> {
    /// Close the queue: the worker drains what is queued, then its
    /// [`Receiver::recv`] returns `Err`.
    fn drop(&mut self) {
        let mut st = self.0.lock();
        st.sender_gone = true;
        drop(st);
        self.0.not_empty.notify_one();
    }
}

/// The shard worker's half.
pub(crate) struct Receiver<T>(Arc<Queue<T>>);

impl<T> Receiver<T> {
    /// Queued items that hold a slot.
    pub(crate) fn slots(&self) -> usize {
        self.0.lock().slots
    }

    /// The oldest queued item, parking while the queue is empty; `Err`
    /// once the sender is gone and the queue is drained.
    pub(crate) fn recv(&self) -> Result<T, RecvError> {
        let q = &*self.0;
        let mut st = q.lock();
        loop {
            if let Some((item, slot)) = st.items.pop_front() {
                st.slots -= usize::from(slot);
                let wake = st.wake_owed && st.slots <= q.cap / 2;
                if wake {
                    st.wake_owed = false;
                }
                drop(st);
                if wake {
                    q.not_full.notify_all();
                }
                return Ok(item);
            }
            if st.sender_gone {
                return Err(RecvError);
            }
            st.worker_parked = true;
            st = q.wait(&q.not_empty, st);
            st.worker_parked = false;
        }
    }
}

impl<T> Drop for Receiver<T> {
    /// Fail every send, parked ones included, and drop what is queued.
    fn drop(&mut self) {
        let mut st = self.0.lock();
        st.receiver_gone = true;
        let queued = std::mem::take(&mut st.items);
        drop(st);
        self.0.not_full.notify_all();
        // Outside the lock: dropping a command drops its reply sink.
        drop(queued);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// Run `f` on its own thread and wait at most ten seconds for it, so
    /// a queue that never wakes a thread fails the test instead of
    /// hanging it.
    fn within<R: Send + 'static>(what: &str, f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(f()));
        rx.recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("{what}: still waiting after 10 s"))
    }

    /// Spin until `cond` holds of the queue's state.
    fn until<T>(q: &Queue<T>, cond: impl Fn(&State<T>) -> bool) {
        while !cond(&q.lock()) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn fifo_under_two_concurrent_producers() {
        const PER: u32 = 2_000;
        let (tx, rx) = bounded::<(u32, u32)>(4);
        let got = within("two producers", move || {
            std::thread::scope(|s| {
                for p in 0..2 {
                    let tx = &tx;
                    s.spawn(move || {
                        (0..PER).for_each(|i| {
                            tx.send((p, i)).unwrap();
                        })
                    });
                }
                (0..2 * PER).map(|_| rx.recv().unwrap()).collect::<Vec<_>>()
            })
        });
        for p in 0..2 {
            let seq: Vec<u32> = got.iter().filter(|m| m.0 == p).map(|m| m.1).collect();
            assert_eq!(seq, (0..PER).collect::<Vec<_>>(), "producer {p} reordered");
        }
    }

    #[test]
    fn try_send_refuses_exactly_at_capacity() {
        let (tx, rx) = bounded(5);
        for i in 0..5 {
            tx.try_send(i).unwrap();
        }
        assert!(matches!(tx.try_send(5), Err(TrySendError::Full(5))));
        assert_eq!(rx.recv(), Ok(0));
        tx.try_send(5).unwrap();
        assert!(matches!(tx.try_send(6), Err(TrySendError::Full(6))));
        assert_eq!(
            (1..=5).map(|_| rx.recv().unwrap()).collect::<Vec<_>>(),
            [1, 2, 3, 4, 5]
        );
    }

    #[test]
    fn a_closed_sender_drains_before_recv_fails() {
        let (tx, rx) = bounded(4);
        for i in 0..3 {
            tx.send(i).unwrap();
        }
        drop(tx);
        assert_eq!([rx.recv(), rx.recv(), rx.recv()], [Ok(0), Ok(1), Ok(2)]);
        assert_eq!(rx.recv(), Err(RecvError));
        // A worker parked on an empty queue is woken by the close.
        let (tx, rx) = bounded::<u8>(4);
        let q = Arc::clone(&rx.0);
        let worker = std::thread::spawn(move || rx.recv());
        until(&q, |st| st.worker_parked);
        drop(tx);
        let res = within("parked worker", move || worker.join().unwrap());
        assert_eq!(res, Err(RecvError));
    }

    #[test]
    fn a_dropped_receiver_releases_a_parked_producer() {
        let (tx, rx) = bounded(2);
        let tx = Arc::new(tx);
        tx.send(0).unwrap();
        tx.send(1).unwrap();
        let producer = {
            let tx = Arc::clone(&tx);
            std::thread::spawn(move || tx.send(2))
        };
        until(&tx.0, |st| st.parked == 1);
        drop(rx);
        let res = within("parked producer", move || producer.join().unwrap());
        assert!(matches!(res, Err(SendError(2))));
        assert!(matches!(tx.try_send(3), Err(TrySendError::Disconnected(3))));
        assert!(tx.send(4).is_err(), "a send after the drop fails at once");
        assert!(tx.0.lock().items.is_empty(), "queued items were dropped");
    }

    /// At its cap, with a producer parked and no worker draining, the
    /// queue still takes an appended item at once — behind what is
    /// queued, ahead of the parked send — while a slot taker is still
    /// refused. The appended item frees no slot when popped.
    #[test]
    fn an_appended_item_enters_a_full_queue_at_once() {
        let (tx, rx) = bounded(2);
        tx.try_send(0).unwrap();
        tx.try_send(1).unwrap();
        let tx = Arc::new(tx);
        let producer = {
            let tx = Arc::clone(&tx);
            std::thread::spawn(move || tx.send(2))
        };
        until(&tx.0, |st| st.parked == 1);
        let appender = Arc::clone(&tx);
        within("append into a full queue", move || appender.append(10));
        assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
        assert_eq!(tx.0.lock().slots, 2);
        // Popping 0 leaves one slot taken, which is half: the parked
        // send goes in behind the appended item.
        assert_eq!(rx.recv(), Ok(0));
        within("parked send", move || producer.join().unwrap()).unwrap();
        let rest: Vec<u32> = (0..3).map(|_| rx.recv().unwrap()).collect();
        assert_eq!(rest, [1, 10, 2]);
        assert_eq!(tx.0.lock().slots, 0);
    }

    /// A parked send goes in after `⌈cap/2⌉` pops, and a `try_send` loop
    /// running all the while is refused until it has. A queue that let
    /// any free slot go to whoever asks first would let the loop's item
    /// in ahead of the parked one at the first pop.
    #[test]
    fn a_parked_send_is_admitted_at_half_and_never_overtaken() {
        const CAP: u32 = 7;
        const LATE: u32 = 100;
        const MARK: u32 = 99;
        let (tx, rx) = bounded(CAP as usize);
        let tx = Arc::new(tx);
        for i in 0..CAP {
            tx.try_send(i).unwrap();
        }
        let (sent_tx, sent_rx) = std::sync::mpsc::channel();
        let producer = {
            let tx = Arc::clone(&tx);
            std::thread::spawn(move || {
                tx.send(MARK).unwrap();
                sent_tx.send(()).unwrap();
            })
        };
        until(&tx.0, |st| st.parked == 1);
        let refusals = Arc::new(AtomicUsize::new(0));
        let looper = {
            let (tx, refusals) = (Arc::clone(&tx), Arc::clone(&refusals));
            std::thread::spawn(move || loop {
                match tx.try_send(LATE) {
                    Ok(_) => return,
                    Err(TrySendError::Full(_)) => refusals.fetch_add(1, Ordering::Relaxed),
                    Err(TrySendError::Disconnected(_)) => unreachable!("receiver lives"),
                };
            })
        };
        while refusals.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        let half = CAP.div_ceil(2);
        for i in 0..half {
            assert_eq!(rx.recv(), Ok(i));
            // Give the loop a turn at the slot each pop frees.
            let seen = refusals.load(Ordering::Relaxed);
            while refusals.load(Ordering::Relaxed) == seen
                && !looper.is_finished()
                && tx.0.lock().parked == 1
            {
                std::thread::yield_now();
            }
            assert!(
                i + 1 == half || !looper.is_finished(),
                "a try_send got in ahead of the parked send after pop {i}"
            );
        }
        within("parked send after ⌈cap/2⌉ pops", move || {
            sent_rx.recv().unwrap()
        });
        producer.join().unwrap();
        within("try_send loop", move || looper.join().unwrap());
        drop(tx);
        let rest: Vec<u32> = std::iter::from_fn(|| rx.recv().ok()).collect();
        let want: Vec<u32> = (half..CAP).chain([MARK, LATE]).collect();
        assert_eq!(rest, want, "the try_send loop overtook the parked send");
    }
}
