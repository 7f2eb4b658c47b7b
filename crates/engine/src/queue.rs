//! The shard command queue: a bounded FIFO between the engine's callers
//! and one shard worker, a `Mutex<VecDeque<T>>` with two `Condvar`s.
//!
//! What it adds over a plain bounded channel is when it wakes a thread;
//! it pays its wake-ups per drain, not per command:
//!
//! * **Producers.** A producer parked on a full queue is notified once
//!   a drain has left at most `cap / 2` slots taken, once per drain, so
//!   a blocking producer refills at least `cap / 2` slots per wake-up
//!   instead of one. The worker drains a run at a time
//!   ([`Receiver::recv_run`]): every slot holder at the front of the
//!   queue, or one command that holds none.
//! * **The worker** is notified only while it is parked, and the
//!   producer that notifies clears the flag, so a burst of sends into an
//!   idle shard costs one wake-up.
//! * **No overtaking.** While any producer is parked, no other slot
//!   taker is admitted: [`Sender::try_send`] reports `Full` and a new
//!   [`Sender::send`] parks too. So a parked send is admitted by the
//!   first drain that takes `⌈cap/2⌉` slot holders, or several that do
//!   between them (as long as no more than `⌈cap/2⌉` sends are parked
//!   with it), however hard other callers retry.
//!
//! **Only ingest batches take a slot.** Items sent with `send` or
//! `try_send` — the engine's ingest batches, which the cap exists to
//! shed — hold one of the `cap` slots until drained. Every other command
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
//! included. The mutex is held for one push, one drain or one idle read.
//!
//! **The idle rule.** The queue keeps the shard while no run is in the
//! worker's hands: a run leaves with it, and the worker puts it back as
//! it comes for the next. [`Sender::idle`] reads it there, under the
//! lock, when nothing is queued either: everything sent before it has
//! been run, and no run starts until the read is done. The queue's lock
//! is the shard's only lock.

use std::collections::VecDeque;
use std::sync::mpsc::{RecvError, SendError, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// A bounded FIFO of `cap` slots (at least 1, as the engine's config
/// clamps it), holding `shard` until the first run: the sending half
/// goes to the engine, the receiving half to the shard worker.
pub(crate) fn bounded<T, S>(cap: usize, shard: S) -> (Sender<T, S>, Receiver<T, S>) {
    let queue = Arc::new(Queue {
        state: Mutex::new(State {
            items: VecDeque::with_capacity(cap),
            slots: 0,
            parked: 0,
            wake_owed: false,
            #[cfg(test)]
            producer_wakes: 0,
            worker_parked: false,
            shard: Some(Box::new(shard)),
            sender_gone: false,
            receiver_gone: false,
        }),
        cap,
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (Sender(Arc::clone(&queue)), Receiver(queue))
}

struct Queue<T, S> {
    state: Mutex<State<T, S>>,
    cap: usize,
    /// The worker waits here for an item.
    not_empty: Condvar,
    /// Producers wait here for room.
    not_full: Condvar,
}

struct State<T, S> {
    /// Queued items, oldest first, each with whether it holds a slot.
    items: VecDeque<(T, bool)>,
    /// Queued items that hold a slot: at most `cap`.
    slots: usize,
    /// Producers inside [`Sender::send`]'s wait. While any is, nothing
    /// else is admitted.
    parked: usize,
    /// A producer went to wait after the last half-drain notification:
    /// the next drain that leaves `slots <= cap / 2` owes one.
    wake_owed: bool,
    /// Half-drain notifications sent, for the tests to count.
    #[cfg(test)]
    producer_wakes: usize,
    /// The worker waits on `not_empty`; cleared by whoever notifies it.
    worker_parked: bool,
    /// The shard, here between runs: [`Receiver::recv_run`] hands it
    /// out with a run and takes it back as the worker comes for the next.
    shard: Option<Box<S>>,
    sender_gone: bool,
    receiver_gone: bool,
}

impl<T, S> Queue<T, S> {
    /// Every update under the lock is one step that leaves the state
    /// valid, and none runs code that can panic midway; an idle read
    /// changes nothing. So a poisoned lock still guards a consistent state.
    fn lock(&self) -> MutexGuard<'_, State<T, S>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Append `item`, holding a slot or not, and wake the worker if it
    /// is parked, notifying after the lock is released so it does not
    /// wake into a held mutex. Returns the slots now taken.
    fn push(&self, mut st: MutexGuard<'_, State<T, S>>, item: T, slot: bool) -> usize {
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
pub(crate) struct Sender<T, S>(Arc<Queue<T, S>>);

impl<T, S> Sender<T, S> {
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
                st = q.not_full.wait(st).unwrap_or_else(PoisonError::into_inner);
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

    /// `read` the shard under the queue's lock if the worker is idle —
    /// the shard in the queue and nothing queued, so everything sent
    /// before this call has been run — else `None`.
    pub(crate) fn idle<G>(&self, read: impl FnOnce(&S) -> G) -> Option<G> {
        let st = self.0.lock();
        let shard = st.shard.as_deref().filter(|_| st.items.is_empty())?;
        Some(read(shard))
    }
}

impl<T, S> Drop for Sender<T, S> {
    /// Close the queue: the worker drains what is queued, then its
    /// [`Receiver::recv_run`] returns `Err`.
    fn drop(&mut self) {
        let mut st = self.0.lock();
        st.sender_gone = true;
        drop(st);
        self.0.not_empty.notify_one();
    }
}

/// The shard worker's half.
pub(crate) struct Receiver<T, S>(Arc<Queue<T, S>>);

impl<T, S> Receiver<T, S> {
    /// Queued items that hold a slot.
    pub(crate) fn slots(&self) -> usize {
        self.0.lock().slots
    }

    /// Take the oldest queued item into `run` and, when it holds a slot,
    /// every slot holder queued right behind it, parking while the queue
    /// is empty. The drain stops at the first item that holds no slot
    /// and leaves it queued, so a run is either one slotless command or
    /// consecutive slot holders in FIFO order. One lock covers the whole
    /// drain, and a producer owed a wake gets one notification for it.
    /// The shard in `held` goes back into the queue as the call begins,
    /// and out into `held` again with the run. `Err`, the shard handed
    /// back in `held`, once the sender is gone and the queue is drained.
    pub(crate) fn recv_run(
        &self,
        run: &mut Vec<T>,
        held: &mut Option<Box<S>>,
    ) -> Result<(), RecvError> {
        let q = &*self.0;
        let mut st = q.lock();
        st.shard = held.take().or(st.shard.take());
        while st.items.is_empty() && !st.sender_gone {
            st.worker_parked = true;
            st = q.not_empty.wait(st).unwrap_or_else(PoisonError::into_inner);
            st.worker_parked = false;
        }
        *held = st.shard.take();
        if st.items.is_empty() {
            return Err(RecvError);
        }
        let slots = st.items.iter().take_while(|(_, slot)| *slot).count();
        run.extend(st.items.drain(..slots.max(1)).map(|(item, _)| item));
        st.slots -= slots;
        let wake = st.wake_owed && st.slots <= q.cap / 2;
        if wake {
            st.wake_owed = false;
            #[cfg(test)]
            {
                st.producer_wakes += 1;
            }
        }
        drop(st);
        if wake {
            q.not_full.notify_all();
        }
        Ok(())
    }
}

impl<T, S> Drop for Receiver<T, S> {
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
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// Run `f` on its own thread and wait at most ten seconds for it, so
    /// a queue that never wakes a thread fails the test instead of
    /// hanging it.
    pub(crate) fn within<R: Send + 'static>(
        what: &str,
        f: impl FnOnce() -> R + Send + 'static,
    ) -> R {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(f()));
        rx.recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("{what}: still waiting after 10 s"))
    }

    /// Spin until `cond` holds of the queue's state.
    fn until<T, S>(q: &Queue<T, S>, cond: impl Fn(&State<T, S>) -> bool) {
        while !cond(&q.lock()) {
            std::thread::yield_now();
        }
    }

    /// Drain one run, for a test that reads no shard.
    fn run<T>(rx: &Receiver<T, ()>) -> Result<Vec<T>, RecvError> {
        let mut run = Vec::new();
        rx.recv_run(&mut run, &mut None).map(|()| run)
    }

    #[test]
    fn fifo_under_two_concurrent_producers() {
        const PER: u32 = 2_000;
        let (tx, rx) = bounded::<(u32, u32), ()>(4, ());
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
                let mut got = Vec::new();
                while got.len() < 2 * PER as usize {
                    rx.recv_run(&mut got, &mut None).unwrap();
                }
                got
            })
        });
        for p in 0..2 {
            let seq: Vec<u32> = got.iter().filter(|m| m.0 == p).map(|m| m.1).collect();
            assert_eq!(seq, (0..PER).collect::<Vec<_>>(), "producer {p} reordered");
        }
    }

    #[test]
    fn try_send_refuses_exactly_at_capacity() {
        let (tx, rx) = bounded(5, ());
        for i in 0..5 {
            tx.try_send(i).unwrap();
        }
        assert!(matches!(tx.try_send(5), Err(TrySendError::Full(5))));
        assert_eq!(run(&rx), Ok(vec![0, 1, 2, 3, 4]));
        for i in 5..10 {
            tx.try_send(i).unwrap();
        }
        assert!(matches!(tx.try_send(10), Err(TrySendError::Full(10))));
        assert_eq!(run(&rx), Ok(vec![5, 6, 7, 8, 9]));
    }

    /// A drain takes the slot holders at the front, in FIFO order, and
    /// stops at the first item that holds no slot, leaving it queued; a
    /// drain that starts at one takes it alone. The slots taken drop by
    /// exactly the slot holders drained.
    #[test]
    fn a_drain_stops_at_an_item_without_a_slot_and_leaves_it_queued() {
        let (tx, rx) = bounded(8, ());
        for i in 0..3 {
            tx.try_send(i).unwrap();
        }
        tx.append(10);
        tx.append(11);
        tx.try_send(3).unwrap();
        tx.try_send(4).unwrap();
        tx.append(12);
        assert_eq!(rx.slots(), 5);
        let mut got = vec![99];
        rx.recv_run(&mut got, &mut None).unwrap();
        assert_eq!(got, [99, 0, 1, 2], "a drain appends to what the run holds");
        assert_eq!(rx.slots(), 2);
        assert_eq!(tx.0.lock().items.front(), Some(&(10, false)));
        assert_eq!(run(&rx), Ok(vec![10]));
        assert_eq!(run(&rx), Ok(vec![11]));
        assert_eq!(rx.slots(), 2, "a slotless item frees no slot");
        assert_eq!(run(&rx), Ok(vec![3, 4]));
        assert_eq!(rx.slots(), 0);
        assert_eq!(run(&rx), Ok(vec![12]));
        assert!(tx.0.lock().items.is_empty());
    }

    /// A drain that frees a full queue pays one notification for it,
    /// however many slot holders it takes, and the parked producer is
    /// admitted right after it, behind nothing the drain left. A drain
    /// with no producer parked pays none.
    #[test]
    fn a_drain_wakes_a_parked_producer_once_and_admits_it() {
        const CAP: u32 = 8;
        let (tx, rx) = bounded(CAP as usize, ());
        let tx = Arc::new(tx);
        for i in 0..CAP {
            tx.try_send(i).unwrap();
        }
        let producer = {
            let tx = Arc::clone(&tx);
            std::thread::spawn(move || tx.send(CAP))
        };
        until(&tx.0, |st| st.parked == 1);
        assert_eq!(run(&rx), Ok((0..CAP).collect()));
        assert_eq!(tx.0.lock().producer_wakes, 1);
        within("parked send after one drain", move || {
            producer.join().unwrap()
        })
        .unwrap();
        until(&tx.0, |st| st.items.len() == 1);
        assert_eq!(run(&rx), Ok(vec![CAP]));
        for i in 0..CAP {
            tx.try_send(i).unwrap();
        }
        assert_eq!(run(&rx), Ok((0..CAP).collect()));
        assert_eq!(tx.0.lock().producer_wakes, 1, "no producer was parked");
    }

    /// The idle rule: the shard is read only in the queue, with nothing
    /// queued. Each run takes the shard out with it, so a drained run
    /// keeps the worker occupied with the queue empty; the shard is back as
    /// the worker comes for the next run, and handed back on close. An
    /// item queued is never idle.
    #[test]
    fn the_worker_is_idle_only_between_runs_with_nothing_queued() {
        let (tx, rx) = bounded(4, "shard");
        let idle = |tx: &Sender<u32, &str>| tx.idle(|shard| shard.to_string());
        let in_queue = |tx: &Sender<u32, &str>| tx.0.lock().shard.is_some();
        assert_eq!(idle(&tx).as_deref(), Some("shard"), "a fresh queue");
        tx.try_send(1).unwrap();
        assert_eq!(idle(&tx), None, "an item is queued");
        let (mut got, mut held) = (Vec::new(), None);
        rx.recv_run(&mut got, &mut held).unwrap();
        assert_eq!(held.as_deref(), Some(&"shard"), "the run took the shard");
        assert!(tx.0.lock().items.is_empty() && !in_queue(&tx));
        assert_eq!(idle(&tx), None, "the worker holds a run it drained");
        tx.append(2);
        rx.recv_run(&mut got, &mut held).unwrap();
        assert!(held.is_some() && !in_queue(&tx), "the next run took it");
        assert_eq!(idle(&tx), None, "the next run is in its hands");
        let rx = Arc::new(rx);
        let worker = {
            let rx = Arc::clone(&rx);
            std::thread::spawn(move || {
                let mut run = Vec::new();
                rx.recv_run(&mut run, &mut held).map(|()| (run, held))
            })
        };
        until(&tx.0, |st| st.worker_parked);
        assert_eq!(idle(&tx).as_deref(), Some("shard"), "the worker waits");
        tx.append(3);
        let (run, mut held) = within("parked worker", move || worker.join().unwrap()).unwrap();
        assert_eq!((run, got), (vec![3], vec![1, 2]));
        assert!(held.is_some() && !in_queue(&tx));
        assert_eq!(idle(&tx), None);
        drop(tx);
        assert_eq!(rx.recv_run(&mut Vec::new(), &mut held), Err(RecvError));
        assert_eq!(held.as_deref(), Some(&"shard"), "close hands it back");
        assert!(rx.0.lock().shard.is_none());
    }

    #[test]
    fn a_closed_sender_drains_before_recv_fails() {
        let (tx, rx) = bounded(4, ());
        for i in 0..3 {
            tx.send(i).unwrap();
        }
        drop(tx);
        assert_eq!(run(&rx), Ok(vec![0, 1, 2]));
        assert_eq!(run(&rx), Err(RecvError));
        // A worker parked on an empty queue is woken by the close.
        let (tx, rx) = bounded::<u8, ()>(4, ());
        let q = Arc::clone(&rx.0);
        let worker = std::thread::spawn(move || run(&rx));
        until(&q, |st| st.worker_parked);
        drop(tx);
        let res = within("parked worker", move || worker.join().unwrap());
        assert_eq!(res, Err(RecvError));
    }

    #[test]
    fn a_dropped_receiver_releases_a_parked_producer() {
        let (tx, rx) = bounded(2, ());
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
    /// refused. The drain stops at the appended item, which frees no
    /// slot when drained.
    #[test]
    fn an_appended_item_enters_a_full_queue_at_once() {
        let (tx, rx) = bounded(2, ());
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
        // The drain takes both slot holders: the parked send goes in
        // behind the appended item.
        assert_eq!(run(&rx), Ok(vec![0, 1]));
        within("parked send", move || producer.join().unwrap()).unwrap();
        assert_eq!(run(&rx), Ok(vec![10]));
        assert_eq!(run(&rx), Ok(vec![2]));
        assert_eq!(tx.0.lock().slots, 0);
    }

    /// A parked send goes in once drains have taken `⌈cap/2⌉` slot
    /// holders, and a `try_send` loop running all the while is refused
    /// until it has. Each slot holder is queued ahead of an appended
    /// item, so each drain takes one. A queue that let any free slot go
    /// to whoever asks first would let the loop's item in ahead of the
    /// parked one at the first drain.
    #[test]
    fn a_parked_send_is_admitted_at_half_and_never_overtaken() {
        const CAP: u32 = 7;
        const LATE: u32 = 100;
        const MARK: u32 = 99;
        const APPENDED: u32 = 1_000;
        let (tx, rx) = bounded(CAP as usize, ());
        let tx = Arc::new(tx);
        for i in 0..CAP {
            tx.try_send(i).unwrap();
            tx.append(APPENDED + i);
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
            assert_eq!(run(&rx), Ok(vec![i]));
            // Give the loop a turn at the slot each drain frees.
            let seen = refusals.load(Ordering::Relaxed);
            while refusals.load(Ordering::Relaxed) == seen
                && !looper.is_finished()
                && tx.0.lock().parked == 1
            {
                std::thread::yield_now();
            }
            assert!(
                i + 1 == half || !looper.is_finished(),
                "a try_send got in ahead of the parked send after drain {i}"
            );
            assert_eq!(run(&rx), Ok(vec![APPENDED + i]));
        }
        within("parked send after ⌈cap/2⌉ slots drained", move || {
            sent_rx.recv().unwrap()
        });
        producer.join().unwrap();
        within("try_send loop", move || looper.join().unwrap());
        drop(tx);
        let rest: Vec<u32> = std::iter::from_fn(|| run(&rx).ok()).flatten().collect();
        let left = (half..CAP).flat_map(|i| [i, APPENDED + i]);
        let want: Vec<u32> = left.chain([MARK, LATE]).collect();
        assert_eq!(rest, want, "the try_send loop overtook the parked send");
    }
}
