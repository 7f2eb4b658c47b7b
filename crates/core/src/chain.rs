//! Pointer-free intrusive storage: a doubly linked list over a
//! preallocated slab, its links `u32` offsets — the paper's observation
//! that "the linked list pointers are offsets into this block and not
//! full-sized pointers" — so the streaming hot path never allocates.
//!
//! [`Chain`] now serves only `waves-rand`'s `DistinctWave`, whose
//! entries leave from the middle of the list in no level's order. The
//! deterministic waves keep only the paper's level queues, in one slab of
//! their own (`ladder.rs`): each queue is in position order, so the list
//! `L` is their merge. The level ring's tests sit beside the chain's
//! below.

/// Sentinel index meaning "no node".
pub const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Slot<T> {
    payload: T,
    prev: u32,
    next: u32,
}

/// A doubly linked list over a preallocated slab, ordered by insertion
/// (which for waves equals position order).
#[derive(Debug, Clone)]
pub struct Chain<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    len: usize,
}

impl<T> Chain<T> {
    /// A chain able to hold exactly `cap` entries without reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        assert!(cap < NIL as usize, "capacity too large for u32 links");
        Chain {
            slots: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Number of live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Oldest entry (list head), if any.
    #[inline]
    pub fn head(&self) -> Option<u32> {
        (self.head != NIL).then_some(self.head)
    }

    /// Newest entry (list tail), if any.
    #[inline]
    pub fn tail(&self) -> Option<u32> {
        (self.tail != NIL).then_some(self.tail)
    }

    /// Successor (next-newer) of `id`.
    #[inline]
    pub fn next(&self, id: u32) -> Option<u32> {
        let n = self.slots[id as usize].next;
        (n != NIL).then_some(n)
    }

    /// Predecessor (next-older) of `id`.
    #[inline]
    pub fn prev(&self, id: u32) -> Option<u32> {
        let p = self.slots[id as usize].prev;
        (p != NIL).then_some(p)
    }

    /// Borrow the payload of a live node.
    #[inline]
    pub fn get(&self, id: u32) -> &T {
        &self.slots[id as usize].payload
    }

    /// Mutably borrow the payload of a live node.
    #[inline]
    pub fn get_mut(&mut self, id: u32) -> &mut T {
        &mut self.slots[id as usize].payload
    }

    /// Append a new entry at the tail (newest end). Never allocates once
    /// the slab has reached its capacity plateau.
    pub fn push_back(&mut self, payload: T) -> u32 {
        let id = match self.free.pop() {
            Some(id) => {
                self.slots[id as usize].payload = payload;
                id
            }
            None => {
                let id = self.slots.len() as u32;
                self.slots.push(Slot {
                    payload,
                    prev: NIL,
                    next: NIL,
                });
                id
            }
        };
        let s = &mut self.slots[id as usize];
        s.prev = self.tail;
        s.next = NIL;
        if self.tail != NIL {
            self.slots[self.tail as usize].next = id;
        } else {
            self.head = id;
        }
        self.tail = id;
        self.len += 1;
        id
    }

    /// Splice a node out of the list and recycle its slot.
    pub fn remove(&mut self, id: u32) {
        let (prev, next) = {
            let s = &self.slots[id as usize];
            (s.prev, s.next)
        };
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
        self.free.push(id);
        self.len -= 1;
    }

    /// Iterate payloads oldest-to-newest.
    pub fn iter(&self) -> ChainIter<'_, T> {
        ChainIter {
            chain: self,
            cur: self.head,
        }
    }
}

/// Oldest-to-newest iterator over a [`Chain`].
pub struct ChainIter<'a, T> {
    chain: &'a Chain<T>,
    cur: u32,
}

impl<'a, T> Iterator for ChainIter<'a, T> {
    type Item = (u32, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cur == NIL {
            return None;
        }
        let id = self.cur;
        self.cur = self.chain.slots[id as usize].next;
        Some((id, &self.chain.slots[id as usize].payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ladder::Ring;

    /// A level queue as the ladder keeps one: a [`Ring`] of offsets into
    /// `cap` cells of the level's own.
    struct LevelQueue {
        ring: Ring,
        cells: Vec<u32>,
    }

    impl LevelQueue {
        fn new(cap: usize) -> Self {
            LevelQueue {
                ring: Ring::default(),
                cells: vec![NIL; cap],
            }
        }
        fn cap(&self) -> u32 {
            self.cells.len() as u32
        }
        fn is_full(&self) -> bool {
            self.ring.is_full(self.cap())
        }
        fn front(&self) -> Option<u32> {
            let mut peek = self.ring; // a copy: the queue keeps its front
            let at = peek.pop_front(self.cap())?;
            Some(self.cells[at as usize])
        }
        fn push_back(&mut self, id: u32) {
            let at = self.ring.push_back(self.cap());
            self.cells[at as usize] = id;
        }
        fn pop_front(&mut self) -> Option<u32> {
            let at = self.ring.pop_front(self.cap())?;
            Some(self.cells[at as usize])
        }
    }

    #[test]
    fn chain_push_and_iterate() {
        let mut c = Chain::with_capacity(4);
        let a = c.push_back(10);
        let b = c.push_back(20);
        let d = c.push_back(30);
        assert_eq!(c.len(), 3);
        let items: Vec<_> = c.iter().map(|(_, &v)| v).collect();
        assert_eq!(items, vec![10, 20, 30]);
        assert_eq!(c.head(), Some(a));
        assert_eq!(c.tail(), Some(d));
        assert_eq!(c.next(a), Some(b));
        assert_eq!(c.prev(d), Some(b));
    }

    #[test]
    fn chain_remove_middle() {
        let mut c = Chain::with_capacity(4);
        let a = c.push_back(1);
        let b = c.push_back(2);
        let d = c.push_back(3);
        c.remove(b);
        assert_eq!(c.iter().map(|(_, &v)| v).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(c.next(a), Some(d));
        assert_eq!(c.prev(d), Some(a));
    }

    #[test]
    fn chain_remove_head_and_tail() {
        let mut c = Chain::with_capacity(4);
        let a = c.push_back(1);
        let b = c.push_back(2);
        c.remove(a);
        assert_eq!(c.head(), Some(b));
        c.remove(b);
        assert!(c.is_empty());
        assert_eq!(c.head(), None);
        assert_eq!(c.tail(), None);
    }

    #[test]
    fn chain_recycles_slots_without_growth() {
        let mut c = Chain::with_capacity(2);
        let a = c.push_back(1);
        let _b = c.push_back(2);
        let cap_before = c.slots.capacity();
        for i in 0..1000 {
            let h = c.head().unwrap();
            c.remove(h);
            c.push_back(i);
        }
        assert_eq!(c.slots.capacity(), cap_before, "slab must not grow");
        let _ = a;
    }

    #[test]
    fn fifo_ordering_and_wraparound() {
        let mut q = LevelQueue::new(3);
        q.push_back(1);
        q.push_back(2);
        q.push_back(3);
        assert!(q.is_full());
        assert_eq!(q.pop_front(), Some(1));
        q.push_back(4);
        assert_eq!(q.pop_front(), Some(2));
        assert_eq!(q.pop_front(), Some(3));
        assert_eq!(q.pop_front(), Some(4));
        assert_eq!(q.pop_front(), None);
    }

    #[test]
    fn fifo_front_peeks_oldest() {
        let mut q = LevelQueue::new(2);
        assert_eq!(q.front(), None);
        q.push_back(7);
        q.push_back(8);
        assert_eq!(q.front(), Some(7));
    }

    #[test]
    #[should_panic(expected = "level queue overflow")]
    fn fifo_overflow_panics() {
        let mut q = LevelQueue::new(1);
        q.push_back(1);
        q.push_back(2);
    }

    /// Model-based test: random interleavings of push_back / remove-head
    /// / remove-tail / remove-random against a VecDeque of payloads.
    #[test]
    fn chain_matches_vecdeque_model() {
        use std::collections::VecDeque;
        let mut chain: Chain<u64> = Chain::with_capacity(64);
        let mut model: VecDeque<(u32, u64)> = VecDeque::new(); // (id, payload)
        let mut x = 9u64;
        let mut next_val = 0u64;
        for step in 0..20_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            match (x >> 33) % 4 {
                0 | 1 => {
                    next_val += 1;
                    let id = chain.push_back(next_val);
                    model.push_back((id, next_val));
                }
                2 => {
                    if let Some((id, _)) = model.pop_front() {
                        chain.remove(id);
                    }
                }
                _ => {
                    if !model.is_empty() {
                        let idx = ((x >> 20) % model.len() as u64) as usize;
                        let (id, _) = model.remove(idx).expect("in range");
                        chain.remove(id);
                    }
                }
            }
            assert_eq!(chain.len(), model.len(), "step {step}");
            assert_eq!(
                chain.head(),
                model.front().map(|&(id, _)| id),
                "step {step}"
            );
            assert_eq!(chain.tail(), model.back().map(|&(id, _)| id));
            if step % 503 == 0 {
                let got: Vec<u64> = chain.iter().map(|(_, &v)| v).collect();
                let want: Vec<u64> = model.iter().map(|&(_, v)| v).collect();
                assert_eq!(got, want, "step {step}");
            }
        }
    }

    /// Model-based test for the fixed-capacity FIFO.
    #[test]
    fn fifo_matches_vecdeque_model() {
        use std::collections::VecDeque;
        let mut fifo = LevelQueue::new(7);
        let mut model: VecDeque<u32> = VecDeque::new();
        let mut x = 5u64;
        for step in 0..10_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if (x >> 33).is_multiple_of(2) && !fifo.is_full() {
                let v = (x >> 10) as u32;
                fifo.push_back(v);
                model.push_back(v);
            } else {
                assert_eq!(fifo.pop_front(), model.pop_front(), "step {step}");
            }
            assert_eq!(fifo.front(), model.front().copied());
            assert_eq!(fifo.is_full(), model.len() == 7);
        }
    }
}
