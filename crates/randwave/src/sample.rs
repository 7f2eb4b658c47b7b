//! The one randomized-wave skeleton: Figure 6's `d + 1` level samples.
//!
//! Level `l` holds the `c/eps^2` most recent elements whose key hashes
//! to level `l` or above — an expected `2^-l` fraction — and tracks its
//! *range start*, the position just after the last element it lost, so
//! a query can pick the smallest level whose sample still covers the
//! window. [`Sampler`] holds, once, what Section 5's wave inherits from
//! Section 4's: the clock, the levels, eviction and expiry with their
//! range-start rule, the covering-level search, and the report. What
//! Section 5 changes (DESIGN.md §5 has the table) stays outside: the
//! element and what an arrival does to a level come with the [`Queue`]
//! parameter, and each wave type names its own leaving elements.

use crate::config::RandConfig;
use crate::wave::{Element, Report};
use waves_core::error::WaveError;
use waves_gf2::LevelHash;

/// One level's store, oldest element first.
pub(crate) trait Queue {
    type Element: Element + PartialEq;

    /// Room for `cap` elements and the arrival that evicts one.
    fn with_capacity(cap: usize) -> Self;
    fn len(&self) -> usize;
    fn oldest(&self) -> Option<Self::Element>;
    fn pop_oldest(&mut self) -> Option<Self::Element>;
    /// Put `e` at the recent end. Returns false if that only moved an
    /// element with `e`'s key already stored: the queue did not grow.
    fn arrive(&mut self, e: Self::Element) -> bool;
    fn elements(&self) -> Vec<Self::Element>;
}

#[derive(Debug, Clone)]
pub(crate) struct Level<Q> {
    pub(crate) queue: Q,
    /// The queue provably contains every selected element whose
    /// position lies in `[range_start, pos]`.
    pub(crate) range_start: u64,
}

impl<Q: Queue> Level<Q> {
    /// Drop the oldest element: the level no longer vouches for any
    /// position up to and including its.
    fn evict_oldest(&mut self) -> Option<Q::Element> {
        let e = self.queue.pop_oldest()?;
        self.range_start = self.range_start.max(e.pos() + 1);
        Some(e)
    }
}

/// Level samples under one clock: see the module docs.
#[derive(Debug, Clone)]
pub(crate) struct Sampler<Q> {
    max_window: u64,
    hash: LevelHash,
    cap: usize,
    pos: u64,
    pub(crate) levels: Vec<Level<Q>>,
}

impl<Q: Queue> Sampler<Q> {
    /// Instance `instance` of the shared configuration: levels
    /// `0..=degree`, each of the configuration's capacity.
    pub(crate) fn new(config: &RandConfig, instance: usize) -> Self {
        let cap = config.queue_capacity();
        let level = |_| Level {
            queue: Q::with_capacity(cap),
            range_start: 0,
        };
        Sampler {
            max_window: config.max_window(),
            hash: config.hash(instance).clone(),
            cap,
            pos: 0,
            levels: (0..=config.degree()).map(level).collect(),
        }
    }

    pub(crate) fn pos(&self) -> u64 {
        self.pos
    }

    pub(crate) fn stored(&self) -> usize {
        self.levels.iter().map(|l| l.queue.len()).sum()
    }

    /// Advance the clock one position and drop what thereby left the
    /// window: given `pos - N`, `leaving` names, oldest first, the stored
    /// elements at or before it. Being the oldest, each can only sit at
    /// the old end of the levels its key selects.
    #[inline]
    pub(crate) fn advance<I: Iterator<Item = Q::Element>>(
        &mut self,
        leaving: impl FnOnce(u64) -> I,
    ) {
        self.pos += 1;
        if self.pos <= self.max_window {
            return;
        }
        for e in leaving(self.pos - self.max_window) {
            let top = self.hash.level(e.key()) as usize;
            for level in &mut self.levels[..=top] {
                if level.queue.oldest() == Some(e) {
                    level.evict_oldest();
                }
            }
        }
    }

    /// `e` arrives at the current position, at the recent end of every
    /// level its key selects; a level that thereby outgrows the capacity
    /// evicts its oldest element, and `evicted` hears of it and of the
    /// level it happened at.
    #[inline]
    pub(crate) fn insert(
        &mut self,
        e: Q::Element,
        mut evicted: impl FnMut(&LevelHash, usize, Q::Element),
    ) {
        let top = self.hash.level(e.key()) as usize;
        for (l, level) in self.levels[..=top].iter_mut().enumerate() {
            if level.queue.arrive(e) && level.queue.len() > self.cap {
                let old = level.evict_oldest().expect("a queue past capacity");
                evicted(&self.hash, l, old);
            }
        }
    }

    /// The smallest level whose sample covers the window `[s, pos]`, by
    /// binary search over the range starts, which are nonincreasing in
    /// the level (the `O(log log N')` step in Theorem 5's query bound).
    ///
    /// When no level covers — every key hashing to the top level, the
    /// `q = r = 0` coin draw of probability `2^-2d`, or coins whose
    /// field is smaller than the window — the answer is the top level:
    /// its sample is the best there is, and the estimate made from it
    /// is on the `delta` side of the `(eps, delta)` guarantee.
    pub(crate) fn local_level(&self, s: u64) -> u32 {
        let covering = self.levels.partition_point(|l| l.range_start > s);
        covering.min(self.levels.len() - 1) as u32
    }

    /// Validate the window size and derive the window start `s` for a
    /// query over the last `n` positions.
    pub(crate) fn window_start(&self, n: u64) -> Result<u64, WaveError> {
        if n > self.max_window {
            return Err(WaveError::WindowTooLarge {
                requested: n,
                max: self.max_window,
            });
        }
        Ok((self.pos + 1).saturating_sub(n))
    }

    /// The party-side query step over the last `n` positions.
    pub(crate) fn report(&self, n: u64) -> Result<Report<Q::Element>, WaveError> {
        let level = self.local_level(self.window_start(n)?);
        Ok(Report {
            level,
            elements: self.levels[level as usize].queue.elements(),
        })
    }
}
