//! Atomically swappable slots with epoch-based reclamation.

use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam_epoch::{self as epoch, Atomic, Owned};

/// A hot-swappable value slot — the patchable function pointer of a lock.
///
/// Readers take a [`PatchGuard`] (an epoch pin plus a borrowed reference);
/// writers [`PatchPoint::replace`] the value, and the old one is reclaimed
/// only after all readers that might still see it have finished.
///
/// The read path takes no lock, allocates nothing and writes no line
/// another thread writes: [`PatchPoint::get`] stores the global epoch into
/// the calling thread's own participant record, issues one full barrier and
/// loads the pointer; dropping the guard is one store (≈ 8 ns for the pair,
/// `patchpoint/get_only`). That is cheap enough to sit on a lock's slow
/// path, which is exactly where Concord puts it. The barrier is what makes
/// it sound: a reader either publishes its pin before `replace`'s collector
/// looks, or loads the pointer after the swap — see the ordering argument
/// in the `crossbeam-epoch` stand-in. A [`PatchGuard`] belongs to the
/// thread that took it (`!Send`). The write side takes the collector's one
/// lock and is paid per attach, not per hook fire.
pub struct PatchPoint<T> {
    current: Atomic<T>,
    generation: AtomicU64,
}

impl<T> PatchPoint<T> {
    /// Creates a slot holding `initial` (generation 0).
    pub fn new(initial: T) -> Self {
        PatchPoint {
            current: Atomic::new(initial),
            generation: AtomicU64::new(0),
        }
    }

    /// Number of times the slot has been replaced.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Pins the current value for reading.
    pub fn get(&self) -> PatchGuard<'_, T> {
        let guard = epoch::pin();
        // SAFETY: `current` is never null (constructed with a value, and
        // `replace` swaps in owned non-null values), and the returned
        // reference lives no longer than `guard`, which keeps the epoch
        // pinned so a concurrent `replace` cannot free the object.
        let value = unsafe {
            let shared = self.current.load(Ordering::Acquire, &guard);
            &*shared.as_raw()
        };
        PatchGuard {
            _guard: guard,
            value,
        }
    }

    /// Runs `f` against the current value (convenience wrapper).
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        f(&self.get())
    }

    /// Atomically installs `new`; readers in flight finish on the old value.
    pub fn replace(&self, new: T) {
        let guard = epoch::pin();
        let old = self.current.swap(Owned::new(new), Ordering::AcqRel, &guard);
        self.generation.fetch_add(1, Ordering::AcqRel);
        // SAFETY: `old` was the unique owner stored in `current` and has
        // just been unlinked; no new reader can load it, and existing
        // readers are protected by the epoch, so deferred destruction is
        // sound.
        unsafe {
            guard.defer_destroy(old);
        }
    }
}

impl<T> Drop for PatchPoint<T> {
    fn drop(&mut self) {
        let guard = epoch::pin();
        let cur = self
            .current
            .swap(epoch::Shared::null(), Ordering::AcqRel, &guard);
        if !cur.is_null() {
            // SAFETY: the slot is being dropped, so no reader can obtain a
            // new reference; epoch deferral covers stragglers.
            unsafe {
                guard.defer_destroy(cur);
            }
        }
    }
}

impl<T: Default> Default for PatchPoint<T> {
    fn default() -> Self {
        PatchPoint::new(T::default())
    }
}

/// A pinned, dereferenceable view of a patch point's current value.
pub struct PatchGuard<'a, T> {
    _guard: epoch::Guard,
    value: &'a T,
}

impl<T> std::ops::Deref for PatchGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn read_and_replace() {
        let p = PatchPoint::new(1u32);
        assert_eq!(*p.get(), 1);
        assert_eq!(p.generation(), 0);
        p.replace(2);
        assert_eq!(*p.get(), 2);
        assert_eq!(p.generation(), 1);
        assert_eq!(p.with(|v| v * 10), 20);
    }

    #[test]
    fn closure_slots_swap() {
        type F = Arc<dyn Fn(u64) -> u64 + Send + Sync>;
        let p: PatchPoint<F> = PatchPoint::new(Arc::new(|x| x + 1));
        assert_eq!(p.get()(10), 11);
        p.replace(Arc::new(|x| x * 2));
        assert_eq!(p.get()(10), 20);
    }

    #[test]
    fn guard_keeps_old_value_alive_across_replace() {
        let p = Arc::new(PatchPoint::new(String::from("old")));
        let g = p.get();
        p.replace(String::from("new"));
        // The pinned guard still sees (and can safely read) the old value.
        assert_eq!(&*g, "old");
        drop(g);
        assert_eq!(&*p.get(), "new");
    }

    struct Counted(Arc<AtomicUsize>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Epoch reclamation is deferred, and a sibling test's thread may be
    /// pinned right now: flush until the count is reached.
    fn quiesce(drops: &AtomicUsize, want: usize) {
        for _ in 0..10_000 {
            epoch::pin().flush();
            if drops.load(Ordering::SeqCst) >= want {
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(drops.load(Ordering::SeqCst), want);
    }

    #[test]
    fn drop_releases_value() {
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let p = PatchPoint::new(Counted(Arc::clone(&drops)));
            p.replace(Counted(Arc::clone(&drops)));
            p.replace(Counted(Arc::clone(&drops)));
            drop(p);
        }
        quiesce(&drops, 3);
    }

    #[test]
    fn nested_get_keeps_the_outer_value_alive() {
        let drops = Arc::new(AtomicUsize::new(0));
        let p = PatchPoint::new((7u64, Counted(Arc::clone(&drops))));
        let outer = p.get();
        {
            let inner = p.get();
            assert_eq!(inner.0, 7);
            p.replace((8, Counted(Arc::clone(&drops))));
            // Dropping the inner guard must leave the thread pinned.
        }
        for _ in 0..16 {
            epoch::pin().flush();
        }
        assert_eq!(drops.load(Ordering::SeqCst), 0, "outer guard still pins");
        assert_eq!(outer.0, 7);
        assert_eq!(p.get().0, 8);
        drop(outer);
        quiesce(&drops, 1);
    }

    #[test]
    fn concurrent_readers_see_whole_live_values_and_every_old_one_drops_once() {
        const READERS: usize = 4;
        const REPLACES: u64 = 2_000;
        // Values are (x, REPLACES - x, payload): a torn read breaks the sum,
        // a read of a reclaimed value breaks it or the order (or crashes).
        let drops = Arc::new(AtomicUsize::new(0));
        let value = |x: u64| (x, REPLACES - x, Counted(Arc::clone(&drops)));
        let p = PatchPoint::new(value(0));
        let done = std::sync::atomic::AtomicBool::new(false);
        // Readers and writer start together, so replaces land under pins.
        let start = std::sync::Barrier::new(READERS + 1);
        std::thread::scope(|s| {
            for _ in 0..READERS {
                s.spawn(|| {
                    start.wait();
                    let (mut last, mut reads) = (0, 0u64);
                    // A floor of iterations guarantees overlap with the
                    // writer even on a single-CPU host.
                    while !done.load(Ordering::Acquire) || reads < 5_000 {
                        let v = p.get();
                        assert_eq!(v.0 + v.1, REPLACES);
                        assert!(v.0 >= last, "values only move forward");
                        last = v.0;
                        reads += 1;
                    }
                });
            }
            start.wait();
            for x in 1..=REPLACES {
                p.replace(value(x));
                if x % 64 == 0 {
                    std::thread::yield_now();
                }
            }
            done.store(true, Ordering::Release);
        });
        assert_eq!(p.generation(), REPLACES);
        // Every replaced value, and only those: the live one stays.
        quiesce(&drops, REPLACES as usize);
        assert_eq!(p.get().0, REPLACES);
        drop(p);
        quiesce(&drops, REPLACES as usize + 1);
    }
}
