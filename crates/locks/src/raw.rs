//! Common lock traits and RAII guards.

/// A mutual-exclusion lock.
///
/// Implementations stash any per-acquisition state (queue nodes) inside the
/// lock itself, so `acquire`/`release` pair like kernel `spin_lock` /
/// `spin_unlock`. The RAII entry points [`RawLock::lock`] and
/// [`RawLock::try_lock`] are what library users should reach for.
pub trait RawLock: Send + Sync {
    /// Acquires the lock, spinning or parking as the algorithm dictates.
    fn acquire(&self);

    /// Releases the lock.
    ///
    /// # Panics
    ///
    /// Implementations may panic (at least in debug builds) when the caller
    /// does not hold the lock.
    fn release(&self);

    /// Attempts to acquire without waiting.
    fn try_acquire(&self) -> bool;

    /// Acquires and returns a drop-guard.
    fn lock(&self) -> LockGuard<'_, Self>
    where
        Self: Sized,
    {
        self.acquire();
        LockGuard { lock: self }
    }

    /// Tries to acquire; returns a drop-guard on success.
    fn try_lock(&self) -> Option<LockGuard<'_, Self>>
    where
        Self: Sized,
    {
        if self.try_acquire() {
            Some(LockGuard { lock: self })
        } else {
            None
        }
    }
}

/// RAII guard for [`RawLock`].
pub struct LockGuard<'a, L: RawLock> {
    lock: &'a L,
}

impl<L: RawLock> Drop for LockGuard<'_, L> {
    fn drop(&mut self) {
        self.lock.release();
    }
}

/// A readers-writer lock.
pub trait RawRwLock: Send + Sync {
    /// Acquires shared (read) access.
    fn read_acquire(&self);
    /// Releases shared access.
    fn read_release(&self);
    /// Acquires exclusive (write) access.
    fn write_acquire(&self);
    /// Releases exclusive access.
    fn write_release(&self);
    /// Attempts shared access without waiting.
    fn try_read_acquire(&self) -> bool;
    /// Attempts exclusive access without waiting.
    fn try_write_acquire(&self) -> bool;

    /// Acquires shared access and returns a drop-guard.
    fn read(&self) -> ReadGuard<'_, Self>
    where
        Self: Sized,
    {
        self.read_acquire();
        ReadGuard { lock: self }
    }

    /// Acquires exclusive access and returns a drop-guard.
    fn write(&self) -> WriteGuard<'_, Self>
    where
        Self: Sized,
    {
        self.write_acquire();
        WriteGuard { lock: self }
    }
}

/// RAII guard for shared access.
pub struct ReadGuard<'a, L: RawRwLock> {
    lock: &'a L,
}

impl<L: RawRwLock> Drop for ReadGuard<'_, L> {
    fn drop(&mut self) {
        self.lock.read_release();
    }
}

/// RAII guard for exclusive access.
pub struct WriteGuard<'a, L: RawRwLock> {
    lock: &'a L,
}

impl<L: RawRwLock> Drop for WriteGuard<'_, L> {
    fn drop(&mut self) {
        self.lock.write_release();
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::RawLock;
    use std::sync::Arc;

    /// Standard mutual-exclusion stress: `threads × iters` increments of an
    /// unsynchronized counter must not lose updates.
    pub(crate) fn mutex_stress<L: RawLock + 'static>(lock: L, threads: usize, iters: usize) {
        struct Shared<L> {
            lock: L,
            counter: std::cell::UnsafeCell<u64>,
            inside: std::sync::atomic::AtomicU32,
        }
        // SAFETY: `counter` is only touched under `lock`; the test asserts
        // exactly that.
        unsafe impl<L: RawLock> Sync for Shared<L> {}

        let shared = Arc::new(Shared {
            lock,
            counter: std::cell::UnsafeCell::new(0),
            inside: std::sync::atomic::AtomicU32::new(0),
        });
        let mut handles = Vec::new();
        for t in 0..threads {
            let s = Arc::clone(&shared);
            handles.push(std::thread::spawn(move || {
                crate::topo::pin_thread(t as u32 % 80);
                for _ in 0..iters {
                    let _g = s.lock.lock();
                    // Relaxed on purpose: the holder count must add no
                    // ordering of its own, or it would order each holder
                    // after the last whatever the lock does, and a lock
                    // whose acquire does not pair with the previous
                    // release would pass. An RMW still reads the latest
                    // count, so two holders at once still fail.
                    let was = s.inside.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    assert_eq!(was, 0, "two threads inside the critical section");
                    // SAFETY: protected by `lock`.
                    unsafe {
                        *s.counter.get() += 1;
                    }
                    s.inside.fetch_sub(1, std::sync::atomic::Ordering::Relaxed);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // SAFETY: all threads joined.
        let total = unsafe { *shared.counter.get() };
        assert_eq!(total, (threads * iters) as u64);
    }
}
