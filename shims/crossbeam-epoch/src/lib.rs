//! Offline stand-in for the `crossbeam-epoch` crate.
//!
//! Implements the same *interface contract* — pinned guards keep deferred
//! destructions from running until every guard that could have observed
//! the unlinked pointer is dropped — with the same shape of engine as the
//! real crate: every thread publishes its pin in a record of its own, and
//! only the write side (`defer_destroy`, reclamation) touches shared state.
//!
//! **Read path.** `pin()` is a thread-local lookup, one store of the
//! observed global epoch into the thread's own cache-line-sized
//! [`Participant`] record, and one full barrier; unpin is one store. No
//! lock, no allocation, no write to a line another thread writes. A nested
//! `pin()` only bumps a thread-private depth counter.
//!
//! **Write path.** `defer_destroy(p)` tags the garbage with the global
//! epoch `E` and bumps it to `E + 1`. Reclamation runs on `flush()` and on
//! an unpin that sees a non-zero (relaxed) garbage counter: it frees an
//! item tagged `E` only once every pinned participant's epoch exceeds `E`,
//! and runs the destructors after releasing the garbage lock, so a
//! destructor may itself pin, defer or flush.
//!
//! **Ordering argument.** The caller unlinks `p` before deferring it (the
//! usual epoch contract). A reader `R` does `store(R.epoch)`, full barrier
//! `F_r`, `load(ptr)`; the collector `C` does (unlink happens-before, via
//! the garbage lock) full barrier `F_c`, `load(R.epoch)`.
//!
//! - If `R` loaded the *old* pointer, `F_r` precedes `F_c` in the single
//!   order of `SeqCst` fences (otherwise the load after `F_r` would see the
//!   unlink that happened before `F_c`). Hence `C`'s load after `F_c` sees
//!   `R`'s store before `F_r`, or a later one. The same holds for the
//!   registry head, so `C` cannot miss a participant registered by such a
//!   reader.
//! - If `C` then reads an epoch `<= E`, the item stays queued. If it reads
//!   a later store of `R` (unpinned, or re-pinned), `R`'s guard is gone;
//!   both stores are `Release` and `C`'s load is `Acquire`, so every access
//!   `R` made under the old guard happens-before the free.
//! - If `C` reads `R.epoch > E` from the same pin, `R` read the global
//!   epoch after the bump. The bump is a `Release` RMW sequenced after the
//!   unlink and `F_r` is an acquire fence after `R`'s read of it, so the
//!   unlink happens-before `R`'s pointer load: `R` never saw `p`.
//!
//! A pin taken at a stale epoch (the global epoch moved between `R`'s load
//! and store) only delays reclamation; it never licenses it.
//!
//! Participant records are leaked and recycled: a thread that exits hands
//! its record to the next thread that pins, so the registry is as long as
//! the peak number of simultaneously live pinning threads and a `Guard`
//! never points at freed memory — even one dropped after its thread's
//! thread-locals were torn down.

use std::cell::Cell;
use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};

/// A deferred destruction: raw pointer plus its monomorphized dropper.
struct Garbage {
    ptr: *mut u8,
    dtor: unsafe fn(*mut u8),
}

// SAFETY: the pointee is unlinked and owned solely by the garbage list;
// it is only touched once, by the destructor, under the collector's rules
// (`defer_destroy` requires `T: Send`-like discipline of its caller, as
// the real crate does).
unsafe impl Send for Garbage {}

/// Monotonic epoch, bumped on every deferral.
static EPOCH: AtomicU64 = AtomicU64::new(0);
/// Deferred destructions in deferral order, each tagged with the global
/// epoch it was deferred at (tags are strictly increasing).
static GARBAGE: Mutex<Vec<(u64, Garbage)>> = Mutex::new(Vec::new());
/// Length of [`GARBAGE`], stored under its lock and readable without it:
/// the unpin path consults it (relaxed) to skip reclamation when nothing
/// is queued.
static PENDING: AtomicUsize = AtomicUsize::new(0);
/// Head of the grow-only list of participant records.
static REGISTRY: AtomicPtr<Participant> = AtomicPtr::new(ptr::null_mut());

/// [`Participant::epoch`] of a thread that holds no guard.
const UNPINNED: u64 = u64::MAX;

/// One thread's published pin state. Aligned so that no two threads'
/// records share a cache line: a pin writes only its own line.
#[repr(align(128))]
struct Participant {
    /// Epoch the owner is pinned at, or [`UNPINNED`]. Written by the
    /// owner, read by collectors.
    epoch: AtomicU64,
    /// Live guards of the owner (nested pins); owner-only.
    depth: Cell<usize>,
    /// Whether the owner's thread-local [`Handle`] still refers to this
    /// record; owner-only. A record with no handle and no guards is free.
    has_handle: Cell<bool>,
    /// Claimed by a thread. Cleared with `Release` when the owner lets go,
    /// claimed with an `Acquire` CAS, which hands the owner-only cells over.
    in_use: AtomicBool,
    /// Next record; written once, before the record is published.
    next: *const Participant,
}

// SAFETY: `epoch` and `in_use` are atomics and `next` is immutable once the
// record is reachable. The `Cell`s are touched only by the thread that
// holds `in_use`, and ownership moves between threads only through the
// Release store / Acquire CAS on `in_use`.
unsafe impl Sync for Participant {}

impl Participant {
    /// Claims a free record, or leaks a new one onto the registry.
    fn acquire(has_handle: bool) -> &'static Participant {
        let mut cur = REGISTRY.load(Ordering::Acquire);
        // SAFETY: records are leaked, so every pointer reachable from the
        // registry head is valid for `'static`.
        while let Some(p) = unsafe { cur.as_ref() } {
            if !p.in_use.load(Ordering::Relaxed)
                && p.in_use
                    .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                p.has_handle.set(has_handle);
                return p;
            }
            cur = p.next.cast_mut();
        }
        let new = Box::into_raw(Box::new(Participant {
            epoch: AtomicU64::new(UNPINNED),
            depth: Cell::new(0),
            has_handle: Cell::new(has_handle),
            in_use: AtomicBool::new(true),
            next: ptr::null(),
        }));
        let mut head = REGISTRY.load(Ordering::Relaxed);
        loop {
            // SAFETY: `new` is not yet published; this thread owns it.
            unsafe { (*new).next = head };
            // Release publishes the record's fields with the pointer.
            match REGISTRY.compare_exchange_weak(head, new, Ordering::Release, Ordering::Relaxed) {
                // SAFETY: just leaked, never freed.
                Ok(_) => return unsafe { &*new },
                Err(h) => head = h,
            }
        }
    }

    /// Gives the record up for recycling. The owner must hold no guard.
    fn release(&self) {
        debug_assert_eq!(self.depth.get(), 0);
        self.in_use.store(false, Ordering::Release);
    }
}

/// A thread's claim on its participant record, released at thread exit.
struct Handle(&'static Participant);

impl Drop for Handle {
    fn drop(&mut self) {
        self.0.has_handle.set(false);
        // A guard kept in another thread-local may outlive this handle;
        // then the last such guard releases the record.
        if self.0.depth.get() == 0 {
            self.0.release();
        }
    }
}

thread_local! {
    static HANDLE: Handle = Handle(Participant::acquire(true));
}

/// Locks the garbage list. Destructors never run under this lock, so a
/// poisoned lock still holds a list that is valid at every step.
fn lock_garbage() -> MutexGuard<'static, Vec<(u64, Garbage)>> {
    GARBAGE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Frees every queued item no pinned participant can still reach.
fn collect(mut bag: MutexGuard<'static, Vec<(u64, Garbage)>>) {
    if bag.is_empty() {
        return;
    }
    // Pairs with the barrier in `pin()`; see the module docs. Every queued
    // item was unlinked before it was pushed under the lock now held.
    fence(Ordering::SeqCst);
    let mut min_pinned = UNPINNED;
    let mut cur = REGISTRY.load(Ordering::Acquire);
    // SAFETY: records are leaked, so every pointer reachable from the
    // registry head is valid for `'static`.
    while let Some(p) = unsafe { cur.as_ref() } {
        min_pinned = min_pinned.min(p.epoch.load(Ordering::Acquire));
        cur = p.next.cast_mut();
    }
    let n = bag.partition_point(|(tag, _)| *tag < min_pinned);
    if n == 0 {
        return;
    }
    let freed: Vec<Garbage> = bag.drain(..n).map(|(_, g)| g).collect();
    PENDING.store(bag.len(), Ordering::Relaxed);
    drop(bag);
    for g in freed {
        // SAFETY: each Garbage is destroyed exactly once, and the epoch
        // rule above guarantees no pinned reader can still reach it.
        unsafe { (g.dtor)(g.ptr) };
    }
}

/// Pins the current epoch; deferred destructions stay queued while the
/// returned guard is alive.
pub fn pin() -> Guard {
    // During thread teardown the handle is gone: pin on a record claimed
    // for this one guard.
    let local = HANDLE
        .try_with(|h| h.0)
        .unwrap_or_else(|_| Participant::acquire(false));
    let depth = local.depth.get();
    local.depth.set(depth + 1);
    if depth == 0 {
        let epoch = EPOCH.load(Ordering::Relaxed);
        local.epoch.store(epoch, Ordering::Release);
        // The caller's pointer loads must not be ordered before the store
        // above; pairs with the fence in `collect`.
        fence(Ordering::SeqCst);
    }
    Guard { local }
}

/// Returns a dummy guard that does not pin anything.
///
/// # Safety
///
/// The caller must guarantee no concurrent mutation of the data structures
/// accessed through this guard (e.g. it holds `&mut` or is in `Drop`).
pub unsafe fn unprotected() -> &'static Guard {
    struct SyncGuard(Guard);
    // SAFETY: a guard with no participant has no state at all; sharing it
    // between threads shares nothing.
    unsafe impl Sync for SyncGuard {}
    static UNPROTECTED: SyncGuard = SyncGuard(Guard { local: ptr::null() });
    &UNPROTECTED.0
}

/// An epoch pin. Dropping it unpins and may run deferred destructors.
///
/// Tied to the thread that created it (`!Send`, `!Sync`), as in the real
/// crate: its participant record is that thread's.
pub struct Guard {
    /// Null for the unprotected guard.
    local: *const Participant,
}

// `Guard: !Send` is what lets `pin()` and `drop` use plain `Cell`s; a
// `Send` guard makes `probe` ambiguous and the crate stops compiling.
const _: fn() = || {
    trait Probe<A> {
        fn probe() {}
    }
    impl<T: ?Sized> Probe<()> for T {}
    impl<T: ?Sized + Send> Probe<u8> for T {}
    let _ = <Guard as Probe<_>>::probe;
};

impl Guard {
    /// Schedules `shared`'s pointee for destruction once all current pins
    /// are gone.
    ///
    /// # Safety
    ///
    /// The pointer must be non-null, unlinked from every shared location
    /// (no new reader can acquire it), and not deferred twice.
    pub unsafe fn defer_destroy<T>(&self, shared: Shared<'_, T>) {
        unsafe fn dropper<T>(p: *mut u8) {
            drop(Box::from_raw(p as *mut T));
        }
        let g = Garbage {
            ptr: shared.ptr as *mut u8,
            dtor: dropper::<T>,
        };
        let mut bag = lock_garbage();
        // Bump so future pins are distinguishable from ones that may still
        // observe the unlinked pointer. Release: a reader that observes
        // the new epoch also observes the unlink (module docs).
        let tag = EPOCH.fetch_add(1, Ordering::AcqRel);
        bag.push((tag, g));
        PENDING.store(bag.len(), Ordering::Relaxed);
    }

    /// Eagerly runs any deferred destructors whose epochs have expired.
    pub fn flush(&self) {
        collect(lock_garbage());
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        // SAFETY: null (the unprotected guard) or a leaked record.
        let Some(local) = (unsafe { self.local.as_ref() }) else {
            return;
        };
        let depth = local.depth.get() - 1;
        local.depth.set(depth);
        if depth != 0 {
            return;
        }
        // Release: everything read under this guard happens-before a free
        // licensed by this store.
        local.epoch.store(UNPINNED, Ordering::Release);
        if !local.has_handle.get() {
            // Before `collect`: a destructor that pins during teardown
            // claims a record of its own and must not release this one.
            local.release();
        }
        if PENDING.load(Ordering::Relaxed) != 0 {
            // A reader never waits for a writer: if the list is busy,
            // whoever holds it (or the next unpin) collects.
            match GARBAGE.try_lock() {
                Ok(bag) => collect(bag),
                Err(TryLockError::Poisoned(e)) => collect(e.into_inner()),
                Err(TryLockError::WouldBlock) => {}
            }
        }
    }
}

/// Types that can be consumed into a raw pointer for atomic storage.
pub trait Pointer<T> {
    /// The raw pointer this handle designates.
    fn as_ptr(&self) -> *const T;
    /// Consumes the handle without dropping the pointee.
    fn into_ptr(self) -> *const T;
}

/// An owned, heap-allocated value destined for an [`Atomic`] slot.
pub struct Owned<T> {
    ptr: *mut T,
}

impl<T> Owned<T> {
    /// Heap-allocates `value`.
    pub fn new(value: T) -> Self {
        Owned {
            ptr: Box::into_raw(Box::new(value)),
        }
    }

    /// Converts into a [`Shared`] tied to `_guard`.
    pub fn into_shared(self, _guard: &Guard) -> Shared<'_, T> {
        Shared {
            ptr: self.into_ptr(),
            _marker: PhantomData,
        }
    }
}

impl<T> Pointer<T> for Owned<T> {
    fn as_ptr(&self) -> *const T {
        self.ptr
    }

    fn into_ptr(self) -> *const T {
        let p = self.ptr;
        std::mem::forget(self);
        p
    }
}

impl<T> Drop for Owned<T> {
    fn drop(&mut self) {
        // SAFETY: an un-consumed Owned still uniquely owns its allocation.
        unsafe { drop(Box::from_raw(self.ptr)) };
    }
}

impl<T> std::ops::Deref for Owned<T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: `ptr` is a live unique allocation until consumed/dropped.
        unsafe { &*self.ptr }
    }
}

/// A shared pointer loaded from an [`Atomic`], valid while its guard pins
/// the epoch.
pub struct Shared<'g, T> {
    ptr: *const T,
    _marker: PhantomData<&'g T>,
}

impl<T> Clone for Shared<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Shared<'_, T> {}

impl<'g, T> Shared<'g, T> {
    /// The null shared pointer.
    pub fn null() -> Self {
        Shared {
            ptr: ptr::null(),
            _marker: PhantomData,
        }
    }

    /// The raw pointer value.
    pub fn as_raw(&self) -> *const T {
        self.ptr
    }

    /// Whether this is the null pointer.
    pub fn is_null(&self) -> bool {
        self.ptr.is_null()
    }

    /// Dereferences the pointer.
    ///
    /// # Safety
    ///
    /// The pointer must be non-null and the pointee alive for `'g` (i.e.
    /// protected by the guard this was loaded under).
    pub unsafe fn deref(&self) -> &'g T {
        &*self.ptr
    }

    /// Reclaims unique ownership of the allocation.
    ///
    /// # Safety
    ///
    /// The caller must be the sole owner; no other thread may reach the
    /// pointer anymore.
    pub unsafe fn into_owned(self) -> Owned<T> {
        Owned {
            ptr: self.ptr as *mut T,
        }
    }
}

impl<T> From<*const T> for Shared<'_, T> {
    fn from(ptr: *const T) -> Self {
        Shared {
            ptr,
            _marker: PhantomData,
        }
    }
}

impl<T> Pointer<T> for Shared<'_, T> {
    fn as_ptr(&self) -> *const T {
        self.ptr
    }

    fn into_ptr(self) -> *const T {
        self.ptr
    }
}

/// Error returned by a failed [`Atomic::compare_exchange`].
pub struct CompareExchangeError<'g, T, P: Pointer<T>> {
    /// The value actually stored in the atomic.
    pub current: Shared<'g, T>,
    /// The proposed new value, handed back to the caller.
    pub new: P,
}

/// An atomic pointer slot holding epoch-managed values.
pub struct Atomic<T> {
    ptr: AtomicPtr<T>,
}

// SAFETY: the slot hands out references across threads; same bounds as a
// `std::sync` container of T.
unsafe impl<T: Send + Sync> Send for Atomic<T> {}
// SAFETY: see above.
unsafe impl<T: Send + Sync> Sync for Atomic<T> {}

impl<T> Atomic<T> {
    /// Allocates `value` and stores its pointer.
    pub fn new(value: T) -> Self {
        Atomic {
            ptr: AtomicPtr::new(Box::into_raw(Box::new(value))),
        }
    }

    /// An atomic slot holding the null pointer.
    pub fn null() -> Self {
        Atomic {
            ptr: AtomicPtr::new(ptr::null_mut()),
        }
    }

    /// Loads the current pointer under `_guard`'s protection.
    pub fn load<'g>(&self, ord: Ordering, _guard: &'g Guard) -> Shared<'g, T> {
        Shared {
            ptr: self.ptr.load(ord),
            _marker: PhantomData,
        }
    }

    /// Atomically replaces the pointer, returning the previous one.
    pub fn swap<'g, P: Pointer<T>>(
        &self,
        new: P,
        ord: Ordering,
        _guard: &'g Guard,
    ) -> Shared<'g, T> {
        let prev = self.ptr.swap(new.into_ptr() as *mut T, ord);
        Shared {
            ptr: prev,
            _marker: PhantomData,
        }
    }

    /// Compare-and-exchange; on success returns the *new* pointer, on
    /// failure hands `new` back in the error.
    ///
    /// # Errors
    ///
    /// Returns [`CompareExchangeError`] with the observed pointer when the
    /// slot did not contain `current`.
    pub fn compare_exchange<'g, P: Pointer<T>>(
        &self,
        current: Shared<'_, T>,
        new: P,
        success: Ordering,
        failure: Ordering,
        _guard: &'g Guard,
    ) -> Result<Shared<'g, T>, CompareExchangeError<'g, T, P>> {
        let new_ptr = new.as_ptr() as *mut T;
        match self
            .ptr
            .compare_exchange(current.as_raw() as *mut T, new_ptr, success, failure)
        {
            Ok(_) => {
                let _ = new.into_ptr();
                Ok(Shared {
                    ptr: new_ptr,
                    _marker: PhantomData,
                })
            }
            Err(observed) => Err(CompareExchangeError {
                current: Shared {
                    ptr: observed,
                    _marker: PhantomData,
                },
                new,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Tests here share the process-wide engine, and the harness runs them
    /// on parallel threads. `registry_is_bounded_by_live_threads` needs
    /// the registry to itself, so every test holds this lock.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    struct Counted(Arc<AtomicUsize>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Flushes until `drops` reaches `want`: a thread of an earlier test may
    /// still be pinned while it exits, which delays reclamation but never
    /// loses it.
    fn quiesce(drops: &AtomicUsize, want: usize) {
        for _ in 0..10_000 {
            pin().flush();
            if drops.load(Ordering::SeqCst) >= want {
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(drops.load(Ordering::SeqCst), want);
    }

    /// `(records, records claimed by a thread)`.
    fn registry() -> (usize, usize) {
        let (mut len, mut claimed) = (0, 0);
        let mut cur = REGISTRY.load(Ordering::Acquire);
        // SAFETY: records are leaked.
        while let Some(p) = unsafe { cur.as_ref() } {
            len += 1;
            claimed += usize::from(p.in_use.load(Ordering::Acquire));
            cur = p.next.cast_mut();
        }
        (len, claimed)
    }

    #[test]
    fn deferred_destruction_waits_for_pins() {
        let _serial = serial();
        let drops = Arc::new(AtomicUsize::new(0));
        let slot = Atomic::new(Counted(Arc::clone(&drops)));
        let reader = pin();
        let old = slot.load(Ordering::Acquire, &reader);
        let writer = pin();
        let prev = slot.swap(
            Owned::new(Counted(Arc::clone(&drops))),
            Ordering::AcqRel,
            &writer,
        );
        unsafe { writer.defer_destroy(prev) };
        drop(writer);
        // The reader's pin predates the deferral: nothing freed, however
        // often anyone flushes.
        for _ in 0..16 {
            pin().flush();
        }
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        let _ = unsafe { old.deref() };
        drop(reader);
        quiesce(&drops, 1);
        // Cleanup of the current value.
        let g = pin();
        let cur = slot.swap(Shared::null(), Ordering::AcqRel, &g);
        unsafe { g.defer_destroy(cur) };
        drop(g);
        quiesce(&drops, 2);
    }

    #[test]
    fn nested_pin_keeps_the_outer_pin() {
        let _serial = serial();
        let drops = Arc::new(AtomicUsize::new(0));
        let slot = Atomic::new(Counted(Arc::clone(&drops)));
        let outer = pin();
        let old = slot.load(Ordering::Acquire, &outer);
        {
            let inner = pin();
            let prev = slot.swap(
                Owned::new(Counted(Arc::clone(&drops))),
                Ordering::AcqRel,
                &inner,
            );
            unsafe { inner.defer_destroy(prev) };
            // Dropping the inner guard must not unpin the thread.
        }
        for _ in 0..16 {
            pin().flush();
        }
        assert_eq!(drops.load(Ordering::SeqCst), 0, "outer guard still pins");
        let _ = unsafe { old.deref() };
        drop(outer);
        quiesce(&drops, 1);
        let g = pin();
        let cur = slot.swap(Shared::null(), Ordering::AcqRel, &g);
        unsafe { g.defer_destroy(cur) };
        drop(g);
        quiesce(&drops, 2);
    }

    #[test]
    fn destructor_may_pin_and_defer() {
        let _serial = serial();
        struct Chain(Arc<AtomicUsize>, Option<Box<Counted>>);
        impl Drop for Chain {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
                if let Some(next) = self.1.take() {
                    let g = pin();
                    let owned = Owned::new(*next);
                    // SAFETY: `owned` was never shared.
                    unsafe { g.defer_destroy(owned.into_shared(&g)) };
                }
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let g = pin();
        let chain = Owned::new(Chain(
            Arc::clone(&drops),
            Some(Box::new(Counted(Arc::clone(&drops)))),
        ));
        // SAFETY: `chain` was never shared.
        unsafe { g.defer_destroy(chain.into_shared(&g)) };
        drop(g);
        quiesce(&drops, 2);
    }

    #[test]
    fn registry_is_bounded_by_live_threads() {
        let _serial = serial();
        drop(pin());
        let before = registry().0;
        for _ in 0..1_000 {
            std::thread::spawn(|| drop(pin()))
                .join()
                .expect("pinning thread");
        }
        // One spawned thread is alive at a time, so it needs at most one
        // record beyond those of threads alive when the loop began, and
        // every later thread recycles it.
        let after = registry().0;
        assert!(
            after <= before + 1,
            "1000 short-lived threads grew the registry from {before} to {after}"
        );
    }

    #[test]
    fn guard_dropped_during_thread_local_teardown() {
        let _serial = serial();
        struct Late(Cell<Option<Guard>>);
        impl Drop for Late {
            fn drop(&mut self) {
                // Runs while the thread's locals are destroyed: the guard
                // taken in the thread body goes first, then a fresh pin,
                // whichever side of `HANDLE`'s own destruction this is.
                drop(self.0.take());
                let g = pin();
                g.flush();
                drop(pin());
            }
        }
        thread_local! {
            static EARLY: Late = const { Late(Cell::new(None)) };
            static LATE: Late = const { Late(Cell::new(None)) };
        }
        drop(pin());
        let claimed_before = registry().1;
        for _ in 0..8 {
            std::thread::spawn(|| {
                // Registered before `HANDLE` exists and after it: one of
                // the two outlives it, whatever order the platform uses.
                EARLY.with(|l| l.0.set(None));
                let first = pin();
                LATE.with(|l| l.0.set(Some(pin())));
                EARLY.with(|l| l.0.set(Some(first)));
            })
            .join()
            .expect("teardown must not panic");
        }
        // Every record claimed during teardown was given back.
        assert!(registry().1 <= claimed_before);
    }

    #[test]
    fn compare_exchange_success_returns_new() {
        let _serial = serial();
        let g = pin();
        let slot = Atomic::new(1u32);
        let cur = slot.load(Ordering::Acquire, &g);
        let got = slot
            .compare_exchange(cur, Owned::new(2), Ordering::AcqRel, Ordering::Acquire, &g)
            .unwrap_or_else(|_| panic!("cas must succeed"));
        assert_eq!(unsafe { *got.deref() }, 2);
        // Failed CAS hands the Owned back (and drops it, not leaking).
        let stale = cur;
        assert!(slot
            .compare_exchange(
                stale,
                Owned::new(3),
                Ordering::AcqRel,
                Ordering::Acquire,
                &g
            )
            .is_err());
        unsafe {
            g.defer_destroy(cur);
            let now = slot.swap(Shared::null(), Ordering::AcqRel, &g);
            g.defer_destroy(now);
        }
        drop(g);
        pin().flush();
    }
}
