//! A bulk publish builds the new binding table and little else.
//!
//! Binding a whole fleet in one publish (a bring-up, or every
//! `fleet_churn` epoch) routes each delta entry to its chunk. That routing
//! may hold at most 4 bytes per delta entry beside the table it builds,
//! plus scratch bounded by the spine width: no transient copy of the delta
//! and no sort buffer of its size. A counting global allocator measures
//! the peak of live heap bytes on the publishing thread during the
//! publish; what is still live afterwards is the table the new head keeps,
//! and everything above that at the peak was transient.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use concord::fleet::{Delta, PolicyStore};

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

fn grow(bytes: usize) {
    // The allocator outlives every thread-local; a late call is not counted.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn shrink(bytes: usize) {
    // Memory freed here may have been allocated on another thread.
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(bytes)));
}

// SAFETY: defers to `System` for every operation; the counters are plain
// thread-local cells that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Both blocks may be live while the contents move.
        grow(new_size);
        shrink(layout.size());
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const TENANTS: u64 = 100_000;
/// The store's spine width (`CHUNKS` in `concord::fleet::store`).
const SPINE: u64 = 1_024;
/// Routing scratch allowed per delta entry.
const BYTES_PER_ENTRY: u64 = 4;
/// Scratch allowed per spine slot, whatever the delta's size: a list of
/// the touched chunks, a clone of the spine beside the one it replaces.
const BYTES_PER_CHUNK: u64 = 16;

#[test]
fn a_bulk_publish_holds_no_transient_copy_of_its_delta() {
    let artifact = Arc::new(vec![1u8; 64]);
    // First touch of the store's metrics, outside the measured publish.
    PolicyStore::new(1)
        .publish(&Delta::bind_all(&[0], 1, Arc::clone(&artifact)))
        .expect("warm-up publish");

    let store = PolicyStore::new(TENANTS as usize);
    let all: Vec<u64> = (0..TENANTS).collect();
    let delta = Delta::bind_all(&all, 1, artifact);

    let base = LIVE.get();
    PEAK.set(base);
    let v = store.publish(&delta).expect("bulk publish");
    let table = (LIVE.get() - base) as u64;
    let transient = (PEAK.get() - base) as u64 - table;

    let bound = BYTES_PER_ENTRY * TENANTS + BYTES_PER_CHUNK * SPINE;
    println!(
        "bulk publish of {TENANTS} tenants: table {table} B, transient peak {transient} B \
         (bound {bound} B)"
    );
    assert!(
        transient <= bound,
        "{transient} B live beside a {table} B table at the peak (bound {bound} B)"
    );

    // The table holds every binding, 16 bytes each at least.
    let head = store.head_snapshot();
    assert_eq!((head.version, head.bindings.len()), (v, TENANTS as usize));
    assert!(table >= 16 * TENANTS, "table of {table} B");
    assert_eq!(store.resolve(TENANTS - 1).map(|(p, _)| p), Some(1));
}
