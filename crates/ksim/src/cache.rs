//! Socket-granular cache-coherence cost model.
//!
//! Every shared simulation object ([`crate::SimWord`], [`crate::SimCell`])
//! lives on a cache line. The model tracks, per line, which sockets currently
//! hold the line and in which mode, and prices each access accordingly:
//! local hits are cheap, pulling a line from another core on the same socket
//! costs more, and pulling it across the interconnect costs the most. This is
//! the mechanism that makes queue-based and NUMA-aware locks win in the
//! simulation for the same reason they win on real hardware: they reduce the
//! number of cross-socket line transfers per handoff.
//!
//! The model is deliberately socket-granular rather than a full per-core
//! MESI simulator; every lock studied by the paper is at most socket-aware,
//! so socket-level residency captures the first-order effect (see
//! `DESIGN.md` §7).

use crate::topology::SocketId;
use crate::TaskId;

/// Identifier of a simulated cache line.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LineId(pub u32);

/// Latency constants, in nanoseconds of virtual time.
///
/// Defaults are calibrated to a large multi-socket x86 server: they are not
/// meant to match any specific part, only to preserve the *ordering*
/// `hit ≪ same-socket ≪ cross-socket` that drives lock scalability.
#[derive(Clone, Copy, Debug)]
pub struct LatencyModel {
    /// Load that hits in a cache of the requesting socket.
    pub load_hit: u64,
    /// Store/RMW on a line already held exclusively by the requesting socket.
    pub store_hit: u64,
    /// Transfer from another core on the same socket.
    pub same_socket: u64,
    /// Transfer across the socket interconnect.
    pub cross_socket: u64,
    /// Fill from memory (line not cached anywhere).
    pub memory: u64,
    /// Extra cost of a locked read-modify-write over a plain access.
    pub rmw_extra: u64,
    /// Scheduler latency from `unpark` to the woken task running.
    pub wake_latency: u64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            load_hit: 4,
            store_hit: 6,
            same_socket: 40,
            cross_socket: 220,
            memory: 120,
            rmw_extra: 12,
            wake_latency: 4_000,
        }
    }
}

/// Coherence state of one line, at socket granularity.
#[derive(Clone, Debug, PartialEq, Eq)]
enum LineState {
    /// Not cached anywhere (fresh, or post-eviction — we never evict).
    Invalid,
    /// Cached read-only by the sockets in the bitmask.
    Shared(u64),
    /// Held exclusively (dirty) by one socket.
    Exclusive(SocketId),
}

struct Line {
    state: LineState,
    /// Tasks to be re-scheduled when the line is written (futex analog).
    watchers: Vec<TaskId>,
}

/// Tracks residency of every simulated line and prices accesses.
pub(crate) struct CacheModel {
    lines: Vec<Line>,
    lat: LatencyModel,
    loads: u64,
    stores: u64,
    transfers: u64,
}

impl CacheModel {
    pub(crate) fn new(lat: LatencyModel) -> Self {
        CacheModel {
            lines: Vec::new(),
            lat,
            loads: 0,
            stores: 0,
            transfers: 0,
        }
    }

    pub(crate) fn alloc_line(&mut self) -> LineId {
        let id = LineId(self.lines.len() as u32);
        self.lines.push(Line {
            state: LineState::Invalid,
            watchers: Vec::new(),
        });
        id
    }

    /// Prices a load from `socket` and updates residency.
    pub(crate) fn load_cost(&mut self, line: LineId, socket: SocketId) -> u64 {
        self.loads += 1;
        let lat = self.lat;
        let l = &mut self.lines[line.0 as usize];
        let bit = 1u64 << socket.0;
        match l.state {
            LineState::Invalid => {
                l.state = LineState::Shared(bit);
                self.transfers += 1;
                lat.memory
            }
            LineState::Shared(mask) => {
                if mask & bit != 0 {
                    lat.load_hit
                } else {
                    l.state = LineState::Shared(mask | bit);
                    self.transfers += 1;
                    // Pull from the nearest sharer: same socket is impossible
                    // here (we are not in the mask), so it is a remote pull
                    // unless another core of our socket shares it, which the
                    // socket-granular mask already covers.
                    lat.cross_socket
                }
            }
            LineState::Exclusive(owner) => {
                if owner == socket {
                    lat.load_hit
                } else {
                    l.state = LineState::Shared(bit | (1u64 << owner.0));
                    self.transfers += 1;
                    lat.cross_socket
                }
            }
        }
    }

    /// Prices a store (or the write half of an RMW) from `socket` and
    /// updates residency to exclusive. Watchers are *not* taken here: the
    /// caller wakes them at operation completion via
    /// [`CacheModel::swap_watchers`], so a task that registers during the
    /// operation's latency window is still woken.
    pub(crate) fn store_cost(&mut self, line: LineId, socket: SocketId) -> u64 {
        self.stores += 1;
        let lat = self.lat;
        let l = &mut self.lines[line.0 as usize];
        let bit = 1u64 << socket.0;
        let cost = match l.state {
            LineState::Invalid => {
                self.transfers += 1;
                lat.memory
            }
            LineState::Shared(mask) => {
                self.transfers += 1;
                if mask == bit {
                    // Only we hold it: upgrade, cheap.
                    lat.store_hit + lat.same_socket / 4
                } else if mask & !bit != 0 && (mask & !bit).count_ones() > 0 {
                    // Invalidate other sockets.
                    lat.cross_socket
                } else {
                    lat.same_socket
                }
            }
            LineState::Exclusive(owner) => {
                if owner == socket {
                    lat.store_hit
                } else {
                    self.transfers += 1;
                    lat.cross_socket
                }
            }
        };
        l.state = LineState::Exclusive(socket);
        cost
    }

    /// Moves the watchers of `line` into `buf` (wake at store/RMW
    /// completion) by buffer swap, leaving the line with `buf`'s empty,
    /// capacity-retaining allocation. Steady-state wake cycles therefore
    /// allocate nothing: buffers circulate between the lines and the
    /// executor's scratch vector instead of being freed and regrown.
    pub(crate) fn swap_watchers(&mut self, line: LineId, buf: &mut Vec<TaskId>) {
        debug_assert!(buf.is_empty());
        std::mem::swap(&mut self.lines[line.0 as usize].watchers, buf);
    }

    /// Registers `task` to be woken when `line` is next written.
    pub(crate) fn watch(&mut self, line: LineId, task: TaskId) {
        let l = &mut self.lines[line.0 as usize];
        if !l.watchers.contains(&task) {
            l.watchers.push(task);
        }
    }

    /// Removes `task` from the watcher list of `line`, if present.
    pub(crate) fn unwatch(&mut self, line: LineId, task: TaskId) {
        let l = &mut self.lines[line.0 as usize];
        l.watchers.retain(|t| *t != task);
    }

    pub(crate) fn counters(&self) -> (u64, u64, u64) {
        (self.loads, self.stores, self.transfers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CacheModel {
        CacheModel::new(LatencyModel::default())
    }

    fn take_watchers(m: &mut CacheModel, l: LineId) -> Vec<TaskId> {
        let mut buf = Vec::new();
        m.swap_watchers(l, &mut buf);
        buf
    }

    #[test]
    fn first_load_is_memory_fill() {
        let mut m = model();
        let l = m.alloc_line();
        assert_eq!(m.load_cost(l, SocketId(0)), LatencyModel::default().memory);
    }

    #[test]
    fn repeated_local_load_hits() {
        let mut m = model();
        let l = m.alloc_line();
        m.load_cost(l, SocketId(0));
        assert_eq!(
            m.load_cost(l, SocketId(0)),
            LatencyModel::default().load_hit
        );
    }

    #[test]
    fn remote_load_pays_cross_socket() {
        let mut m = model();
        let l = m.alloc_line();
        m.load_cost(l, SocketId(0));
        assert_eq!(
            m.load_cost(l, SocketId(1)),
            LatencyModel::default().cross_socket
        );
        // Both now share it; both hit.
        assert_eq!(
            m.load_cost(l, SocketId(0)),
            LatencyModel::default().load_hit
        );
        assert_eq!(
            m.load_cost(l, SocketId(1)),
            LatencyModel::default().load_hit
        );
    }

    #[test]
    fn store_after_remote_share_invalidates() {
        let mut m = model();
        let l = m.alloc_line();
        m.load_cost(l, SocketId(0));
        m.load_cost(l, SocketId(1));
        let cost = m.store_cost(l, SocketId(0));
        assert_eq!(cost, LatencyModel::default().cross_socket);
        // Socket 1 must re-fetch.
        assert_eq!(
            m.load_cost(l, SocketId(1)),
            LatencyModel::default().cross_socket
        );
    }

    #[test]
    fn exclusive_store_hit_is_cheap() {
        let mut m = model();
        let l = m.alloc_line();
        m.store_cost(l, SocketId(2));
        let cost = m.store_cost(l, SocketId(2));
        assert_eq!(cost, LatencyModel::default().store_hit);
    }

    #[test]
    fn ping_pong_stores_pay_every_time() {
        let mut m = model();
        let l = m.alloc_line();
        m.store_cost(l, SocketId(0));
        for _ in 0..4 {
            let c1 = m.store_cost(l, SocketId(1));
            let c0 = m.store_cost(l, SocketId(0));
            assert_eq!(c1, LatencyModel::default().cross_socket);
            assert_eq!(c0, LatencyModel::default().cross_socket);
        }
    }

    #[test]
    fn take_watchers_drains_once() {
        let mut m = model();
        let l = m.alloc_line();
        m.watch(l, TaskId(7));
        m.watch(l, TaskId(9));
        m.watch(l, TaskId(7)); // Duplicate registration is a no-op.
        assert_eq!(take_watchers(&mut m, l), vec![TaskId(7), TaskId(9)]);
        assert!(take_watchers(&mut m, l).is_empty());
    }

    #[test]
    fn unwatch_removes_watcher() {
        let mut m = model();
        let l = m.alloc_line();
        m.watch(l, TaskId(1));
        m.unwatch(l, TaskId(1));
        assert!(take_watchers(&mut m, l).is_empty());
    }

    #[test]
    fn swapped_out_buffer_capacity_returns_to_the_line() {
        let mut m = model();
        let l = m.alloc_line();
        m.watch(l, TaskId(1));
        m.watch(l, TaskId(2));
        let mut buf = Vec::new();
        m.swap_watchers(l, &mut buf);
        assert_eq!(buf, vec![TaskId(1), TaskId(2)]);
        let cap = buf.capacity();
        buf.clear();
        // Give the drained buffer back: the line now owns its capacity.
        m.swap_watchers(l, &mut buf);
        assert!(buf.is_empty());
        m.watch(l, TaskId(3));
        m.watch(l, TaskId(4));
        let mut buf2 = Vec::new();
        m.swap_watchers(l, &mut buf2);
        assert_eq!(buf2, vec![TaskId(3), TaskId(4)]);
        assert!(buf2.capacity() >= cap);
    }
}
