//! Queue-node arena for simulated queue locks.
//!
//! Nodes are indexed (index 0 is the null sentinel) and recycled through a
//! free list. Each node's `next` and `status` words live on their own
//! simulated cache lines, so spinning on one's own node is local while
//! linking a successor transfers exactly one line — the property that makes
//! queue locks scale.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use ksim::{Sim, SimWord, TaskCtx};
use locks::hooks::NodeView;

/// Node status: still waiting.
pub const WAITING: u64 = 0;
/// Node status: granted queue headship.
pub const GRANTED: u64 = 1;

/// One queue node.
pub struct QNode {
    /// Index of the successor node (0 = none).
    pub next: SimWord,
    /// Wait/grant word the owner spins on.
    pub status: SimWord,
    /// Waiter metadata exposed to policies.
    pub view: Cell<NodeView>,
}

/// Arena of recyclable queue nodes for one lock.
pub struct NodeArena {
    sim: Sim,
    nodes: RefCell<Vec<Rc<QNode>>>,
    free: RefCell<Vec<u32>>,
}

fn empty_view() -> NodeView {
    NodeView {
        tid: 0,
        cpu: 0,
        socket: 0,
        prio: 0,
        cs_hint: 0,
        held_locks: 0,
        wait_start_ns: 0,
    }
}

impl NodeArena {
    /// Creates an arena bound to `sim`; slot 0 is reserved as null.
    pub fn new(sim: &Sim) -> Self {
        let sentinel = Rc::new(QNode {
            next: SimWord::new(sim, 0),
            status: SimWord::new(sim, 0),
            view: Cell::new(empty_view()),
        });
        NodeArena {
            sim: sim.clone(),
            nodes: RefCell::new(vec![sentinel]),
            free: RefCell::new(Vec::new()),
        }
    }

    /// Allocates (or recycles) a node initialized for `t`; returns its
    /// index.
    pub fn alloc(&self, t: &TaskCtx) -> u32 {
        let idx = match self.free.borrow_mut().pop() {
            Some(i) => i,
            None => {
                let mut nodes = self.nodes.borrow_mut();
                nodes.push(Rc::new(QNode {
                    next: SimWord::new(&self.sim, 0),
                    status: SimWord::new(&self.sim, 0),
                    view: Cell::new(empty_view()),
                }));
                (nodes.len() - 1) as u32
            }
        };
        let node = self.get(idx);
        // Initialization is uncharged (node setup is off the coherence
        // critical path and cheap relative to the transfers we model).
        node.next.poke(0);
        node.status.poke(WAITING);
        node.view.set(NodeView {
            tid: u64::from(t.id().0) + 1,
            cpu: t.cpu().0,
            socket: t.socket().0,
            prio: 0,
            cs_hint: 0,
            held_locks: 0,
            wait_start_ns: t.now(),
        });
        idx
    }

    /// Returns a node by index.
    ///
    /// # Panics
    ///
    /// Panics on index 0 (null) or an out-of-range index.
    pub fn get(&self, idx: u32) -> Rc<QNode> {
        assert_ne!(idx, 0, "dereference of null node index");
        Rc::clone(&self.nodes.borrow()[idx as usize])
    }

    /// Recycles a node.
    pub fn release(&self, idx: u32) {
        debug_assert_ne!(idx, 0);
        self.free.borrow_mut().push(idx);
    }

    /// Live (allocated, not free) node count — for leak assertions.
    pub fn live(&self) -> usize {
        self.nodes.borrow().len() - 1 - self.free.borrow().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksim::{CpuId, SimBuilder};

    #[test]
    fn alloc_recycle_roundtrip() {
        let sim = SimBuilder::new().build();
        let arena = Rc::new(NodeArena::new(&sim));
        let a2 = Rc::clone(&arena);
        sim.spawn_on(CpuId(3), move |t| async move {
            let i = a2.alloc(&t);
            assert_ne!(i, 0);
            assert_eq!(a2.live(), 1);
            let n = a2.get(i);
            assert_eq!(n.view.get().cpu, 3);
            assert_eq!(n.status.peek(), WAITING);
            a2.release(i);
            assert_eq!(a2.live(), 0);
            let j = a2.alloc(&t);
            assert_eq!(i, j, "free list should recycle");
            a2.release(j);
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "null node")]
    fn null_deref_panics() {
        let sim = SimBuilder::new().build();
        let arena = NodeArena::new(&sim);
        arena.get(0);
    }
}
