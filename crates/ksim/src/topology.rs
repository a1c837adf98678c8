//! Virtual machine topology: sockets, cores and the CPU⇄socket mapping.

use std::fmt;

/// Identifier of a virtual CPU (hardware thread) in the simulated machine.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CpuId(pub u32);

/// Identifier of a socket (NUMA node) in the simulated machine.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SocketId(pub u32);

impl From<u32> for CpuId {
    fn from(v: u32) -> Self {
        CpuId(v)
    }
}

impl From<usize> for CpuId {
    fn from(v: usize) -> Self {
        CpuId(v as u32)
    }
}

impl From<u32> for SocketId {
    fn from(v: u32) -> Self {
        SocketId(v)
    }
}

impl fmt::Display for CpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

impl fmt::Display for SocketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Shape of the simulated machine.
///
/// CPUs are numbered contiguously; CPU `c` belongs to socket
/// `c / cores_per_socket`, matching the block-wise enumeration Linux uses on
/// most multi-socket x86 machines.
///
/// # Examples
///
/// ```
/// use ksim::{CpuId, Topology};
///
/// // The paper's evaluation machine: 8 sockets, 80 cores.
/// let topo = Topology::paper_machine();
/// assert_eq!(topo.num_cpus(), 80);
/// assert_eq!(topo.socket_of(CpuId(0)).0, 0);
/// assert_eq!(topo.socket_of(CpuId(79)).0, 7);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Topology {
    sockets: u32,
    cores_per_socket: u32,
}

impl Topology {
    /// Creates a topology with the given socket count and cores per socket.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero, or past 64 sockets (the cache
    /// model keeps one bit per socket in a `u64`).
    pub fn new(sockets: u32, cores_per_socket: u32) -> Self {
        assert!(sockets > 0, "topology needs at least one socket");
        assert!(sockets <= 64, "cache model uses a 64-bit socket mask");
        assert!(cores_per_socket > 0, "topology needs at least one core");
        Topology {
            sockets,
            cores_per_socket,
        }
    }

    /// The 8-socket, 80-core machine used in the paper's evaluation (§5).
    pub fn paper_machine() -> Self {
        Topology::new(8, 10)
    }

    /// A small topology convenient for unit tests.
    pub fn small() -> Self {
        Topology::new(2, 4)
    }

    /// Total number of CPUs.
    pub fn num_cpus(&self) -> u32 {
        self.sockets * self.cores_per_socket
    }

    /// Number of sockets (NUMA nodes).
    #[cfg(test)]
    pub fn num_sockets(&self) -> u32 {
        self.sockets
    }

    /// Number of cores on each socket.
    pub fn cores_per_socket(&self) -> u32 {
        self.cores_per_socket
    }

    /// Socket that owns the given CPU.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is outside the topology.
    pub fn socket_of(&self, cpu: CpuId) -> SocketId {
        assert!(
            cpu.0 < self.num_cpus(),
            "{cpu} outside topology of {} cpus",
            self.num_cpus()
        );
        SocketId(cpu.0 / self.cores_per_socket)
    }

    /// CPUs belonging to a socket, in ascending order.
    pub fn cpus_of(&self, socket: SocketId) -> impl Iterator<Item = CpuId> {
        assert!(socket.0 < self.sockets, "{socket} outside topology");
        let base = socket.0 * self.cores_per_socket;
        (base..base + self.cores_per_socket).map(CpuId)
    }

    /// All CPUs in ascending order.
    pub fn all_cpus(&self) -> impl Iterator<Item = CpuId> {
        (0..self.num_cpus()).map(CpuId)
    }

    /// Spreads `n` tasks over CPUs socket-by-socket ("compact" placement):
    /// fills socket 0 first, then socket 1, and so on.
    ///
    /// This mirrors how will-it-scale pins threads and is the placement used
    /// by the figure benchmarks.
    pub fn compact_placement(&self, n: usize) -> Vec<CpuId> {
        (0..n)
            .map(|i| CpuId((i as u32) % self.num_cpus()))
            .collect()
    }

    /// Spreads `n` tasks round-robin across sockets ("scatter" placement):
    /// task `i` goes to socket `i % sockets`, next free core there.
    pub fn scatter_placement(&self, n: usize) -> Vec<CpuId> {
        let mut next_core = vec![0u32; self.sockets as usize];
        (0..n)
            .map(|i| {
                let s = (i as u32) % self.sockets;
                let core = next_core[s as usize] % self.cores_per_socket;
                next_core[s as usize] += 1;
                CpuId(s * self.cores_per_socket + core)
            })
            .collect()
    }
}

impl Default for Topology {
    fn default() -> Self {
        Topology::paper_machine()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_machine_dimensions() {
        let t = Topology::paper_machine();
        assert_eq!(t.num_cpus(), 80);
        assert_eq!(t.num_sockets(), 8);
        assert_eq!(t.cores_per_socket(), 10);
    }

    #[test]
    fn socket_mapping_is_blockwise() {
        let t = Topology::new(4, 3);
        let sockets: Vec<u32> = t.all_cpus().map(|c| t.socket_of(c).0).collect();
        assert_eq!(sockets, vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]);
    }

    #[test]
    fn cpus_of_socket_roundtrip() {
        let t = Topology::new(3, 5);
        for s in 0..3 {
            for cpu in t.cpus_of(SocketId(s)) {
                assert_eq!(t.socket_of(cpu), SocketId(s));
            }
        }
    }

    #[test]
    fn compact_placement_fills_sockets_in_order() {
        let t = Topology::new(2, 2);
        let p = t.compact_placement(6);
        assert_eq!(
            p,
            vec![CpuId(0), CpuId(1), CpuId(2), CpuId(3), CpuId(0), CpuId(1)]
        );
    }

    #[test]
    fn scatter_placement_alternates_sockets() {
        let t = Topology::new(2, 2);
        let p = t.scatter_placement(4);
        let s: Vec<u32> = p.iter().map(|c| t.socket_of(*c).0).collect();
        assert_eq!(s, vec![0, 1, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "outside topology")]
    fn socket_of_out_of_range_panics() {
        Topology::small().socket_of(CpuId(99));
    }
}
