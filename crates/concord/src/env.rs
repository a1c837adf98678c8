//! Policy execution environments: real machine and simulated machine.

use std::sync::Arc;

use cbpf::helpers::PolicyEnv;
use parking_lot::Mutex;

/// Environment for policies attached to real-thread locks: CPU/NUMA come
/// from the calling thread's declared placement (`locks::topo`), time from
/// the process monotonic clock.
pub struct RealEnv {
    traces: Arc<Mutex<Vec<Vec<u8>>>>,
    priorities: Arc<Mutex<std::collections::HashMap<u64, i64>>>,
    cores_per_socket: u32,
    /// Lock served by the in-flight hook invocation (telemetry labeling;
    /// written by the policy layer only while the trace plane is armed).
    current_lock: std::sync::atomic::AtomicU64,
}

impl RealEnv {
    /// Creates an environment with the paper topology's 10 cores/socket.
    pub fn new() -> Self {
        RealEnv {
            traces: Arc::new(Mutex::new(Vec::new())),
            priorities: Arc::new(Mutex::new(Default::default())),
            cores_per_socket: 10,
            current_lock: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Records which lock the next policy invocation serves, so
    /// policy-emitted trace records carry the lock identity.
    pub fn note_lock(&self, lock_id: u64) {
        self.current_lock
            .store(lock_id, std::sync::atomic::Ordering::Relaxed);
    }

    /// Registers a task priority visible to the `task_priority` helper —
    /// the "annotating a set of tasks" context channel of §3.1.1.
    pub fn set_task_priority(&self, tid: u64, prio: i64) {
        self.priorities.lock().insert(tid, prio);
    }

    /// Drains captured `trace_printk` output.
    pub fn take_traces(&self) -> Vec<Vec<u8>> {
        std::mem::take(&mut self.traces.lock())
    }
}

impl Default for RealEnv {
    fn default() -> Self {
        RealEnv::new()
    }
}

impl PolicyEnv for RealEnv {
    fn cpu_id(&self) -> u32 {
        locks::topo::current_cpu()
    }

    fn numa_id(&self) -> u32 {
        locks::topo::current_socket()
    }

    fn ktime_ns(&self) -> u64 {
        locks::now_ns()
    }

    fn pid(&self) -> u64 {
        locks::topo::current_tid()
    }

    fn prandom(&self) -> u64 {
        // Cheap thread-local xorshift; policies use this for probabilistic
        // fairness decisions, not cryptography.
        use std::cell::Cell;
        thread_local! {
            static STATE: Cell<u64> = const { Cell::new(0x9E37_79B9_7F4A_7C15) };
        }
        STATE.with(|s| {
            let mut x = s.get() ^ locks::topo::current_tid();
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            s.set(x);
            x
        })
    }

    fn task_priority(&self, tid: u64) -> i64 {
        self.priorities.lock().get(&tid).copied().unwrap_or(0)
    }

    fn cpu_to_node(&self, cpu: u32) -> u32 {
        cpu / self.cores_per_socket
    }

    fn trace(&self, bytes: &[u8]) {
        self.traces.lock().push(bytes.to_vec());
    }

    fn trace_emit(&self, payload: &[u8]) {
        telemetry::emit_payload(
            telemetry::EventKind::PolicyEmit,
            locks::now_ns(),
            locks::topo::current_cpu() as u16,
            self.current_lock.load(std::sync::atomic::Ordering::Relaxed),
            locks::topo::current_tid(),
            0,
            0,
            payload,
        );
    }
}

/// Environment for one hook invocation inside the simulator: the invoking
/// (virtual) CPU and the virtual clock are captured by the caller, the
/// long-lived state is borrowed from the policy set that fires the hook.
pub struct SimHookEnv<'a> {
    /// Invoking virtual CPU.
    pub cpu: u32,
    /// Its socket.
    pub socket: u32,
    /// Virtual time of the invocation.
    pub now_ns: u64,
    /// Invoking task id.
    pub pid: u64,
    /// Lock served by this invocation (telemetry labeling).
    pub lock_id: u64,
    /// Cores per socket (topology query).
    pub cores_per_socket: u32,
    /// Pseudo-random value for this invocation.
    pub random: u64,
    /// Priorities registered through the control plane.
    pub priorities: &'a Mutex<std::collections::HashMap<u64, i64>>,
    /// Simulator handle for scheduler-context queries (`cpu_online`).
    pub sim: Option<&'a ksim::Sim>,
}

impl PolicyEnv for SimHookEnv<'_> {
    fn cpu_id(&self) -> u32 {
        self.cpu
    }

    fn numa_id(&self) -> u32 {
        self.socket
    }

    fn ktime_ns(&self) -> u64 {
        self.now_ns
    }

    fn pid(&self) -> u64 {
        self.pid
    }

    fn prandom(&self) -> u64 {
        self.random
    }

    fn task_priority(&self, tid: u64) -> i64 {
        self.priorities.lock().get(&tid).copied().unwrap_or(0)
    }

    fn cpu_to_node(&self, cpu: u32) -> u32 {
        cpu / self.cores_per_socket
    }

    fn cpu_online(&self, cpu: u32) -> bool {
        match &self.sim {
            Some(sim) if cpu < sim.topology().num_cpus() => sim.cpu_online(ksim::CpuId(cpu)),
            _ => true,
        }
    }

    fn trace_emit(&self, payload: &[u8]) {
        // Virtual-time clock domain: the captured invocation time, so DES
        // traces replay bit-identically for a fixed seed.
        telemetry::emit_payload(
            telemetry::EventKind::PolicyEmit,
            self.now_ns,
            self.cpu as u16,
            self.lock_id,
            self.pid,
            0,
            0,
            payload,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_env_reflects_thread_context() {
        locks::topo::pin_thread(23);
        let env = RealEnv::new();
        assert_eq!(env.cpu_id(), 23);
        assert_eq!(env.numa_id(), 2);
        assert_eq!(env.pid(), locks::topo::current_tid());
        assert_eq!(env.cpu_to_node(79), 7);
        let t1 = env.ktime_ns();
        let t2 = env.ktime_ns();
        assert!(t2 >= t1);
        assert_ne!(env.prandom(), env.prandom());
    }

    #[test]
    fn real_env_priorities_and_traces() {
        let env = RealEnv::new();
        env.set_task_priority(9, -3);
        assert_eq!(env.task_priority(9), -3);
        assert_eq!(env.task_priority(10), 0);
        env.trace(b"x");
        assert_eq!(env.take_traces(), vec![b"x".to_vec()]);
        assert!(env.take_traces().is_empty());
    }

    #[test]
    fn sim_env_returns_captured_values() {
        let env = SimHookEnv {
            cpu: 31,
            socket: 3,
            now_ns: 777,
            pid: 5,
            lock_id: 0,
            cores_per_socket: 10,
            random: 42,
            priorities: &Mutex::new([(5u64, 2i64)].into_iter().collect()),
            sim: None,
        };
        assert_eq!(env.cpu_id(), 31);
        assert_eq!(env.numa_id(), 3);
        assert_eq!(env.ktime_ns(), 777);
        assert_eq!(env.prandom(), 42);
        assert_eq!(env.task_priority(5), 2);
        assert_eq!(env.cpu_to_node(65), 6);
        assert!(env.cpu_online(12), "no sim handle: always online");
    }

    #[test]
    fn sim_env_reports_preempted_cpus() {
        let sim = ksim::SimBuilder::new().build();
        sim.preempt_cpu(ksim::CpuId(7), 10_000);
        let env = SimHookEnv {
            cpu: 0,
            socket: 0,
            now_ns: 0,
            pid: 1,
            lock_id: 0,
            cores_per_socket: 10,
            random: 0,
            priorities: &Mutex::new(Default::default()),
            sim: Some(&sim),
        };
        assert!(!env.cpu_online(7));
        assert!(env.cpu_online(8));
    }
}
