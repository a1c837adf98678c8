//! Policy execution environments: real machine and simulated machine.

use std::cell::Cell;

use cbpf::helpers::PolicyEnv;

thread_local! {
    /// Lock served by this thread's in-flight hook fire: the label of the
    /// `policy_emit` records its program writes. Per thread, because one
    /// environment serves every policy a `Concord` attaches; written by
    /// the dispatcher only while the trace plane is armed.
    static CURRENT_LOCK: Cell<u64> = const { Cell::new(0) };
}

/// Labels this thread's next policy-emitted trace records with `lock_id`.
pub(crate) fn note_lock(lock_id: u64) {
    CURRENT_LOCK.set(lock_id);
}

/// Environment for policies attached to real-thread locks: CPU/NUMA come
/// from the calling thread's declared placement (`locks::topo`), time from
/// the process monotonic clock. `trace_printk` output is dropped and
/// every task reads priority 0 (the [`PolicyEnv`] defaults): a policy's
/// trace output goes to the trace plane (`trace_emit`), and a task's
/// priority reaches decision hooks through the hook context.
pub struct RealEnv {
    cores_per_socket: u32,
}

impl RealEnv {
    /// Creates an environment with the paper topology's 10 cores/socket.
    pub fn new() -> Self {
        RealEnv {
            cores_per_socket: 10,
        }
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
        thread_local! {
            static STATE: Cell<u64> = const { Cell::new(0x9E37_79B9_7F4A_7C15) };
        }
        STATE.with(|s| {
            s.set(s.get() ^ locks::topo::current_tid());
            xorshift(s)
        })
    }

    fn cpu_to_node(&self, cpu: u32) -> u32 {
        cpu / self.cores_per_socket
    }

    fn trace_emit(&self, payload: &[u8]) {
        telemetry::emit_payload(
            telemetry::EventKind::PolicyEmit,
            locks::now_ns(),
            locks::topo::current_cpu() as u16,
            CURRENT_LOCK.get(),
            locks::topo::current_tid(),
            0,
            0,
            payload,
        );
    }
}

/// Environment for one hook invocation inside the simulator: the invoking
/// virtual CPU and task are captured by the caller; the clock, the
/// topology and the scheduler state are the simulator's, and the
/// generator is borrowed from the policy set that fires the hook.
pub struct SimHookEnv<'a> {
    /// Invoking virtual CPU.
    pub cpu: u32,
    /// Invoking task id.
    pub pid: u64,
    /// The policy set's generator; each `prandom` call draws from it.
    pub rng: &'a Cell<u64>,
    /// The simulated machine.
    pub sim: &'a ksim::Sim,
}

impl PolicyEnv for SimHookEnv<'_> {
    fn cpu_id(&self) -> u32 {
        self.cpu
    }

    fn numa_id(&self) -> u32 {
        self.cpu_to_node(self.cpu)
    }

    fn ktime_ns(&self) -> u64 {
        self.sim.now()
    }

    fn pid(&self) -> u64 {
        self.pid
    }

    fn prandom(&self) -> u64 {
        xorshift(self.rng)
    }

    fn cpu_to_node(&self, cpu: u32) -> u32 {
        cpu / self.sim.topology().cores_per_socket()
    }

    fn cpu_online(&self, cpu: u32) -> bool {
        cpu >= self.sim.topology().num_cpus() || self.sim.cpu_online(ksim::CpuId(cpu))
    }

    fn trace_emit(&self, payload: &[u8]) {
        // Virtual-time clock domain: no virtual time passes inside a hook,
        // so DES traces replay bit-identically for a fixed seed.
        telemetry::emit_payload(
            telemetry::EventKind::PolicyEmit,
            self.sim.now(),
            self.cpu as u16,
            CURRENT_LOCK.get(),
            self.pid,
            0,
            0,
            payload,
        );
    }
}

/// One xorshift64 step of `state`.
fn xorshift(state: &Cell<u64>) -> u64 {
    let mut x = state.get();
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    state.set(x);
    x
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
    fn sim_env_returns_captured_values() {
        let sim = ksim::SimBuilder::new().build();
        let rng = Cell::new(42);
        let env = SimHookEnv {
            cpu: 31,
            pid: 5,
            rng: &rng,
            sim: &sim,
        };
        assert_eq!(env.cpu_id(), 31);
        assert_eq!(env.numa_id(), 3);
        assert_eq!(env.ktime_ns(), sim.now());
        assert_eq!(env.pid(), 5);
        let draw = env.prandom();
        assert_eq!(
            rng.get(),
            draw,
            "a draw advances the policy set's generator"
        );
        assert_ne!(env.prandom(), draw, "each call draws afresh");
        assert_eq!(env.task_priority(5), 0, "no priority table under the DES");
        assert_eq!(env.cpu_to_node(65), 6);
    }

    #[test]
    fn sim_env_reports_preempted_cpus() {
        let sim = ksim::SimBuilder::new().build();
        sim.preempt_cpu(ksim::CpuId(7), 10_000);
        let env = SimHookEnv {
            cpu: 0,
            pid: 1,
            rng: &Cell::new(1),
            sim: &sim,
        };
        assert!(!env.cpu_online(7));
        assert!(env.cpu_online(8));
        assert!(
            env.cpu_online(1_000),
            "a CPU the machine lacks reads online"
        );
    }
}
