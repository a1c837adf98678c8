//! Bounded exponential backoff for spin loops.

use std::hint;

/// Exponential backoff with a yield fallback once spinning is pointless —
/// essential on hosts with fewer cores than contending threads.
///
/// # Examples
///
/// ```
/// use locks::Backoff;
///
/// let mut b = Backoff::new();
/// for _ in 0..12 {
///     b.snooze();
/// }
/// ```
#[derive(Debug)]
pub struct Backoff {
    step: u32,
}

const SPIN_LIMIT: u32 = 6;
const YIELD_LIMIT: u32 = 10;

impl Backoff {
    /// Fresh backoff state.
    pub fn new() -> Self {
        Backoff { step: 0 }
    }

    /// Resets to the initial (tightest) spin.
    pub fn reset(&mut self) {
        self.step = 0;
    }

    /// Spins 2^step pause instructions, escalating to `yield_now` after
    /// `SPIN_LIMIT` (6) steps.
    pub fn snooze(&mut self) {
        if self.step <= SPIN_LIMIT {
            for _ in 0..1u32 << self.step {
                hint::spin_loop();
            }
        } else {
            std::thread::yield_now();
        }
        if self.step <= YIELD_LIMIT {
            self.step += 1;
        }
    }

    /// True once the backoff has escalated past pure spinning — the usual
    /// trigger for a blocking lock to park.
    #[cfg(test)]
    pub fn is_completed(&self) -> bool {
        self.step > YIELD_LIMIT
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalates_and_completes() {
        let mut b = Backoff::new();
        assert!(!b.is_completed());
        for _ in 0..=YIELD_LIMIT {
            b.snooze();
        }
        assert!(b.is_completed());
        b.reset();
        assert!(!b.is_completed());
    }
}
