//! `des_explore`: one schedule-exploration campaign — the DES with
//! schedule points live, traces captured, failures shrunk and replayed.

use std::time::Instant;

use concord::{explore, ExploreConfig, ExploreReport, Fixture, StrategySpec, ZooLock};
use ksim::SplitMix64;

use crate::gen;
use crate::trace::Tracer;
use crate::workload::{Metrics, Phase, Workload, ROOT};

/// Schedules a campaign on a planted bug may spend, as `schedule_gate`.
const BROKEN_BUDGET: u32 = 64;
/// Schedules of a campaign on a correct lock: all of them always run.
const ZOO_BUDGET: u32 = 8;

const WARMUP_ROUNDS: u32 = 3;

/// `(strategy name, span the campaign runs under)`.
const STRATEGIES: [(&str, &str); 3] = [
    ("random", "explore.random"),
    ("pct", "explore.pct"),
    ("policy", "explore.policy"),
];

struct Campaign {
    fixture: Fixture,
    spec: StrategySpec,
    span: &'static str,
    budget: u32,
}

/// The 30 campaigns of a round: every strategy on the three planted bugs
/// and on the seven correct zoo locks.
fn campaigns() -> Vec<Campaign> {
    let mut out = Vec::new();
    for (strategy, span) in STRATEGIES {
        let spec = StrategySpec::from_name(strategy).expect("built-in strategy");
        let broken = Fixture::BROKEN.into_iter().map(|f| (f, BROKEN_BUDGET));
        let zoo = ZooLock::ALL
            .into_iter()
            .map(|z| (Fixture::Zoo(z), ZOO_BUDGET));
        for (fixture, budget) in broken.chain(zoo) {
            out.push(Campaign {
                fixture,
                spec: spec.clone(),
                span,
                budget,
            });
        }
    }
    out
}

/// The campaign's verdict: a planted bug must be found within budget and
/// its shrunk repro must replay twice onto the pinned trace hash; a
/// correct lock must stay clean.
fn campaign_ok(c: &Campaign, report: &ExploreReport) -> bool {
    match c.fixture {
        Fixture::Zoo(_) => report.violation.is_none(),
        _ => match &report.repro {
            Some(repro) => (0..2).all(|_| repro.replay().is_ok()),
            None => false,
        },
    }
}

pub struct DesExplore {
    campaigns: Vec<Campaign>,
    seed: u64,
    seeds: SplitMix64,
    ops: u64,
}

impl Workload for DesExplore {
    const NAME: &'static str = "des_explore";
    const MIN_CYCLES: u64 = 1;
    const MINI_CYCLES: u64 = 1;

    fn setup(seed: u64) -> Self {
        let mut w = DesExplore {
            campaigns: campaigns(),
            seed,
            seeds: gen::stream(seed, 4),
            ops: 0,
        };
        // Warm-up: rounds on base seeds of their own.
        for _ in 0..WARMUP_ROUNDS {
            w.cycle(&mut Tracer::off(), &mut Phase::default());
        }
        w.ops = 0;
        w.seeds = gen::stream(seed, 5);
        w
    }

    fn cycle(&mut self, tr: &mut Tracer, phase: &mut Phase) {
        let cfg_seed = self.seeds.next_u64();
        let DesExplore { campaigns, ops, .. } = self;
        let mut round_ns = 0;
        for c in campaigns.iter() {
            let cfg = ExploreConfig {
                schedules: c.budget,
                base_seed: cfg_seed,
                ..ExploreConfig::default()
            };
            tr.begin(ROOT, *ops);
            let t = Instant::now();
            let report = tr.span(c.span, *ops, || explore(c.fixture, &c.spec, &cfg));
            round_ns += t.elapsed().as_nanos() as u64;
            tr.end();
            *ops += 1;
            phase.ops += 1;
            match report {
                Ok(report) => {
                    phase.count("explore.schedules", u64::from(report.schedules_run));
                    if let (Some(first), Some(repro)) = (report.first_bug_schedule, &report.repro) {
                        phase.count("explore.bugs", 1);
                        phase.count("explore.first_bug_sum", u64::from(first) + 1);
                        phase.count("explore.shrunk_injections", repro.injections.len() as u64);
                    }
                    if !campaign_ok(c, &report) {
                        phase.failed += 1;
                    }
                }
                Err(_) => phase.failed += 1,
            }
        }
        // One sample per round: every sample is the same mix of campaigns,
        // so the percentiles show timing, not which campaign was drawn.
        phase.samples.push(round_ns as f64 / campaigns.len() as f64);
    }

    fn layers(&mut self, tr: &Tracer, traced: &Phase, m: &mut Metrics) {
        let agg = tr.aggregate();
        let mut campaign_ns = 0;
        for (strategy, span) in STRATEGIES {
            let a = agg[span];
            campaign_ns += a.total_ns;
            m.set(
                format!("explore.campaign_ms.{strategy}"),
                a.total_ns as f64 / a.count as f64 / 1e6,
            );
        }
        let schedules = traced.counted("explore.schedules");
        m.set(
            "explore.schedules_per_s",
            schedules / (campaign_ns as f64 / 1e9),
        );

        // Counts come from one round on a base seed that depends on
        // `--seed` alone, not on how many rounds the clock allowed.
        self.seeds = gen::stream(self.seed, 6);
        let mut round = Phase::default();
        self.cycle(&mut Tracer::off(), &mut round);
        assert_eq!(round.failed, 0, "count round failed its oracle");
        m.set("explore.schedules", round.counted("explore.schedules"));
        m.set(
            "explore.first_bug_mean",
            round.counted("explore.first_bug_sum") / round.counted("explore.bugs"),
        );
        m.set(
            "explore.shrunk_injections",
            round.counted("explore.shrunk_injections"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_round_is_30_campaigns() {
        let c = campaigns();
        assert_eq!(c.len(), 30);
        assert_eq!(c.iter().filter(|c| c.budget == BROKEN_BUDGET).count(), 9);
    }
}
