//! Schedule minimization by delta debugging.
//!
//! Given a failing plan, the shrinker first truncates the run right
//! after the failing tick, then removes event chunks of halving sizes
//! while the failure keeps reproducing (the complement-reduction half
//! of classic ddmin — the half that matters when events are mostly
//! independent), and finally re-truncates the tick horizon to the last
//! surviving event. Execution is deterministic, so "keeps reproducing"
//! is a plain re-run — no flake tolerance is needed.
//!
//! Invalid intermediate schedules are a non-issue by construction: the
//! executor's mirror turns any event orphaned by a deletion into a
//! no-op on every backend identically (see [`crate::oracle::Mirror`]).

use crate::events::Plan;
use crate::exec::SimFailure;

/// What the shrinker did, for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShrinkStats {
    /// Events in the original failing plan.
    pub from_events: usize,
    /// Events in the minimized plan.
    pub to_events: usize,
    /// Ticks in the minimized plan.
    pub to_ticks: u64,
    /// How many candidate executions were spent.
    pub executions: u32,
}

/// Minimize `plan` while `check` keeps failing. `check` must be the
/// same execution the original failure came from (including any test
/// corruption seam). `budget` caps candidate executions; the best plan
/// found within budget is returned along with its failure.
pub fn minimize<F>(
    plan: &Plan,
    original: &SimFailure,
    budget: u32,
    mut check: F,
) -> (Plan, SimFailure, ShrinkStats)
where
    F: FnMut(&Plan) -> Result<crate::exec::SimReport, SimFailure>,
{
    let mut stats = ShrinkStats {
        from_events: plan.events.len(),
        to_events: plan.events.len(),
        to_ticks: plan.ticks,
        executions: 0,
    };
    let mut best = plan.clone();
    let mut best_failure = original.clone();

    // Phase 1: cut the run off right after the failing tick — every
    // event past it is irrelevant by causality.
    if original.tick < best.ticks {
        let mut candidate = best.clone();
        candidate.ticks = original.tick;
        candidate.events.retain(|e| e.tick <= original.tick);
        stats.executions += 1;
        if let Err(f) = check(&candidate) {
            best = candidate;
            best_failure = f;
        }
    }

    // Phase 2: complement reduction with halving chunk sizes.
    let mut chunk = best.events.len().div_ceil(2).max(1);
    loop {
        let mut removed_any = false;
        let mut i = 0;
        while i < best.events.len() {
            if stats.executions >= budget {
                break;
            }
            let end = (i + chunk).min(best.events.len());
            let mut candidate = best.clone();
            candidate.events.drain(i..end);
            stats.executions += 1;
            if let Err(f) = check(&candidate) {
                best = candidate;
                best_failure = f;
                removed_any = true;
                // The window now holds fresh events; retry in place.
            } else {
                i = end;
            }
        }
        if stats.executions >= budget {
            break;
        }
        if chunk == 1 {
            if !removed_any {
                break;
            }
        } else {
            chunk = (chunk / 2).max(1);
        }
    }

    // Phase 3: the horizon only needs to reach the last surviving
    // event (or the failing tick, if later — a fault can take effect
    // ticks after its event, e.g. a stalled client overflowing later).
    let horizon = best
        .events
        .iter()
        .map(|e| e.tick)
        .max()
        .unwrap_or(1)
        .max(best_failure.tick);
    if horizon < best.ticks && stats.executions < budget {
        let mut candidate = best.clone();
        candidate.ticks = horizon;
        stats.executions += 1;
        if let Err(f) = check(&candidate) {
            best = candidate;
            best_failure = f;
        }
    }

    stats.to_events = best.events.len();
    stats.to_ticks = best.ticks;
    (best, best_failure, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{ScheduledEvent, SimEvent};
    use igern_geom::Aabb;

    fn toy_plan(n_events: usize) -> Plan {
        Plan {
            seed: 0,
            space: Aabb::from_coords(0.0, 0.0, 10.0, 10.0),
            grid: 4,
            workers: 2,
            ticks: 50,
            server: false,
            durable: false,
            network: false,
            victim_anchor: None,
            initial: Vec::new(),
            events: (0..n_events)
                .map(|i| ScheduledEvent {
                    tick: (i as u64 % 50) + 1,
                    event: SimEvent::Remove { id: i as u32 },
                })
                .collect(),
        }
    }

    /// A synthetic failure predicate: fails iff events with ids 7 and
    /// 23 are both present, reporting the larger tick of the two.
    fn fails(plan: &Plan) -> Result<crate::exec::SimReport, SimFailure> {
        let mut tick = None;
        let both = [7u32, 23].iter().all(|&want| {
            plan.events.iter().any(|e| {
                if matches!(e.event, SimEvent::Remove { id } if id == want) {
                    tick = Some(tick.unwrap_or(0).max(e.tick));
                    true
                } else {
                    false
                }
            })
        });
        if both {
            Err(SimFailure {
                tick: tick.unwrap(),
                query: None,
                kind: "mismatch",
                detail: "synthetic".into(),
            })
        } else {
            Ok(crate::exec::SimReport {
                ticks: plan.ticks,
                digest: 0,
                counters: Default::default(),
                victim_alive: None,
            })
        }
    }

    #[test]
    fn minimizes_to_the_two_culprits() {
        let plan = toy_plan(200);
        let original = fails(&plan).unwrap_err();
        let (min, failure, stats) = minimize(&plan, &original, 10_000, fails);
        assert_eq!(min.events.len(), 2, "{:?}", min.events);
        assert_eq!(stats.to_events, 2);
        assert!(stats.executions > 0);
        assert_eq!(failure.kind, "mismatch");
        // The horizon collapsed to the surviving events.
        assert!(min.ticks <= 24, "ticks {}", min.ticks);
        assert!(fails(&min).is_err(), "minimized plan must still fail");
    }

    #[test]
    fn budget_is_respected() {
        let plan = toy_plan(200);
        let original = fails(&plan).unwrap_err();
        let (min, _, stats) = minimize(&plan, &original, 3, fails);
        assert!(stats.executions <= 3);
        assert!(fails(&min).is_err());
    }
}
