//! Deterministic fault injection for the serving stack.
//!
//! A resilience layer is only trustworthy if its failure paths are
//! *exercised*: this module lets tests (and staging deployments) inject
//! the faults the engine claims to survive — lane panics at batch
//! boundaries, added batch latency, corrupted response frames, and
//! connections severed mid-reply — on a seeded, reproducible schedule.
//!
//! The plan is a plain [`Faults`] value, set only through
//! [`ServeConfig::faults`](crate::ServeConfig). Each fault kind has a
//! [`FaultRule`]: a firing probability and an optional firing budget.
//! Probabilities draw from a seeded xorshift generator, so a given
//! `(seed, request schedule)` replays the same faults; `rate = 1.0` plus
//! a finite `limit` gives fully deterministic "exactly N faults" plans,
//! which is what the `faults` integration suite uses.
//!
//! **Zero-cost when off**: an engine built with an empty plan carries
//! `None` runtime state, and every injection site is a single
//! `Option::is_some` check on a field that never changes.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// The injection point a fault fires at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the isolated batch region, after requests are
    /// claimed and before any is answered — the worst-placed panic.
    Panic,
    /// Sleep before the batch executes (drives requests past their
    /// deadlines without killing anything).
    Delay,
    /// Overwrite the status byte of one outgoing response frame so the
    /// peer's decoder sees a protocol violation.
    Corrupt,
    /// Write a partial frame, then shut the socket down both ways.
    Sever,
}

const KINDS: usize = 4;

/// One fault kind's schedule: how often it fires, and how many times.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultRule {
    /// Probability in `[0, 1]` that each opportunity fires. `1.0` fires
    /// every opportunity (no RNG draw — fully deterministic).
    pub rate: f32,
    /// Total firing budget; `0` means unbounded.
    pub limit: u32,
}

impl FaultRule {
    /// A rule that fires every opportunity until `limit` firings.
    pub fn times(limit: u32) -> FaultRule {
        FaultRule { rate: 1.0, limit }
    }

    fn active(&self) -> bool {
        self.rate > 0.0
    }
}

/// A complete fault plan. `Copy`, so it rides inside
/// [`ServeConfig`](crate::ServeConfig) without breaking its `Copy`.
///
/// The default plan is empty (nothing ever fires); an engine built with
/// it allocates no runtime fault state at all.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Faults {
    /// Lane-panic rule (fires inside the `catch_unwind` region).
    pub panic: FaultRule,
    /// Batch-delay rule.
    pub delay: FaultRule,
    /// Milliseconds a fired delay adds to the batch.
    pub delay_ms: u64,
    /// Response-frame corruption rule (network front-end only).
    pub corrupt: FaultRule,
    /// Mid-reply connection-sever rule (network front-end only).
    pub sever: FaultRule,
    /// Seed for the xorshift draws behind sub-unit rates.
    pub seed: u64,
}

impl Faults {
    /// The empty plan: nothing fires, no runtime state is allocated.
    pub fn none() -> Faults {
        Faults::default()
    }

    /// True when at least one rule can fire.
    pub fn enabled(&self) -> bool {
        self.panic.active() || self.delay.active() || self.corrupt.active() || self.sever.active()
    }

    /// Sets the lane-panic rule.
    pub fn with_panic(mut self, rule: FaultRule) -> Faults {
        self.panic = rule;
        self
    }

    /// Sets the batch-delay rule and the latency each firing adds.
    pub fn with_delay(mut self, rule: FaultRule, delay_ms: u64) -> Faults {
        self.delay = rule;
        self.delay_ms = delay_ms;
        self
    }

    /// Sets the frame-corruption rule.
    pub fn with_corrupt(mut self, rule: FaultRule) -> Faults {
        self.corrupt = rule;
        self
    }

    /// Sets the mid-reply sever rule.
    pub fn with_sever(mut self, rule: FaultRule) -> Faults {
        self.sever = rule;
        self
    }

    /// Sets the RNG seed behind sub-unit rates.
    pub fn with_seed(mut self, seed: u64) -> Faults {
        self.seed = seed;
        self
    }

    fn rule(&self, kind: FaultKind) -> FaultRule {
        match kind {
            FaultKind::Panic => self.panic,
            FaultKind::Delay => self.delay,
            FaultKind::Corrupt => self.corrupt,
            FaultKind::Sever => self.sever,
        }
    }
}

/// Runtime injection state: the plan plus seeded RNG and firing
/// counters. Held as `Option<Arc<FaultState>>` by the engine — `None`
/// whenever the plan is empty, so the off path costs one branch.
#[derive(Debug)]
pub(crate) struct FaultState {
    cfg: Faults,
    rng: AtomicU64,
    fired: [AtomicU32; KINDS],
}

impl FaultState {
    pub(crate) fn new(cfg: Faults) -> FaultState {
        FaultState {
            cfg,
            // xorshift needs a nonzero state; splmix the seed so seed 0
            // works too.
            rng: AtomicU64::new(cfg.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1),
            fired: Default::default(),
        }
    }

    pub(crate) fn plan(&self) -> Faults {
        self.cfg
    }

    /// Draws the next uniform value in `[0, 1)` (xorshift64*, atomic so
    /// concurrent lanes share one deterministic stream).
    fn draw(&self) -> f64 {
        let mut next = 0u64;
        // fetch_update retries on contention, so each caller consumes
        // exactly one step of the sequence.
        let _ = self
            .rng
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |mut x| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                next = x;
                Some(x)
            });
        (next.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Decides whether `kind` fires at this opportunity, consuming one
    /// unit of its budget when it does.
    pub(crate) fn fire(&self, kind: FaultKind) -> bool {
        let rule = self.cfg.rule(kind);
        if !rule.active() {
            return false;
        }
        if rule.rate < 1.0 && self.draw() >= f64::from(rule.rate) {
            return false;
        }
        let counter = &self.fired[kind as usize];
        if rule.limit == 0 {
            counter.fetch_add(1, Ordering::SeqCst);
            return true;
        }
        counter
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < rule.limit).then_some(n + 1)
            })
            .is_ok()
    }

    /// How many times `kind` has fired.
    #[cfg(test)]
    pub(crate) fn fired(&self, kind: FaultKind) -> u32 {
        self.fired[kind as usize].load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_disabled_and_never_fires() {
        let f = Faults::none();
        assert!(!f.enabled());
        let state = FaultState::new(f);
        for _ in 0..100 {
            assert!(!state.fire(FaultKind::Panic));
            assert!(!state.fire(FaultKind::Sever));
        }
    }

    #[test]
    fn rate_one_with_limit_fires_exactly_limit_times() {
        let state = FaultState::new(Faults::none().with_panic(FaultRule::times(3)));
        let fired = (0..10).filter(|_| state.fire(FaultKind::Panic)).count();
        assert_eq!(fired, 3);
        assert_eq!(state.fired(FaultKind::Panic), 3);
    }

    #[test]
    fn sub_unit_rate_is_deterministic_per_seed() {
        let plan = Faults::none()
            .with_delay(
                FaultRule {
                    rate: 0.5,
                    limit: 0,
                },
                1,
            )
            .with_seed(42);
        let run = || {
            let state = FaultState::new(plan);
            (0..64)
                .map(|_| state.fire(FaultKind::Delay))
                .collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run(), "same seed, same schedule");
        assert!(
            a.iter().any(|&b| b) && a.iter().any(|&b| !b),
            "rate 0.5 mixes outcomes"
        );
        let other = FaultState::new(plan.with_seed(43));
        let b: Vec<_> = (0..64).map(|_| other.fire(FaultKind::Delay)).collect();
        assert_ne!(a, b, "different seed, different schedule");
    }
}
