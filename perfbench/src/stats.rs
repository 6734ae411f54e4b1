//! The benchmark's own measurement machinery: the percentile rule,
//! seeded sampling, open-loop accounting, and metric output. Everything
//! here is pure, so `cargo test` pins it without a server.

use std::fmt::Write as _;
use std::time::Duration;

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// A latency distribution summarised as its median and the highest
/// percentile (up to a cap) that still has [`MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// The tail value.
    pub tail: f64,
    /// The percentile the tail was taken at, in `[0.5, cap]`.
    pub tail_q: f64,
    /// Samples strictly beyond the tail's rank.
    pub tail_beyond: usize,
}

/// Summarises `values` with the tail capped at quantile `cap`: the tail
/// is taken at nearest rank `min(ceil(cap * n), n - MIN_BEYOND)`, and never
/// below the median's rank. `None` for an empty sample.
pub fn summarize(values: &[f64], cap: f64) -> Option<Summary> {
    let n = values.len();
    if n == 0 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let median_rank = n.div_ceil(2);
    let cap_rank = ((cap * n as f64).ceil() as usize).clamp(1, n);
    let tail_rank = cap_rank.min(n.saturating_sub(MIN_BEYOND)).max(median_rank);
    Some(Summary {
        n,
        p50: sorted[median_rank - 1],
        tail: sorted[tail_rank - 1],
        tail_q: tail_rank as f64 / n as f64,
        tail_beyond: n - tail_rank,
    })
}

/// Median of a non-empty sample (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    summarize(values, 0.5).map_or(f64::NAN, |s| s.p50)
}

/// SplitMix64: a tiny seeded generator, so the inputs the benchmark
/// derives from `--seed` do not depend on any crate under test.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) over ranks `0..n` (rank 0 most popular), sampled by inverting
/// its cumulative distribution.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n >= 1` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n >= 1, "Zipf needs at least one rank");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// The rank for one draw of `rng`.
    pub fn sample(&self, rng: &mut SplitMix) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Open-loop accounting for one run of a fixed send schedule. Request
/// `i` is due at `i * interval` after the run starts; every time is kept
/// as an offset from that start. Latency runs from the *due* time, so a
/// sender held back by a stalled peer charges the wait to every request
/// it delayed, and how late the sender ran is reported separately.
#[derive(Debug, Clone)]
pub struct Ledger {
    interval: Duration,
    sent: Vec<Option<Duration>>,
    answered: Vec<Option<Duration>>,
    duplicates: usize,
    strays: usize,
}

/// What a [`Ledger`] saw.
#[derive(Debug, Clone)]
pub struct LedgerReport {
    /// Requests sent.
    pub sent: usize,
    /// Sent requests answered at least once.
    pub answered: usize,
    /// Latencies from due time to answer, in milliseconds.
    pub latency_ms: Vec<f64>,
    /// Send lateness (sent minus due), in milliseconds.
    pub late_ms: Vec<f64>,
    /// Answers for a request that was already answered.
    pub duplicates: usize,
    /// Answers for an id that was never sent.
    pub strays: usize,
    /// Time from the first due time to the last answer.
    pub span: Duration,
}

impl Ledger {
    /// A ledger for `n` requests due every `interval`.
    pub fn new(n: usize, interval: Duration) -> Ledger {
        Ledger {
            interval,
            sent: vec![None; n],
            answered: vec![None; n],
            duplicates: 0,
            strays: 0,
        }
    }

    /// When request `i` is due, as an offset from the start.
    pub fn due(&self, i: usize) -> Duration {
        self.interval * i as u32
    }

    /// Records that request `i` left at offset `at`.
    pub fn sent(&mut self, i: usize, at: Duration) {
        self.sent[i] = Some(at);
    }

    /// Records an answer for request `i` at offset `at`.
    pub fn answered(&mut self, i: usize, at: Duration) {
        match (self.sent.get(i), self.answered.get(i)) {
            (Some(Some(_)), Some(None)) => self.answered[i] = Some(at),
            (Some(Some(_)), Some(Some(_))) => self.duplicates += 1,
            _ => self.strays += 1,
        }
    }

    /// Latencies, lateness and exactly-once counts.
    pub fn report(&self) -> LedgerReport {
        let mut latency_ms = Vec::new();
        let mut late_ms = Vec::new();
        let mut last = Duration::ZERO;
        let mut sent = 0;
        for (i, (s, a)) in self.sent.iter().zip(&self.answered).enumerate() {
            let Some(s) = s else { continue };
            sent += 1;
            let due = self.due(i);
            late_ms.push(ms(s.saturating_sub(due)));
            if let Some(a) = a {
                latency_ms.push(ms(a.saturating_sub(due)));
                last = last.max(*a);
            }
        }
        LedgerReport {
            sent,
            answered: latency_ms.len(),
            latency_ms,
            late_ms,
            duplicates: self.duplicates,
            strays: self.strays,
            span: last,
        }
    }
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Whether `name` is a valid metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// One measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The result line: `{"correct": .., "attempted": .., "failed": ..,
/// "metrics": {name: {"value": .., "unit": ..}}}`. Values print with
/// Rust's shortest round-trip formatting, i.e. every digit measured.
///
/// # Errors
///
/// A metric with an invalid name or a non-finite value.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        if !valid_metric_name(m.name) {
            return Err(format!("invalid metric name {:?}", m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the summary must sort.
        (0..n).rev().map(|i| (i + 1) as f64).collect()
    }

    #[test]
    fn tail_is_the_cap_when_enough_samples_lie_beyond_it() {
        let s = summarize(&ramp(2000), 0.99).expect("non-empty");
        assert_eq!(s.n, 2000);
        assert_eq!(s.p50, 1000.0);
        assert_eq!(s.tail, 1980.0);
        assert_eq!(s.tail_beyond, 20);
        assert!((s.tail_q - 0.99).abs() < 1e-12);
    }

    #[test]
    fn tail_falls_back_so_ten_samples_lie_beyond_it() {
        // p99 of 500 samples has only 5 beyond it: fall back to rank 490.
        let s = summarize(&ramp(500), 0.99).expect("non-empty");
        assert_eq!(s.tail, 490.0);
        assert_eq!(s.tail_beyond, MIN_BEYOND);
        assert!((s.tail_q - 0.98).abs() < 1e-12);
        // Exactly at the boundary: p99 of 1000 keeps ten beyond it.
        let s = summarize(&ramp(1000), 0.99).expect("non-empty");
        assert_eq!((s.tail, s.tail_beyond), (990.0, 10));
    }

    #[test]
    fn tail_never_drops_below_the_median() {
        let s = summarize(&ramp(15), 0.9).expect("non-empty");
        assert_eq!(s.p50, 8.0);
        assert_eq!(s.tail, s.p50);
        assert_eq!(s.tail_beyond, 7);
        let one = summarize(&[3.5], 0.99).expect("non-empty");
        assert_eq!((one.p50, one.tail, one.tail_beyond), (3.5, 3.5, 0));
        assert!(summarize(&[], 0.99).is_none());
    }

    #[test]
    fn zipf_is_deterministic_per_seed() {
        let z = Zipf::new(512, 1.0);
        let draw = |seed| {
            let mut rng = SplitMix::new(seed);
            (0..1000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        assert!(draw(9).iter().all(|&r| r < 512));
    }

    #[test]
    fn zipf_favours_low_ranks_in_proportion() {
        let z = Zipf::new(512, 1.0);
        let mut rng = SplitMix::new(1);
        let mut counts = vec![0usize; 512];
        for _ in 0..200_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        // Rank 0 has twice rank 1's weight and ~1/6.8 of the mass.
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((1.8..2.2).contains(&ratio), "rank0/rank1 = {ratio}");
        let share = counts[0] as f64 / 200_000.0;
        assert!((0.13..0.16).contains(&share), "rank0 share = {share}");
    }

    #[test]
    fn stalled_receiver_counts_from_due_time_not_send_time() {
        // 100 requests due every millisecond. The peer stops reading at
        // 10 ms, so the sender blocks and sends requests 10..60 together
        // at 60 ms; each is answered 0.1 ms after it leaves.
        let tick = Duration::from_millis(1);
        let mut ledger = Ledger::new(100, tick);
        for i in 0..100 {
            let sent = if (10..60).contains(&i) {
                Duration::from_millis(60)
            } else {
                ledger.due(i)
            };
            ledger.sent(i, sent);
            ledger.answered(i, sent + Duration::from_micros(100));
        }
        let r = ledger.report();
        assert_eq!(
            (r.sent, r.answered, r.duplicates, r.strays),
            (100, 100, 0, 0)
        );
        // From send time every request took 0.1 ms; from due time the
        // request due at 10 ms waited 50 ms for the stall to clear.
        assert!((r.latency_ms[10] - 50.1).abs() < 1e-9);
        assert!((r.latency_ms[0] - 0.1).abs() < 1e-9);
        let s = summarize(&r.latency_ms, 0.99).expect("non-empty");
        assert!(s.tail > 40.0, "{s:?}");
        let late = summarize(&r.late_ms, 0.99).expect("non-empty");
        assert!(
            late.tail >= 40.0,
            "the sender's lateness is reported: {late:?}"
        );
    }

    #[test]
    fn ledger_counts_each_request_once() {
        let mut ledger = Ledger::new(3, Duration::from_millis(1));
        ledger.sent(0, Duration::ZERO);
        ledger.sent(1, Duration::from_millis(1));
        ledger.answered(0, Duration::from_millis(2));
        ledger.answered(0, Duration::from_millis(3));
        ledger.answered(2, Duration::from_millis(3));
        ledger.answered(7, Duration::from_millis(3));
        let r = ledger.report();
        assert_eq!((r.sent, r.answered), (2, 1));
        assert_eq!((r.duplicates, r.strays), (1, 2));
        assert_eq!(r.span, Duration::from_millis(2));
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in ["setup_s", "core.pretrain.step1_ms", "p99-ms", "9lives"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "a b",
            "a\"b",
            "μs",
            "a/b",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        let m = |name| Metric {
            name,
            value: 1.5,
            unit: "ms",
        };
        assert!(result_json(true, 1, 0, &[m("bad name")]).is_err());
        let nan = Metric {
            value: f64::NAN,
            ..m("ok")
        };
        assert!(result_json(true, 1, 0, &[nan]).is_err());
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let line = result_json(
            true,
            10,
            1,
            &[
                Metric {
                    name: "latency_ms",
                    value: 1.2034567891234,
                    unit: "ms",
                },
                Metric {
                    name: "setup_s",
                    value: 2.0,
                    unit: "s",
                },
            ],
        )
        .expect("valid");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034567891234, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
    }
}
