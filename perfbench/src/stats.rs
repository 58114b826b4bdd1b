//! The benchmark's own statistics: order statistics with the tail rule,
//! open-loop due-time latency, Prometheus histogram parsing, span
//! coverage and the dataset digest behind the determinism check.

use std::collections::HashMap;
use std::time::{Duration, Instant};

/// A tail percentile must have at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the tail rule chooses from, lowest first.
const TAIL_CANDIDATES: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// 1-based nearest rank of quantile `q` among `n` samples. The epsilon
/// keeps `0.999 * 10000` from rounding up past rank 9990.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    sorted[rank(sorted.len(), q) - 1]
}

/// Samples strictly beyond the nearest-rank `q` quantile.
pub fn beyond(n: usize, q: f64) -> usize {
    n.saturating_sub(rank(n, q))
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// The tail a sample supports: the highest of p50, p90, p99, p99.9 and
/// p99.99 with at least [`MIN_BEYOND`] samples beyond it, as
/// `(percentile, value, samples beyond)`. `None` when even the median has
/// fewer than that many samples beyond it.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64, usize)> {
    TAIL_CANDIDATES
        .iter()
        .rev()
        .map(|&q| (q, beyond(sorted.len(), q)))
        .find(|&(_, b)| b >= MIN_BEYOND)
        .map(|(q, b)| (q, quantile(sorted, q), b))
}

/// The quartile of per-window figures on the good side: the lower quartile
/// of latencies, the upper quartile of rates. On a shared host the
/// hypervisor takes the CPU away for seconds at a time and the machine's
/// speed drifts with its neighbours' load, so the bad windows of a run
/// measure the neighbours; a regression of the program moves every
/// window, including the good ones.
pub fn good_quartile(per_window: &[f64], lower_is_better: bool) -> f64 {
    let mut v = per_window.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, if lower_is_better { 0.25 } else { 0.75 })
}

/// Host CPU time as `(busy, stolen)` ticks, from the aggregate `cpu` line
/// of `/proc/stat` (user, nice, system, irq and softirq count as busy).
/// `(0, 0)` where the file is unreadable.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    parse_cpu_ticks(&stat).unwrap_or((0, 0))
}

fn parse_cpu_ticks(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse().unwrap_or(0))
        .collect();
    let at = |i: usize| f.get(i).copied().unwrap_or(0);
    // user nice system idle iowait irq softirq steal
    Some((at(0) + at(1) + at(2) + at(5) + at(6), at(7)))
}

/// The share of the CPU time the machine wanted between two
/// [`cpu_ticks`] readings that the hypervisor gave to other guests. A
/// CPU-bound interval of wall time `w` would have taken about
/// `w * (1 - share)` without them.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let busy = after.0.saturating_sub(before.0);
    let stolen = after.1.saturating_sub(before.1);
    if busy + stolen == 0 {
        0.0
    } else {
        stolen as f64 / (busy + stolen) as f64
    }
}

/// Open-loop schedule: request `i` is due at `start + i / rate`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub interval: Duration,
}

impl Schedule {
    pub fn new(start: Instant, rate_per_s: f64) -> Schedule {
        Schedule {
            start,
            interval: Duration::from_secs_f64(1.0 / rate_per_s),
        }
    }

    /// When request `i` is due to be sent.
    pub fn due(&self, i: usize) -> Instant {
        self.start + self.interval * i as u32
    }

    /// Latency of request `i` answered at `done`, counted from its due
    /// time, so a stall also charges the requests queued behind it.
    pub fn latency_us(&self, i: usize, done: Instant) -> f64 {
        done.saturating_duration_since(self.due(i)).as_secs_f64() * 1e6
    }
}

/// One histogram from a Prometheus text exposition: `(upper bound,
/// cumulative count)` per bucket, `+Inf` last, plus `_sum` and `_count`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    pub buckets: Vec<(f64, u64)>,
    pub sum: f64,
    pub count: u64,
}

/// Splits `name{labels} value` into its parts; `labels` is empty when the
/// sample has none.
fn sample_parts(line: &str) -> Option<(&str, &str, &str)> {
    let (head, value) = line.rsplit_once(' ')?;
    match head.split_once('{') {
        Some((name, rest)) => Some((name, rest.strip_suffix('}')?, value)),
        None => Some((head, "", value)),
    }
}

fn label<'a>(labels: &'a str, key: &str) -> Option<&'a str> {
    labels.split(',').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k.trim() == key).then(|| v.trim().trim_matches('"'))
    })
}

/// Whether `labels` carries every `(key, value)` of `want`, ignoring `le`.
fn labels_match(labels: &str, want: &[(&str, &str)]) -> bool {
    want.iter().all(|(k, v)| label(labels, k) == Some(*v))
}

/// Parses histogram `name` restricted to the series whose labels include
/// every pair of `want`. `None` when the exposition has no such series.
pub fn parse_histogram(text: &str, name: &str, want: &[(&str, &str)]) -> Option<Histogram> {
    let bucket = format!("{name}_bucket");
    let sum = format!("{name}_sum");
    let count = format!("{name}_count");
    let mut h = Histogram {
        buckets: Vec::new(),
        sum: f64::NAN,
        count: 0,
    };
    let mut seen_count = false;
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let Some((metric, labels, value)) = sample_parts(line.trim()) else {
            continue;
        };
        if !labels_match(labels, want) {
            continue;
        }
        if metric == bucket {
            let le = match label(labels, "le")? {
                "+Inf" => f64::INFINITY,
                v => v.parse().ok()?,
            };
            h.buckets.push((le, value.parse().ok()?));
        } else if metric == sum {
            h.sum = value.parse().ok()?;
        } else if metric == count {
            h.count = value.parse().ok()?;
            seen_count = true;
        }
    }
    (seen_count && !h.buckets.is_empty()).then_some(h)
}

/// A plain counter or gauge sample with no labels.
pub fn parse_scalar(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .filter_map(|l| sample_parts(l.trim()))
        .find(|(metric, labels, _)| *metric == name && labels.is_empty())
        .and_then(|(_, _, v)| v.parse().ok())
}

impl Histogram {
    /// What was observed between an earlier scrape and this one.
    pub fn since(&self, earlier: &Histogram) -> Histogram {
        Histogram {
            buckets: self
                .buckets
                .iter()
                .zip(&earlier.buckets)
                .map(|(&(le, now), &(_, then))| (le, now.saturating_sub(then)))
                .collect(),
            sum: self.sum - earlier.sum,
            count: self.count.saturating_sub(earlier.count),
        }
    }

    /// The observations of two windows together (same buckets).
    pub fn plus(&self, other: &Histogram) -> Histogram {
        Histogram {
            buckets: self
                .buckets
                .iter()
                .zip(&other.buckets)
                .map(|(&(le, a), &(_, b))| (le, a + b))
                .collect(),
            sum: self.sum + other.sum,
            count: self.count + other.count,
        }
    }

    /// Quantile by linear interpolation inside the bucket that holds it,
    /// as Prometheus' `histogram_quantile` does; a quantile in the `+Inf`
    /// bucket reads as the highest finite bound. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.buckets.last()?.1;
        if total == 0 {
            return None;
        }
        let rank = q * total as f64;
        let mut lower = (0.0, 0u64);
        for &(le, cum) in &self.buckets {
            if cum as f64 >= rank {
                if le.is_infinite() {
                    return Some(lower.0);
                }
                let in_bucket = (cum - lower.1) as f64;
                let frac = if in_bucket == 0.0 {
                    1.0
                } else {
                    (rank - lower.1 as f64) / in_bucket
                };
                return Some(lower.0 + (le - lower.0) * frac);
            }
            lower = (le, cum);
        }
        Some(lower.0)
    }

    /// Mean observation (`sum / count`); `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }
}

/// FNV-1a over a dataset's column names and the exact bits of every
/// value, so two datasets share a digest only if they are bit-identical
/// (`-0.0` differs from `0.0`, and NaN payloads differ from each other).
pub fn digest(names: &[String], rows: &[Vec<f64>], response: &[f64]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    for name in names {
        eat(&(name.len() as u64).to_le_bytes());
        eat(name.as_bytes());
    }
    eat(&(rows.len() as u64).to_le_bytes());
    for row in rows {
        eat(&(row.len() as u64).to_le_bytes());
        for v in row {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    for v in response {
        eat(&v.to_bits().to_le_bytes());
    }
    h
}

/// One closed span reduced to what coverage needs.
#[derive(Debug, Clone, Copy)]
pub struct Interval {
    pub id: u64,
    pub parent: Option<u64>,
    pub start: u64,
    pub end: u64,
}

/// For every span named `name`, the share of its wall time during which
/// none of its direct children was open, over all such spans:
/// `(total time, unattributed time)` in nanoseconds. Children running on
/// other threads count once however many overlap.
pub fn unattributed(spans: &[(&str, Interval)], name: &str) -> (u64, u64) {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for (_, s) in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    let (mut total, mut uncovered) = (0u64, 0u64);
    for (_, s) in spans.iter().filter(|(n, _)| *n == name) {
        let dur = s.end.saturating_sub(s.start);
        let mut kids: Vec<(u64, u64)> = children
            .get(&s.id)
            .map(|v| {
                v.iter()
                    .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
                    .filter(|(a, b)| a < b)
                    .collect()
            })
            .unwrap_or_default();
        kids.sort_unstable();
        let (mut covered, mut reach) = (0u64, s.start);
        for (a, b) in kids {
            if b > reach {
                covered += b - a.max(reach);
                reach = b;
            }
        }
        total += dur;
        uncovered += dur - covered.min(dur);
    }
    (total, uncovered)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ascending(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v = ascending(10);
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99.9 has 1 beyond, p99 has 10 beyond.
        let (q, v, b) = tail(&ascending(1000)).unwrap();
        assert_eq!((q, v, b), (0.99, 990.0, 10));
        // 999 samples: p99 has only 9 beyond, so p90 is the tail.
        let (q, _, b) = tail(&ascending(999)).unwrap();
        assert_eq!((q, b), (0.9, 99));
        // 10000 samples reach p99.9 with exactly 10 beyond.
        let (q, v, b) = tail(&ascending(10_000)).unwrap();
        assert_eq!((q, v, b), (0.999, 9990.0, 10));
        // 20 samples: only the median qualifies.
        assert_eq!(tail(&ascending(20)).unwrap().0, 0.5);
        // Fewer than 20 samples support no tail at all.
        assert!(tail(&ascending(19)).is_none());
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn steal_share_weighs_stolen_against_busy_time() {
        let before = parse_cpu_ticks("cpu  100 5 20 900 3 1 1 10 0 0\ncpu0 1 2 3\n").unwrap();
        assert_eq!(before, (127, 10));
        // 60 busy ticks and 20 stolen: a quarter of the wanted time.
        let after = parse_cpu_ticks("cpu  150 5 30 999 3 1 1 30 0 0\n").unwrap();
        assert_eq!(steal_share(before, after), 0.25);
        assert_eq!(steal_share(before, before), 0.0);
        assert!(parse_cpu_ticks("intr 1 2 3\n").is_none());
    }

    #[test]
    fn good_quartile_keeps_a_noisy_window_out() {
        // Four windows' p99; a burst of host noise hit the second.
        let p99s = [98.0, 1e6, 97.0, 99.0];
        assert_eq!(good_quartile(&p99s, true), 97.0);
        assert_eq!(median(&p99s), 98.0);
        // For rates the good side is the upper quartile.
        assert_eq!(good_quartile(&[1.0, 2.0, 3.0, 4.0], false), 3.0);
        assert_eq!(good_quartile(&[1.0, 2.0, 3.0, 4.0], true), 1.0);
        // Of eight windows, two noisy ones never reach the quartile.
        let rates = [50.0, 10.0, 52.0, 51.0, 12.0, 49.0, 53.0, 48.0];
        assert_eq!(good_quartile(&rates, false), 51.0);
    }

    #[test]
    fn due_time_latency_charges_a_stall_to_queued_requests() {
        let start = Instant::now();
        let s = Schedule::new(start, 1000.0); // one request per ms
        assert_eq!(s.due(3), start + Duration::from_millis(3));
        // The server stalls until t = 10 ms and then answers requests 0..5
        // at once: each is charged from its own due time, not its send.
        let done = start + Duration::from_millis(10);
        let lat: Vec<f64> = (0..5).map(|i| s.latency_us(i, done)).collect();
        for (i, l) in lat.iter().enumerate() {
            assert!((l - (10_000.0 - 1000.0 * i as f64)).abs() < 1e-6, "{lat:?}");
        }
        // An answer before the due time (clock skew) reads as zero.
        assert_eq!(s.latency_us(20, done), 0.0);
    }

    const EXPOSITION: &str = "\
# HELP bf_phase_latency_us Per-phase latency.
# TYPE bf_phase_latency_us histogram
bf_phase_latency_us_bucket{phase=\"parse\",le=\"50\"} 10
bf_phase_latency_us_bucket{phase=\"parse\",le=\"100\"} 30
bf_phase_latency_us_bucket{phase=\"parse\",le=\"+Inf\"} 40
bf_phase_latency_us_sum{phase=\"parse\"} 2500
bf_phase_latency_us_count{phase=\"parse\"} 40
bf_phase_latency_us_bucket{phase=\"predict\",le=\"50\"} 0
bf_phase_latency_us_bucket{phase=\"predict\",le=\"100\"} 4
bf_phase_latency_us_bucket{phase=\"predict\",le=\"+Inf\"} 4
bf_phase_latency_us_sum{phase=\"predict\"} 300
bf_phase_latency_us_count{phase=\"predict\"} 4
bf_request_latency_us_bucket{le=\"50\"} 2
bf_request_latency_us_bucket{le=\"+Inf\"} 2
bf_request_latency_us_sum 60
bf_request_latency_us_count 2
bf_queue_rejections_total 3
";

    #[test]
    fn parses_labelled_and_plain_histograms() {
        let parse =
            parse_histogram(EXPOSITION, "bf_phase_latency_us", &[("phase", "parse")]).unwrap();
        assert_eq!(
            parse.buckets,
            vec![(50.0, 10), (100.0, 30), (f64::INFINITY, 40)]
        );
        assert_eq!((parse.sum, parse.count), (2500.0, 40));
        let predict =
            parse_histogram(EXPOSITION, "bf_phase_latency_us", &[("phase", "predict")]).unwrap();
        assert_eq!(predict.count, 4);
        let plain = parse_histogram(EXPOSITION, "bf_request_latency_us", &[]).unwrap();
        assert_eq!(plain.buckets.len(), 2);
        assert_eq!(plain.mean(), Some(30.0));
        assert!(parse_histogram(EXPOSITION, "bf_missing", &[]).is_none());
        assert_eq!(
            parse_scalar(EXPOSITION, "bf_queue_rejections_total"),
            Some(3.0)
        );
        assert_eq!(
            parse_scalar(EXPOSITION, "bf_request_latency_us_count"),
            Some(2.0)
        );
    }

    #[test]
    fn histogram_quantiles_interpolate_within_buckets() {
        let h = parse_histogram(EXPOSITION, "bf_phase_latency_us", &[("phase", "parse")]).unwrap();
        // Rank 20 of 40 lies halfway through the (50, 100] bucket.
        assert_eq!(h.quantile(0.5), Some(75.0));
        // Rank 5 lies halfway through the first bucket, which starts at 0.
        assert_eq!(h.quantile(0.125), Some(25.0));
        // The +Inf bucket reads as the highest finite bound.
        assert_eq!(h.quantile(0.99), Some(100.0));
        let zero = h.since(&h);
        assert_eq!(zero.quantile(0.5), None);
        assert_eq!(zero.mean(), None);
    }

    #[test]
    fn histogram_deltas_subtract_an_earlier_scrape() {
        let before = Histogram {
            buckets: vec![(50.0, 10), (100.0, 30), (f64::INFINITY, 40)],
            sum: 2500.0,
            count: 40,
        };
        let after = Histogram {
            buckets: vec![(50.0, 10), (100.0, 50), (f64::INFINITY, 60)],
            sum: 4500.0,
            count: 60,
        };
        let d = after.since(&before);
        assert_eq!(d.buckets, vec![(50.0, 0), (100.0, 20), (f64::INFINITY, 20)]);
        assert_eq!(d.mean(), Some(100.0));
        assert_eq!(d.quantile(0.5), Some(75.0));
        // Windows add back up to the whole.
        assert_eq!(before.plus(&d), after);
    }

    #[test]
    fn digest_sees_every_bit() {
        let names = vec!["size".to_string(), "ipc".to_string()];
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let resp = vec![0.5, 0.25];
        let d = digest(&names, &rows, &resp);
        assert_eq!(d, digest(&names, &rows.clone(), &resp.clone()));
        let mut ulp = rows.clone();
        ulp[1][1] = f64::from_bits(4.0f64.to_bits() + 1);
        assert_ne!(d, digest(&names, &ulp, &resp));
        let mut signed = rows.clone();
        signed[0][0] = 0.0;
        let mut neg = rows.clone();
        neg[0][0] = -0.0;
        assert_ne!(digest(&names, &signed, &resp), digest(&names, &neg, &resp));
        assert_ne!(d, digest(&names, &rows, &[0.5, 0.5]));
        let renamed = vec!["size".to_string(), "ipd".to_string()];
        assert_ne!(d, digest(&renamed, &rows, &resp));
        // Moving a value across a row boundary changes the digest.
        let reshaped = vec![vec![1.0], vec![2.0, 3.0, 4.0]];
        assert_ne!(d, digest(&names, &reshaped, &resp));
    }

    #[test]
    fn unattributed_counts_time_no_child_covers() {
        let span = |id, parent, start, end| Interval {
            id,
            parent,
            start,
            end,
        };
        let spans = vec![
            ("launch", span(1, None, 0, 100)),
            // Two overlapping children on different threads cover 10..50.
            ("banks", span(2, Some(1), 10, 40)),
            ("issue_loop", span(3, Some(1), 20, 50)),
            // A child running past its parent's end is clipped.
            ("coalesce", span(4, Some(1), 90, 120)),
            // A grandchild does not count for the launch.
            ("inner", span(5, Some(2), 60, 80)),
            ("launch", span(6, None, 200, 300)),
        ];
        // Launch 1: 40 + 10 covered of 100; launch 6: nothing covered.
        assert_eq!(unattributed(&spans, "launch"), (200, 150));
        assert_eq!(unattributed(&spans, "banks"), (30, 30));
        assert_eq!(unattributed(&spans, "absent"), (0, 0));
    }
}
