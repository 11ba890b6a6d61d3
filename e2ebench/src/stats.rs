//! Order statistics, span self time and rank correlation.

/// Nearest-rank percentile `p` (in `[0, 1]`) of `xs`: the smallest sample
/// with at least a `p` share of the samples at or below it. Returns
/// `None` for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(v.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n > 0` samples. The
/// epsilon keeps `0.9 * 100` from rounding up to rank 91.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Median (nearest-rank p50) of `xs`, or 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5).unwrap_or(0.0)
}

/// Mean of `xs`, or 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Relative L2 error ‖approx − exact‖₂ / ‖exact‖₂.
pub fn rel_err(approx: &[f32], exact: &[f32]) -> f64 {
    let (mut num, mut den) = (0.0f64, 0.0f64);
    for (a, e) in approx.iter().zip(exact) {
        num += (f64::from(*a) - f64::from(*e)).powi(2);
        den += f64::from(*e).powi(2);
    }
    (num / den.max(f64::MIN_POSITIVE)).sqrt()
}

/// Samples that lie strictly beyond the nearest-rank percentile `p`. A
/// reported tail percentile needs at least ten of them.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Minimum series length for which percentile `p` has at least `beyond`
/// samples past it.
pub fn min_samples_for(p: f64, beyond: usize) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, p) >= beyond)
        .unwrap_or(usize::MAX)
}

/// One recorded interval on a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Recording thread.
    pub tid: u32,
    /// Start, nanoseconds.
    pub start: u64,
    /// Duration, nanoseconds.
    pub dur: u64,
}

impl Interval {
    fn end(&self) -> u64 {
        self.start + self.dur
    }

    fn contains(&self, o: &Interval) -> bool {
        self.tid == o.tid && self.start <= o.start && o.end() <= self.end() && self != o
    }
}

/// Self time of every interval: its duration minus the union of the
/// intervals nested inside it on the same thread. Spans carry no parent
/// link, so nesting is read off interval containment; the union keeps
/// overlapping or repeated children from being subtracted twice.
pub fn self_times(spans: &[Interval]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| {
        (
            spans[i].tid,
            spans[i].start,
            std::cmp::Reverse(spans[i].dur),
        )
    });
    let mut out = vec![0u64; spans.len()];
    for (pos, &i) in order.iter().enumerate() {
        let parent = spans[i];
        // Children start inside the parent, so they follow it in `order`.
        let mut covered = 0u64;
        let mut run: Option<(u64, u64)> = None;
        for &j in &order[pos + 1..] {
            let c = spans[j];
            if c.tid != parent.tid || c.start >= parent.end() {
                break;
            }
            if !parent.contains(&c) {
                continue;
            }
            run = match run {
                Some((s, e)) if c.start <= e => Some((s, e.max(c.end()))),
                Some((s, e)) => {
                    covered += e - s;
                    Some((c.start, c.end()))
                }
                None => Some((c.start, c.end())),
            };
        }
        if let Some((s, e)) = run {
            covered += e - s;
        }
        out[i] = parent.dur.saturating_sub(covered);
    }
    out
}

/// Average ranks (1-based, ties share the mean of their positions).
fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let mut r = vec![0.0; xs.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            r[k] = avg;
        }
        i = j + 1;
    }
    r
}

/// Spearman rank correlation: the Pearson correlation of the average
/// ranks. `None` when fewer than three pairs or either side is constant.
pub fn spearman(a: &[f64], b: &[f64]) -> Option<f64> {
    if a.len() != b.len() || a.len() < 3 {
        return None;
    }
    let (ra, rb) = (ranks(a), ranks(b));
    let (ma, mb) = (mean(&ra), mean(&rb));
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (x, y) in ra.iter().zip(&rb) {
        cov += (x - ma) * (y - mb);
        va += (x - ma).powi(2);
        vb += (y - mb).powi(2);
    }
    if va == 0.0 || vb == 0.0 {
        return None;
    }
    Some(cov / (va * vb).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
        assert_eq!(percentile(&xs, 1.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        // Order of the input does not matter.
        let rev: Vec<f64> = xs.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 0.9), Some(90.0));
    }

    #[test]
    fn p90_needs_one_hundred_samples_for_ten_beyond() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(min_samples_for(0.9, 10), 100);
        assert_eq!(min_samples_for(0.5, 10), 20);
        assert_eq!(samples_beyond(0, 0.9), 0);
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        let s = |tid, start, dur| Interval { tid, start, dur };
        // Parent [0, 100) with children [10, 30) and [20, 50) overlapping
        // (union 40) and a grandchild [12, 14) inside the first child.
        let spans = [
            s(1, 0, 100),
            s(1, 10, 20),
            s(1, 20, 30),
            s(1, 12, 2),
            s(1, 60, 10),
            // Same interval on another thread is not a child.
            s(2, 30, 10),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 100 - 40 - 10);
        assert_eq!(st[1], 20 - 2);
        assert_eq!(st[2], 30);
        assert_eq!(st[3], 2);
        assert_eq!(st[4], 10);
        assert_eq!(st[5], 10);
        // Self times of a tree sum to the root's duration.
        let tree = [s(1, 0, 100), s(1, 10, 20), s(1, 12, 2), s(1, 60, 10)];
        assert_eq!(self_times(&tree).iter().sum::<u64>(), 100);
    }

    #[test]
    fn spearman_matches_known_values() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(spearman(&a, &[10.0, 20.0, 30.0, 40.0, 50.0]), Some(1.0));
        assert_eq!(spearman(&a, &[5.0, 4.0, 3.0, 2.0, 1.0]), Some(-1.0));
        // Monotone but nonlinear: still a perfect rank correlation.
        assert_eq!(spearman(&a, &[1.0, 4.0, 9.0, 16.0, 1000.0]), Some(1.0));
        // d = [0, 0, -1, 1, 0]: rho = 1 - 6*2/(5*24) = 0.9.
        let rho = spearman(&a, &[1.0, 2.0, 4.0, 3.0, 5.0]).unwrap();
        assert!((rho - 0.9).abs() < 1e-12);
        // Ties take average ranks.
        let rho = spearman(&[1.0, 2.0, 2.0, 3.0], &[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((rho - 0.948_683_298_050_513_8).abs() < 1e-12);
        assert_eq!(spearman(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), None);
        assert_eq!(spearman(&[1.0, 2.0], &[1.0, 2.0]), None);
    }
}
