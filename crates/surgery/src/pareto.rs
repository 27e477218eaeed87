//! Dominated-plan elimination.
//!
//! A candidate plan is characterized by a demand vector (expected device
//! seconds, expected bytes on the wire, expected edge FLOPs, negated
//! accuracy). If plan A is ≤ plan B on every coordinate and < on one, no
//! resource allocation can make B the better choice (latency is
//! nondecreasing in each demand under any fixed allocation), so B is
//! dropped before the joint search.

/// Keep the Pareto-minimal items under the metric vectors produced by
/// `key` (all coordinates minimized). Stable: survivors keep their input
/// order. Ties (exactly equal vectors) keep the first occurrence. A key
/// is any slice-like vector, so fixed-width keys need no allocation.
pub fn pareto_filter<T, K: AsRef<[f64]>>(items: Vec<T>, key: impl Fn(&T) -> K) -> Vec<T> {
    let metrics: Vec<K> = items.iter().map(&key).collect();
    let n = items.len();
    let mut keep = vec![true; n];
    for i in 0..n {
        if !keep[i] {
            continue;
        }
        for j in 0..n {
            if i == j || !keep[i] {
                continue;
            }
            let (a, b) = (metrics[j].as_ref(), metrics[i].as_ref());
            if dominates(a, b) || (j < i && a == b) {
                keep[i] = false;
            }
        }
    }
    items
        .into_iter()
        .zip(keep)
        .filter_map(|(item, k)| k.then_some(item))
        .collect()
}

/// Whether `a` dominates `b`: `a ≤ b` everywhere and `a < b` somewhere.
pub(crate) fn dominates(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut strict = false;
    for (x, y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strict = true;
        }
    }
    strict
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominated_points_are_removed() {
        let pts = vec![(1.0, 5.0), (2.0, 2.0), (3.0, 3.0), (5.0, 1.0)];
        let out = pareto_filter(pts, |&(a, b)| vec![a, b]);
        assert_eq!(out, vec![(1.0, 5.0), (2.0, 2.0), (5.0, 1.0)]);
    }

    #[test]
    fn incomparable_points_all_survive() {
        let pts = vec![(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)];
        let out = pareto_filter(pts.clone(), |&(a, b)| vec![a, b]);
        assert_eq!(out, pts);
    }

    #[test]
    fn exact_duplicates_keep_first() {
        let pts = vec![("a", 1.0), ("b", 1.0), ("c", 2.0)];
        let out = pareto_filter(pts, |&(_, v)| vec![v]);
        assert_eq!(out, vec![("a", 1.0)]);
    }

    #[test]
    fn single_metric_keeps_only_min() {
        let pts = vec![4.0, 2.0, 7.0, 2.5];
        let out = pareto_filter(pts, |&v| vec![v]);
        assert_eq!(out, vec![2.0]);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<f64> = pareto_filter(vec![], |&v: &f64| vec![v]);
        assert!(out.is_empty());
    }

    #[test]
    fn dominates_is_strict() {
        assert!(dominates(&[1.0, 2.0], &[1.0, 3.0]));
        assert!(!dominates(&[1.0, 2.0], &[1.0, 2.0]));
        assert!(!dominates(&[1.0, 4.0], &[2.0, 3.0]));
    }

    #[test]
    fn three_dimensional_frontier() {
        let pts = vec![
            vec![1.0, 1.0, 9.0],
            vec![1.0, 1.0, 8.0], // dominates the first
            vec![9.0, 0.5, 9.0],
            vec![0.5, 9.0, 9.0],
        ];
        let out = pareto_filter(pts, |v| v.clone());
        assert_eq!(out.len(), 3);
        assert!(!out.contains(&vec![1.0, 1.0, 9.0]));
    }
}
