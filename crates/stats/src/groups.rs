//! Rows grouped by exact bit pattern, so per-row work runs once per
//! distinct row.
//!
//! SimProf's feature rows repeat heavily. A unit's method-frequency vector
//! comes from ten call-stack snapshots, so a trace of thousands of units
//! often holds only tens of distinct rows. Every per-row kernel of the
//! k-selection sweep is a pure function of the row's bits and of state that
//! duplicates share: the Lloyd assignment step, the ++-seeding distances and
//! the silhouette distance walk. Those kernels run once per group and are
//! read back through [`RowGroups::group`]. Rows compare by `f64::to_bits`,
//! so `-0.0` and `+0.0`, or two NaN payloads, are different rows.

use std::cmp::Ordering;

use crate::matrix::Matrix;

/// A partition of `0..n` into groups, numbered in order of first member.
#[derive(Debug, Clone)]
pub(crate) struct RowGroups {
    /// The first (lowest) member of each group, ascending.
    pub(crate) reps: Vec<usize>,
    /// The group of every index.
    pub(crate) group: Vec<usize>,
}

impl RowGroups {
    /// Groups `data`'s rows by exact bit pattern.
    pub(crate) fn of(data: &Matrix) -> Self {
        Self::by(data.rows(), |a, b| {
            let bits = |i| data.row(i).iter().map(|v| v.to_bits());
            bits(a).cmp(bits(b))
        })
    }

    /// Every index its own group.
    pub(crate) fn identity(n: usize) -> Self {
        Self { reps: (0..n).collect(), group: (0..n).collect() }
    }

    /// Groups `0..n` by a total order: `cmp(a, b) == Equal` puts `a` and
    /// `b` in one group. Sorts indices, never copies keys.
    pub(crate) fn by(n: usize, cmp: impl Fn(usize, usize) -> Ordering) -> Self {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by(|&a, &b| cmp(a, b));
        // Number the runs of equal keys in sorted order, then renumber them
        // by first member.
        let mut group = vec![0usize; n];
        let mut runs = 0;
        for (p, &i) in order.iter().enumerate() {
            if p > 0 && cmp(order[p - 1], i) != Ordering::Equal {
                runs += 1;
            }
            group[i] = runs;
        }
        drop(order);
        let mut renumber = vec![usize::MAX; if n == 0 { 0 } else { runs + 1 }];
        let mut reps = Vec::new();
        for (i, g) in group.iter_mut().enumerate() {
            if renumber[*g] == usize::MAX {
                renumber[*g] = reps.len();
                reps.push(i);
            }
            *g = renumber[*g];
        }
        Self { reps, group }
    }

    /// Number of groups.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.reps.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_by_exact_bits_in_first_member_order() {
        let data = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![2.0, 0.0],
            vec![1.0, -0.0],
            vec![1.0, 0.0],
            vec![f64::NAN, 3.0],
            vec![2.0, 0.0],
            vec![f64::NAN, 3.0],
        ]);
        let g = RowGroups::of(&data);
        assert_eq!(g.reps, vec![0, 1, 2, 4]);
        assert_eq!(g.group, vec![0, 1, 2, 0, 3, 1, 3]);
    }

    #[test]
    fn identity_and_empty() {
        let g = RowGroups::identity(3);
        assert_eq!((g.reps, g.group), (vec![0, 1, 2], vec![0, 1, 2]));
        let e = RowGroups::of(&Matrix::zeros(0, 4));
        assert_eq!(e.len(), 0);
        assert!(e.group.is_empty());
    }

    #[test]
    fn by_refines_with_a_second_key() {
        let rows = RowGroups::of(&Matrix::from_rows(&vec![vec![5.0]; 4]));
        let labels = [1usize, 0, 1, 0];
        let g = RowGroups::by(4, |a, b| {
            rows.group[a].cmp(&rows.group[b]).then(labels[a].cmp(&labels[b]))
        });
        assert_eq!(g.reps, vec![0, 1]);
        assert_eq!(g.group, vec![0, 1, 0, 1]);
    }
}
