//! Merge trees produced by hierarchical clustering.

/// One agglomeration step. Cluster ids: `0..n` are leaves; merge `i`
/// creates cluster `n + i`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Merge {
    /// First merged cluster id.
    pub a: usize,
    /// Second merged cluster id.
    pub b: usize,
    /// Linkage distance at which the merge happened.
    pub distance: f64,
    /// Size of the new cluster.
    pub size: usize,
}

/// A full agglomeration history over `n` leaves (`n - 1` merges,
/// sorted by non-decreasing distance).
#[derive(Debug, Clone, PartialEq)]
pub struct Dendrogram {
    /// Number of leaves.
    pub n: usize,
    /// Merges in distance order.
    pub merges: Vec<Merge>,
}

impl Dendrogram {
    /// Flat cluster assignment with exactly `k` clusters (1 ≤ k ≤ n):
    /// replays all but the last `k − 1` merges. Returned labels are
    /// `0..k`, renumbered in first-appearance order.
    ///
    /// # Panics
    /// Panics when `k` is 0 or greater than `n`.
    pub fn cut_k(&self, k: usize) -> Vec<usize> {
        assert!(k >= 1 && k <= self.n, "k={k} out of range 1..={}", self.n);
        let merges_to_apply = self.n - k;
        // Union-find over leaf ids plus merge ids.
        let total = self.n + merges_to_apply;
        let mut parent: Vec<usize> = (0..total).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for (i, m) in self.merges.iter().take(merges_to_apply).enumerate() {
            let new_id = self.n + i;
            let ra = find(&mut parent, m.a);
            let rb = find(&mut parent, m.b);
            parent[ra] = new_id;
            parent[rb] = new_id;
        }
        // Renumber roots to consecutive small labels.
        let mut label_of_root: Vec<(usize, usize)> = Vec::new();
        let mut labels = vec![0usize; self.n];
        for (leaf, slot) in labels.iter_mut().enumerate() {
            let r = find(&mut parent, leaf);
            let label = match label_of_root.iter().find(|(root, _)| *root == r) {
                Some((_, l)) => *l,
                None => {
                    let l = label_of_root.len();
                    label_of_root.push((r, l));
                    l
                }
            };
            *slot = label;
        }
        labels
    }

    /// Inconsistency-guided clusters (MATLAB `cluster('cutoff',...)`
    /// style): descending from the root, a node is split when its
    /// merge distance exceeds `gamma ×` the larger child's own top
    /// merge distance — i.e. when the join is *inconsistent* with the
    /// children's internal structure. Children smaller than `min_size`
    /// produced by a split are returned as noise (the paper's
    /// uncovered samples). Returns `(clusters, noise)`.
    pub fn inconsistent_clusters(
        &self,
        min_size: usize,
        gamma: f64,
    ) -> (Vec<Vec<usize>>, Vec<usize>) {
        let min_size = min_size.max(1);
        if self.merges.is_empty() {
            return ((0..self.n).map(|i| vec![i]).collect(), Vec::new());
        }
        let dist_of = |id: usize| -> f64 {
            if id < self.n {
                0.0
            } else {
                self.merges[id - self.n].distance
            }
        };
        let size_of = |id: usize| -> usize {
            if id < self.n {
                1
            } else {
                self.merges[id - self.n].size
            }
        };
        let mut clusters = Vec::new();
        let mut noise = Vec::new();
        let mut stack = vec![self.n + self.merges.len() - 1];
        while let Some(id) = stack.pop() {
            if size_of(id) < min_size {
                noise.extend(self.leaves_of(id));
                continue;
            }
            let split = if id >= self.n {
                let m = &self.merges[id - self.n];
                let child_scale = dist_of(m.a).max(dist_of(m.b));
                // Split when the join is inconsistent with the
                // children's internal scales — but never shatter a
                // node whose pieces would all be sub-minimum.
                let some_child_viable = size_of(m.a) >= min_size || size_of(m.b) >= min_size;
                some_child_viable && m.distance > gamma * child_scale
            } else {
                false
            };
            if split {
                let m = &self.merges[id - self.n];
                stack.push(m.a);
                stack.push(m.b);
            } else {
                clusters.push(self.leaves_of(id));
            }
        }
        (clusters, noise)
    }

    /// All leaves under a node id.
    fn leaves_of(&self, id: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(x) = stack.pop() {
            if x < self.n {
                out.push(x);
            } else {
                let m = &self.merges[x - self.n];
                stack.push(m.a);
                stack.push(m.b);
            }
        }
        out.sort_unstable();
        out
    }

    /// Leaf ordering for heat-map display: a depth-first traversal of
    /// the merge tree so that merged clusters are contiguous.
    pub fn leaf_order(&self) -> Vec<usize> {
        if self.n == 0 {
            return Vec::new();
        }
        if self.merges.is_empty() {
            return (0..self.n).collect();
        }
        // children[merge_id - n] = (a, b)
        let root = self.n + self.merges.len() - 1;
        let mut order = Vec::with_capacity(self.n);
        let mut stack = vec![root];
        let mut is_child = vec![false; self.n + self.merges.len()];
        for m in &self.merges {
            is_child[m.a] = true;
            is_child[m.b] = true;
        }
        // Handle forests defensively (shouldn't occur for full runs):
        // push every root.
        let mut roots: Vec<usize> = (0..self.n + self.merges.len())
            .filter(|&id| !is_child[id])
            .collect();
        roots.reverse();
        if roots.len() > 1 {
            stack = roots;
        }
        while let Some(id) = stack.pop() {
            if id < self.n {
                order.push(id);
            } else {
                let m = &self.merges[id - self.n];
                // Push b first so a is visited first.
                stack.push(m.b);
                stack.push(m.a);
            }
        }
        order
    }

    /// The cophenetic distance of every leaf pair in condensed order
    /// (the linkage distance at which the pair first shares a
    /// cluster).
    pub fn cophenetic_distances(&self) -> Vec<f64> {
        let n = self.n;
        let mut out = vec![0.0; n * (n - 1) / 2];
        // members[cluster] — built incrementally over merges.
        let mut members: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        for m in &self.merges {
            let a = std::mem::take(&mut members[m.a]);
            let b = std::mem::take(&mut members[m.b]);
            for &x in &a {
                for &y in &b {
                    let (i, j) = if x < y { (x, y) } else { (y, x) };
                    out[psigene_linalg::distance::condensed_index(n, i, j)] = m.distance;
                }
            }
            let mut merged = a;
            merged.extend(b);
            members.push(merged);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dendrogram over 4 leaves: (0,1)@1, (2,3)@2, ((01),(23))@5.
    fn sample() -> Dendrogram {
        Dendrogram {
            n: 4,
            merges: vec![
                Merge {
                    a: 0,
                    b: 1,
                    distance: 1.0,
                    size: 2,
                },
                Merge {
                    a: 2,
                    b: 3,
                    distance: 2.0,
                    size: 2,
                },
                Merge {
                    a: 4,
                    b: 5,
                    distance: 5.0,
                    size: 4,
                },
            ],
        }
    }

    #[test]
    fn cut_k_extremes() {
        let d = sample();
        assert_eq!(d.cut_k(4), vec![0, 1, 2, 3]);
        assert_eq!(d.cut_k(1), vec![0, 0, 0, 0]);
    }

    #[test]
    fn cut_k_two_groups() {
        let d = sample();
        let labels = d.cut_k(2);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
    }

    #[test]
    fn leaf_order_keeps_clusters_contiguous() {
        let d = sample();
        let order = d.leaf_order();
        assert_eq!(order.len(), 4);
        let pos = |x: usize| order.iter().position(|&o| o == x).unwrap();
        assert_eq!((pos(0) as i64 - pos(1) as i64).abs(), 1);
        assert_eq!((pos(2) as i64 - pos(3) as i64).abs(), 1);
    }

    #[test]
    fn cophenetic_distances_match_merge_heights() {
        let d = sample();
        let c = d.cophenetic_distances();
        let idx = |i, j| psigene_linalg::distance::condensed_index(4, i, j);
        assert_eq!(c[idx(0, 1)], 1.0);
        assert_eq!(c[idx(2, 3)], 2.0);
        assert_eq!(c[idx(0, 2)], 5.0);
        assert_eq!(c[idx(1, 3)], 5.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cut_k_zero_panics() {
        sample().cut_k(0);
    }

    #[test]
    fn inconsistent_clusters_split_separated_groups() {
        // (0,1)@1 and (2,3)@2 joined at 5: the root join (5) is
        // inconsistent with child scales (1, 2) → split; the children
        // are internally consistent → kept.
        let d = sample();
        let (clusters, noise) = d.inconsistent_clusters(2, 1.5);
        assert!(noise.is_empty());
        assert_eq!(clusters.len(), 2);
        assert!(clusters.contains(&vec![0, 1]));
        assert!(clusters.contains(&vec![2, 3]));
    }

    #[test]
    fn inconsistent_clusters_peel_outliers_as_noise() {
        // Pair (0,1)@1, then leaf 2 attached at 10, leaf 3 at 12.
        let d = Dendrogram {
            n: 4,
            merges: vec![
                Merge {
                    a: 0,
                    b: 1,
                    distance: 1.0,
                    size: 2,
                },
                Merge {
                    a: 4,
                    b: 2,
                    distance: 10.0,
                    size: 3,
                },
                Merge {
                    a: 5,
                    b: 3,
                    distance: 12.0,
                    size: 4,
                },
            ],
        };
        // Gamma below the chain ratio (12/10 = 1.2) peels both
        // outliers; the surviving pair is kept whole because its own
        // split would shatter below the minimum size.
        let (clusters, mut noise) = d.inconsistent_clusters(2, 1.15);
        assert_eq!(clusters, vec![vec![0, 1]]);
        noise.sort_unstable();
        assert_eq!(noise, vec![2, 3]);
    }
}
