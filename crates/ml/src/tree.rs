//! CART regression trees.
//!
//! Variance-reduction (squared-error) splitting with the standard controls:
//! `max_depth`, `min_samples_split`, `min_samples_leaf`, and per-split
//! feature subsampling (`max_features`) — the knobs the paper grid-searches
//! for its Random Forest (§5.2.1).
//!
//! A split search orders each candidate feature's `(value, y)` pairs by
//! value and evaluates every cut point with running sums. `fit` ranks
//! every column once per tree (`SplitTables`), so a node orders a
//! feature with a counting sort over those ranks in `O(n + d)` for `n`
//! node rows and `d` distinct column values, with no comparisons. A
//! column with more distinct values than the node has rows is gathered
//! and sorted instead, `O(n log n)`. Both give the stable `total_cmp`
//! order, so the tree does not depend on which one ran.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::dataset::Matrix;
use crate::Regressor;

/// How many features to consider at each split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MaxFeatures {
    /// All features (classic CART, the Random Forest regressor default in
    /// scikit-learn ≥1.0 — the paper reports default parameters win).
    All,
    /// ⌈√p⌉ features.
    Sqrt,
    /// ⌈p/3⌉ features (the old regression-forest heuristic).
    Third,
    /// An explicit count (clamped to `p`).
    Count(usize),
}

impl MaxFeatures {
    /// Resolves to a concrete count for `p` features (always ≥ 1).
    pub fn resolve(&self, p: usize) -> usize {
        let k = match self {
            MaxFeatures::All => p,
            MaxFeatures::Sqrt => (p as f64).sqrt().ceil() as usize,
            MaxFeatures::Third => p.div_ceil(3),
            MaxFeatures::Count(k) => *k,
        };
        k.clamp(1, p)
    }
}

/// Tree growth controls.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeParams {
    /// Maximum depth; `None` grows until purity/minimum-sample limits.
    pub max_depth: Option<usize>,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples in each child.
    pub min_samples_leaf: usize,
    /// Feature subsampling rule per split.
    pub max_features: MaxFeatures,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: None,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: MaxFeatures::All,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

impl Node {
    fn predict(&self, row: &[f64]) -> f64 {
        match self {
            Node::Leaf { value } => *value,
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                if row[*feature] <= *threshold {
                    left.predict(row)
                } else {
                    right.predict(row)
                }
            }
        }
    }

    fn depth(&self) -> usize {
        match self {
            Node::Leaf { .. } => 0,
            Node::Split { left, right, .. } => 1 + left.depth().max(right.depth()),
        }
    }

    fn leaves(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Split { left, right, .. } => left.leaves() + right.leaves(),
        }
    }
}

/// A fitted CART regression tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTree {
    /// Growth controls.
    pub params: TreeParams,
    seed: u64,
    root: Option<Node>,
    n_features: usize,
}

impl DecisionTree {
    /// A tree with the given parameters and RNG seed (used only when
    /// `max_features` subsamples).
    pub fn new(params: TreeParams, seed: u64) -> Self {
        DecisionTree {
            params,
            seed,
            root: None,
            n_features: 0,
        }
    }

    /// Depth of the fitted tree (0 = single leaf).
    ///
    /// # Panics
    /// Panics before `fit`.
    pub fn depth(&self) -> usize {
        self.root.as_ref().expect("fitted").depth()
    }

    /// Leaf count of the fitted tree.
    ///
    /// # Panics
    /// Panics before `fit`.
    pub fn n_leaves(&self) -> usize {
        self.root.as_ref().expect("fitted").leaves()
    }

    /// A fitted tree with the given root — the rebuild hook for
    /// [`crate::flat::FlatForest`]'s stored arenas.
    pub(crate) fn from_root(params: TreeParams, seed: u64, root: Node, n_features: usize) -> Self {
        DecisionTree {
            params,
            seed,
            root: Some(root),
            n_features,
        }
    }

    /// Root node of the fitted tree, if any (compile hook for
    /// [`crate::flat::FlatForest`]).
    pub(crate) fn root(&self) -> Option<&Node> {
        self.root.as_ref()
    }

    /// Feature width this tree was fitted on (0 before `fit`).
    pub(crate) fn n_features(&self) -> usize {
        self.n_features
    }

    /// Grows the tree on `x`, `y`, finding each node's split with
    /// `best_split(indices, feats)`.
    fn grow(&mut self, x: &Matrix, y: &[f64], best_split: &mut SplitFn) {
        assert_eq!(x.rows(), y.len(), "x/y length mismatch");
        assert!(x.rows() > 0, "cannot fit on an empty dataset");
        assert!(self.params.min_samples_leaf >= 1, "min_samples_leaf ≥ 1");
        let mut indices: Vec<usize> = (0..x.rows()).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        self.n_features = x.cols();
        self.root = Some(self.build(x, y, &mut indices, 0, &mut rng, best_split));
    }

    fn build(
        &self,
        x: &Matrix,
        y: &[f64],
        indices: &mut [usize],
        depth: usize,
        rng: &mut ChaCha8Rng,
        best_split: &mut SplitFn,
    ) -> Node {
        let n = indices.len();
        let mean = indices.iter().map(|&i| y[i]).sum::<f64>() / n as f64;

        let depth_ok = self.params.max_depth.map(|d| depth < d).unwrap_or(true);
        if !depth_ok || n < self.params.min_samples_split {
            return Node::Leaf { value: mean };
        }
        // Pure node?
        let sse: f64 = indices.iter().map(|&i| (y[i] - mean) * (y[i] - mean)).sum();
        if sse <= 1e-24 {
            return Node::Leaf { value: mean };
        }

        let p = x.cols();
        let k = self.params.max_features.resolve(p);
        let mut feats: Vec<usize> = (0..p).collect();
        if k < p {
            feats.shuffle(rng);
            feats.truncate(k);
            feats.sort_unstable();
        }

        let best = best_split(indices, &feats);
        let Some((feature, threshold)) = best else {
            return Node::Leaf { value: mean };
        };

        // Partition indices in place: left = rows with value <= threshold.
        let mut lo = 0usize;
        let mut hi = indices.len();
        while lo < hi {
            if x.get(indices[lo], feature) <= threshold {
                lo += 1;
            } else {
                hi -= 1;
                indices.swap(lo, hi);
            }
        }
        if lo == 0 || lo == n {
            // The cut separated nothing (a negative NaN sorts below every
            // number yet fails every `<=`); recursing would revisit this
            // same node.
            return Node::Leaf { value: mean };
        }
        let (left_idx, right_idx) = indices.split_at_mut(lo);

        let left = self.build(x, y, left_idx, depth + 1, rng, best_split);
        let right = self.build(x, y, right_idx, depth + 1, rng, best_split);
        Node::Split {
            feature,
            threshold,
            left: Box::new(left),
            right: Box::new(right),
        }
    }
}

/// A node's split search: `(indices, candidate features)` → the
/// `(feature, threshold)` minimizing child SSE, or `None`.
type SplitFn<'a> = dyn FnMut(&[usize], &[usize]) -> Option<(usize, f64)> + 'a;

/// The cut between adjacent distinct sorted values: their midpoint, or
/// `v_prev` when the midpoint rounds onto `v_next` or overflows
/// (scikit-learn's rule), so `x <= threshold` keeps `v_prev` left and
/// `v_next` right.
fn cut_between(v_prev: f64, v_next: f64) -> f64 {
    let mid = 0.5 * (v_prev + v_next);
    if v_prev <= mid && mid < v_next {
        mid
    } else {
        v_prev
    }
}

/// Per-tree split-search tables, built once in `fit` and reused by every
/// node: a column-major copy of `x`, each row's rank within each column,
/// and the pair and count buffers a node fills.
struct SplitTables<'a> {
    y: &'a [f64],
    min_leaf: usize,
    rows: usize,
    /// Column `j` is `cols[j * rows..(j + 1) * rows]`.
    cols: Vec<f64>,
    /// `ranks[j * rows + i]`: dense rank of `x[i, j]` among column `j`'s
    /// distinct values under `f64::total_cmp`.
    ranks: Vec<u32>,
    /// Distinct values per column.
    distinct: Vec<usize>,
    /// A node's `(value, y)` pairs in stable value order.
    pairs: Vec<(f64, f64)>,
    /// Counting-sort buckets, one per distinct value.
    counts: Vec<u32>,
}

impl<'a> SplitTables<'a> {
    fn new(x: &Matrix, y: &'a [f64], min_leaf: usize) -> Self {
        let (rows, p) = (x.rows(), x.cols());
        assert!(u32::try_from(rows).is_ok(), "too many rows to rank");
        let mut cols = Vec::with_capacity(rows * p);
        for j in 0..p {
            cols.extend((0..rows).map(|i| x.get(i, j)));
        }
        let mut ranks = vec![0u32; rows * p];
        let mut distinct = Vec::with_capacity(p);
        let mut order: Vec<usize> = (0..rows).collect();
        for j in 0..p {
            let col = &cols[j * rows..(j + 1) * rows];
            let rank = &mut ranks[j * rows..(j + 1) * rows];
            order.sort_unstable_by(|&a, &b| col[a].total_cmp(&col[b]));
            let mut r = 0u32;
            for w in 1..rows {
                if col[order[w]].total_cmp(&col[order[w - 1]]).is_ne() {
                    r += 1;
                }
                rank[order[w]] = r;
            }
            distinct.push(r as usize + 1);
        }
        let max_distinct = distinct.iter().copied().max().unwrap_or(0);
        SplitTables {
            y,
            min_leaf,
            rows,
            cols,
            ranks,
            distinct,
            pairs: vec![(0.0, 0.0); rows],
            counts: vec![0; max_distinct],
        }
    }

    /// Fills `pairs[..indices.len()]` with the node's `(x[i, j], y[i])`,
    /// stably sorted by value under `f64::total_cmp`: ties keep the order
    /// of `indices`.
    fn sort_node(&mut self, indices: &[usize], j: usize) {
        let col = &self.cols[j * self.rows..(j + 1) * self.rows];
        let y = self.y;
        let pairs = &mut self.pairs[..indices.len()];
        let d = self.distinct[j];
        if d > indices.len() {
            for (slot, &i) in pairs.iter_mut().zip(indices) {
                *slot = (col[i], y[i]);
            }
            pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
            return;
        }
        let rank = &self.ranks[j * self.rows..(j + 1) * self.rows];
        let counts = &mut self.counts[..d];
        counts.fill(0);
        for &i in indices {
            counts[rank[i] as usize] += 1;
        }
        // Exclusive prefix sum: `counts[r]` becomes rank r's first slot.
        let mut next = 0u32;
        for c in counts.iter_mut() {
            let k = *c;
            *c = next;
            next += k;
        }
        for &i in indices {
            let slot = &mut counts[rank[i] as usize];
            pairs[*slot as usize] = (col[i], y[i]);
            *slot += 1;
        }
    }

    /// Finds the (feature, threshold) minimizing child SSE, or `None` when
    /// no valid split exists (all candidate features constant or
    /// `min_samples_leaf` unsatisfiable).
    fn best_split(&mut self, indices: &[usize], feats: &[usize]) -> Option<(usize, f64)> {
        let n = indices.len();
        let min_leaf = self.min_leaf;
        let y = self.y;
        let total_sum: f64 = indices.iter().map(|&i| y[i]).sum();
        let total_sq: f64 = indices.iter().map(|&i| y[i] * y[i]).sum();

        let mut best: Option<(usize, f64, f64)> = None; // (feat, thr, score)
        for &j in feats {
            self.sort_node(indices, j);
            let pairs = &self.pairs[..n];
            if pairs[0].0 == pairs[n - 1].0 {
                continue; // constant feature
            }
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            for split in 1..n {
                let (v_prev, y_prev) = pairs[split - 1];
                left_sum += y_prev;
                left_sq += y_prev * y_prev;
                let v_next = pairs[split].0;
                if v_prev == v_next {
                    continue; // cannot cut between equal values
                }
                if split < min_leaf || n - split < min_leaf {
                    continue;
                }
                let nl = split as f64;
                let nr = (n - split) as f64;
                let right_sum = total_sum - left_sum;
                let right_sq = total_sq - left_sq;
                let sse_l = left_sq - left_sum * left_sum / nl;
                let sse_r = right_sq - right_sum * right_sum / nr;
                let score = sse_l + sse_r;
                let better = match best {
                    None => true,
                    Some((_, _, s)) => score < s,
                };
                if better {
                    best = Some((j, cut_between(v_prev, v_next), score));
                }
            }
        }
        best.map(|(f, t, _)| (f, t))
    }
}

impl Regressor for DecisionTree {
    fn fit(&mut self, x: &Matrix, y: &[f64]) {
        let mut tables = SplitTables::new(x, y, self.params.min_samples_leaf);
        self.grow(x, y, &mut |indices: &[usize], feats: &[usize]| {
            tables.best_split(indices, feats)
        });
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        let root = self.root.as_ref().expect("predict before fit");
        assert_eq!(row.len(), self.n_features, "feature count mismatch");
        root.predict(row)
    }
}

/// The sort-based split search the rank tables replaced, kept as the
/// oracle the tables must match bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// Gathers and stably sorts every candidate feature at every node.
    fn best_split(
        x: &Matrix,
        y: &[f64],
        indices: &[usize],
        feats: &[usize],
        min_leaf: usize,
    ) -> Option<(usize, f64)> {
        let n = indices.len();
        let total_sum: f64 = indices.iter().map(|&i| y[i]).sum();
        let total_sq: f64 = indices.iter().map(|&i| y[i] * y[i]).sum();

        let mut best: Option<(usize, f64, f64)> = None; // (feat, thr, score)
        let mut pairs: Vec<(f64, f64)> = Vec::with_capacity(n);
        for &j in feats {
            pairs.clear();
            pairs.extend(indices.iter().map(|&i| (x.get(i, j), y[i])));
            pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
            if pairs[0].0 == pairs[n - 1].0 {
                continue; // constant feature
            }
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            for split in 1..n {
                let (v_prev, y_prev) = pairs[split - 1];
                left_sum += y_prev;
                left_sq += y_prev * y_prev;
                let v_next = pairs[split].0;
                if v_prev == v_next {
                    continue; // cannot cut between equal values
                }
                if split < min_leaf || n - split < min_leaf {
                    continue;
                }
                let nl = split as f64;
                let nr = (n - split) as f64;
                let right_sum = total_sum - left_sum;
                let right_sq = total_sq - left_sq;
                let sse_l = left_sq - left_sum * left_sum / nl;
                let sse_r = right_sq - right_sum * right_sum / nr;
                let score = sse_l + sse_r;
                let better = match best {
                    None => true,
                    Some((_, _, s)) => score < s,
                };
                if better {
                    let thr = 0.5 * (v_prev + v_next);
                    best = Some((j, thr, score));
                }
            }
        }
        best.map(|(f, t, _)| (f, t))
    }

    /// Fits `tree` with the sort-based search.
    pub(crate) fn fit_sorted(tree: &mut DecisionTree, x: &Matrix, y: &[f64]) {
        let min_leaf = tree.params.min_samples_leaf;
        tree.grow(x, y, &mut |indices: &[usize], feats: &[usize]| {
            best_split(x, y, indices, feats, min_leaf)
        });
    }

    /// The fitted tree in preorder: `(feature, threshold bits)` per split,
    /// `(usize::MAX, value bits)` per leaf.
    pub(crate) fn preorder(tree: &DecisionTree) -> Vec<(usize, u64)> {
        fn walk(node: &Node, out: &mut Vec<(usize, u64)>) {
            match node {
                Node::Leaf { value } => out.push((usize::MAX, value.to_bits())),
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    out.push((*feature, threshold.to_bits()));
                    walk(left, out);
                    walk(right, out);
                }
            }
        }
        let mut out = Vec::new();
        walk(tree.root.as_ref().expect("fitted"), &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{fit_sorted, preorder};
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;

    fn step_data() -> (Matrix, Vec<f64>) {
        // y = 1 for x < 0.5, y = 5 for x >= 0.5
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 20.0]).collect();
        let y = rows
            .iter()
            .map(|r| if r[0] < 0.5 { 1.0 } else { 5.0 })
            .collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn learns_step_function_exactly() {
        let (x, y) = step_data();
        let mut t = DecisionTree::new(TreeParams::default(), 0);
        t.fit(&x, &y);
        assert_eq!(t.predict_row(&[0.1]), 1.0);
        assert_eq!(t.predict_row(&[0.9]), 5.0);
        // A single split suffices.
        assert_eq!(t.n_leaves(), 2);
    }

    #[test]
    fn depth_zero_cap_yields_mean_leaf() {
        let (x, y) = step_data();
        let mut t = DecisionTree::new(
            TreeParams {
                max_depth: Some(0),
                ..Default::default()
            },
            0,
        );
        t.fit(&x, &y);
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        assert_eq!(t.predict_row(&[0.3]), mean);
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let (x, y) = step_data();
        let mut t = DecisionTree::new(
            TreeParams {
                min_samples_leaf: 8,
                ..Default::default()
            },
            0,
        );
        t.fit(&x, &y);
        // With 20 points and a leaf minimum of 8 at most one split fits per
        // path near the boundary; the tree must stay shallow.
        assert!(t.depth() <= 2);
    }

    #[test]
    fn interpolates_smooth_function_reasonably() {
        let rows: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64 / 200.0]).collect();
        let y: Vec<f64> = rows.iter().map(|r| (r[0] * 6.0).sin()).collect();
        let x = Matrix::from_rows(&rows);
        let mut t = DecisionTree::new(TreeParams::default(), 0);
        t.fit(&x, &y);
        for (i, r) in x.iter_rows().enumerate().step_by(17) {
            assert!((t.predict_row(r) - y[i]).abs() < 0.05);
        }
    }

    #[test]
    fn constant_features_give_single_leaf() {
        let x = Matrix::from_rows(&[vec![1.0], vec![1.0], vec![1.0]]);
        let y = vec![1.0, 2.0, 3.0];
        let mut t = DecisionTree::new(TreeParams::default(), 0);
        t.fit(&x, &y);
        assert_eq!(t.n_leaves(), 1);
        assert!((t.predict_row(&[1.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn multifeature_split_picks_informative_one() {
        // Feature 0 is noise; feature 1 carries the signal.
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![((i * 31) % 7) as f64, (i % 2) as f64])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| r[1] * 10.0).collect();
        let x = Matrix::from_rows(&rows);
        let mut t = DecisionTree::new(TreeParams::default(), 0);
        t.fit(&x, &y);
        assert_eq!(t.predict_row(&[3.0, 0.0]), 0.0);
        assert_eq!(t.predict_row(&[3.0, 1.0]), 10.0);
    }

    #[test]
    fn max_features_resolution() {
        assert_eq!(MaxFeatures::All.resolve(10), 10);
        assert_eq!(MaxFeatures::Sqrt.resolve(10), 4);
        assert_eq!(MaxFeatures::Third.resolve(10), 4);
        assert_eq!(MaxFeatures::Count(3).resolve(10), 3);
        assert_eq!(MaxFeatures::Count(99).resolve(10), 10);
        assert_eq!(MaxFeatures::Count(0).resolve(10), 1);
    }

    #[test]
    fn deterministic_with_feature_subsampling() {
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![(i % 5) as f64, (i % 7) as f64, (i % 3) as f64])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] + 2.0 * r[1]).collect();
        let x = Matrix::from_rows(&rows);
        let params = TreeParams {
            max_features: MaxFeatures::Count(2),
            ..Default::default()
        };
        let mut a = DecisionTree::new(params, 5);
        let mut b = DecisionTree::new(params, 5);
        a.fit(&x, &y);
        b.fit(&x, &y);
        assert_eq!(a, b);
    }

    /// Fits a two-row, one-column tree with targets `[0, 1]`.
    fn two_rows(a: f64, b: f64) -> DecisionTree {
        let x = Matrix::from_rows(&[vec![a], vec![b]]);
        let mut t = DecisionTree::new(TreeParams::default(), 0);
        t.fit(&x, &[0.0, 1.0]);
        t
    }

    fn assert_separates(a: f64, b: f64) {
        let t = two_rows(a, b);
        assert_eq!(t.n_leaves(), 2);
        assert_eq!(t.predict_row(&[a]), 0.0);
        assert_eq!(t.predict_row(&[b]), 1.0);
    }

    #[test]
    fn adjacent_doubles_split_at_the_lower_value() {
        let a = 1.0 + f64::EPSILON;
        let b = f64::from_bits(a.to_bits() + 1);
        assert_eq!(0.5 * (a + b), b, "the midpoint rounds onto the upper value");
        assert_separates(a, b);
        assert_eq!(cut_between(a, b), a);
    }

    #[test]
    fn infinite_value_splits_at_the_finite_one() {
        assert_separates(1.0, f64::INFINITY);
        assert_eq!(cut_between(1.0, f64::INFINITY), 1.0);
    }

    #[test]
    fn overflowing_midpoint_splits_at_the_lower_value() {
        assert!((1e308 + 1.7e308_f64).is_infinite());
        assert_separates(1e308, 1.7e308);
        assert_eq!(cut_between(1e308, 1.7e308), 1e308);
    }

    #[test]
    fn nan_column_fits_without_recursing_forever() {
        // A positive NaN sorts last: the cut at 1 separates it.
        assert_separates(1.0, f64::NAN);
        // A negative NaN sorts first but fails every `<=`: the cut
        // separates nothing, so the node stays a leaf.
        let t = two_rows(-f64::NAN, 1.0);
        assert_eq!(t.n_leaves(), 1);
        assert_eq!(t.predict_row(&[1.0]), 0.5);
    }

    /// A random design whose columns each draw from one of five value
    /// pools, plus duplicated rows.
    fn oracle_data(seed: u64, rows: usize, kinds: &[u8], dups: usize) -> (Matrix, Vec<f64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut x: Vec<Vec<f64>> = (0..rows)
            .map(|_| {
                kinds
                    .iter()
                    .map(|kind| match kind {
                        // Heavy ties.
                        0 => rng.gen_range(0..3u32) as f64,
                        // Signed zeros: distinct ranks, equal values.
                        1 => [-0.0, 0.0, -1.0, 1.0, 0.5][rng.gen_range(0..5usize)],
                        // More distinct values than most nodes have rows.
                        2 => rng.gen_range(-1e3..1e3),
                        3 => rng.gen_range(0..20u32) as f64 * 0.25 - 2.0,
                        // Many distinct values, half the rows tied on
                        // signed zeros or one.
                        _ if rng.gen_bool(0.5) => [-0.0, 0.0, 1.0][rng.gen_range(0..3usize)],
                        _ => rng.gen_range(-1e3..1e3),
                    })
                    .collect()
            })
            .collect();
        for _ in 0..dups {
            let row = x[rng.gen_range(0..rows)].clone();
            x.push(row);
        }
        let y = x
            .iter()
            .map(|r| {
                if seed.is_multiple_of(2) {
                    rng.gen_range(0..4u32) as f64
                } else {
                    r.iter().sum::<f64>() + rng.gen_range(-1.0..1.0)
                }
            })
            .collect();
        (Matrix::from_rows(&x), y)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Rank-counting split search grows the same tree, bit for bit, as
        /// gathering and sorting every feature at every node.
        #[test]
        fn rank_tables_match_the_sorting_search(
            seed in 0u64..1_000_000,
            rows in 2usize..80,
            kinds in proptest::collection::vec(0u8..5, 1..5),
            dups in 0usize..20,
            max_features in 0usize..5,
            min_samples_leaf in 1usize..4,
            max_depth in 0usize..8,
        ) {
            let (x, y) = oracle_data(seed, rows, &kinds, dups);
            let params = TreeParams {
                max_depth: (max_depth < 6).then_some(max_depth),
                min_samples_split: 2,
                min_samples_leaf,
                max_features: match max_features {
                    0 => MaxFeatures::All,
                    k => MaxFeatures::Count(k),
                },
            };
            let mut fast = DecisionTree::new(params, seed);
            fast.fit(&x, &y);
            let mut oracle = DecisionTree::new(params, seed);
            fit_sorted(&mut oracle, &x, &y);
            prop_assert_eq!(preorder(&fast), preorder(&oracle));
        }

        /// Either branch of `sort_node` yields a node's pairs in the order
        /// a stable `total_cmp` sort gives, down to the sign of a zero.
        #[test]
        fn node_pairs_come_out_in_stable_value_order(
            seed in 0u64..1_000_000,
            rows in 2usize..80,
            kinds in proptest::collection::vec(0u8..5, 1..4),
            keep in 1usize..80,
        ) {
            let (x, y) = oracle_data(seed, rows, &kinds, 0);
            let mut tables = SplitTables::new(&x, &y, 1);
            let mut rng = ChaCha8Rng::seed_from_u64(!seed);
            let mut indices: Vec<usize> = (0..rows).collect();
            indices.shuffle(&mut rng);
            indices.truncate(keep.min(rows));
            for j in 0..x.cols() {
                let mut expect: Vec<(f64, f64)> =
                    indices.iter().map(|&i| (x.get(i, j), y[i])).collect();
                expect.sort_by(|a, b| a.0.total_cmp(&b.0));
                tables.sort_node(&indices, j);
                let bits = |p: &[(f64, f64)]| -> Vec<(u64, u64)> {
                    p.iter().map(|(v, y)| (v.to_bits(), y.to_bits())).collect()
                };
                prop_assert_eq!(bits(&tables.pairs[..indices.len()]), bits(&expect));
            }
        }
    }
}
