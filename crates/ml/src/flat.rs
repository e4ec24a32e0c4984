//! Flattened Random Forest inference.
//!
//! [`FlatForest`] compiles a fitted [`RandomForest`] into a contiguous
//! struct-of-arrays node arena for the governor's online hot path. The
//! pointer-based trees in [`crate::tree`] are ideal for training (recursive
//! construction, cheap structural sharing in tests) but hostile to serving:
//! every descent chases `Box<Node>` pointers scattered across the heap, and
//! every level pays an enum-tag branch.
//!
//! The flat layout stores one node per index across three parallel arrays:
//!
//! * `feature[i]` — split feature as `u16` (`0` for leaves);
//! * `threshold[i]` — split threshold, or the **leaf value** for leaves;
//! * `child[i]` — index of the left child, or `0` for a leaf.
//!
//! Nodes are emitted in BFS order per tree and a split's two children always
//! occupy adjacent slots, so `right == left + 1` and descent is
//! near-branchless: `idx = child[idx] + (go_right as u32)`. Index `0` is
//! always the first tree's root — never a child — which makes `child == 0`
//! an unambiguous leaf sentinel without a separate tag array.
//!
//! Predictions are **bit-identical** to the pointer walk: the comparison is
//! the same `row[feature] <= threshold` (negated for the right step, so NaN
//! features fall right exactly as the recursive walk does), per-row tree
//! contributions accumulate in tree order, and the mean divides once by the
//! tree count — the precise float schedule of
//! `RandomForest`'s [`Regressor::predict_row`](crate::Regressor::predict_row).
//!
//! [`FlatForest::predict_batch`] additionally evaluates *feature-major*:
//! the outer loop walks one tree across every row before moving to the next
//! tree, so a tree's ~few-KiB arena stays resident in L1/L2 for the whole
//! batch instead of re-streaming the entire forest per row.
//!
//! # Stored arenas
//!
//! The arena is also the stored form of a forest, and a loader serves it as
//! read instead of recompiling. It serializes as five fields: `n_features`
//! and `roots` as JSON numbers, and the `feature`, `threshold` and `child`
//! columns each as one string of fixed-width, big-endian, lowercase hex
//! words, one word per node — 4 digits of the `u16` feature, 16 of the
//! threshold's IEEE-754 bits, 8 of the `u32` child. The words carry the
//! exact bits, and a column reads back in one pass with no JSON value per
//! node, which is what makes loading a model cheap: a forest's nested tree
//! JSON is about twice the size and several times slower to read.
//!
//! Deserializing checks the arena against the exact layout
//! [`FlatForest::compile`] emits and refuses anything else with an error,
//! never a panic or an endless walk; [`RandomForest::from_flat`] rebuilds
//! the pointer forest from it, the lossless inverse of `compile`.

use std::fmt;

use serde::{DeError, Deserialize, Serialize, Value};

use crate::dataset::Matrix;
use crate::forest::RandomForest;
use crate::tree::Node;

/// `child` sentinel marking a leaf (arena slot 0 is always a root, so no
/// real child can ever be 0).
const LEAF: u32 = 0;

/// Deepest tree (in split levels) a stored arena may hold. The pointer
/// trees it rebuilds into are walked and dropped recursively, so a stored
/// chain must not be able to exhaust the stack. Tree JSON nests two levels
/// per tree level under the JSON parser's 512-level limit, so no forest
/// that loads as trees is refused here.
pub const MAX_TREE_DEPTH: usize = 256;

/// Why a stored arena or a forest was refused: the first broken layout
/// invariant, named with the node or tree it was found at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArenaError(String);

impl fmt::Display for ArenaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArenaError {}

impl ArenaError {
    pub(crate) fn new(msg: String) -> Self {
        ArenaError(msg)
    }
}

fn refuse<T>(msg: String) -> Result<T, ArenaError> {
    Err(ArenaError(msg))
}

/// A [`RandomForest`] compiled to a contiguous struct-of-arrays layout.
///
/// Trained models compile it once; stored models carry it (see the module
/// docs), so a loaded model serves the arena it was saved with.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatForest {
    n_features: usize,
    /// Arena index of each tree's root, in tree order.
    roots: Vec<u32>,
    feature: Vec<u16>,
    threshold: Vec<f64>,
    child: Vec<u32>,
}

impl FlatForest {
    /// Compiles a fitted forest into the flat arena.
    ///
    /// # Panics
    /// Panics if the forest is unfitted, has ≥ `u16::MAX` features, or more
    /// than `u32::MAX - 1` total nodes (far beyond any forest this repo
    /// trains).
    pub fn compile(forest: &RandomForest) -> Self {
        match FlatForest::try_compile(forest) {
            Ok(flat) => flat,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`FlatForest::compile`] that reports an unfitted forest, a feature
    /// index past the trees' width or beyond `u16`, or a node count beyond
    /// `u32` as an error instead of panicking — the compile step of a
    /// forest read from tree JSON.
    pub fn try_compile(forest: &RandomForest) -> Result<Self, ArenaError> {
        let trees = forest.trees();
        let Some(first) = trees.first() else {
            return refuse("flatten before fit".into());
        };
        let n_features = first.n_features();
        if n_features >= usize::from(u16::MAX) {
            return refuse(format!(
                "feature index must fit u16 ({n_features} features)"
            ));
        }

        let mut flat = FlatForest {
            n_features,
            roots: Vec::with_capacity(trees.len()),
            feature: Vec::new(),
            threshold: Vec::new(),
            child: Vec::new(),
        };
        for (t, tree) in trees.iter().enumerate() {
            let Some(root) = tree.root() else {
                return refuse("flatten before fit".into());
            };
            if tree.n_features() != n_features {
                return refuse(format!(
                    "tree {t} has {} features, tree 0 has {n_features}",
                    tree.n_features()
                ));
            }
            let slot = flat.emit_tree(root)?;
            flat.roots.push(slot);
        }
        Ok(flat)
    }

    /// Emits one tree in BFS order, returning its root's arena index.
    /// A split's children are pushed together so `right == left + 1`.
    fn emit_tree(&mut self, root: &Node) -> Result<u32, ArenaError> {
        let base = self.push_slot()?;
        let mut queue: std::collections::VecDeque<(&Node, u32)> = std::collections::VecDeque::new();
        queue.push_back((root, base));
        while let Some((node, slot)) = queue.pop_front() {
            let slot_us = slot as usize;
            match node {
                Node::Leaf { value } => {
                    self.threshold[slot_us] = *value;
                    self.child[slot_us] = LEAF;
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    if *feature >= self.n_features {
                        return refuse(format!(
                            "split feature {feature} out of range for {} features",
                            self.n_features
                        ));
                    }
                    let left_slot = self.push_slot()?;
                    let right_slot = self.push_slot()?;
                    debug_assert_eq!(right_slot, left_slot + 1);
                    self.feature[slot_us] = *feature as u16;
                    self.threshold[slot_us] = *threshold;
                    self.child[slot_us] = left_slot;
                    queue.push_back((left, left_slot));
                    queue.push_back((right, right_slot));
                }
            }
        }
        Ok(base)
    }

    /// Reserves one arena slot, returning its index.
    fn push_slot(&mut self) -> Result<u32, ArenaError> {
        let idx = self.feature.len();
        if idx >= u32::MAX as usize {
            return refuse("node count must fit u32".into());
        }
        self.feature.push(0);
        self.threshold.push(0.0);
        self.child.push(LEAF);
        Ok(idx as u32)
    }

    /// Checks a stored arena against the layout [`FlatForest::compile`]
    /// emits, so serving it can neither index out of bounds nor loop, and
    /// rebuilding its pointer trees is the exact inverse of compiling
    /// them. Linear in the node count; no recursion.
    ///
    /// The arrays have one length; `roots` is non-empty and strictly
    /// increasing within the arena; every value is finite; a split's
    /// feature is below `n_features` and its `child` follows its own index
    /// with `child + 1` in range; a leaf carries feature `0`. Beyond those,
    /// each tree must be one contiguous BFS run starting where the
    /// previous tree ended, every split taking the next two free slots —
    /// which makes every node the child of exactly one split — and no
    /// deeper than [`MAX_TREE_DEPTH`].
    pub fn validate(&self) -> Result<(), ArenaError> {
        let n = self.feature.len();
        if self.threshold.len() != n || self.child.len() != n {
            return refuse(format!(
                "arena arrays differ in length: feature {n}, threshold {}, child {}",
                self.threshold.len(),
                self.child.len()
            ));
        }
        if self.n_features == 0 || self.n_features >= usize::from(u16::MAX) {
            return refuse(format!("n_features {} out of range", self.n_features));
        }
        if self.roots.is_empty() {
            return refuse("arena has no trees".into());
        }
        if n > u32::MAX as usize {
            return refuse(format!("{n} nodes do not fit u32 indices"));
        }
        for (t, pair) in self.roots.windows(2).enumerate() {
            if pair[0] >= pair[1] {
                return refuse(format!(
                    "roots not strictly increasing at tree {}: {} then {}",
                    t + 1,
                    pair[0],
                    pair[1]
                ));
            }
        }
        if let Some(&last) = self.roots.last() {
            if last as usize >= n {
                return refuse(format!("root {last} out of range for {n} nodes"));
            }
        }
        for i in 0..n {
            if !self.threshold[i].is_finite() {
                return refuse(format!("node {i} holds a non-finite value"));
            }
            let c = self.child[i];
            let f = self.feature[i];
            if c == LEAF {
                if f != 0 {
                    return refuse(format!("leaf {i} carries feature {f}"));
                }
                continue;
            }
            if c as usize <= i {
                return refuse(format!("split {i} points back to child {c}"));
            }
            if c as usize + 1 >= n {
                return refuse(format!("split {i} children {c}, {} out of range", c + 1));
            }
            if usize::from(f) >= self.n_features {
                return refuse(format!(
                    "split {i} feature {f} out of range for {} features",
                    self.n_features
                ));
            }
        }
        let mut i = 0usize;
        for (t, &root) in self.roots.iter().enumerate() {
            if root as usize != i {
                return refuse(format!("tree {t} starts at {root}, expected {i}"));
            }
            // `next` is the next free slot of this tree; `level_end` ends
            // the BFS level `depth` (levels occupy contiguous runs).
            let mut next = i + 1;
            let mut level_end = next;
            let mut depth = 0usize;
            while i < next {
                if i == level_end {
                    depth += 1;
                    if depth > MAX_TREE_DEPTH {
                        return refuse(format!("tree {t} deeper than {MAX_TREE_DEPTH} levels"));
                    }
                    level_end = next;
                }
                let c = self.child[i];
                if c != LEAF {
                    if c as usize != next {
                        return refuse(format!(
                            "split {i} children at {c}, expected the next free slot {next}"
                        ));
                    }
                    next += 2;
                }
                i += 1;
            }
        }
        if i != n {
            return refuse(format!("nodes {i}..{n} belong to no tree"));
        }
        Ok(())
    }

    /// The pointer trees this arena was compiled from, in tree order —
    /// the inverse of `emit_tree`. Each tree is built bottom-up over its
    /// slot run (children sit at higher indices than their parent), so
    /// nothing recurses. Every arena has the compiled layout (`compile`
    /// emits it, deserializing validates it), so each node has exactly
    /// one parent.
    pub(crate) fn to_nodes(&self) -> Vec<Node> {
        fn take(slots: &mut [Option<Node>], at: usize) -> Node {
            slots[at]
                .take()
                .expect("a validated arena gives every node one parent")
        }
        let n = self.feature.len();
        let mut slots: Vec<Option<Node>> = Vec::new();
        self.roots
            .iter()
            .enumerate()
            .map(|(t, &root)| {
                let start = root as usize;
                let end = self.roots.get(t + 1).map_or(n, |&r| r as usize);
                slots.clear();
                slots.resize_with(end - start, || None);
                for i in (start..end).rev() {
                    let c = self.child[i] as usize;
                    let node = if c == LEAF as usize {
                        Node::Leaf {
                            value: self.threshold[i],
                        }
                    } else {
                        Node::Split {
                            feature: usize::from(self.feature[i]),
                            threshold: self.threshold[i],
                            left: Box::new(take(&mut slots, c - start)),
                            right: Box::new(take(&mut slots, c + 1 - start)),
                        }
                    };
                    slots[i - start] = Some(node);
                }
                take(&mut slots, 0)
            })
            .collect()
    }

    /// Number of compiled trees.
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }

    /// Total arena nodes across all trees.
    pub fn n_nodes(&self) -> usize {
        self.feature.len()
    }

    /// Feature width expected by `predict_row`/`predict_batch`.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Walks one tree for one row. The right-step predicate is the negation
    /// of the pointer walk's `<=` so NaN features take the right branch in
    /// both layouts — `!(v <= t)` is *not* `v > t` when `v` is NaN, which
    /// is exactly why clippy's rewrite suggestion must be refused here.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    #[inline]
    fn descend(&self, root: u32, row: &[f64]) -> f64 {
        let mut idx = root as usize;
        loop {
            let c = self.child[idx];
            if c == LEAF {
                return self.threshold[idx];
            }
            let go_right = !(row[self.feature[idx] as usize] <= self.threshold[idx]);
            idx = (c + u32::from(go_right)) as usize;
        }
    }

    /// Predicts one row — bit-identical to `RandomForest::predict_row` on
    /// the source forest.
    ///
    /// # Panics
    /// Panics on a feature-count mismatch.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        assert_eq!(row.len(), self.n_features, "feature count mismatch");
        let s: f64 = self.roots.iter().map(|&r| self.descend(r, row)).sum();
        s / self.roots.len() as f64
    }

    /// Feature-major batched prediction: walks one tree across every row
    /// before advancing to the next tree. Per-row accumulation stays in
    /// tree order, so results are bit-identical to calling
    /// [`FlatForest::predict_row`] per row.
    pub fn predict_batch(&self, x: &Matrix) -> Vec<f64> {
        let mut out = Vec::new();
        self.predict_batch_into(x, &mut out);
        out
    }

    /// [`FlatForest::predict_batch`] into a caller-owned buffer (cleared
    /// and refilled), for allocation-free steady-state serving.
    ///
    /// # Panics
    /// Panics on a feature-count mismatch.
    pub fn predict_batch_into(&self, x: &Matrix, out: &mut Vec<f64>) {
        assert_eq!(x.cols(), self.n_features, "feature count mismatch");
        out.clear();
        out.resize(x.rows(), 0.0);
        for &root in &self.roots {
            for (acc, row) in out.iter_mut().zip(x.iter_rows()) {
                *acc += self.descend(root, row);
            }
        }
        let n = self.roots.len() as f64;
        for acc in out.iter_mut() {
            *acc /= n;
        }
    }

    /// Sweep evaluation: predictions for `values.len()` virtual rows that
    /// are all equal to `template` except column `sweep_col`, which takes
    /// each of `values` in turn. `out` is cleared and refilled with one
    /// prediction per value, in `values` order.
    ///
    /// This is the frequency-curve hot path: instead of materializing the
    /// rows and descending every tree once *per value*, each tree is
    /// descended **once per call** — splits on any column other than
    /// `sweep_col` resolve identically for every value, so they follow a
    /// single child, and splits on `sweep_col` partition the (sorted)
    /// value range between the two children. Every value still lands on
    /// exactly the leaf the plain descent would reach, per-value tree
    /// contributions accumulate in tree order, and the mean divides once —
    /// so results are bit-identical to materializing the rows and calling
    /// [`FlatForest::predict_batch`].
    ///
    /// # Panics
    /// Panics on a feature-count mismatch, `sweep_col` out of range, or a
    /// NaN sweep value (range partitioning needs an ordered sweep axis;
    /// `template` columns may still be NaN and fall right as usual).
    pub fn predict_sweep_into(
        &self,
        template: &[f64],
        sweep_col: usize,
        values: &[f64],
        out: &mut Vec<f64>,
    ) {
        assert_eq!(template.len(), self.n_features, "feature count mismatch");
        assert!(sweep_col < self.n_features, "sweep column out of range");
        assert!(
            values.iter().all(|v| !v.is_nan()),
            "sweep values must not be NaN"
        );
        out.clear();
        out.resize(values.len(), 0.0);
        if values.is_empty() {
            return;
        }

        let plan = SweepPlan::new(values);
        let mut stack = Vec::with_capacity(64);
        for &root in &self.roots {
            self.sweep_tree(root, template, sweep_col, &plan, &mut stack, out);
        }
        let n = self.roots.len() as f64;
        for acc in out.iter_mut() {
            *acc /= n;
        }
    }

    /// Tree-major batched sweep: [`FlatForest::predict_sweep_into`] for
    /// many templates at once, with the **outer loop over trees** — each
    /// tree's few-KiB arena slice stays cache-resident while it serves
    /// every template, instead of re-streaming the whole forest per
    /// template. `out` is refilled template-major: the predictions for
    /// `templates` row `k` occupy `out[k * values.len()..][..values.len()]`,
    /// in `values` order, bit-identical to calling
    /// [`FlatForest::predict_sweep_into`] per row.
    ///
    /// # Panics
    /// Same contract as [`FlatForest::predict_sweep_into`].
    pub fn predict_sweep_batch_into(
        &self,
        templates: &Matrix,
        sweep_col: usize,
        values: &[f64],
        out: &mut Vec<f64>,
    ) {
        assert_eq!(templates.cols(), self.n_features, "feature count mismatch");
        assert!(sweep_col < self.n_features, "sweep column out of range");
        assert!(
            values.iter().all(|v| !v.is_nan()),
            "sweep values must not be NaN"
        );
        out.clear();
        out.resize(templates.rows() * values.len(), 0.0);
        if values.is_empty() || templates.rows() == 0 {
            return;
        }

        let plan = SweepPlan::new(values);
        let mut stack = Vec::with_capacity(64);
        for &root in &self.roots {
            for (row, acc) in templates
                .iter_rows()
                .zip(out.chunks_exact_mut(values.len()))
            {
                self.sweep_tree(root, row, sweep_col, &plan, &mut stack, acc);
            }
        }
        let n = self.roots.len() as f64;
        for acc in out.iter_mut() {
            *acc /= n;
        }
    }

    /// One tree of a sweep evaluation: adds the tree's leaf value for every
    /// swept value into `out` (no mean division). Non-sweep splits follow a
    /// single child; sweep-column splits partition the sorted value range,
    /// deferring the right branch on `stack` (passed in so callers reuse
    /// its allocation; always left empty on return).
    // `!(v <= t)` is NaN-aware (not `v > t`); see `descend`.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn sweep_tree(
        &self,
        root: u32,
        template: &[f64],
        sweep_col: usize,
        plan: &SweepPlan,
        stack: &mut Vec<(u32, u32, u32)>,
        out: &mut [f64],
    ) {
        let (mut idx, mut lo, mut hi) = (root as usize, 0u32, plan.sorted.len() as u32);
        loop {
            let c = self.child[idx];
            if c == LEAF {
                let v = self.threshold[idx];
                if plan.identity {
                    for acc in &mut out[lo as usize..hi as usize] {
                        *acc += v;
                    }
                } else {
                    for &o in &plan.order[lo as usize..hi as usize] {
                        out[o as usize] += v;
                    }
                }
                match stack.pop() {
                    Some((i, l, h)) => {
                        idx = i as usize;
                        lo = l;
                        hi = h;
                    }
                    None => break,
                }
                continue;
            }
            let t = self.threshold[idx];
            let f = self.feature[idx] as usize;
            if f == sweep_col {
                // Values `<= t` go left — the same predicate as the plain
                // descent. A branchless linear count beats binary search
                // on the short ranges seen here.
                let left = plan.sorted[lo as usize..hi as usize]
                    .iter()
                    .filter(|&&v| v <= t)
                    .count() as u32;
                let mid = lo + left;
                if mid == hi {
                    idx = c as usize; // every value goes left
                } else if mid == lo {
                    idx = (c + 1) as usize; // every value goes right
                } else {
                    stack.push((c + 1, mid, hi));
                    idx = c as usize;
                    hi = mid;
                }
            } else {
                idx = (c + u32::from(!(template[f] <= t))) as usize;
            }
        }
    }
}

/// Sorted view of a sweep's value list, shared by every (tree, template)
/// walk of one sweep call. Range partitioning needs the sweep axis sorted;
/// callers pass arbitrary value lists, so leaves write through an index
/// permutation — except in the common case (an already-ascending frequency
/// grid), detected here so leaves accumulate into contiguous output ranges
/// with no indirection.
struct SweepPlan {
    sorted: Vec<f64>,
    order: Vec<u32>,
    identity: bool,
}

impl SweepPlan {
    fn new(values: &[f64]) -> Self {
        let mut order: Vec<u32> = (0..values.len() as u32).collect();
        order.sort_by(|&a, &b| values[a as usize].total_cmp(&values[b as usize]));
        let identity = order.iter().enumerate().all(|(i, &o)| o as usize == i);
        let sorted: Vec<f64> = order.iter().map(|&i| values[i as usize]).collect();
        SweepPlan {
            sorted,
            order,
            identity,
        }
    }
}

impl RandomForest {
    /// Compiles this fitted forest into a [`FlatForest`].
    ///
    /// # Panics
    /// Panics before `fit`.
    pub fn flatten(&self) -> FlatForest {
        FlatForest::compile(self)
    }
}

/// Hex digits per stored word of the `feature`, `threshold` and `child`
/// columns: a `u16`, an `f64`'s bits and a `u32`.
const FEATURE_DIGITS: usize = 4;
const THRESHOLD_DIGITS: usize = 16;
const CHILD_DIGITS: usize = 8;

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// One stored column: every value as a fixed-width, big-endian, lowercase
/// hex word, concatenated.
fn hex_column(values: impl ExactSizeIterator<Item = u64>, digits: usize) -> Value {
    let mut s = String::with_capacity(values.len() * digits);
    for v in values {
        for k in (0..digits).rev() {
            s.push(char::from(HEX_DIGITS[(v >> (4 * k)) as usize & 0xf]));
        }
    }
    Value::Str(s)
}

/// Reads a column [`hex_column`] wrote, converting each word with `from`.
fn parse_hex_column<T>(
    v: &Value,
    digits: usize,
    from: impl Fn(u64) -> T,
) -> Result<Vec<T>, String> {
    /// Nibble of each lowercase hex digit; `INVALID` for any other byte.
    const INVALID: u8 = 0xff;
    const NIBBLE: [u8; 256] = {
        let mut table = [INVALID; 256];
        let mut i = 0;
        while i < 16 {
            table[HEX_DIGITS[i] as usize] = i as u8;
            i += 1;
        }
        table
    };
    let Value::Str(s) = v else {
        return Err("expected a hex string".into());
    };
    let bytes = s.as_bytes();
    if bytes.len() % digits != 0 {
        return Err(format!(
            "{} hex digits do not split into {digits}-digit words",
            bytes.len()
        ));
    }
    let mut out = Vec::with_capacity(bytes.len() / digits);
    for word in bytes.chunks_exact(digits) {
        let mut bits = 0u64;
        let mut seen = 0u8;
        for &b in word {
            let nibble = NIBBLE[usize::from(b)];
            seen |= nibble;
            bits = bits << 4 | u64::from(nibble & 0xf);
        }
        if seen == INVALID {
            return Err(format!(
                "invalid hex word {:?}",
                String::from_utf8_lossy(word)
            ));
        }
        out.push(from(bits));
    }
    Ok(out)
}

/// The stored arena (see the module docs): `n_features` and `roots` as
/// numbers, the three node columns as hex-word strings.
impl Serialize for FlatForest {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("n_features".into(), self.n_features.to_value()),
            ("roots".into(), self.roots.to_value()),
            (
                "feature".into(),
                hex_column(self.feature.iter().map(|&f| u64::from(f)), FEATURE_DIGITS),
            ),
            (
                "threshold".into(),
                hex_column(self.threshold.iter().map(|t| t.to_bits()), THRESHOLD_DIGITS),
            ),
            (
                "child".into(),
                hex_column(self.child.iter().map(|&c| u64::from(c)), CHILD_DIGITS),
            ),
        ])
    }
}

/// Reads a stored arena and [validates](FlatForest::validate) it: a value
/// that is not exactly a compiled layout is an error.
impl Deserialize for FlatForest {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, DeError> {
            v.get(key)
                .ok_or_else(|| DeError::custom(format!("arena is missing `{key}`")))
        }
        let column = |key: &str, e: String| DeError::custom(format!("arena `{key}`: {e}"));
        let flat = FlatForest {
            n_features: Deserialize::from_value(field(v, "n_features")?)
                .map_err(|e| column("n_features", e.to_string()))?,
            roots: Deserialize::from_value(field(v, "roots")?)
                .map_err(|e| column("roots", e.to_string()))?,
            // A word of FEATURE_DIGITS (CHILD_DIGITS) hex digits fits u16
            // (u32), so the casts are exact.
            feature: parse_hex_column(field(v, "feature")?, FEATURE_DIGITS, |w| w as u16)
                .map_err(|e| column("feature", e))?,
            threshold: parse_hex_column(field(v, "threshold")?, THRESHOLD_DIGITS, f64::from_bits)
                .map_err(|e| column("threshold", e))?,
            child: parse_hex_column(field(v, "child")?, CHILD_DIGITS, |w| w as u32)
                .map_err(|e| column("child", e))?,
        };
        flat.validate()
            .map_err(|e| DeError::custom(format!("invalid arena: {e}")))?;
        Ok(flat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::RandomForestParams;
    use crate::Regressor;

    fn fitted_forest(n_estimators: usize, seed: u64) -> (RandomForest, Matrix) {
        let rows: Vec<Vec<f64>> = (0..120)
            .map(|i| {
                vec![
                    ((i * 7919) % 1000) as f64 / 1000.0,
                    ((i * 104729) % 1000) as f64 / 1000.0,
                    ((i * 1299709) % 1000) as f64 / 1000.0,
                ]
            })
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| 10.0 * (std::f64::consts::PI * r[0]).sin() + 5.0 * r[1] * r[1] + 2.0 * r[2])
            .collect();
        let x = Matrix::from_rows(&rows);
        let mut f = RandomForest::new(
            RandomForestParams {
                n_estimators,
                ..Default::default()
            },
            seed,
        );
        f.fit(&x, &y);
        (f, x)
    }

    #[test]
    fn flat_matches_pointer_walk_bitwise() {
        let (forest, x) = fitted_forest(12, 42);
        let flat = forest.flatten();
        assert_eq!(flat.n_trees(), 12);
        assert_eq!(flat.n_features(), 3);
        for row in x.iter_rows() {
            let a = forest.predict_row(row);
            let b = flat.predict_row(row);
            assert_eq!(a.to_bits(), b.to_bits(), "row {row:?}");
        }
    }

    #[test]
    fn batch_matches_scalar_bitwise() {
        let (forest, x) = fitted_forest(9, 7);
        let flat = forest.flatten();
        let batch = flat.predict_batch(&x);
        assert_eq!(batch.len(), x.rows());
        for (i, row) in x.iter_rows().enumerate() {
            assert_eq!(batch[i].to_bits(), flat.predict_row(row).to_bits());
        }
    }

    #[test]
    fn batch_into_reuses_buffer() {
        let (forest, x) = fitted_forest(5, 3);
        let flat = forest.flatten();
        let mut buf = vec![f64::NAN; 999];
        flat.predict_batch_into(&x, &mut buf);
        assert_eq!(buf.len(), x.rows());
        assert_eq!(buf, flat.predict_batch(&x));
    }

    #[test]
    fn sweep_matches_materialized_batch_bitwise() {
        let (forest, x) = fitted_forest(10, 21);
        let flat = forest.flatten();
        // Unsorted values with duplicates, swept over every column.
        let values = [0.7, 0.1, 0.9, 0.1, 0.35, 1.2, -0.2, 0.5];
        let template = [0.3, 0.6, 0.45];
        let _ = x;
        for col in 0..3 {
            let rows: Vec<Vec<f64>> = values
                .iter()
                .map(|&v| {
                    let mut r = template.to_vec();
                    r[col] = v;
                    r
                })
                .collect();
            let materialized = flat.predict_batch(&Matrix::from_rows(&rows));
            let mut swept = Vec::new();
            flat.predict_sweep_into(&template, col, &values, &mut swept);
            assert_eq!(swept.len(), values.len());
            for (a, b) in swept.iter().zip(&materialized) {
                assert_eq!(a.to_bits(), b.to_bits(), "col {col}");
            }
        }
    }

    #[test]
    fn sweep_with_nan_template_matches_batch() {
        let (forest, _) = fitted_forest(6, 5);
        let flat = forest.flatten();
        let template = [f64::NAN, 0.5, f64::NAN];
        let values = [0.2, 0.8, 0.5];
        let rows: Vec<Vec<f64>> = values
            .iter()
            .map(|&v| vec![f64::NAN, v, f64::NAN])
            .collect();
        let materialized = flat.predict_batch(&Matrix::from_rows(&rows));
        let mut swept = Vec::new();
        flat.predict_sweep_into(&template, 1, &values, &mut swept);
        for (a, b) in swept.iter().zip(&materialized) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn sweep_with_empty_values_clears_output() {
        let (forest, _) = fitted_forest(3, 2);
        let flat = forest.flatten();
        let mut out = vec![1.0; 7];
        flat.predict_sweep_into(&[0.1, 0.2, 0.3], 0, &[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "sweep values must not be NaN")]
    fn sweep_nan_values_panic() {
        let (forest, _) = fitted_forest(3, 2);
        let flat = forest.flatten();
        let mut out = Vec::new();
        flat.predict_sweep_into(&[0.1, 0.2, 0.3], 0, &[0.5, f64::NAN], &mut out);
    }

    #[test]
    fn nan_features_fall_right_like_pointer_walk() {
        let (forest, _) = fitted_forest(6, 11);
        let flat = forest.flatten();
        let row = [f64::NAN, 0.5, f64::NAN];
        let a = forest.predict_row(&row);
        let b = flat.predict_row(&row);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn single_leaf_trees_compile() {
        // Constant targets collapse every tree to one leaf.
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y = vec![3.5; 10];
        let x = Matrix::from_rows(&rows);
        let mut f = RandomForest::new(
            RandomForestParams {
                n_estimators: 4,
                ..Default::default()
            },
            0,
        );
        f.fit(&x, &y);
        let flat = f.flatten();
        assert_eq!(flat.n_nodes(), 4);
        assert_eq!(flat.predict_row(&[2.0]).to_bits(), 3.5f64.to_bits());
    }

    #[test]
    #[should_panic(expected = "flatten before fit")]
    fn flatten_unfitted_panics() {
        let f = RandomForest::with_defaults(0);
        let _ = f.flatten();
    }

    /// One tree: a right-leaning chain of `depth` splits on feature 0.
    fn chain(depth: usize) -> FlatForest {
        let n = 2 * depth + 1;
        FlatForest {
            n_features: 1,
            roots: vec![0],
            feature: vec![0; n],
            threshold: (0..n).map(|i| i as f64).collect(),
            child: (0..n)
                .map(|i| {
                    if i % 2 == 0 && i + 1 < n {
                        i as u32 + 1
                    } else {
                        LEAF
                    }
                })
                .collect(),
        }
    }

    #[test]
    fn depth_is_capped_at_the_limit() {
        let deepest = chain(MAX_TREE_DEPTH);
        deepest.validate().unwrap();
        let params = RandomForestParams {
            n_estimators: 1,
            ..Default::default()
        };
        let forest = RandomForest::from_flat(params, 3, &deepest).unwrap();
        assert_eq!(forest.trees()[0].depth(), MAX_TREE_DEPTH);
        assert_eq!(forest.flatten(), deepest);
        let err = chain(MAX_TREE_DEPTH + 1).validate().unwrap_err();
        assert!(err.to_string().contains("deeper than"), "{err}");
    }

    #[test]
    fn rebuild_refuses_a_tree_count_mismatch() {
        let (forest, _) = fitted_forest(4, 1);
        let params = RandomForestParams {
            n_estimators: 5,
            ..forest.params
        };
        assert!(RandomForest::from_flat(params, forest.seed(), &forest.flatten()).is_err());
    }

    #[test]
    fn try_compile_reports_an_unfitted_forest() {
        let err = FlatForest::try_compile(&RandomForest::with_defaults(0)).unwrap_err();
        assert_eq!(err.to_string(), "flatten before fit");
    }

    #[test]
    #[should_panic(expected = "feature count mismatch")]
    fn wrong_width_panics() {
        let (forest, _) = fitted_forest(3, 1);
        let _ = forest.flatten().predict_row(&[1.0]);
    }
}
