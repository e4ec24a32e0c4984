//! Golden + property tests: the flattened forest is bit-identical to the
//! pointer-based forest it was compiled from, for scalar and batched
//! prediction, across random shapes (tree depths, feature counts, forest
//! sizes) and NaN-free query matrices; and the stored arena is a lossless
//! encoding of the forest.

use ml::dataset::Matrix;
use ml::flat::FlatForest;
use ml::forest::{RandomForest, RandomForestParams};
use ml::tree::{MaxFeatures, TreeParams};
use ml::Regressor;
use proptest::prelude::*;

/// A training set plus query matrix with a shared, arbitrary feature width.
fn arb_problem() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>, Vec<Vec<f64>>)> {
    (1usize..5).prop_flat_map(|p| {
        let train =
            proptest::collection::vec(proptest::collection::vec(-100.0..100.0f64, p..p + 1), 4..40);
        let targets = proptest::collection::vec(-1000.0..1000.0f64, 40..41);
        let queries =
            proptest::collection::vec(proptest::collection::vec(-150.0..150.0f64, p..p + 1), 1..12);
        (train, targets, queries).prop_map(|(x, mut y, q)| {
            y.truncate(x.len());
            (x, y, q)
        })
    })
}

fn arb_params() -> impl Strategy<Value = RandomForestParams> {
    (
        1usize..10,
        prop_oneof![Just(None), (1usize..8).prop_map(Some)],
        1usize..3,
        prop_oneof![
            Just(MaxFeatures::All),
            Just(MaxFeatures::Sqrt),
            Just(MaxFeatures::Third),
        ],
        prop_oneof![Just(true), Just(false)],
    )
        .prop_map(
            |(n_estimators, max_depth, min_samples_leaf, max_features, bootstrap)| {
                RandomForestParams {
                    n_estimators,
                    tree: TreeParams {
                        max_depth,
                        min_samples_leaf,
                        max_features,
                        ..Default::default()
                    },
                    bootstrap,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// `FlatForest::predict_row` is bit-identical to the pointer walk on
    /// training rows and on out-of-sample queries.
    #[test]
    fn flat_scalar_bit_identical(
        (x, y, queries) in arb_problem(),
        params in arb_params(),
        seed in 0u64..1000,
    ) {
        let m = Matrix::from_rows(&x);
        let mut forest = RandomForest::new(params, seed);
        forest.fit(&m, &y);
        let flat = forest.flatten();
        prop_assert_eq!(flat.n_trees(), params.n_estimators);
        for row in x.iter().chain(&queries) {
            let a = forest.predict_row(row);
            let b = flat.predict_row(row);
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// `FlatForest::predict_batch` (feature-major) matches both the flat
    /// scalar path and the pointer forest's batched path bit-for-bit.
    #[test]
    fn flat_batch_bit_identical(
        (x, y, queries) in arb_problem(),
        params in arb_params(),
        seed in 0u64..1000,
    ) {
        let m = Matrix::from_rows(&x);
        let mut forest = RandomForest::new(params, seed);
        forest.fit(&m, &y);
        let flat = forest.flatten();
        let q = Matrix::from_rows(&queries);

        let batch = flat.predict_batch(&q);
        let pointer_batch = forest.predict(&q);
        prop_assert_eq!(batch.len(), queries.len());
        for (i, row) in queries.iter().enumerate() {
            prop_assert_eq!(batch[i].to_bits(), flat.predict_row(row).to_bits());
            prop_assert_eq!(batch[i].to_bits(), pointer_batch[i].to_bits());
            prop_assert_eq!(batch[i].to_bits(), forest.predict_row(row).to_bits());
        }
    }

    /// Sweep evaluation (one descent per tree, range-partitioned on the
    /// swept column) is bit-identical to materializing the swept rows and
    /// running the plain batch, for any column and unsorted value lists.
    #[test]
    fn sweep_bit_identical_to_materialized_rows(
        (x, y, queries) in arb_problem(),
        params in arb_params(),
        seed in 0u64..1000,
        values in proptest::collection::vec(-200.0..200.0f64, 1..12),
        col_pick in 0usize..64,
    ) {
        let m = Matrix::from_rows(&x);
        let mut forest = RandomForest::new(params, seed);
        forest.fit(&m, &y);
        let flat = forest.flatten();
        let template = &queries[0];
        let col = col_pick % template.len();

        let rows: Vec<Vec<f64>> = values
            .iter()
            .map(|&v| {
                let mut r = template.clone();
                r[col] = v;
                r
            })
            .collect();
        let materialized = flat.predict_batch(&Matrix::from_rows(&rows));
        let mut swept = Vec::new();
        flat.predict_sweep_into(template, col, &values, &mut swept);
        prop_assert_eq!(swept.len(), values.len());
        for (a, b) in swept.iter().zip(&materialized) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Compiling twice from the same forest yields the same arena, and a
    /// clone of the forest compiles to an equal arena (pure function of the
    /// fitted trees).
    #[test]
    fn compile_is_deterministic(
        (x, y, _) in arb_problem(),
        params in arb_params(),
        seed in 0u64..1000,
    ) {
        let m = Matrix::from_rows(&x);
        let mut forest = RandomForest::new(params, seed);
        forest.fit(&m, &y);
        let a = forest.flatten();
        let b = forest.clone().flatten();
        prop_assert_eq!(a, b);
    }

    /// The arena is a lossless encoding of the forest: forest → arena →
    /// forest and arena → forest → arena are identities, and the arena's
    /// stored form reads back (validation included) to an equal arena.
    #[test]
    fn arena_round_trips_are_identities(
        (x, y, _) in arb_problem(),
        params in arb_params(),
        seed in 0u64..1000,
    ) {
        let m = Matrix::from_rows(&x);
        let mut forest = RandomForest::new(params, seed);
        forest.fit(&m, &y);
        let flat = forest.flatten();
        let rebuilt = RandomForest::from_flat(forest.params, forest.seed(), &flat)
            .expect("a compiled arena rebuilds");
        prop_assert!(rebuilt == forest);
        prop_assert!(rebuilt.flatten() == flat);
        let stored = serde::Deserialize::from_value(&serde::Serialize::to_value(&flat));
        let stored: FlatForest = stored.expect("a compiled arena validates");
        prop_assert!(stored == flat);
    }
}
