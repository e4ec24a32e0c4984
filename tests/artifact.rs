//! Model-artifact compatibility and reader hardening.
//!
//! * **Compatibility** — an artifact sealed by the schema v1 writer (the
//!   forests as nested pointer trees) still loads, equals the model its
//!   recipe trains today, and serves the same bits as that model re-sealed
//!   as v2 (the forests as compiled flat arenas).
//! * **Hardening** — no byte string makes the reader panic or loop.
//!   Truncations, random bytes and byte flips end in a typed error (or,
//!   for a flip outside every checked field, in the unchanged model). An
//!   arena that breaks one layout invariant is `Malformed` even under a
//!   recomputed, valid digest. A file over the size cap is refused before
//!   it is read.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use energy_model::artifact::{fnv1a_64, training_fingerprint, MAX_ARTIFACT_BYTES};
use energy_model::ds_model::{DomainSpecificModel, DsSample};
use energy_model::{ArtifactError, ModelArtifact, ARTIFACT_SCHEMA_VERSION};
use serde::Value;

/// The committed v1 artifact: `toy_model()` sealed by the v1 writer as
/// `"toy"` under `toy_fingerprint()`.
const V1_FIXTURE: &str = "tests/fixtures/artifact-v1-toy.json";

const TOY_FREQS: [f64; 3] = [600.0, 1000.0, 1400.0];
const TOY_DEFAULT_MHZ: f64 = 1000.0;
const TOY_SEED: u64 = 7;

/// Three inputs × three frequencies of a synthetic compute-bound kernel.
fn toy_model() -> DomainSpecificModel {
    let mut samples = Vec::new();
    for &(a, b) in &[(2.0, 3.0), (4.0, 5.0), (8.0, 2.0)] {
        for &f in &TOY_FREQS {
            let t = a * b * 1e3 / f + 1e-4;
            samples.push(DsSample {
                features: Arc::new(vec![a, b]),
                freq_mhz: f,
                time_s: t,
                energy_j: t * (40.0 + 0.1 * f),
            });
        }
    }
    DomainSpecificModel::train(&samples, TOY_DEFAULT_MHZ, TOY_SEED)
}

fn toy_fingerprint() -> u64 {
    training_fingerprint("toy", TOY_DEFAULT_MHZ, &TOY_FREQS, TOY_SEED)
}

fn fixture_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(V1_FIXTURE)
}

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("artifact-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test dir");
    dir
}

/// Every curve bit of `model` over a fixed batch of seen and unseen
/// inputs and frequencies.
fn curve_bits(model: &DomainSpecificModel) -> Vec<u64> {
    let inputs: [&[f64]; 4] = [&[2.0, 3.0], &[4.0, 5.0], &[5.0, 4.0], &[16.0, 1.0]];
    let freqs = [500.0, 600.0, 800.0, 1000.0, 1250.0, 1400.0, 1600.0];
    model
        .predict_curves_batch(&inputs, &freqs)
        .iter()
        .flat_map(|c| {
            [c.default_time_s.to_bits(), c.default_energy_j.to_bits()]
                .into_iter()
                .chain(
                    c.curve
                        .iter()
                        .flat_map(|p| [p.speedup.to_bits(), p.norm_energy.to_bits()]),
                )
        })
        .collect()
}

// ---------------------------------------------------------------------
// Compatibility
// ---------------------------------------------------------------------

#[test]
fn v1_fixture_loads_and_serves_the_v2_bits() {
    let (v1_model, envelope) =
        DomainSpecificModel::load_artifact(&fixture_path()).expect("v1 artifact loads");
    assert_eq!(envelope.schema_version, 1);
    assert_eq!(envelope.name, "toy");
    assert!(envelope.open_expecting(toy_fingerprint()).is_ok());
    assert!(v1_model.has_flat());
    // The v1 trees are exactly what the recipe trains today.
    assert_eq!(v1_model, toy_model());

    let resealed = ModelArtifact::seal("toy", &v1_model, toy_fingerprint());
    assert_eq!(resealed.schema_version, ARTIFACT_SCHEMA_VERSION);
    assert!(
        resealed.payload.len() < envelope.payload.len(),
        "the arena payload is smaller than the tree payload"
    );
    let v2_model = resealed.open().expect("v2 re-seal opens");
    assert_eq!(v2_model, v1_model);
    assert_eq!(curve_bits(&v2_model), curve_bits(&v1_model));
    for features in [[2.0, 3.0], [5.0, 4.0]] {
        for f in [600.0, 1111.0] {
            let a = v1_model.predict_time_energy_reference(&features, f);
            let b = v2_model.predict_time_energy_reference(&features, f);
            assert_eq!(a.0.to_bits(), b.0.to_bits());
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
    }
}

#[test]
fn v2_round_trip_through_disk_is_exact() {
    let dir = test_dir("v2-disk");
    let model = toy_model();
    let path = dir.join("v0001.json");
    model
        .save_artifact(&path, "toy", toy_fingerprint())
        .expect("save");
    let (back, envelope) = DomainSpecificModel::load_artifact(&path).expect("load");
    assert_eq!(envelope.schema_version, ARTIFACT_SCHEMA_VERSION);
    assert_eq!(back, model);
    assert_eq!(curve_bits(&back), curve_bits(&model));
    // A second generation writes identical bytes.
    let path2 = dir.join("v0002.json");
    back.save_artifact(&path2, "toy", toy_fingerprint())
        .expect("save again");
    assert_eq!(
        std::fs::read(&path).expect("read"),
        std::fs::read(&path2).expect("read")
    );
}

// ---------------------------------------------------------------------
// Size cap
// ---------------------------------------------------------------------

#[test]
fn oversized_file_is_refused_before_it_is_read() {
    let dir = test_dir("too-large");
    let path = dir.join("v0001.json");
    // A sparse file: its length is past the cap, its blocks are unwritten.
    let file = std::fs::File::create(&path).expect("create");
    file.set_len(MAX_ARTIFACT_BYTES + 1).expect("extend");
    drop(file);
    match ModelArtifact::load(&path) {
        Err(ArtifactError::TooLarge { bytes, limit }) => {
            assert_eq!(bytes, MAX_ARTIFACT_BYTES + 1);
            assert_eq!(limit, MAX_ARTIFACT_BYTES);
        }
        other => panic!("expected TooLarge, got {other:?}"),
    }
    // At the cap exactly the file is read (and is not JSON).
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .expect("open");
    file.set_len(MAX_ARTIFACT_BYTES).expect("truncate");
    drop(file);
    assert!(matches!(
        ModelArtifact::load(&path),
        Err(ArtifactError::Malformed(_))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Fuzz-style reader hardening
// ---------------------------------------------------------------------

/// The whole read path on in-memory bytes: envelope parse, then open.
fn open_bytes(bytes: &[u8]) -> Result<DomainSpecificModel, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
    let artifact: ModelArtifact = serde_json::from_str(text).map_err(|e| e.to_string())?;
    artifact.open().map_err(|e| e.to_string())
}

/// The small v2 artifact every fuzz case mutates, as saved on disk.
fn v2_bytes() -> (DomainSpecificModel, Vec<u8>) {
    let dir = test_dir("v2-bytes");
    let path = dir.join("v0001.json");
    let model = toy_model();
    model
        .save_artifact(&path, "toy", toy_fingerprint())
        .expect("save");
    let bytes = std::fs::read(&path).expect("read");
    let _ = std::fs::remove_dir_all(&dir);
    (model, bytes)
}

/// splitmix64: a dependency-free, seedable case generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[test]
fn every_truncation_is_an_error() {
    let (model, bytes) = v2_bytes();
    assert_eq!(open_bytes(&bytes).expect("intact artifact opens"), model);
    for cut in 0..bytes.len() {
        assert!(open_bytes(&bytes[..cut]).is_err(), "truncated at {cut}");
    }
}

#[test]
fn random_bytes_are_an_error() {
    let mut rng = Rng(0xA57);
    for case in 0..500 {
        let len = rng.below(4096);
        let bytes: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        assert!(open_bytes(&bytes).is_err(), "case {case}");
    }
}

#[test]
fn byte_flips_are_an_error_or_change_nothing() {
    // A flip in the payload or the digest fails the digest; one in the
    // schema version is a version or payload error. Only a flip in the
    // unverified name, fingerprint or layout whitespace may still open,
    // and then it must open to the very same model.
    let (model, bytes) = v2_bytes();
    let mut rng = Rng(0xF11B);
    for case in 0..3000 {
        let mut flipped = bytes.clone();
        let at = rng.below(flipped.len());
        flipped[at] ^= (1 + rng.below(255)) as u8;
        if let Ok(back) = open_bytes(&flipped) {
            assert!(back == model, "case {case}: flip at {at} changed the model");
        }
    }
}

#[test]
fn payload_flips_under_a_valid_digest_never_panic() {
    // Re-digested flips get past the checksum into the arena reader, which
    // must answer every one without panicking.
    let artifact = ModelArtifact::seal("toy", &toy_model(), toy_fingerprint());
    let payload = artifact.payload.as_bytes().to_vec();
    let mut rng = Rng(0xD16E);
    let mut refused = 0;
    for _ in 0..3000 {
        let mut flipped = payload.clone();
        let at = rng.below(flipped.len());
        flipped[at] ^= (1 + rng.below(255)) as u8;
        let Ok(text) = String::from_utf8(flipped) else {
            continue;
        };
        if with_payload(&artifact, text).open().is_err() {
            refused += 1;
        }
    }
    assert!(refused > 0);
}

/// `artifact` carrying `payload` under its recomputed, valid digest.
fn with_payload(artifact: &ModelArtifact, payload: String) -> ModelArtifact {
    ModelArtifact {
        content_digest: fnv1a_64(payload.as_bytes()),
        payload,
        ..artifact.clone()
    }
}

/// Mutable access to `key` of a JSON object value.
fn field<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
    match v {
        Value::Map(entries) => entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no key {key}")),
        other => panic!("not a map: {other:?}"),
    }
}

/// The time model's stored forest (`params`, `seed`, `arena`).
fn time_forest(payload: &mut Value) -> &mut Value {
    field(field(payload, "time_model"), "FlatForest")
}

/// Seals the toy payload as `craft` edited it, under a valid digest, and
/// returns what opening it says.
fn open_crafted(craft: impl FnOnce(&mut Value)) -> Result<DomainSpecificModel, ArtifactError> {
    let artifact = ModelArtifact::seal("toy", &toy_model(), toy_fingerprint());
    let mut payload: Value = serde_json::from_str(&artifact.payload).expect("payload parses");
    craft(&mut payload);
    with_payload(&artifact, serde_json::to_string(&payload).expect("render")).open()
}

fn assert_malformed(what: &str, expect: &str, result: Result<DomainSpecificModel, ArtifactError>) {
    match result {
        Err(ArtifactError::Malformed(msg)) => {
            assert!(
                msg.contains(expect),
                "{what}: {msg:?} should name {expect:?}"
            )
        }
        other => panic!("{what}: expected Malformed, got {other:?}"),
    }
}

/// A stored arena's columns as plain words (a threshold as its bits).
struct Arena {
    roots: Vec<u64>,
    feature: Vec<u64>,
    threshold: Vec<u64>,
    child: Vec<u64>,
}

/// Hex digits per word of the stored `feature`, `threshold` and `child`
/// columns.
const COLUMNS: [(&str, usize); 3] = [("feature", 4), ("threshold", 16), ("child", 8)];

impl Arena {
    fn read(arena: &Value) -> Arena {
        let words = |key: &str, digits: usize| -> Vec<u64> {
            match arena.get(key) {
                Some(Value::Str(s)) => s
                    .as_bytes()
                    .chunks(digits)
                    .map(|w| {
                        u64::from_str_radix(std::str::from_utf8(w).expect("ascii"), 16)
                            .expect("hex word")
                    })
                    .collect(),
                other => panic!("{key} is not a hex column: {other:?}"),
            }
        };
        let [feature, threshold, child] = COLUMNS.map(|(key, digits)| words(key, digits));
        let roots = match arena.get("roots") {
            Some(Value::Seq(roots)) => roots
                .iter()
                .map(|r| match r {
                    Value::U64(n) => *n,
                    other => panic!("root {other:?}"),
                })
                .collect(),
            other => panic!("roots {other:?}"),
        };
        Arena {
            roots,
            feature,
            threshold,
            child,
        }
    }

    fn write(&self, arena: &mut Value) {
        *field(arena, "roots") = Value::Seq(self.roots.iter().map(|&r| Value::U64(r)).collect());
        for ((key, digits), words) in
            COLUMNS
                .into_iter()
                .zip([&self.feature, &self.threshold, &self.child])
        {
            let hex: String = words.iter().map(|w| format!("{w:0digits$x}")).collect();
            *field(arena, key) = Value::Str(hex);
        }
    }

    /// Index of the first split (non-zero child) after slot 0.
    fn first_split(&self) -> usize {
        (1..self.child.len())
            .find(|&i| self.child[i] != 0)
            .expect("the toy forest has splits past its first root")
    }
}

#[test]
fn crafted_arenas_are_malformed_under_a_valid_digest() {
    // Positive control: the crafting path itself leaves a loadable model.
    let untouched = open_crafted(|p| {
        let arena = field(time_forest(p), "arena");
        Arena::read(arena).write(arena);
    });
    assert_eq!(untouched.expect("untouched"), toy_model());

    type Craft = fn(&mut Arena);
    let cases: [(&str, &str, Craft); 12] = [
        ("lengths", "differ in length", |a| {
            a.threshold.pop();
        }),
        ("no roots", "no trees", |a| a.roots.clear()),
        ("roots order", "strictly increasing", |a| a.roots.swap(1, 2)),
        ("root range", "out of range for", |a| {
            *a.roots.last_mut().expect("roots") = a.child.len() as u64;
        }),
        ("child back", "points back", |a| {
            let i = a.first_split();
            a.child[i] = i as u64;
        }),
        ("child range", "out of range", |a| {
            let i = a.first_split();
            a.child[i] = a.child.len() as u64 - 1;
        }),
        ("feature range", "feature 4 out of range", |a| {
            let i = a.first_split();
            a.feature[i] = 4;
        }),
        ("non-finite", "non-finite", |a| {
            a.threshold[0] = f64::INFINITY.to_bits();
        }),
        ("leaf feature", "carries feature", |a| {
            let leaf = a.child.iter().position(|&c| c == 0).expect("a leaf");
            a.feature[leaf] = 1;
        }),
        ("shared children", "next free slot", |a| {
            // Point the first split at the second split's children:
            // forward and in range, but two parents per node.
            let mut splits = (0..a.child.len()).filter(|&i| a.child[i] != 0);
            let (first, second) = (splits.next().expect("split"), splits.next().expect("split"));
            a.child[first] = a.child[second];
        }),
        ("depth", "deeper than", |a| {
            // One tree, a right-leaning chain of 300 splits: split k sits
            // at slot 2k with its leaf at 2k + 1.
            let n = 2 * 300 + 1;
            a.roots = vec![0];
            a.feature = vec![0; n as usize];
            a.threshold = (0..n).map(|i| (i as f64).to_bits()).collect();
            a.child = (0..n)
                .map(|i| if i % 2 == 0 && i < n - 1 { i + 1 } else { 0 })
                .collect();
        }),
        ("trailing nodes", "belong to no tree", |a| {
            a.feature.push(0);
            a.threshold.push(1f64.to_bits());
            a.child.push(0);
        }),
    ];
    for (what, expect, craft) in cases {
        let result = open_crafted(|p| {
            let arena = field(time_forest(p), "arena");
            let mut columns = Arena::read(arena);
            craft(&mut columns);
            columns.write(arena);
        });
        assert_malformed(what, expect, result);
    }

    // Columns that are not hex words at all.
    type HexCraft = fn(&mut String);
    let hex_cases: [(&str, &str, HexCraft); 3] = [
        ("ragged column", "do not split", |s| {
            s.pop();
        }),
        ("non-hex digit", "invalid hex word", |s| {
            s.replace_range(0..1, "g")
        }),
        ("uppercase digit", "invalid hex word", |s| {
            s.replace_range(0..4, "000A")
        }),
    ];
    for (what, expect, craft) in hex_cases {
        let result = open_crafted(|p| match field(field(time_forest(p), "arena"), "feature") {
            Value::Str(s) => craft(s),
            other => panic!("feature {other:?}"),
        });
        assert_malformed(what, expect, result);
    }
}

#[test]
fn arenas_that_do_not_fit_the_model_are_malformed() {
    assert_malformed(
        "tree count",
        "trees, the forest parameters",
        open_crafted(|p| {
            let params = field(time_forest(p), "params");
            *field(params, "n_estimators") = Value::U64(59);
        }),
    );
    assert_malformed(
        "design width",
        "the model's design has",
        open_crafted(|p| {
            *field(field(time_forest(p), "arena"), "n_features") = Value::U64(4);
        }),
    );
    assert_malformed(
        "trees in a v2 payload",
        "found trees",
        open_crafted(|p| {
            let text = std::fs::read_to_string(fixture_path()).expect("fixture");
            let envelope: ModelArtifact = serde_json::from_str(&text).expect("envelope");
            let mut v1: Value = serde_json::from_str(&envelope.payload).expect("v1 payload");
            *field(p, "time_model") = field(&mut v1, "time_model").clone();
        }),
    );
}
