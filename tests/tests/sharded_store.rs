//! Segmented-checkpoint and sharded-store contracts, end to end:
//!
//! * monolithic ↔ segmented round-trip is **bit-identical** (every
//!   tensor, every seen list, the carried metadata);
//! * both load paths — a checkpoint-loaded engine and a multi-shard
//!   segmented one — answer bit-identically to an independent reference
//!   scorer (`gather_rows` → `matmul_nt` → seen mask → `top_k_rows`) for
//!   every user, at kernel thread counts 1 and 4, in both positional-read
//!   and map modes, with τ stored or pre-applied, with and without seen
//!   lists;
//! * every corruption of every file — truncation at any prefix, byte
//!   flips anywhere, a missing or stray segment — surfaces as a typed
//!   [`CheckpointError`], never a panic and never silently-wrong data;
//! * lazy loading is observable (residency counts move only on first
//!   touch) and load failures are **sticky**: a corrupt shard yields the
//!   same `ShardUnavailable` on every query that needs it while healthy
//!   shards keep serving.

use std::path::{Path, PathBuf};

use dgnn_serve::{
    save_segmented, Checkpoint, CheckpointError, Engine, MapMode, Query, QueryError,
    SegmentedCheckpoint,
};
use dgnn_tensor::{parallel, top_k_rows, CsrBuilder, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const USERS: usize = 41; // deliberately not a multiple of the shard size
const ITEMS: usize = 23;
const DIM: usize = 8;
const USER_SHARD_ROWS: usize = 12; // 4 shards: 12+12+12+5
const ITEM_SHARD_ROWS: usize = 9; // 3 shards: 9+9+5

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dgnn-sharded-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creating test dir");
    dir
}

/// A synthetic but structurally faithful checkpoint: random embeddings,
/// a valid CSR seen-list, and the metadata a trained export carries.
fn synth_checkpoint(seed: u64) -> Checkpoint {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fill = |rows: usize| {
        (0..rows * DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect::<Vec<f32>>()
    };
    let user = Matrix::from_vec(USERS, DIM, fill(USERS));
    let item = Matrix::from_vec(ITEMS, DIM, fill(ITEMS));
    let mut indptr = vec![0u32];
    let mut items = Vec::new();
    for u in 0..USERS {
        for j in 0..(u % 4) {
            items.push(((u * 7 + j * 3) % ITEMS) as u32);
        }
        indptr.push(items.len() as u32);
    }
    let mut c = Checkpoint::new();
    c.set_meta("model", "synthetic");
    c.set_meta("dataset", "sharded-store-test");
    c.push_matrix("final/user_scoring", &user);
    c.push_matrix("final/item", &item);
    c.push_u32("seen/indptr", indptr);
    c.push_u32("seen/items", items);
    c
}

fn save_fixture(name: &str) -> (Checkpoint, PathBuf) {
    let dir = fresh_dir(name);
    let ckpt = synth_checkpoint(2023);
    save_segmented(&ckpt, &dir, USER_SHARD_ROWS, ITEM_SHARD_ROWS).expect("segmented save");
    (ckpt, dir)
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

#[test]
fn segmented_roundtrip_reassembles_bit_identical() {
    let (ckpt, dir) = save_fixture("roundtrip");
    let mut modes = vec![MapMode::Off];
    if MapMode::Auto.resolves_to_map() {
        modes.push(MapMode::On);
    }
    for mode in modes {
        let seg = SegmentedCheckpoint::open_with(&dir, mode).expect("open");
        seg.verify_all().expect("all digests verify");
        let back = seg.reassemble().expect("reassemble");
        for name in ["final/user_scoring", "final/item"] {
            assert_eq!(
                bits(&ckpt.matrix(name).expect("source tensor")),
                bits(&back.matrix(name).expect("round-tripped tensor")),
                "{name} not bit-identical through the segmented format"
            );
        }
        for name in ["seen/indptr", "seen/items"] {
            assert_eq!(
                ckpt.u32s(name).expect("source list"),
                back.u32s(name).expect("round-tripped list"),
                "{name} not identical through the segmented format"
            );
        }
        assert_eq!(back.meta("model"), Some("synthetic"));
        assert_eq!(back.meta("dataset"), Some("sharded-store-test"));
    }
}

/// A dense reference scorer over the unsplit serving tables, taken from
/// the checkpoint's own tensors rather than from any engine.
struct Reference {
    user: Matrix,
    item: Matrix,
    /// `(indptr, items)` seen lists; `None` when the checkpoint has none.
    seen: Option<(Vec<u32>, Vec<u32>)>,
}

impl Reference {
    fn of(ckpt: &Checkpoint, user: Matrix) -> Self {
        let seen = ckpt.tensor("seen/indptr").map(|_| {
            (
                ckpt.u32s("seen/indptr").expect("seen indptr").to_vec(),
                ckpt.u32s("seen/items").expect("seen items").to_vec(),
            )
        });
        Self { user, item: ckpt.matrix("final/item").expect("item table"), seen }
    }

    /// Plain `gather_rows` → `matmul_nt` → seen mask → `top_k_rows`, one
    /// `(item, score bits)` list per query.
    fn answer(&self, queries: &[Query]) -> Vec<Vec<(u32, u32)>> {
        let idx: Vec<usize> = queries.iter().map(|q| q.user as usize).collect();
        let mut scores = self.user.gather_rows(&idx).matmul_nt(&self.item);
        for (row, q) in queries.iter().enumerate() {
            if let (true, Some((indptr, items))) = (q.exclude_seen, &self.seen) {
                let u = q.user as usize;
                for &it in &items[indptr[u] as usize..indptr[u + 1] as usize] {
                    scores.row_mut(row)[it as usize] = f32::NEG_INFINITY;
                }
            }
        }
        let k_max = queries.iter().map(|q| q.k).max().expect("non-empty batch");
        let top = top_k_rows(&scores, k_max);
        queries
            .iter()
            .enumerate()
            .map(|(row, q)| {
                top.row(row)
                    .take(q.k)
                    .filter(|&(_, s)| s > f32::NEG_INFINITY)
                    .map(|(it, s)| (it, s.to_bits()))
                    .collect()
            })
            .collect()
    }
}

/// Asserts `engine` answers every user exactly like `reference` (items
/// and score bits) at kernel thread counts 1 and 4, with and without
/// seen-filtering.
fn assert_matches_reference(engine: &Engine, reference: &Reference, tag: &str) {
    let saved = parallel::current_threads();
    for threads in [1usize, 4] {
        parallel::set_threads(threads);
        for exclude_seen in [false, true] {
            let queries: Vec<Query> = (0..engine.num_users())
                .map(|u| Query { user: u as u32, k: 1 + u % 7, exclude_seen })
                .collect();
            let want = reference.answer(&queries);
            for (u, (got, want)) in engine.recommend_batch(&queries).iter().zip(&want).enumerate() {
                let got: Vec<(u32, u32)> = got
                    .as_ref()
                    .unwrap_or_else(|e| panic!("{tag}: user {u} unanswered: {e}"))
                    .iter()
                    .map(|s| (s.item, s.score.to_bits()))
                    .collect();
                assert_eq!(
                    &got, want,
                    "{tag}: user {u} diverges (threads={threads}, exclude_seen={exclude_seen})"
                );
            }
        }
    }
    parallel::set_threads(saved);
}

#[test]
fn sharded_engine_is_bit_identical_to_dense_at_both_thread_counts() {
    let (ckpt, dir) = save_fixture("bitident");
    let reference = Reference::of(&ckpt, ckpt.matrix("final/user_scoring").expect("user table"));
    let mut modes = vec![MapMode::Off];
    if MapMode::Auto.resolves_to_map() {
        modes.push(MapMode::On);
    }
    for mode in modes {
        let sharded = Engine::open_segmented_with(&dir, mode).expect("sharded engine");
        assert_matches_reference(&sharded, &reference, &format!("sharded {mode:?}"));
    }
}

/// A checkpoint that stores τ instead of pre-recalibrated user rows: the
/// engine must re-apply `user + τ·user`. The reference computes it here
/// with the kernels training uses.
fn tau_checkpoint(seed: u64) -> (Checkpoint, Matrix) {
    let base = synth_checkpoint(seed);
    let user = base.matrix("final/user_scoring").expect("user table");
    let mut tau = CsrBuilder::new(USERS, USERS);
    for u in 0..USERS {
        tau.push(u, (u * 5 + 1) % USERS, 0.25);
        tau.push(u, (u * 11 + 3) % USERS, -0.5);
    }
    let tau = tau.build();
    let scoring = user.add(&tau.spmm(&user));
    let mut c = Checkpoint::new();
    c.set_meta("model", "synthetic-tau");
    c.push_matrix("final/user", &user);
    c.push_matrix("final/item", &base.matrix("final/item").expect("item table"));
    c.push_u32("tau/indptr", tau.row_ptr().iter().map(|&p| p as u32).collect());
    c.push_u32("tau/cols", tau.col_idx().iter().map(|&c| c as u32).collect());
    c.push_f32("tau/values", 1, tau.nnz(), tau.values().to_vec());
    c.push_u32("seen/indptr", base.u32s("seen/indptr").expect("seen indptr").to_vec());
    c.push_u32("seen/items", base.u32s("seen/items").expect("seen items").to_vec());
    (c, scoring)
}

#[test]
fn both_load_paths_match_an_independent_reference_scorer() {
    let (with_tau, scoring) = tau_checkpoint(7);
    let plain = synth_checkpoint(11);
    let plain_user = plain.matrix("final/user_scoring").expect("user table");
    let mut unseen = Checkpoint::new();
    unseen.push_matrix("final/user_scoring", &plain_user);
    unseen.push_matrix("final/item", &plain.matrix("final/item").expect("item table"));
    for (name, ckpt, user) in [("tau", with_tau, scoring), ("unseen", unseen, plain_user)] {
        let reference = Reference::of(&ckpt, user);
        assert_eq!(reference.seen.is_some(), name == "tau");
        let loaded = Engine::from_checkpoint(&ckpt).expect("checkpoint engine");
        assert!(loaded.shard_stats().is_none(), "checkpoint engines report no shard stats");
        assert_matches_reference(&loaded, &reference, &format!("{name} checkpoint"));
        let dir = fresh_dir(&format!("reference-{name}"));
        save_segmented(&ckpt, &dir, USER_SHARD_ROWS, ITEM_SHARD_ROWS).expect("segmented save");
        let sharded = Engine::open_segmented(&dir).expect("segmented engine");
        assert!(sharded.shard_stats().is_some_and(|s| s.user_total == 4 && s.item_total == 3));
        assert_matches_reference(&sharded, &reference, &format!("{name} segmented"));
    }
}

/// Opening plus full verification plus reassembly must yield a typed
/// error for a damaged directory — and must never panic.
fn open_all(dir: &Path) -> Result<(), CheckpointError> {
    let seg = SegmentedCheckpoint::open_with(dir, MapMode::Off)?;
    seg.verify_all()?;
    seg.reassemble().map(|_| ())
}

#[test]
fn every_truncation_of_every_file_is_a_typed_error() {
    let (_, dir) = save_fixture("truncate");
    let files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("listing fixture")
        .map(|e| e.expect("dir entry").path())
        .collect();
    assert_eq!(files.len(), 1 + 4 + 3, "manifest + 4 user + 3 item segments");
    for file in &files {
        let original = std::fs::read(file).expect("reading fixture file");
        for keep in [0usize, 1, 4, original.len() / 2, original.len() - 1] {
            std::fs::write(file, &original[..keep]).expect("truncating");
            let err = open_all(&dir).expect_err(&format!(
                "{} truncated to {keep} bytes must fail",
                file.display()
            ));
            // Any typed variant is acceptable; reaching here already proves
            // no panic. Exercise Display for coverage of the error path.
            let _ = err.to_string();
        }
        std::fs::write(file, &original).expect("restoring");
    }
    open_all(&dir).expect("fixture restored to a valid state");
}

#[test]
fn every_byte_flip_region_of_every_file_is_a_typed_error() {
    let (_, dir) = save_fixture("byteflip");
    let files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("listing fixture")
        .map(|e| e.expect("dir entry").path())
        .collect();
    for file in &files {
        let original = std::fs::read(file).expect("reading fixture file");
        let n = original.len();
        for offset in [0usize, n / 3, 2 * n / 3, n - 1] {
            let mut mutated = original.clone();
            mutated[offset] ^= 0xA5;
            std::fs::write(file, &mutated).expect("writing flip");
            let err = open_all(&dir).expect_err(&format!(
                "{} with byte {offset} flipped must fail",
                file.display()
            ));
            let _ = err.to_string();
        }
        std::fs::write(file, &original).expect("restoring");
    }
    open_all(&dir).expect("fixture restored to a valid state");
}

#[test]
fn missing_and_stray_segments_are_detected_by_name() {
    let (_, dir) = save_fixture("inventory");

    // A stray segment the manifest does not know about.
    std::fs::write(dir.join("user-00099.seg"), b"not a segment").expect("planting stray");
    match open_all(&dir) {
        Err(CheckpointError::ExtraSegment(name)) => assert!(name.contains("user-00099.seg")),
        other => panic!("stray segment must be ExtraSegment, got {other:?}"),
    }
    std::fs::remove_file(dir.join("user-00099.seg")).expect("removing stray");

    // A manifest-listed segment that is gone.
    let victim = dir.join("item-00001.seg");
    let bytes = std::fs::read(&victim).expect("reading victim");
    std::fs::remove_file(&victim).expect("deleting victim");
    match open_all(&dir) {
        Err(CheckpointError::MissingSegment(name)) => assert!(name.contains("item-00001.seg")),
        other => panic!("deleted segment must be MissingSegment, got {other:?}"),
    }
    std::fs::write(&victim, &bytes).expect("restoring victim");
    open_all(&dir).expect("fixture restored to a valid state");

    // A digest mismatch names the exact segment. Flip a byte in the middle
    // of the payload (headers would fail parse first; the digest check runs
    // before parsing, so any offset reports the same way).
    let mut mutated = bytes.clone();
    let mid = mutated.len() / 2;
    mutated[mid] ^= 0xFF;
    std::fs::write(&victim, &mutated).expect("corrupting victim");
    let seg = SegmentedCheckpoint::open_with(&dir, MapMode::Off).expect("manifest still valid");
    match seg.load_item_shard(1) {
        Err(CheckpointError::SegmentDigestMismatch { segment, .. }) => {
            assert!(segment.contains("item-00001.seg"));
        }
        other => panic!("digest mismatch must be typed, got {other:?}"),
    }
    std::fs::write(&victim, &bytes).expect("restoring victim");
}

#[test]
fn lazy_loading_is_observable_and_shard_failures_are_sticky() {
    let (_, dir) = save_fixture("lazy");
    let engine = Engine::open_segmented_with(&dir, MapMode::Off).expect("sharded engine");
    let stats0 = engine.shard_stats().expect("sharded engines report stats");
    assert_eq!(stats0.user_resident, 0, "nothing resident before first touch");
    assert_eq!(stats0.user_total, 4);
    assert_eq!(stats0.user_table_bytes, (USERS * DIM * 4) as u64);

    // First touch loads exactly the shard of user 0.
    engine.recommend(Query { user: 0, k: 5, exclude_seen: false }).expect("healthy query");
    let stats1 = engine.shard_stats().expect("stats after touch");
    assert_eq!(stats1.user_resident, 1);
    assert_eq!(stats1.user_resident_bytes, (USER_SHARD_ROWS * DIM * 4) as u64);

    // Repeat touch keeps residency flat — no reload.
    engine.recommend(Query { user: 1, k: 5, exclude_seen: true }).expect("same-shard query");
    assert_eq!(engine.shard_stats().expect("stats").user_resident, 1);

    // Corrupt the *last* user shard on disk after open: its first touch
    // must fail with a typed 503-mapped error, the failure must be sticky
    // (no reread), and healthy shards must keep answering.
    let victim = dir.join("user-00003.seg");
    let bytes = std::fs::read(&victim).expect("reading victim");
    let mut mutated = bytes.clone();
    let mid = mutated.len() / 2;
    mutated[mid] ^= 0xFF;
    std::fs::write(&victim, &mutated).expect("corrupting victim");

    let last = (USERS - 1) as u32;
    let first_err = engine
        .recommend(Query { user: last, k: 5, exclude_seen: false })
        .expect_err("corrupt shard must not serve");
    match &first_err {
        QueryError::ShardUnavailable { shard, .. } => assert_eq!(*shard, 3),
        other => panic!("expected ShardUnavailable, got {other:?}"),
    }

    // Healing the file on disk must NOT heal the engine: the failure was
    // latched at first touch, so responses stay deterministic.
    std::fs::write(&victim, &bytes).expect("restoring victim");
    let second_err = engine
        .recommend(Query { user: last, k: 5, exclude_seen: false })
        .expect_err("shard failure must be sticky");
    assert_eq!(first_err, second_err, "degraded responses must be deterministic");

    // Healthy shards are unaffected throughout.
    engine.recommend(Query { user: 0, k: 5, exclude_seen: false }).expect("healthy shard");

    // A fresh open sees the healed file and serves everything.
    let healed = Engine::open_segmented_with(&dir, MapMode::Off).expect("reopen");
    healed.recommend(Query { user: last, k: 5, exclude_seen: false }).expect("healed query");
}
