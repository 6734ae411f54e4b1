//! Checkpoint persistence: round-trip fidelity, corrupt-file error paths,
//! and shared multi-reader loading (the serving engine's contract), then
//! the binary format's bitwise round trips, rejection of every bit flip
//! and truncation, and concurrent saves to one path.

use nettag_core::{
    fnv1a, load_checkpoint, load_checkpoint_shared, save_checkpoint, CheckpointError, NetTag,
    NetTagConfig,
};
use nettag_nn::Layer;
use proptest::prelude::*;
use std::io::Write;
use std::sync::{Arc, Barrier, OnceLock};

fn tmp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("nettag_persist_it");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(name)
}

#[test]
fn roundtrip_preserves_every_weight_bitwise() {
    let model = NetTag::new(NetTagConfig::tiny());
    let path = tmp_path("roundtrip.json");
    save_checkpoint(&model, &path).expect("save");
    let loaded = load_checkpoint(&path).expect("load");
    // Weight-level equality, not just embedding-level: every tensor bit
    // for bit.
    assert_bitwise_equal(&model, &loaded);
    assert_eq!(model.config.embed_dim, loaded.config.embed_dim);
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_checkpoint_is_a_format_error() {
    let model = NetTag::new(NetTagConfig::tiny());
    let path = tmp_path("truncated.json");
    save_checkpoint(&model, &path).expect("save");
    let full = std::fs::read(&path).expect("read back");
    std::fs::write(&path, &full[..full.len() / 2]).expect("truncate");
    let err = load_checkpoint(&path).expect_err("truncated file must fail");
    assert!(matches!(err, CheckpointError::Format(_)), "got: {err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_json_is_a_format_error() {
    let path = tmp_path("corrupt.json");
    let mut f = std::fs::File::create(&path).expect("create");
    f.write_all(b"{\"config\": \"this is not a model\"}")
        .expect("write");
    drop(f);
    let err = load_checkpoint(&path).expect_err("corrupt file must fail");
    assert!(matches!(err, CheckpointError::Format(_)), "got: {err}");
    let shared_err = load_checkpoint_shared(&path).expect_err("shared load must also fail");
    assert!(matches!(shared_err, CheckpointError::Format(_)));
    std::fs::remove_file(&path).ok();
}

#[test]
fn save_replaces_atomically_and_leaves_no_temp_files() {
    let model = NetTag::new(NetTagConfig::tiny());
    let path = tmp_path("atomic.json");
    // Seed the path with a valid checkpoint, then overwrite it in place:
    // at no point may the path hold a torn file, and the temp file the
    // save staged through must be gone afterwards.
    save_checkpoint(&model, &path).expect("seed save");
    save_checkpoint(&model, &path).expect("overwrite save");
    let loaded = load_checkpoint(&path).expect("overwritten checkpoint parses");
    assert_bitwise_equal(&model, &loaded);
    let dir = path.parent().expect("tmp dir");
    let leftovers: Vec<_> = std::fs::read_dir(dir)
        .expect("scan dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("atomic.json.tmp"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "staging files left behind: {leftovers:?}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn failed_save_keeps_the_previous_checkpoint_intact() {
    let model = NetTag::new(NetTagConfig::tiny());
    let path = tmp_path("torn_write_guard.json");
    save_checkpoint(&model, &path).expect("seed save");
    let before = std::fs::read(&path).expect("read seed");
    // Simulate the crash-adjacent failure mode: the staging temp file
    // cannot be created (its name is occupied by a directory), so the
    // save fails *before* the rename. The published checkpoint must be
    // byte-identical to what was there — a reader never observes a torn
    // or half-written file.
    let tmp_name = format!("torn_write_guard.json.tmp.{}", std::process::id());
    let blocker = path.parent().expect("dir").join(&tmp_name);
    std::fs::create_dir_all(&blocker).expect("occupy temp path");
    let err = save_checkpoint(&model, &path).expect_err("save must fail");
    assert!(matches!(err, CheckpointError::Io(_)), "got: {err}");
    let after = std::fs::read(&path).expect("read back");
    assert_eq!(
        before, after,
        "a failed save must leave the previous checkpoint byte-identical"
    );
    load_checkpoint(&path).expect("previous checkpoint still parses");
    std::fs::remove_dir(&blocker).ok();
    std::fs::remove_file(&path).ok();
}

#[test]
fn missing_file_is_an_io_error() {
    let err = load_checkpoint_shared(tmp_path("never_written.json")).expect_err("must fail");
    assert!(matches!(err, CheckpointError::Io(_)));
}

#[test]
fn shared_loads_alias_one_buffer() {
    let model = NetTag::new(NetTagConfig::tiny());
    let path = tmp_path("shared.json");
    save_checkpoint(&model, &path).expect("save");
    let a = load_checkpoint_shared(&path).expect("load a");
    let b = load_checkpoint_shared(&path).expect("load b");
    assert!(
        Arc::ptr_eq(&a, &b),
        "repeated loads of one path must share one model buffer"
    );
    assert_bitwise_equal(&a, &model);
    std::fs::remove_file(&path).ok();
}

#[test]
fn concurrent_shared_loads_converge_to_one_buffer() {
    let model = NetTag::new(NetTagConfig::tiny());
    let path = tmp_path("concurrent.json");
    save_checkpoint(&model, &path).expect("save");
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let p = path.clone();
            std::thread::spawn(move || load_checkpoint_shared(p).expect("load"))
        })
        .collect();
    let loaded: Vec<Arc<NetTag>> = handles
        .into_iter()
        .map(|h| h.join().expect("no panics"))
        .collect();
    for m in &loaded[1..] {
        assert!(
            Arc::ptr_eq(&loaded[0], m),
            "all concurrent readers must share one model buffer"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn dropped_handles_release_and_later_loads_reread() {
    let model = NetTag::new(NetTagConfig::tiny());
    let path = tmp_path("rearm.json");
    save_checkpoint(&model, &path).expect("save");
    let first = load_checkpoint_shared(&path).expect("load");
    let first_ptr = Arc::as_ptr(&first);
    drop(first);
    // All handles gone: the registry holds only a dead Weak, so this load
    // re-reads the file (possibly at a new address — what matters is that
    // it succeeds and is again shared going forward).
    let second = load_checkpoint_shared(&path).expect("reload");
    let third = load_checkpoint_shared(&path).expect("load again");
    assert!(Arc::ptr_eq(&second, &third));
    let _ = first_ptr;
    std::fs::remove_file(&path).ok();
}

// ---- Binary format: bitwise fidelity, corruption, concurrency ----------

/// Magic, version, eight `u64` config sizes, `temperature` (f32),
/// `mask_rate` (f64), `seed` (u64) and `text_scale` (f32).
const HEADER: usize = 8 + 4 + 8 * 8 + 4 + 8 + 8 + 4;
const VERSION_AT: usize = 8;
const TEXT_DIM_AT: usize = 12 + 8;
const TEXT_HEADS_AT: usize = 12 + 3 * 8;

/// Every param's shape and the bits of its value, `m` and `v`.
type ParamBits = Vec<((usize, usize), [Vec<u32>; 3])>;

fn param_bits(model: &NetTag) -> ParamBits {
    let bits = |t: &nettag_nn::Tensor| t.data.iter().map(|x| x.to_bits()).collect();
    model
        .clone()
        .params_mut()
        .into_iter()
        .map(|p| {
            (
                (p.value.rows, p.value.cols),
                [bits(&p.value), bits(&p.m), bits(&p.v)],
            )
        })
        .collect()
}

/// Every config field and `text_scale`, floats as bits.
fn header_fields(model: &NetTag) -> (Vec<usize>, [u64; 4]) {
    let c = &model.config;
    (
        vec![
            c.embed_dim,
            c.text_dim,
            c.text_layers,
            c.text_heads,
            c.max_tokens,
            c.graph_dim,
            c.graph_layers,
            c.hops,
        ],
        [
            u64::from(c.temperature.to_bits()),
            c.mask_rate.to_bits(),
            c.seed,
            u64::from(model.text_scale.to_bits()),
        ],
    )
}

fn assert_bitwise_equal(a: &NetTag, b: &NetTag) {
    assert_eq!(header_fields(a), header_fields(b), "config or text_scale");
    assert_eq!(param_bits(a), param_bits(b), "params");
}

/// Writes `bytes` under `name` and loads it back.
fn load_bytes(name: &str, bytes: &[u8]) -> Result<NetTag, CheckpointError> {
    let path = tmp_path(name);
    std::fs::write(&path, bytes).expect("write");
    let result = load_checkpoint(&path);
    std::fs::remove_file(&path).ok();
    result
}

fn assert_format(name: &str, bytes: &[u8], what: &str) {
    match load_bytes(name, bytes) {
        Err(CheckpointError::Format(_)) => {}
        Err(e) => panic!("{what}: expected a format error, got {e}"),
        Ok(_) => panic!("{what}: a corrupt checkpoint loaded"),
    }
}

/// The saved bytes of the tiny model, written once per test binary.
fn tiny_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let path = tmp_path("tiny_bytes.ckpt");
        save_checkpoint(&NetTag::new(NetTagConfig::tiny()), &path).expect("save");
        let bytes = std::fs::read(&path).expect("read back");
        std::fs::remove_file(&path).ok();
        bytes
    })
}

/// `bytes` after `edit` on its body, with the trailer recomputed so the
/// checksum matches again.
fn resealed(bytes: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut body = bytes[..bytes.len() - 8].to_vec();
    edit(&mut body);
    let sum = fnv1a(&body);
    body.extend_from_slice(&sum.to_le_bytes());
    body
}

/// A model whose moments, config floats and `text_scale` are all
/// non-default, so every stored field carries information.
fn trained_looking(config: NetTagConfig) -> NetTag {
    let mut model = NetTag::new(NetTagConfig {
        temperature: 0.07,
        mask_rate: 0.3,
        seed: 0x5EED_1234_ABCD,
        ..config
    });
    model.text_scale = 0.5;
    for (i, p) in model.params_mut().into_iter().enumerate() {
        for (j, (m, v)) in p.m.data.iter_mut().zip(&mut p.v.data).enumerate() {
            *m = (i * 31 + j) as f32 * 1e-3 - 0.25;
            *v = ((i + j) % 17) as f32 * 1e-4;
        }
    }
    model
}

#[test]
fn every_param_moment_and_config_field_round_trips_bitwise() {
    for (name, config) in [
        ("tiny", NetTagConfig::tiny()),
        ("small", NetTagConfig::small()),
    ] {
        let model = trained_looking(config);
        let path = tmp_path(&format!("fields_{name}.ckpt"));
        save_checkpoint(&model, &path).expect("save");
        let loaded = load_checkpoint(&path).expect("load");
        assert_bitwise_equal(&model, &loaded);
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn non_finite_and_subnormal_values_round_trip_bitwise() {
    let specials = [
        f32::from_bits(0x7fc1_2345), // quiet NaN with a payload
        f32::from_bits(0xffa0_0001), // negative signalling NaN with a payload
        f32::INFINITY,
        f32::NEG_INFINITY,
        -0.0,
        f32::from_bits(1), // smallest subnormal
        f32::MIN_POSITIVE / 3.0,
    ];
    let mut model = NetTag::new(NetTagConfig::tiny());
    for p in model.exprllm.params_mut() {
        for t in [&mut p.value, &mut p.m, &mut p.v] {
            let n = specials.len().min(t.data.len());
            t.data[..n].copy_from_slice(&specials[..n]);
        }
    }
    let path = tmp_path("non_finite.ckpt");
    save_checkpoint(&model, &path).expect("a diverged model still saves");
    let loaded = load_checkpoint(&path).expect("and loads again");
    assert_bitwise_equal(&model, &loaded);
    std::fs::remove_file(&path).ok();
}

#[test]
fn concurrent_saves_to_one_path_publish_one_whole_model() {
    const SAVERS: u64 = 8;
    let path = tmp_path("concurrent_saves.ckpt");
    let barrier = Arc::new(Barrier::new(SAVERS as usize));
    let handles: Vec<_> = (0..SAVERS)
        .map(|seed| {
            let (path, barrier) = (path.clone(), Arc::clone(&barrier));
            std::thread::spawn(move || {
                let model = NetTag::new(NetTagConfig {
                    seed,
                    ..NetTagConfig::tiny()
                });
                barrier.wait();
                let saved = save_checkpoint(&model, &path);
                (model, saved)
            })
        })
        .collect();
    let models: Vec<NetTag> = handles
        .into_iter()
        .map(|h| {
            let (model, saved) = h.join().expect("no panics");
            saved.expect("every concurrent save succeeds");
            model
        })
        .collect();
    let loaded = load_checkpoint(&path).expect("the published file loads");
    let loaded_bits = (header_fields(&loaded), param_bits(&loaded));
    assert!(
        models
            .iter()
            .any(|m| (header_fields(m), param_bits(m)) == loaded_bits),
        "the published checkpoint must be one saver's whole model"
    );
    let dir = path.parent().expect("tmp dir");
    let leftovers: Vec<_> = std::fs::read_dir(dir)
        .expect("scan dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("concurrent_saves.ckpt.tmp"))
        .collect();
    assert!(leftovers.is_empty(), "staging files left: {leftovers:?}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn every_header_and_trailer_bit_flip_is_rejected() {
    let bytes = tiny_bytes();
    let offsets = (0..HEADER).chain(bytes.len() - 8..bytes.len());
    for offset in offsets {
        for bit in 0..8 {
            let mut flipped = bytes.to_vec();
            flipped[offset] ^= 1 << bit;
            assert_format(
                "flip_exhaustive.ckpt",
                &flipped,
                &format!("bit {bit} of byte {offset}"),
            );
        }
    }
}

#[test]
fn edge_truncations_are_rejected() {
    let bytes = tiny_bytes();
    let len = bytes.len();
    for cut in [0, HEADER - 1, HEADER, len - 8, len - 1] {
        assert_format(
            "truncate_edge.ckpt",
            &bytes[..cut],
            &format!("{cut} of {len} bytes"),
        );
    }
}

#[test]
fn bumped_version_is_rejected() {
    let bumped = resealed(tiny_bytes(), |b| {
        b[VERSION_AT..VERSION_AT + 4].copy_from_slice(&3u32.to_le_bytes());
    });
    assert_format("version.ckpt", &bumped, "version 3");
}

/// A version-1 file (the softmax-attention TAGFormer's layout: a ninth
/// config size, `graph_heads`, after `graph_layers`) with a valid
/// checksum loads as a `Format` error that names its version.
#[test]
fn version_1_file_is_a_format_error() {
    const GRAPH_HEADS_AT: usize = 12 + 7 * 8;
    let v1 = resealed(tiny_bytes(), |b| {
        b[VERSION_AT..VERSION_AT + 4].copy_from_slice(&1u32.to_le_bytes());
        let heads = 2u64.to_le_bytes();
        b.splice(GRAPH_HEADS_AT..GRAPH_HEADS_AT, heads);
    });
    match load_bytes("version_1.ckpt", &v1) {
        Err(CheckpointError::Format(reason)) => {
            assert!(reason.contains("version 1"), "reason: {reason}");
        }
        Err(e) => panic!("expected a format error, got {e}"),
        Ok(_) => panic!("a version-1 checkpoint loaded"),
    }
}

#[test]
fn config_disagreeing_with_stored_shapes_is_rejected() {
    // 32 still splits into the tiny config's 2 heads, so the model
    // builds; its shapes no longer match the stored ones.
    let wider = resealed(tiny_bytes(), |b| {
        b[TEXT_DIM_AT..TEXT_DIM_AT + 8].copy_from_slice(&32u64.to_le_bytes());
    });
    assert_format("shapes.ckpt", &wider, "text_dim 32 over text_dim 16 params");
    let extra = resealed(tiny_bytes(), |b| b.extend_from_slice(&[0; 12]));
    assert_format("trailing.ckpt", &extra, "bytes past the last param");
}

#[test]
fn configs_the_model_cannot_build_are_rejected() {
    for (heads, what) in [(0u64, "zero heads"), (3, "heads not dividing the width")] {
        let bad = resealed(tiny_bytes(), |b| {
            b[TEXT_HEADS_AT..TEXT_HEADS_AT + 8].copy_from_slice(&heads.to_le_bytes());
        });
        assert_format("heads.ckpt", &bad, what);
    }
    let huge = resealed(tiny_bytes(), |b| {
        b[TEXT_DIM_AT..TEXT_DIM_AT + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
    });
    assert_format("huge.ckpt", &huge, "a width larger than the file");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn any_single_bit_flip_is_rejected(at in any::<u64>(), bit in 0u32..8) {
        let mut flipped = tiny_bytes().to_vec();
        let offset = (at % flipped.len() as u64) as usize;
        flipped[offset] ^= 1 << bit;
        let loaded = load_bytes("flip_random.ckpt", &flipped);
        prop_assert!(
            matches!(loaded, Err(CheckpointError::Format(_))),
            "bit {bit} of byte {offset} was not a format error"
        );
    }

    #[test]
    fn any_truncation_is_rejected(at in any::<u64>()) {
        let bytes = tiny_bytes();
        let cut = (at % bytes.len() as u64) as usize;
        let loaded = load_bytes("truncate_random.ckpt", &bytes[..cut]);
        prop_assert!(
            matches!(loaded, Err(CheckpointError::Format(_))),
            "a file cut to {cut} bytes was not a format error"
        );
    }

    #[test]
    fn arbitrary_bytes_are_rejected_without_panicking(
        tail in prop::collection::vec(0u8..=255, 0..400),
        with_magic in any::<bool>(),
    ) {
        let mut bytes = Vec::new();
        if with_magic {
            bytes.extend_from_slice(b"NTAGCKPT");
            bytes.extend_from_slice(&2u32.to_le_bytes());
        }
        bytes.extend_from_slice(&tail);
        prop_assert!(load_bytes("arbitrary.ckpt", &bytes).is_err());
    }

    #[test]
    fn checksummed_garbage_is_rejected_without_panicking(
        sizes in prop::collection::vec(0u64..5, 8),
        floats in prop::collection::vec(0u8..=255, 24),
        tail in prop::collection::vec(0u8..=255, 0..400),
    ) {
        // A valid magic, version and checksum over a small random config
        // and random params: the decoder itself must reject it.
        let mut body = b"NTAGCKPT".to_vec();
        body.extend_from_slice(&2u32.to_le_bytes());
        for s in &sizes {
            body.extend_from_slice(&s.to_le_bytes());
        }
        body.extend_from_slice(&floats);
        body.extend_from_slice(&tail);
        let sum = fnv1a(&body);
        body.extend_from_slice(&sum.to_le_bytes());
        prop_assert!(load_bytes("checksummed_garbage.ckpt", &body).is_err());
    }
}
