//! Determinism of the data-parallel training pipeline: two full
//! pre-training runs with the same seed must produce bitwise-identical
//! loss traces, and so must two fine-tuning head fits. CI replays this
//! suite at `RAYON_NUM_THREADS=1` and `4`; combined with the
//! serial-vs-parallel step equivalence tests in `nettag-nn`, that pins
//! the whole training path to one result at any thread count.
//!
//! The `*_fingerprints` tests go further and pin the bits themselves, as
//! FNV-1a constants: the loss traces, the trained model's `[CLS]`
//! embeddings and ExprLLM's encodings. A change that must keep the
//! model's numbers leaves them alone; one that changes them on purpose
//! re-records them and says why.

use nettag_core::data::{build_pretrain_data, DataConfig, PretrainData};
use nettag_core::{
    fnv1a, pretrain, ClassifierHead, ExprLlm, FinetuneConfig, NetTag, NetTagConfig, PretrainConfig,
    PretrainReport,
};
use nettag_netlist::{Library, Tag};
use nettag_synth::{generate_design, Family, GenerateConfig};

fn run_once() -> PretrainReport {
    trained().1
}

/// The pre-training corpus, and the model pre-trained on it with its
/// report.
fn trained() -> (PretrainData, PretrainReport, NetTag) {
    let lib = Library::default();
    let designs: Vec<_> = (0..2)
        .map(|i| generate_design(Family::OpenCores, i, 3, &GenerateConfig::default()))
        .collect();
    let data = build_pretrain_data(
        &designs,
        &lib,
        &DataConfig {
            max_cones_per_design: 2,
            ..DataConfig::default()
        },
    );
    let mut model = NetTag::new(NetTagConfig::tiny());
    let config = PretrainConfig {
        step1_steps: 6,
        step1_batch: 4,
        step2_steps: 4,
        step2_batch: 3,
        ..PretrainConfig::default()
    };
    let report = pretrain(&mut model, &data, &config);
    (data, report, model)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// FNV-1a over the little-endian bits of `rows`, in order.
fn fingerprint<'a>(rows: impl IntoIterator<Item = &'a [f32]>) -> u64 {
    let bytes: Vec<u8> = rows
        .into_iter()
        .flatten()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    fnv1a(&bytes)
}

#[test]
fn pretrain_fingerprints() {
    let (data, report, model) = trained();
    let tags: Vec<&Tag> = data.cones.iter().map(|c| &c.tag).collect();
    let cls: Vec<Vec<f32>> = model
        .embed_tags(&tags)
        .into_iter()
        .map(|e| e.cls.data)
        .collect();
    let got = [
        fingerprint([&report.step1_losses[..]]),
        fingerprint([&report.step2_losses[..]]),
        fingerprint(cls.iter().map(Vec::as_slice)),
    ];
    assert_eq!(
        got,
        [
            0xf770_96bf_33db_4ece,
            0xb51b_4ec8_406d_7eca,
            0x9755_3ad4_552a_fc49
        ],
        "step-1 losses, step-2 losses, trained [CLS] rows: {got:#018x?}"
    );
}

#[test]
fn exprllm_encode_fingerprints() {
    let vocab = NetTag::vocab();
    // Lengths from one token to past both configs' `max_tokens` (48, 160).
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let seqs: Vec<Vec<u32>> = [1usize, 2, 3, 5, 17, 48, 61, 170]
        .iter()
        .map(|&n| {
            (0..n)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    ((state >> 33) % vocab.len() as u64) as u32
                })
                .collect()
        })
        .collect();
    let got = [NetTagConfig::tiny(), NetTagConfig::small()].map(|config| {
        let model = ExprLlm::new(vocab, &config);
        let rows: Vec<Vec<f32>> = seqs.iter().map(|s| model.encode(s).data).collect();
        fingerprint(rows.iter().map(Vec::as_slice))
    });
    assert_eq!(
        got,
        [0xd8b0_dcff_038a_c737, 0xc061_450a_f36c_a24f],
        "tiny, small: {got:#018x?}"
    );
}

#[test]
fn pretrain_losses_are_bitwise_reproducible() {
    let a = run_once();
    let b = run_once();
    assert!(!a.step1_losses.is_empty() && !a.step2_losses.is_empty());
    assert_eq!(
        bits(&a.step1_losses),
        bits(&b.step1_losses),
        "step-1 traces must be bitwise identical for one seed"
    );
    assert_eq!(
        bits(&a.step2_losses),
        bits(&b.step2_losses),
        "step-2 traces must be bitwise identical for one seed"
    );
}

#[test]
fn finetune_head_is_bitwise_reproducible() {
    // 40 samples across two separable blobs, two shards' worth of rows.
    let features: Vec<Vec<f32>> = (0..40)
        .map(|i| {
            let c = if i % 2 == 0 { 1.0f32 } else { -1.0 };
            vec![c + 0.01 * i as f32, -c, 0.5 * c]
        })
        .collect();
    let labels: Vec<usize> = (0..40).map(|i| i % 2).collect();
    let config = FinetuneConfig {
        epochs: 25,
        ..FinetuneConfig::default()
    };
    let h1 = ClassifierHead::train(&features, &labels, 2, &config);
    let h2 = ClassifierHead::train(&features, &labels, 2, &config);
    assert_eq!(h1.predict(&features), h2.predict(&features));
    let p = h1.predict(&features);
    let acc = p.iter().zip(labels.iter()).filter(|(a, b)| a == b).count();
    assert!(acc >= 36, "separable blobs should classify, got {acc}/40");
}
