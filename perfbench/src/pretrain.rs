//! `pretrain`: two-step pre-training over a fixed schedule.
//!
//! Each corpus is the paper pipeline's at bench scale: two scale-0.5
//! designs per family, at most eight cones each, default objectives. The
//! timed run repeats whole `pretrain()` rounds (step 1, the ExprLLM
//! freeze, step 2) from the loaded weights, one seeded corpus per round,
//! until the run length is used. The ExprLLM / TAGFormer / `nn` layers
//! that serving runs tapeless are measured here under tape forward,
//! backward and Adam. Round times are not scaled by speed probes (see
//! `Speed`): a probe next to a one-second round tracked it worse than no
//! probe at all.

use crate::common::{
    fail, median_setup, peak_rss_mb, reset_peak_rss, same_bits, timed, Report, Res, Scratch, Stage,
};
use crate::stats::{median, summarize, SplitMix};
use nettag_core::data::{build_pretrain_data, DataConfig, PretrainData};
use nettag_core::{
    freeze_cone_features, load_checkpoint, pretrain, pretrain_exprllm, pretrain_tagformer,
    rtl_vocab, LayoutEncoder, NetTag, PretrainConfig, PretrainHeads, PretrainReport, RtlEncoder,
};
use nettag_expr::token::tokenize_expr;
use nettag_expr::{augment_equivalent, AugmentConfig};
use nettag_netlist::{chunk_into_cones, cone_to_netlist, Library, Tag};
use nettag_nn::{data_parallel, info_nce, Adam, GradStore, Graph, Layer, SampleTape};
use nettag_synth::Design;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Set-ups timed per run (checkpoint load + corpus build).
const SETUP_REPS: usize = 3;
/// Designs per family in the corpus, and their generator scale.
const PER_FAMILY: usize = 2;
const SCALE: f64 = 0.5;
/// Cones kept per design.
const MAX_CONES: usize = 8;
/// Corpora a run cycles through, one per round: a single ~50-cone corpus
/// swings the cost of a round by a third from seed to seed.
const CORPORA: usize = 8;
/// Optimizer steps per round in step 1 and step 2. A round takes about a
/// second on the tiny model, three fifths of it in the steps.
const STEP1_STEPS: usize = 40;
const STEP2_STEPS: usize = 40;
/// Repetitions of the `nn` micro-measurements in the traced run.
const MICRO_REPS: usize = 20;

fn schedule() -> PretrainConfig {
    PretrainConfig {
        step1_steps: STEP1_STEPS,
        step2_steps: STEP2_STEPS,
        ..PretrainConfig::default()
    }
}

fn data_config() -> DataConfig {
    DataConfig {
        max_cones_per_design: MAX_CONES,
        ..DataConfig::default()
    }
}

fn same_report(a: &PretrainReport, b: &PretrainReport) -> bool {
    same_bits(&a.step1_losses, &b.step1_losses) && same_bits(&a.step2_losses, &b.step2_losses)
}

/// The seeds of the run's corpora: a SplitMix stream from the workload
/// seed, so no two corpora share a design.
fn corpus_seeds(seed: u64) -> Vec<u64> {
    let mut rng = SplitMix::new(seed);
    (0..CORPORA).map(|_| rng.next_u64()).collect()
}

/// Runs the workload; `trace` adds the per-layer replay.
pub fn run(seed: u64, seconds: f64, trace: bool, scratch: &Scratch) -> Res<Report> {
    let mut report = Report::default();
    let lib = Library::default();
    let seeds = corpus_seeds(seed);
    let designs: Vec<Vec<Design>> = seeds
        .iter()
        .map(|&s| nettag_tasks::pretrain_designs(s, PER_FAMILY, SCALE))
        .collect();
    let reps = if trace { 1 } else { SETUP_REPS };
    let paths = scratch.checkpoints(seed, reps)?;
    let setup = |i: usize| -> Res<(NetTag, Vec<PretrainData>)> {
        let model = load_checkpoint(&paths[i]).map_err(fail("load checkpoint"))?;
        let corpora = designs
            .iter()
            .map(|d| build_pretrain_data(d, &lib, &data_config()))
            .collect();
        Ok((model, corpora))
    };
    let ((model, corpora), first_setup) = timed(|| setup(0))?;
    reset_peak_rss()?;
    let cfg = schedule();

    let mut rounds = Vec::new();
    let mut firsts: Vec<Option<PretrainReport>> = vec![None; CORPORA];
    let (mut steps, mut bad_steps) = (0u64, 0u64);
    let start = Instant::now();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let c = rounds.len() % CORPORA;
        let mut m = model.clone();
        let t0 = Instant::now();
        let r = pretrain(&mut m, &corpora[c], &cfg);
        rounds.push(t0.elapsed().as_secs_f64());
        let n = (r.step1_losses.len() + r.step2_losses.len()) as u64;
        let finite = r
            .step1_losses
            .iter()
            .chain(&r.step2_losses)
            .all(|l| l.is_finite());
        let repeat = firsts[c].as_ref().is_none_or(|f| same_report(f, &r));
        steps += n;
        if !finite || !repeat {
            bad_steps += n;
            report.mismatches.push(format!(
                "round {} on corpus {c} diverged or lost finiteness",
                rounds.len()
            ));
        }
        firsts[c].get_or_insert(r);
    }
    let peak_rss = peak_rss_mb()?;
    let total: f64 = rounds.iter().sum();
    let steps_per_s = steps as f64 / total;
    let round_ms: Vec<f64> = rounds.iter().map(|s| s * 1e3).collect();
    let lat = summarize(&round_ms, 0.9).ok_or("no round ran")?;
    report.attempted = steps;
    report.failed = bad_steps;

    // Correctness gate, outside the timed section: the phases called one
    // by one reproduce pretrain()'s loss traces bitwise.
    let mut phases = Phases::default();
    let split = phases.run(&model, &corpora[0], &cfg);
    if !firsts[0].as_ref().is_some_and(|f| same_report(&split, f)) {
        report.mismatch("phase-by-phase pre-training diverged from pretrain()".into());
    }
    let data = &corpora[0];

    report.e2e("peak_rss_mb", peak_rss, "MB");
    report.e2e("throughput_per_s", steps_per_s, "1/s");
    report.e2e("p50_ms", lat.p50, "ms");
    report.e2e("tail_ms", lat.tail, "ms");
    report.named(
        "train_steps_per_s",
        steps_per_s,
        "1/s",
        format!(
            "{} rounds of {STEP1_STEPS}+{STEP2_STEPS} steps",
            rounds.len()
        ),
    );
    report.named("round_p50_ms", lat.p50, "ms", format!("n={}", lat.n));
    report.named(
        &format!("round_p{:.0}_ms", lat.tail_q * 100.0),
        lat.tail,
        "ms",
        format!("n={}, {} beyond", lat.n, lat.tail_beyond),
    );
    report.meta(
        "corpus",
        format!(
            "{{\"corpora\": {CORPORA}, \"designs_each\": {}, \"cones\": [{}]}}",
            designs[0].len(),
            corpora
                .iter()
                .map(|c| c.cones.len().to_string())
                .collect::<Vec<_>>()
                .join(", ")
        ),
    );
    report.meta(
        "schedule",
        format!("{{\"step1_steps\": {STEP1_STEPS}, \"step2_steps\": {STEP2_STEPS}}}"),
    );

    if trace {
        phases.report(&mut report);
        front_layers(&mut report, &model, seeds[0], data)?;
        nn_layers(&mut report, &model, data, &cfg);
    }
    report.e2e("setup_s", median_setup(first_setup, reps, setup)?, "s");
    Ok(report)
}

/// Step 1, the freeze and step 2 called one by one, exactly as
/// `pretrain()` composes them, with a timer around each.
#[derive(Default)]
struct Phases {
    step1: Stage,
    init: Stage,
    freeze: Stage,
    step2: Stage,
    wall: Duration,
}

impl Phases {
    fn run(&mut self, model: &NetTag, data: &PretrainData, cfg: &PretrainConfig) -> PretrainReport {
        let mut m = model.clone();
        let t0 = Instant::now();
        let step1_losses = self.step1.time(cfg.step1_steps as u64, || {
            pretrain_exprllm(&mut m, data, cfg)
        });
        let (rtl_voc, mut heads, mut rtl_enc, mut layout_enc) = self.init.time(1, || {
            let rtl_voc = rtl_vocab();
            let heads = PretrainHeads::new(m.config.embed_dim, cfg.seed);
            let rtl_enc = RtlEncoder::new(&rtl_voc, &m.config);
            let layout_enc = LayoutEncoder::new(&m.config);
            (rtl_voc, heads, rtl_enc, layout_enc)
        });
        let frozen = self
            .freeze
            .time(1, || freeze_cone_features(&m, data, &rtl_voc));
        let step2_losses = self.step2.time(cfg.step2_steps as u64, || {
            pretrain_tagformer(
                &mut m,
                &mut heads,
                &mut rtl_enc,
                &mut layout_enc,
                data,
                &frozen,
                cfg,
            )
        });
        self.wall = t0.elapsed();
        PretrainReport {
            step1_losses,
            step2_losses,
        }
    }

    fn report(&self, report: &mut Report) {
        report.layer("core.pretrain.step1_ms", self.step1.per_unit_ms(), "ms");
        report.layer("core.pretrain.step2_ms", self.step2.per_unit_ms(), "ms");
        report.layer("core.pretrain.freeze_ms", self.freeze.per_unit_ms(), "ms");
        let busy = self.step1.busy + self.init.busy + self.freeze.busy + self.step2.busy;
        report.layer(
            "trace.coverage",
            busy.as_secs_f64() / self.wall.as_secs_f64(),
            "ratio",
        );
    }
}

/// The corpus pipeline's front layers on this workload's designs:
/// generation, chunking and TAG building, then the freeze's tokenization
/// and ExprLLM work replayed one cone TAG at a time.
fn front_layers(report: &mut Report, model: &NetTag, seed: u64, data: &PretrainData) -> Res<()> {
    let lib = Library::default();
    let vocab = NetTag::vocab();
    let opts = model.tag_options();
    let [mut gen, mut chunk, mut tag_build, mut tokenize, mut exprllm] = [Stage::default(); 5];
    let designs: Vec<Design> = gen.time((PER_FAMILY * 4) as u64, || {
        nettag_tasks::pretrain_designs(seed, PER_FAMILY, SCALE)
    });
    let cfg = data_config();
    for d in &designs {
        let cones = chunk.time(1, || chunk_into_cones(&d.netlist));
        for cone in cones.iter().take(cfg.max_cones_per_design) {
            let sub = cone_to_netlist(&d.netlist, cone);
            if (4..=cfg.max_cone_gates).contains(&sub.gate_count()) {
                tag_build.time(1, || Tag::from_netlist(&sub, &lib, &opts));
            }
        }
    }
    let (mut rows, mut unique) = (0usize, HashSet::new());
    for tag in data.cones.iter().flat_map(|c| [&c.tag, &c.aug_tag]) {
        let seqs: Vec<_> = tokenize.time(tag.len() as u64, || {
            (0..tag.len())
                .map(|i| tag.node_tokens(&vocab, i, model.config.max_tokens, false))
                .collect()
        });
        exprllm.time(1, || model.exprllm.encode_batch(&seqs));
        rows += seqs.len();
        unique.extend(seqs);
    }
    let unique_ratio = unique.len() as f64 / rows.max(1) as f64;
    report.layer("synth.generate_ms", gen.per_unit_ms(), "ms");
    report.layer("netlist.chunk_ms", chunk.per_unit_ms(), "ms");
    report.layer("netlist.tag_build_us", tag_build.per_unit_us(), "us");
    report.layer("expr.tokenize_us", tokenize.per_unit_us(), "us");
    report.layer("core.exprllm_ms", exprllm.per_unit_ms(), "ms");
    report.layer("core.exprllm_rows", rows as f64, "count");
    report.layer("core.exprllm_unique_ratio", unique_ratio, "ratio");
    report.layer("core.pretrain.freeze_unique_ratio", unique_ratio, "ratio");
    Ok(())
}

/// `data_parallel::step` on one step-1 batch and `Adam::step` over the
/// ExprLLM parameters, each the median of `MICRO_REPS` calls.
fn nn_layers(report: &mut Report, model: &NetTag, data: &PretrainData, cfg: &PretrainConfig) {
    let vocab = NetTag::vocab();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let aug = AugmentConfig::default();
    let batch: Vec<_> = data.exprs.iter().take(cfg.step1_batch).collect();
    let max = model.config.max_tokens;
    let anchors: Vec<_> = batch
        .iter()
        .map(|e| tokenize_expr(&vocab, e, max))
        .collect();
    let positives: Vec<_> = batch
        .iter()
        .map(|e| tokenize_expr(&vocab, &augment_equivalent(e, &aug, &mut rng), max))
        .collect();
    let mut store = GradStore::new();
    let mut dp = Vec::with_capacity(MICRO_REPS);
    for _ in 0..MICRO_REPS {
        let t0 = Instant::now();
        data_parallel::step(
            anchors.len(),
            |i| {
                let mut g = Graph::new();
                let a = model.exprllm.forward(&mut g, &anchors[i]);
                let p = model.exprllm.forward(&mut g, &positives[i]);
                SampleTape {
                    graph: g,
                    outputs: vec![a, p],
                }
            },
            |g, leaves| {
                let a: Vec<_> = leaves.iter().map(|l| l[0]).collect();
                let p: Vec<_> = leaves.iter().map(|l| l[1]).collect();
                let (a, p) = (g.stack_rows(&a), g.stack_rows(&p));
                info_nce(g, a, p, model.config.temperature)
            },
            &mut store,
        );
        dp.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let mut m = model.clone();
    let mut opt = Adam::new(cfg.step1_lr);
    let mut adam = Vec::with_capacity(MICRO_REPS);
    for _ in 0..MICRO_REPS {
        let mut params = m.exprllm.params_mut();
        let t0 = Instant::now();
        opt.step(&mut params, &store);
        adam.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    report.layer("nn.dp_step_ms", median(&dp), "ms");
    report.layer("nn.adam_step_ms", median(&adam), "ms");
}
