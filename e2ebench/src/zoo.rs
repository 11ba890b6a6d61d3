//! The zoo workloads: whole networks under their §4.3-deployed plans,
//! one image at a time through dense, f32 reuse and int8 reuse,
//! interleaved image by image in a closed loop on one thread.

use std::collections::HashMap;
use std::time::Instant;

use greuse::workflow::{reproduce_network, NetworkReproduction, ReproduceConfig};
use greuse::{DeploymentPlan, EitherHashProvider, LayerStats, QuantizedBackend, ReuseBackend};
use greuse_data::SyntheticDataset;
use greuse_mcu::{Board, NetworkLatency, PhaseOps};
use greuse_nn::models::zoo::{self, ZooModel, ZooScale};
use greuse_nn::{ptq_int8, ConvBackend, DenseBackend, TrainableNetwork};
use greuse_tensor::Tensor;

use crate::schema::{BACKENDS, SLOTS};
use crate::stats::{mean, median, min_samples_for, percentile, rel_err, spearman};
use crate::timed::Timed;
use crate::trace::{self, Capture, Phase};
use crate::{plan, Args, Report};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Distinct input images per network; passes cycle through them.
const POOL: usize = 128;
/// Images warmed through every backend during set-up.
const WARMUP: usize = 2;
/// Leading images on which the logit error and the modeled MCU latency
/// are taken, so both depend on the seed only, not on the pass count.
const CHECK_IMAGES: usize = POOL;
/// The modeled board behind `mcu_f4_ms`.
const BOARD: Board = Board::Stm32F469i;

/// One zoo workload: which networks, at which scale.
pub struct Workload {
    models: Vec<ZooModel>,
    scale: ZooScale,
}

impl Workload {
    /// All five networks at Smoke scale.
    pub fn smoke() -> Self {
        Workload {
            models: ZooModel::all().to_vec(),
            scale: ZooScale::Smoke,
        }
    }

    /// ResNet-18 at paper width on 64×64 inputs.
    pub fn resnet18_paper() -> Self {
        Workload {
            models: vec![ZooModel::ResNet18],
            scale: ZooScale::Paper,
        }
    }

    fn config(&self) -> ReproduceConfig {
        ReproduceConfig {
            scale: self.scale,
            ..ReproduceConfig::smoke()
        }
    }
}

/// One network as deployed: weights after PTQ, its plans and backends.
struct Deployed {
    net: Box<dyn TrainableNetwork>,
    repro: NetworkReproduction,
    f32_plan: DeploymentPlan,
    int8_plan: DeploymentPlan,
    f32: ReuseBackend<EitherHashProvider>,
    int8: QuantizedBackend<EitherHashProvider>,
    fc_macs: u64,
}

impl Deployed {
    fn backend(&self, b: usize) -> &dyn ConvBackend {
        match b {
            0 => &DenseBackend,
            1 => &self.f32,
            _ => &self.int8,
        }
    }

    /// Per-layer statistics of reuse backend `b` (1 = f32, 2 = int8).
    fn stats(&self, b: usize) -> HashMap<String, LayerStats> {
        if b == 2 {
            self.int8.stats()
        } else {
            self.f32.stats()
        }
    }

    /// Layers that run reuse under backend `b`. Dense reports the f32
    /// plan's layers, so the three backends compare the same layers.
    fn plan(&self, b: usize) -> &DeploymentPlan {
        if b == 2 {
            &self.int8_plan
        } else {
            &self.f32_plan
        }
    }

    /// Modeled per-layer latency on [`BOARD`], priced the way
    /// `reproduce_network` prices a network: layers with recorded reuse
    /// calls from their mean operation counts, the rest dense, plus the
    /// FC tail at one MAC per parameter. Returns `(dense, deployed)`.
    fn price(&self, stats: &HashMap<String, LayerStats>) -> (NetworkLatency, NetworkLatency) {
        let mut dense = NetworkLatency::new(BOARD);
        let mut reuse = NetworkLatency::new(BOARD);
        for info in self.net.conv_layers() {
            let (n, k, m) = (info.gemm_n(), info.gemm_k(), info.gemm_m());
            dense.push_dense(&info.name, n, k, m);
            match stats.get(&info.name) {
                Some(s) if s.calls > 0 => reuse.push_ops(&info.name, &s.mean_ops()),
                _ => reuse.push_dense(&info.name, n, k, m),
            }
        }
        let fc = PhaseOps {
            gemm_macs: self.fc_macs,
            ..PhaseOps::default()
        };
        dense.push_ops("fc", &fc);
        reuse.push_ops("fc", &fc);
        (dense, reuse)
    }
}

struct Setup {
    nets: Vec<Deployed>,
    secs: f64,
    build_ptq_s: f64,
    select_s: f64,
    warmup_s: f64,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The workload's input images, per network: fresh draws, from `seed`,
/// of the synthetic dataset the networks are deployed on (its class
/// dictionaries are fixed by the deployment's seed).
fn inputs(w: &Workload, seed: u64) -> Vec<Vec<Tensor<f32>>> {
    let deployed = w.config().seed;
    w.models
        .iter()
        .enumerate()
        .map(|(i, &model)| {
            let data = if model == ZooModel::ResNet18 {
                SyntheticDataset::imagenet64_like(deployed)
            } else {
                SyntheticDataset::cifar_like(deployed)
            };
            data.generate(
                POOL,
                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(i as u64),
            )
            .into_iter()
            .map(|(x, _)| x)
            .collect()
        })
        .collect()
}

/// Selection, build + PTQ, backend construction and warm-up for every
/// network of the workload.
fn setup(w: &Workload, images: &[Vec<Tensor<f32>>]) -> Result<Setup, String> {
    let cfg = w.config();
    let started = Instant::now();
    let mut s = Setup {
        nets: Vec::new(),
        secs: 0.0,
        build_ptq_s: 0.0,
        select_s: 0.0,
        warmup_s: 0.0,
    };
    for (i, &model) in w.models.iter().enumerate() {
        let repro = reproduce_network(model, &cfg).map_err(err)?;
        s.select_s += repro.explore_secs;

        let t = Instant::now();
        let mut net = model.build(cfg.scale, 10, cfg.seed);
        ptq_int8(net.as_mut()).map_err(err)?;
        let conv_params: usize = net.convs().iter().map(|c| c.param_count()).sum();
        let fc_macs = zoo::param_count(net.as_mut()).saturating_sub(conv_params) as u64;
        s.build_ptq_s += t.elapsed().as_secs_f64();

        let (f32_plan, int8_plan) = plan::deployed_plans(&repro).map_err(err)?;
        let hashes = || EitherHashProvider::random(cfg.seed);
        let d = Deployed {
            f32: f32_plan.to_backend(hashes()),
            int8: QuantizedBackend::new(hashes()).with_patterns(int8_plan.entries.iter().cloned()),
            net,
            repro,
            f32_plan,
            int8_plan,
            fc_macs,
        };
        if images[i][0].shape().dims() != d.net.input_shape() {
            return Err(format!("{}: input shape mismatch", model.id()));
        }
        let t = Instant::now();
        for b in 0..BACKENDS.len() {
            for img in &images[i][..WARMUP] {
                d.net.forward(img, d.backend(b)).map_err(err)?;
            }
        }
        s.warmup_s += t.elapsed().as_secs_f64();
        s.nets.push(d);
    }
    s.secs = started.elapsed().as_secs_f64();
    Ok(s)
}

fn finite(v: &[f32]) -> bool {
    v.iter().all(|x| x.is_finite())
}

/// Runs the workload and reports its end-to-end or per-layer metrics.
pub fn run(w: &Workload, args: &Args) -> Result<Report, String> {
    let images = inputs(w, args.seed);
    let mut report = Report::new(args.trace);
    if args.trace {
        let s = setup(w, &images)?;
        traced_run(&s, &images, args, &mut report);
        return Ok(report);
    }
    let mut secs = Vec::new();
    let mut s: Option<Setup> = None;
    for _ in 0..SETUPS {
        // Drop the previous set-up first so peak memory reflects one.
        drop(s.take());
        let fresh = setup(w, &images)?;
        secs.push(fresh.secs);
        s = Some(fresh);
    }
    let s = s.expect("at least one set-up");
    report.put("setup_s", median(&secs));
    for d in &s.nets {
        d.f32.reset_stats();
    }

    let mut lat: [Vec<f64>; 3] = Default::default();
    let mut errs: [Vec<f64>; 2] = Default::default();
    let mut check_stats = Vec::new();
    let started = Instant::now();
    let mut pass = 0usize;
    while started.elapsed() < args.seconds || pass < CHECK_IMAGES {
        let timed = started.elapsed() < args.seconds;
        let img = pass % POOL;
        let mut logits: Vec<[Option<Vec<f32>>; 3]> = vec![Default::default(); s.nets.len()];
        for r in 0..BACKENDS.len() {
            let b = (pass + r) % BACKENDS.len();
            let mut total = 0.0;
            let mut ok = true;
            for (ni, d) in s.nets.iter().enumerate() {
                let t = Instant::now();
                let out = d.net.forward(&images[ni][img], d.backend(b));
                total += t.elapsed().as_secs_f64() * 1e3;
                match out {
                    Ok(v) if finite(&v) => logits[ni][b] = Some(v),
                    Ok(_) => {
                        report
                            .problem(format!("{} {}: non-finite logits", d.repro.id, BACKENDS[b]));
                        ok = false;
                    }
                    Err(e) => {
                        report.problem(format!("{} {}: {e}", d.repro.id, BACKENDS[b]));
                        ok = false;
                    }
                }
            }
            if timed {
                report.attempted += 1;
                if ok {
                    lat[b].push(total);
                } else {
                    report.failed += 1;
                }
            }
        }
        if pass < CHECK_IMAGES {
            for l in &logits {
                if let [Some(dense), Some(f), Some(q)] = l {
                    errs[0].push(rel_err(f, dense));
                    errs[1].push(rel_err(q, dense));
                }
            }
            if pass + 1 == CHECK_IMAGES {
                check_stats = s.nets.iter().map(|d| d.f32.stats()).collect();
            }
        }
        pass += 1;
    }

    for (b, be) in BACKENDS.iter().enumerate() {
        if lat[b].len() < min_samples_for(0.9, 10) {
            eprintln!(
                "warning: {be}: {} samples, p90 rests on fewer than ten beyond it",
                lat[b].len()
            );
        }
        report.put(
            &format!("{be}_ms_p50"),
            percentile(&lat[b], 0.5).unwrap_or(0.0),
        );
        report.put(
            &format!("{be}_ms_p90"),
            percentile(&lat[b], 0.9).unwrap_or(0.0),
        );
    }
    report.put("f32_logit_err", median(&errs[0]));
    report.put("int8_logit_err", median(&errs[1]));
    let mcu: f64 = s
        .nets
        .iter()
        .zip(&check_stats)
        .map(|(d, st)| d.price(st).1.total_ms())
        .sum();
    report.put("mcu_f4_ms", mcu);
    check_pricing(w, &s, &mut report);
    eprintln!(
        "{} passes; p50 dense/f32/int8 = {:.2}/{:.2}/{:.2} ms",
        lat[0].len(),
        median(&lat[0]),
        median(&lat[1]),
        median(&lat[2])
    );
    report.finish_e2e();
    Ok(report)
}

/// Output check: pricing the deployed plan on `reproduce_network`'s own
/// test split reproduces its published F4 totals, which pins the rebuilt
/// network, the plan rebuilt from labels and the pricing together.
fn check_pricing(w: &Workload, s: &Setup, report: &mut Report) {
    let cfg = w.config();
    for d in &s.nets {
        let data = if d.net.input_shape() == [3, 64, 64] {
            SyntheticDataset::imagenet64_like(cfg.seed)
        } else {
            SyntheticDataset::cifar_like(cfg.seed)
        };
        let (_, test) = data.train_test(cfg.train_samples, cfg.test_samples, 31);
        let fresh = d.f32_plan.to_backend(EitherHashProvider::random(cfg.seed));
        for (x, _) in &test {
            if let Err(e) = d.net.forward(x, &fresh) {
                report.problem(format!("{}: {e}", d.repro.id));
                return;
            }
        }
        let (dense, reuse) = d.price(&fresh.stats());
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
        if !close(dense.total_ms(), d.repro.dense_ms[0])
            || !close(reuse.total_ms(), d.repro.reuse_ms[0])
        {
            report.problem(format!(
                "{}: repriced F4 {:.6}/{:.6} ms != reproduce {:.6}/{:.6} ms",
                d.repro.id,
                dense.total_ms(),
                reuse.total_ms(),
                d.repro.dense_ms[0],
                d.repro.reuse_ms[0]
            ));
        }
    }
}

/// Per-pass accumulators of the traced run, indexed by backend.
#[derive(Default)]
struct PassLog {
    untraced: Vec<f64>,
    traced: Vec<f64>,
    conv: Vec<f64>,
    plan: Vec<f64>,
    phases: Vec<Capture>,
}

/// The traced run: every forward runs twice on the same image, once
/// plain with capture off and once through the timing decorator with the
/// program's telemetry capture on (order alternating by pass). The plain
/// run gives per-network times and the tracing overhead; the traced run
/// gives per-layer call times and per-phase self times.
fn traced_run(s: &Setup, images: &[Vec<Tensor<f32>>], args: &Args, report: &mut Report) {
    trace::install();
    let mut log: [PassLog; 3] = Default::default();
    let mut net_ms: HashMap<(usize, usize), Vec<f64>> = HashMap::new();
    let mut layer_ms: HashMap<(usize, String, usize), Vec<f64>> = HashMap::new();
    for d in &s.nets {
        d.f32.reset_stats();
        d.int8.reset_stats();
    }
    let started = Instant::now();
    let mut pass = 0usize;
    while started.elapsed() < args.seconds {
        let img = pass % POOL;
        for r in 0..BACKENDS.len() {
            let b = (pass + r) % BACKENDS.len();
            let (mut un, mut tr, mut conv, mut planned) = (0.0, 0.0, 0.0, 0.0);
            let mut cap = Capture::default();
            let mut ok = true;
            for (ni, d) in s.nets.iter().enumerate() {
                let x = &images[ni][img];
                let backend = d.backend(b);
                let plain = || {
                    let t = Instant::now();
                    let out = d.net.forward(x, backend);
                    (out, t.elapsed().as_secs_f64() * 1e3)
                };
                let timed = Timed::new(backend);
                let traced = || {
                    trace::traced(true, || {
                        let t = Instant::now();
                        let out = d.net.forward(x, &timed);
                        (out, t.elapsed().as_secs_f64() * 1e3)
                    })
                };
                let ((p_out, p_ms), ((t_out, t_ms), c)) = if pass.is_multiple_of(2) {
                    let p = plain();
                    (p, traced())
                } else {
                    let t = traced();
                    (plain(), t)
                };
                match (p_out, t_out) {
                    (Ok(p), Ok(t)) if finite(&p) => {
                        if p.iter()
                            .map(|v| v.to_bits())
                            .ne(t.iter().map(|v| v.to_bits()))
                        {
                            report.problem(format!(
                                "{} {}: traced logits differ from untraced",
                                d.repro.id, BACKENDS[b]
                            ));
                            ok = false;
                        }
                    }
                    _ => {
                        report.problem(format!("{} {}: forward failed", d.repro.id, BACKENDS[b]));
                        ok = false;
                    }
                }
                un += p_ms;
                tr += t_ms;
                cap.add(&c);
                net_ms.entry((ni, b)).or_default().push(p_ms);
                for (layer, ms) in timed.take() {
                    conv += ms;
                    if d.plan(b).get(&layer).is_some() {
                        planned += ms;
                    }
                    layer_ms.entry((ni, layer, b)).or_default().push(ms);
                }
            }
            report.attempted += 1;
            if !ok {
                report.failed += 1;
            }
            let l = &mut log[b];
            l.untraced.push(un);
            l.traced.push(tr);
            l.conv.push(conv);
            l.plan.push(planned);
            l.phases.push(cap);
        }
        pass += 1;
    }

    let dropped: u64 = log.iter().flat_map(|l| &l.phases).map(|c| c.dropped).sum();
    report.put("trace.dropped_events", dropped as f64);
    if dropped > 0 {
        report.problem(format!(
            "traced run invalid: {dropped} telemetry events dropped"
        ));
    }
    let totals = |f: fn(&PassLog) -> &Vec<f64>| -> Vec<f64> {
        (0..pass)
            .map(|i| log.iter().map(|l| f(l)[i]).sum())
            .collect()
    };
    let overhead = median(&totals(|l| &l.traced)) / median(&totals(|l| &l.untraced)) - 1.0;
    report.put("trace.overhead_frac", overhead);

    for (b, be) in BACKENDS.iter().enumerate() {
        let l = &log[b];
        let phase = |p: Phase| mean(&l.phases.iter().map(|c| c.ms(p)).collect::<Vec<_>>());
        let (pass_ms, conv_ms, plan_ms) = (mean(&l.traced), mean(&l.conv), mean(&l.plan));
        report.put(&format!("nn.{be}.other_ms"), pass_ms - conv_ms);
        report.put(&format!("backend.{be}.conv_ms"), conv_ms);
        report.put(&format!("backend.{be}.plan_ms"), plan_ms);
        report.put(&format!("tensor.{be}.im2col_ms"), phase(Phase::Im2col));
        eprintln!(
            "{be}: traced pass {pass_ms:.3} ms = nn other {:.3} + conv {conv_ms:.3}; untraced {:.3} ms",
            pass_ms - conv_ms,
            mean(&l.untraced)
        );
        if b > 0 {
            let mut phases = 0.0;
            for (name, p) in [
                ("pack_hash", Phase::PackHash),
                ("cluster", Phase::Cluster),
                ("gemm", Phase::Gemm),
                ("fold", Phase::Fold),
            ] {
                report.put(&format!("exec.{be}.{name}_ms"), phase(p));
                phases += phase(p);
            }
            if b == 2 {
                report.put("exec.int8.requant_ms", phase(Phase::Requant));
                phases += phase(Phase::Requant);
            }
            report.put(&format!("exec.{be}.overhead_ms"), plan_ms - phases);
        }
        for (ni, d) in s.nets.iter().enumerate() {
            let id = d.repro.id.as_str();
            report.put(&format!("nn.{id}.{be}_ms"), median(&net_ms[&(ni, b)]));
            for (slot, cross) in d.repro.selected.iter().take(SLOTS).enumerate() {
                if let Some(ms) = layer_ms.get(&(ni, cross.layer.clone(), b)) {
                    report.put(&format!("backend.{id}.d{slot}.{be}_ms"), median(ms));
                }
            }
        }
    }

    for (b, q) in [(1, "f32"), (2, "int8")] {
        let (mut calls, mut fallbacks, mut gemm, mut cluster) = (0u64, 0u64, 0u64, 0u64);
        let mut rts = Vec::new();
        for d in &s.nets {
            for st in d.stats(b).values() {
                calls += st.calls;
                fallbacks += st.fallbacks;
                let ops = st.mean_ops();
                gemm += ops.gemm_macs;
                cluster += ops.clustering_macs;
                rts.push(st.redundancy_ratio());
            }
        }
        report.put(
            &format!("backend.{q}.fallback_frac"),
            fallbacks as f64 / calls.max(1) as f64,
        );
        report.put(&format!("backend.{q}.rt"), mean(&rts));
        report.put(&format!("tensor.{q}.gemm_macs"), gemm as f64);
        report.put(&format!("tensor.{q}.cluster_macs"), cluster as f64);
    }

    // Measured host cost against the latency model, layer by layer.
    let (mut host_dense, mut model_dense, mut host_reuse, mut model_reuse) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (ni, d) in s.nets.iter().enumerate() {
        let (dense, reuse) = d.price(&d.stats(1));
        report.put(&format!("mcu.{}.f4_dense_ms", d.repro.id), dense.total_ms());
        report.put(&format!("mcu.{}.f4_reuse_ms", d.repro.id), reuse.total_ms());
        for info in d.net.conv_layers() {
            let host = |b: usize| layer_ms.get(&(ni, info.name.clone(), b)).map(|v| median(v));
            if let (Some(hd), Some(md)) = (host(0), dense.layer_ms(&info.name)) {
                host_dense.push(hd);
                model_dense.push(md);
            }
            if let (Some(hr), Some(mr)) = (host(1), reuse.layer_ms(&info.name)) {
                host_reuse.push(hr);
                model_reuse.push(mr);
            }
        }
    }
    report.put(
        "mcu.dense_rank_corr",
        spearman(&host_dense, &model_dense).unwrap_or(0.0),
    );
    report.put(
        "mcu.reuse_rank_corr",
        spearman(&host_reuse, &model_reuse).unwrap_or(0.0),
    );

    report.put("workflow.build_ptq_s", s.build_ptq_s);
    report.put("workflow.select_s", s.select_s);
    report.put("workflow.warmup_s", s.warmup_s);
    eprintln!("{pass} traced passes, trace overhead {overhead:.3}");
}
