//! The `serve-camera` workload: in-process `greuse::serve::Server`s for
//! paper CifarNet's heaviest convolution, fed correlated camera frames in
//! an open loop at a fixed rate.
//!
//! Three servers run side by side, built the way `greuse serve` builds
//! them (engine threads 1, temporal cache on, the CLI's default batching,
//! queue, deadline and breaker): f32 reuse, int8 reuse, and an f32 server
//! whose breaker is pinned open so that it serves every request through
//! the engine's dense path — the dense baseline under the same load. Load
//! is sent in short slices, rotating over the servers so they share the
//! host's noise; one server is idle while another is measured.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use greuse::serve::{
    checksum_f32, BreakerConfig, Engine, ModelSpec, Response, ResponseStatus, ServeBackend,
    ServeConfig, Server,
};
use greuse::{ExecWorkspace, LayerStats, QuantWorkspace, RandomHashProvider, ReusePattern};
use greuse_data::FrameStream;
use greuse_mcu::{Board, PhaseOps};
use greuse_nn::models::zoo::{ZooModel, ZooScale};
use greuse_tensor::{gemm_bt_f32, Tensor};

use crate::schema::{BACKENDS, REUSE};
use crate::stats::{mean, median, min_samples_for, percentile, rel_err};
use crate::trace::{self, Capture, Phase};
use crate::{Args, Report};

/// Nominal open-loop rate: about a third of one engine thread's capacity.
const RATE: f64 = 100.0;
/// Requests per measured slice (half a second at [`RATE`]).
const SLICE: usize = 50;
/// `greuse serve`'s default `--seed` (weights and hash families).
const MODEL_SEED: u64 = 42;
/// Panel width `L` and hash count `H` (`greuse serve` defaults); frame
/// tiles are `L` wide so a perturbed tile maps to one cache panel.
const L: usize = 24;
const H: usize = 4;
/// Distinct prototype rows per frame (`greuse stream` default).
const DISTINCT: usize = 32;
/// Share of frame tiles rewritten from one frame to the next.
const PERTURB: f64 = 0.05;
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Requests per server during warm-up.
const WARMUP: usize = 3;
/// Independent camera streams whose first frames give the output error
/// against dense and the modeled MCU latency. Frames of one stream share
/// most of their content, so these are taken across streams; the error
/// is bimodal (about half the frames reuse exactly), so it is averaged.
const QUALITY_FRAMES: u64 = 1024;
/// Rates of the traced run's capacity ladder and its slice length.
const LADDER: [f64; 4] = [100.0, 200.0, 300.0, 400.0];
const LADDER_SECS: f64 = 0.3;
/// A generator later than one inter-arrival period on more than this
/// share of sends has fallen behind its schedule: the run is invalid.
const MAX_LATE_FRAC: f64 = 0.01;

/// The serving configuration `greuse serve` uses by default.
fn cli_config() -> ServeConfig {
    ServeConfig {
        max_batch: 8,
        max_delay: Duration::from_millis(2),
        queue_cap: 64,
        default_deadline: Duration::from_millis(250),
        breaker: BreakerConfig {
            slo: Duration::from_millis(50),
            window: 32,
            trip_after: 3,
            cooldown: Duration::from_millis(1000),
        },
    }
}

/// Open after the first reuse request and never closing within a run.
fn pinned_open_breaker() -> BreakerConfig {
    BreakerConfig {
        slo: Duration::from_millis(1),
        window: 1,
        trip_after: 1,
        cooldown: Duration::from_secs(24 * 3600),
    }
}

/// The served layer: paper CifarNet's heaviest convolution.
fn model_spec() -> Result<ModelSpec, String> {
    let net = ZooModel::CifarNet.build(ZooScale::Paper, 10, MODEL_SEED);
    let infos = net.conv_layers();
    let (idx, info) = infos
        .iter()
        .enumerate()
        .max_by_key(|(_, i)| i.gemm_n() * i.gemm_k() * i.gemm_m())
        .ok_or("cifarnet has no conv layers")?;
    let (n, k, m) = (info.gemm_n(), info.gemm_k(), info.gemm_m());
    Ok(ModelSpec {
        layer: format!("serve/cifarnet/{}", info.name),
        n,
        k,
        m,
        weights: net.convs()[idx].weights.clone(),
        pattern: ReusePattern::conventional(L.min(k), H),
    })
}

/// One series: a server and the frame stream that feeds it.
struct Series {
    server: Server,
    stream: FrameStream,
    /// Due-to-response latency of each `Ok` request (ms).
    e2e_ms: Vec<f64>,
    /// Server-side `Response::latency` of each `Ok` request (ms).
    server_ms: Vec<f64>,
    lag_max_ms: f64,
    late: u64,
    sent: u64,
    failed: u64,
}

struct Setup {
    spec: ModelSpec,
    series: Vec<Series>,
    secs: f64,
    build_s: f64,
    warmup_s: f64,
}

/// Advances `stream` and returns its new frame as a request input.
fn next_frame(stream: &mut FrameStream) -> Tensor<f32> {
    stream.advance();
    Tensor::from_vec(stream.frame().to_vec(), &[stream.rows(), stream.cols()])
        .expect("frame matches its shape")
}

fn frames(stream: &mut FrameStream, count: usize) -> Vec<Tensor<f32>> {
    (0..count).map(|_| next_frame(stream)).collect()
}

fn new_stream(spec: &ModelSpec, seed: u64) -> FrameStream {
    FrameStream::new(
        spec.n,
        spec.k,
        DISTINCT.min(spec.n),
        spec.pattern.l,
        PERTURB,
        seed,
    )
}

/// Builds the three servers and warms each with a few requests. The
/// time spent generating warm-up frames is not counted.
fn setup(seed: u64) -> Result<Setup, String> {
    let started = Instant::now();
    let spec = model_spec()?;
    let build_s = started.elapsed().as_secs_f64();
    let gen = Instant::now();
    let mut streams: Vec<FrameStream> = (0..BACKENDS.len())
        .map(|_| new_stream(&spec, seed))
        .collect();
    let warm: Vec<Vec<Tensor<f32>>> = streams.iter_mut().map(|s| frames(s, WARMUP)).collect();
    let gen_s = gen.elapsed().as_secs_f64();
    let mut series = Vec::new();
    for (b, stream) in streams.into_iter().enumerate() {
        let backend = if b == 2 {
            ServeBackend::Int8
        } else {
            ServeBackend::F32
        };
        let mut cfg = cli_config();
        if b == 0 {
            cfg.breaker = pinned_open_breaker();
        }
        let engine =
            Engine::new(spec.clone(), backend, true, 1, MODEL_SEED).map_err(|e| e.to_string())?;
        series.push(Series {
            server: Server::start(engine, cfg),
            stream,
            e2e_ms: Vec::new(),
            server_ms: Vec::new(),
            lag_max_ms: 0.0,
            late: 0,
            sent: 0,
            failed: 0,
        });
    }
    let t = Instant::now();
    for (s, xs) in series.iter().zip(warm) {
        for x in xs {
            let resp = s.server.submit(x, None).wait();
            if resp.status != ResponseStatus::Ok {
                return Err(format!("warm-up request failed: {:?}", resp.status));
            }
        }
    }
    if !series[0].server.stats().breaker_open {
        return Err("dense baseline server did not open its breaker".into());
    }
    Ok(Setup {
        spec,
        series,
        secs: started.elapsed().as_secs_f64() - gen_s,
        build_s,
        warmup_s: t.elapsed().as_secs_f64(),
    })
}

/// Recomputes responses directly: the cache-off executors for reuse
/// responses, dense GEMM (or dense-quantized GEMM) for dense ones.
struct Checker {
    hashes: RandomHashProvider,
    f32_ws: ExecWorkspace,
    int8_ws: QuantWorkspace,
    y: Vec<f32>,
}

impl Checker {
    fn new() -> Self {
        Checker {
            hashes: RandomHashProvider::new(MODEL_SEED),
            f32_ws: ExecWorkspace::new(),
            int8_ws: QuantWorkspace::new(),
            y: Vec::new(),
        }
    }

    /// Checks one response of series `b` against a recomputation of its
    /// input.
    fn check(
        &mut self,
        spec: &ModelSpec,
        b: usize,
        x: &Tensor<f32>,
        resp: &Response,
    ) -> Result<(), String> {
        let want = match (b, resp.dense) {
            (2, true) => {
                self.y.resize(spec.n * spec.m, 0.0);
                self.int8_ws
                    .execute_into(
                        x,
                        &spec.weights,
                        None,
                        &self.hashes,
                        &spec.layer,
                        &mut self.y,
                    )
                    .map_err(|e| e.to_string())?;
                checksum_f32(&self.y)
            }
            (_, true) => {
                let y = gemm_bt_f32(x, &spec.weights).map_err(|e| e.to_string())?;
                checksum_f32(y.as_slice())
            }
            (0, false) => return Err("dense baseline served a request through reuse".into()),
            (_, false) => {
                self.reuse(spec, b == 2, x)?;
                checksum_f32(&self.y)
            }
        };
        if resp.checksum == Some(want) {
            Ok(())
        } else {
            Err(format!(
                "{} response checksum differs from a direct recomputation",
                BACKENDS[b]
            ))
        }
    }

    /// Runs the reuse pipeline cache-off into `self.y`.
    fn reuse(&mut self, spec: &ModelSpec, int8: bool, x: &Tensor<f32>) -> Result<PhaseOps, String> {
        let (w, p, layer) = (&spec.weights, &spec.pattern, spec.layer.as_str());
        self.y.resize(spec.n * spec.m, 0.0);
        let stats = if int8 {
            self.int8_ws
                .execute_into(x, w, Some(p), &self.hashes, layer, &mut self.y)
        } else {
            self.f32_ws
                .execute_into(x, w, None, p, &self.hashes, layer, &mut self.y)
        };
        stats.map(|s| s.ops).map_err(|e| e.to_string())
    }

    /// Output error of f32 and int8 reuse against dense, and the modeled
    /// F4 latency of the served layer from its mean cold-path operation
    /// counts, over the first frames of independent camera streams.
    fn quality(&mut self, spec: &ModelSpec, seed: u64) -> Result<([Vec<f64>; 2], f64), String> {
        let mut errs: [Vec<f64>; 2] = Default::default();
        let mut f32_ops = LayerStats::default();
        for j in 0..QUALITY_FRAMES {
            let mut stream = new_stream(spec, seed.wrapping_mul(QUALITY_FRAMES).wrapping_add(j));
            let x = next_frame(&mut stream);
            let dense = gemm_bt_f32(&x, &spec.weights).map_err(|e| e.to_string())?;
            for (i, int8) in [false, true].into_iter().enumerate() {
                let o = self.reuse(spec, int8, &x)?;
                if !int8 {
                    f32_ops.calls += 1;
                    f32_ops.ops = f32_ops.ops.combined(&o);
                }
                errs[i].push(rel_err(&self.y, dense.as_slice()));
            }
        }
        Ok((
            errs,
            Board::Stm32F469i
                .spec()
                .latency(&f32_ops.mean_ops())
                .total_ms(),
        ))
    }
}

/// Outcome of one open-loop slice, in send order.
struct Sent {
    due: Instant,
    sent: Instant,
    resp: Response,
}

/// Sends `xs` to `server` at `rate` from a generator thread, one request
/// per due time, and collects every response on this thread.
fn open_loop(server: &Server, xs: Vec<Tensor<f32>>, rate: f64) -> Vec<Sent> {
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let t0 = Instant::now() + Duration::from_millis(1);
            for (i, x) in xs.into_iter().enumerate() {
                let due = t0 + Duration::from_secs_f64(i as f64 / rate);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = Instant::now();
                let ticket = server.submit(x, None);
                if tx.send((due, sent, ticket)).is_err() {
                    return;
                }
            }
        });
        rx.iter()
            .map(|(due, sent, ticket)| Sent {
                due,
                sent,
                resp: ticket.wait(),
            })
            .collect()
    })
}

/// Runs one slice of `count` requests on series `b` at `rate` (with
/// telemetry capture on when `traced`), then checks every response
/// outside the measurement. Returns the slice's `Ok` latencies and its
/// capture.
fn slice(
    set: &mut Setup,
    checker: &mut Checker,
    b: usize,
    (count, rate): (usize, f64),
    traced: bool,
    report: &mut Report,
) -> (Vec<f64>, Capture) {
    let s = &mut set.series[b];
    let mut replay = s.stream.clone();
    let xs = frames(&mut s.stream, count);
    let (results, cap) = if traced {
        trace::traced(false, || open_loop(&s.server, xs, rate))
    } else {
        (open_loop(&s.server, xs, rate), Capture::default())
    };
    let period_ms = 1e3 / rate;
    let mut lat = Vec::with_capacity(count);
    for r in results {
        let x = next_frame(&mut replay);
        let lag_ms = r.sent.duration_since(r.due).as_secs_f64() * 1e3;
        s.lag_max_ms = s.lag_max_ms.max(lag_ms);
        s.late += u64::from(lag_ms > period_ms);
        s.sent += 1;
        let ok = r.resp.status == ResponseStatus::Ok && {
            match checker.check(&set.spec, b, &x, &r.resp) {
                Ok(()) => true,
                Err(e) => {
                    report.problem(e);
                    false
                }
            }
        };
        if ok {
            let server_ms = r.resp.latency.as_secs_f64() * 1e3;
            lat.push(lag_ms + server_ms);
            s.server_ms.push(server_ms);
        } else {
            s.failed += 1;
        }
    }
    s.e2e_ms.extend(&lat);
    (lat, cap)
}

/// Runs the workload and reports its end-to-end or per-layer metrics.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::new(args.trace);
    let mut checker = Checker::new();
    let mut secs = Vec::new();
    let mut set: Option<Setup> = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        drop(set.take());
        let fresh = setup(args.seed)?;
        secs.push(fresh.secs);
        set = Some(fresh);
    }
    let mut set = set.expect("at least one set-up");

    let ladder_secs = if args.trace {
        2.0 * LADDER.len() as f64 * LADDER_SECS
    } else {
        0.0
    };
    let slice_secs = SLICE as f64 / RATE;
    let rounds = ((args.seconds.as_secs_f64() - ladder_secs) / (slice_secs * BACKENDS.len() as f64))
        .floor()
        .max(1.0) as usize;
    let mut traced_ms: Vec<f64> = Vec::new();
    let mut untraced_ms: Vec<f64> = Vec::new();
    let mut caps: [(Capture, usize); 3] = Default::default();
    if args.trace {
        trace::install();
    }
    for round in 0..rounds {
        for r in 0..BACKENDS.len() {
            let b = (round + r) % BACKENDS.len();
            let traced = args.trace && round % 2 == 1;
            let (lat, cap) = slice(
                &mut set,
                &mut checker,
                b,
                (SLICE, RATE),
                traced,
                &mut report,
            );
            if traced {
                traced_ms.extend(&lat);
                caps[b].0.add(&cap);
                caps[b].1 += SLICE;
            } else {
                untraced_ms.extend(&lat);
            }
        }
    }

    for s in &set.series {
        report.attempted += s.sent;
        report.failed += s.failed;
        if s.late as f64 > MAX_LATE_FRAC * s.sent as f64 {
            report.problem(format!(
                "open loop invalid: generator late by more than one period on {} of {} sends",
                s.late, s.sent
            ));
        }
    }

    if args.trace {
        traced_metrics(
            &mut set,
            &mut checker,
            &caps,
            &traced_ms,
            &untraced_ms,
            &mut report,
        );
        report.put("workflow.build_ptq_s", set.build_s);
        report.put("workflow.warmup_s", set.warmup_s);
    } else {
        report.put("setup_s", median(&secs));
        for (b, be) in BACKENDS.iter().enumerate() {
            let lat = &set.series[b].e2e_ms;
            if lat.len() < min_samples_for(0.9, 10) {
                eprintln!(
                    "warning: {be}: {} samples, p90 rests on fewer than ten beyond it",
                    lat.len()
                );
            }
            report.put(&format!("{be}_ms_p50"), percentile(lat, 0.5).unwrap_or(0.0));
            report.put(&format!("{be}_ms_p90"), percentile(lat, 0.9).unwrap_or(0.0));
        }
        let (errs, mcu_ms) = checker.quality(&set.spec, args.seed)?;
        for (q, e) in REUSE.iter().zip(&errs) {
            report.put(&format!("{q}_logit_err"), mean(e));
        }
        report.put("mcu_f4_ms", mcu_ms);
        report.finish_e2e();
    }
    eprintln!(
        "{} requests per series; p50 dense/f32/int8 = {:.2}/{:.2}/{:.2} ms",
        set.series[1].sent,
        median(&set.series[0].e2e_ms),
        median(&set.series[1].e2e_ms),
        median(&set.series[2].e2e_ms)
    );
    for s in &set.series {
        s.server.shutdown();
    }
    Ok(report)
}

fn traced_metrics(
    set: &mut Setup,
    checker: &mut Checker,
    caps: &[(Capture, usize); 3],
    traced_ms: &[f64],
    untraced_ms: &[f64],
    report: &mut Report,
) {
    let dropped: u64 = caps.iter().map(|c| c.0.dropped).sum();
    report.put("trace.dropped_events", dropped as f64);
    if dropped > 0 {
        report.problem(format!(
            "traced run invalid: {dropped} telemetry events dropped"
        ));
    }
    report.put(
        "trace.overhead_frac",
        median(traced_ms) / median(untraced_ms) - 1.0,
    );
    report.put(
        "serve.gen_lag_ms_max",
        set.series.iter().map(|s| s.lag_max_ms).fold(0.0, f64::max),
    );
    for (i, q) in REUSE.iter().enumerate() {
        let b = i + 1;
        let (cap, requests) = &caps[b];
        let per_req = |p: Phase| cap.ms(p) / (*requests).max(1) as f64;
        for (name, p) in [
            ("pack_hash", Phase::PackHash),
            ("cluster", Phase::Cluster),
            ("gemm", Phase::Gemm),
            ("fold", Phase::Fold),
        ] {
            report.put(&format!("exec.{q}.{name}_ms"), per_req(p));
        }
        if b == 2 {
            report.put("exec.int8.requant_ms", per_req(Phase::Requant));
        }
        let [hits, misses, invalidations] = cap.cache;
        report.put(
            &format!("cache.{q}.hit_frac"),
            hits as f64 / (hits + misses).max(1) as f64,
        );
        report.put(&format!("cache.{q}.invalidations"), invalidations as f64);

        let s = &set.series[b];
        let st = s.server.stats();
        report.put(&format!("serve.{q}.server_ms_p50"), median(&s.server_ms));
        report.put(
            &format!("serve.{q}.batch_mean"),
            st.admitted as f64 / st.batches.max(1) as f64,
        );
        report.put(
            &format!("serve.{q}.dense_frac"),
            st.served_dense as f64 / st.completed.max(1) as f64,
        );
        report.put(&format!("serve.{q}.breaker_trips"), st.breaker_trips as f64);
        report.put(&format!("serve.{q}.shed"), st.shed as f64);
        report.put(
            &format!("serve.{q}.deadline_missed"),
            st.deadline_missed as f64,
        );
    }
    // Capacity ladder (informational): the highest rate whose slice meets
    // p90 <= SLO with every request served and no backlog at the end.
    let slo_ms = cli_config().breaker.slo.as_secs_f64() * 1e3;
    for (i, q) in REUSE.iter().enumerate() {
        let mut best = 0.0;
        for rate in LADDER {
            let count = (rate * LADDER_SECS).round() as usize;
            let mut scratch = Report::new(true);
            let (lat, _) = slice(set, checker, i + 1, (count, rate), false, &mut scratch);
            report.problems.extend(scratch.problems);
            let tail = &lat[lat.len().saturating_sub(count / 10)..];
            let ok = lat.len() == count
                && percentile(&lat, 0.9).is_some_and(|p| p <= slo_ms)
                && mean(tail) <= slo_ms;
            if ok {
                best = rate;
            }
        }
        report.put(&format!("serve.{q}.max_rps"), best);
    }
}
