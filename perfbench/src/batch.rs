//! `batch_paper`: direct `dgbsv_batch` / `sgbsv_batch` calls on the
//! Section-2 application batches, library defaults (Auto dispatch). The
//! serving layer is bypassed, so all host time is in `kernels`, `gpu-sim`
//! and `core`.

use std::time::{Duration, Instant};

use gbatch_core::gbtrs::Transpose;
use gbatch_core::residual::backward_error_batch;
use gbatch_core::{BandBatch, InfoArray, PivotBatch, RhsBatch, Scalar};
use gbatch_cpu::model::{gbtrf_bytes, gbtrf_flops, gbtrs_bytes, gbtrs_flops};
use gbatch_cpu::{cpu_gbsv_batch, CpuSpec};
use gbatch_gpu_sim::{registry, DeviceSpec, ParallelPolicy};
use gbatch_kernels::dispatch::{gbsv_batch, gbtrf_batch, gbtrs_batch, GbsvOptions};
use gbatch_workloads::pele::PeleConfig;
use gbatch_workloads::{pele_batch, react_eval_batch, xgc_batch, ReactEvalConfig, XgcConfig};
use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{median, quantile_sorted, Clock, Metrics};
use crate::trace::{SharedTracer, Tracer};
use crate::{Outcome, RunConfig, F32_BOUND, F64_BOUND};

pub const DEVICE: &str = "h100_pcie";
/// The four batches, in call order.
pub const CASES: [&str; 4] = ["pele50", "pele50_f32", "xgc193", "react72_r10"];
/// Deadline budget a system's modeled completion time is held to.
const DEADLINE_S: f64 = 2.0e-3;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 5;
/// Cycles through the four batches run at least: a warm-up cycle, then
/// one traced and one untraced.
const MIN_CYCLES: usize = 3;
/// Repetitions of each extra per-layer call in a traced run.
const LAYER_REPS: usize = 5;

/// One Section-2 batch: the operator and right-hand sides in `f64` (the
/// answer check's reference), narrowed per call for the `f32` case.
struct Case {
    name: &'static str,
    a: BandBatch,
    b: RhsBatch,
    single: bool,
}

impl Case {
    fn lanes(&self) -> usize {
        self.a.batch()
    }
}

fn random_rhs(rng: &mut StdRng, batch: usize, n: usize, nrhs: usize) -> RhsBatch {
    let uni = Uniform::new_inclusive(-1.0f64, 1.0);
    RhsBatch::from_fn(batch, n, nrhs, |_, _, _| uni.sample(rng)).expect("valid rhs dimensions")
}

/// The four batches at the paper's sizes.
fn generate(seed: u64) -> Vec<Case> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (pele_n, xgc_n, react_n) = (4096, 512, 1024);
    let pele = pele_batch(&mut rng, pele_n, &PeleConfig::default());
    let pele_b = random_rhs(&mut rng, pele_n, 50, 1);
    let xgc = xgc_batch(&mut rng, xgc_n, &XgcConfig::default());
    let xgc_b = random_rhs(&mut rng, xgc_n, 193, 1);
    let react_cfg = ReactEvalConfig::default();
    let react = react_eval_batch(&mut rng, react_n, &react_cfg);
    let react_b = random_rhs(&mut rng, react_n, react_cfg.n(), 10);
    vec![
        Case {
            name: CASES[0],
            a: pele.clone(),
            b: pele_b.clone(),
            single: false,
        },
        Case {
            name: CASES[1],
            a: pele,
            b: pele_b,
            single: true,
        },
        Case {
            name: CASES[2],
            a: xgc,
            b: xgc_b,
            single: false,
        },
        Case {
            name: CASES[3],
            a: react,
            b: react_b,
            single: false,
        },
    ]
}

/// What one dispatch call did, on both clocks.
struct Call {
    host_s: f64,
    model_s: f64,
    launches: usize,
    algo: String,
    failed_lanes: u64,
    check_s: f64,
}

/// The buffers a case's calls work in, refilled from the case (narrowed
/// for `f32`) before each call, so the benchmark allocates nothing per
/// call and the allocator state stays the same from call to call.
struct Work<S: Scalar> {
    a: BandBatch<S>,
    b: RhsBatch<S>,
    piv: PivotBatch,
    info: InfoArray,
    x: Vec<f64>,
}

impl<S: Scalar> Work<S> {
    fn new(case: &Case) -> Self {
        let l = case.a.layout();
        let batch = case.lanes();
        Work {
            a: BandBatch::zeros_with_layout(l, batch).expect("same layout as the case"),
            b: RhsBatch::zeros(batch, l.n, case.b.nrhs()).expect("same dims as the case"),
            piv: PivotBatch::new(batch, l.m, l.n),
            info: InfoArray::new(batch),
            x: vec![0.0; case.b.data().len()],
        }
    }

    /// Time one `gbsv_batch` call, then check every lane's answer against
    /// the case's own `f64` operator.
    fn call(
        &mut self,
        dev: &DeviceSpec,
        opts: &GbsvOptions,
        case: &Case,
        tracer: Option<&SharedTracer>,
    ) -> Call {
        for (d, s) in self.a.data_mut().iter_mut().zip(case.a.data()) {
            *d = S::from_f64(*s);
        }
        for (d, s) in self.b.data_mut().iter_mut().zip(case.b.data()) {
            *d = S::from_f64(*s);
        }
        self.info.as_mut_slice().fill(0);
        let span = tracer.map(|t| {
            t.borrow_mut()
                .begin("kernels.gbsv", None, None, case.lanes())
        });
        let t0 = Instant::now();
        let rep = gbsv_batch::<S>(
            dev,
            &mut self.a,
            &mut self.piv,
            &mut self.b,
            &mut self.info,
            opts,
        );
        let host_s = t0.elapsed().as_secs_f64();
        if let (Some(t), Some(idx)) = (tracer, span) {
            t.borrow_mut().end(idx);
        }
        let Ok(rep) = rep else {
            return Call {
                host_s,
                model_s: 0.0,
                launches: 0,
                algo: "LaunchError".into(),
                failed_lanes: case.lanes() as u64,
                check_s: 0.0,
            };
        };
        let t1 = Instant::now();
        for (d, s) in self.x.iter_mut().zip(self.b.data()) {
            *d = s.to_f64();
        }
        let errs = backward_error_batch(
            (0..case.lanes()).map(|k| case.a.matrix(k)),
            &self.x,
            case.b.data(),
            self.b.ldb(),
            self.b.nrhs(),
        );
        let bound = if case.single { F32_BOUND } else { F64_BOUND };
        let stride = self.b.block_stride();
        let failed_lanes = errs
            .iter()
            .enumerate()
            .filter(|&(k, &e)| {
                self.info.get(k) != 0
                    || e.is_nan()
                    || e > bound
                    || !self.x[k * stride..(k + 1) * stride]
                        .iter()
                        .all(|v| v.is_finite())
            })
            .count() as u64;
        Call {
            host_s,
            model_s: rep.time.secs(),
            launches: rep.launches,
            algo: format!("{:?}", rep.algo),
            failed_lanes,
            check_s: t1.elapsed().as_secs_f64(),
        }
    }
}

enum Buffers {
    F64(Work<f64>),
    F32(Work<f32>),
}

impl Buffers {
    fn new(case: &Case) -> Self {
        if case.single {
            Buffers::F32(Work::new(case))
        } else {
            Buffers::F64(Work::new(case))
        }
    }

    fn call(
        &mut self,
        dev: &DeviceSpec,
        opts: &GbsvOptions,
        case: &Case,
        tracer: Option<&SharedTracer>,
    ) -> Call {
        match self {
            Buffers::F64(w) => w.call(dev, opts, case, tracer),
            Buffers::F32(w) => w.call(dev, opts, case, tracer),
        }
    }
}

/// Per-case samples across the run.
#[derive(Default)]
struct CaseLog {
    host_s: Vec<f64>,
    model_s: Option<f64>,
    launches: usize,
    algo: String,
    /// Calls whose modeled time or algorithm differed from the first call.
    nondeterministic: u64,
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let dev = registry::device(DEVICE).expect("catalog device");
    let opts = GbsvOptions {
        parallel: Some(ParallelPolicy::threads(cfg.threads)),
        ..Default::default()
    };

    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut cases = Vec::new();
    for _ in 0..SETUP_REPS {
        cases.clear();
        let t0 = Instant::now();
        cases = generate(cfg.seed);
        setup.push(t0.elapsed().as_secs_f64());
    }
    let setup_s = median(&setup);

    let tracer = cfg.trace.then(Tracer::shared);
    let mut logs: Vec<CaseLog> = cases.iter().map(|_| CaseLog::default()).collect();
    let mut buffers: Vec<Buffers> = cases.iter().map(Buffers::new).collect();
    let mut traced_cycle_s = Vec::new();
    let mut untraced_cycle_s = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut check_s, mut checked) = (0.0f64, 0u64);
    let lanes_per_cycle: usize = cases.iter().map(Case::lanes).sum();

    let stop = Instant::now() + Duration::from_secs(cfg.seconds);
    let mut cycle = 0usize;
    while cycle < MIN_CYCLES || Instant::now() < stop {
        // Cycle 0 warms up and is not timed. After it, traced runs
        // alternate traced and untraced cycles; the traced ones feed the
        // per-layer numbers.
        let traced = tracer.as_ref().filter(|_| cycle % 2 == 1);
        let mut cycle_host = 0.0;
        for ((case, log), work) in cases.iter().zip(logs.iter_mut()).zip(buffers.iter_mut()) {
            let c = work.call(&dev, &opts, case, traced);
            attempted += case.lanes() as u64;
            failed += c.failed_lanes;
            check_s += c.check_s;
            checked += case.lanes() as u64;
            cycle_host += c.host_s;
            match log.model_s {
                None => {
                    log.model_s = Some(c.model_s);
                    log.launches = c.launches;
                    log.algo = c.algo;
                }
                Some(m) => {
                    if m.to_bits() != c.model_s.to_bits() || log.algo != c.algo {
                        log.nondeterministic += 1;
                    }
                }
            }
            if cycle > 0 && (tracer.is_none() || traced.is_some()) {
                log.host_s.push(c.host_s);
            }
        }
        if traced.is_some() {
            traced_cycle_s.push(cycle_host);
        } else if cycle > 0 {
            untraced_cycle_s.push(cycle_host);
        }
        cycle += 1;
    }
    let nondeterministic: u64 = logs.iter().map(|l| l.nondeterministic).sum();
    failed += nondeterministic;

    // Model clock: a cycle issues its four batches back to back into one
    // in-order device stream at t = 0, and every system of a batch
    // completes when its call does.
    let model_cycle_s: f64 = logs.iter().map(|l| l.model_s.unwrap_or(0.0)).sum();
    let mut done = 0.0;
    let per_system: Vec<(f64, usize)> = logs
        .iter()
        .zip(&cases)
        .map(|(l, c)| {
            done += l.model_s.unwrap_or(0.0);
            (done, c.lanes())
        })
        .collect();
    let lane_quantile = |q: f64| {
        let target = (q * lanes_per_cycle as f64).ceil() as usize;
        let mut seen = 0usize;
        for &(t, lanes) in &per_system {
            seen += lanes;
            if seen >= target {
                return t;
            }
        }
        per_system.last().map_or(0.0, |p| p.0)
    };
    let met: usize = per_system
        .iter()
        .filter(|p| p.0 <= DEADLINE_S)
        .map(|p| p.1)
        .sum();

    let mut e2e = Metrics::default();
    e2e.push("setup_s", setup_s, "s", Clock::Host);
    e2e.push(
        "solves_per_s_host",
        lanes_per_cycle as f64 / median(&untraced_cycle_s),
        "1/s",
        Clock::Host,
    );
    e2e.push(
        "model_us_per_solve",
        model_cycle_s / lanes_per_cycle as f64 * 1e6,
        "us",
        Clock::Model,
    );
    e2e.push(
        "latency_us_model_p50",
        lane_quantile(0.5) * 1e6,
        "us",
        Clock::Model,
    );
    e2e.push(
        "latency_us_model_p99",
        lane_quantile(0.99) * 1e6,
        "us",
        Clock::Model,
    );
    e2e.push(
        "deadline_met_share",
        met as f64 / lanes_per_cycle as f64,
        "share",
        Clock::Model,
    );
    e2e.push(
        "capacity_hz_model",
        lanes_per_cycle as f64 / model_cycle_s,
        "1/s",
        Clock::Model,
    );

    let mut provenance = vec![
        ("device".to_string(), DEVICE.to_string()),
        ("cycles".to_string(), cycle.to_string()),
    ];
    for (case, log) in cases.iter().zip(&logs) {
        provenance.push((format!("algo.{}", case.name), log.algo.clone()));
        provenance.push((
            format!("batch.{}", case.name),
            format!(
                "n={} kl={} ku={} batch={} nrhs={} {}",
                case.a.layout().n,
                case.a.layout().kl,
                case.a.layout().ku,
                case.lanes(),
                case.b.nrhs(),
                if case.single { "f32" } else { "f64" }
            ),
        ));
    }

    let mut layers = Metrics::default();
    if tracer.is_some() {
        layer_metrics(&dev, &opts, &cases, &logs, &mut layers);
        layers.push("workloads.generate_s", setup_s, "s", Clock::Host);
        layers.push(
            "trace.overhead_share",
            median(&traced_cycle_s) / median(&untraced_cycle_s) - 1.0,
            "share",
            Clock::Host,
        );
        layers.push(
            "core.backward_error.us_per_request",
            check_s / checked as f64 * 1e6,
            "us",
            Clock::Host,
        );
    }
    Outcome {
        attempted,
        failed,
        e2e,
        layers,
        provenance,
        tracer,
    }
}

/// Computed flops and bytes of one factor-and-solve of a whole case,
/// from `gbatch_cpu::model` (bytes scaled to the element width).
fn computed_work(case: &Case) -> (f64, f64) {
    let l = case.a.layout();
    let nrhs = case.b.nrhs();
    let width = if case.single { 0.5 } else { 1.0 };
    let lanes = case.lanes() as f64;
    (
        lanes * (gbtrf_flops(&l) + gbtrs_flops(&l, nrhs)),
        lanes * width * (gbtrf_bytes(&l) + gbtrs_bytes(&l, nrhs)),
    )
}

fn layer_metrics(
    dev: &DeviceSpec,
    opts: &GbsvOptions,
    cases: &[Case],
    logs: &[CaseLog],
    layers: &mut Metrics,
) {
    for (case, log) in cases.iter().zip(logs) {
        let mut sorted = log.host_s.clone();
        sorted.sort_by(f64::total_cmp);
        let p50 = median(&sorted);
        let model_s = log.model_s.unwrap_or(0.0);
        let (flops, bytes) = computed_work(case);
        let k = format!("kernels.gbsv.{}", case.name);
        layers.push(format!("{k}.host_ms_p50"), p50 * 1e3, "ms", Clock::Host);
        layers.push(
            format!("{k}.host_ms_p90"),
            quantile_sorted(&sorted, 0.9) * 1e3,
            "ms",
            Clock::Host,
        );
        layers.push(format!("{k}.model_ms"), model_s * 1e3, "ms", Clock::Model);
        layers.push(
            format!("{k}.launches"),
            log.launches as f64,
            "count",
            Clock::Count,
        );
        layers.push(
            format!("{k}.gflop_per_s_host"),
            flops / p50 * 1e-9,
            "GFLOP/s",
            Clock::Host,
        );
        layers.push(
            format!("{k}.gbyte_per_s_model"),
            bytes / model_s * 1e-9,
            "GB/s",
            Clock::Model,
        );
    }

    // Factor and solve of the multi-RHS batch as separate calls.
    let react = &cases[3];
    let l = react.a.layout();
    let (mut trf_host, mut trs_host) = (Vec::new(), Vec::new());
    let (mut trf_model, mut trs_model) = (0.0, 0.0);
    for _ in 0..LAYER_REPS {
        let mut a = react.a.clone();
        let mut b = react.b.clone();
        let mut piv = PivotBatch::new(a.batch(), l.m, l.n);
        let mut info = InfoArray::new(a.batch());
        let t0 = Instant::now();
        let f = gbtrf_batch::<f64>(dev, &mut a, &mut piv, &mut info, opts).expect("gbtrf launches");
        trf_host.push(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        let s = gbtrs_batch::<f64>(dev, Transpose::No, &l, a.data(), &piv, &mut b, opts)
            .expect("gbtrs launches");
        trs_host.push(t1.elapsed().as_secs_f64());
        trf_model = f.time.secs();
        trs_model = s.time.secs();
    }
    for (op, host, model) in [
        ("gbtrf", &trf_host, trf_model),
        ("gbtrs", &trs_host, trs_model),
    ] {
        let k = format!("kernels.{op}.{}", react.name);
        layers.push(
            format!("{k}.host_ms_p50"),
            median(host) * 1e3,
            "ms",
            Clock::Host,
        );
        layers.push(format!("{k}.model_ms"), model * 1e3, "ms", Clock::Model);
    }

    // Plain single-threaded CPU baseline on the same f64 batches.
    let cpu = CpuSpec {
        cores: 1,
        ..CpuSpec::xeon_gold_6140()
    };
    for case in cases.iter().filter(|c| !c.single) {
        let l = case.a.layout();
        let mut host = Vec::with_capacity(LAYER_REPS);
        for _ in 0..LAYER_REPS {
            let mut a = case.a.clone();
            let mut b = case.b.clone();
            let mut piv = PivotBatch::new(a.batch(), l.m, l.n);
            let mut info = InfoArray::new(a.batch());
            let t0 = Instant::now();
            let _ = cpu_gbsv_batch(&cpu, &mut a, &mut piv, &mut b, &mut info);
            host.push(t0.elapsed().as_secs_f64());
        }
        layers.push(
            format!("cpu.gbsv_1t.{}.host_ms_p50", case.name),
            median(&host) * 1e3,
            "ms",
            Clock::Host,
        );
    }
}
