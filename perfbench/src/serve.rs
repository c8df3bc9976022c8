//! `serve_fleet` and `serve_timestep`: request traffic submitted one
//! request at a time through `Server::submit` / `drain` on a
//! heterogeneous fleet.
//!
//! Arrivals are open-loop on the server's virtual clock (their times come
//! from the trace), while the host loop is closed: one caller thread
//! submits the next request as soon as the previous `submit` returns.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use gbatch_core::residual::backward_error;
use gbatch_core::{
    operator_fingerprint, BandMatrixRef, Fingerprint, FingerprintHasher, Precision, ShapeKey,
};
use gbatch_cpu::CpuSpec;
use gbatch_gpu_sim::multi::DeviceGroup;
use gbatch_gpu_sim::ParallelPolicy;
use gbatch_serve::{
    CpuBackend, FleetSpec, FlushPolicy, GpuBackend, ServeReport, Server, ServerConfig,
    SolveBackend, SolveRequest, SolveResponse, SolveStatus,
};
use gbatch_workloads::{
    adversarial_traffic, timestep_traffic, AdversarialConfig, Arrival, TimestepConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{median, quantile_sorted, Clock, Metrics};
use crate::trace::{SharedTracer, Span, TracedBackend, Tracer};
use crate::{Outcome, RunConfig, F32_BOUND, F64_BOUND};

pub const FLEET: &str = "h100_pcie:1,mi250x_gcd:2";
/// Report names of the fleet's workers, `:` replaced by `-`.
pub const WORKERS: [&str; 4] = ["h100_pcie-0", "mi250x_gcd-0", "mi250x_gcd-1", "cpu"];
/// Rate multipliers whose replay p99 is a per-layer metric.
pub const PRINTED_RUNGS: [f64; 4] = [1.0, 2.0, 4.0, 8.0];
/// Highest doubling rung of the capacity ladder.
const TOP_RUNG: f64 = 64.0;
/// Geometric bisection steps between the last passing and the first
/// failing doubling rung (resolution `2^(1/64)`, about 1%).
const BISECT_STEPS: usize = 6;
/// Mean arrival rate of both traffic mixes (the fleet mix's calm state).
const RATE_HZ: f64 = 2.0e5;
/// Latency budget of the capacity replays, seconds (p99 must meet it);
/// also the fleet mix's per-request deadline budget.
const CAPACITY_P99_S: f64 = 2.0e-3;
/// Seeds reserved per run: trace `k` of seed `s` is generated from seed
/// `s * SEED_STRIDE + k`, so runs on distinct seeds never share a trace.
const SEED_STRIDE: u64 = 16;

/// The two serving traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// `AdversarialConfig::fleet_mix`: distinct operators, bursts, churn,
    /// poison storms, an f32 stream and a large-n SPIKE lane.
    Fleet,
    /// `timestep_traffic`: 32 reused tridiagonal operators, churn 0.02.
    Timestep,
}

impl Traffic {
    fn requests(self) -> usize {
        match self {
            Traffic::Fleet => 20_000,
            Traffic::Timestep => 50_000,
        }
    }

    /// Independent traces per run, each generated from its own seed and
    /// pooled. Fleet batching reacts chaotically to arrival order, so one
    /// fleet trace's model-clock figures vary by about 9% from seed to
    /// seed; eight pooled traces vary by about a third of that. Each
    /// trace's generation plus server construction is one set-up sample.
    fn traces(self) -> usize {
        match self {
            Traffic::Fleet => 8,
            Traffic::Timestep => 4,
        }
    }

    fn fleet_config() -> AdversarialConfig {
        AdversarialConfig::fleet_mix(RATE_HZ, CAPACITY_P99_S)
    }

    fn generate(self, seed: u64) -> Vec<Arrival> {
        let mut rng = StdRng::seed_from_u64(seed);
        match self {
            Traffic::Fleet => adversarial_traffic(&mut rng, self.requests(), &Self::fleet_config()),
            Traffic::Timestep => {
                let cfg =
                    TimestepConfig::timestepper(ShapeKey::gbsv(64, 1, 1, 1), 32, 0.02, RATE_HZ);
                timestep_traffic(&mut rng, self.requests(), &cfg)
            }
        }
    }

    /// The ids that carry an exactly singular operator (the generator's
    /// poison-storm rule), as a predicate.
    fn poisoned(self) -> impl Fn(u64) -> bool {
        let storm = match self {
            Traffic::Fleet => Self::fleet_config().poison_storm,
            Traffic::Timestep => None,
        };
        move |id| {
            storm.is_some_and(|s| {
                let id = id as usize;
                s.every > 0 && id >= s.every && id % s.every < s.len
            })
        }
    }
}

fn server_config() -> ServerConfig {
    ServerConfig {
        queue_capacity: 8192,
        policy: FlushPolicy::default()
            .with_target_batch(64)
            .with_min_gpu_batch(16),
    }
}

/// The fleet through the library's own constructor.
fn build_server(threads: usize) -> Server {
    Server::simulated_fleet(
        &FleetSpec::parse(FLEET).expect("catalog fleet"),
        CpuSpec::xeon_gold_6140(),
        ParallelPolicy::threads(threads),
        server_config(),
    )
    .expect("fleet resolves")
}

/// The same fleet with every worker wrapped in a [`TracedBackend`].
fn build_traced_server(threads: usize, tracer: &SharedTracer) -> Server {
    let devices = FleetSpec::parse(FLEET)
        .expect("catalog fleet")
        .devices()
        .expect("fleet resolves");
    let cpu_worker = devices.len();
    let gpus = devices
        .into_iter()
        .enumerate()
        .map(|(i, d)| {
            let inner: Box<dyn SolveBackend> = Box::new(GpuBackend::new(
                DeviceGroup::new(vec![d]),
                ParallelPolicy::threads(threads),
            ));
            TracedBackend::wrap(inner, i, tracer)
        })
        .collect();
    let cpu = TracedBackend::wrap(
        Box::new(CpuBackend::new(CpuSpec::xeon_gold_6140())),
        cpu_worker,
        tracer,
    );
    Server::fleet(server_config(), gpus, cpu)
}

/// One replay of the whole trace through a fresh server.
struct Pass {
    /// Host seconds spent inside `submit` and `drain`.
    host_s: f64,
    responses: Vec<SolveResponse>,
    rejected: Vec<u64>,
    report: ServeReport,
}

fn request(a: &Arrival, rate_mult: f64) -> SolveRequest {
    let at = a.at_s / rate_mult;
    SolveRequest {
        id: a.id,
        shape: a.shape,
        ab: a.ab.clone(),
        rhs: a.rhs.clone(),
        submitted_s: at,
        deadline_s: at + (a.deadline_s - a.at_s),
    }
}

fn run_pass(
    mut server: Server,
    arrivals: &[Arrival],
    rate_mult: f64,
    tracer: Option<&SharedTracer>,
) -> Pass {
    let mut host = Duration::ZERO;
    let mut rejected = Vec::new();
    for a in arrivals {
        let req = request(a, rate_mult);
        let span = tracer.map(|t| t.borrow_mut().begin("serve.submit", None, Some(a.id), 1));
        let t0 = Instant::now();
        let res = server.submit(req);
        host += t0.elapsed();
        if let (Some(t), Some(idx)) = (tracer, span) {
            t.borrow_mut().end(idx);
        }
        if res.is_err() {
            rejected.push(a.id);
        }
    }
    let span = tracer.map(|t| t.borrow_mut().begin("serve.drain", None, None, 0));
    let t0 = Instant::now();
    server.drain();
    host += t0.elapsed();
    if let (Some(t), Some(idx)) = (tracer, span) {
        t.borrow_mut().end(idx);
    }
    Pass {
        host_s: host.as_secs_f64(),
        responses: server.take_responses(),
        rejected,
        report: server.report(),
    }
}

/// Violations found in one pass's answers.
#[derive(Default)]
struct Checked {
    failed: u64,
    backward_error_s: f64,
    backward_errors: u64,
}

/// Check every answer: backward error of each `Solved` answer against the
/// request's own operator and right-hand side, exactly-once answering of
/// every admitted id, conservation, and `Singular` exactly for the
/// poisoned requests.
fn check(traffic: Traffic, arrivals: &[Arrival], pass: &Pass) -> Checked {
    let mut c = Checked::default();
    c.failed += pass.rejected.len() as u64;
    if !pass.report.is_conserved() {
        c.failed += 1;
    }
    let is_poisoned = traffic.poisoned();
    let mut answered = vec![0u32; arrivals.len()];
    for id in &pass.rejected {
        answered[*id as usize] = u32::MAX;
    }
    for r in &pass.responses {
        let Some(a) = arrivals.get(r.id as usize) else {
            c.failed += 1;
            continue;
        };
        let slot = &mut answered[r.id as usize];
        if *slot != 0 {
            c.failed += 1;
            continue;
        }
        *slot = 1;
        let poisoned = is_poisoned(r.id);
        let ok = match r.status {
            SolveStatus::Solved if !poisoned => {
                let l = a.shape.layout().expect("generated shapes are valid");
                let n = l.n;
                let bound = match a.shape.precision {
                    Precision::F32 => F32_BOUND,
                    Precision::F64 => F64_BOUND,
                };
                let t0 = Instant::now();
                let mut worst = 0.0f64;
                for col in 0..a.shape.nrhs {
                    let x = &r.x[col * n..(col + 1) * n];
                    let b = &a.rhs[col * n..(col + 1) * n];
                    let op = BandMatrixRef {
                        layout: l,
                        data: &a.ab,
                    };
                    let e = backward_error(op, x, b);
                    worst = if e.is_nan() {
                        f64::INFINITY
                    } else {
                        worst.max(e)
                    };
                }
                c.backward_error_s += t0.elapsed().as_secs_f64();
                c.backward_errors += 1;
                r.x.iter().all(|v| v.is_finite()) && worst <= bound
            }
            SolveStatus::Singular { .. } => poisoned,
            _ => false,
        };
        if !ok {
            c.failed += 1;
        }
    }
    c.failed += answered.iter().filter(|&&n| n == 0).count() as u64;
    c
}

/// Order-sensitive digest of every response field.
fn digest(responses: &[SolveResponse]) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    for r in responses {
        h.write_u64(r.id);
        let status = match r.status {
            SolveStatus::Solved => 0,
            SolveStatus::Singular { column } => 1 + (u64::from(column as u32) << 8),
            SolveStatus::TimedOut => 2,
            SolveStatus::Failed => 3,
        };
        h.write_u64(status);
        h.write_f64s(&r.x);
        h.write_f64s(&[r.submitted_s, r.deadline_s, r.completed_s]);
        h.write_u64(r.batch_size as u64);
        h.write_u64(r.reason as u64);
        h.write_u64(r.backend as u64);
    }
    h.finish()
}

fn latencies(responses: &[SolveResponse]) -> Vec<f64> {
    let mut l: Vec<f64> = responses.iter().map(SolveResponse::latency_s).collect();
    l.sort_by(f64::total_cmp);
    l
}

/// Whether a replay at `mult` times the trace's rate meets the capacity
/// criterion (p99 within budget, nothing refused, timed out or failed),
/// and its p99.
fn capacity_rung(traffic: Traffic, arrivals: &[Arrival], threads: usize, mult: f64) -> (bool, f64) {
    let pass = run_pass(build_server(threads), arrivals, mult, None);
    let p99 = quantile_sorted(&latencies(&pass.responses), 0.99);
    let is_poisoned = traffic.poisoned();
    let clean = pass.rejected.is_empty()
        && pass.responses.iter().all(|r| match r.status {
            SolveStatus::Solved => true,
            SolveStatus::Singular { .. } => is_poisoned(r.id),
            _ => false,
        });
    (clean && p99 <= CAPACITY_P99_S, p99)
}

/// Replay the trace at ×1, ×2, … ×[`TOP_RUNG`] of its rate, then bisect
/// geometrically above the highest passing rung. Returns every replay as
/// `(multiplier, passed, p99)` and the highest passing multiplier (0 when
/// none passes).
fn capacity(
    traffic: Traffic,
    arrivals: &[Arrival],
    threads: usize,
) -> (Vec<(f64, bool, f64)>, f64) {
    let mut ladder = Vec::new();
    let mut mult = 1.0;
    while mult <= TOP_RUNG {
        let (ok, p99) = capacity_rung(traffic, arrivals, threads, mult);
        ladder.push((mult, ok, p99));
        mult *= 2.0;
    }
    let mut lo = ladder
        .iter()
        .filter(|r| r.1)
        .map(|r| r.0)
        .fold(0.0, f64::max);
    if lo > 0.0 && lo < TOP_RUNG {
        let mut hi = 2.0 * lo;
        for _ in 0..BISECT_STEPS {
            let mid = (lo * hi).sqrt();
            let (ok, p99) = capacity_rung(traffic, arrivals, threads, mid);
            ladder.push((mid, ok, p99));
            if ok {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }
    (ladder, lo)
}

fn trace_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(SEED_STRIDE).wrapping_add(k as u64)
}

pub fn run(cfg: &RunConfig, traffic: Traffic) -> Outcome {
    let tracer = cfg.trace.then(Tracer::shared);
    let n_traces = traffic.traces();
    // Timed replays per trace: one, or one traced and one untraced.
    let min_timed = if cfg.trace { 2 } else { 1 };
    let mut setup = Vec::with_capacity(n_traces);
    let mut generate_s = Vec::with_capacity(n_traces);
    let (mut attempted, mut failed) = (0u64, 0u64);
    // Host throughput of every timed (untraced, traced) replay.
    let (mut untraced_tput, mut traced_tput) = (Vec::new(), Vec::new());
    let mut reports = Vec::with_capacity(n_traces);
    let mut lat = Vec::new();
    let mut met = 0usize;
    let mut be = (0.0f64, 0u64);
    let mut fingerprint = (0.0f64, 0u64);
    let mut spans = SpanTotals::default();
    let mut ladder = Vec::new();
    let mut capacity_hz = 0.0;
    let mut passes = 0usize;

    for k in 0..n_traces {
        let t0 = Instant::now();
        let arrivals = traffic.generate(trace_seed(cfg.seed, k));
        generate_s.push(t0.elapsed().as_secs_f64());
        drop(build_server(cfg.threads));
        setup.push(t0.elapsed().as_secs_f64());

        // Each trace gets an equal share of the run. The run's first
        // replay warms up and is not timed. After it, traced runs
        // alternate traced and untraced replays.
        let stop = Instant::now() + Duration::from_secs(cfg.seconds) / n_traces as u32;
        let mut first: Option<(ServeReport, Fingerprint)> = None;
        let mut pass_no = 0usize;
        let warmups = usize::from(k == 0);
        while pass_no < warmups + min_timed || Instant::now() < stop {
            let timed = pass_no >= warmups;
            let traced = tracer
                .as_ref()
                .filter(|_| timed && (pass_no - warmups).is_multiple_of(2));
            if let Some(t) = traced {
                // Only the latest traced replay's spans are kept for the
                // span file; earlier ones are already absorbed.
                t.borrow_mut().spans.clear();
            }
            let server = match traced {
                Some(t) => build_traced_server(cfg.threads, t),
                None => build_server(cfg.threads),
            };
            let pass = run_pass(server, &arrivals, 1.0, traced);
            attempted += arrivals.len() as u64;
            let c = check(traffic, &arrivals, &pass);
            failed += c.failed;
            be.0 += c.backward_error_s;
            be.1 += c.backward_errors;
            let d = digest(&pass.responses);
            // Every replay of one trace, traced or not, must reproduce the
            // first replay's report and responses exactly.
            match &first {
                None => {
                    let l = latencies(&pass.responses);
                    lat.extend(l);
                    met += pass
                        .responses
                        .iter()
                        .filter(|r| {
                            !r.missed_deadline()
                                && matches!(
                                    r.status,
                                    SolveStatus::Solved | SolveStatus::Singular { .. }
                                )
                        })
                        .count();
                    first = Some((pass.report, d));
                }
                Some((report, digest)) => {
                    if *report != pass.report || *digest != d {
                        failed += 1;
                    }
                }
            }
            let tput = pass.responses.len() as f64 / pass.host_s;
            if let Some(t) = traced {
                spans.absorb(&t.borrow().spans, arrivals.len());
                traced_tput.push(tput);
            } else if timed {
                untraced_tput.push(tput);
            }
            pass_no += 1;
        }
        passes += pass_no;
        let (report, _) = first.expect("at least one replay");
        reports.push(report);

        if k == 0 {
            let (rungs, mult) = capacity(traffic, &arrivals, cfg.threads);
            // The trace's own offered rate (bursts included) is the ×1 rung.
            let offered_hz = arrivals.len() as f64 / arrivals.last().map_or(1.0, |a| a.at_s);
            capacity_hz = mult * offered_hz;
            ladder = rungs;
        }
        if cfg.trace {
            let t0 = Instant::now();
            for a in &arrivals {
                std::hint::black_box(operator_fingerprint(&a.shape, std::hint::black_box(&a.ab)));
            }
            fingerprint.0 += t0.elapsed().as_secs_f64();
            fingerprint.1 += arrivals.len() as u64;
        }
    }
    lat.sort_by(f64::total_cmp);
    let requests = (traffic.requests() * n_traces) as f64;
    let busy: f64 = reports.iter().map(|r| r.gpu_busy_s + r.cpu_busy_s).sum();
    let completed: u64 = reports.iter().map(|r| r.completed).sum();

    let mut e2e = Metrics::default();
    e2e.push("setup_s", median(&setup), "s", Clock::Host);
    e2e.push(
        "solves_per_s_host",
        median(&untraced_tput),
        "1/s",
        Clock::Host,
    );
    e2e.push(
        "model_us_per_solve",
        busy / completed.max(1) as f64 * 1e6,
        "us",
        Clock::Model,
    );
    e2e.push(
        "latency_us_model_p50",
        quantile_sorted(&lat, 0.5) * 1e6,
        "us",
        Clock::Model,
    );
    e2e.push(
        "latency_us_model_p99",
        quantile_sorted(&lat, 0.99) * 1e6,
        "us",
        Clock::Model,
    );
    e2e.push(
        "deadline_met_share",
        met as f64 / requests,
        "share",
        Clock::Model,
    );
    e2e.push("capacity_hz_model", capacity_hz, "1/s", Clock::Model);

    let provenance = vec![
        (
            "fleet".to_string(),
            format!("{FLEET} + cpu spill (xeon_gold_6140)"),
        ),
        (
            "traces".to_string(),
            format!(
                "{n_traces} x {} requests, seeds {}..={}",
                traffic.requests(),
                trace_seed(cfg.seed, 0),
                trace_seed(cfg.seed, n_traces - 1)
            ),
        ),
        ("passes".to_string(), passes.to_string()),
        (
            "solves_per_s_host.passes".to_string(),
            untraced_tput
                .iter()
                .map(|t| format!("{t:.0}"))
                .collect::<Vec<_>>()
                .join(" "),
        ),
        (
            "capacity_ladder".to_string(),
            ladder
                .iter()
                .map(|(m, ok, p99)| {
                    let verdict = if *ok { "ok" } else { "miss" };
                    format!("x{m:.3}: p99 {:.1} us {verdict}", p99 * 1e6)
                })
                .collect::<Vec<_>>()
                .join("; "),
        ),
    ];

    let mut layers = Metrics::default();
    if cfg.trace {
        failed += spans.push_metrics(&mut layers);
        report_metrics(&reports, &mut layers);
        for (m, _, p99) in ladder.iter().filter(|r| PRINTED_RUNGS.contains(&r.0)) {
            layers.push(
                format!("serve.latency_us_model_p99.x{m}"),
                p99 * 1e6,
                "us",
                Clock::Model,
            );
        }
        layers.push(
            "core.fingerprint.us_per_request",
            fingerprint.0 / fingerprint.1.max(1) as f64 * 1e6,
            "us",
            Clock::Host,
        );
        layers.push(
            "core.backward_error.us_per_request",
            be.0 / be.1.max(1) as f64 * 1e6,
            "us",
            Clock::Host,
        );
        layers.push(
            "workloads.generate_s",
            median(&generate_s),
            "s",
            Clock::Host,
        );
        layers.push(
            "trace.overhead_share",
            median(&untraced_tput) / median(&traced_tput) - 1.0,
            "share",
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

/// Host seconds, calls and lanes of one kind of backend call.
#[derive(Default, Clone, Copy)]
struct CallTotals {
    host_s: f64,
    calls: u64,
    lanes: u64,
}

impl CallTotals {
    fn add(&mut self, s: &Span) {
        self.host_s += s.secs();
        self.calls += 1;
        self.lanes += s.lanes as u64;
    }

    fn us_per_lane(&self) -> f64 {
        if self.lanes == 0 {
            0.0
        } else {
            self.host_s / self.lanes as f64 * 1e6
        }
    }
}

/// Host-clock attribution accumulated from the spans of every traced
/// replay.
#[derive(Default)]
struct SpanTotals {
    replays: u64,
    requests: u64,
    /// Submit plus drain host seconds.
    server_s: f64,
    gpu: CallTotals,
    cpu: CallTotals,
    /// GPU host seconds per trait method.
    gpu_methods: BTreeMap<&'static str, f64>,
    /// Backend spans that do not lie inside the server span that caused
    /// them.
    orphans: u64,
}

impl SpanTotals {
    /// Absorb one traced replay of `requests` requests.
    fn absorb(&mut self, spans: &[Span], requests: usize) {
        self.replays += 1;
        self.requests += requests as u64;
        let cpu_worker = WORKERS.len() - 1;
        for s in spans {
            let Some(worker) = s.worker else {
                self.server_s += s.secs();
                continue;
            };
            let inside = s.parent.is_some_and(|p| {
                let p = &spans[p];
                p.start_ns <= s.start_ns && s.end_ns <= p.end_ns
            });
            if !inside {
                self.orphans += 1;
            }
            if worker == cpu_worker {
                self.cpu.add(s);
            } else {
                self.gpu.add(s);
                *self.gpu_methods.entry(s.name).or_default() += s.secs();
            }
        }
    }

    /// Push the attribution metrics; returns the structural violations
    /// (orphan backend spans, and shares that do not add up to 1).
    fn push_metrics(&self, layers: &mut Metrics) -> u64 {
        let per_replay = |v: f64| v / self.replays.max(1) as f64;
        let self_s = self.server_s - self.gpu.host_s - self.cpu.host_s;
        let share = |v: f64| v / self.server_s;
        let mut violations = self.orphans;
        if (share(self.gpu.host_s) + share(self.cpu.host_s) + share(self_s) - 1.0).abs() > 1e-9 {
            violations += 1;
        }
        for (kind, t) in [("gpu", &self.gpu), ("cpu", &self.cpu)] {
            let k = format!("backend.{kind}");
            layers.push(
                format!("{k}.host_us_per_lane"),
                t.us_per_lane(),
                "us",
                Clock::Host,
            );
            layers.push(
                format!("{k}.calls"),
                per_replay(t.calls as f64),
                "count",
                Clock::Count,
            );
            layers.push(
                format!("{k}.lanes"),
                per_replay(t.lanes as f64),
                "count",
                Clock::Count,
            );
            layers.push(
                format!("{k}.host_share"),
                share(t.host_s),
                "share",
                Clock::Host,
            );
        }
        for m in ["solve", "solve_retaining", "solve_with"] {
            let secs = self
                .gpu_methods
                .iter()
                .find(|(name, _)| name.strip_prefix("backend.") == Some(m))
                .map_or(0.0, |(_, s)| *s);
            layers.push(
                format!("backend.gpu.{m}.host_s"),
                per_replay(secs),
                "s",
                Clock::Host,
            );
        }
        layers.push(
            "serve.self_us_per_request",
            self_s / self.requests.max(1) as f64 * 1e6,
            "us",
            Clock::Host,
        );
        layers.push("serve.self_share", share(self_s), "share", Clock::Host);
        violations
    }
}

/// Counters and model-clock figures of the run's serve reports: counts
/// and busy times summed over the traces, rates pooled, utilizations
/// averaged.
fn report_metrics(reports: &[ServeReport], layers: &mut Metrics) {
    let sum = |f: &dyn Fn(&ServeReport) -> f64| reports.iter().map(f).sum::<f64>();
    let mean = |f: &dyn Fn(&ServeReport) -> f64| sum(f) / reports.len() as f64;
    let count = |layers: &mut Metrics, name: &str, v: f64| {
        layers.push(name.to_string(), v, "count", Clock::Count)
    };
    let batched = sum(&|r| {
        r.batch_hist
            .iter()
            .map(|&(b, c)| (b as u64 * c) as f64)
            .sum()
    });
    let batches = sum(&|r| r.batch_hist.iter().map(|&(_, c)| c as f64).sum());
    count(layers, "serve.flushes", sum(&|r| r.flushes() as f64));
    count(layers, "serve.mean_batch", batched / batches.max(1.0));
    count(
        layers,
        "serve.flush_deadline",
        sum(&|r| r.flush_deadline as f64),
    );
    count(layers, "serve.spills", sum(&|r| r.spills as f64));
    count(
        layers,
        "serve.bisect_retries",
        sum(&|r| r.bisect_retries as f64),
    );
    count(
        layers,
        "serve.fallback_singletons",
        sum(&|r| r.fallback_singletons as f64),
    );
    count(
        layers,
        "serve.max_queue_depth",
        reports
            .iter()
            .map(|r| r.max_queue_depth as f64)
            .fold(0.0, f64::max),
    );
    count(layers, "serve.sheds", sum(&|r| r.sheds() as f64));
    layers.push(
        "serve.utilization_spread",
        mean(&|r| r.utilization_spread()),
        "share",
        Clock::Model,
    );
    for (i, w) in WORKERS.iter().enumerate() {
        layers.push(
            format!("device.{w}.busy_ms_model"),
            sum(&|r| r.devices[i].busy_s) * 1e3,
            "ms",
            Clock::Model,
        );
        layers.push(
            format!("device.{w}.utilization"),
            mean(&|r| r.devices[i].utilization),
            "share",
            Clock::Model,
        );
        count(
            layers,
            &format!("device.{w}.requests"),
            sum(&|r| r.devices[i].requests as f64),
        );
    }
    let lookups = sum(&|r| r.cache_lookups as f64);
    layers.push(
        "cache.hit_rate",
        sum(&|r| r.cache_hits as f64) / lookups.max(1.0),
        "share",
        Clock::Count,
    );
    count(
        layers,
        "cache.insertions",
        sum(&|r| r.cache_insertions as f64),
    );
    count(
        layers,
        "cache.evictions",
        sum(&|r| r.cache_evictions as f64),
    );
    count(
        layers,
        "cache.warm_flushes",
        sum(&|r| r.warm_flushes as f64),
    );
    count(
        layers,
        "cache.warm_fallbacks",
        sum(&|r| r.warm_fallbacks as f64),
    );
}
