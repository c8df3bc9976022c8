//! Two-clock benchmark of the batched band solver and its serving layer.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <batch_paper|serve_fleet|serve_timestep> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! A `_host` metric is wall time on the machine running the benchmark; a
//! `_model` metric is gpu-sim's analytic device clock or the server's
//! virtual clock. The `clocks` output line gives every metric's clock.
//! Host figures come from a closed loop (one caller thread issues the
//! next call when the previous one returns). `--trace 0`
//! prints the end-to-end metrics; `--trace 1` runs the same workload with
//! spans around each layer's public entry points and prints the per-layer
//! metrics instead. The last line of standard output is the result
//! object; the lines before it record provenance and each metric's clock.

mod batch;
mod report;
mod serve;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Clock, Metrics};
use trace::SharedTracer;

/// Normwise backward-error bound for an answer computed in `f64`.
pub const F64_BOUND: f64 = 1e-12;
/// Normwise backward-error bound for an answer computed in `f32`.
pub const F32_BOUND: f64 = 1e-4;

const WORKLOADS: [&str; 3] = ["batch_paper", "serve_fleet", "serve_timestep"];

/// Parsed command line.
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Host threads for the simulated engines: the core count, so load
    /// generation never uses more threads than cores.
    pub threads: usize,
}

/// What a workload measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Metrics,
    pub layers: Metrics,
    pub provenance: Vec<(String, String)>,
    pub tracer: Option<SharedTracer>,
}

fn parse_args() -> Result<RunConfig, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(bad(&format!("one of {}", WORKLOADS.join(", "))));
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|_| bad("an integer"))?;
                if !(1..=600).contains(&s) {
                    return Err(bad("1 to 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        threads: report::nproc(),
    })
}

/// Every per-layer metric with its unit, in print order. A traced run
/// prints all of them; a layer its workload does not call reads 0.
fn layer_names() -> Vec<(String, &'static str)> {
    let mut names = Vec::new();
    let mut add = |prefix: &str, fields: &[(&str, &'static str)]| {
        for (field, unit) in fields {
            names.push((format!("{prefix}{field}"), *unit));
        }
    };
    for case in batch::CASES {
        add(
            &format!("kernels.gbsv.{case}."),
            &[
                ("host_ms_p50", "ms"),
                ("host_ms_p90", "ms"),
                ("model_ms", "ms"),
                ("launches", "count"),
                ("gflop_per_s_host", "GFLOP/s"),
                ("gbyte_per_s_model", "GB/s"),
            ],
        );
    }
    for op in ["gbtrf", "gbtrs"] {
        add(
            &format!("kernels.{op}.react72_r10."),
            &[("host_ms_p50", "ms"), ("model_ms", "ms")],
        );
    }
    for case in batch::CASES.iter().filter(|c| !c.ends_with("_f32")) {
        add(&format!("cpu.gbsv_1t.{case}."), &[("host_ms_p50", "ms")]);
    }
    let backend = [
        ("host_us_per_lane", "us"),
        ("calls", "count"),
        ("lanes", "count"),
        ("host_share", "share"),
    ];
    add("backend.gpu.", &backend);
    add(
        "backend.gpu.",
        &[
            ("solve.host_s", "s"),
            ("solve_retaining.host_s", "s"),
            ("solve_with.host_s", "s"),
        ],
    );
    add("backend.cpu.", &backend);
    add(
        "serve.",
        &[
            ("self_us_per_request", "us"),
            ("self_share", "share"),
            ("flushes", "count"),
            ("mean_batch", "count"),
            ("flush_deadline", "count"),
            ("spills", "count"),
            ("bisect_retries", "count"),
            ("fallback_singletons", "count"),
            ("max_queue_depth", "count"),
            ("sheds", "count"),
            ("utilization_spread", "share"),
        ],
    );
    for m in serve::PRINTED_RUNGS {
        add(&format!("serve.latency_us_model_p99.x{m}"), &[("", "us")]);
    }
    for w in serve::WORKERS {
        add(
            &format!("device.{w}."),
            &[
                ("busy_ms_model", "ms"),
                ("utilization", "share"),
                ("requests", "count"),
            ],
        );
    }
    add(
        "cache.",
        &[
            ("hit_rate", "share"),
            ("insertions", "count"),
            ("evictions", "count"),
            ("warm_flushes", "count"),
            ("warm_fallbacks", "count"),
        ],
    );
    add(
        "",
        &[
            ("core.fingerprint.us_per_request", "us"),
            ("core.backward_error.us_per_request", "us"),
            ("workloads.generate_s", "s"),
            ("trace.overhead_share", "share"),
            ("failed_share", "share"),
            ("deadline_miss_share", "share"),
        ],
    );
    names
}

/// The measured per-layer metrics in canonical order, with 0 for the
/// layers the workload does not call.
fn complete_layers(measured: Metrics) -> Metrics {
    let names = layer_names();
    for m in &measured.0 {
        assert!(
            names.iter().any(|(n, u)| *n == m.name && *u == m.unit),
            "per-layer metric {} [{}] is not in the canonical list",
            m.name,
            m.unit
        );
    }
    let mut out = Metrics::default();
    for (name, unit) in names {
        match measured.0.iter().find(|m| m.name == name) {
            Some(m) => out.0.push(m.clone()),
            None => out.push(name, 0.0, unit, Clock::Count),
        }
    }
    out
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match cfg.workload.as_str() {
        "batch_paper" => batch::run(&cfg),
        "serve_fleet" => serve::run(&cfg, serve::Traffic::Fleet),
        _ => serve::run(&cfg, serve::Traffic::Timestep),
    };
    let Outcome {
        attempted,
        failed,
        mut e2e,
        mut layers,
        mut provenance,
        tracer,
    } = outcome;
    let failed_share = failed as f64 / attempted.max(1) as f64;
    e2e.push("peak_rss_mb", report::peak_rss_mb(), "MB", Clock::Memory);
    let met = e2e.get("deadline_met_share").unwrap_or(0.0);
    layers.push("failed_share", failed_share, "share", Clock::Count);
    layers.push("deadline_miss_share", 1.0 - met, "share", Clock::Model);

    let metrics = if cfg.trace {
        complete_layers(layers)
    } else {
        e2e
    };
    let correct = failed == 0 && metrics.0.iter().all(|m| m.value.is_finite());

    let mut head = vec![
        ("workload".to_string(), cfg.workload.clone()),
        ("seed".to_string(), cfg.seed.to_string()),
        ("seconds".to_string(), cfg.seconds.to_string()),
        ("trace".to_string(), u8::from(cfg.trace).to_string()),
        ("nproc".to_string(), report::nproc().to_string()),
        (
            "parallel_policy".to_string(),
            format!("threads({})", cfg.threads),
        ),
        ("cpu_model".to_string(), report::cpu_model()),
        (
            "build_profile".to_string(),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
    ];
    head.append(&mut provenance);
    if let Some(t) = &tracer {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.csv", cfg.workload, cfg.seed));
        match t.borrow().write_csv(&path) {
            Ok(()) => head.push(("spans".to_string(), path.display().to_string())),
            Err(e) => eprintln!("perfbench: writing spans failed: {e}"),
        }
    }
    println!("{}", report::provenance_line(&head));
    println!("{}", report::clocks_line(&metrics));
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    ExitCode::SUCCESS
}
