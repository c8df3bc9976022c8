//! Solve backends: where a flushed batch actually runs.
//!
//! The server routes each flush to one of two engines:
//!
//! - [`GpuBackend`] — the simulated-GPU batch path: the flush is split
//!   across a [`DeviceGroup`] (one partition per device, e.g. the two GCDs
//!   of an MI250x) and each partition runs one `gbsv_batch` dispatch at
//!   the flush's precision.
//!   Service time is the group makespan, so the server's busy-tracking
//!   sees the same launch-overhead economics as the paper's Figure 1.
//! - [`CpuBackend`] — the multicore spill-over path (`cpu_gbsv_batch`),
//!   used for batches too small or too stale to be worth a device launch.
//!
//! Payloads travel in `f64` on the wire regardless of precision; a key
//! tagged [`Precision::F32`] means the client accepts single-precision
//! compute, so the flush is narrowed at assembly and runs on the `f32`
//! instantiation of the batch stack — half the shared-memory footprint,
//! twice the modeled fp32 lane throughput. Because [`ShapeKey`] carries
//! the precision, f32 and f64 traffic of the same geometry never share a
//! bucket or a launch.
//!
//! Every entry point has one body, generic over the flush's [`Scalar`];
//! each [`SolveBackend`] method picks the instantiation with a single
//! `match` on [`ShapeKey::precision`].
//!
//! Both are behind the [`SolveBackend`] trait so tests can inject faulting
//! doubles to exercise the server's bisect-retry logic.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use gbatch_core::gbtrs::Transpose;
use gbatch_core::layout::BandLayout;
use gbatch_core::spike::{spike_factorize, spike_solve_retained};
use gbatch_core::{
    BandBatch, BandMatrixRef, InfoArray, PayloadScalar, PivotBatch, Precision, RetainedFactor,
    RhsBatch, Scalar, ShapeKey,
};
use gbatch_cpu::model::{bytes_at, gbtrf_bytes, gbtrf_flops, gbtrs_bytes, gbtrs_flops};
use gbatch_cpu::{cpu_gbsv_batch, CpuSpec};
use gbatch_gpu_sim::engine::LaunchError;
use gbatch_gpu_sim::multi::DeviceGroup;
use gbatch_gpu_sim::{DeviceSpec, EngineMode, MegabatchQueue, ParallelPolicy, SimTime};
use gbatch_kernels::cost::{predict_spike_time, CrossoverModel};
use gbatch_kernels::dispatch::{
    gbsv_batch, gbtrf_batch, gbtrs_batch_lanes, ChosenAlgo, GbsvOptions, MatrixLayout, SPIKE_MIN_N,
};
use gbatch_kernels::spike::SpikeParams;
use gbatch_kernels::window::WindowParams;
use gbatch_tuning::TuningTable;

use crate::request::SolveRequest;

/// Which engine a batch ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Simulated-GPU batch dispatch.
    Gpu,
    /// Multicore CPU spill-over.
    Cpu,
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendKind::Gpu => write!(f, "gpu"),
            BackendKind::Cpu => write!(f, "cpu"),
        }
    }
}

/// A batch-level backend failure (the whole dispatch, not one lane —
/// singular lanes are per-lane data, reported through
/// [`BatchSolution::info`]).
#[derive(Debug, Clone, PartialEq)]
pub enum BackendError {
    /// The simulated device refused the launch.
    Launch(LaunchError),
    /// An injected fault (test doubles) or other backend-specific failure.
    Fault(String),
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::Launch(e) => write!(f, "launch rejected: {e}"),
            BackendError::Fault(why) => write!(f, "backend fault: {why}"),
        }
    }
}

impl std::error::Error for BackendError {}

/// Result of one backend batch: per-request solutions and LAPACK `info`
/// codes (aligned with the request slice), plus the modeled busy time.
#[derive(Debug, Clone)]
pub struct BatchSolution {
    /// Per-request solution vectors; a singular lane's entry is its
    /// untouched right-hand side.
    pub x: Vec<Vec<f64>>,
    /// Per-request LAPACK `info` (0 = solved, `j > 0` = first zero pivot
    /// at 1-based column `j`).
    pub info: Vec<i32>,
    /// Modeled backend busy time for the batch, in seconds.
    pub service_s: f64,
}

/// Per-request retained factors aligned with a batch (`None` for lanes
/// whose factorization failed or was not harvested).
pub type RetainedLanes = Vec<Option<Arc<RetainedFactor>>>;

/// Result of a factor-only batch ([`SolveBackend::factorize`]).
#[derive(Debug, Clone)]
pub struct FactorOutcome {
    /// Per-operator retained factors; `None` for singular lanes.
    pub factors: RetainedLanes,
    /// Per-operator LAPACK `info` codes.
    pub info: Vec<i32>,
    /// Modeled backend busy time for the batch, in seconds.
    pub service_s: f64,
}

/// A batch solver the server can route flushes to.
pub trait SolveBackend {
    /// Which engine this is (stamped on responses).
    fn kind(&self) -> BackendKind;

    /// Solve every request of one same-shape batch. Implementations must
    /// be deterministic: identical inputs produce bitwise-identical
    /// solutions and service times.
    fn solve(&self, shape: &ShapeKey, reqs: &[SolveRequest])
        -> Result<BatchSolution, BackendError>;

    /// [`SolveBackend::solve`], additionally harvesting each healthy
    /// lane's factorization for a factor cache. The default never
    /// retains (`None` per lane), so simple test doubles keep compiling
    /// and simply opt out of caching.
    fn solve_retaining(
        &self,
        shape: &ShapeKey,
        reqs: &[SolveRequest],
    ) -> Result<(BatchSolution, RetainedLanes), BackendError> {
        let sol = self.solve(shape, reqs)?;
        let lanes = vec![None; sol.x.len()];
        Ok((sol, lanes))
    }

    /// Solve a batch over **cached factors** — the GBTRS-only fast path.
    /// `factors` is aligned with `reqs`. The default falls back to a full
    /// factorize-and-solve (correct, merely not fast), so test doubles
    /// and exotic backends need not implement the fast path.
    fn solve_with(
        &self,
        shape: &ShapeKey,
        reqs: &[SolveRequest],
        factors: &[Arc<RetainedFactor>],
    ) -> Result<BatchSolution, BackendError> {
        let _ = factors;
        self.solve(shape, reqs)
    }

    /// Factor a batch of operators without solving (the explicit
    /// `Factorize` entry point). `operators` are band payloads in wire
    /// (`f64`) form. Backends that cannot factor standalone return a
    /// fault; the server treats that as "no factor-ahead support".
    fn factorize(
        &self,
        shape: &ShapeKey,
        operators: &[&[f64]],
    ) -> Result<FactorOutcome, BackendError> {
        let _ = (shape, operators);
        Err(BackendError::Fault(
            "factor-only entry point unsupported by this backend".into(),
        ))
    }

    /// The simulated device this backend launches on, when it has one.
    /// The fleet router prices each bucket against this spec (shared
    /// memory decides fused eligibility, bandwidth and launch overhead
    /// decide the service-time estimate). `None` — the default, kept by
    /// CPU pools and test doubles — means "no device model": the router
    /// can still route there but estimates zero device time, which is
    /// exactly the pre-fleet behavior for the CPU spill path.
    fn device(&self) -> Option<&DeviceSpec> {
        None
    }
}

/// The band layout of a shape, or a fault naming the invalid shape.
fn layout_of(shape: &ShapeKey) -> Result<BandLayout, BackendError> {
    shape
        .layout()
        .map_err(|e| BackendError::Fault(format!("invalid shape {shape}: {e}")))
}

/// Narrow `f64` wire values onto the flush precision (a copy at `f64`).
fn narrow<S: Scalar>(src: &[f64]) -> Vec<S> {
    src.iter().map(|&v| S::from_f64(v)).collect()
}

/// [`narrow`] into an existing buffer.
fn narrow_into<S: Scalar>(dst: &mut [S], src: &[f64]) {
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = S::from_f64(v);
    }
}

/// Widen flush-precision values back onto the `f64` wire (exact).
fn widen<S: Scalar>(src: &[S]) -> Vec<f64> {
    src.iter().map(|v| v.to_f64()).collect()
}

/// Copy the requests' payloads into freshly-allocated batch containers
/// at the flush precision.
fn assemble<S: Scalar>(
    shape: &ShapeKey,
    reqs: &[SolveRequest],
) -> Result<(BandBatch<S>, PivotBatch, RhsBatch<S>, InfoArray), BackendError> {
    let l = layout_of(shape)?;
    let batch = reqs.len();
    let mut a = BandBatch::<S>::zeros_with_layout(l, batch)
        .map_err(|e| BackendError::Fault(format!("band allocation failed: {e}")))?;
    let mut rhs = RhsBatch::<S>::zeros(batch, l.n, shape.nrhs)
        .map_err(|e| BackendError::Fault(format!("rhs allocation failed: {e}")))?;
    let stride = a.matrix_stride();
    for (k, r) in reqs.iter().enumerate() {
        narrow_into(&mut a.data_mut()[k * stride..(k + 1) * stride], &r.ab);
        narrow_into(rhs.block_mut(k), &r.rhs);
    }
    Ok((
        a,
        PivotBatch::new(batch, l.m, l.n),
        rhs,
        InfoArray::new(batch),
    ))
}

/// One lane's answer on the wire: the widened solution, or — for a
/// singular lane — the request's *original* `f64` right-hand side (no
/// round trip through the flush precision).
fn answer<S: Scalar>(r: &SolveRequest, info: i32, solved: &[S]) -> Vec<f64> {
    if info > 0 {
        r.rhs.clone()
    } else {
        widen(solved)
    }
}

/// Guard a warm batch: one retained factor per request, each matching the
/// shape's layout and precision. Returns the shape's layout.
fn check_factors(
    shape: &ShapeKey,
    reqs: &[SolveRequest],
    factors: &[Arc<RetainedFactor>],
) -> Result<BandLayout, BackendError> {
    assert_eq!(reqs.len(), factors.len(), "one retained factor per request");
    let l = layout_of(shape)?;
    match factors
        .iter()
        .position(|f| f.layout != l || f.precision() != shape.precision)
    {
        Some(k) => Err(BackendError::Fault(format!(
            "lane {k}: retained factor does not match shape {shape}"
        ))),
        None => Ok(l),
    }
}

/// Whether a shape is served by the SPIKE split regime on the device: at
/// or past the dispatch floor, with a band to actually split.
fn spike_worthy(shape: &ShapeKey) -> bool {
    shape.n >= SPIKE_MIN_N && shape.kl + shape.ku > 0
}

/// Harvest a large-`n` operator as a retained SPIKE factorization at
/// precision `S` (the wire payload is narrowed first, matching the
/// precision the device solve ran at). `None` when any block or the
/// reduced system factors singular — callers skip retention and stay
/// correct.
fn spike_retain<S: PayloadScalar>(
    dev: &DeviceSpec,
    l: &BandLayout,
    ab: &[f64],
) -> Option<Arc<RetainedFactor>> {
    let parts = SpikeParams::auto(dev, l.kl).parts;
    let data = narrow::<S>(ab);
    let aref = BandMatrixRef {
        layout: *l,
        data: &data[..],
    };
    spike_factorize(&aref, parts).ok().map(|f| {
        Arc::new(RetainedFactor {
            layout: *l,
            payload: S::spike_payload(f),
            pivots: Vec::new(),
        })
    })
}

/// One host `gbtrf` at precision `S`: the retained factors (`None` when
/// singular) and the LAPACK `info` code.
fn host_factor<S: PayloadScalar>(l: &BandLayout, op: &[f64]) -> (Option<Arc<RetainedFactor>>, i32) {
    let mut ab = narrow::<S>(op);
    let mut ipiv = vec![0i32; l.m.min(l.n)];
    let code = gbatch_core::gbtrf::gbtrf::<S>(l, &mut ab, &mut ipiv);
    let factor = (code == 0).then(|| {
        Arc::new(RetainedFactor {
            layout: *l,
            payload: S::band_payload(ab),
            pivots: ipiv,
        })
    });
    (factor, code)
}

/// Price the host-side split refactorization that retention runs when a
/// SPIKE-dispatched lane's factors are harvested ([`spike_retain`] re-runs
/// `spike_factorize` from the original band), using the same factor-phase
/// cost terms as [`GpuBackend::factorize_spike`].
fn spike_retention_time<S: Scalar>(dev: &DeviceSpec, l: &BandLayout, lanes: usize) -> SimTime {
    if lanes == 0 {
        return SimTime(0.0);
    }
    predict_spike_time::<S>(dev, l, 0, &SpikeParams::auto(dev, l.kl))
        .map_or(SimTime(0.0), |p| SimTime(p.secs() * lanes as f64))
}

/// Simulated-GPU backend: one `gbsv_batch` dispatch per device partition.
///
/// With [`EngineMode::Resident`] (see [`GpuBackend::with_engine`]) the
/// backend keeps a persistent worker pool alive across flushes: launches
/// pay the warm overhead, consecutive launches of one flush coalesce
/// through a [`MegabatchQueue`], and the first resident flush additionally
/// pays the one-time pool spin-up. Solutions, `info` codes, counters and
/// hazard reports are bitwise-identical across engine modes — only the
/// modeled service time changes.
pub struct GpuBackend {
    group: DeviceGroup,
    parallel: ParallelPolicy,
    tuning: Option<TuningTable>,
    engine: EngineMode,
    layout: MatrixLayout,
    megabatch: Mutex<MegabatchQueue>,
    spun_up: AtomicBool,
}

impl GpuBackend {
    /// Backend over a device group. `parallel` is the host scheduling of
    /// the simulated engine's per-matrix blocks — a throughput knob whose
    /// results are bitwise-identical for every policy.
    #[must_use]
    pub fn new(group: DeviceGroup, parallel: ParallelPolicy) -> Self {
        GpuBackend {
            group,
            parallel,
            tuning: None,
            engine: EngineMode::PerLaunch,
            layout: MatrixLayout::Auto,
            megabatch: Mutex::new(MegabatchQueue::new()),
            spun_up: AtomicBool::new(false),
        }
    }

    /// Builder: pin the storage-layout dimension of every dispatch
    /// ([`MatrixLayout::Auto`] — price and choose — is the default).
    #[must_use]
    pub fn with_layout(mut self, layout: MatrixLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Builder: consult a tuning table for window parameters per shape.
    #[must_use]
    pub fn with_tuning(mut self, tuning: TuningTable) -> Self {
        self.tuning = Some(tuning);
        self
    }

    /// Builder: select how launches source host threads and price their
    /// overhead ([`EngineMode::PerLaunch`] is the default).
    #[must_use]
    pub fn with_engine(mut self, engine: EngineMode) -> Self {
        self.engine = engine;
        self
    }

    /// The device group this backend dispatches to.
    #[must_use]
    pub fn group(&self) -> &DeviceGroup {
        &self.group
    }

    /// The engine mode flushes run under.
    #[must_use]
    pub fn engine(&self) -> EngineMode {
        self.engine
    }

    /// Snapshot of the megabatch coalescing statistics (groups priced,
    /// launches absorbed, overhead recovered). All zero under
    /// [`EngineMode::PerLaunch`].
    #[must_use]
    pub fn megabatch_stats(&self) -> MegabatchQueue {
        *self.megabatch.lock().unwrap()
    }

    fn options(&self, shape: &ShapeKey) -> GbsvOptions {
        let mut opts = GbsvOptions {
            parallel: Some(self.parallel),
            engine: Some(self.engine),
            layout: self.layout,
            ..Default::default()
        };
        if let Some(entry) = self.tuning.as_ref().and_then(|t| t.lookup_shape(shape)) {
            opts.window = Some(WindowParams {
                nb: entry.nb,
                threads: entry.threads,
                parallel: self.parallel,
            });
        }
        opts
    }

    /// Price one partition's flush under the backend's engine mode.
    ///
    /// Per-launch: the dispatch report's time, unchanged. Resident: the
    /// partition's consecutive launches coalesce through the megabatch
    /// queue (one warm overhead for the group), and the first partition of
    /// the first resident flush carries the one-time pool spin-up. Pools
    /// for all member devices spin concurrently during that flush, so the
    /// group makespan sees a single spin-up term — charged here, honestly,
    /// instead of being hidden outside the service time.
    fn flush_time(&self, dev: &DeviceSpec, time: SimTime, launches: usize) -> SimTime {
        if self.engine != EngineMode::Resident {
            return time;
        }
        let coalesced = self
            .megabatch
            .lock()
            .unwrap()
            .coalesce(time, launches as u64, dev);
        if self.spun_up.swap(true, Ordering::Relaxed) {
            coalesced
        } else {
            coalesced + self.engine.spinup(dev)
        }
    }
}

impl GpuBackend {
    /// The shared `gbsv` flush body. `retain` additionally harvests every
    /// healthy lane's factors. For monolithic lanes that is a host-side
    /// copy that leaves the modeled service time untouched, so `solve` and
    /// `solve_retaining` price identically; SPIKE-dispatched lanes refactor
    /// on the host during the harvest, and that work is priced into the
    /// flush via [`spike_retention_time`].
    fn run_gbsv<S: PayloadScalar>(
        &self,
        shape: &ShapeKey,
        reqs: &[SolveRequest],
        retain: bool,
    ) -> Result<(BatchSolution, RetainedLanes), BackendError> {
        let batch = reqs.len();
        let mut x = vec![Vec::new(); batch];
        let mut info_out = vec![0i32; batch];
        let mut lanes: RetainedLanes = vec![None; batch];
        let opts = self.options(shape);
        let time = self.group.run_split(batch, |dev, lo, hi| {
            let part = &reqs[lo..hi];
            let (mut a, mut piv, mut rhs, mut info) = assemble::<S>(shape, part)?;
            let rep = gbsv_batch(dev, &mut a, &mut piv, &mut rhs, &mut info, &opts)
                .map_err(BackendError::Launch)?;
            let mut spike_retained = 0usize;
            for (k, r) in part.iter().enumerate() {
                info_out[lo + k] = info.get(k);
                x[lo + k] = answer(r, info.get(k), rhs.block(k));
                if retain && info.get(k) == 0 {
                    // A SPIKE dispatch wrote *block-partitioned* factors
                    // back — harvest the split factorization itself, not
                    // a band that no monolithic GBTRS can consume.
                    lanes[lo + k] = if rep.algo == ChosenAlgo::Spike {
                        spike_retained += 1;
                        spike_retain::<S>(dev, &a.layout(), &r.ab)
                    } else {
                        Some(Arc::new(RetainedFactor::from_lane(&a, piv.pivots(k), k)))
                    };
                }
            }
            // The SPIKE retention harvest refactors each lane on the host
            // — priced into the flush, not hidden.
            let t = rep.time + spike_retention_time::<S>(dev, &a.layout(), spike_retained);
            Ok(self.flush_time(dev, t, rep.launches))
        })?;
        Ok((
            BatchSolution {
                x,
                info: info_out,
                service_s: time.secs(),
            },
            lanes,
        ))
    }

    /// The GBTRS-only warm body. Retained SPIKE factorizations (large-n
    /// split operators) solve through the split warm path; a mixed
    /// monolithic/SPIKE batch fails closed, and the server demotes the
    /// flush to the cold path, which is always correct.
    fn run_gbtrs<S: PayloadScalar>(
        &self,
        shape: &ShapeKey,
        reqs: &[SolveRequest],
        factors: &[Arc<RetainedFactor>],
    ) -> Result<BatchSolution, BackendError> {
        let l = check_factors(shape, reqs, factors)?;
        if factors.iter().any(|f| f.is_spike()) {
            if !factors.iter().all(|f| f.is_spike()) {
                return Err(BackendError::Fault(
                    "mixed monolithic/SPIKE warm batch".into(),
                ));
            }
            return self.solve_with_spike::<S>(shape, reqs, factors, &l);
        }
        let batch = reqs.len();
        let mut x = vec![Vec::new(); batch];
        let opts = self.options(shape);
        let time = self.group.run_split(batch, |dev, lo, hi| {
            let (_, _, mut rhs, _) = assemble::<S>(shape, &reqs[lo..hi])?;
            let lanes: Vec<(&[S], &[i32])> = factors[lo..hi]
                .iter()
                .map(|f| (f.factors::<S>().expect("checked above"), &f.pivots[..]))
                .collect();
            let rep = gbtrs_batch_lanes(dev, Transpose::No, &l, &lanes, &mut rhs, &opts)
                .map_err(BackendError::Launch)?;
            for k in 0..hi - lo {
                x[lo + k] = widen(rhs.block(k));
            }
            Ok(self.flush_time(dev, rep.time, rep.launches))
        })?;
        Ok(BatchSolution {
            x,
            info: vec![0; batch],
            service_s: time.secs(),
        })
    }

    /// The warm SPIKE solve body: every lane rides its retained split
    /// factorization ([`spike_solve_retained`] — block triangular solves,
    /// reduced back-substitution, combine), priced with the split cost
    /// model's solve-only terms and the backend's engine mode.
    fn solve_with_spike<S: PayloadScalar>(
        &self,
        shape: &ShapeKey,
        reqs: &[SolveRequest],
        factors: &[Arc<RetainedFactor>],
        l: &BandLayout,
    ) -> Result<BatchSolution, BackendError> {
        let batch = reqs.len();
        let nrhs = shape.nrhs;
        let mut x = vec![Vec::new(); batch];
        let time = self.group.run_split(batch, |dev, lo, hi| {
            for k in lo..hi {
                let sf = factors[k].spike::<S>().expect("checked above");
                let mut b = narrow::<S>(&reqs[k].rhs);
                spike_solve_retained(sf, &mut b, nrhs);
                x[k] = widen(&b);
            }
            let parts = factors[lo]
                .spike::<S>()
                .expect("checked above")
                .partition
                .parts;
            let params = SpikeParams::auto(dev, l.kl).with_parts(parts);
            let t = CrossoverModel::default()
                .spike_warm_time::<S>(dev, l, hi - lo, nrhs, &params)
                .ok_or_else(|| BackendError::Fault("warm SPIKE solve cannot be priced".into()))?;
            Ok(self.flush_time(dev, t, 2 * (hi - lo)))
        })?;
        Ok(BatchSolution {
            x,
            info: vec![0; batch],
            service_s: time.secs(),
        })
    }

    /// The factor-only body. Large-`n` operators are retained as SPIKE
    /// split factorizations, so their warm solves ride the split path
    /// instead of a monolithic triangular solve the device could not batch.
    fn run_gbtrf<S: PayloadScalar>(
        &self,
        shape: &ShapeKey,
        operators: &[&[f64]],
    ) -> Result<FactorOutcome, BackendError> {
        let l = layout_of(shape)?;
        if spike_worthy(shape) {
            if let Some(out) = self.factorize_spike::<S>(operators, &l)? {
                return Ok(out);
            }
        }
        let batch = operators.len();
        let mut factors: RetainedLanes = vec![None; batch];
        let mut info_out = vec![0i32; batch];
        let opts = self.options(shape);
        let time = self.group.run_split(batch, |dev, lo, hi| {
            let mut a = BandBatch::<S>::zeros_with_layout(l, hi - lo)
                .map_err(|e| BackendError::Fault(format!("band allocation failed: {e}")))?;
            let stride = a.matrix_stride();
            for (k, op) in operators[lo..hi].iter().enumerate() {
                narrow_into(&mut a.data_mut()[k * stride..(k + 1) * stride], op);
            }
            let mut piv = PivotBatch::new(hi - lo, l.m, l.n);
            let mut info = InfoArray::new(hi - lo);
            let rep = gbtrf_batch(dev, &mut a, &mut piv, &mut info, &opts)
                .map_err(BackendError::Launch)?;
            for k in 0..hi - lo {
                info_out[lo + k] = info.get(k);
                if info.get(k) == 0 {
                    factors[lo + k] =
                        Some(Arc::new(RetainedFactor::from_lane(&a, piv.pivots(k), k)));
                }
            }
            Ok(self.flush_time(dev, rep.time, rep.launches))
        })?;
        Ok(FactorOutcome {
            factors,
            info: info_out,
            service_s: time.secs(),
        })
    }

    /// Factor-ahead body for large-`n` operators: each lane is split,
    /// block-factored and retained as a [`gbatch_core::spike::SpikeFactor`]
    /// payload, priced as the split driver's factor-phase launches.
    /// `Ok(None)` when the split cannot be priced on some group member —
    /// the caller falls back to the monolithic path.
    fn factorize_spike<S: PayloadScalar>(
        &self,
        operators: &[&[f64]],
        l: &BandLayout,
    ) -> Result<Option<FactorOutcome>, BackendError> {
        let price =
            |dev: &DeviceSpec| predict_spike_time::<S>(dev, l, 0, &SpikeParams::auto(dev, l.kl));
        if !self.group.devices.iter().all(|dev| price(dev).is_some()) {
            return Ok(None);
        }
        let batch = operators.len();
        let mut factors: RetainedLanes = vec![None; batch];
        let mut info_out = vec![0i32; batch];
        let time = self.group.run_split(batch, |dev, lo, hi| {
            for (k, op) in operators[lo..hi].iter().enumerate() {
                // A singular block (or reduced system) falls back to the
                // monolithic host factorization for the honest info code.
                (factors[lo + k], info_out[lo + k]) = match spike_retain::<S>(dev, l, op) {
                    Some(f) => (Some(f), 0),
                    None => host_factor::<S>(l, op),
                };
            }
            let per = price(dev).expect("priceability checked above");
            let t = SimTime(per.secs() * (hi - lo) as f64);
            Ok(self.flush_time(dev, t, 3 * (hi - lo)))
        })?;
        Ok(Some(FactorOutcome {
            factors,
            info: info_out,
            service_s: time.secs(),
        }))
    }
}

impl SolveBackend for GpuBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Gpu
    }

    /// The group's lead device. Fleet workers wrap one-device groups, so
    /// this is *the* device; for multi-device groups (`mi250x_full` run
    /// as a single worker) the lead device is the pricing representative
    /// — members of a group are identical-spec in every shipped catalog
    /// composite.
    fn device(&self) -> Option<&DeviceSpec> {
        self.group.devices.first()
    }

    fn solve(
        &self,
        shape: &ShapeKey,
        reqs: &[SolveRequest],
    ) -> Result<BatchSolution, BackendError> {
        match shape.precision {
            Precision::F32 => self.run_gbsv::<f32>(shape, reqs, false),
            Precision::F64 => self.run_gbsv::<f64>(shape, reqs, false),
        }
        .map(|(sol, _)| sol)
    }

    fn solve_retaining(
        &self,
        shape: &ShapeKey,
        reqs: &[SolveRequest],
    ) -> Result<(BatchSolution, RetainedLanes), BackendError> {
        match shape.precision {
            Precision::F32 => self.run_gbsv::<f32>(shape, reqs, true),
            Precision::F64 => self.run_gbsv::<f64>(shape, reqs, true),
        }
    }

    /// The GBTRS-only fast path: gather each lane's retained factors and
    /// dispatch the batched triangular solve — no `gbtrf` launch at all.
    /// Priced under the backend's engine mode exactly like a full flush
    /// (megabatch coalescing, one-time spin-up on the first resident
    /// flush), so the serve layer sees honest warm-flush economics.
    fn solve_with(
        &self,
        shape: &ShapeKey,
        reqs: &[SolveRequest],
        factors: &[Arc<RetainedFactor>],
    ) -> Result<BatchSolution, BackendError> {
        match shape.precision {
            Precision::F32 => self.run_gbtrs::<f32>(shape, reqs, factors),
            Precision::F64 => self.run_gbtrs::<f64>(shape, reqs, factors),
        }
    }

    /// Factor-only dispatch for the explicit `Factorize` entry point.
    fn factorize(
        &self,
        shape: &ShapeKey,
        operators: &[&[f64]],
    ) -> Result<FactorOutcome, BackendError> {
        match shape.precision {
            Precision::F32 => self.run_gbtrf::<f32>(shape, operators),
            Precision::F64 => self.run_gbtrf::<f64>(shape, operators),
        }
    }
}

/// Multicore CPU spill-over backend.
pub struct CpuBackend {
    cpu: CpuSpec,
}

impl CpuBackend {
    /// Backend over one CPU descriptor.
    #[must_use]
    pub fn new(cpu: CpuSpec) -> Self {
        CpuBackend { cpu }
    }

    /// The CPU descriptor this backend models.
    #[must_use]
    pub fn spec(&self) -> &CpuSpec {
        &self.cpu
    }

    /// The spill body ([`cpu_gbsv_batch`] at the flush precision).
    /// `retain` harvests healthy lanes' factors without touching the
    /// modeled time.
    fn run_gbsv<S: PayloadScalar>(
        &self,
        shape: &ShapeKey,
        reqs: &[SolveRequest],
        retain: bool,
    ) -> Result<(BatchSolution, RetainedLanes), BackendError> {
        let (mut a, mut piv, mut rhs, mut info) = assemble::<S>(shape, reqs)?;
        let rep = cpu_gbsv_batch(&self.cpu, &mut a, &mut piv, &mut rhs, &mut info);
        let mut lanes: RetainedLanes = vec![None; reqs.len()];
        if retain {
            for k in (0..reqs.len()).filter(|&k| info.get(k) == 0) {
                lanes[k] = Some(Arc::new(RetainedFactor::from_lane(&a, piv.pivots(k), k)));
            }
        }
        let x = reqs
            .iter()
            .enumerate()
            .map(|(k, r)| answer(r, info.get(k), rhs.block(k)))
            .collect();
        Ok((
            BatchSolution {
                x,
                info: info.as_slice().to_vec(),
                service_s: rep.model_time_s,
            },
            lanes,
        ))
    }

    /// GBTRS-only spill body: each lane is one sequential `gbtrs` over its
    /// retained factors (or the split warm path for a SPIKE factorization),
    /// priced with triangular-solve flops and bytes only.
    fn run_gbtrs<S: PayloadScalar>(
        &self,
        shape: &ShapeKey,
        reqs: &[SolveRequest],
        factors: &[Arc<RetainedFactor>],
    ) -> Result<BatchSolution, BackendError> {
        let l = check_factors(shape, reqs, factors)?;
        let nrhs = shape.nrhs;
        let x = reqs
            .iter()
            .zip(factors)
            .map(|(r, f)| {
                let mut b = narrow::<S>(&r.rhs);
                if let Some(sf) = f.spike::<S>() {
                    spike_solve_retained(sf, &mut b, nrhs);
                } else {
                    let ab = f.factors::<S>().expect("checked above");
                    gbatch_core::gbtrs::gbtrs(Transpose::No, &l, ab, &f.pivots, &mut b, l.n, nrhs);
                }
                widen(&b)
            })
            .collect();
        let flops = gbtrs_flops(&l, nrhs);
        let bytes = bytes_at::<S>(gbtrs_bytes(&l, nrhs));
        Ok(BatchSolution {
            x,
            info: vec![0; reqs.len()],
            service_s: self.cpu.batch_time(reqs.len(), flops, bytes),
        })
    }

    /// Factor-only spill body: sequential `gbtrf` per operator, priced
    /// with factorization flops and bytes only.
    fn run_gbtrf<S: PayloadScalar>(
        &self,
        shape: &ShapeKey,
        operators: &[&[f64]],
    ) -> Result<FactorOutcome, BackendError> {
        let l = layout_of(shape)?;
        let (factors, info): (RetainedLanes, Vec<i32>) =
            operators.iter().map(|op| host_factor::<S>(&l, op)).unzip();
        let flops = gbtrf_flops(&l);
        let bytes = bytes_at::<S>(gbtrf_bytes(&l));
        Ok(FactorOutcome {
            factors,
            info,
            service_s: self.cpu.batch_time(operators.len(), flops, bytes),
        })
    }
}

impl SolveBackend for CpuBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Cpu
    }

    fn solve(
        &self,
        shape: &ShapeKey,
        reqs: &[SolveRequest],
    ) -> Result<BatchSolution, BackendError> {
        match shape.precision {
            Precision::F32 => self.run_gbsv::<f32>(shape, reqs, false),
            Precision::F64 => self.run_gbsv::<f64>(shape, reqs, false),
        }
        .map(|(sol, _)| sol)
    }

    fn solve_retaining(
        &self,
        shape: &ShapeKey,
        reqs: &[SolveRequest],
    ) -> Result<(BatchSolution, RetainedLanes), BackendError> {
        match shape.precision {
            Precision::F32 => self.run_gbsv::<f32>(shape, reqs, true),
            Precision::F64 => self.run_gbsv::<f64>(shape, reqs, true),
        }
    }

    fn solve_with(
        &self,
        shape: &ShapeKey,
        reqs: &[SolveRequest],
        factors: &[Arc<RetainedFactor>],
    ) -> Result<BatchSolution, BackendError> {
        match shape.precision {
            Precision::F32 => self.run_gbtrs::<f32>(shape, reqs, factors),
            Precision::F64 => self.run_gbtrs::<f64>(shape, reqs, factors),
        }
    }

    fn factorize(
        &self,
        shape: &ShapeKey,
        operators: &[&[f64]],
    ) -> Result<FactorOutcome, BackendError> {
        match shape.precision {
            Precision::F32 => self.run_gbtrf::<f32>(shape, operators),
            Precision::F64 => self.run_gbtrf::<f64>(shape, operators),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbatch_core::gbtf2::gbtf2;
    use gbatch_core::FactorPayload;

    fn healthy_request(id: u64, shape: ShapeKey, seed: f64) -> SolveRequest {
        let l = shape.layout().unwrap();
        let mut ab = vec![0.0; shape.ab_len()];
        {
            let mut m = gbatch_core::BandMatrixMut {
                layout: l,
                data: &mut ab,
            };
            for j in 0..l.n {
                let (s, e) = l.col_rows(j);
                for i in s..e {
                    m.set(i, j, ((i * 7 + j * 3) % 5) as f64 * 0.1 + seed);
                }
                let sum: f64 = (s..e).filter(|&i| i != j).map(|i| m.get(i, j).abs()).sum();
                m.set(j, j, sum + 1.0);
            }
        }
        SolveRequest {
            id,
            shape,
            ab,
            rhs: vec![1.0; shape.rhs_len()],
            submitted_s: 0.0,
            deadline_s: 1.0,
        }
    }

    #[test]
    fn gpu_and_cpu_backends_agree_on_residuals() {
        let shape = ShapeKey::gbsv(40, 3, 2, 1);
        let l = shape.layout().unwrap();
        let reqs: Vec<_> = (0..12)
            .map(|i| healthy_request(i, shape, 0.01 * i as f64))
            .collect();
        let gpu = GpuBackend::new(DeviceGroup::mi250x_full(), ParallelPolicy::Serial);
        let cpu = CpuBackend::new(CpuSpec::xeon_gold_6140());
        let gs = gpu.solve(&shape, &reqs).unwrap();
        let cs = cpu.solve(&shape, &reqs).unwrap();
        assert_eq!(gs.info, vec![0; 12]);
        assert_eq!(cs.info, vec![0; 12]);
        assert!(gs.service_s > 0.0 && cs.service_s > 0.0);
        for (k, r) in reqs.iter().enumerate() {
            for x in [&gs.x[k], &cs.x[k]] {
                // ‖Ax − b‖∞ small for both backends.
                let m = gbatch_core::BandMatrixRef {
                    layout: l,
                    data: &r.ab,
                };
                let mut worst: f64 = 0.0;
                for i in 0..l.n {
                    let lo = i.saturating_sub(l.kl);
                    let hi = (i + l.ku + 1).min(l.n);
                    let ax: f64 = x[lo..hi]
                        .iter()
                        .enumerate()
                        .map(|(k, xj)| m.get(i, lo + k) * xj)
                        .sum();
                    worst = worst.max((ax - r.rhs[i]).abs());
                }
                assert!(worst < 1e-10, "lane {k}: residual {worst:e}");
            }
        }
    }

    #[test]
    fn singular_lane_returns_rhs_untouched_on_both_backends() {
        let shape = ShapeKey::gbsv(24, 2, 2, 1);
        let l = shape.layout().unwrap();
        let mut reqs: Vec<_> = (0..6)
            .map(|i| healthy_request(i, shape, 0.02 * i as f64))
            .collect();
        // Poison lane 4: zero its first column.
        {
            let req = &mut reqs[4];
            let mut m = gbatch_core::BandMatrixMut {
                layout: l,
                data: &mut req.ab,
            };
            let (s, e) = l.col_rows(0);
            for i in s..e {
                m.set(i, 0, 0.0);
            }
            let mut ab = req.ab.clone();
            let mut piv = vec![0i32; l.n];
            assert_eq!(gbtf2(&l, &mut ab, &mut piv), 1);
        }
        let gpu = GpuBackend::new(DeviceGroup::mi250x_full(), ParallelPolicy::Serial);
        let cpu = CpuBackend::new(CpuSpec::xeon_gold_6140());
        for backend in [&gpu as &dyn SolveBackend, &cpu as &dyn SolveBackend] {
            let sol = backend.solve(&shape, &reqs).unwrap();
            assert_eq!(sol.info[4], 1, "{} backend info", backend.kind());
            assert_eq!(sol.x[4], reqs[4].rhs, "{} backend rhs", backend.kind());
            for k in [0, 1, 2, 3, 5] {
                assert_eq!(sol.info[k], 0);
                assert_ne!(sol.x[k], reqs[k].rhs, "healthy lane {k} solved");
            }
        }
    }

    #[test]
    fn f32_tagged_shapes_run_the_single_precision_stack() {
        let shape = ShapeKey::sgbsv(48, 3, 3, 1);
        let l = shape.layout().unwrap();
        let reqs: Vec<_> = (0..10)
            .map(|i| healthy_request(i, shape, 0.01 * i as f64))
            .collect();
        let gpu = GpuBackend::new(DeviceGroup::mi250x_full(), ParallelPolicy::Serial);
        let cpu = CpuBackend::new(CpuSpec::xeon_gold_6140());
        for backend in [&gpu as &dyn SolveBackend, &cpu as &dyn SolveBackend] {
            let sol = backend.solve(&shape, &reqs).unwrap();
            assert_eq!(sol.info, vec![0; 10], "{} backend", backend.kind());
            for (k, r) in reqs.iter().enumerate() {
                // Every solution coordinate is an exactly-widened f32 —
                // proof the lane ran the single-precision stack.
                for &v in &sol.x[k] {
                    assert_eq!(v, v as f32 as f64, "{} lane {k}", backend.kind());
                }
                // Residual at f32 accuracy against the f64 wire payload.
                let m = gbatch_core::BandMatrixRef {
                    layout: l,
                    data: &r.ab,
                };
                let mut worst: f64 = 0.0;
                for i in 0..l.n {
                    let lo = i.saturating_sub(l.kl);
                    let hi = (i + l.ku + 1).min(l.n);
                    let ax: f64 = sol.x[k][lo..hi]
                        .iter()
                        .enumerate()
                        .map(|(j, xj)| m.get(i, lo + j) * xj)
                        .sum();
                    worst = worst.max((ax - r.rhs[i]).abs());
                }
                assert!(
                    worst < 1e-3,
                    "{} lane {k}: f32 residual {worst:e}",
                    backend.kind()
                );
            }
        }
    }

    #[test]
    fn f32_singular_lane_returns_the_original_f64_rhs() {
        let shape = ShapeKey::sgbsv(24, 2, 2, 1);
        let l = shape.layout().unwrap();
        let mut reqs: Vec<_> = (0..5)
            .map(|i| healthy_request(i, shape, 0.02 * i as f64))
            .collect();
        {
            let req = &mut reqs[2];
            let mut m = gbatch_core::BandMatrixMut {
                layout: l,
                data: &mut req.ab,
            };
            let (s, e) = l.col_rows(0);
            for i in s..e {
                m.set(i, 0, 0.0);
            }
        }
        let gpu = GpuBackend::new(DeviceGroup::mi250x_full(), ParallelPolicy::Serial);
        let cpu = CpuBackend::new(CpuSpec::xeon_gold_6140());
        for backend in [&gpu as &dyn SolveBackend, &cpu as &dyn SolveBackend] {
            let sol = backend.solve(&shape, &reqs).unwrap();
            assert_eq!(sol.info[2], 1, "{} backend", backend.kind());
            // Bitwise the original f64 payload, not an f32 round-trip.
            assert_eq!(sol.x[2], reqs[2].rhs, "{} backend", backend.kind());
        }
    }

    #[test]
    fn large_n_factorize_retains_spike_payloads_and_warm_solves_match() {
        let shape = ShapeKey::gbsv(4096, 2, 2, 1);
        let l = shape.layout().unwrap();
        let gpu = GpuBackend::new(DeviceGroup::mi250x_full(), ParallelPolicy::Serial);
        let r = healthy_request(0, shape, 0.01);
        let out = gpu.factorize(&shape, &[&r.ab]).unwrap();
        assert_eq!(out.info, vec![0]);
        assert!(out.service_s > 0.0);
        let f = out.factors[0].clone().expect("healthy operator retained");
        assert!(
            f.spike::<f64>().is_some(),
            "large-n operator retained as a SPIKE split factorization"
        );
        let sol = gpu
            .solve_with(&shape, std::slice::from_ref(&r), std::slice::from_ref(&f))
            .unwrap();
        assert_eq!(sol.info, vec![0]);
        let m = gbatch_core::BandMatrixRef {
            layout: l,
            data: &r.ab,
        };
        let mut worst: f64 = 0.0;
        for i in 0..l.n {
            let lo = i.saturating_sub(l.kl);
            let hi = (i + l.ku + 1).min(l.n);
            let ax: f64 = sol.x[0][lo..hi]
                .iter()
                .enumerate()
                .map(|(j, xj)| m.get(i, lo + j) * xj)
                .sum();
            worst = worst.max((ax - r.rhs[i]).abs());
        }
        assert!(worst < 1e-9, "warm SPIKE residual {worst:e}");
        // The spilled warm path runs the identical host math: bitwise.
        let cpu = CpuBackend::new(CpuSpec::xeon_gold_6140());
        let cs = cpu
            .solve_with(&shape, std::slice::from_ref(&r), std::slice::from_ref(&f))
            .unwrap();
        assert_eq!(cs.x, sol.x, "GPU and CPU warm SPIKE paths agree bitwise");
        // A mixed monolithic/SPIKE warm batch fails closed on the GPU.
        let mono = {
            let mut ab = r.ab.clone();
            let mut ipiv = vec![0i32; l.n];
            assert_eq!(gbatch_core::gbtrf::gbtrf::<f64>(&l, &mut ab, &mut ipiv), 0);
            Arc::new(RetainedFactor {
                layout: l,
                payload: FactorPayload::F64(ab),
                pivots: ipiv,
            })
        };
        assert!(gpu
            .solve_with(&shape, &[r.clone(), r.clone()], &[f, mono])
            .is_err());
    }

    #[test]
    fn gpu_backend_is_deterministic_across_parallel_policies() {
        let shape = ShapeKey::gbsv(80, 4, 4, 1);
        let reqs: Vec<_> = (0..20)
            .map(|i| healthy_request(i, shape, 0.005 * i as f64))
            .collect();
        let base = GpuBackend::new(DeviceGroup::mi250x_full(), ParallelPolicy::Serial)
            .solve(&shape, &reqs)
            .unwrap();
        for workers in [2, 8] {
            let alt = GpuBackend::new(DeviceGroup::mi250x_full(), ParallelPolicy::threads(workers))
                .solve(&shape, &reqs)
                .unwrap();
            assert_eq!(alt.x, base.x, "{workers}-worker solutions differ");
            assert_eq!(alt.info, base.info);
            assert_eq!(alt.service_s, base.service_s);
        }
    }

    #[test]
    fn resident_backend_matches_per_launch_bitwise_and_prices_spinup_once() {
        let shape = ShapeKey::gbsv(16, 2, 2, 1);
        let reqs: Vec<_> = (0..64)
            .map(|i| healthy_request(i, shape, 0.003 * i as f64))
            .collect();
        let cold = GpuBackend::new(DeviceGroup::mi250x_full(), ParallelPolicy::threads(4));
        let warm = GpuBackend::new(DeviceGroup::mi250x_full(), ParallelPolicy::threads(4))
            .with_engine(EngineMode::Resident);
        assert_eq!(warm.engine(), EngineMode::Resident);
        let base = cold.solve(&shape, &reqs).unwrap();
        let first = warm.solve(&shape, &reqs).unwrap();
        let steady = warm.solve(&shape, &reqs).unwrap();
        // Engine mode is a pure timing dimension: payloads are bitwise
        // identical across modes and across warm flushes.
        assert_eq!(first.x, base.x);
        assert_eq!(first.info, base.info);
        assert_eq!(steady.x, base.x);
        // The first resident flush carries the one-time pool spin-up; the
        // spin-up never recurs, and the steady state beats per-launch
        // because every launch pays the warm overhead instead of the cold.
        assert!(
            first.service_s > steady.service_s,
            "first flush {} should carry spin-up over steady {}",
            first.service_s,
            steady.service_s
        );
        assert!(
            steady.service_s < base.service_s,
            "resident steady state {} should beat per-launch {}",
            steady.service_s,
            base.service_s
        );
        // Two flushes over two device partitions = four coalesced groups.
        let stats = warm.megabatch_stats();
        assert_eq!(stats.groups(), 4);
        assert!(stats.launches() >= stats.groups());
        // Per-launch mode never touches the megabatch queue.
        assert_eq!(cold.megabatch_stats().groups(), 0);
    }
}
