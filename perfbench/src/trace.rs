//! Host-clock spans recorded from outside the library: around the
//! benchmark's own calls into each layer, and around every backend call
//! the server makes, through [`TracedBackend`].
//!
//! Spans stay in memory while the benchmark runs; [`Tracer::write_csv`]
//! writes them out when it ends.

use std::cell::RefCell;
use std::io::Write as _;
use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use gbatch_core::{RetainedFactor, ShapeKey};
use gbatch_gpu_sim::DeviceSpec;
use gbatch_serve::{
    BackendError, BackendKind, BatchSolution, FactorOutcome, RetainedLanes, SolveBackend,
    SolveRequest,
};

/// One closed host-clock interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, e.g. `"serve.submit"` or `"backend.solve_with"`.
    pub name: &'static str,
    /// Fleet worker index for backend spans (`cpu` is the last index).
    pub worker: Option<usize>,
    /// Request id for submit spans.
    pub request: Option<u64>,
    /// Systems the call covered (a backend call's batch size).
    pub lanes: usize,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span store. The most recently opened top-level span is the
/// parent of every backend span opened before it closes.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Option<usize>,
}

/// A tracer shared between the benchmark loop and the backend wrappers
/// (the server is single-threaded, so no lock is needed).
pub type SharedTracer = Rc<RefCell<Tracer>>;

impl Tracer {
    pub fn shared() -> SharedTracer {
        Rc::new(RefCell::new(Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: None,
        }))
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; top-level spans (no worker) become the parent of the
    /// backend spans opened while they are open.
    pub fn begin(
        &mut self,
        name: &'static str,
        worker: Option<usize>,
        request: Option<u64>,
        lanes: usize,
    ) -> usize {
        let idx = self.spans.len();
        let parent = if worker.is_some() { self.open } else { None };
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            worker,
            request,
            lanes,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        if worker.is_none() {
            self.open = Some(idx);
        }
        idx
    }

    pub fn end(&mut self, idx: usize) {
        let t = self.now_ns();
        self.spans[idx].end_ns = t;
        if self.open == Some(idx) {
            self.open = None;
        }
    }

    /// Write every span as one CSV row.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "index,name,worker,request,lanes,parent,start_ns,end_ns"
        )?;
        let opt = |v: Option<u64>| v.map_or(String::new(), |v| v.to_string());
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{i},{},{},{},{},{},{},{}",
                s.name,
                opt(s.worker.map(|w| w as u64)),
                opt(s.request),
                s.lanes,
                opt(s.parent.map(|p| p as u64)),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// A [`SolveBackend`] decorator that records a host span around each call
/// and forwards all six trait methods unchanged — `device()` included, so
/// the router prices the fleet exactly as without it.
pub struct TracedBackend {
    inner: Box<dyn SolveBackend>,
    worker: usize,
    tracer: SharedTracer,
}

impl TracedBackend {
    pub fn wrap(
        inner: Box<dyn SolveBackend>,
        worker: usize,
        tracer: &SharedTracer,
    ) -> Box<dyn SolveBackend> {
        Box::new(TracedBackend {
            inner,
            worker,
            tracer: Rc::clone(tracer),
        })
    }

    fn timed<T>(&self, name: &'static str, lanes: usize, call: impl FnOnce() -> T) -> T {
        let idx = self
            .tracer
            .borrow_mut()
            .begin(name, Some(self.worker), None, lanes);
        let out = call();
        self.tracer.borrow_mut().end(idx);
        out
    }
}

impl SolveBackend for TracedBackend {
    fn kind(&self) -> BackendKind {
        self.inner.kind()
    }

    fn solve(
        &self,
        shape: &ShapeKey,
        reqs: &[SolveRequest],
    ) -> Result<BatchSolution, BackendError> {
        self.timed("backend.solve", reqs.len(), || {
            self.inner.solve(shape, reqs)
        })
    }

    fn solve_retaining(
        &self,
        shape: &ShapeKey,
        reqs: &[SolveRequest],
    ) -> Result<(BatchSolution, RetainedLanes), BackendError> {
        self.timed("backend.solve_retaining", reqs.len(), || {
            self.inner.solve_retaining(shape, reqs)
        })
    }

    fn solve_with(
        &self,
        shape: &ShapeKey,
        reqs: &[SolveRequest],
        factors: &[Arc<RetainedFactor>],
    ) -> Result<BatchSolution, BackendError> {
        self.timed("backend.solve_with", reqs.len(), || {
            self.inner.solve_with(shape, reqs, factors)
        })
    }

    fn factorize(
        &self,
        shape: &ShapeKey,
        operators: &[&[f64]],
    ) -> Result<FactorOutcome, BackendError> {
        self.timed("backend.factorize", operators.len(), || {
            self.inner.factorize(shape, operators)
        })
    }

    fn device(&self) -> Option<&DeviceSpec> {
        self.inner.device()
    }
}
