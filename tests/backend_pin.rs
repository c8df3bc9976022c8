//! Backend entry-point pin: every `SolveBackend` method of the two
//! shipped backends, at both precisions, folded into one FNV-1a digest.
//!
//! The grid is `GpuBackend(mi250x_full)` and `CpuBackend(xeon_gold_6140)`
//! × {f32, f64} over one monolithic shape (n = 48, one singular lane) and,
//! on the GPU, one SPIKE-regime shape (n = 4096). Per cell the test runs
//! `solve`, `solve_retaining`, `solve_with` over the retained lanes, and
//! `factorize` followed by `solve_with`; the SPIKE factors are also
//! replayed through the CPU's warm path. Solution bits, `info` codes,
//! retained-lane presence and `service_s` bits all participate, so any
//! change to what a backend computes or charges moves the digest.
//!
//! Independently of the digest, every warm answer must equal the cold
//! answer bitwise: retained factors replay the cold flush exactly.

use std::sync::Arc;

use gbatch::cpu::CpuSpec;
use gbatch::gpu_sim::multi::DeviceGroup;
use gbatch::gpu_sim::ParallelPolicy;
use gbatch::serve::{
    BatchSolution, CpuBackend, GpuBackend, RetainedLanes, SolveBackend, SolveRequest,
};
use gbatch_core::{BandMatrixMut, FactorPayload, RetainedFactor, ShapeKey};

/// Digest of the whole grid, captured before the backends' per-precision
/// bodies were collapsed into one generic body per entry point.
const BACKEND_DIGEST: u64 = 0x2588086654b4a5e6;

const SINGULAR_LANE: usize = 3;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100000001b3);
    }
}

fn eat_solution(h: &mut u64, sol: &BatchSolution) {
    for x in &sol.x {
        fnv(h, &(x.len() as u64).to_le_bytes());
        for v in x {
            fnv(h, &v.to_bits().to_le_bytes());
        }
    }
    for code in &sol.info {
        fnv(h, &code.to_le_bytes());
    }
    fnv(h, &sol.service_s.to_bits().to_le_bytes());
}

fn eat_lanes(h: &mut u64, lanes: &RetainedLanes) {
    for lane in lanes {
        fnv(h, &[lane.is_some() as u8]);
        if let Some(f) = lane {
            fnv(h, &(f.bytes() as u64).to_le_bytes());
            for p in &f.pivots {
                fnv(h, &p.to_le_bytes());
            }
        }
    }
}

/// Diagonally-dominant request keyed by `seed`; `singular` zeroes the
/// first column so the lane fails at column 1.
fn request(id: u64, shape: ShapeKey, seed: f64, singular: bool) -> SolveRequest {
    let l = shape.layout().unwrap();
    let mut ab = vec![0.0; shape.ab_len()];
    let mut m = BandMatrixMut {
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
    if singular {
        let (s, e) = l.col_rows(0);
        for i in s..e {
            m.set(i, 0, 0.0);
        }
    }
    let rhs = (0..shape.rhs_len())
        .map(|i| ((i as f64 + seed * 100.0) * 0.37).sin())
        .collect();
    SolveRequest {
        id,
        shape,
        ab,
        rhs,
        submitted_s: 0.0,
        deadline_s: 1.0,
    }
}

/// The healthy requests of `reqs` paired with their retained factors.
fn healthy(
    reqs: &[SolveRequest],
    lanes: &RetainedLanes,
) -> (Vec<SolveRequest>, Vec<Arc<RetainedFactor>>, Vec<usize>) {
    let mut rs = Vec::new();
    let mut fs = Vec::new();
    let mut idx = Vec::new();
    for (k, (r, f)) in reqs.iter().zip(lanes).enumerate() {
        if let Some(f) = f {
            rs.push(r.clone());
            fs.push(f.clone());
            idx.push(k);
        }
    }
    (rs, fs, idx)
}

/// Run every entry point of `backend` on `reqs`, fold the results into
/// `h`, and check every warm answer against the cold one bitwise.
fn drive(h: &mut u64, backend: &dyn SolveBackend, shape: &ShapeKey, reqs: &[SolveRequest]) {
    let cold = backend.solve(shape, reqs).unwrap();
    eat_solution(h, &cold);

    let (retaining, lanes) = backend.solve_retaining(shape, reqs).unwrap();
    assert_eq!(
        retaining.x,
        cold.x,
        "{} {shape}: retaining x",
        backend.kind()
    );
    assert_eq!(retaining.info, cold.info);
    eat_solution(h, &retaining);
    eat_lanes(h, &lanes);

    let (warm_reqs, warm_factors, idx) = healthy(reqs, &lanes);
    let warm = backend
        .solve_with(shape, &warm_reqs, &warm_factors)
        .unwrap();
    for (w, &k) in idx.iter().enumerate() {
        assert_eq!(
            warm.x[w],
            cold.x[k],
            "{} {shape}: warm lane {k}",
            backend.kind()
        );
    }
    eat_solution(h, &warm);

    let ops: Vec<&[f64]> = reqs.iter().map(|r| &r.ab[..]).collect();
    let out = backend.factorize(shape, &ops).unwrap();
    assert_eq!(
        out.info,
        cold.info,
        "{} {shape}: factorize info",
        backend.kind()
    );
    for code in &out.info {
        fnv(h, &code.to_le_bytes());
    }
    fnv(h, &out.service_s.to_bits().to_le_bytes());
    eat_lanes(h, &out.factors);

    let (ahead_reqs, ahead_factors, idx) = healthy(reqs, &out.factors);
    let ahead = backend
        .solve_with(shape, &ahead_reqs, &ahead_factors)
        .unwrap();
    for (w, &k) in idx.iter().enumerate() {
        assert_eq!(
            ahead.x[w],
            cold.x[k],
            "{} {shape}: factor-ahead lane {k}",
            backend.kind()
        );
    }
    eat_solution(h, &ahead);
}

#[test]
fn every_backend_entry_point_is_pinned_at_both_precisions() {
    let gpu = GpuBackend::new(DeviceGroup::mi250x_full(), ParallelPolicy::Serial);
    let cpu = CpuBackend::new(CpuSpec::xeon_gold_6140());
    let mut h = 0xcbf29ce484222325u64;
    for mono in [ShapeKey::sgbsv(48, 3, 2, 1), ShapeKey::gbsv(48, 3, 2, 1)] {
        let reqs: Vec<_> = (0..6)
            .map(|i| request(i, mono, 0.01 * i as f64, i as usize == SINGULAR_LANE))
            .collect();
        for backend in [&gpu as &dyn SolveBackend, &cpu as &dyn SolveBackend] {
            drive(&mut h, backend, &mono, &reqs);
        }
    }
    for spike in [
        ShapeKey::sgbsv(4096, 2, 2, 1),
        ShapeKey::gbsv(4096, 2, 2, 1),
    ] {
        let reqs: Vec<_> = (0..2)
            .map(|i| request(i, spike, 0.02 * i as f64, false))
            .collect();
        drive(&mut h, &gpu, &spike, &reqs);
        // The CPU's warm path over the GPU's retained split factors.
        let (_, lanes) = gpu.solve_retaining(&spike, &reqs).unwrap();
        for lane in &lanes {
            let payload = &lane.as_ref().expect("healthy lane retained").payload;
            assert!(
                matches!(
                    payload,
                    FactorPayload::SpikeF32(_) | FactorPayload::SpikeF64(_)
                ),
                "{spike}: large-n lane retained as a SPIKE factorization"
            );
        }
        let (warm_reqs, warm_factors, _) = healthy(&reqs, &lanes);
        let cold = gpu.solve(&spike, &reqs).unwrap();
        let spilled = cpu.solve_with(&spike, &warm_reqs, &warm_factors).unwrap();
        assert_eq!(spilled.x, cold.x, "{spike}: CPU warm SPIKE x");
        eat_solution(&mut h, &spilled);
    }
    assert_eq!(h, BACKEND_DIGEST, "backend digest moved: {h:#018x}");
}
