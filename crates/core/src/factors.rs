//! Retained factorizations: the container a serving-layer factor cache
//! stores per operator.
//!
//! One [`RetainedFactor`] holds a single lane's `gbtrf` output — the
//! factored band storage (with fill-in rows) at the precision the lane
//! ran at, plus its 0-based pivot sequence. Retention is lossless: the
//! payload is the exact factored band, so a later `gbtrs` over it is
//! bitwise-identical to the solve that would have followed a fresh
//! factorization.

use crate::batch::BandBatch;
use crate::layout::BandLayout;
use crate::scalar::{Precision, Scalar};
use crate::spike::SpikeFactor;

/// Factored band payload at the precision the factorization ran at.
#[derive(Debug, Clone, PartialEq)]
pub enum FactorPayload {
    /// Double-precision factors.
    F64(Vec<f64>),
    /// Single-precision factors (F32-tagged serve traffic).
    F32(Vec<f32>),
    /// Double-precision SPIKE factorization (large-`n` split operators):
    /// `P` block LUs + spikes + the factored reduced system.
    SpikeF64(Box<SpikeFactor<f64>>),
    /// Single-precision SPIKE factorization.
    SpikeF32(Box<SpikeFactor<f32>>),
}

/// One lane's retained LU factorization: factored band + pivots.
#[derive(Debug, Clone, PartialEq)]
pub struct RetainedFactor {
    /// Band layout of the factored storage (factor flavour, with
    /// fill-in rows).
    pub layout: BandLayout,
    /// The factored band payload.
    pub payload: FactorPayload,
    /// 0-based pivot indices, one per eliminated column.
    pub pivots: Vec<i32>,
}

/// Maps a precision onto its [`FactorPayload`] variants, so retention and
/// replay are written once for both. Implemented for exactly `f32` and
/// `f64` (sealed through its [`Scalar`] supertrait).
pub trait PayloadScalar: Scalar {
    /// Wrap monolithic band factors.
    fn band_payload(ab: Vec<Self>) -> FactorPayload;
    /// Wrap a SPIKE factorization.
    fn spike_payload(f: SpikeFactor<Self>) -> FactorPayload;
    /// The monolithic band factors, when `p` holds them at this precision.
    fn band_of(p: &FactorPayload) -> Option<&[Self]>;
    /// The SPIKE factorization, when `p` holds one at this precision.
    fn spike_of(p: &FactorPayload) -> Option<&SpikeFactor<Self>>;
}

macro_rules! payload_scalar {
    ($s:ty, $band:ident, $spike:ident) => {
        impl PayloadScalar for $s {
            fn band_payload(ab: Vec<Self>) -> FactorPayload {
                FactorPayload::$band(ab)
            }
            fn spike_payload(f: SpikeFactor<Self>) -> FactorPayload {
                FactorPayload::$spike(Box::new(f))
            }
            fn band_of(p: &FactorPayload) -> Option<&[Self]> {
                match p {
                    FactorPayload::$band(v) => Some(v),
                    _ => None,
                }
            }
            fn spike_of(p: &FactorPayload) -> Option<&SpikeFactor<Self>> {
                match p {
                    FactorPayload::$spike(f) => Some(f),
                    _ => None,
                }
            }
        }
    };
}
payload_scalar!(f64, F64, SpikeF64);
payload_scalar!(f32, F32, SpikeF32);

impl RetainedFactor {
    /// Harvest one lane out of a factored batch.
    #[must_use]
    pub fn from_lane<S: PayloadScalar>(a: &BandBatch<S>, piv: &[i32], lane: usize) -> Self {
        let stride = a.matrix_stride();
        RetainedFactor {
            layout: a.layout(),
            payload: S::band_payload(a.data()[lane * stride..(lane + 1) * stride].to_vec()),
            pivots: piv.to_vec(),
        }
    }

    /// Precision of the retained payload.
    #[must_use]
    pub fn precision(&self) -> Precision {
        match self.payload {
            FactorPayload::F64(_) | FactorPayload::SpikeF64(_) => Precision::F64,
            FactorPayload::F32(_) | FactorPayload::SpikeF32(_) => Precision::F32,
        }
    }

    /// The monolithic band factors at precision `S` (`None` for SPIKE
    /// payloads — those solve through
    /// [`crate::spike::spike_solve_retained`] — or another precision).
    #[must_use]
    pub fn factors<S: PayloadScalar>(&self) -> Option<&[S]> {
        S::band_of(&self.payload)
    }

    /// The retained SPIKE factorization at precision `S`, when the
    /// operator was split.
    #[must_use]
    pub fn spike<S: PayloadScalar>(&self) -> Option<&SpikeFactor<S>> {
        S::spike_of(&self.payload)
    }

    /// Whether the operator was retained as a SPIKE split factorization
    /// (at either precision).
    #[must_use]
    pub fn is_spike(&self) -> bool {
        matches!(
            self.payload,
            FactorPayload::SpikeF64(_) | FactorPayload::SpikeF32(_)
        )
    }

    /// Retained footprint in bytes (payload + pivots) — what a cache's
    /// byte budget accounts against.
    #[must_use]
    pub fn bytes(&self) -> usize {
        let payload = match &self.payload {
            FactorPayload::F64(v) => v.len() * std::mem::size_of::<f64>(),
            FactorPayload::F32(v) => v.len() * std::mem::size_of::<f32>(),
            FactorPayload::SpikeF64(f) => f.bytes(),
            FactorPayload::SpikeF32(f) => f.bytes(),
        };
        payload + self.pivots.len() * std::mem::size_of::<i32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gbtf2::gbtf2;

    #[test]
    fn harvested_lane_round_trips_bitwise() {
        let batch = 3;
        let (n, kl, ku) = (8, 1, 2);
        let mut a = BandBatch::<f64>::from_fn(batch, n, n, kl, ku, |id, m| {
            for j in 0..n {
                let (s, e) = m.layout.col_rows(j);
                for i in s..e {
                    m.set(i, j, ((i + 2 * j + id) % 4) as f64 * 0.25 + 0.1);
                }
                m.set(j, j, 3.0);
            }
        })
        .unwrap();
        let l = a.layout();
        let stride = a.matrix_stride();
        let mut pivots = vec![vec![0i32; n]; batch];
        for k in 0..batch {
            let ab = &mut a.data_mut()[k * stride..(k + 1) * stride];
            assert_eq!(gbtf2(&l, ab, &mut pivots[k]), 0);
        }
        let lane = 1;
        let retained = RetainedFactor::from_lane(&a, &pivots[lane], lane);
        assert_eq!(retained.precision(), Precision::F64);
        assert_eq!(
            retained.factors::<f64>().unwrap(),
            &a.data()[lane * stride..(lane + 1) * stride]
        );
        assert_eq!(retained.pivots, pivots[lane]);
        assert!(retained.factors::<f32>().is_none());
        assert!(retained.spike::<f64>().is_none() && !retained.is_spike());
        assert_eq!(
            retained.bytes(),
            stride * std::mem::size_of::<f64>() + n * std::mem::size_of::<i32>()
        );
    }

    #[test]
    fn f32_payload_reports_half_width() {
        let l = BandLayout::factor(4, 4, 1, 1).unwrap();
        let f64_side = RetainedFactor {
            layout: l,
            payload: FactorPayload::F64(vec![0.0; l.len()]),
            pivots: vec![0; 4],
        };
        let f32_side = RetainedFactor {
            layout: l,
            payload: FactorPayload::F32(vec![0.0; l.len()]),
            pivots: vec![0; 4],
        };
        assert_eq!(f32_side.precision(), Precision::F32);
        assert!(f32_side.factors::<f32>().is_some());
        assert!(f32_side.factors::<f64>().is_none());
        assert_eq!(
            f64_side.bytes() - f32_side.bytes(),
            l.len() * std::mem::size_of::<f32>()
        );
    }
}
