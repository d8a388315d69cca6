//! Tier runners: each paper tier (GMP, OpenFHE-style, scalar, and every
//! vector backend the running machine offers) as a timed closure over
//! the same workload.
//!
//! Vector tiers are enumerated through the facade's runtime-dispatch
//! registry (`mqx::backend`) instead of `cfg(target_feature)` blocks, so
//! one binary measures whatever the host CPU actually supports. The MQX
//! tier is [`engines::mqx_pisa`](crate::engines::mqx_pisa), in **PISA
//! mode** exactly as the paper measures it — representative cost,
//! meaningless values (§4.2) — so its buffers are never validated; the
//! functional-mode equivalence is covered by the test suites instead.
//! The slow bit-exact `mqx-functional` engine is a correctness tool,
//! not a paper tier, and is skipped here.

use crate::timing::{time_blas, time_ntt};
use crate::workload::Workload;
use mqx::backend::{self, Backend};
use mqx_baseline::fhe::{FheBackend, FheNtt};
use mqx_baseline::gmp::{GmpNtt, GmpRing};
use mqx_core::{nt, primes, Modulus};
use mqx_json::impl_to_json;
use mqx_ntt::NttPlan;
use mqx_simd::ResidueSoa;
use std::sync::Arc;

/// One tier's timing for one workload point.
#[derive(Clone, Debug)]
pub struct TierResult {
    /// Tier label ("scalar", "avx512", "mqx-pisa", …).
    pub tier: String,
    /// Nanoseconds for the whole kernel invocation.
    pub ns: f64,
}

impl_to_json!(TierResult { tier, ns });

/// The vector backends a benchmark sweep measures: every hardware tier
/// this host detects, fastest first, then the MQX PISA projection —
/// matching the paper's tier list.
pub fn measurement_backends() -> Vec<Arc<dyn Backend>> {
    let mut backends = backend::available();
    backends.push(crate::engines::mqx_pisa().backend);
    backends
}

/// Best-effort current core clock in GHz (from `/proc/cpuinfo`), for
/// Eq. 13's `f_measured`. Falls back to 3.0 GHz.
pub fn host_ghz() -> f64 {
    if let Ok(text) = std::fs::read_to_string("/proc/cpuinfo") {
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("cpu MHz") {
                if let Some(v) = rest.split(':').nth(1) {
                    if let Ok(mhz) = v.trim().parse::<f64>() {
                        if mhz > 400.0 {
                            return mhz / 1000.0;
                        }
                    }
                }
            }
        }
    }
    3.0
}

/// Times one backend's forward NTT over `xs` (workload consumed as SoA).
pub fn time_forward_backend(
    backend: &dyn Backend,
    plan: &NttPlan,
    xs: &[u128],
    quick: bool,
) -> f64 {
    let mut x = ResidueSoa::from_u128s(xs);
    let mut scratch = ResidueSoa::zeros(xs.len());
    time_ntt(quick, || backend.forward_ntt(plan, &mut x, &mut scratch))
}

/// Times a forward NTT of size `2^log_n` in every tier available on
/// this host, over the workspace's 124-bit prime.
pub fn ntt_tiers(log_n: u32, quick: bool, include_baselines: bool) -> Vec<TierResult> {
    let n = 1_usize << log_n;
    let m = Modulus::new_prime(primes::Q124).expect("Q124 valid");
    let mut w = Workload::new(m, 0xBEEF + u64::from(log_n));
    let xs = w.residues(n);
    let plan = NttPlan::new(&m, n).expect("plan for sweep size");
    let mut out = Vec::new();

    if include_baselines {
        // GMP stand-in (arbitrary precision, heap per op).
        let ring = GmpRing::new(m.value());
        let omega = nt::root_of_unity(&m, n as u64).expect("root exists");
        let gntt = GmpNtt::new(GmpRing::new(m.value()), n, omega);
        let mut big = ring.lift(&xs);
        out.push(TierResult {
            tier: "gmp".into(),
            ns: time_ntt(quick, || gntt.forward(&mut big)),
        });

        // OpenFHE-style stand-in (division-based reduction).
        let fntt = FheNtt::new(FheBackend::new(m.value()), n, omega);
        let mut buf = xs.clone();
        out.push(TierResult {
            tier: "openfhe-like".into(),
            ns: time_ntt(quick, || fntt.forward(&mut buf)),
        });
    }

    // Optimized scalar (native u128 + Barrett).
    {
        let mut buf = xs.clone();
        out.push(TierResult {
            tier: "scalar".into(),
            ns: time_ntt(quick, || plan.forward_scalar(&mut buf)),
        });
    }

    // Every vector tier the machine offers, via runtime dispatch.
    for backend in measurement_backends() {
        out.push(TierResult {
            tier: backend.name().into(),
            ns: time_forward_backend(backend.as_ref(), &plan, &xs, quick),
        });
    }

    out
}

/// The four §5.3 BLAS operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlasOp {
    /// Vector addition.
    Vadd,
    /// Vector subtraction.
    Vsub,
    /// Point-wise vector multiplication.
    Vmul,
    /// `y ← a·x + y`.
    Axpy,
}

impl mqx_json::ToJson for BlasOp {
    fn to_json(&self) -> mqx_json::Json {
        mqx_json::Json::Str(self.label().to_string())
    }
}

impl BlasOp {
    /// All four, in the paper's order.
    pub fn all() -> [BlasOp; 4] {
        [BlasOp::Vadd, BlasOp::Vsub, BlasOp::Vmul, BlasOp::Axpy]
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            BlasOp::Vadd => "vadd",
            BlasOp::Vsub => "vsub",
            BlasOp::Vmul => "vmul",
            BlasOp::Axpy => "axpy",
        }
    }
}

fn time_blas_backend(
    backend: &dyn Backend,
    op: BlasOp,
    xs: &[u128],
    ys: &[u128],
    a: u128,
    m: &Modulus,
    quick: bool,
) -> f64 {
    let x = ResidueSoa::from_u128s(xs);
    let y0 = ResidueSoa::from_u128s(ys);
    let mut out = ResidueSoa::zeros(xs.len());
    match op {
        BlasOp::Vadd => time_blas(quick, || backend.vadd(&x, &y0, &mut out, m)),
        BlasOp::Vsub => time_blas(quick, || backend.vsub(&x, &y0, &mut out, m)),
        BlasOp::Vmul => time_blas(quick, || backend.vmul(&x, &y0, &mut out, m)),
        BlasOp::Axpy => {
            let mut y = y0.clone();
            time_blas(quick, || backend.axpy(a, &x, &mut y, m))
        }
    }
}

/// Times one BLAS op at the paper's vector length 1,024 in every tier.
pub fn blas_tiers(op: BlasOp, quick: bool) -> Vec<TierResult> {
    let len = mqx_blas::PAPER_VECTOR_LEN;
    let m = Modulus::new(primes::Q124).expect("Q124 valid");
    let mut w = Workload::new(m, 0xF00D + op as u64);
    let xs = w.residues(len);
    let ys = w.residues(len);
    let a = w.scalar();
    let mut out = Vec::new();

    // GMP stand-in.
    {
        let ring = GmpRing::new(m.value());
        let bx = ring.lift(&xs);
        let by = ring.lift(&ys);
        let ba = mqx_bignum::BigUint::from(a);
        let ns = match op {
            BlasOp::Vadd => time_blas(quick, || {
                std::hint::black_box(ring.vadd(&bx, &by));
            }),
            BlasOp::Vsub => time_blas(quick, || {
                std::hint::black_box(ring.vsub(&bx, &by));
            }),
            BlasOp::Vmul => time_blas(quick, || {
                std::hint::black_box(ring.vmul(&bx, &by));
            }),
            BlasOp::Axpy => {
                let mut y = by.clone();
                time_blas(quick, || ring.axpy(&ba, &bx, &mut y))
            }
        };
        out.push(TierResult {
            tier: "gmp".into(),
            ns,
        });
    }

    // Optimized scalar.
    {
        let ns = match op {
            BlasOp::Vadd => time_blas(quick, || {
                std::hint::black_box(mqx_blas::scalar::vadd(&xs, &ys, &m));
            }),
            BlasOp::Vsub => time_blas(quick, || {
                std::hint::black_box(mqx_blas::scalar::vsub(&xs, &ys, &m));
            }),
            BlasOp::Vmul => time_blas(quick, || {
                std::hint::black_box(mqx_blas::scalar::vmul(&xs, &ys, &m));
            }),
            BlasOp::Axpy => {
                let mut y = ys.clone();
                time_blas(quick, || mqx_blas::scalar::axpy(a, &xs, &mut y, &m))
            }
        };
        out.push(TierResult {
            tier: "scalar".into(),
            ns,
        });
    }

    // Every vector tier the machine offers.
    for backend in measurement_backends() {
        out.push(TierResult {
            tier: backend.name().into(),
            ns: time_blas_backend(backend.as_ref(), op, &xs, &ys, a, &m, quick),
        });
    }

    out
}
