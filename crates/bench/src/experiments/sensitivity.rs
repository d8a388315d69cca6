//! §5.5 (multiplication algorithms): schoolbook vs Karatsuba across the
//! kernel tiers, at the raw-kernel level and inside full NTTs.
//!
//! The algorithm is threaded through the plan's modulus
//! (`NttPlan::new(&m.with_algorithm(..), n)`), and each vector tier's
//! `Backend::forward_ntt` runs on that plan directly, so the same code
//! measures whatever backends this host offers. The serving rings
//! always use schoolbook.

use crate::experiments::measurement_backends;
use crate::report::{write_json, Table};
use crate::timing::time_ntt;
use crate::workload::Workload;
use mqx::Backend;
use mqx_core::{primes, Modulus, MulAlgorithm};
use mqx_json::impl_to_json;
use mqx_ntt::{butterfly_count, NttPlan};
use mqx_simd::ResidueSoa;

/// One tier's schoolbook-vs-Karatsuba comparison.
#[derive(Clone, Debug)]
pub struct SensitivityRow {
    /// Tier label.
    pub tier: String,
    /// Workload label ("mulmod ×4096" or "NTT per butterfly").
    pub workload: &'static str,
    /// Schoolbook ns.
    pub schoolbook_ns: f64,
    /// Karatsuba ns.
    pub karatsuba_ns: f64,
    /// `karatsuba / schoolbook` (>1 means schoolbook wins, the paper's
    /// CPU finding).
    pub ratio: f64,
}

impl_to_json!(SensitivityRow {
    tier,
    workload,
    schoolbook_ns,
    karatsuba_ns,
    ratio,
});

fn time_scalar_mulmod(m: &Modulus, xs: &[u128], ys: &[u128], quick: bool) -> f64 {
    let mut acc = 0_u128;
    let ns = time_ntt(quick, || {
        for (&a, &b) in xs.iter().zip(ys) {
            acc ^= m.mul_mod(a, b);
        }
    });
    std::hint::black_box(acc);
    ns
}

fn time_forward_ntt(backend: &dyn Backend, plan: &NttPlan, quick: bool) -> f64 {
    let n = plan.size();
    let mut w = Workload::new(*plan.modulus(), 0x5E51);
    let mut x = w.residues_soa(n);
    let mut scratch = ResidueSoa::zeros(n);
    time_ntt(quick, || backend.forward_ntt(plan, &mut x, &mut scratch))
}

/// Runs the comparison and prints the table.
pub fn run(quick: bool) -> Vec<SensitivityRow> {
    let q = primes::Q124;
    let school = Modulus::new(q).expect("Q124");
    let kara = school.with_algorithm(MulAlgorithm::Karatsuba);
    let mut rows = Vec::new();

    // Raw scalar modular multiplication over an array.
    {
        let len = 4096;
        let mut w = Workload::new(school, 0x4A11);
        let xs = w.residues(len);
        let ys = w.residues(len);
        let ts = time_scalar_mulmod(&school, &xs, &ys, quick);
        let tk = time_scalar_mulmod(&kara, &xs, &ys, quick);
        rows.push(SensitivityRow {
            tier: "scalar".into(),
            workload: "mulmod ×4096",
            schoolbook_ns: ts,
            karatsuba_ns: tk,
            ratio: tk / ts,
        });
    }

    // Full NTTs, algorithm threaded through the plan's modulus, one row
    // per measurement backend.
    let n = if quick { 1 << 10 } else { 1 << 12 };
    let bf = butterfly_count(n) as f64;
    let plan_s = NttPlan::new(&school, n).expect("plan");
    let plan_k = NttPlan::new(&kara, n).expect("plan");
    for backend in measurement_backends() {
        let ts = time_forward_ntt(backend.as_ref(), &plan_s, quick);
        let tk = time_forward_ntt(backend.as_ref(), &plan_k, quick);
        rows.push(SensitivityRow {
            tier: backend.name().into(),
            workload: "NTT per butterfly",
            schoolbook_ns: ts / bf,
            karatsuba_ns: tk / bf,
            ratio: tk / ts,
        });
    }

    let mut table = Table::new(
        "§5.5 — schoolbook vs Karatsuba (ratio >1 ⇒ schoolbook faster)",
        &[
            "tier",
            "workload",
            "schoolbook (ns)",
            "karatsuba (ns)",
            "kara/school",
        ],
    );
    for r in &rows {
        table.row(&[
            r.tier.clone(),
            r.workload.to_string(),
            format!("{:.2}", r.schoolbook_ns),
            format!("{:.2}", r.karatsuba_ns),
            format!("{:.3}", r.ratio),
        ]);
    }
    table.print();
    println!("paper reference: schoolbook wins by ~1.1x on CPUs in almost all variants (§5.5)");

    write_json("sensitivity_mul", &rows);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqx::backend;

    #[test]
    fn karatsuba_plan_agrees_with_schoolbook_plan_on_every_tier() {
        let n = 256;
        let school = Modulus::new_prime(primes::Q124).unwrap();
        let plan_s = NttPlan::new(&school, n).unwrap();
        let plan_k = NttPlan::new(&school.with_algorithm(MulAlgorithm::Karatsuba), n).unwrap();
        let input = Workload::new(school, 0x4B41).residues_soa(n);
        for b in backend::available() {
            let mut scratch = ResidueSoa::zeros(n);
            let mut xs = input.clone();
            b.forward_ntt(&plan_s, &mut xs, &mut scratch);
            let mut xk = input.clone();
            b.forward_ntt(&plan_k, &mut xk, &mut scratch);
            assert_eq!(xs.to_u128s(), xk.to_u128s(), "{}", b.name());
        }
    }
}
