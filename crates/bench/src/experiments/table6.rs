//! Tables 5–6: validating PISA. Re-run the NTT with an existing
//! instruction swapped for its PISA proxy (Table 5), then report the
//! relative error ε between target and proxy runtimes (Eq. 12).
//!
//! The (target, proxy) backend pairs are [`proxy_pairs`], assembled
//! for whatever vector hardware this host detects at runtime.

use crate::engines::proxy_pairs;
use crate::report::{write_json, Table};
use crate::timing::time_ntt;
use crate::workload::Workload;
use mqx::backend::Backend;
use mqx_core::{primes, Modulus};
use mqx_json::impl_to_json;
use mqx_ntt::NttPlan;
use mqx_simd::ResidueSoa;

/// One PISA validation row.
#[derive(Clone, Debug)]
pub struct Table6Row {
    /// The real (target) instruction being modeled.
    pub target: &'static str,
    /// The proxy instruction PISA substitutes.
    pub proxy: &'static str,
    /// NTT runtime with the target instruction (ns).
    pub t_target_ns: f64,
    /// NTT runtime with the proxy (ns).
    pub t_proxy_ns: f64,
    /// Relative error ε = (t_target − t_proxy)/t_target · 100%.
    pub epsilon_percent: f64,
}

impl_to_json!(Table6Row {
    target,
    proxy,
    t_target_ns,
    t_proxy_ns,
    epsilon_percent,
});

fn time_backend(backend: &dyn Backend, plan: &NttPlan, xs: &ResidueSoa, quick: bool) -> f64 {
    let mut x = xs.clone();
    let mut scratch = ResidueSoa::zeros(xs.len());
    time_ntt(quick, || backend.forward_ntt(plan, &mut x, &mut scratch))
}

/// Runs the validation at the paper's size (2^14; 2^12 in quick mode).
pub fn run(quick: bool) -> Vec<Table6Row> {
    let log_n = if quick { 12 } else { 14 };
    let n = 1_usize << log_n;
    let m = Modulus::new_prime(primes::Q124).expect("Q124 valid");
    let plan = NttPlan::new(&m, n).expect("plan");
    let mut w = Workload::new(m, 0x7AB6);
    let xs = w.residues_soa(n);

    let rows: Vec<Table6Row> = proxy_pairs()
        .iter()
        .map(|pair| {
            let t_target = time_backend(pair.target.backend.as_ref(), &plan, &xs, quick);
            let t_proxy = time_backend(pair.proxy.backend.as_ref(), &plan, &xs, quick);
            Table6Row {
                target: pair.target.label,
                proxy: pair.proxy.label,
                t_target_ns: t_target,
                t_proxy_ns: t_proxy,
                epsilon_percent: (t_target - t_proxy) / t_target * 100.0,
            }
        })
        .collect();

    let mut table = Table::new(
        &format!("Table 6 — PISA validation: relative error ε at n = 2^{log_n}"),
        &[
            "target instruction",
            "proxy instruction",
            "t_target",
            "t_proxy",
            "ε",
        ],
    );
    for r in &rows {
        table.row(&[
            r.target.to_string(),
            r.proxy.to_string(),
            format!("{:.0} ns", r.t_target_ns),
            format!("{:.0} ns", r.t_proxy_ns),
            format!("{:+.2}%", r.epsilon_percent),
        ]);
    }
    table.print();
    println!("paper reference: |ε| < 8% on both CPUs (Table 6)");

    write_json("table6_pisa_validation", &rows);
    rows
}
