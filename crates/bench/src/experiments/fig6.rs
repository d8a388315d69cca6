//! Figure 6: sensitivity of NTT runtime to the MQX components — average
//! runtime per butterfly across the swept sizes, normalized to the
//! best detected base engine (`Base`), for `+M`, `+C`, `+M,C`, `+Mh,C`,
//! `+M,C,P`.
//!
//! All MQX variants run in PISA mode, exactly as the paper measures
//! them. The variant set is [`ablation_variants`], built over whatever
//! base engine this host detects at runtime.

use crate::engines::ablation_variants;
use crate::report::{write_json, Table};
use crate::sweep_log_sizes;
use crate::timing::time_ntt;
use crate::workload::Workload;
use mqx::backend::Backend;
use mqx_core::{primes, Modulus};
use mqx_json::impl_to_json;
use mqx_ntt::{butterfly_count, NttPlan};
use mqx_simd::ResidueSoa;

/// One ablation variant's normalized runtime.
#[derive(Clone, Debug)]
pub struct Fig6Row {
    /// Variant label, matching the paper's x-axis.
    pub variant: &'static str,
    /// Mean ns per butterfly across the sweep.
    pub ns_per_butterfly: f64,
    /// Normalized to Base (= 1.0).
    pub normalized: f64,
}

impl_to_json!(Fig6Row {
    variant,
    ns_per_butterfly,
    normalized,
});

fn mean_ns_per_butterfly(backend: &dyn Backend, quick: bool) -> f64 {
    let m = Modulus::new_prime(primes::Q124).expect("Q124 valid");
    let sizes = sweep_log_sizes();
    let mut total = 0.0;
    for &log_n in &sizes {
        let n = 1_usize << log_n;
        let plan = NttPlan::new(&m, n).expect("plan");
        let mut w = Workload::new(m, 0xAB1E + u64::from(log_n));
        let mut x = w.residues_soa(n);
        let mut scratch = ResidueSoa::zeros(n);
        let ns = time_ntt(quick, || backend.forward_ntt(&plan, &mut x, &mut scratch));
        total += ns / butterfly_count(n) as f64;
    }
    total / sizes.len() as f64
}

/// Runs the ablation and prints the normalized table.
pub fn run(quick: bool) -> Vec<Fig6Row> {
    let raws: Vec<(&'static str, f64)> = ablation_variants()
        .iter()
        .map(|v| (v.label, mean_ns_per_butterfly(v.backend.as_ref(), quick)))
        .collect();

    let base = raws[0].1;
    let rows: Vec<Fig6Row> = raws
        .into_iter()
        .map(|(variant, ns)| Fig6Row {
            variant,
            ns_per_butterfly: ns,
            normalized: ns / base,
        })
        .collect();

    let mut table = Table::new(
        "Figure 6 — MQX component sensitivity (avg ns/butterfly, normalized to Base)",
        &["variant", "ns/butterfly", "normalized"],
    );
    for r in &rows {
        table.row(&[
            r.variant.to_string(),
            format!("{:.3}", r.ns_per_butterfly),
            format!("{:.3}", r.normalized),
        ]);
    }
    table.print();
    write_json("fig6_ablation", &rows);
    rows
}
