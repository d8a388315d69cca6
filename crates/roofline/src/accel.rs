//! Accelerator reference series for Figures 1 and 7.
//!
//! **Substitution note:** RPU and FPMM are ASICs and MoMA runs on an
//! RTX 4090; none can execute here. Their 128-bit NTT runtimes are
//! encoded as fixed reference series whose *relationships*
//! reproduce everything the paper states quantitatively:
//!
//! * RPU is 545–1,485× faster than OpenFHE on 32 cores of an EPYC 7502
//!   (§1, §8 — the small sizes benefit most);
//! * MoMA (RTX 4090) sits between the ASICs and the projected CPUs:
//!   MQX-SOL on the Xeon 6980P trails it by ~1.4×, while MQX-SOL on the
//!   EPYC 9965S leads it by ~1.7× (§6);
//! * FPMM supports two NTT sizes and lands near RPU (§6).
//!
//! The *absolute* anchor — `RPU(2^14) = 2.0 µs` — is synthetic (chosen
//! in the µs range ASIC NTT papers report); every comparison made with
//! these series is a ratio, so the anchor cancels in the shapes the
//! reproduction checks.

use mqx_json::impl_to_json;

/// One accelerator's (or baseline's) NTT runtime series.
#[derive(Clone, Debug)]
pub struct AccelSeries {
    /// Display name.
    pub name: &'static str,
    /// `(log₂ n, runtime in nanoseconds)` pairs, ascending.
    pub points: Vec<(u32, f64)>,
}

impl_to_json!(AccelSeries { name, points });

impl AccelSeries {
    /// Runtime at `log₂ n`, if the accelerator supports that size.
    pub fn at(&self, log_n: u32) -> Option<f64> {
        self.points
            .iter()
            .find(|(l, _)| *l == log_n)
            .map(|(_, t)| *t)
    }

    /// The size range the accelerator reports.
    pub fn sizes(&self) -> Vec<u32> {
        self.points.iter().map(|(l, _)| *l).collect()
    }
}

/// Synthetic absolute anchor: RPU's 2^14-point 128-bit NTT in
/// nanoseconds.
pub const RPU_ANCHOR_NS: f64 = 2_000.0;

/// RPU (ISPASS '23): the 128-bit ring processing unit. Supported sizes
/// 2^10–2^14; runtime scales ~n·log n off the anchor.
pub fn rpu() -> AccelSeries {
    AccelSeries {
        name: "RPU (ASIC)",
        points: (10..=14)
            .map(|l| (l, nlogn_scaled(l, 14, RPU_ANCHOR_NS)))
            .collect(),
    }
}

/// FPMM (Zhou et al., TCAD '24): fully-pipelined reconfigurable
/// Montgomery multiplier; reports two NTT sizes (§6). Placed slightly
/// ahead of the RPU curve per the Xeon comparison.
pub fn fpmm() -> AccelSeries {
    AccelSeries {
        name: "FPMM (ASIC)",
        points: vec![
            (12, nlogn_scaled(12, 14, RPU_ANCHOR_NS) * 0.85),
            (16, nlogn_scaled(16, 14, RPU_ANCHOR_NS) * 0.85),
        ],
    }
}

/// MoMA (CGO '25) on an NVIDIA RTX 4090: near-ASIC 128-bit NTTs on a
/// commodity GPU; modeled 1.6× ahead of RPU across sizes (between the
/// paper's two MQX-SOL comparisons).
pub fn moma() -> AccelSeries {
    AccelSeries {
        name: "MoMA (RTX 4090)",
        points: (10..=16)
            .map(|l| (l, nlogn_scaled(l, 14, RPU_ANCHOR_NS) / 1.6))
            .collect(),
    }
}

/// OpenFHE on 32 cores of an EPYC 7502, as reported by the RPU paper:
/// 545×–1,485× behind RPU, with the gap largest at small sizes.
pub fn openfhe_32core() -> AccelSeries {
    let points = (10..=16)
        .map(|l| {
            // Interpolate the published slowdown range across sizes.
            let frac = f64::from(l - 10) / 6.0;
            let slowdown = 1_485.0 - (1_485.0 - 545.0) * frac;
            (l, nlogn_scaled(l, 14, RPU_ANCHOR_NS) * slowdown)
        })
        .collect();
    AccelSeries {
        name: "OpenFHE (32 cores, EPYC 7502)",
        points,
    }
}

/// `t(n) = anchor · (n·log n) / (n₀·log n₀)` with `n = 2^log_n`.
fn nlogn_scaled(log_n: u32, anchor_log_n: u32, anchor_ns: f64) -> f64 {
    let work = |l: u32| (1_u64 << l) as f64 * f64::from(l);
    anchor_ns * work(log_n) / work(anchor_log_n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rpu_anchor_and_monotonicity() {
        let r = rpu();
        assert_eq!(r.at(14), Some(RPU_ANCHOR_NS));
        let pts = &r.points;
        for w in pts.windows(2) {
            assert!(w[0].1 < w[1].1, "runtime grows with size");
        }
        assert_eq!(r.at(20), None);
        assert_eq!(r.sizes(), vec![10, 11, 12, 13, 14]);
    }

    #[test]
    fn openfhe_slowdown_vs_rpu_in_published_range() {
        let r = rpu();
        let o = openfhe_32core();
        for l in 10..=14 {
            let ratio = o.at(l).unwrap() / r.at(l).unwrap();
            assert!(
                (545.0..=1_485.0).contains(&ratio),
                "slowdown {ratio} at 2^{l} outside the RPU paper's range"
            );
        }
    }

    #[test]
    fn moma_sits_between_asic_and_cpu_baseline() {
        let r = rpu();
        let m = moma();
        let o = openfhe_32core();
        for l in 10..=14 {
            assert!(
                m.at(l).unwrap() < r.at(l).unwrap(),
                "GPU ahead of this ASIC series"
            );
            assert!(m.at(l).unwrap() < o.at(l).unwrap() / 100.0);
        }
    }

    #[test]
    fn fpmm_reports_two_sizes() {
        assert_eq!(fpmm().points.len(), 2);
    }

    #[test]
    fn series_serialize() {
        use mqx_json::ToJson;
        let json = rpu().to_json().compact();
        assert!(json.contains("RPU"));
    }
}
