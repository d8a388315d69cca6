//! One module per reproduced figure/table, plus the shared tier
//! runners.

pub mod calibrate;
pub mod fig1;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod listing4;
pub mod rns;
pub mod sensitivity;
pub mod table6;
mod tiers;

pub use tiers::{
    blas_tiers, host_ghz, measurement_backends, ntt_tiers, time_forward_backend, BlasOp, TierResult,
};
