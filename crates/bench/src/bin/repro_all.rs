//! Runs every reproduction experiment in sequence (the full evaluation).
fn main() {
    let quick = mqx_bench::quick_mode();
    println!("# MQX reproduction — all experiments (quick = {quick})\n");
    println!("## Backend calibration (extension)\n");
    mqx_bench::experiments::calibrate::run(quick);
    println!("\n## Listing 4 / Figure 3\n");
    mqx_bench::experiments::listing4::run(true);
    println!("\n## Table 6 (PISA validation)\n");
    mqx_bench::experiments::table6::run(quick);
    println!("\n## Figure 4 (BLAS)\n");
    mqx_bench::experiments::fig4::run(quick);
    println!("\n## Figure 5 (NTT sweep)\n");
    mqx_bench::experiments::fig5::run(quick);
    println!("\n## Figure 6 (MQX ablation)\n");
    mqx_bench::experiments::fig6::run(quick);
    println!("\n## §5.5 (multiplication algorithms)\n");
    mqx_bench::experiments::sensitivity::run(quick);
    println!("\n## Figure 7 (speed of light)\n");
    mqx_bench::experiments::fig7::run(quick);
    println!("\n## Figure 1 (headline)\n");
    mqx_bench::experiments::fig1::run(quick);
    println!("\n## RNS channel scaling (extension)\n");
    mqx_bench::experiments::rns::run(quick);
}
