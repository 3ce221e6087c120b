//! Regenerates Fig. 18 — the external-coordinator ablation.
// hcperf-lint: det-sink(fig18-stdout): figure data on stdout feeds checked-in expectations
fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (jobs, mut store) = hcperf_bench::jobs_and_store_or_exit();
    print!(
        "{}",
        hcperf_bench::experiments::fig18_ablation(jobs, store.as_mut())?
    );
    Ok(())
}
