//! Regenerates Fig. 4 — the § II motivation study.
// hcperf-lint: det-sink(fig04-stdout): figure data on stdout feeds checked-in expectations
fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (jobs, mut store) = hcperf_bench::jobs_and_store_or_exit();
    print!(
        "{}",
        hcperf_bench::experiments::fig04_motivation(jobs, store.as_mut())?
    );
    Ok(())
}
