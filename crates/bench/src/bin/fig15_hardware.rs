//! Regenerates Fig. 15 and Tables V/VI — hardware car following.
// hcperf-lint: det-sink(fig15-stdout): figure data on stdout feeds checked-in expectations
fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (jobs, mut store) = hcperf_bench::jobs_and_store_or_exit();
    print!(
        "{}",
        hcperf_bench::experiments::fig15_hardware(jobs, store.as_mut())?
    );
    Ok(())
}
