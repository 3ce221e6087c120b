//! Regenerates Fig. 14 and Table IV — lane keeping.
// hcperf-lint: det-sink(fig14-stdout): figure data on stdout feeds checked-in expectations
fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (jobs, mut store) = hcperf_bench::jobs_and_store_or_exit();
    print!(
        "{}",
        hcperf_bench::experiments::fig14_lane_keeping(jobs, store.as_mut())?
    );
    Ok(())
}
