//! Regenerates Fig. 13 and Tables II/III — simulation car following.
// hcperf-lint: det-sink(fig13-stdout): figure data on stdout feeds checked-in expectations
fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (jobs, mut store) = hcperf_bench::jobs_and_store_or_exit();
    print!(
        "{}",
        hcperf_bench::experiments::fig13_car_following(jobs, store.as_mut())?
    );
    Ok(())
}
