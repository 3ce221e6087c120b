//! Runs every experiment in paper order and prints one combined report.
//!
//! With `--store PATH` (alias `--resume PATH`, or `HCPERF_STORE`), the
//! fan-out figures cache their cells in an `hcperf-store` log: rerunning
//! after an interruption replays finished cells from disk.
use hcperf_bench::experiments as ex;
fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (jobs, mut store) = hcperf_bench::jobs_and_store_or_exit();
    print!("{}", ex::fig04_motivation(jobs, store.as_mut())?);
    print!("{}", ex::fig05_schedules());
    print!("{}", ex::fig12_exec_times()?);
    print!("{}", ex::fig13_car_following(jobs, store.as_mut())?);
    print!("{}", ex::fig14_lane_keeping(jobs, store.as_mut())?);
    print!("{}", ex::fig15_hardware(jobs, store.as_mut())?);
    print!("{}", ex::fig17_responsiveness()?);
    print!("{}", ex::fig18_ablation(jobs, store.as_mut())?);
    Ok(())
}
