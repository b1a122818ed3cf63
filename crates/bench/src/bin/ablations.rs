//! Runs the design-choice ablations (timeout percentile, adaptive
//! scheduler, queue depth, queue batching, cache, pool, executor).
fn main() {
    println!(
        "{}",
        minato_bench::ablations::all_ablations(minato_bench::Scale::from_env())
    );
}
