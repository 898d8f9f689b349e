//! One module per experiment of the DESIGN.md index.

pub mod choice_ablation;
pub mod corruption;
pub mod daemons;
pub mod decay;
pub mod faults;
pub mod fig3;
pub mod fig4;
pub mod mp_port;
pub mod overhead;
pub mod prop4;
pub mod prop5;
pub mod prop6;
pub mod prop7;
pub mod ra_convergence;
pub mod schemes;
pub mod stretch;

use crate::report::Table;

/// Runs every experiment at its default scale and returns the tables in
/// index order. This is what the `experiments` binary prints and what
/// `EXPERIMENTS.md` records. Each converted sweep fans its replicate runs
/// out over `threads` workers ([`crate::parallel::run_ordered`]); the
/// output is the same for every thread count (CI compares `--threads 1`
/// with `--threads 2`), so the fan-out is a wall-clock optimization only.
/// Experiments whose runs share mutable state across cells (none today)
/// must stay on the sequential path.
pub fn run_all_with(seed: u64, threads: usize) -> Vec<Table> {
    vec![
        schemes::run(),
        fig3::run_with(seed, threads),
        fig4::run_with(seed, threads),
        prop4::run_with(seed, threads),
        prop5::run_with(seed, threads),
        prop6::run_with(seed, threads),
        prop7::run_with(seed, threads),
        overhead::run(seed),
        corruption::run(seed),
        ra_convergence::run(seed),
        choice_ablation::run(seed),
        mp_port::run(seed),
        stretch::run(seed),
        daemons::run(seed),
        decay::run(seed),
        faults::run_with(seed, threads),
    ]
}
