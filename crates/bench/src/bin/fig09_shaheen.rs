//! Fig. 9 — comparison with the state of the art (Lorapo) on Shaheen II:
//! time-to-solution and speedup across matrix sizes up to 11.95M and
//! node counts up to 512 (paper: up to 6.8×, steady ~6× beyond 5.97M).

use runtime::MachineModel;

fn main() {
    tlr_bench::lorapo_comparison(
        "Fig. 9",
        MachineModel::shaheen_ii(),
        [
            "Expected (paper): consistent speedup over Lorapo at every size/node",
            "count, growing with the matrix size and saturating at large scale.",
        ],
    );
}
