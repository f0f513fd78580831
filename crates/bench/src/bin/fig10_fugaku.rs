//! Fig. 10 — comparison with the state of the art (Lorapo) on Fugaku:
//! time-to-solution and speedup across matrix sizes and node counts up
//! to 512 (paper: up to 9.1×, more than 4× everywhere — larger margins
//! than Shaheen II because A64FX's skinny-kernel penalty punishes
//! Lorapo's extra null-tile work harder).

use runtime::MachineModel;

fn main() {
    tlr_bench::lorapo_comparison(
        "Fig. 10",
        MachineModel::fugaku(),
        [
            "Expected (paper): HiCMA-PaRSEC wins everywhere, with larger relative",
            "margins than on Shaheen II (Fig. 9).",
        ],
    );
}
