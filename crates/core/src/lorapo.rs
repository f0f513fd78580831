//! The Lorapo baseline (Cao et al., PASC'20) as a simulation preset.
//!
//! Lorapo is the state-of-the-art the paper compares against: TLR Cholesky
//! over PaRSEC with the hybrid 1D + 2D block-cyclic distribution,
//! owner-computes execution, **no** DAG trimming (tasks on null tiles are
//! still created and scheduled) and no critical-path-aware placement. The
//! presets here pin those choices so the figure harnesses can't
//! accidentally hand the baseline one of our optimizations.

use crate::simulate::{DistributionPlan, SimConfig};
use runtime::machine::MachineModel;

/// Lorapo on the given machine/node count.
pub fn lorapo_config(machine: MachineModel, nodes: usize) -> SimConfig {
    SimConfig {
        machine,
        nodes,
        plan: DistributionPlan::Lorapo,
        trimmed: false,
        rank_cap: usize::MAX,
        band_width: 1,
    }
}

/// HiCMA-PaRSEC (this paper) on the given machine/node count, with
/// everything on: band + diamond + trimming.
pub fn hicma_parsec_config(machine: MachineModel, nodes: usize) -> SimConfig {
    SimConfig {
        machine,
        nodes,
        plan: DistributionPlan::BandDiamond,
        trimmed: true,
        rank_cap: usize::MAX,
        band_width: 2,
    }
}

/// The intermediate configurations of the incremental study (Fig. 7 /
/// Fig. 13): trimming only, then + band, then + diamond.
pub fn incremental_configs(machine: MachineModel, nodes: usize) -> [(&'static str, SimConfig); 4] {
    [
        ("lorapo", lorapo_config(machine.clone(), nodes)),
        (
            "+trimming",
            SimConfig {
                machine: machine.clone(),
                nodes,
                plan: DistributionPlan::Lorapo,
                trimmed: true,
                rank_cap: usize::MAX,
                band_width: 1,
            },
        ),
        (
            "+band",
            SimConfig {
                machine: machine.clone(),
                nodes,
                plan: DistributionPlan::Band,
                trimmed: true,
                rank_cap: usize::MAX,
                band_width: 2,
            },
        ),
        ("+diamond", hicma_parsec_config(machine, nodes)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_in_the_right_knobs() {
        let l = lorapo_config(MachineModel::shaheen_ii(), 64);
        assert!(!l.trimmed);
        assert_eq!(l.plan, DistributionPlan::Lorapo);
        let h = hicma_parsec_config(MachineModel::shaheen_ii(), 64);
        assert!(h.trimmed);
        assert_eq!(h.plan, DistributionPlan::BandDiamond);
    }

    #[test]
    fn incremental_sequence_is_ordered() {
        let seq = incremental_configs(MachineModel::fugaku(), 128);
        assert_eq!(seq[0].0, "lorapo");
        assert!(!seq[0].1.trimmed);
        assert!(seq[1].1.trimmed);
        assert_eq!(seq[2].1.plan, DistributionPlan::Band);
        assert_eq!(seq[3].1.plan, DistributionPlan::BandDiamond);
    }
}
