//! Area, power and energy model (paper Table V, §VI-E).
//!
//! The paper synthesizes Cereal's Chisel RTL with a TSMC 40 nm library;
//! Table V's per-module area and power numbers are reproduced here as the
//! calibrated ground truth (re-synthesis is out of scope — see
//! DESIGN.md's substitution table). Energy is power × busy time for the
//! unit-level modules plus the system-wide components over the whole
//! interval, against a 140 W TDP host CPU for the comparisons of
//! Fig. 17.

/// One row of Table V.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ModuleSpec {
    /// Module name as printed in the paper.
    pub name: &'static str,
    /// Area of one instance in mm² (40 nm).
    pub area_mm2: f64,
    /// Average power of one instance in mW.
    pub power_mw: f64,
    /// Instance count in the evaluated configuration.
    pub count: u32,
    /// Which group the module belongs to.
    pub group: ModuleGroup,
}

/// Module grouping for busy-time attribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModuleGroup {
    /// Part of a serialization unit: powered while SUs are busy.
    Serializer,
    /// Part of a deserialization unit: powered while DUs are busy.
    Deserializer,
    /// System-wide (TLB, MAI, tables): powered for the whole interval.
    System,
}

/// Host CPU thermal design power in watts (i7-7820X).
pub const HOST_TDP_W: f64 = 140.0;
/// Host CPU die area in mm² (14 nm; paper §VI-E).
pub const HOST_DIE_MM2: f64 = 2362.5;

/// The full Table V inventory.
pub fn table_v() -> Vec<ModuleSpec> {
    use ModuleGroup::*;
    vec![
        ModuleSpec {
            name: "Header manager",
            area_mm2: 0.003,
            power_mw: 1.3,
            count: 8,
            group: Serializer,
        },
        ModuleSpec {
            name: "Reference array writer",
            area_mm2: 0.013,
            power_mw: 5.8,
            count: 8,
            group: Serializer,
        },
        ModuleSpec {
            name: "Object metadata manager",
            area_mm2: 0.014,
            power_mw: 7.6,
            count: 8,
            group: Serializer,
        },
        ModuleSpec {
            name: "Object handler",
            area_mm2: 0.028,
            power_mw: 18.4,
            count: 8,
            group: Serializer,
        },
        ModuleSpec {
            name: "Layout manager",
            area_mm2: 0.020,
            power_mw: 10.9,
            count: 8,
            group: Deserializer,
        },
        ModuleSpec {
            name: "Block manager",
            area_mm2: 0.217,
            power_mw: 81.1,
            count: 8,
            group: Deserializer,
        },
        ModuleSpec {
            name: "Block reconstructor",
            area_mm2: 0.011,
            power_mw: 6.9,
            count: 32,
            group: Deserializer,
        },
        ModuleSpec {
            name: "TLB",
            area_mm2: 0.282,
            power_mw: 2.7,
            count: 1,
            group: System,
        },
        ModuleSpec {
            name: "MAI",
            area_mm2: 0.161,
            power_mw: 0.8,
            count: 1,
            group: System,
        },
        ModuleSpec {
            name: "Class ID Table (2KB)",
            area_mm2: 0.230,
            power_mw: 1.2,
            count: 1,
            group: System,
        },
        ModuleSpec {
            name: "Klass Pointer Table (4KB)",
            area_mm2: 0.472,
            power_mw: 5.3,
            count: 1,
            group: System,
        },
    ]
}

/// Total area of a group in mm².
pub fn group_area_mm2(group: ModuleGroup) -> f64 {
    table_v()
        .iter()
        .filter(|m| m.group == group)
        .map(|m| m.area_mm2 * f64::from(m.count))
        .sum()
}

/// Total power of a group in mW.
pub fn group_power_mw(group: ModuleGroup) -> f64 {
    table_v()
        .iter()
        .filter(|m| m.group == group)
        .map(|m| m.power_mw * f64::from(m.count))
        .sum()
}

/// Total accelerator area in mm² (paper: 3.857 mm²).
pub fn total_area_mm2() -> f64 {
    group_area_mm2(ModuleGroup::Serializer)
        + group_area_mm2(ModuleGroup::Deserializer)
        + group_area_mm2(ModuleGroup::System)
}

/// Total average power in mW (paper: 1231.6 mW).
pub fn total_power_mw() -> f64 {
    group_power_mw(ModuleGroup::Serializer)
        + group_power_mw(ModuleGroup::Deserializer)
        + group_power_mw(ModuleGroup::System)
}

/// Energy in microjoules for an operation interval of `elapsed_ns`.
///
/// The whole accelerator is charged its Table V average power for the
/// full interval — the conservative accounting (no clock gating of idle
/// units), consistent with Table V reporting *average* per-module power.
/// `su_busy_ns`/`du_busy_ns` (summed per-unit busy times) are accepted
/// for finer-grained studies but the default model charges everything.
pub fn cereal_energy_uj(su_busy_ns: f64, du_busy_ns: f64, elapsed_ns: f64) -> f64 {
    let _ = (su_busy_ns, du_busy_ns);
    total_power_mw() * elapsed_ns * 1e-6 // mW·ns → µJ
}

/// Energy in microjoules for `elapsed_ns` of host-CPU execution at TDP —
/// the accounting the paper uses for the software serializers.
pub fn cpu_energy_uj(elapsed_ns: f64) -> f64 {
    HOST_TDP_W * 1e3 * elapsed_ns * 1e-6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_match_table_v() {
        assert!(
            (total_area_mm2() - 3.857).abs() < 0.01,
            "{}",
            total_area_mm2()
        );
        assert!(
            (total_power_mw() - 1231.6).abs() < 0.5,
            "{}",
            total_power_mw()
        );
        assert!((group_area_mm2(ModuleGroup::Serializer) - 0.464).abs() < 1e-9);
        assert!((group_power_mw(ModuleGroup::Serializer) - 264.8).abs() < 1e-9);
        assert!((group_area_mm2(ModuleGroup::Deserializer) - 2.248).abs() < 1e-9);
        assert!((group_power_mw(ModuleGroup::Deserializer) - 956.8).abs() < 1e-9);
    }

    #[test]
    fn accelerator_is_hundreds_of_times_smaller_than_host() {
        let ratio = HOST_DIE_MM2 / total_area_mm2();
        assert!(ratio > 600.0 && ratio < 625.0, "paper: 612.5×, got {ratio}");
    }

    #[test]
    fn energy_accounting() {
        // 1 ms of accelerator operation: 1231.6 mW × 1 ms = 1231.6 µJ.
        let e = cereal_energy_uj(8.0 * 1e6, 0.0, 1e6);
        assert!((e - 1231.6).abs() < 0.1, "{e}");
        // The host at TDP for the same millisecond: 140 mJ — 113.7× more.
        let host = cpu_energy_uj(1e6);
        assert!((host / e - 113.7).abs() < 0.5, "{}", host / e);
    }

    #[test]
    fn cpu_energy_is_tdp_times_time() {
        assert!((cpu_energy_uj(1e9) - 140.0e6).abs() < 1.0); // 1 s → 140 J = 140e6 µJ
    }
}
