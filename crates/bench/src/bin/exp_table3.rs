//! Table 3 — developing tools for the steps of the guide.
//!
//! Regenerated from the live command registry: for every guide step, the
//! commands that serve it, split by origin (existing substrate / own code
//! / pain-point tool), plus the per-step command count (the paper's
//! column E).

use magellan_core::registry::{commands, commands_per_step, CommandOrigin, GuideStep};

fn main() {
    // Experiment narration is leveled logging: MAGELLAN_LOG=off silences it.
    magellan_obs::init_bin_logging(magellan_obs::Level::Info);
    magellan_obs::log!(info, "Table 3 analog — tools per guide step");
    magellan_obs::log!(
        info,
        "{:26} {:>9} {:>9} {:>11} {:>9}",
        "guide step",
        "substrate",
        "own code",
        "pain points",
        "commands"
    );
    let all = commands();
    for (step, count) in commands_per_step() {
        let by = |origin: CommandOrigin| {
            all.iter()
                .filter(|c| c.step == step && c.origin == origin)
                .count()
        };
        magellan_obs::log!(
            info,
            "{:26} {:>9} {:>9} {:>11} {:>9}",
            step.to_string(),
            by(CommandOrigin::ExistingPackage),
            by(CommandOrigin::OwnCode),
            by(CommandOrigin::PainPointTool),
            count
        );
    }
    magellan_obs::log!(info, "\ntotal commands: {}", all.len());
    magellan_obs::log!(info, "\npain-point tools (the paper's column D):");
    for c in all
        .iter()
        .filter(|c| c.origin == CommandOrigin::PainPointTool)
    {
        magellan_obs::log!(info, "  [{:26}] {}", c.step.to_string(), c.name);
    }
    magellan_obs::log!(
        info,
        "\nmain packages (the paper lists 6 making up PyMatcher):"
    );
    for p in [
        "magellan-table",
        "magellan-textsim (py_stringmatching)",
        "magellan-simjoin (py_stringsimjoin)",
        "magellan-ml",
        "magellan-block",
        "magellan-features",
        "magellan-core (py_entitymatching)",
    ] {
        magellan_obs::log!(info, "  {p}");
    }
    let _ = GuideStep::all();
}
