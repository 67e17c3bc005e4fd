//! Table 4 — the list of CloudMatcher services (basic + composite), from
//! the live service registry.

use magellan_falcon::services::{services, ServiceKind};

fn main() {
    // Experiment narration is leveled logging: MAGELLAN_LOG=off silences it.
    magellan_obs::init_bin_logging(magellan_obs::Level::Info);
    magellan_obs::log!(info, "Table 4 analog — CloudMatcher services");
    for kind in [ServiceKind::Basic, ServiceKind::Composite] {
        magellan_obs::log!(
            info,
            "\n== {} services ==",
            match kind {
                ServiceKind::Basic => "basic",
                ServiceKind::Composite => "composite",
            }
        );
        for s in services().into_iter().filter(|s| s.kind == kind) {
            magellan_obs::log!(info, "  {:26} [{:?}] {}", s.name, s.engine, s.description);
            magellan_obs::log!(info, "  {:26}  impl: {}", "", s.implemented_by);
            if !s.composes.is_empty() {
                magellan_obs::log!(info, "  {:26}  composes: {}", "", s.composes.join(", "));
            }
        }
    }
    let n_basic = services()
        .iter()
        .filter(|s| s.kind == ServiceKind::Basic)
        .count();
    let n_comp = services()
        .iter()
        .filter(|s| s.kind == ServiceKind::Composite)
        .count();
    magellan_obs::log!(info, "\n{n_basic} basic + {n_comp} composite services (paper: 18 basic + composites incl. Falcon)");
}
