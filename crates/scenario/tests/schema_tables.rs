//! DESIGN.md's knob and metric tables and its list of registry counters
//! are rendered from the code's tables: this fails, printing the text to
//! paste, when DESIGN.md no longer carries them verbatim.

use spdyier_scenario::{KNOBS, METRICS};
use spdyier_trace::{TraceLevel, COUNTERS};

fn knob_table() -> String {
    let mut table = String::from("| knob | takes | section |\n|---|---|---|\n");
    for knob in KNOBS {
        let (name, takes, home) = (knob.name, knob.takes(), knob.home);
        table.push_str(&format!("| `{name}` | {takes} | `{home}` |\n"));
    }
    table
}

fn metric_table() -> String {
    let mut table = String::from("| trace level needed | metrics |\n|---|---|\n");
    for (level, label) in [(TraceLevel::Off, "off"), (TraceLevel::Full, "full")] {
        let rows = METRICS.iter().filter(|&&(_, needs, _)| needs == level);
        let names: Vec<String> = rows.map(|(name, ..)| format!("`{name}`")).collect();
        table.push_str(&format!("| `{label}` | {} |\n", names.join(", ")));
    }
    table
}

/// The flight recorder's counters, as DESIGN.md lists them.
fn counter_list() -> String {
    let names: Vec<String> = COUNTERS.iter().map(|name| format!("`{name}`")).collect();
    format!("Counters: {}.", names.join(", "))
}

#[test]
fn design_md_carries_the_rendered_knob_and_metric_tables() {
    let design = include_str!("../../../DESIGN.md");
    for table in [knob_table(), metric_table()] {
        assert!(
            design.contains(&table),
            "DESIGN.md \"Scenario protocol\" is stale; paste:\n\n{table}"
        );
    }
    let prose = design.split_whitespace().collect::<Vec<_>>().join(" ");
    let counters = counter_list();
    assert!(
        prose.contains(&counters),
        "DESIGN.md \"Flight recorder\" lists other counters; paste:\n\n{counters}"
    );
}
