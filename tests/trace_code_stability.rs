//! Trace-code stability: the event-code table in `DESIGN.md` is the
//! public contract of the structured trace, and this test pins it against
//! the constants in `pim_sim::trace::codes`. Renumbering or renaming a
//! code, moving it to another group, or adding a code without a
//! documentation row fails here — edit the code and the table together.

use std::collections::BTreeMap;

use pimnet_suite::sim::trace::{code_group, code_name, codes};

/// Every code constant the trace exports.
const IMPLEMENTED: [u16; 34] = [
    codes::BARRIER,
    codes::STRAGGLER,
    codes::REPAIR_OVERHEAD,
    codes::TRANSFER,
    codes::RETRY,
    codes::EXEC_STEP,
    codes::EXEC_TRANSFER,
    codes::EXEC_RETRY,
    codes::ARENA_GROW,
    codes::CACHE_HIT,
    codes::CACHE_MISS,
    codes::CACHE_DEDUP_WAIT,
    codes::NOC_DELIVER,
    codes::NOC_RETRANSMIT,
    codes::PAR_TASK,
    codes::PAR_BATCH,
    codes::PLAN_TIER,
    codes::RECOV_STEP,
    codes::RECOV_RETRY,
    codes::RECOV_CHECKPOINT,
    codes::RECOV_REPLAN,
    codes::RECOV_QUARANTINE,
    codes::FAULT_ARRIVAL,
    codes::RECOV_RESUME,
    codes::RECOV_DONE,
    codes::SERVE_ARRIVE,
    codes::SERVE_ADMIT,
    codes::SERVE_SHED,
    codes::SERVE_START,
    codes::SERVE_DONE,
    codes::SERVE_QUARANTINE,
    codes::SERVE_LADDER,
    codes::LINT_FULL,
    codes::LINT_DELTA,
];

/// The text between the first pair of backticks in `s`, and what follows.
fn backticked(s: &str) -> Option<(&str, &str)> {
    let (_, rest) = s.split_once('`')?;
    rest.split_once('`')
}

fn hex(s: &str) -> u16 {
    u16::from_str_radix(s.trim_start_matches("0x"), 16).expect("hex code")
}

/// Parses the `| group (hi byte) | codes |` table out of DESIGN.md into
/// `code -> (group byte, name)`. Rows look like
/// ``| sync `0x01` | `0x0101` barrier, `0x0102` straggler |``; a
/// parenthetical after a name is commentary.
fn documented(design: &str) -> BTreeMap<u16, (u8, String)> {
    let mut t = BTreeMap::new();
    for line in design.lines() {
        let cells: Vec<&str> = line
            .trim()
            .trim_matches('|')
            .split('|')
            .map(str::trim)
            .collect();
        let [group_cell, codes_cell] = cells[..] else {
            continue;
        };
        let Some((group, _)) = backticked(group_cell) else {
            continue;
        };
        if group.len() != 4 || !group.starts_with("0x") {
            continue;
        }
        for item in codes_cell.split(',') {
            let (code, rest) = backticked(item).expect("a backticked code per item");
            let name = rest.split_whitespace().next().expect("a name per code");
            let previous = t.insert(hex(code), (hex(group) as u8, name.to_string()));
            assert!(previous.is_none(), "{code} is documented twice");
        }
    }
    t
}

#[test]
fn design_md_trace_code_table_matches_the_emitted_codes() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/DESIGN.md");
    let design = std::fs::read_to_string(path).expect("DESIGN.md is readable");
    let docs = documented(&design);
    assert!(
        !docs.is_empty(),
        "DESIGN.md no longer contains a trace-code table"
    );
    let imp: BTreeMap<u16, (u8, String)> = IMPLEMENTED
        .iter()
        .map(|&c| (c, (code_group(c), code_name(c).to_string())))
        .collect();
    assert_eq!(imp.len(), IMPLEMENTED.len(), "two constants share a code");
    for (code, doc) in &docs {
        let Some(implemented) = imp.get(code) else {
            panic!("DESIGN.md documents {code:#06x}, but no trace code has that value");
        };
        assert_eq!(doc, implemented, "code {code:#06x}: (group, name) drifted");
    }
    for (code, (_, name)) in &imp {
        assert!(
            docs.contains_key(code),
            "code {code:#06x} ({name}) is emitted but undocumented in DESIGN.md"
        );
    }
}

/// Every named code is one of the exported constants, so the table above
/// cannot silently miss a code that `code_name` knows.
#[test]
fn every_named_code_is_exported() {
    let named: Vec<u16> = (0..=u16::MAX)
        .filter(|&c| code_name(c) != "unknown")
        .collect();
    let mut exported = IMPLEMENTED.to_vec();
    exported.sort_unstable();
    assert_eq!(named, exported);
}
