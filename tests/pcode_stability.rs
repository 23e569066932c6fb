//! P-code stability: the diagnostic-code table in `DESIGN.md` is the
//! public contract, and this test pins it against the constants the
//! analysis passes actually emit. Renaming a code, changing its pass or
//! severity, or adding a pass constant without a documentation row fails
//! here — edit the code and the table together.

use std::collections::BTreeMap;

use pimnet_suite::net::analysis::codes;

/// Every code constant the analysis passes export, with its pass name
/// and severity as the implementation defines them (`P303` is the only
/// warning; everything else is an error).
fn implemented() -> BTreeMap<&'static str, (&'static str, &'static str)> {
    let mut t = BTreeMap::new();
    for code in [
        codes::EMPTY_DSTS,
        codes::SPAN_LEN_MISMATCH,
        codes::SPAN_OUT_OF_BOUNDS,
        codes::COMBINE_IN_NON_REDUCING,
        codes::NON_LOCAL_WITHOUT_RESOURCES,
        codes::FABRIC_SELF_SEND,
        codes::WRONG_TIER_RESOURCES,
        codes::MISSING_DQ_ENDPOINT,
        codes::EXCLUSIVE_SHARING,
        codes::MALFORMED_RESULT_TABLE,
        codes::RESOURCE_OUTSIDE_GEOMETRY,
    ] {
        t.insert(code, ("structural", "error"));
    }
    for code in [
        codes::UNINIT_READ,
        codes::COMBINE_INTO_UNINIT,
        codes::MISALIGNED_COMBINE,
        codes::DOUBLE_COUNTED,
        codes::RESULT_SHAPE,
        codes::RESULT_PROVENANCE,
        codes::RESULT_ELEMENTS,
    ] {
        t.insert(code, ("dataflow", "error"));
    }
    t.insert(codes::WRITE_WRITE, ("hazard", "error"));
    t.insert(codes::READ_AFTER_WRITE, ("hazard", "error"));
    t.insert(codes::PARTITIONED_TREE, ("sync", "error"));
    t.insert(codes::CYCLIC_WAIT, ("sync", "error"));
    t.insert(codes::EMPTY_BARRIER, ("sync", "warning"));
    t
}

/// Parses the `| code | pass | severity | meaning |` table out of
/// DESIGN.md. Only rows whose first cell looks like a P-code count.
fn documented(design: &str) -> BTreeMap<String, (String, String)> {
    let mut t = BTreeMap::new();
    for line in design.lines() {
        let cells: Vec<&str> = line
            .trim()
            .trim_matches('|')
            .split('|')
            .map(str::trim)
            .collect();
        if cells.len() < 4 {
            continue;
        }
        let code = cells[0];
        if code.len() == 4 && code.starts_with('P') && code[1..].chars().all(|c| c.is_ascii_digit())
        {
            t.insert(
                code.to_string(),
                (cells[1].to_string(), cells[2].to_string()),
            );
        }
    }
    t
}

#[test]
fn design_md_pcode_table_matches_the_emitted_codes() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/DESIGN.md");
    let design = std::fs::read_to_string(path).expect("DESIGN.md is readable");
    let docs = documented(&design);
    let imp = implemented();

    assert!(
        !docs.is_empty(),
        "DESIGN.md no longer contains a P-code table"
    );
    for (code, (pass, severity)) in &imp {
        let Some((doc_pass, doc_severity)) = docs.get(*code) else {
            panic!("code {code} ({pass}) is emitted but undocumented in DESIGN.md");
        };
        assert_eq!(
            doc_pass, pass,
            "code {code}: DESIGN.md says pass '{doc_pass}', implementation says '{pass}'"
        );
        assert_eq!(
            doc_severity, severity,
            "code {code}: DESIGN.md says severity '{doc_severity}', \
             implementation says '{severity}'"
        );
    }
    for code in docs.keys() {
        assert!(
            imp.contains_key(code.as_str()),
            "DESIGN.md documents {code}, but no pass exports that code"
        );
    }
    assert_eq!(docs.len(), imp.len());
}

/// The code ranges are pass-disjoint — the property the incremental
/// verifier's byte-identity argument leans on (ties under the report's
/// `(location, code)` sort can only come from one pass).
#[test]
fn code_ranges_are_pass_disjoint() {
    for (code, (pass, _)) in implemented() {
        let block = code[1..].parse::<u32>().unwrap() / 100;
        let expected = match pass {
            "structural" => 0,
            "dataflow" => 1,
            "hazard" => 2,
            "sync" => 3,
            other => panic!("unknown pass {other}"),
        };
        assert_eq!(block, expected, "{code} is outside its pass's code block");
    }
}
