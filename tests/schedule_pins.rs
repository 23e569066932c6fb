//! Schedule pins: every schedule `CommSchedule::build` produces, and every
//! composed schedule the autotuner sweeps, fingerprinted and compared with
//! the committed table in `tests/schedule_pins.txt`.
//!
//! A row is `source kind geometry elems fingerprint`, where `source` is
//! `paper` or a candidate spec (`bank_chip_rank`, `/c2` for a 2-way chunk
//! split) and the fingerprint is FNV-1a over a canonical rendering of the
//! whole schedule: header, result spans, and every phase, step and
//! transfer in order (ids, spans, combine flag, resource path). A build
//! error pins its message instead (`error-` plus the message's
//! fingerprint). Any change to a builder that moves one transfer, reorders
//! a step or renames an error shows up as a changed row.
//!
//! The matrix is all seven kinds × `paper_scaled` 1/2/8/64/256 plus a
//! non-power-of-two 3-bank × 2-chip × 2-rank geometry × payloads
//! {1, 3, 64, 193, 1030}; AllGather at 256 DPUs is skipped (its `N·n`
//! buffer makes those builds the slowest by far, as in pimbench).

use std::fmt::{self, Write as _};

use pim_arch::geometry::PimGeometry;
use pimnet_suite::net::collective::CollectiveKind;
use pimnet_suite::net::schedule::{autotune, build_composed_chunked, CommSchedule};
use pimnet_suite::net::PimnetError;

const PINS: &str = include_str!("schedule_pins.txt");

const ELEMS: [usize; 5] = [1, 3, 64, 193, 1030];

/// FNV-1a over everything written into it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// The canonical rendering of a schedule, folded into a fingerprint.
fn fingerprint(s: &CommSchedule) -> u64 {
    let mut h = Fnv::new();
    let g = &s.geometry;
    writeln!(
        h,
        "{} {}x{}x{}x{} n={} b={} buf={}",
        s.kind,
        g.banks_per_chip,
        g.chips_per_rank,
        g.ranks_per_channel,
        g.channels,
        s.elems_per_node,
        s.elem_bytes,
        s.buffer_len
    )
    .unwrap();
    for (node, spans) in s.result_spans.iter().enumerate() {
        write!(h, "result {node}:").unwrap();
        for sp in spans {
            write!(h, " {sp}").unwrap();
        }
        h.write_char('\n').unwrap();
    }
    for phase in &s.phases {
        writeln!(h, "phase {} mux={}", phase.label, phase.multiplexed).unwrap();
        for step in &phase.steps {
            writeln!(h, "step").unwrap();
            for t in &step.transfers {
                write!(h, "{} ->", t.src.0).unwrap();
                for d in &t.dsts {
                    write!(h, " {}", d.0).unwrap();
                }
                write!(h, " {} {} {} via", t.src_span, t.dst_span, t.combine).unwrap();
                for r in &t.resources {
                    write!(h, " {r}").unwrap();
                }
                h.write_char('\n').unwrap();
            }
        }
    }
    h.0
}

fn pin(built: Result<CommSchedule, PimnetError>) -> String {
    match built {
        Ok(s) => format!("{:016x}", fingerprint(&s)),
        Err(e) => {
            let mut h = Fnv::new();
            write!(h, "{e}").unwrap();
            format!("error-{:016x}", h.0)
        }
    }
}

fn geometries() -> Vec<(String, PimGeometry)> {
    let mut out: Vec<(String, PimGeometry)> = [1u32, 2, 8, 64, 256]
        .into_iter()
        .map(|n| (format!("x{n}"), PimGeometry::paper_scaled(n)))
        .collect();
    out.push(("b3c2r2".to_string(), PimGeometry::new(3, 2, 2, 1)));
    out
}

/// Every row of the pin table, in the committed order.
fn rows() -> Vec<String> {
    let mut out = Vec::new();
    for (label, g) in geometries() {
        for kind in CollectiveKind::ALL {
            if kind == CollectiveKind::AllGather && g.total_dpus() == 256 {
                continue;
            }
            let tag = format!("{kind:?}");
            for elems in ELEMS {
                let paper = pin(CommSchedule::build(kind, &g, elems, 4));
                out.push(format!("paper {tag} {label} {elems} {paper}"));
                for (comp, chunks) in autotune::candidates(kind, &g, elems) {
                    let spec = if chunks == 1 {
                        comp.spec()
                    } else {
                        format!("{comp}/c{chunks}")
                    };
                    let fp = pin(build_composed_chunked(kind, &g, elems, 4, comp, chunks));
                    out.push(format!("{spec} {tag} {label} {elems} {fp}"));
                }
            }
        }
    }
    out
}

#[test]
fn every_paper_and_candidate_schedule_matches_its_pin() {
    let got = rows();
    let want: Vec<&str> = PINS.lines().collect();
    let diffs: Vec<String> = got
        .iter()
        .zip(&want)
        .filter(|(g, w)| g != *w)
        .map(|(g, w)| format!("  got  {g}\n  want {w}"))
        .take(20)
        .collect();
    assert!(
        diffs.is_empty() && got.len() == want.len(),
        "{} rows computed, {} pinned; first differences:\n{}",
        got.len(),
        want.len(),
        diffs.join("\n")
    );
}
