//! The request matrix of `tests/schedule_pins.rs`: every paper and
//! tuner-candidate schedule over all seven kinds × `paper_scaled`
//! 1/2/8/64/256 plus a non-power-of-two 3-bank × 2-chip × 2-rank geometry
//! × payloads {1, 3, 64, 193, 1030}. AllGather at 256 DPUs is skipped
//! (its `N·n` buffer makes those builds the slowest by far, as in
//! pimbench). Shared with the suites that check a property of every
//! schedule the tuner can price.

use pim_arch::geometry::PimGeometry;
use pimnet_suite::net::collective::CollectiveKind;
use pimnet_suite::net::schedule::{autotune, build_composed_chunked, CommSchedule, Composition};
use pimnet_suite::net::PimnetError;

const ELEMS: [usize; 5] = [1, 3, 64, 193, 1030];

/// One schedule request of the matrix.
pub struct Cell {
    /// `paper`, or the candidate's spec (`/c2` for a 2-way chunk split).
    pub source: String,
    pub kind: CollectiveKind,
    /// `x<dpus>` for a `paper_scaled` geometry, or `b3c2r2`.
    pub label: &'static str,
    pub geometry: PimGeometry,
    pub elems: usize,
    /// The candidate's composition and chunk split; `None` for the paper
    /// schedule.
    pub candidate: Option<(Composition, usize)>,
}

impl Cell {
    /// Builds the cell's schedule with 4-byte elements.
    pub fn build(&self) -> Result<CommSchedule, PimnetError> {
        let (kind, g, elems) = (self.kind, &self.geometry, self.elems);
        match self.candidate {
            None => CommSchedule::build(kind, g, elems, 4),
            Some((comp, chunks)) => build_composed_chunked(kind, g, elems, 4, comp, chunks),
        }
    }
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (source, kind, label, elems) = (&self.source, self.kind, self.label, self.elems);
        write!(f, "{source} {kind:?} {label} {elems}")
    }
}

/// Every cell, in the pin table's row order: per geometry, kind and
/// payload, the paper schedule and then the tuner's candidates in sweep
/// order.
pub fn cells() -> Vec<Cell> {
    let geometries = [
        ("x1", PimGeometry::paper_scaled(1)),
        ("x2", PimGeometry::paper_scaled(2)),
        ("x8", PimGeometry::paper_scaled(8)),
        ("x64", PimGeometry::paper_scaled(64)),
        ("x256", PimGeometry::paper_scaled(256)),
        ("b3c2r2", PimGeometry::new(3, 2, 2, 1)),
    ];
    let mut out = Vec::new();
    for (label, geometry) in geometries {
        for kind in CollectiveKind::ALL {
            if kind == CollectiveKind::AllGather && geometry.total_dpus() == 256 {
                continue;
            }
            for elems in ELEMS {
                let cell = |source: String, candidate| Cell {
                    source,
                    kind,
                    label,
                    geometry,
                    elems,
                    candidate,
                };
                out.push(cell("paper".to_string(), None));
                for (comp, chunks) in autotune::candidates(kind, &geometry, elems) {
                    let spec = if chunks == 1 {
                        comp.spec()
                    } else {
                        format!("{comp}/c{chunks}")
                    };
                    out.push(cell(spec, Some((comp, chunks))));
                }
            }
        }
    }
    out
}
